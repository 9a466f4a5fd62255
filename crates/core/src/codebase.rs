//! Selective remote classloading (paper §4.3).
//!
//! "Instead of replicating all Java classes to all nodes executing an
//! application, classes may be considered to be loaded only to the nodes
//! that actually need them." A [`JsCodebase`] collects artifacts (the
//! paper's Java archive / class files) and ships them to chosen components
//! of a virtual architecture; object creation on a node fails unless the
//! class's artifact is present there, and per-node memory accounting tracks
//! the footprint — the two observable effects of the Java feature a static
//! language can reproduce.

use crate::appoa::AppShared;
use crate::ids::{AgentAddr, IdGen};
use crate::msg::Msg;
use crate::Result;
use jsym_net::NodeId;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

/// One codebase artifact: a named blob of "byte-code" with a size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Artifact {
    /// Artifact name (e.g. `"classes.jar"`).
    pub name: String,
    /// Size in bytes — what the network transfer and the node's memory
    /// accounting are charged.
    pub bytes: usize,
}

/// A codebase: a set of artifacts that can be loaded onto nodes, clusters,
/// sites or domains.
pub struct JsCodebase {
    app: Arc<AppShared>,
    artifacts: Mutex<Vec<Artifact>>,
    /// (artifact name, node, bytes) successfully loaded, for `free()`.
    loaded_to: Mutex<HashSet<(String, NodeId)>>,
}

impl JsCodebase {
    pub(crate) fn new(app: Arc<AppShared>) -> Self {
        JsCodebase {
            app,
            artifacts: Mutex::new(Vec::new()),
            loaded_to: Mutex::new(HashSet::new()),
        }
    }

    /// Adds an artifact by name and size (`codebase.add("../classes.jar")` —
    /// since there is no real byte-code to read, the size is declared).
    pub fn add(&self, name: &str, bytes: usize) -> &Self {
        self.artifacts.push_artifact(name, bytes);
        self
    }

    /// Adds an artifact fetched from a URL (simulated: the name is the last
    /// path segment, the size is declared).
    pub fn add_url(&self, url: &str, bytes: usize) -> &Self {
        let name = url.rsplit('/').next().unwrap_or(url);
        self.artifacts.push_artifact(name, bytes);
        self
    }

    /// The artifacts currently in the codebase.
    pub fn artifacts(&self) -> Vec<Artifact> {
        self.artifacts.lock().clone()
    }

    /// Total size of the codebase in bytes.
    pub fn total_bytes(&self) -> usize {
        self.artifacts.lock().iter().map(|a| a.bytes).sum()
    }

    /// Loads the codebase onto one physical node.
    pub fn load_phys(&self, node: NodeId) -> Result<()> {
        let arts = self.artifacts();
        for a in arts {
            self.ship(node, &a)?;
        }
        Ok(())
    }

    /// `codebase.load(node)` — onto a virtual node.
    pub fn load_node(&self, node: &jsym_vda::Node) -> Result<()> {
        self.load_phys(node.phys())
    }

    /// `codebase.load(cluster)` — onto every node of a cluster.
    pub fn load_cluster(&self, cluster: &jsym_vda::Cluster) -> Result<()> {
        self.load_many(cluster.machines())
    }

    /// `codebase.load(site)` — onto every node of a site.
    pub fn load_site(&self, site: &jsym_vda::Site) -> Result<()> {
        self.load_many(site.machines())
    }

    /// `codebase.load(domain)` — onto every node of a domain.
    pub fn load_domain(&self, domain: &jsym_vda::Domain) -> Result<()> {
        self.load_many(domain.machines())
    }

    fn load_many(&self, machines: Vec<NodeId>) -> Result<()> {
        for m in machines {
            self.load_phys(m)?;
        }
        Ok(())
    }

    fn ship(&self, node: NodeId, artifact: &Artifact) -> Result<()> {
        if self
            .loaded_to
            .lock()
            .contains(&(artifact.name.clone(), node))
        {
            return Ok(()); // already there
        }
        let shared = self.app.node_shared()?;
        let span = shared
            .obs
            .tracer()
            .span("codebase.load", crate::runtime::obs_now(&shared))
            .node(node.0)
            .attr("artifact", &artifact.name)
            .attr("bytes", artifact.bytes);
        let req = IdGen::req();
        shared.call(
            AgentAddr::pub_oa(node),
            req,
            Msg::LoadArtifact {
                req,
                reply_to: self.app.addr(),
                name: artifact.name.clone(),
                bytes: artifact.bytes,
            },
        )?;
        span.finish(crate::runtime::obs_now(&shared));
        self.loaded_to.lock().insert((artifact.name.clone(), node));
        Ok(())
    }

    /// Nodes a given artifact has been loaded onto.
    pub fn loaded_nodes(&self, artifact: &str) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .loaded_to
            .lock()
            .iter()
            .filter(|(name, _)| name == artifact)
            .map(|&(_, node)| node)
            .collect();
        v.sort();
        v
    }

    /// `codebase.free()` — unloads every shipped artifact and releases the
    /// associated memory on each node.
    pub fn free(&self) -> Result<()> {
        let shared = self.app.node_shared()?;
        let sizes: std::collections::HashMap<String, usize> = self
            .artifacts
            .lock()
            .iter()
            .map(|a| (a.name.clone(), a.bytes))
            .collect();
        let drained: Vec<(String, NodeId)> = self.loaded_to.lock().drain().collect();
        for (name, node) in drained {
            let bytes = sizes.get(&name).copied().unwrap_or(0);
            let _ = shared.send(AgentAddr::pub_oa(node), Msg::UnloadArtifact { name, bytes });
        }
        Ok(())
    }
}

impl std::fmt::Debug for JsCodebase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsCodebase")
            .field("artifacts", &self.artifacts.lock().len())
            .field("placements", &self.loaded_to.lock().len())
            .finish()
    }
}

trait PushArtifact {
    fn push_artifact(&self, name: &str, bytes: usize);
}

impl PushArtifact for Mutex<Vec<Artifact>> {
    fn push_artifact(&self, name: &str, bytes: usize) {
        let mut v = self.lock();
        if let Some(existing) = v.iter_mut().find(|a| a.name == name) {
            existing.bytes = existing.bytes.max(bytes);
            return;
        }
        v.push(Artifact {
            name: name.to_owned(),
            bytes,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::JsError;

    /// Validation helper: an artifact name must be usable as a map key.
    fn validate_artifact_name(name: &str) -> Result<()> {
        if name.is_empty() {
            Err(JsError::BadArguments("empty artifact name".into()))
        } else {
            Ok(())
        }
    }

    #[test]
    fn artifact_names_validate() {
        assert!(validate_artifact_name("classes.jar").is_ok());
        assert!(validate_artifact_name("").is_err());
    }
}
