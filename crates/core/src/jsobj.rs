//! `JSObj` — the programmer-facing distributed object (paper §4.4–§4.7).

use crate::appoa::AppShared;
use crate::error::JsError;
use crate::ids::{ObjectHandle, ObjectId};
use crate::registration::JsRegistration;
use crate::value::Value;
use crate::{Result, ResultHandle};
use jsym_net::NodeId;
use jsym_sysmon::JsConstraints;
use std::sync::Arc;

/// Where to create an object (the optional second parameter of the paper's
/// `new JSObj(...)`).
///
/// Where the runtime chooses (`Auto`, `InCluster`, `InSite`, `InDomain`) it
/// takes `VdaRegistry::least_loaded`: lowest `(CpuLoad1, NodeId)` among the
/// live candidates satisfying the constraints, on *this monitoring period's*
/// samples (§5.1) — a load change shows at the next period, not mid-period. A
/// fixed placement's constraints are checked against the same sample.
#[derive(Clone, Copy, Debug, Default)]
pub enum Placement<'a> {
    /// Let the runtime pick a node with the smallest system load.
    #[default]
    Auto,
    /// On the node where the application executes (`JS.getLocalNode()`).
    Local,
    /// On a specific physical machine.
    OnPhys(NodeId),
    /// On a specific virtual node.
    OnNode(&'a jsym_vda::Node),
    /// On a node of this cluster chosen by the runtime (or constraints).
    InCluster(&'a jsym_vda::Cluster),
    /// On a node of this site chosen by the runtime (or constraints).
    InSite(&'a jsym_vda::Site),
    /// On a node of this domain chosen by the runtime (or constraints).
    InDomain(&'a jsym_vda::Domain),
    /// On the same node where another object currently resides
    /// (`new JSObj("C", obj2.getNode())`).
    WithObject(&'a JsObj),
}

/// Where to migrate an object (paper §4.6). The runtime's own choices prefer
/// a machine other than the current one and rank like [`Placement`]'s.
#[derive(Clone, Copy, Debug)]
pub enum MigrateTarget<'a> {
    /// Let the runtime pick the least-loaded other node.
    Auto,
    /// A specific physical machine.
    ToPhys(NodeId),
    /// A specific virtual node.
    ToNode(&'a jsym_vda::Node),
    /// A node of this cluster chosen by the runtime.
    ToCluster(&'a jsym_vda::Cluster),
    /// A node of this site chosen by the runtime.
    ToSite(&'a jsym_vda::Site),
    /// A node of this domain chosen by the runtime.
    ToDomain(&'a jsym_vda::Domain),
}

/// The architecture component an object was placed into at creation —
/// what the paper's `obj.getNode()/getCluster()/getSite()/getDomain()`
/// return for co-location purposes.
#[derive(Clone, Debug)]
pub enum PlacedIn {
    /// Placed on a specific machine (Auto/Local/OnPhys/OnNode/WithObject).
    Node(NodeId),
    /// Placed somewhere inside this cluster.
    Cluster(jsym_vda::Cluster),
    /// Placed somewhere inside this site.
    Site(jsym_vda::Site),
    /// Placed somewhere inside this domain.
    Domain(jsym_vda::Domain),
}

/// A handle to a distributed object created by this application.
///
/// Cloning shares the same remote object.
#[derive(Clone)]
pub struct JsObj {
    app: Arc<AppShared>,
    id: ObjectId,
    class: String,
    placed_in: PlacedIn,
}

impl JsObj {
    /// `new JSObj(class [, placement] [, constraints])` — creates an object
    /// of `class` (whose code must be available on the target node, §4.3).
    pub fn create(
        reg: &JsRegistration,
        class: &str,
        args: &[Value],
        placement: Placement<'_>,
        constraints: Option<&JsConstraints>,
    ) -> Result<JsObj> {
        let app = reg.app();
        let target = resolve_placement(&app, placement, constraints)?;
        let placed_in = match placement {
            Placement::InCluster(c) => PlacedIn::Cluster((*c).clone()),
            Placement::InSite(s) => PlacedIn::Site((*s).clone()),
            Placement::InDomain(d) => PlacedIn::Domain((*d).clone()),
            Placement::WithObject(o) => o.placed_in.clone(),
            _ => PlacedIn::Node(target),
        };
        let id = app.create_object(class, args, target)?;
        Ok(JsObj {
            app,
            id,
            class: class.to_owned(),
            placed_in,
        })
    }

    pub(crate) fn from_parts_at(
        app: Arc<AppShared>,
        id: ObjectId,
        class: String,
        node: NodeId,
    ) -> JsObj {
        JsObj {
            app,
            id,
            class,
            placed_in: PlacedIn::Node(node),
        }
    }

    /// This object's id.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// The class this object was created from.
    pub fn class_name(&self) -> &str {
        &self.class
    }

    /// The first-order handle, passable to other objects' methods as
    /// [`Value::Handle`].
    pub fn handle(&self) -> ObjectHandle {
        self.app.handle_for(self.id)
    }

    /// The component this object was placed into at creation — the paper's
    /// `obj.getNode()/getCluster()/getSite()/getDomain()`, used to create
    /// further objects close to this one at a chosen granularity:
    ///
    /// ```ignore
    /// // new JSObj("class_name", obj2.getCluster()):
    /// if let PlacedIn::Cluster(c) = obj2.placed_in() {
    ///     JsObj::create(&reg, "class_name", &[], Placement::InCluster(&c), None)?;
    /// }
    /// ```
    pub fn placed_in(&self) -> PlacedIn {
        self.placed_in.clone()
    }

    /// The machine the object currently lives on.
    pub fn get_location(&self) -> Result<NodeId> {
        self.app
            .location_of(self.id)
            .ok_or(JsError::NoSuchObject(self.id))
    }

    /// Host name of the machine the object currently lives on.
    pub fn get_node_name(&self) -> Result<String> {
        let loc = self.get_location()?;
        Ok(self.app.pool.machine(loc)?.spec().name.clone())
    }

    /// `sinvoke` — synchronous (blocking) method invocation (§4.5).
    pub fn sinvoke(&self, method: &str, args: &[Value]) -> Result<Value> {
        self.app.sinvoke(self.id, method, args)
    }

    /// `ainvoke` — asynchronous invocation; returns a handle whose
    /// `is_ready`/`get_result` mirror the paper's API.
    pub fn ainvoke(&self, method: &str, args: &[Value]) -> Result<ResultHandle> {
        self.app.ainvoke(self.id, method, args)
    }

    /// `oinvoke` — one-sided invocation: no result, no completion wait.
    pub fn oinvoke(&self, method: &str, args: &[Value]) -> Result<()> {
        self.app.oinvoke(self.id, method, args)
    }

    /// `migrate()` / `migrate(constr)` / `migrate(node|cluster|site|domain
    /// [, constr])` — moves the object (§4.6). Blocks until the migration
    /// protocol confirms; returns the destination machine.
    pub fn migrate(
        &self,
        target: MigrateTarget<'_>,
        constraints: Option<&JsConstraints>,
    ) -> Result<NodeId> {
        let current = self.get_location()?;
        let dst = resolve_migrate_target(&self.app, current, target, constraints)?;
        self.app.migrate_object(self.id, dst)?;
        Ok(dst)
    }

    /// `obj.store([key])` — persists the object's state; returns the key
    /// (§4.7). The object keeps running afterwards.
    pub fn store(&self, key: Option<&str>) -> Result<String> {
        self.app.store_object(self.id, key)
    }

    /// `obj.free()` — releases the object (§4.4).
    pub fn free(&self) -> Result<()> {
        self.app.free_object(self.id)
    }
}

impl std::fmt::Debug for JsObj {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JsObj({} : {})", self.id, self.class)
    }
}

impl PartialEq for JsObj {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for JsObj {}

/// Resolves a placement to a physical machine.
pub(crate) fn resolve_placement(
    app: &Arc<AppShared>,
    placement: Placement<'_>,
    constraints: Option<&JsConstraints>,
) -> Result<NodeId> {
    let candidates: Vec<NodeId> = match placement {
        Placement::Auto => app.pool.ids(),
        Placement::Local => return check_fixed(app, app.home, constraints),
        Placement::OnPhys(n) => return check_fixed(app, n, constraints),
        Placement::OnNode(n) => return check_fixed(app, n.phys(), constraints),
        Placement::InCluster(c) => c.machines(),
        Placement::InSite(s) => s.machines(),
        Placement::InDomain(d) => d.machines(),
        Placement::WithObject(o) => return o.get_location(),
    };
    if candidates.is_empty() {
        return Err(JsError::PlacementFailed("component has no nodes".into()));
    }
    least_loaded(app, &candidates, constraints)
}

fn least_loaded(
    app: &Arc<AppShared>,
    candidates: &[NodeId],
    constraints: Option<&JsConstraints>,
) -> Result<NodeId> {
    let none = || JsError::PlacementFailed("no candidate node satisfies the constraints".into());
    app.vda
        .least_loaded(candidates, constraints)
        .ok_or_else(none)
}

fn check_fixed(
    app: &Arc<AppShared>,
    node: NodeId,
    constraints: Option<&JsConstraints>,
) -> Result<NodeId> {
    if let Some(c) = constraints {
        let snap =
            (app.vda.sample_of(node)).ok_or(jsym_vda::VdaError::UnknownPhysicalNode(node))?;
        if !c.holds(&snap) {
            return Err(JsError::PlacementFailed(format!(
                "node {node} does not satisfy the constraints"
            )));
        }
    }
    Ok(node)
}

fn resolve_migrate_target(
    app: &Arc<AppShared>,
    current: NodeId,
    target: MigrateTarget<'_>,
    constraints: Option<&JsConstraints>,
) -> Result<NodeId> {
    let candidates: Vec<NodeId> = match target {
        MigrateTarget::Auto => (app.pool.ids().into_iter())
            .filter(|&id| id != current)
            .collect(),
        MigrateTarget::ToPhys(n) => return Ok(n),
        MigrateTarget::ToNode(n) => return Ok(n.phys()),
        MigrateTarget::ToCluster(c) => c.machines(),
        MigrateTarget::ToSite(s) => s.machines(),
        MigrateTarget::ToDomain(d) => d.machines(),
    };
    // Prefer moving off the current node when the component has others.
    let filtered: Vec<NodeId> = candidates
        .iter()
        .copied()
        .filter(|&n| n != current)
        .collect();
    let pool = if filtered.is_empty() {
        candidates
    } else {
        filtered
    };
    if pool.is_empty() {
        return Err(JsError::PlacementFailed("no migration target".into()));
    }
    least_loaded(app, &pool, constraints)
}
