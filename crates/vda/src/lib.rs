//! # jsym-vda — dynamic virtual distributed architectures
//!
//! The central abstraction of JavaSymphony (paper §3, §4.2): the programmer
//! imposes a virtual hierarchy — **node ⊂ cluster ⊂ site ⊂ domain** — on the
//! physical machines registered with the runtime, optionally restricted by
//! [`JsConstraints`](jsym_sysmon::JsConstraints) over system parameters, and
//! uses the resulting components to control where objects and code live.
//!
//! * [`ResourcePool`] — the physical machines the JS-Shell configured;
//! * [`VdaRegistry`] — arena of virtual components plus allocation policy;
//! * [`Node`], [`Cluster`], [`Site`], [`Domain`] — the programmer-facing
//!   handles mirroring the paper's API (`nrNodes`, `getCluster`, `freeNode`,
//!   `addCluster`, ...);
//! * the parameter aggregation plane ([`PlaneConfig`], [`PlaneStats`]): one
//!   sample per machine per monitoring period, incremental component
//!   aggregates and a placement heap — the one state every allocation and
//!   component query reads (`DESIGN.md` §9);
//! * manager hierarchy with backups (paper §5.1): every component is
//!   controlled by a manager node; only a cluster manager can be a site
//!   manager and only a site manager a domain manager; when a manager node
//!   fails its backup takes over.
//!
//! Invariants maintained (and property-tested):
//!
//! 1. every live virtual node has exactly one parent chain
//!    `(cluster, site, domain)` once its implicit parents are materialized;
//! 2. managers satisfy the promotion rule above;
//! 3. a physical machine backs at most one live virtual node per registry
//!    unless it was requested *by name* (explicit sharing).

#![warn(missing_docs)]

mod error;
mod event;
mod handles;
mod keys;
mod plane;
mod pool;
mod state;

pub use error::VdaError;
pub use event::{ManagerScope, VdaEvent};
pub use handles::{Cluster, Domain, MonitorView, Node, Site, VdaRegistry};
pub use keys::{ClusterKey, DomainKey, NodeKey, SiteKey};
pub use plane::{PlaneConfig, PlaneStats, ViolationScan, DEFAULT_DIRTY_THRESHOLD};
pub use pool::ResourcePool;

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, VdaError>;
