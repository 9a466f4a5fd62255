//! # jsym-core — the JavaSymphony runtime system (JRS) in Rust
//!
//! This crate is the paper's primary contribution: an agent-based runtime
//! that lets applications control *where* objects and code live on a
//! heterogeneous distributed system, while the runtime handles the low-level
//! mechanics (remote creation, three invocation modes, migration,
//! persistence, monitoring, failure handling).
//!
//! Architecture (paper §5, Figure 2):
//!
//! * every node runs a **network agent** (NA — monitoring, heartbeats,
//!   failure detection) and a **public object agent** (PubOA — hosts object
//!   instances, executes methods) inside one *node runtime* (the paper's
//!   per-node JVM);
//! * every application gets an **application object agent** (AppOA) on its
//!   home node, which tracks the objects it created (the
//!   *local-objects-table*), issues invocations and orchestrates migration;
//! * the **JS-Shell** ([`JsShell`]) configures the node set, monitoring
//!   periods, failure timeouts and automatic migration, and boots a
//!   [`Deployment`].
//!
//! Programming model (paper §4):
//!
//! ```
//! use jsym_core::{Deployment, JsShell, JsObj, Placement, Value};
//! use jsym_core::testkit::{register_test_classes, three_node_shell};
//!
//! let deployment = three_node_shell().boot();
//! register_test_classes(&deployment);
//!
//! // Register the application with the JRS.
//! let reg = deployment.register_app().unwrap();
//!
//! // Create an object somewhere cheap, invoke it three ways.
//! let obj = JsObj::create(&reg, "Counter", &[], Placement::Auto, None).unwrap();
//! obj.oinvoke("add", &[Value::I64(5)]).unwrap();                  // one-sided
//! let h = obj.ainvoke("add", &[Value::I64(2)]).unwrap();          // asynchronous
//! let _ = h.get_result().unwrap();
//! let v = obj.sinvoke("get", &[]).unwrap();                       // synchronous
//! assert_eq!(v, Value::I64(7));
//!
//! obj.free().unwrap();
//! reg.unregister().unwrap();
//! ```

#![warn(missing_docs)]

mod appoa;
mod automigrate;
mod calltable;
mod class;
mod codebase;
mod cost;
mod dir;
mod error;
mod events;
mod ids;
mod intern;
mod jsobj;
mod msg;
mod na;
mod persist;
mod puboa;
mod recovery;
mod registration;
mod runtime;
mod shell;
pub mod state;
mod statics;
pub mod testkit;
mod value;

pub use calltable::ResultHandle;
pub use class::{snapshot_state, ClassRegistry, InvokeCtx, JsClass};
pub use codebase::JsCodebase;
pub use cost::CostModel;
pub use dir::DirectoryStatus;
pub use error::JsError;
pub use events::{EventLog, RuntimeEvent};
pub use ids::{AgentAddr, AgentKind, AppId, ObjectHandle, ObjectId};
pub use jsobj::{JsObj, MigrateTarget, PlacedIn, Placement};
pub use persist::ObjectStore;
pub use registration::JsRegistration;
pub use shell::{
    AffinityConfig, AffinityStats, Deployment, JsShell, MachineConfig, NodeStats,
    DEFAULT_EXECUTOR_WORKERS,
};
pub use state::{encode_state, State};
pub use statics::JsStaticRef;
pub use value::{Args, Value};

/// Observability subsystem (re-exported from `jsym-obs`): metrics registry,
/// span tracer, snapshots, JSON export.
pub use jsym_exec::ExecStats;
pub use jsym_obs as obs;

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, JsError>;
