//! Test fixtures: sample distributed classes and shell configurations.
//!
//! Public so integration tests, examples and benches across the workspace
//! can share them; not intended for production use.

use crate::class::{InvokeCtx, JsClass, NoCaller};
use crate::error::JsError;
use crate::shell::{Deployment, JsShell, MachineConfig};
use crate::state::encode_state;
use crate::value::Value;
use crate::Result;
use jsym_net::{NodeId, SimClock, TimeScale};
use jsym_sysmon::{LoadModel, LoadProfile, MachineSpec, SimMachine};
use serde::{Deserialize, Serialize};

/// A serializable counter with a handful of exercisable methods.
#[derive(Debug, Serialize, Deserialize)]
pub struct Counter {
    value: i64,
}

crate::impl_state!(Counter { value });

impl Counter {
    /// Builds a counter from optional `[initial]` args.
    pub fn from_args(args: &[Value]) -> Self {
        Counter {
            value: args.first().and_then(Value::as_i64).unwrap_or(0),
        }
    }
}

impl JsClass for Counter {
    fn class_name(&self) -> &str {
        "Counter"
    }

    fn invoke(&mut self, method: &str, args: &[Value], ctx: &mut InvokeCtx<'_>) -> Result<Value> {
        match method {
            "add" => {
                let d = args
                    .first()
                    .and_then(Value::as_i64)
                    .ok_or_else(|| JsError::BadArguments("add(i64)".into()))?;
                self.value += d;
                Ok(Value::I64(self.value))
            }
            "get" => Ok(Value::I64(self.value)),
            "set" => {
                self.value = args
                    .first()
                    .and_then(Value::as_i64)
                    .ok_or_else(|| JsError::BadArguments("set(i64)".into()))?;
                Ok(Value::Null)
            }
            "echo" => Ok(args.first().cloned().unwrap_or(Value::Null)),
            "node_name" => Ok(Value::Str(ctx.node_name().to_owned())),
            "compute" => {
                let flops = args
                    .first()
                    .and_then(Value::as_f64)
                    .ok_or_else(|| JsError::BadArguments("compute(f64)".into()))?;
                ctx.compute(flops);
                Ok(Value::F64(ctx.now()))
            }
            // Nested invocation: add `args[1]` to the counter behind the
            // handle in `args[0]` (exercises first-order handles).
            "add_to" => {
                let handle = args
                    .first()
                    .and_then(Value::as_handle)
                    .ok_or_else(|| JsError::BadArguments("add_to(handle, i64)".into()))?;
                let d = args.get(1).cloned().unwrap_or(Value::I64(1));
                ctx.invoke(handle, "add", &[d])
            }
            "fail" => Err(JsError::MethodFailed("requested failure".into())),
            _ => Err(JsError::NoSuchMethod {
                class: "Counter".into(),
                method: method.to_owned(),
            }),
        }
    }

    fn snapshot(&self) -> Result<Vec<u8>> {
        encode_state(self)
    }
}

/// A class with bulk state, for migration/persistence cost tests.
#[derive(Debug, Serialize, Deserialize)]
pub struct Blob {
    data: Vec<u8>,
}

crate::impl_state!(Blob { data });

impl Blob {
    /// Builds a blob of `[size]` bytes.
    pub fn from_args(args: &[Value]) -> Self {
        let size = args.first().and_then(Value::as_i64).unwrap_or(0).max(0) as usize;
        Blob {
            data: vec![0xAB; size],
        }
    }
}

impl JsClass for Blob {
    fn class_name(&self) -> &str {
        "Blob"
    }

    fn invoke(&mut self, method: &str, args: &[Value], _ctx: &mut InvokeCtx<'_>) -> Result<Value> {
        match method {
            "size" => Ok(Value::I64(self.data.len() as i64)),
            "fill" => {
                let b = args.first().and_then(Value::as_i64).unwrap_or(0) as u8;
                self.data.fill(b);
                Ok(Value::Null)
            }
            "checksum" => Ok(Value::I64(self.data.iter().map(|&b| b as i64).sum::<i64>())),
            _ => Err(JsError::NoSuchMethod {
                class: "Blob".into(),
                method: method.to_owned(),
            }),
        }
    }

    fn snapshot(&self) -> Result<Vec<u8>> {
        encode_state(self)
    }
}

/// Registers the test classes with a deployment's class registry.
///
/// `Counter` is a preloaded system class (no codebase needed); `Blob` lives
/// in the `"blob.jar"` artifact and therefore requires selective
/// classloading before it can be created on a node.
pub fn register_test_classes(deployment: &Deployment) {
    deployment
        .classes()
        .register_class::<Counter, _>("Counter", None, |args| Ok(Counter::from_args(args)));
    // Counter's static context: a per-node shared counter (its "static
    // variable"), exercising the statics extension.
    deployment
        .classes()
        .set_static("Counter", || Ok(Box::new(Counter::from_args(&[])) as _))
        .expect("Counter is registered");
    deployment
        .classes()
        .register_class::<Blob, _>("Blob", Some("blob.jar"), |args| Ok(Blob::from_args(args)));
}

/// A three-machine shell running 100 000× real time — the standard unit-test
/// deployment (machines `m0`, `m1`, `m2`, all idle, 100 Mbit links).
pub fn three_node_shell() -> JsShell {
    shell_with_idle_machines(3)
}

/// A shell with `n` idle machines named `m0..m{n-1}`.
pub fn shell_with_idle_machines(n: usize) -> JsShell {
    let mut shell = JsShell::new()
        .time_scale(1e-5)
        .monitor_period(1.0)
        .failure_timeout(1e9); // detection exercised only by tests that set a real timeout
    for i in 0..n {
        shell = shell.add_machine(MachineConfig::idle(&format!("m{i}"), 50.0));
    }
    shell
}

/// A standalone idle machine on a microsecond-scale clock, for unit tests
/// that need an [`InvokeCtx`].
pub fn test_ctx_machine() -> SimMachine {
    SimMachine::new(
        MachineSpec::generic("test-machine", 1000.0, 512.0),
        LoadModel::new(LoadProfile::Idle, 0),
        SimClock::new(TimeScale::new(1e-6)),
    )
}

/// Invokes `method` on an instance no node hosts, on a fresh
/// [`test_ctx_machine`] with nested invocations refused — for tests that
/// restore a state by hand and read the result back.
pub fn invoke_detached(obj: &mut dyn JsClass, method: &str, args: &[Value]) -> Result<Value> {
    let machine = test_ctx_machine();
    obj.invoke(
        method,
        args,
        &mut InvokeCtx::new(&machine, NodeId(0), &NoCaller),
    )
}
