//! Distributed classes and the class registry.
//!
//! Java loads byte-code at runtime; Rust cannot. The observable behaviour of
//! JavaSymphony's class machinery is (a) objects are instantiated *by class
//! name* on remote nodes, (b) instantiation requires the class's code to be
//! present there (selective classloading, §4.3), and (c) object state can be
//! serialized for migration and persistence. All three are reproduced by the
//! [`ClassRegistry`]: classes register a constructor and a restore function,
//! plus the name of the codebase artifact that carries their "byte-code".
//! State travels in the binary codec of [`crate::state`].

use crate::error::JsError;
use crate::ids::ObjectHandle;
use crate::intern::Sym;
use crate::state::{decode_state, State};
use crate::value::Value;
use crate::Result;
use jsym_net::{NodeId, VirtTime};
use jsym_sysmon::SimMachine;
use parking_lot::RwLock;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;

/// Ability to invoke methods on remote objects from inside a method body
/// (nested RMI). Implemented by the node runtime.
pub trait ObjectCaller: Send + Sync {
    /// Synchronously invokes `method` on the object behind `handle`.
    fn call(&self, handle: ObjectHandle, method: &str, args: &[Value]) -> Result<Value>;
}

/// A caller that rejects nested invocations, for instances no runtime hosts
/// ([`crate::testkit::invoke_detached`]).
pub(crate) struct NoCaller;

impl ObjectCaller for NoCaller {
    fn call(&self, handle: ObjectHandle, _method: &str, _args: &[Value]) -> Result<Value> {
        Err(JsError::NoSuchObject(handle.id))
    }
}

/// Execution context handed to every method invocation.
///
/// Methods express computational cost through [`InvokeCtx::compute`]; the
/// simulated machine turns it into (scaled) time at the node's effective
/// speed, including background load and CPU contention.
pub struct InvokeCtx<'a> {
    machine: &'a SimMachine,
    node: NodeId,
    caller: &'a dyn ObjectCaller,
}

impl<'a> InvokeCtx<'a> {
    pub(crate) fn new(machine: &'a SimMachine, node: NodeId, caller: &'a dyn ObjectCaller) -> Self {
        InvokeCtx {
            machine,
            node,
            caller,
        }
    }

    /// Executes `flops` of modeled work on the hosting node.
    ///
    /// Modeled work sleeps real time (scaled); on the work-stealing
    /// executor that would pin a worker, so it is declared blocking and the
    /// pool compensates with a spare. Plain-thread mode is a passthrough.
    pub fn compute(&self, flops: f64) {
        jsym_exec::blocking(|| self.machine.compute(flops));
    }

    /// The node this method executes on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Host name of the executing node.
    pub fn node_name(&self) -> &str {
        &self.machine.spec().name
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtTime {
        self.machine.clock().now()
    }

    /// The simulated machine executing this method.
    pub fn machine(&self) -> &SimMachine {
        self.machine
    }

    /// Nested synchronous invocation on another object (handles are
    /// first-order and may point anywhere in the system).
    pub fn invoke(&self, handle: ObjectHandle, method: &str, args: &[Value]) -> Result<Value> {
        self.caller.call(handle, method, args)
    }
}

/// A distributed object implementation — the Rust analogue of a Java class
/// whose instances JavaSymphony creates remotely.
///
/// Implementations must be `Send` (instances move between executor threads
/// and nodes). A class whose state is [`State`] returns
/// [`encode_state(self)`](crate::encode_state) from `snapshot`, and
/// [`ClassRegistry::register_class`] derives the matching restore.
pub trait JsClass: Send {
    /// The class name this instance was registered under.
    fn class_name(&self) -> &str;

    /// Dispatches a method by name (the paper's reflective `sinvoke`
    /// target). Implementations should call `ctx.compute(..)` to account for
    /// their computational cost.
    fn invoke(&mut self, method: &str, args: &[Value], ctx: &mut InvokeCtx<'_>) -> Result<Value>;

    /// Serializes the object's state for migration and persistence.
    fn snapshot(&self) -> Result<Vec<u8>>;
}

type Ctor = dyn Fn(&[Value]) -> Result<Box<dyn JsClass>> + Send + Sync;
type Restore = dyn Fn(&[u8]) -> Result<Box<dyn JsClass>> + Send + Sync;
type StaticCtor = dyn Fn() -> Result<Box<dyn JsClass>> + Send + Sync;

struct ClassDef {
    artifact: Option<Arc<str>>,
    ctor: Arc<Ctor>,
    restore: Arc<Restore>,
    /// Constructor of the class's *static context* — one instance per node,
    /// holding the class's static variables (paper §7 future work,
    /// implemented here).
    static_ctor: Option<Arc<StaticCtor>>,
}

/// The deployment-wide registry of distributed classes.
///
/// Cloning shares the registry. Internally keyed by interned [`Sym`]s: the
/// public `&str` API interns once on entry (class registration and
/// app-facing lookups), while the dispatch hot path in the PubOA uses the
/// `*_sym` variants and never hashes a string.
#[derive(Clone)]
pub struct ClassRegistry {
    map: Arc<RwLock<HashMap<Sym, ClassDef>>>,
}

impl ClassRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ClassRegistry {
            map: Arc::new(RwLock::new(HashMap::new())),
        }
    }

    /// Reads one thing out of a class's definition under the read lock.
    /// Callers take an `Arc` out and call it after the lock is gone: a
    /// constructor is user code and may itself register classes.
    fn with_def<R>(&self, class: Sym, read: impl FnOnce(&ClassDef) -> R) -> Result<R> {
        self.map
            .read()
            .get(&class)
            .map(read)
            .ok_or_else(|| JsError::UnknownClass(class.as_str().to_owned()))
    }

    /// Registers a class with explicit constructor and restore functions.
    ///
    /// `artifact` names the codebase artifact carrying this class's
    /// byte-code; `None` marks a system class that is preloaded everywhere.
    /// Registration is where the class name enters the symbol table (the
    /// paper's registration broadcast syncing node-local name tables).
    pub fn register_raw(
        &self,
        name: &str,
        artifact: Option<&str>,
        ctor: impl Fn(&[Value]) -> Result<Box<dyn JsClass>> + Send + Sync + 'static,
        restore: impl Fn(&[u8]) -> Result<Box<dyn JsClass>> + Send + Sync + 'static,
    ) {
        self.map.write().insert(
            Sym::intern(name),
            ClassDef {
                artifact: artifact.map(Arc::from),
                ctor: Arc::new(ctor),
                restore: Arc::new(restore),
                static_ctor: None,
            },
        );
    }

    /// Declares the class's static context: a per-node singleton holding the
    /// class's static variables and answering its static methods. The class
    /// must already be registered.
    pub fn set_static<F>(&self, name: &str, ctor: F) -> Result<()>
    where
        F: Fn() -> Result<Box<dyn JsClass>> + Send + Sync + 'static,
    {
        let mut map = self.map.write();
        let def = map
            .get_mut(&Sym::intern(name))
            .ok_or_else(|| JsError::UnknownClass(name.to_owned()))?;
        def.static_ctor = Some(Arc::new(ctor));
        Ok(())
    }

    /// Instantiates the class's static context (one per node, created
    /// lazily by the PubOA on first static invocation).
    pub fn create_static(&self, name: &str) -> Result<Box<dyn JsClass>> {
        self.create_static_sym(Sym::intern(name))
    }

    pub(crate) fn create_static_sym(&self, class: Sym) -> Result<Box<dyn JsClass>> {
        match self.with_def(class, |d| d.static_ctor.clone())? {
            Some(ctor) => ctor(),
            None => Err(JsError::NoSuchMethod {
                class: class.as_str().to_owned(),
                method: "<static context>".to_owned(),
            }),
        }
    }

    /// Whether the class declares a static context.
    pub fn has_static(&self, name: &str) -> bool {
        self.has_static_sym(Sym::intern(name))
    }

    pub(crate) fn has_static_sym(&self, class: Sym) -> bool {
        self.with_def(class, |d| d.static_ctor.is_some())
            .unwrap_or(false)
    }

    /// Registers a class whose state is [`State`]: `ctor` builds an instance
    /// from constructor arguments; restore is [`decode_state`].
    pub fn register_class<T, C>(&self, name: &str, artifact: Option<&str>, ctor: C)
    where
        T: JsClass + State + 'static,
        C: Fn(&[Value]) -> Result<T> + Send + Sync + 'static,
    {
        self.register_raw(
            name,
            artifact,
            move |args| Ok(Box::new(ctor(args)?) as Box<dyn JsClass>),
            |bytes| Ok(Box::new(decode_state::<T>(bytes)?) as Box<dyn JsClass>),
        );
    }

    /// Instantiates a class from constructor arguments.
    pub fn create(&self, name: &str, args: &[Value]) -> Result<Box<dyn JsClass>> {
        self.create_sym(Sym::intern(name), args)
    }

    pub(crate) fn create_sym(&self, class: Sym, args: &[Value]) -> Result<Box<dyn JsClass>> {
        let ctor = self.with_def(class, |d| Arc::clone(&d.ctor))?;
        ctor(args)
    }

    /// Reconstructs an instance from a state snapshot (migration arrival,
    /// persistent load).
    pub fn restore(&self, name: &str, bytes: &[u8]) -> Result<Box<dyn JsClass>> {
        self.restore_sym(Sym::intern(name), bytes)
    }

    pub(crate) fn restore_sym(&self, class: Sym, bytes: &[u8]) -> Result<Box<dyn JsClass>> {
        let restore = self.with_def(class, |d| Arc::clone(&d.restore))?;
        restore(bytes)
    }

    /// The artifact carrying this class, or `None` for preloaded classes.
    pub fn artifact_of(&self, name: &str) -> Result<Option<Arc<str>>> {
        self.artifact_of_sym(Sym::intern(name))
    }

    pub(crate) fn artifact_of_sym(&self, class: Sym) -> Result<Option<Arc<str>>> {
        self.with_def(class, |d| d.artifact.clone())
    }

    /// Whether the class is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.contains_sym(Sym::intern(name))
    }

    pub(crate) fn contains_sym(&self, class: Sym) -> bool {
        self.map.read().contains_key(&class)
    }

    /// Names of all registered classes (sorted; for diagnostics).
    pub fn class_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .map
            .read()
            .keys()
            .map(|s| s.as_str().to_owned())
            .collect();
        v.sort();
        v
    }
}

impl Default for ClassRegistry {
    fn default() -> Self {
        ClassRegistry::new()
    }
}

impl std::fmt::Debug for ClassRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassRegistry")
            .field("classes", &self.map.read().len())
            .finish()
    }
}

/// Serializes a `Serialize` state as JSON. Nothing in the runtime reads or
/// writes this format any more ([`crate::encode_state`] replaced it); it is
/// kept for the benchmark harness, which still calls it.
pub fn snapshot_state<T: Serialize>(state: &T) -> Result<Vec<u8>> {
    serde_json::to_vec(state).map_err(|e| JsError::Serialization(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{invoke_detached, test_ctx_machine, Counter};

    fn registry() -> ClassRegistry {
        let reg = ClassRegistry::new();
        reg.register_class::<Counter, _>("Counter", Some("test.jar"), |args| {
            Ok(Counter::from_args(args))
        });
        reg
    }

    #[test]
    fn create_and_invoke() {
        let reg = registry();
        let mut obj = reg.create("Counter", &[Value::I64(10)]).unwrap();
        assert_eq!(obj.class_name(), "Counter");
        let v = invoke_detached(&mut *obj, "add", &[Value::I64(5)]).unwrap();
        assert_eq!(v, Value::I64(15));
        assert_eq!(
            invoke_detached(&mut *obj, "get", &[]).unwrap(),
            Value::I64(15)
        );
    }

    #[test]
    fn unknown_class_and_method() {
        let reg = registry();
        assert!(matches!(
            reg.create("Ghost", &[]),
            Err(JsError::UnknownClass(_))
        ));
        let mut obj = reg.create("Counter", &[]).unwrap();
        assert!(matches!(
            invoke_detached(&mut *obj, "fly", &[]),
            Err(JsError::NoSuchMethod { .. })
        ));
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let reg = registry();
        let mut obj = reg.create("Counter", &[Value::I64(3)]).unwrap();
        invoke_detached(&mut *obj, "add", &[Value::I64(4)]).unwrap();
        let state = obj.snapshot().unwrap();
        let mut back = reg.restore("Counter", &state).unwrap();
        assert_eq!(
            invoke_detached(&mut *back, "get", &[]).unwrap(),
            Value::I64(7)
        );
    }

    #[test]
    fn restore_garbage_fails_cleanly() {
        let reg = registry();
        for garbage in [&b""[..], b"not json", b"\x01short"] {
            assert!(matches!(
                reg.restore("Counter", garbage),
                Err(JsError::Serialization(_))
            ));
        }
    }

    #[test]
    fn artifact_mapping() {
        let reg = registry();
        assert_eq!(
            reg.artifact_of("Counter").unwrap().as_deref(),
            Some("test.jar")
        );
        assert!(reg.artifact_of("Ghost").is_err());
        assert!(reg.contains("Counter"));
        assert_eq!(reg.class_names(), vec!["Counter".to_owned()]);
    }

    #[test]
    fn ctx_exposes_node_identity_and_time() {
        let machine = test_ctx_machine();
        let caller = NoCaller;
        let ctx = InvokeCtx::new(&machine, NodeId(4), &caller);
        assert_eq!(ctx.node(), NodeId(4));
        assert_eq!(ctx.node_name(), machine.spec().name);
        assert!(ctx.now() >= 0.0);
    }
}
