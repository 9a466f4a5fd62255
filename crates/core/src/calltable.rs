//! Request/reply correlation and asynchronous result handles.
//!
//! The paper's AppOA keeps "result objects for invoked methods" in its
//! local-objects-table and runs "one thread for every asynchronous method
//! invocation in order to overcome blocking Java/RMI". In Rust we invert
//! this: the invocation is sent asynchronously and a [`ResultHandle`] wraps a
//! slot that the thread delivering the reply completes (a worker, or the
//! caller itself) — same observable semantics (`isReady`/`getResult`), no
//! thread per call.

use crate::error::JsError;
use crate::ids::ReqId;
use crate::value::Value;
use crate::Result;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct SlotInner {
    state: Mutex<Option<Result<Value>>>,
    cond: Condvar,
}

/// A completion slot shared between the waiter and the reply path.
#[derive(Clone)]
pub(crate) struct Slot {
    inner: Arc<SlotInner>,
}

impl Slot {
    pub(crate) fn new() -> Self {
        Slot {
            inner: Arc::new(SlotInner {
                state: Mutex::new(None),
                cond: Condvar::new(),
            }),
        }
    }

    /// Fills the slot; later completions are ignored (first reply wins).
    pub(crate) fn complete(&self, result: Result<Value>) {
        let mut st = self.inner.state.lock();
        if st.is_none() {
            *st = Some(result);
            self.inner.cond.notify_all();
        }
    }

    pub(crate) fn is_ready(&self) -> bool {
        self.inner.state.lock().is_some()
    }

    /// Blocks until the slot is filled or `timeout` (real time) elapses.
    ///
    /// This is the one choke point where a runtime task parks waiting for a
    /// reply, so it is where executor-mode capacity compensation happens:
    /// `jsym_exec::blocking` tells the work-stealing pool this worker is
    /// about to stall (a spare takes over), and on any thread hands over the
    /// chain jobs it holds. A slot already filled — the caller ran its own
    /// call — returns at once, without any of that.
    pub(crate) fn wait(&self, timeout: Duration) -> Result<Value> {
        if let Some(filled) = self.peek() {
            return filled;
        }
        jsym_exec::blocking(|| {
            let deadline = Instant::now() + timeout;
            let mut st = self.inner.state.lock();
            while st.is_none() {
                if self.inner.cond.wait_until(&mut st, deadline).timed_out() {
                    return Err(JsError::Timeout);
                }
            }
            st.as_ref().expect("filled").clone()
        })
    }

    /// Non-blocking read of the result, if present.
    pub(crate) fn peek(&self) -> Option<Result<Value>> {
        self.inner.state.lock().clone()
    }
}

/// Pending-call table of one node runtime: maps request ids to slots.
#[derive(Default)]
pub(crate) struct CallTable {
    pending: Mutex<HashMap<ReqId, Slot>>,
}

impl CallTable {
    pub(crate) fn new() -> Self {
        CallTable::default()
    }

    /// Registers a new pending request, returning its slot.
    pub(crate) fn register(&self, req: ReqId) -> Slot {
        let slot = Slot::new();
        self.pending.lock().insert(req, slot.clone());
        slot
    }

    /// Completes (and removes) a pending request. Returns `false` for
    /// unknown requests (late replies after timeout cleanup).
    pub(crate) fn complete(&self, req: ReqId, result: Result<Value>) -> bool {
        match self.pending.lock().remove(&req) {
            Some(slot) => {
                slot.complete(result);
                true
            }
            None => false,
        }
    }

    /// Drops a pending request without completing it (caller gave up).
    pub(crate) fn forget(&self, req: ReqId) {
        self.pending.lock().remove(&req);
    }

    /// Fails every pending request (deployment shutdown, node death).
    pub(crate) fn fail_all(&self, err: JsError) {
        let drained: Vec<Slot> = self.pending.lock().drain().map(|(_, s)| s).collect();
        for slot in drained {
            slot.complete(Err(err.clone()));
        }
    }

    /// Number of outstanding requests.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.pending.lock().len()
    }
}

/// Retry hook used when a reply reports that the object has migrated: the
/// handle re-issues the invocation against the object's new location.
pub(crate) type Reissue = dyn Fn() -> Result<Slot> + Send + Sync;

/// Handle to the future result of an asynchronous invocation (paper §4.5).
///
/// `is_ready()` polls without blocking; `get_result()` blocks until the
/// result arrives. If the underlying reply says the object migrated while
/// the call was in flight, the handle transparently re-issues the invocation
/// (paper Figure 4) — callers never see `ObjectMoved`.
pub struct ResultHandle {
    slot: Mutex<Slot>,
    reissue: Arc<Reissue>,
    timeout: Duration,
    /// Post-receive cost hook (result unmarshalling on the caller's node).
    on_receive: Box<dyn Fn(&Value) + Send + Sync>,
}

impl ResultHandle {
    pub(crate) fn new(
        slot: Slot,
        reissue: Arc<Reissue>,
        timeout: Duration,
        on_receive: Box<dyn Fn(&Value) + Send + Sync>,
    ) -> Self {
        ResultHandle {
            slot: Mutex::new(slot),
            reissue,
            timeout,
            on_receive,
        }
    }

    /// `handle.isReady()` — whether the result has arrived. A reply that
    /// reports a migrated object triggers a transparent re-issue and reads
    /// as "not ready yet".
    pub fn is_ready(&self) -> bool {
        let current = self.slot.lock().clone();
        match current.peek() {
            None => false,
            Some(Err(JsError::ObjectMoved(_))) => {
                if let Ok(new_slot) = (self.reissue)() {
                    *self.slot.lock() = new_slot;
                }
                false
            }
            Some(_) => true,
        }
    }

    /// Whether a reply of any kind is in, without acting on it.
    pub(crate) fn filled(&self) -> bool {
        self.slot.lock().is_ready()
    }

    /// `handle.getResult()` — blocks until the result is available.
    pub fn get_result(&self) -> Result<Value> {
        let deadline = Instant::now() + self.timeout;
        loop {
            let current = self.slot.lock().clone();
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .unwrap_or(Duration::ZERO);
            match current.wait(remaining) {
                Err(JsError::ObjectMoved(_)) => {
                    let new_slot = (self.reissue)()?;
                    *self.slot.lock() = new_slot;
                }
                Ok(v) => {
                    (self.on_receive)(&v);
                    return Ok(v);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl std::fmt::Debug for ResultHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ResultHandle(ready: {})", self.slot.lock().is_ready())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdGen;

    #[test]
    fn slot_completes_once() {
        let s = Slot::new();
        assert!(!s.is_ready());
        s.complete(Ok(Value::I64(1)));
        s.complete(Ok(Value::I64(2))); // ignored
        assert_eq!(s.wait(Duration::from_secs(1)).unwrap(), Value::I64(1));
    }

    #[test]
    fn slot_wait_times_out() {
        let s = Slot::new();
        let t0 = Instant::now();
        assert_eq!(s.wait(Duration::from_millis(30)), Err(JsError::Timeout));
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn slot_wakes_cross_thread() {
        let s = Slot::new();
        let s2 = s.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            s2.complete(Ok(Value::Bool(true)));
        });
        assert_eq!(s.wait(Duration::from_secs(5)).unwrap(), Value::Bool(true));
        h.join().unwrap();
    }

    #[test]
    fn table_completes_and_forgets() {
        let t = CallTable::new();
        let r1 = IdGen::req();
        let r2 = IdGen::req();
        let s1 = t.register(r1);
        let _s2 = t.register(r2);
        assert_eq!(t.len(), 2);
        assert!(t.complete(r1, Ok(Value::Null)));
        assert!(s1.is_ready());
        assert!(!t.complete(r1, Ok(Value::Null)), "double complete rejected");
        t.forget(r2);
        assert_eq!(t.len(), 0);
        assert!(!t.complete(r2, Ok(Value::Null)));
    }

    #[test]
    fn fail_all_poisons_pending() {
        let t = CallTable::new();
        let r = IdGen::req();
        let s = t.register(r);
        t.fail_all(JsError::ShuttingDown);
        assert_eq!(
            s.wait(Duration::from_millis(10)),
            Err(JsError::ShuttingDown)
        );
    }

    fn noop_handle(slot: Slot) -> ResultHandle {
        ResultHandle::new(
            slot,
            Arc::new(|| Ok(Slot::new())),
            Duration::from_secs(1),
            Box::new(|_| {}),
        )
    }

    #[test]
    fn handle_reports_readiness_and_result() {
        let slot = Slot::new();
        let h = noop_handle(slot.clone());
        assert!(!h.is_ready());
        slot.complete(Ok(Value::I64(9)));
        assert!(h.is_ready());
        assert_eq!(h.get_result().unwrap(), Value::I64(9));
        // Results are re-readable (the paper's handles are, too).
        assert_eq!(h.get_result().unwrap(), Value::I64(9));
    }

    #[test]
    fn handle_reissues_on_moved_object() {
        use crate::ids::ObjectId;
        let first = Slot::new();
        first.complete(Err(JsError::ObjectMoved(ObjectId(1))));
        let second = Slot::new();
        second.complete(Ok(Value::I64(42)));
        let second_clone = second.clone();
        let h = ResultHandle::new(
            first,
            Arc::new(move || Ok(second_clone.clone())),
            Duration::from_secs(1),
            Box::new(|_| {}),
        );
        assert_eq!(h.get_result().unwrap(), Value::I64(42));
    }

    #[test]
    fn handle_propagates_real_errors() {
        let slot = Slot::new();
        slot.complete(Err(JsError::Timeout));
        let h = noop_handle(slot);
        assert_eq!(h.get_result(), Err(JsError::Timeout));
    }
}
