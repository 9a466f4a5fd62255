//! The simulated network itself.

use crate::message::{Batch, BATCH_TAG};
use crate::queue::DelayQueue;
use crate::shard::{pair_key, PairMap, SegmentSlots, Striped};
use crate::{
    EndpointStatsSnapshot, Envelope, LinkClass, NetStats, NetStatsSnapshot, NodeId, Payload,
    SimClock, Topology,
};
use crossbeam::channel::{Receiver, Sender};
use jsym_obs::{bounds, Counter, ObsRegistry};
use parking_lot::RwLock;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Why a send was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendError {
    /// Destination node was never registered or has unregistered.
    UnknownDestination(NodeId),
    /// Destination node has been killed by failure injection.
    DeadDestination(NodeId),
    /// Source node has been killed by failure injection.
    DeadSource(NodeId),
    /// The pair is currently partitioned.
    Partitioned(NodeId, NodeId),
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::UnknownDestination(n) => write!(f, "unknown destination {n}"),
            SendError::DeadDestination(n) => write!(f, "destination {n} is dead"),
            SendError::DeadSource(n) => write!(f, "source {n} is dead"),
            SendError::Partitioned(a, b) => write!(f, "{a} and {b} are partitioned"),
        }
    }
}

impl std::error::Error for SendError {}

/// Per-node delivery callback (see [`Network::set_local_hook`]).
pub type LocalHook = Arc<dyn Fn(Envelope) + Send + Sync>;

/// Tunables for a [`Network`].
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Per-endpoint mailbox capacity. Sends beyond it block the delivery
    /// thread, providing crude back-pressure; the default is large enough
    /// that experiments never hit it.
    pub mailbox_capacity: usize,
    /// Link classes modeled as a *shared medium*: at most one transmission
    /// at a time across the whole segment, like the hubbed 10 Mbit/s
    /// Ethernet of the paper's testbed (as opposed to switched per-pair
    /// capacity). Empty by default — per-pair links only.
    pub shared_segments: Vec<crate::LinkClass>,
    /// Coalesce same-`(src, dst)` messages into [`Batch`]es with one modeled
    /// wire charge per batch (`None` = per-message charging, the default).
    /// Node-local traffic is never batched.
    pub batching: Option<BatchConfig>,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            mailbox_capacity: 4096,
            shared_segments: Vec::new(),
            batching: None,
        }
    }
}

/// Tunables for the coalescing stage (see [`NetworkConfig::batching`]).
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Virtual seconds a freshly opened batch waits for followers before it
    /// is flushed onto the wire.
    pub flush_window: f64,
    /// Flush immediately once a batch's summed payload reaches this many
    /// bytes, without waiting out the window.
    pub max_bytes: usize,
    /// Adapt the flush window per pair: an EWMA of the pair's inter-send
    /// gaps sizes each batch's window to `2 × ewma`, clamped to
    /// `[flush_window / 16, flush_window]`. Chatty pairs flush almost
    /// immediately (they re-coalesce on the next burst anyway) while sparse
    /// pairs keep the full window. `flush_window` becomes the ceiling.
    pub adaptive: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            flush_window: 5e-4,
            max_bytes: 256 * 1024,
            adaptive: false,
        }
    }
}

/// One per-thread-cached directory entry for a destination: its mailbox
/// sender and its delivery hook, both absent-capable (a negative
/// entry is as cacheable as a positive one — any change bumps the
/// generation).
#[derive(Clone, Default)]
struct CachedEp {
    sender: Option<Sender<Envelope>>,
    hook: Option<LocalHook>,
}

struct EpCache {
    /// Which [`Routing`] instance the entries belong to (tests boot many
    /// networks per process; a thread may serve several in sequence).
    routing: u64,
    /// The directory generation the entries were read at.
    gen: u64,
    map: HashMap<NodeId, CachedEp>,
}

thread_local! {
    /// Per-thread endpoint-directory cache. Validated against the owning
    /// routing table's generation with one atomic load per lookup; a
    /// mismatch (rare: registration churn, hook swaps) clears the thread's
    /// entries wholesale.
    static EP_CACHE: RefCell<EpCache> = RefCell::new(EpCache {
        routing: 0,
        gen: 0,
        map: HashMap::new(),
    });
}

/// Routing-instance id source for [`EpCache::routing`].
static NEXT_ROUTING_ID: AtomicU64 = AtomicU64::new(1);

struct Routing {
    endpoints: RwLock<HashMap<NodeId, Sender<Envelope>>>,
    dead: RwLock<HashSet<NodeId>>,
    partitions: RwLock<HashSet<(NodeId, NodeId)>>,
    /// Snapshot of `dead.len() + partitions.len()`, maintained under the
    /// respective write locks. While it reads zero — the overwhelmingly
    /// common case — `send`/`deliver` skip the dead/partition read locks
    /// entirely.
    faults: AtomicUsize,
    /// Delivery hooks (see [`Network::set_local_hook`]).
    hooks: RwLock<HashMap<NodeId, LocalHook>>,
    /// Process-unique instance id keying the per-thread endpoint caches.
    id: u64,
    /// Directory generation: bumped by `register`/`unregister`/
    /// `set_local_hook` so per-thread caches validate without touching the
    /// `RwLock`s above.
    gen: AtomicU64,
    ep_cache_hits: AtomicU64,
    ep_cache_misses: AtomicU64,
    /// Pre-resolved `net.shard.cache_miss` handle (no-op when obs is off).
    obs_cache_miss: Counter,
    stats: NetStats,
    obs: ObsRegistry,
}

impl Routing {
    fn bump_gen(&self) {
        self.gen.fetch_add(1, Ordering::Release);
    }

    /// Looks `dst` up through the calling thread's cache: zero `RwLock`
    /// reads while the directory generation is unchanged — the steady state
    /// for every send and delivery after boot.
    fn cached<R>(&self, dst: NodeId, f: impl FnOnce(&CachedEp) -> R) -> R {
        EP_CACHE.with(|c| {
            let mut c = c.borrow_mut();
            let gen = self.gen.load(Ordering::Acquire);
            if c.routing != self.id || c.gen != gen {
                c.map.clear();
                c.routing = self.id;
                c.gen = gen;
            }
            if let Some(e) = c.map.get(&dst) {
                self.ep_cache_hits.fetch_add(1, Ordering::Relaxed);
                return f(e);
            }
            self.ep_cache_misses.fetch_add(1, Ordering::Relaxed);
            self.obs_cache_miss.inc();
            let e = CachedEp {
                sender: self.endpoints.read().get(&dst).cloned(),
                hook: self.hooks.read().get(&dst).cloned(),
            };
            f(c.map.entry(dst).or_insert(e))
        })
    }

    /// Whether `dst` has a registered mailbox endpoint.
    fn has_endpoint(&self, dst: NodeId) -> bool {
        self.cached(dst, |e| e.sender.is_some())
    }

    /// The delivery hook for `dst`, if installed.
    fn hook(&self, dst: NodeId) -> Option<LocalHook> {
        self.cached(dst, |e| e.hook.clone())
    }

    /// The mailbox sender for `dst`, if registered.
    fn sender(&self, dst: NodeId) -> Option<Sender<Envelope>> {
        self.cached(dst, |e| e.sender.clone())
    }

    fn pair_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    fn fault_free(&self) -> bool {
        self.faults.load(Ordering::Relaxed) == 0
    }

    /// Slow-path fault check; only consulted when `fault_free()` is false.
    fn is_blocked(&self, src: NodeId, dst: NodeId) -> bool {
        {
            let dead = self.dead.read();
            if dead.contains(&src) || dead.contains(&dst) {
                return true;
            }
        }
        self.partitions.read().contains(&Self::pair_key(src, dst))
    }

    fn drop_env(&self, env: &Envelope) {
        self.stats
            .record_drop(env.src, env.dst, env.payload.wire_bytes());
        if self.obs.is_enabled() {
            self.obs.counter("net.dropped", Some(env.dst.0), "").inc();
        }
    }

    fn deliver(&self, env: Envelope) {
        // A coalesced batch arrives as one wire transfer but is unpacked
        // here, on the delivery side, so endpoints only ever observe the
        // member envelopes — individually, in send order, each re-checked
        // and counted exactly as it would have been unbatched.
        if env.payload.tag() == BATCH_TAG {
            let Envelope {
                src,
                dst,
                sent_at,
                payload,
            } = env;
            match payload.downcast::<Batch>() {
                Ok(batch) => {
                    for inner in batch.envs {
                        self.deliver_one(inner);
                    }
                }
                // A caller-crafted payload that merely reuses the tag: fall
                // through and deliver it like any other message.
                Err(payload) => self.deliver_one(Envelope {
                    src,
                    dst,
                    sent_at,
                    payload,
                }),
            }
            return;
        }
        self.deliver_one(env);
    }

    fn deliver_one(&self, env: Envelope) {
        // Conditions are re-checked at delivery time: a node killed while a
        // message is in flight must not receive it.
        if !self.fault_free() && self.is_blocked(env.src, env.dst) {
            self.drop_env(&env);
            return;
        }
        // A destination with a hook gets everything through it (the plane
        // has one drain, so hook calls are already serialized); one without
        // falls through to its mailbox.
        if let Some(hook) = self.hook(env.dst) {
            // Count before dispatching: a caller woken by the hook (e.g. a
            // sync response) must never observe stats that lag its own
            // message.
            self.stats
                .record_delivery(env.dst, env.payload.wire_bytes());
            hook(env);
            return;
        }
        let sender = self.sender(env.dst);
        match sender {
            Some(tx) => {
                let (dst, bytes) = (env.dst, env.payload.wire_bytes());
                // Count before handing off, mirroring the hook path above: a
                // caller woken by the receiving endpoint must never observe
                // stats that lag its own message. An endpoint that vanishes
                // between the count and the send is compensated as a drop.
                self.stats.record_delivery(dst, bytes);
                if let Err(e) = tx.send(env) {
                    self.stats.uncount_delivery(dst, e.0.payload.wire_bytes());
                    self.drop_env(&e.0);
                }
            }
            None => self.drop_env(&env),
        }
    }
}

/// Internal payload tag for a batch-flush timer riding the delay queue.
const FLUSH_TAG: &str = "net.batch.flush";

/// Timer payload armed when a batch opens; matched against the batch's
/// epoch at fire time so a timer whose batch already overflowed (and whose
/// pair may have a successor batch open) is a no-op.
struct FlushToken {
    epoch: u64,
}

/// One open (not yet flushed) batch for a directed pair.
struct PendingBatch {
    /// Members in send order.
    envs: Vec<Envelope>,
    /// Summed payload wire bytes.
    bytes: usize,
    /// Identity of this batch instance (see [`FlushToken`]).
    epoch: u64,
}

/// The send-side coalescing stage (see [`NetworkConfig::batching`]).
///
/// [`Network::send`] parks non-local envelopes here instead of scheduling
/// them directly: the first envelope of a `(src, dst)` pair opens a batch
/// and arms a flush timer one `flush_window` out, followers join until the
/// timer fires or `max_bytes` overflows the batch, and the flush reserves
/// the pair's FIFO slot and schedules one [`Batch`] envelope charged the
/// link latency once plus the summed payload bytes. Delivery unpacks the
/// wrapper back into its members (see [`Routing::deliver`]), so per-message
/// semantics, ordering and [`NetStats`] attribution are exactly those of
/// the unbatched plane.
///
/// Lock order: `pending` stripe → `pair_last` stripe → `segment_last` slot →
/// queue heap. The pending stripe lock is held through the FIFO reservation
/// *and* the queue push, so two flushes of the same pair (a window timer
/// racing a `max_bytes` overflow of the successor batch) cannot reserve out
/// of order. All per-pair state is striped on the packed pair key (see
/// [`crate::shard`]): a pair's state always lives on one stripe, so the
/// per-pair protocol is untouched while unrelated pairs stop contending.
struct BatchStage {
    clock: SimClock,
    topo: Arc<RwLock<Topology>>,
    routing: Arc<Routing>,
    pair_last: Arc<Striped<f64>>,
    segment_last: Arc<SegmentSlots>,
    shared_segments: Vec<LinkClass>,
    /// Back-reference to the delivery plane, set right after the plane is
    /// started (its deliver closure needs the stage first).
    queue: OnceLock<Arc<DelayQueue>>,
    /// Open batches per directed pair, striped on the packed pair key.
    pending: Striped<PendingBatch>,
    /// Count of currently open batches (backs the `net.batch.pending`
    /// gauge without walking every stripe).
    open_batches: AtomicU64,
    epochs: AtomicU64,
    config: BatchConfig,
    /// Per-pair inter-send gap EWMA (virtual seconds), driving the adaptive
    /// flush window (see [`BatchConfig::adaptive`]). Locked alone, before
    /// any other stage lock.
    gaps: Striped<GapEwma>,
}

/// Inter-send gap tracker for one directed pair.
struct GapEwma {
    /// Virtual time of the pair's previous send.
    last_send: f64,
    /// Exponentially-weighted moving average of inter-send gaps.
    ewma: f64,
}

/// EWMA smoothing factor: each new gap contributes 20%.
const GAP_ALPHA: f64 = 0.2;

impl BatchStage {
    /// Observes one send on `pair` at virtual time `now` and returns the
    /// flush window a batch opened by it should wait: `2 × ewma` of the
    /// pair's inter-send gaps, clamped to `[flush_window/16, flush_window]`.
    /// A pair's first send (no gap yet) gets the full window.
    fn adaptive_window(&self, pair: (NodeId, NodeId), now: f64) -> f64 {
        let full = self.config.flush_window;
        let key = pair_key(pair.0, pair.1);
        let mut gaps = self.gaps.lock(key);
        match gaps.get_mut(&key) {
            Some(g) => {
                let gap = (now - g.last_send).max(0.0);
                g.ewma = (1.0 - GAP_ALPHA) * g.ewma + GAP_ALPHA * gap;
                g.last_send = now;
                (2.0 * g.ewma).clamp(full / 16.0, full)
            }
            None => {
                gaps.insert(
                    key,
                    GapEwma {
                        last_send: now,
                        ewma: full / 2.0,
                    },
                );
                full
            }
        }
    }

    /// Parks `env` on its pair's open batch, opening one (plus its flush
    /// timer) if none is open and flushing eagerly on `max_bytes` overflow.
    fn enqueue(&self, env: Envelope) {
        let pair = (env.src, env.dst);
        let key = pair_key(env.src, env.dst);
        let bytes = env.payload.wire_bytes();
        let obs_on = self.routing.obs.is_enabled();
        // The gap EWMA is fed by every send of the pair, coalesced followers
        // included; only batch-opening sends read the window back.
        let window = if self.config.adaptive {
            self.adaptive_window(pair, self.clock.now())
        } else {
            self.config.flush_window
        };
        let mut pending = self.pending.lock(key);
        match pending.remove(&key) {
            Some(mut batch) => {
                batch.envs.push(env);
                batch.bytes += bytes;
                if obs_on {
                    self.routing
                        .obs
                        .counter("net.batch.coalesced", Some(pair.0 .0), "")
                        .inc();
                }
                if batch.bytes >= self.config.max_bytes {
                    self.open_batches.fetch_sub(1, Ordering::Relaxed);
                    self.transmit(&mut pending, pair, batch, "bytes");
                } else {
                    pending.insert(key, batch);
                }
            }
            None if bytes >= self.config.max_bytes => {
                // Oversized lone message: nothing could ever join it, so
                // skip the window (and the timer) entirely.
                let batch = PendingBatch {
                    envs: vec![env],
                    bytes,
                    epoch: self.epochs.fetch_add(1, Ordering::Relaxed),
                };
                self.transmit(&mut pending, pair, batch, "bytes");
            }
            None => {
                let now = self.clock.now();
                let epoch = self.epochs.fetch_add(1, Ordering::Relaxed);
                pending.insert(
                    key,
                    PendingBatch {
                        envs: vec![env],
                        bytes,
                        epoch,
                    },
                );
                self.open_batches.fetch_add(1, Ordering::Relaxed);
                let due = self.clock.real_deadline(now + window);
                if let Some(q) = self.queue.get() {
                    q.push(
                        due,
                        Envelope {
                            src: pair.0,
                            dst: pair.1,
                            sent_at: now,
                            payload: Payload::new(FLUSH_TAG, 0, FlushToken { epoch }),
                        },
                    );
                }
            }
        }
        if obs_on {
            self.routing
                .obs
                .gauge("net.batch.pending", None, "")
                .set(self.open_batches.load(Ordering::Relaxed) as f64);
        }
    }

    /// Window-timer fire: flushes the pair's batch if it is still the one
    /// the timer was armed for.
    fn flush_due(&self, pair: (NodeId, NodeId), epoch: u64) {
        let key = pair_key(pair.0, pair.1);
        let mut pending = self.pending.lock(key);
        match pending.remove(&key) {
            Some(batch) if batch.epoch == epoch => {
                self.open_batches.fetch_sub(1, Ordering::Relaxed);
                self.transmit(&mut pending, pair, batch, "window");
                if self.routing.obs.is_enabled() {
                    self.routing
                        .obs
                        .gauge("net.batch.pending", None, "")
                        .set(self.open_batches.load(Ordering::Relaxed) as f64);
                }
            }
            // A successor batch opened after ours overflowed: not ours.
            Some(batch) => {
                pending.insert(key, batch);
            }
            None => {}
        }
    }

    /// Reserves the pair's FIFO slot for one batched transfer (latency once,
    /// summed bytes) and schedules it. The `_pending` guard proves the
    /// caller holds the pending lock — see the lock-order note on the type.
    fn transmit(
        &self,
        _pending: &mut PairMap<PendingBatch>,
        pair: (NodeId, NodeId),
        batch: PendingBatch,
        reason: &'static str,
    ) {
        let (src, dst) = pair;
        let key = pair_key(src, dst);
        let now = self.clock.now();
        let n = batch.envs.len();
        let (link, latency, tx_time) = {
            let topo = self.topo.read();
            let link = topo.link_between(src, dst);
            (link, link.latency(), link.transfer_time(batch.bytes))
        };
        // Same reservation discipline as the unbatched path in
        // `Network::send`, applied once for the whole batch.
        let due = {
            let mut pairs = self.pair_last.lock(key);
            let last = pairs.entry(key).or_default();
            let mut start = (now + latency).max(*last);
            let shared = self.shared_segments.contains(&link);
            let arrival = if shared {
                // Holding the slot across read + write serializes the whole
                // segment reservation.
                let mut seg = self.segment_last.lock(link);
                start = start.max(*seg);
                let arrival = start + tx_time;
                *seg = arrival;
                arrival
            } else {
                start + tx_time
            };
            *last = arrival;
            self.clock.real_deadline(arrival)
        };
        if self.routing.obs.is_enabled() {
            let obs = &self.routing.obs;
            obs.counter("net.batch.flushed", Some(src.0), reason).inc();
            obs.counter("net.batch.msgs", Some(src.0), "").add(n as u64);
            if n > 1 {
                // Modeled wire capacity freed: every coalesced follower
                // skips one link-latency charge, i.e. `latency × bandwidth`
                // bytes the link can now carry instead.
                let saved = (n - 1) as f64 * latency * link.bandwidth();
                obs.counter("net.batch.bytes_saved", Some(src.0), "")
                    .add(saved as u64);
            }
        }
        let env = if n == 1 {
            // A lone message needs no wrapper; it is charged identically.
            batch.envs.into_iter().next().expect("n == 1")
        } else {
            Envelope {
                src,
                dst,
                sent_at: now,
                payload: Payload::new(BATCH_TAG, batch.bytes, Batch { envs: batch.envs }),
            }
        };
        if let Some(q) = self.queue.get() {
            q.push(due, env);
        }
    }
}

/// An in-process simulated network.
///
/// Cloning shares the same network. Endpoints are registered per node; sends
/// are charged the link's latency + transmission delay and delivered, in
/// `(due, seq)` order, by the delivery plane's one drainer.
#[derive(Clone)]
pub struct Network {
    clock: SimClock,
    topo: Arc<RwLock<Topology>>,
    routing: Arc<Routing>,
    queue: Arc<DelayQueue>,
    /// Last scheduled arrival (virtual time) per directed node pair,
    /// enforcing connection-FIFO ordering (see the comment in
    /// [`Network::send`]). Lock-striped by the packed pair key.
    pair_last: Arc<Striped<f64>>,
    /// Last scheduled arrival per shared segment (see
    /// [`NetworkConfig::shared_segments`]): one slot per link class.
    segment_last: Arc<SegmentSlots>,
    /// The coalescing stage, when [`NetworkConfig::batching`] is set.
    batching: Option<Arc<BatchStage>>,
    config: NetworkConfig,
}

/// Snapshot of the delivery plane's hot-path contention counters
/// ([`Network::hot_stats`]). "Contended" counts stripe-lock acquisitions
/// that found the lock held and had to wait.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetHotStats {
    /// Stripe count of the per-pair state maps.
    pub state_shards: usize,
    /// Contended acquisitions of `pair_last` stripes.
    pub pair_contended: u64,
    /// Contended acquisitions of the batching stage's `pending` stripes.
    pub pending_contended: u64,
    /// Contended acquisitions of the adaptive-window `gaps` stripes.
    pub gaps_contended: u64,
    /// Per-thread endpoint-cache hits (lookups with zero `RwLock` reads).
    pub ep_cache_hits: u64,
    /// Endpoint-cache misses (directory reads under the `RwLock`s).
    pub ep_cache_misses: u64,
}

impl Network {
    /// Creates a network over `topo` driven by `clock`.
    pub fn new(clock: SimClock, topo: Topology) -> Self {
        Self::with_config(clock, topo, NetworkConfig::default())
    }

    /// Creates a network with explicit tunables.
    pub fn with_config(clock: SimClock, topo: Topology, config: NetworkConfig) -> Self {
        Self::with_obs(clock, topo, config, ObsRegistry::disabled())
    }

    /// Creates a network with explicit tunables and an observability scope.
    /// An enabled `obs` gets per-link `net.bytes`/`net.latency` histograms
    /// and `net.dropped`/`net.rejected` counters on top of [`NetStats`].
    pub fn with_obs(
        clock: SimClock,
        topo: Topology,
        config: NetworkConfig,
        obs: ObsRegistry,
    ) -> Self {
        Self::with_obs_and_spawner(clock, topo, config, obs, None)
    }

    /// Creates a network whose delivery plane is woken through `spawner`
    /// (see [`crate::SpawnAt`]; the runtime passes its executor's). With
    /// `spawner: None` this is exactly [`Network::with_obs`]: the plane
    /// brings its own scheduler thread and runs the same drain on it.
    pub fn with_obs_and_spawner(
        clock: SimClock,
        topo: Topology,
        config: NetworkConfig,
        obs: ObsRegistry,
        spawner: Option<crate::SpawnAt>,
    ) -> Self {
        // Pre-resolve the shard counters before `obs` moves into `Routing`;
        // each is a no-op handle when observability is off.
        let c_pair = obs.counter("net.shard.contended", None, "pair");
        let c_pending = obs.counter("net.shard.contended", None, "pending");
        let c_gaps = obs.counter("net.shard.contended", None, "gaps");
        let c_cache_miss = obs.counter("net.shard.cache_miss", None, "");
        let routing = Arc::new(Routing {
            endpoints: RwLock::new(HashMap::new()),
            dead: RwLock::new(HashSet::new()),
            partitions: RwLock::new(HashSet::new()),
            faults: AtomicUsize::new(0),
            hooks: RwLock::new(HashMap::new()),
            id: NEXT_ROUTING_ID.fetch_add(1, Ordering::Relaxed),
            gen: AtomicU64::new(0),
            ep_cache_hits: AtomicU64::new(0),
            ep_cache_misses: AtomicU64::new(0),
            obs_cache_miss: c_cache_miss,
            stats: NetStats::default(),
            obs,
        });
        // Per-stripe capacities: pairs are the hottest map (every directed
        // pair ever seen), batches are bounded by in-flight pairs.
        let pair_last = Arc::new(Striped::new(256, c_pair));
        let segment_last = Arc::new(SegmentSlots::new());
        let topo = Arc::new(RwLock::new(topo));
        let batching = config.batching.clone().map(|bc| {
            Arc::new(BatchStage {
                clock: clock.clone(),
                topo: Arc::clone(&topo),
                routing: Arc::clone(&routing),
                pair_last: Arc::clone(&pair_last),
                segment_last: Arc::clone(&segment_last),
                shared_segments: config.shared_segments.clone(),
                queue: OnceLock::new(),
                pending: Striped::new(64, c_pending),
                open_batches: AtomicU64::new(0),
                epochs: AtomicU64::new(0),
                config: bc,
                gaps: Striped::new(256, c_gaps),
            })
        });
        let deliver_routing = Arc::clone(&routing);
        let flush_stage = batching.clone();
        let deliver: crate::queue::DeliverFn = Arc::new(move |env: Envelope| {
            // Batch-flush timers never reach an endpoint; they re-enter
            // the coalescing stage, which schedules the batch proper.
            if env.payload.tag() == FLUSH_TAG {
                if let (Some(stage), Some(tok)) =
                    (&flush_stage, env.payload.downcast_ref::<FlushToken>())
                {
                    stage.flush_due((env.src, env.dst), tok.epoch);
                }
                return;
            }
            deliver_routing.deliver(env);
        });
        let queue = Arc::new(match spawner {
            Some(sp) => DelayQueue::start_tasked(sp, deliver),
            None => DelayQueue::start(deliver),
        });
        if let Some(stage) = &batching {
            let _ = stage.queue.set(Arc::clone(&queue));
        }
        Network {
            clock,
            topo,
            routing,
            queue,
            pair_last,
            segment_last,
            batching,
            config,
        }
    }

    /// Registers (or re-registers) the endpoint for `node`, returning its
    /// mailbox. Re-registering replaces the previous mailbox and clears any
    /// dead flag (a node rejoining the cluster).
    pub fn register(&self, node: NodeId) -> Receiver<Envelope> {
        let (tx, rx) = crossbeam::channel::bounded(self.config.mailbox_capacity);
        self.routing.endpoints.write().insert(node, tx);
        self.routing.bump_gen();
        {
            let mut dead = self.routing.dead.write();
            if dead.remove(&node) {
                self.routing.faults.fetch_sub(1, Ordering::Relaxed);
            }
        }
        rx
    }

    /// Installs the delivery hook for `node`. With a hook installed, every
    /// message for the node — local or remote — is dispatched by calling it
    /// from the delivery plane's drain instead of being posted to the node's
    /// mailbox; install it *before* [`Network::register`] if nothing reads
    /// the mailbox. Hook calls are serialized: the plane delivers one
    /// message at a time.
    pub fn set_local_hook(&self, node: NodeId, hook: LocalHook) {
        self.routing.hooks.write().insert(node, hook);
        self.routing.bump_gen();
    }

    /// Removes the endpoint for `node`; in-flight messages to it are dropped.
    pub fn unregister(&self, node: NodeId) {
        self.routing.endpoints.write().remove(&node);
        self.routing.hooks.write().remove(&node);
        self.routing.bump_gen();
    }

    fn reject(&self, src: NodeId, bytes: usize, err: SendError) -> SendError {
        self.routing.stats.record_rejection(src, bytes);
        if self.routing.obs.is_enabled() {
            self.routing
                .obs
                .counter("net.rejected", Some(src.0), "")
                .inc();
        }
        err
    }

    /// Sends `payload` from `src` to `dst`, paying the modeled delay.
    ///
    /// Refused sends (dead node, partition, unknown destination) are counted
    /// as rejections against `src` in [`NetStats`].
    pub fn send(&self, src: NodeId, dst: NodeId, payload: Payload) -> Result<(), SendError> {
        let bytes = payload.wire_bytes();
        if !self.routing.fault_free() {
            {
                let dead = self.routing.dead.read();
                if dead.contains(&src) {
                    return Err(self.reject(src, bytes, SendError::DeadSource(src)));
                }
                if dead.contains(&dst) {
                    return Err(self.reject(src, bytes, SendError::DeadDestination(dst)));
                }
            }
            if self
                .routing
                .partitions
                .read()
                .contains(&Routing::pair_key(src, dst))
            {
                return Err(self.reject(src, bytes, SendError::Partitioned(src, dst)));
            }
        }
        if !self.routing.has_endpoint(dst) {
            return Err(self.reject(src, bytes, SendError::UnknownDestination(dst)));
        }
        let now = self.clock.now();
        let (link, latency, tx_time) = {
            let topo = self.topo.read();
            let link = topo.link_between(src, dst);
            (
                link,
                link.latency(),
                link.transfer_time(payload.wire_bytes()),
            )
        };
        self.routing.stats.record_send(src, payload.wire_bytes());
        if self.routing.obs.is_enabled() {
            let obs = &self.routing.obs;
            let name = link_name(link);
            obs.histogram("net.bytes", Some(src.0), name, bounds::SIZE_BYTES)
                .observe(bytes as f64);
            obs.histogram("net.latency", Some(src.0), name, bounds::LATENCY_SECONDS)
                .observe(latency + tx_time);
        }
        let env = Envelope {
            src,
            dst,
            sent_at: now,
            payload,
        };
        // Coalescing stage: non-local sends park on their pair's open batch
        // instead of reserving the wire per message. The send is already
        // accepted and counted at this point; delivery-time re-checks (and
        // per-member stats) happen when the batch is unpacked. Node-local
        // traffic is never batched.
        if src != dst {
            if let Some(stage) = &self.batching {
                stage.enqueue(env);
                return Ok(());
            }
        }
        // Per-ordered-pair FIFO with serialized transmission: Java RMI
        // multiplexes one TCP connection per agent pair, so a later (small)
        // message can neither overtake an earlier (large) one nor start
        // transmitting before it has finished. A shared segment additionally
        // serializes transmissions across *all* of its pairs.
        let key = pair_key(src, dst);
        let due = {
            let mut pairs = self.pair_last.lock(key);
            let last = pairs.entry(key).or_default();
            let mut start = (now + latency).max(*last);
            let shared = self.config.shared_segments.contains(&link);
            let arrival = if shared {
                // Hold the class slot across read + write so the segment
                // reservation is a single serialized critical section.
                let mut seg = self.segment_last.lock(link);
                start = start.max(*seg);
                let arrival = start + tx_time;
                *seg = arrival;
                arrival
            } else {
                start + tx_time
            };
            *last = arrival;
            self.clock.real_deadline(arrival)
        };
        self.queue.push(due, env);
        Ok(())
    }

    /// Kills `node`: future sends to/from it fail and in-flight messages are
    /// dropped at delivery time. Used by the fault-tolerance experiments.
    pub fn kill_node(&self, node: NodeId) {
        let mut dead = self.routing.dead.write();
        if dead.insert(node) {
            self.routing.faults.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Revives a previously killed node (its endpoint must be re-registered).
    pub fn revive_node(&self, node: NodeId) {
        let mut dead = self.routing.dead.write();
        if dead.remove(&node) {
            self.routing.faults.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Whether `node` is currently marked dead.
    pub fn is_dead(&self, node: NodeId) -> bool {
        !self.routing.fault_free() && self.routing.dead.read().contains(&node)
    }

    /// Blocks traffic between `a` and `b` (both directions).
    pub fn partition(&self, a: NodeId, b: NodeId) {
        let mut partitions = self.routing.partitions.write();
        if partitions.insert(Routing::pair_key(a, b)) {
            self.routing.faults.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Heals a previous [`Network::partition`].
    pub fn heal(&self, a: NodeId, b: NodeId) {
        let mut partitions = self.routing.partitions.write();
        if partitions.remove(&Routing::pair_key(a, b)) {
            self.routing.faults.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// The clock driving this network.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Read access to the topology (e.g. for cost estimation).
    pub fn topology(&self) -> Arc<RwLock<Topology>> {
        Arc::clone(&self.topo)
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.routing.stats.snapshot()
    }

    /// Per-endpoint traffic snapshots, sorted by node id.
    pub fn endpoint_stats(&self) -> Vec<EndpointStatsSnapshot> {
        self.routing.stats.per_endpoint()
    }

    /// The coalescing-stage tunables, or `None` when batching is disabled.
    pub fn batching_config(&self) -> Option<BatchConfig> {
        self.config.batching.clone()
    }

    /// Hot-path contention counters (see [`NetHotStats`]).
    pub fn hot_stats(&self) -> NetHotStats {
        NetHotStats {
            state_shards: self.pair_last.shard_count(),
            pair_contended: self.pair_last.contended(),
            pending_contended: self.batching.as_ref().map_or(0, |b| b.pending.contended()),
            gaps_contended: self.batching.as_ref().map_or(0, |b| b.gaps.contended()),
            ep_cache_hits: self.routing.ep_cache_hits.load(Ordering::Relaxed),
            ep_cache_misses: self.routing.ep_cache_misses.load(Ordering::Relaxed),
        }
    }

    /// Delivers, on the calling thread, whatever is due — if anything is and
    /// no drain is running; a no-op otherwise. The embedding runtime calls
    /// this for a caller about to park on a reply, which may be one of the
    /// messages a wake-up armed on some other thread has not got to yet.
    pub fn deliver_due(&self) {
        self.queue.drain_if_due();
    }

    /// Stops the delivery plane, discarding in-flight messages. Further
    /// sends are silently queued nowhere; intended for deployment teardown.
    pub fn shutdown(&self) {
        self.queue.shutdown();
    }
}

/// Stable component label for a link class, used as the metrics key.
fn link_name(link: LinkClass) -> &'static str {
    match link {
        LinkClass::Loopback => "loopback",
        LinkClass::Lan100 => "lan100",
        LinkClass::Lan10 => "lan10",
        LinkClass::Wan => "wan",
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("endpoints", &self.routing.endpoints.read().len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkClass, TimeScale};
    use parking_lot::Mutex as PlMutex;
    use std::time::Duration;

    fn fast_net() -> Network {
        let mut topo = Topology::new();
        topo.set_default_class(LinkClass::Lan100);
        Network::new(SimClock::new(TimeScale::new(1e-5)), topo)
    }

    #[test]
    fn round_trip_delivery() {
        let net = fast_net();
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        net.send(NodeId(0), NodeId(1), Payload::new("hi", 64, 123u32))
            .unwrap();
        let env = b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(env.src, NodeId(0));
        assert_eq!(*env.payload.downcast::<u32>().unwrap(), 123);
        let stats = net.stats();
        assert_eq!(stats.msgs_sent, 1);
        assert_eq!(stats.msgs_delivered, 1);
        assert_eq!(stats.bytes_sent, 64);
    }

    #[test]
    fn unknown_destination_rejected() {
        let net = fast_net();
        let _a = net.register(NodeId(0));
        let err = net
            .send(NodeId(0), NodeId(9), Payload::new("x", 1, ()))
            .unwrap_err();
        assert_eq!(err, SendError::UnknownDestination(NodeId(9)));
    }

    #[test]
    fn dead_node_rejects_sends_both_ways() {
        let net = fast_net();
        let _a = net.register(NodeId(0));
        let _b = net.register(NodeId(1));
        net.kill_node(NodeId(1));
        assert!(net.is_dead(NodeId(1)));
        assert_eq!(
            net.send(NodeId(0), NodeId(1), Payload::new("x", 1, ())),
            Err(SendError::DeadDestination(NodeId(1)))
        );
        assert_eq!(
            net.send(NodeId(1), NodeId(0), Payload::new("x", 1, ())),
            Err(SendError::DeadSource(NodeId(1)))
        );
        net.revive_node(NodeId(1));
        assert!(net
            .send(NodeId(0), NodeId(1), Payload::new("x", 1, ()))
            .is_ok());
    }

    #[test]
    fn kill_drops_in_flight_messages() {
        // Use a big payload over a slow link so the message is in flight long
        // enough to kill the destination underneath it.
        let mut topo = Topology::new();
        topo.set_default_class(LinkClass::Lan10);
        let net = Network::new(SimClock::new(TimeScale::new(1e-3)), topo);
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        net.send(NodeId(0), NodeId(1), Payload::new("big", 1 << 20, ()))
            .unwrap();
        net.kill_node(NodeId(1));
        assert!(b.recv_timeout(Duration::from_millis(1500)).is_err());
        assert_eq!(net.stats().msgs_dropped, 1);
    }

    #[test]
    fn refused_sends_are_counted_as_rejections() {
        let net = fast_net();
        let _a = net.register(NodeId(0));
        let _b = net.register(NodeId(1));
        net.partition(NodeId(0), NodeId(1));
        let _ = net.send(NodeId(0), NodeId(1), Payload::new("x", 10, ()));
        let _ = net.send(NodeId(0), NodeId(9), Payload::new("x", 5, ()));
        let stats = net.stats();
        assert_eq!(stats.msgs_rejected, 2);
        assert_eq!(stats.msgs_sent, 0);
        let eps = net.endpoint_stats();
        let n0 = eps.iter().find(|e| e.node == NodeId(0)).unwrap();
        assert_eq!(n0.rejected_msgs, 2);
        assert_eq!(n0.rejected_bytes, 15);
    }

    #[test]
    fn obs_records_link_histograms_and_drop_counters() {
        let mut topo = Topology::new();
        topo.set_default_class(LinkClass::Lan100);
        let obs = jsym_obs::ObsRegistry::new();
        let net = Network::with_obs(
            SimClock::new(TimeScale::new(1e-5)),
            topo,
            NetworkConfig::default(),
            obs.clone(),
        );
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        net.send(NodeId(0), NodeId(1), Payload::new("hi", 64, ()))
            .unwrap();
        b.recv_timeout(Duration::from_secs(2)).unwrap();
        net.partition(NodeId(0), NodeId(1));
        let _ = net.send(NodeId(0), NodeId(1), Payload::new("no", 8, ()));
        let snap = obs.snapshot();
        let h = &snap.metrics.histograms[&jsym_obs::MetricKey::new("net.bytes", Some(0), "lan100")];
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 64.0);
        assert!(snap
            .metrics
            .histograms
            .contains_key(&jsym_obs::MetricKey::new("net.latency", Some(0), "lan100")));
        assert_eq!(snap.metrics.counter_total("net.rejected"), 1);
    }

    #[test]
    fn partition_blocks_and_heals() {
        let net = fast_net();
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        net.partition(NodeId(0), NodeId(1));
        assert_eq!(
            net.send(NodeId(0), NodeId(1), Payload::new("x", 1, ())),
            Err(SendError::Partitioned(NodeId(0), NodeId(1)))
        );
        net.heal(NodeId(0), NodeId(1));
        net.send(NodeId(0), NodeId(1), Payload::new("x", 1, ()))
            .unwrap();
        assert!(b.recv_timeout(Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn larger_messages_take_longer() {
        let mut topo = Topology::new();
        topo.set_default_class(LinkClass::Lan10);
        // 1 virtual second = 10 ms real.
        let clock = SimClock::new(TimeScale::new(1e-2));
        let net = Network::new(clock.clone(), topo);
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));

        let t0 = std::time::Instant::now();
        net.send(NodeId(0), NodeId(1), Payload::new("small", 128, 1u8))
            .unwrap();
        b.recv_timeout(Duration::from_secs(5)).unwrap();
        let small = t0.elapsed();

        let t0 = std::time::Instant::now();
        // 900 KiB over 0.9 MB/s ≈ 1 virtual second ≈ 10 ms real.
        net.send(NodeId(0), NodeId(1), Payload::new("big", 900_000, 2u8))
            .unwrap();
        b.recv_timeout(Duration::from_secs(5)).unwrap();
        let big = t0.elapsed();

        assert!(
            big > small + Duration::from_millis(4),
            "big={big:?} small={small:?}"
        );
    }

    #[test]
    fn reregistering_replaces_mailbox() {
        let net = fast_net();
        let old = net.register(NodeId(0));
        let new = net.register(NodeId(0));
        let _src = net.register(NodeId(1));
        net.send(NodeId(1), NodeId(0), Payload::new("x", 1, 7u8))
            .unwrap();
        assert!(new.recv_timeout(Duration::from_secs(2)).is_ok());
        assert!(old.try_recv().is_err());
    }

    #[test]
    fn small_message_cannot_overtake_large_one() {
        // Connection FIFO: a 1 MiB message followed by a tiny one on the
        // same directed pair must arrive first (Java RMI serializes on one
        // TCP connection; see `pair_last`).
        let mut topo = Topology::new();
        topo.set_default_class(LinkClass::Lan10);
        let net = Network::new(SimClock::new(TimeScale::new(1e-4)), topo);
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        net.send(NodeId(0), NodeId(1), Payload::new("big", 1 << 20, 1u8))
            .unwrap();
        net.send(NodeId(0), NodeId(1), Payload::new("small", 8, 2u8))
            .unwrap();
        let first = b.recv_timeout(Duration::from_secs(5)).unwrap();
        let second = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(*first.payload.downcast::<u8>().unwrap(), 1);
        assert_eq!(*second.payload.downcast::<u8>().unwrap(), 2);
    }

    #[test]
    fn distinct_pairs_do_not_serialize_each_other() {
        // The FIFO applies per directed pair: traffic 2→1 is not delayed by
        // a huge transfer 0→1... at least not by the *connection* model
        // (both still share the destination's mailbox).
        let mut topo = Topology::new();
        topo.set_default_class(LinkClass::Lan10);
        let clock = SimClock::new(TimeScale::new(1e-3));
        let net = Network::new(clock, topo);
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        let _c = net.register(NodeId(2));
        net.send(NodeId(0), NodeId(1), Payload::new("big", 4 << 20, 1u8))
            .unwrap(); // ~4.7 virtual s on Lan10 → ~4.7 ms real
        net.send(NodeId(2), NodeId(1), Payload::new("tiny", 8, 2u8))
            .unwrap();
        let first = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            *first.payload.downcast::<u8>().unwrap(),
            2,
            "cross-pair message should not be blocked by the big transfer"
        );
    }

    #[test]
    fn wan_pair_override_is_much_slower() {
        let mut topo = Topology::new();
        topo.set_default_class(LinkClass::Lan100);
        topo.set_pair_class(NodeId(0), NodeId(1), LinkClass::Wan);
        let clock = SimClock::new(TimeScale::new(1e-3));
        let net = Network::new(clock.clone(), topo);
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        let c = net.register(NodeId(2));
        // Min-of-3 per path: scheduler noise only ever inflates timings.
        let lan = (0..3)
            .map(|_| {
                let t0 = std::time::Instant::now();
                net.send(NodeId(0), NodeId(2), Payload::new("lan", 1_000_000, 1u8))
                    .unwrap();
                c.recv_timeout(Duration::from_secs(5)).unwrap();
                t0.elapsed()
            })
            .min()
            .unwrap();
        let wan = (0..3)
            .map(|_| {
                let t0 = std::time::Instant::now();
                net.send(NodeId(0), NodeId(1), Payload::new("wan", 1_000_000, 1u8))
                    .unwrap();
                b.recv_timeout(Duration::from_secs(10)).unwrap();
                t0.elapsed()
            })
            .min()
            .unwrap();
        assert!(wan > lan * 5, "wan={wan:?} lan={lan:?}");
    }

    #[test]
    fn fifo_between_a_pair_for_equal_sizes() {
        let net = fast_net();
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        for i in 0..32u32 {
            net.send(NodeId(0), NodeId(1), Payload::new("seq", 8, i))
                .unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..32 {
            let env = b.recv_timeout(Duration::from_secs(2)).unwrap();
            got.push(*env.payload.downcast::<u32>().unwrap());
        }
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }

    /// Per-pair `(due, seq)` order under concurrent senders: each directed
    /// pair's messages must arrive in send order no matter how the pairs
    /// spread over stripe locks.
    #[test]
    fn per_pair_order_holds_across_many_stripes() {
        let mut topo = Topology::new();
        topo.set_default_class(LinkClass::Lan100);
        let net = Network::new(SimClock::new(TimeScale::new(1e-6)), topo);
        const SENDERS: u32 = 8;
        const MSGS: u32 = 64;
        let receivers: Vec<_> = (0..SENDERS)
            .map(|d| net.register(NodeId(100 + d)))
            .collect();
        let handles: Vec<_> = (0..SENDERS)
            .map(|s| {
                let net = net.clone();
                std::thread::spawn(move || {
                    for i in 0..MSGS {
                        net.send(NodeId(s), NodeId(100 + s), Payload::new("seq", 8, i))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for rx in &receivers {
            let mut got = Vec::new();
            for _ in 0..MSGS {
                let env = rx.recv_timeout(Duration::from_secs(5)).unwrap();
                got.push(*env.payload.downcast::<u32>().unwrap());
            }
            assert_eq!(got, (0..MSGS).collect::<Vec<_>>(), "per-pair order broke");
        }
    }

    #[test]
    fn endpoint_cache_sees_unregister_and_reregister() {
        let net = fast_net();
        let b = net.register(NodeId(1));
        // Prime this thread's cache with a successful lookup.
        net.send(NodeId(0), NodeId(1), Payload::new("x", 8, 1u8))
            .unwrap();
        assert!(b.recv_timeout(Duration::from_secs(2)).is_ok());
        net.unregister(NodeId(1));
        assert!(matches!(
            net.send(NodeId(0), NodeId(1), Payload::new("x", 8, 2u8)),
            Err(SendError::UnknownDestination(NodeId(1)))
        ));
        // Re-register: the generation bump must invalidate the negative
        // entry just as it did the positive one.
        let b2 = net.register(NodeId(1));
        net.send(NodeId(0), NodeId(1), Payload::new("x", 8, 3u8))
            .unwrap();
        let env = b2.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(*env.payload.downcast::<u8>().unwrap(), 3);
        let hot = net.hot_stats();
        assert!(hot.ep_cache_hits + hot.ep_cache_misses > 0);
    }

    fn hooked(net: &Network, node: NodeId) -> Arc<PlMutex<Vec<u32>>> {
        let got: Arc<PlMutex<Vec<u32>>> = Arc::new(PlMutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        net.set_local_hook(
            node,
            Arc::new(move |e: Envelope| {
                sink.lock().push(*e.payload.downcast::<u32>().unwrap());
            }),
        );
        got
    }

    fn wait_for(got: &Arc<PlMutex<Vec<u32>>>, expect: &[u32]) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while *got.lock() != expect {
            assert!(
                std::time::Instant::now() < deadline,
                "timed out; got {:?}, want {:?}",
                got.lock(),
                expect
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn local_sends_route_through_hook_in_order() {
        let net = fast_net();
        let rx = net.register(NodeId(0));
        let got = hooked(&net, NodeId(0));
        for i in 0..16u32 {
            net.send(NodeId(0), NodeId(0), Payload::new("seq", 8, i))
                .unwrap();
        }
        wait_for(&got, &(0..16).collect::<Vec<_>>());
        assert!(
            rx.try_recv().is_err(),
            "hooked node must bypass the mailbox"
        );
        let stats = net.stats();
        assert_eq!((stats.msgs_sent, stats.msgs_delivered), (16, 16));
        assert_eq!(stats.bytes_sent, 128);
    }

    #[test]
    fn local_send_without_hook_uses_mailbox() {
        let net = fast_net();
        let rx = net.register(NodeId(0));
        net.send(NodeId(0), NodeId(0), Payload::new("x", 8, 9u32))
            .unwrap();
        let env = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(*env.payload.downcast::<u32>().unwrap(), 9);
    }

    #[test]
    fn reentrant_local_sends_from_hook_keep_order() {
        // A hook that sends to its own node while dispatching (the runtime
        // does this when a handler replies synchronously) must neither
        // deadlock nor let the nested messages overtake: they queue behind
        // the running delivery and arrive afterwards, in order.
        let net = fast_net();
        let _rx = net.register(NodeId(0));
        let got: Arc<PlMutex<Vec<u32>>> = Arc::new(PlMutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        let nested_net = net.clone();
        net.set_local_hook(
            NodeId(0),
            Arc::new(move |e: Envelope| {
                let marker = *e.payload.downcast::<u32>().unwrap();
                sink.lock().push(marker);
                if marker == 1 {
                    for m in [2u32, 3] {
                        nested_net
                            .send(NodeId(0), NodeId(0), Payload::new("nested", 8, m))
                            .unwrap();
                    }
                }
            }),
        );
        net.send(NodeId(0), NodeId(0), Payload::new("outer", 8, 1u32))
            .unwrap();
        wait_for(&got, &[1, 2, 3]);
        net.send(NodeId(0), NodeId(0), Payload::new("after", 8, 4u32))
            .unwrap();
        wait_for(&got, &[1, 2, 3, 4]);
        let stats = net.stats();
        assert_eq!(stats.msgs_sent, 4);
        assert_eq!(stats.msgs_delivered, 4);
    }

    #[test]
    fn killed_node_rejects_local_sends_and_revives_clean() {
        let net = fast_net();
        let _rx = net.register(NodeId(0));
        let got = hooked(&net, NodeId(0));
        net.kill_node(NodeId(0));
        assert_eq!(
            net.send(NodeId(0), NodeId(0), Payload::new("x", 8, 1u32)),
            Err(SendError::DeadSource(NodeId(0)))
        );
        net.revive_node(NodeId(0));
        net.send(NodeId(0), NodeId(0), Payload::new("x", 8, 2u32))
            .unwrap();
        wait_for(&got, &[2]);
    }
}

#[cfg(test)]
mod shared_segment_tests {
    use super::*;
    use crate::{LinkClass, TimeScale};
    use std::time::Duration;

    fn shared_net() -> Network {
        let mut topo = Topology::new();
        topo.set_default_class(LinkClass::Lan10);
        Network::with_config(
            SimClock::new(TimeScale::new(1e-3)),
            topo,
            NetworkConfig {
                shared_segments: vec![LinkClass::Lan10],
                ..NetworkConfig::default()
            },
        )
    }

    #[test]
    fn shared_segment_serializes_across_pairs() {
        // Two big transfers on DIFFERENT pairs of a shared 10 Mbit segment
        // must take about twice as long as one (they cannot overlap).
        let net = shared_net();
        let _a = net.register(NodeId(0));
        let _c = net.register(NodeId(2));
        let b = net.register(NodeId(1));
        let d = net.register(NodeId(3));
        let t0 = std::time::Instant::now();
        // ~1 virtual s each on Lan10 (0.9 MB/s).
        net.send(NodeId(0), NodeId(1), Payload::new("x", 900_000, 1u8))
            .unwrap();
        net.send(NodeId(2), NodeId(3), Payload::new("y", 900_000, 2u8))
            .unwrap();
        b.recv_timeout(Duration::from_secs(10)).unwrap();
        d.recv_timeout(Duration::from_secs(10)).unwrap();
        let both = t0.elapsed();
        // Two serialized 1-virtual-s transfers at 1e-3 ⇒ ≥ ~2 ms real.
        assert!(
            both >= Duration::from_micros(1900),
            "shared segment did not serialize: {both:?}"
        );
    }

    #[test]
    fn switched_segment_overlaps_across_pairs() {
        // Same experiment without the shared flag: the transfers overlap
        // and complete in about one transmission time.
        let mut topo = Topology::new();
        topo.set_default_class(LinkClass::Lan10);
        let net = Network::new(SimClock::new(TimeScale::new(1e-3)), topo);
        let _a = net.register(NodeId(0));
        let _c = net.register(NodeId(2));
        let b = net.register(NodeId(1));
        let d = net.register(NodeId(3));
        // Min-of-3: scheduler noise on a loaded host only inflates timings.
        let both = (0..3)
            .map(|_| {
                let t0 = std::time::Instant::now();
                net.send(NodeId(0), NodeId(1), Payload::new("x", 900_000, 1u8))
                    .unwrap();
                net.send(NodeId(2), NodeId(3), Payload::new("y", 900_000, 2u8))
                    .unwrap();
                b.recv_timeout(Duration::from_secs(10)).unwrap();
                d.recv_timeout(Duration::from_secs(10)).unwrap();
                t0.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            both < Duration::from_micros(1800),
            "switched pairs should overlap: {both:?}"
        );
    }

    #[test]
    fn fast_segment_unaffected_by_slow_shared_one() {
        let mut topo = Topology::new();
        topo.set_default_class(LinkClass::Lan10);
        topo.set_node_class(NodeId(4), LinkClass::Lan100);
        topo.set_node_class(NodeId(5), LinkClass::Lan100);
        let net = Network::with_config(
            SimClock::new(TimeScale::new(1e-3)),
            topo,
            NetworkConfig {
                shared_segments: vec![LinkClass::Lan10],
                ..NetworkConfig::default()
            },
        );
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        let _e = net.register(NodeId(4));
        let f = net.register(NodeId(5));
        // Saturate the shared slow segment...
        net.send(NodeId(0), NodeId(1), Payload::new("slow", 2_000_000, 1u8))
            .unwrap();
        // ...while a fast-segment message goes through immediately.
        let t0 = std::time::Instant::now();
        net.send(NodeId(4), NodeId(5), Payload::new("fast", 1000, 2u8))
            .unwrap();
        f.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(t0.elapsed() < Duration::from_millis(2));
        b.recv_timeout(Duration::from_secs(10)).unwrap();
    }
}

#[cfg(test)]
mod batched_tests {
    use super::*;
    use crate::{LinkClass, TimeScale};
    use std::time::Duration;

    /// At the 1e-5 scale a tight send loop spans whole virtual seconds, so
    /// coalescing tests use windows of tens of virtual seconds (hundreds of
    /// real microseconds) to be sure every send joins the open batch.
    fn batched_net(batch: BatchConfig, obs: jsym_obs::ObsRegistry) -> Network {
        let mut topo = Topology::new();
        topo.set_default_class(LinkClass::Lan100);
        Network::with_obs(
            SimClock::new(TimeScale::new(1e-5)),
            topo,
            NetworkConfig {
                batching: Some(batch),
                ..NetworkConfig::default()
            },
            obs,
        )
    }

    #[test]
    fn adaptive_window_tracks_pair_gaps() {
        let net = batched_net(
            BatchConfig {
                flush_window: 1.0,
                max_bytes: 1 << 20,
                adaptive: true,
            },
            jsym_obs::ObsRegistry::disabled(),
        );
        let stage = net.batching.as_ref().expect("batching on");
        let chatty = (NodeId(0), NodeId(1));
        let sparse = (NodeId(0), NodeId(2));
        // First send of a pair gets the full window.
        assert_eq!(stage.adaptive_window(chatty, 0.0), 1.0);
        // A chatty pair (1 ms gaps) converges onto the floor, window/16.
        let mut t = 0.0;
        let mut w = 1.0;
        for _ in 0..60 {
            t += 1e-3;
            w = stage.adaptive_window(chatty, t);
        }
        assert!((w - 1.0 / 16.0).abs() < 1e-9, "chatty window {w}");
        // A sparse pair (10 s gaps) keeps the full-window ceiling.
        assert_eq!(stage.adaptive_window(sparse, 0.0), 1.0);
        assert_eq!(stage.adaptive_window(sparse, 10.0), 1.0);
        assert_eq!(stage.adaptive_window(sparse, 20.0), 1.0);
    }

    #[test]
    fn adaptive_batching_preserves_member_order() {
        let net = batched_net(
            BatchConfig {
                // ~500 µs real at this scale.
                flush_window: 50.0,
                max_bytes: 1 << 20,
                adaptive: true,
            },
            jsym_obs::ObsRegistry::disabled(),
        );
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        for i in 0u32..16 {
            net.send(NodeId(0), NodeId(1), Payload::new("m", 64, i))
                .unwrap();
        }
        let mut got = Vec::new();
        while got.len() < 16 {
            let env = b.recv_timeout(Duration::from_secs(5)).expect("delivered");
            got.push(*env.payload.downcast::<u32>().unwrap());
        }
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn a_hooked_node_gets_remote_traffic_via_its_hook() {
        let mut topo = Topology::new();
        topo.set_default_class(LinkClass::Lan100);
        let net = Network::new(SimClock::new(TimeScale::new(1e-5)), topo);
        let got: Arc<parking_lot::Mutex<Vec<u32>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        // Hook first, then register: the runtime's ordering.
        net.set_local_hook(
            NodeId(1),
            Arc::new(move |env: Envelope| {
                sink.lock().push(*env.payload.downcast::<u32>().unwrap());
            }),
        );
        let mailbox = net.register(NodeId(1));
        let _src = net.register(NodeId(0));
        for i in 0u32..8 {
            net.send(NodeId(0), NodeId(1), Payload::new("m", 64, i))
                .unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got.lock().len() < 8 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(*got.lock(), (0..8).collect::<Vec<_>>());
        // Nothing may have landed in the mailbox channel.
        assert!(mailbox.try_recv().is_err());
        assert_eq!(net.stats().msgs_delivered, 8);
    }

    #[test]
    fn coalesced_batch_delivers_members_individually_in_order() {
        let obs = jsym_obs::ObsRegistry::new();
        let net = batched_net(
            BatchConfig {
                flush_window: 50.0,
                max_bytes: 1 << 20,
                adaptive: false,
            },
            obs.clone(),
        );
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        for i in 0..8u32 {
            net.send(NodeId(0), NodeId(1), Payload::new("seq", 100, i))
                .unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..8 {
            let env = b.recv_timeout(Duration::from_secs(5)).unwrap();
            // Receivers observe the member envelopes, never the wrapper.
            assert_eq!(env.payload.tag(), "seq");
            assert_eq!(env.payload.wire_bytes(), 100);
            got.push(*env.payload.downcast::<u32>().unwrap());
        }
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        let stats = net.stats();
        assert_eq!(stats.msgs_sent, 8);
        assert_eq!(stats.msgs_delivered, 8);
        assert_eq!(stats.bytes_sent, 800);
        let snap = obs.snapshot();
        assert_eq!(snap.metrics.counter_total("net.batch.coalesced"), 7);
        assert_eq!(snap.metrics.counter_total("net.batch.flushed"), 1);
        assert_eq!(snap.metrics.counter_total("net.batch.msgs"), 8);
        assert!(snap.metrics.counter_total("net.batch.bytes_saved") > 0);
    }

    #[test]
    fn max_bytes_overflow_flushes_without_waiting_the_window() {
        let obs = jsym_obs::ObsRegistry::new();
        // The window is hours of real time: only the overflow path can
        // deliver within the recv timeout.
        let net = batched_net(
            BatchConfig {
                flush_window: 1e9,
                max_bytes: 256,
                adaptive: false,
            },
            obs.clone(),
        );
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        for i in 0..3u32 {
            net.send(NodeId(0), NodeId(1), Payload::new("seq", 100, i))
                .unwrap();
        }
        for i in 0..3u32 {
            let env = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(*env.payload.downcast::<u32>().unwrap(), i);
        }
        let snap = obs.snapshot();
        assert_eq!(
            snap.metrics.counters[&jsym_obs::MetricKey::new("net.batch.flushed", Some(0), "bytes")],
            1
        );
    }

    #[test]
    fn oversized_lone_message_skips_the_window() {
        let net = batched_net(
            BatchConfig {
                flush_window: 1e9,
                max_bytes: 256,
                adaptive: false,
            },
            jsym_obs::ObsRegistry::disabled(),
        );
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        net.send(NodeId(0), NodeId(1), Payload::new("big", 4096, 9u32))
            .unwrap();
        let env = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(*env.payload.downcast::<u32>().unwrap(), 9);
    }

    #[test]
    fn window_timer_flushes_an_idle_batch() {
        let net = batched_net(
            BatchConfig {
                // ~200 µs real at this scale.
                flush_window: 20.0,
                max_bytes: 1 << 20,
                adaptive: false,
            },
            jsym_obs::ObsRegistry::disabled(),
        );
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        net.send(NodeId(0), NodeId(1), Payload::new("one", 64, 1u32))
            .unwrap();
        // No further sends: only the timer can flush this batch.
        let env = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(*env.payload.downcast::<u32>().unwrap(), 1);
    }

    #[test]
    fn batched_and_unbatched_totals_and_transcripts_match() {
        let run = |batch: Option<BatchConfig>| {
            let mut topo = Topology::new();
            topo.set_default_class(LinkClass::Lan100);
            let net = Network::with_config(
                SimClock::new(TimeScale::new(1e-5)),
                topo,
                NetworkConfig {
                    batching: batch,
                    ..NetworkConfig::default()
                },
            );
            let a = net.register(NodeId(0));
            let b = net.register(NodeId(1));
            for i in 0..6u32 {
                net.send(
                    NodeId(0),
                    NodeId(1),
                    Payload::new("fwd", 50 + i as usize, i),
                )
                .unwrap();
                net.send(NodeId(1), NodeId(0), Payload::new("bwd", 10, 100 + i))
                    .unwrap();
            }
            let mut fwd = Vec::new();
            let mut bwd = Vec::new();
            for _ in 0..6 {
                fwd.push(
                    *b.recv_timeout(Duration::from_secs(5))
                        .unwrap()
                        .payload
                        .downcast::<u32>()
                        .unwrap(),
                );
                bwd.push(
                    *a.recv_timeout(Duration::from_secs(5))
                        .unwrap()
                        .payload
                        .downcast::<u32>()
                        .unwrap(),
                );
            }
            let stats = net.stats();
            (
                fwd,
                bwd,
                stats.msgs_sent,
                stats.bytes_sent,
                stats.msgs_delivered,
            )
        };
        assert_eq!(
            run(Some(BatchConfig {
                flush_window: 50.0,
                max_bytes: 1 << 20,
                adaptive: false,
            })),
            run(None)
        );
    }

    #[test]
    fn killed_destination_drops_batch_members_at_delivery() {
        let net = batched_net(
            BatchConfig {
                // ~1 ms real: long enough to kill the node first.
                flush_window: 100.0,
                max_bytes: 1 << 20,
                adaptive: false,
            },
            jsym_obs::ObsRegistry::disabled(),
        );
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        net.send(NodeId(0), NodeId(1), Payload::new("x", 100, 1u32))
            .unwrap();
        net.send(NodeId(0), NodeId(1), Payload::new("x", 100, 2u32))
            .unwrap();
        net.kill_node(NodeId(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while net.stats().msgs_dropped < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "members not dropped: {:?}",
                net.stats()
            );
            std::thread::yield_now();
        }
        assert!(b.try_recv().is_err());
        assert_eq!(net.stats().msgs_delivered, 0);
    }
}
