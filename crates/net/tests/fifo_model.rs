//! The delivery plane against a sequential reference model.
//!
//! One thread replays a seeded schedule of sends over the pairs of five nodes
//! — remote, node-local with and without a hook, two nodes on a shared
//! 10 Mbit/s segment, one pair cut and healed mid-run — and mirrors each
//! accepted send in a model of the connection state (`last arrival` per
//! directed pair, `busy until` for the shared segment). The network must then
//! agree with it:
//!
//! * per pair, delivery order equals send order (so a small message never
//!   overtakes a large one, and equal deadlines keep send order);
//! * per pair, arrivals are monotone and nothing is delivered before the
//!   model says it can have arrived;
//! * sends refused during the cut are exactly the model's, only the cut pair
//!   loses messages, and `sent == delivered + dropped`.
//!
//! Plain `#[test]` with an in-file xorshift: the seeds are fixed, so a
//! failure (which names its seed) reproduces by running the test again.

use jsym_net::{
    Envelope, LinkClass, Network, NetworkConfig, NodeId, Payload, SendError, SimClock, TimeScale,
    Topology,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SEEDS: std::ops::Range<u64> = 1..9;
const SENDS: usize = 300;
const NODES: u32 = 5;
/// Nodes 3 and 4 hang off the shared segment.
const SLOW: [u32; 2] = [3, 4];
/// Nodes whose node-local traffic goes to a hook instead of the mailbox.
const HOOKED: [u32; 2] = [0, 3];
/// Cut (both directions) for the middle third of the schedule.
const CUT: (u32, u32) = (0, 3);
const BIG: usize = 1 << 20;
const SIZES: [usize; 8] = [0, 0, 0, 8, 64, 1500, 65_536, BIG];

/// `ensure!(holds, "what went wrong {}", ..)`: fails the schedule otherwise.
macro_rules! ensure {
    ($holds:expr, $($why:tt)+) => {
        if !$holds {
            return Err(format!($($why)+));
        }
    };
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn node(&mut self) -> u32 {
        self.below(NODES as usize) as u32
    }
}

/// One delivery as an endpoint saw it.
struct Seen {
    pair: (u32, u32),
    id: u32,
    at: Instant,
}

fn seen(env: Envelope) -> Seen {
    Seen {
        pair: (env.src.0, env.dst.0),
        id: *env.payload.downcast::<u32>().expect("a send id"),
        at: Instant::now(),
    }
}

fn link(src: u32, dst: u32) -> LinkClass {
    if src == dst {
        LinkClass::Loopback
    } else if SLOW.contains(&src) || SLOW.contains(&dst) {
        LinkClass::Lan10
    } else {
        LinkClass::Lan100
    }
}

/// The reference model of the connection state.
#[derive(Default)]
struct Model {
    /// Per pair, the accepted sends in order: `(id, modeled arrival)`.
    accepted: HashMap<(u32, u32), Vec<(u32, f64)>>,
    segment_last: f64,
    rejected: u64,
}

impl Model {
    /// A send accepted at virtual time `now` (read before the network reads
    /// its own, so every modeled arrival is a lower bound on the real one).
    fn accept(&mut self, pair: (u32, u32), id: u32, bytes: usize, now: f64) {
        let link = link(pair.0, pair.1);
        let sends = self.accepted.entry(pair).or_default();
        let last = sends.last().map_or(0.0, |&(_, arrival)| arrival);
        let mut start = (now + link.latency()).max(last);
        if link == LinkClass::Lan10 {
            start = start.max(self.segment_last);
        }
        let arrival = start + link.transfer_time(bytes);
        if link == LinkClass::Lan10 {
            self.segment_last = arrival;
        }
        sends.push((id, arrival));
    }
}

/// Replays the schedule of `seed`; returns how many messages the cut dropped.
fn run(seed: u64) -> Result<u64, String> {
    let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut topo = Topology::new();
    topo.set_default_class(LinkClass::Lan100);
    for n in SLOW {
        topo.set_node_class(NodeId(n), LinkClass::Lan10);
    }
    let clock = SimClock::new(TimeScale::new(1e-3));
    let net = Network::with_config(
        clock.clone(),
        topo,
        NetworkConfig {
            shared_segments: vec![LinkClass::Lan10],
            ..NetworkConfig::default()
        },
    );
    let log: Arc<Mutex<Vec<Seen>>> = Arc::new(Mutex::new(Vec::new()));
    for n in HOOKED {
        let log = Arc::clone(&log);
        net.set_local_hook(
            NodeId(n),
            Arc::new(move |env| log.lock().unwrap().push(seen(env))),
        );
    }
    let mailboxes: Vec<_> = (0..NODES).map(|n| net.register(NodeId(n))).collect();

    let mut model = Model::default();
    let send = |model: &mut Model, cut: bool, pair: (u32, u32), id: u32, bytes: usize| {
        let now = clock.now();
        let sent = net.send(NodeId(pair.0), NodeId(pair.1), Payload::new("m", bytes, id));
        let severed = cut && (pair == CUT || pair == (CUT.1, CUT.0));
        match sent {
            Ok(()) if !severed => model.accept(pair, id, bytes, now),
            Err(SendError::Partitioned(..)) if severed => model.rejected += 1,
            other => return Err(format!("send {id} on {pair:?} (cut: {cut}): {other:?}")),
        }
        Ok(())
    };
    let mut id = 0u32;
    let mut cut = false;
    let mut healed = false;
    while (id as usize) < SENDS {
        if !cut && !healed && id as usize >= SENDS / 3 {
            // A long transfer is in flight on the pair when it is cut, so
            // the plane has something to drop at delivery time (unless this
            // thread is held up for the millisecond the transfer takes).
            send(&mut model, cut, CUT, id, BIG)?;
            id += 1;
            net.partition(NodeId(CUT.0), NodeId(CUT.1));
            cut = true;
        }
        if cut && id as usize >= 2 * SENDS / 3 {
            // Heal once that transfer has met its fate.
            let deadline = Instant::now() + Duration::from_secs(10);
            while net.stats().msgs_dropped == 0 && net.stats().in_flight() > 0 {
                ensure!(Instant::now() < deadline, "cut: stuck at {:?}", net.stats());
                std::thread::yield_now();
            }
            net.heal(NodeId(CUT.0), NodeId(CUT.1));
            (cut, healed) = (false, true);
        }
        // A run of sends on one pair: behind a large message the small ones
        // queue up with equal deadlines.
        let mut pair = (rng.node(), rng.node());
        if rng.below(3) == 0 {
            pair.1 = pair.0;
        }
        for _ in 0..1 + rng.below(6) {
            send(&mut model, cut, pair, id, SIZES[rng.below(SIZES.len())])?;
            id += 1;
        }
    }

    let accepted: u64 = model.accepted.values().map(|v| v.len() as u64).sum();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        for rx in &mailboxes {
            while let Ok(env) = rx.try_recv() {
                log.lock().unwrap().push(seen(env));
            }
        }
        let stats = net.stats();
        let logged = log.lock().unwrap().len() as u64;
        if stats.msgs_sent == stats.msgs_delivered + stats.msgs_dropped
            && logged == stats.msgs_delivered
        {
            break;
        }
        ensure!(
            Instant::now() < deadline,
            "stuck at {stats:?}, {logged} logged"
        );
        std::thread::yield_now();
    }
    let stats = net.stats();
    net.shutdown();
    ensure!(
        (stats.msgs_sent, stats.msgs_rejected) == (accepted, model.rejected),
        "model accepted {accepted} and refused {}, network: {stats:?}",
        model.rejected
    );

    let mut delivered: HashMap<(u32, u32), Vec<&Seen>> = HashMap::new();
    let log = log.lock().unwrap();
    for s in log.iter() {
        delivered.entry(s.pair).or_default().push(s);
    }
    let mut lost = 0;
    for (&pair, sends) in &model.accepted {
        let got = delivered.remove(&pair).unwrap_or_default();
        ensure!(
            got.windows(2).all(|w| w[0].at <= w[1].at),
            "{pair:?}: arrivals not monotone"
        );
        // Delivery order is send order: what arrived is the accepted
        // sequence, less (on the cut pair only) what the cut dropped.
        let mut expect = sends.iter();
        for s in &got {
            let Some(&(_, arrival)) = expect.find(|(id, _)| *id == s.id) else {
                return Err(format!(
                    "{pair:?}: {} delivered out of order or twice; sent {:?}, got {:?}",
                    s.id,
                    sends.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
                    got.iter().map(|s| s.id).collect::<Vec<_>>()
                ));
            };
            ensure!(
                s.at >= clock.real_deadline(arrival),
                "{pair:?}: {} delivered before its modeled arrival",
                s.id
            );
        }
        let missing = sends.len() - got.len();
        ensure!(
            missing == 0 || pair == CUT || pair == (CUT.1, CUT.0),
            "{pair:?}: lost {missing} without a fault"
        );
        lost += missing as u64;
    }
    ensure!(
        lost == stats.msgs_dropped,
        "{lost} messages missing, {} counted dropped",
        stats.msgs_dropped
    );
    Ok(lost)
}

#[test]
fn delivery_plane_matches_the_sequential_model() {
    let mut dropped = 0;
    for seed in SEEDS {
        match run(seed) {
            Ok(lost) => dropped += lost,
            Err(why) => panic!("fifo model, seed {seed}: {why}"),
        }
    }
    assert!(dropped > 0, "no schedule exercised a delivery-time drop");
}
