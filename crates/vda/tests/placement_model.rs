//! The registry's allocator, object placement and component aggregates
//! against a sequential reference model (DESIGN.md §9).
//!
//! One thread replays a seeded stream of architecture operations over a pool
//! of 6–24 machines on an effectively frozen clock — any node, constrained
//! node, named node, `request_cluster(n)` with and without constraints,
//! `request_site`, `free` of a node / cluster / site / a site's cluster,
//! `handle_phys_failure`, a machine leaving and another joining the pool, a
//! load change with or without a lapse of the sample window, and object
//! placement (`least_loaded` over a handful of machines: allocated, free,
//! failed, gone from the pool, changed this period, or none) — and mirrors
//! each in [`Model`] (60 lines): the free set and a linear scan over *the
//! period's* samples (`pool.snapshot_of`, taken at boot, at a join and at a
//! lapse — never in between) ranked by `(CpuLoad1, NodeId)`, all-or-nothing.
//! The registry (a sample cache, a lazy-deletion heap, incremental rollups)
//! must then agree with it:
//!
//! * every request picks the same machines in the same order, or fails with
//!   the same `VdaError` (variant and `available` count);
//! * every placement picks the same machine, or none;
//! * every machine backs as many live nodes as the model says, and exactly
//!   the attached live nodes contribute to a rollup (`PlaneStats::tracked`);
//! * every live component's `snapshot()` is within 1e-6 relative of
//!   `aggregate::average` over the period's samples of its machines, and no
//!   live component lists a failed machine.
//!
//! `SimClock` follows the wall clock and cannot be stepped (ROADMAP item 2),
//! so "the window lapses" is the same inequality from the other side: the TTL
//! is dropped to 0 for one query — the `ttl: 0.0` "every query samples"
//! setting — and restored, which is also what `set_monitor_period` does to a
//! live deployment. Without the lapse the registry must keep answering from
//! the period's samples — half the stream's load changes stay pending until
//! some later lapse — and `a_load_change_shows_after_the_window_lapses` pins
//! both halves by hand.
//!
//! Plain `#[test]` with an in-file xorshift: the seeds are fixed, so a
//! failure (which names its seed and step) reproduces by running the test
//! again.
//!
//! Mutation smokes (each run once in a scratch copy of `src/state.rs`; all
//! fail `registry_agrees_with_the_model`, lines as of PR 20's stream):
//!
//! 1. `pop_free` keeps the `heap_loads` entry of the machine it returns — a
//!    freed machine's stale load still "matches", so it is never indexed
//!    again: `seed 1, step 8: registry Ok([n17]), model Ok([n2]) (n=1, None)`;
//! 2. `plane_detach_node` reads its contribution (`contrib.get(..).cloned()`)
//!    instead of removing it — freed nodes stay tracked: `seed 1, step 4: 5
//!    tracked, 4 attached` (the rollups themselves survive, because a second
//!    detach finds the parent chain already cut);
//! 3. `plane_refresh` skips `self.site_mut(sk).rollup.replace(&prev, &snap)`
//!    — a site keeps the previous period's sample: `seed 1, step 144:
//!    Site(vs12, 1 clusters): AvailMem: rollup 73.446… vs average 59.946…`;
//! 4. `least_loaded` takes the first satisfying candidate (`.next()` for
//!    `.min()`) instead of the lowest `(CpuLoad1, NodeId)`: `seed 1, step 54:
//!    least_loaded([n8, n12, n9, n11], None): registry Some(n8), model
//!    Some(n12)`;
//! 5. `least_loaded` skips the constraint check on a cache hit: `seed 1, step
//!    20: least_loaded([n1, n9, n16, n1, n19], Some(AvailMem >= 91.646…)):
//!    registry Some(n9), model None`;
//! 6. `least_loaded` samples the pool (`pool.snapshot_of(id)`) instead of
//!    reading the cache — a pending load change shows mid-period: `seed 5,
//!    step 257: least_loaded([n19, n17, n3], Some(AvailMem >= 46.846…)):
//!    registry None, model Some(n19)` (and
//!    `a_load_change_shows_after_the_window_lapses` fails on its first
//!    placement);
//! 7. `least_loaded` does not skip failed machines (a failed machine is
//!    sampled again at the next sweep, so it has a sample): `seed 3, step 91:
//!    least_loaded([n19, n16, n6, n8], Some(AvailMem >= 59.646…)): registry
//!    Some(n8), model Some(n19)`.
//!
//! The first version of this file found a bug the `proptest` twins it
//! replaces could not (they never asked for a node by name): a machine named
//! while free was indexed twice after its release, and one `request_cluster`
//! returned it twice (`vda.rs::a_machine_named_while_free_…`). PR 20's
//! extension found one in the model instead: it re-took a lapsed sample at
//! its next read, by which time the load could have changed again.

use jsym_net::{NodeId, SimClock, TimeScale};
use jsym_sysmon::{
    aggregate, JsConstraints, LoadModel, LoadProfile, MachineSpec, ParamRollup, ParamValue,
    SimMachine, SysParam, SysSnapshot,
};
use jsym_vda::{Cluster, Domain, Node, PlaneConfig, ResourcePool, Site, VdaError, VdaRegistry};
use std::collections::{HashMap, HashSet};

const SEEDS: std::ops::Range<u64> = 1..9;
const OPS: usize = 300;
const TTL: f64 = 60.0;
const MB: u64 = 1 << 20;

/// `ensure!(holds, "what went wrong {}", ..)`: fails the stream otherwise.
macro_rules! ensure {
    ($holds:expr, $($why:tt)+) => {
        if $holds {
        } else {
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
}

// ------------------------------------------------------------------ the model

/// Which machines are free, and nothing else.
struct Model {
    pool: ResourcePool,
    samples: Samples,
    /// Live virtual nodes per machine.
    live: HashMap<NodeId, usize>,
    failed: HashSet<NodeId>,
}

impl Model {
    fn live_on(&self, id: NodeId) -> usize {
        self.live.get(&id).copied().unwrap_or(0)
    }

    /// Those of `ids` whose sample of this period satisfies `c`, in
    /// `(CpuLoad1, NodeId)` order.
    fn ranked(&self, ids: &[NodeId], c: Option<&JsConstraints>) -> Vec<NodeId> {
        let mut ranked: Vec<(f64, NodeId)> = Vec::new();
        for &id in ids {
            let snap = self.samples.of(id);
            if c.is_none_or(|c| c.holds(snap)) {
                ranked.push((snap.num(SysParam::CpuLoad1).unwrap_or(f64::MAX), id));
            }
        }
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        ranked.into_iter().map(|(_, id)| id).collect()
    }

    /// Allocation: the `n` lowest-ranked free machines that satisfy `c`.
    fn pick(&self, n: usize, c: Option<&JsConstraints>) -> Result<Vec<NodeId>, VdaError> {
        let free: Vec<NodeId> = (self.pool.ids().into_iter())
            .filter(|id| !self.failed.contains(id) && self.live_on(*id) == 0)
            .collect();
        let ranked = self.ranked(&free, c);
        if ranked.len() < n {
            let available = ranked.len();
            return Err(if c.is_some() && free.len() >= n {
                VdaError::ConstraintsUnsatisfied
            } else {
                VdaError::InsufficientNodes {
                    requested: n,
                    available,
                }
            });
        }
        Ok(ranked.into_iter().take(n).collect())
    }

    /// Object placement: the lowest-ranked candidate that is in the pool,
    /// alive and satisfies `c` — allocated or not.
    fn least_loaded(&self, candidates: &[NodeId], c: Option<&JsConstraints>) -> Option<NodeId> {
        let live: Vec<NodeId> = (candidates.iter().copied())
            .filter(|id| self.pool.contains(*id) && !self.failed.contains(id))
            .collect();
        self.ranked(&live, c).first().copied()
    }

    /// Books `by` more (or fewer) live nodes on each of `ids`.
    fn book(&mut self, ids: &[NodeId], by: isize) {
        for &id in ids {
            let n = self.live.entry(id).or_insert(0);
            *n = n
                .checked_add_signed(by)
                .expect("freed more nodes than allocated");
        }
    }
}

/// The period's samples: `pool.snapshot_of`, taken when a machine is first
/// seen (boot, join) and again when the window lapses if the stream changed
/// its load meanwhile (`changed`). On the frozen clock nothing else moves a
/// sample; a debug-build snapshot costs ~50 µs, and sampling per query the
/// model would take some 30,000.
struct Samples {
    pool: ResourcePool,
    taken: HashMap<NodeId, SysSnapshot>,
    /// Machines whose load changed since their sample was taken.
    stale: HashSet<NodeId>,
}

impl Samples {
    fn take(&mut self, id: NodeId) {
        if let Ok(snap) = self.pool.snapshot_of(id) {
            self.taken.insert(id, snap);
        }
    }
    fn of(&self, id: NodeId) -> &SysSnapshot {
        &self.taken[&id]
    }
    fn changed(&mut self, id: NodeId) {
        self.stale.insert(id);
    }
    fn lapse(&mut self) {
        for id in std::mem::take(&mut self.stale) {
            self.take(id);
        }
    }
}

// ---------------------------------------------------------------- the harness

enum Comp {
    Cluster(Cluster),
    Site(Site),
    Domain(Domain),
}

impl Comp {
    fn is_live(&self) -> bool {
        match self {
            Comp::Cluster(c) => c.is_live(),
            Comp::Site(s) => s.is_live(),
            Comp::Domain(d) => d.is_live(),
        }
    }
    fn machines(&self) -> Vec<NodeId> {
        match self {
            Comp::Cluster(c) => c.machines(),
            Comp::Site(s) => s.machines(),
            Comp::Domain(d) => d.machines(),
        }
    }
    fn snapshot(&self) -> SysSnapshot {
        match self {
            Comp::Cluster(c) => c.snapshot().unwrap(),
            Comp::Site(s) => s.snapshot().unwrap(),
            Comp::Domain(d) => d.snapshot().unwrap(),
        }
    }
    fn label(&self) -> String {
        match self {
            Comp::Cluster(c) => format!("{c:?}"),
            Comp::Site(s) => format!("{s:?}"),
            Comp::Domain(d) => format!("{d:?}"),
        }
    }
}

fn machine(name: &str, load_pct: usize, clock: &SimClock) -> SimMachine {
    SimMachine::new(
        MachineSpec::generic(name, 25.0, 128.0),
        LoadModel::new(LoadProfile::Constant(load_pct as f64 / 100.0), 7),
        clock.clone(),
    )
}

/// Numeric params within 1e-6 relative, string params equal, same key set.
/// `at` is excluded: the rollup keeps a high-water mark.
fn same_aggregate(got: &SysSnapshot, want: &SysSnapshot) -> Result<(), String> {
    let keys = |s: &SysSnapshot| s.iter().map(|(&p, _)| p).collect::<Vec<SysParam>>();
    ensure!(keys(got) == keys(want), "parameter key sets differ");
    for (&param, value) in want.iter() {
        match value {
            ParamValue::Num(want) => {
                let got = got.num(param).unwrap();
                ensure!(
                    (got - want).abs() <= 1e-6 * want.abs().max(1.0),
                    "{param:?}: rollup {got} vs average {want}"
                );
            }
            ParamValue::Str(want) => {
                ensure!(got.str(param) == Some(want.as_str()), "{param:?} differs");
            }
        }
    }
    Ok(())
}

/// Ends the current sample window: one query at `ttl: 0.0` re-samples every
/// machine, then the TTL goes back.
fn lapse(reg: &VdaRegistry) {
    reg.set_plane_ttl(0.0);
    reg.scan_violations(true);
    reg.set_plane_ttl(TTL);
}

struct Run {
    rng: XorShift,
    clock: SimClock,
    reg: VdaRegistry,
    model: Model,
    /// Every machine ever in the pool, by name.
    names: Vec<(String, NodeId)>,
    /// Runtime memory currently booked on a machine.
    booked: HashMap<NodeId, u64>,
    /// Single nodes: handle, machine, still allocated.
    nodes: Vec<(Node, NodeId, bool)>,
    comps: Vec<Comp>,
}

impl Run {
    fn new(seed: u64) -> Run {
        let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        // 1e9 real seconds per virtual second: samples taken at different
        // moments of the run agree to ~1e-12.
        let clock = SimClock::new(TimeScale::new(1e9));
        let pool = ResourcePool::new();
        let mut names = Vec::new();
        for i in 0..6 + rng.below(19) {
            let name = format!("m{i}");
            // A few distinct load levels, so ties on load are common and the
            // `NodeId` tie-break matters.
            let id = pool.add_machine(machine(&name, 10 * rng.below(10), &clock));
            names.push((name, id));
        }
        let reg = VdaRegistry::new(pool.clone());
        reg.set_plane_config(PlaneConfig {
            ttl: TTL,
            ..PlaneConfig::default()
        });
        let mut samples = Samples {
            pool: pool.clone(),
            taken: HashMap::new(),
            stale: HashSet::new(),
        };
        // The first period starts here, on both sides.
        assert_eq!(reg.least_loaded(&[], None), None);
        for id in pool.ids() {
            samples.take(id);
        }
        Run {
            rng,
            clock,
            reg,
            model: Model {
                samples,
                pool,
                live: HashMap::new(),
                failed: HashSet::new(),
            },
            names,
            booked: HashMap::new(),
            nodes: Vec::new(),
            comps: Vec::new(),
        }
    }

    fn constraint(&mut self) -> JsConstraints {
        let mut c = JsConstraints::new();
        if self.rng.below(2) == 0 {
            c.set(SysParam::CpuLoad1, "<=", self.rng.below(40) as f64 / 10.0);
        } else {
            c.set(SysParam::AvailMem, ">=", 20.0 + self.rng.below(90) as f64);
        }
        c
    }

    /// Compares a request's outcome with the model's and books it.
    fn agree(
        &mut self,
        got: Result<Vec<NodeId>, VdaError>,
        n: usize,
        c: Option<&JsConstraints>,
    ) -> Result<(), String> {
        let want = self.model.pick(n, c);
        ensure!(
            got == want,
            "registry {got:?}, model {want:?} (n={n}, {c:?})"
        );
        if let Ok(ids) = &want {
            self.model.book(ids, 1);
        }
        Ok(())
    }

    /// Object placement over up to five of the machines the pool ever held —
    /// allocated or free, sometimes none at all, and every fourth one a
    /// failed machine, a departed one or one whose load changed this period.
    fn place(&mut self) -> Result<(), String> {
        let model = &self.model;
        let odd: Vec<NodeId> = (self.names.iter().map(|(_, id)| *id))
            .filter(|id| {
                model.failed.contains(id)
                    || !model.pool.contains(*id)
                    || model.samples.stale.contains(id)
            })
            .collect();
        let mut candidates = Vec::new();
        for _ in 0..self.rng.below(6) {
            candidates.push(if !odd.is_empty() && self.rng.below(4) == 0 {
                odd[self.rng.below(odd.len())]
            } else {
                self.names[self.rng.below(self.names.len())].1
            });
        }
        let c = match self.rng.below(3) {
            0 => None,
            1 => Some(self.constraint()),
            // A memory floor the first candidate just meets on its sample of
            // this period — the sharpest probe of which sample was read.
            _ => candidates.first().map(|&id| {
                let avail = self.model.samples.of(id).num(SysParam::AvailMem).unwrap();
                let mut c = JsConstraints::new();
                c.set(SysParam::AvailMem, ">=", avail - 1.0);
                c
            }),
        };
        let got = self.reg.least_loaded(&candidates, c.as_ref());
        let want = self.model.least_loaded(&candidates, c.as_ref());
        ensure!(
            got == want,
            "least_loaded({candidates:?}, {c:?}): registry {got:?}, model {want:?}"
        );
        Ok(())
    }

    /// With some probability materializes the component's implicit parents,
    /// so rollups are lifted into a site and a domain after the fact.
    fn maybe_lift(&mut self, cluster: &Cluster) {
        if self.rng.below(3) == 0 {
            self.comps.push(Comp::Site(cluster.get_site().unwrap()));
            self.comps.push(Comp::Domain(cluster.get_domain().unwrap()));
        }
    }

    fn step(&mut self) -> Result<(), String> {
        match self.rng.below(20) {
            0..=3 => {
                let n = 1 + self.rng.below(5);
                let c = (self.rng.below(2) == 0).then(|| self.constraint());
                let got = self.reg.request_cluster(n, c.as_ref());
                let ids = got.as_ref().map(Cluster::machines).map_err(Clone::clone);
                self.agree(ids, n, c.as_ref())?;
                if let Ok(cluster) = got {
                    self.maybe_lift(&cluster);
                    self.comps.push(Comp::Cluster(cluster));
                }
            }
            4 => {
                let shape = [1 + self.rng.below(3), 1 + self.rng.below(3)];
                let c = (self.rng.below(3) == 0).then(|| self.constraint());
                let got = self.reg.request_site(&shape, c.as_ref());
                let ids = got.as_ref().map(Site::machines).map_err(Clone::clone);
                self.agree(ids, shape[0] + shape[1], c.as_ref())?;
                if let Ok(site) = got {
                    self.comps.push(Comp::Cluster(site.get_cluster(1).unwrap()));
                    self.comps.push(Comp::Site(site));
                }
            }
            5 | 6 => {
                let (name, id) = self.names[self.rng.below(self.names.len())].clone();
                let want = if !self.model.pool.contains(id) {
                    Err(VdaError::NoSuchMachine(name.clone()))
                } else if self.model.failed.contains(&id) {
                    Err(VdaError::UnknownPhysicalNode(id))
                } else {
                    Ok(id)
                };
                let got = self.reg.request_node_named(&name);
                let got_id = got.as_ref().map(Node::phys).map_err(Clone::clone);
                ensure!(got_id == want, "named {name}: {got_id:?}, model {want:?}");
                if let Ok(node) = got {
                    self.model.book(&[id], 1);
                    self.nodes.push((node, id, true));
                }
            }
            7..=9 if !self.nodes.is_empty() => {
                let i = self.rng.below(self.nodes.len());
                let (node, id, alive) = self.nodes[i].clone();
                let got = node.free();
                ensure!(
                    got.is_ok() == alive,
                    "free of {node:?}: {got:?}, alive {alive}"
                );
                if alive {
                    self.model.book(&[id], -1);
                    self.nodes[i].2 = false;
                }
            }
            10..=12 if !self.comps.is_empty() => {
                // Free a cluster, a site, or the first cluster of a site.
                let i = self.rng.below(self.comps.len());
                let was_live = self.comps[i].is_live();
                let (members, got) = match &self.comps[i] {
                    Comp::Cluster(c) => (c.machines(), c.free()),
                    Comp::Site(s) if s.nr_clusters() > 1 && self.rng.below(2) == 0 => {
                        let first = s.get_cluster(0).unwrap();
                        (first.machines(), s.free_cluster_at(0))
                    }
                    Comp::Site(s) => (s.machines(), s.free()),
                    Comp::Domain(d) => (d.machines(), d.free()),
                };
                ensure!(got.is_ok() == was_live, "free of a component: {got:?}");
                if was_live {
                    self.model.book(&members, -1);
                    // Single nodes inside an implicit cluster go with it.
                    for (node, _, alive) in &mut self.nodes {
                        *alive = *alive && node.is_live();
                    }
                }
            }
            13 if self.rng.below(2) == 0 => {
                let ids = self.model.pool.ids();
                let id = ids[self.rng.below(ids.len())];
                self.reg.handle_phys_failure(id);
                self.model.failed.insert(id);
                self.model.live.remove(&id);
                for (_, on, alive) in &mut self.nodes {
                    *alive = *alive && *on != id;
                }
            }
            14 => {
                // A failed or free machine leaves the pool, a new one joins.
                let ids = self.model.pool.ids();
                let dead = ids.iter().find(|id| self.model.failed.contains(id));
                let id = dead.copied().unwrap_or(ids[self.rng.below(ids.len())]);
                if self.model.live_on(id) == 0 && ids.len() > 6 {
                    self.model.pool.remove_machine(id);
                }
                if self.model.pool.len() < 24 {
                    let name = format!("m{}", self.names.len());
                    let joined = machine(&name, 10 * self.rng.below(10), &self.clock);
                    let id = self.model.pool.add_machine(joined);
                    self.model.samples.take(id);
                    self.names.push((name, id));
                }
                // The next query sweeps the newcomer in (and the leaver out)
                // mid-period; everyone else keeps the sample they have.
                self.place()?;
            }
            15 => {
                // A load change the registry may only see once the window
                // has lapsed — now, or at some later lapse.
                let ids = self.model.pool.ids();
                let id = ids[self.rng.below(ids.len())];
                let m = self.model.pool.machine(id).unwrap();
                match self.booked.remove(&id) {
                    Some(bytes) => m.sub_runtime_bytes(bytes),
                    None => {
                        let bytes = (8 + self.rng.below(56) as u64) * MB;
                        m.add_runtime_bytes(bytes);
                        self.booked.insert(id, bytes);
                    }
                }
                self.model.samples.changed(id);
                if self.rng.below(2) == 0 {
                    lapse(&self.reg);
                    self.model.samples.lapse();
                }
            }
            16 | 17 => self.place()?,
            _ => {
                let c = (self.rng.below(2) == 0).then(|| self.constraint());
                let got = match &c {
                    None => self.reg.request_node(),
                    Some(c) => self.reg.request_node_constrained(c),
                };
                let ids = got.as_ref().map(|n| vec![n.phys()]).map_err(Clone::clone);
                self.agree(ids, 1, c.as_ref())?;
                if let Ok(node) = got {
                    if self.rng.below(2) == 0 {
                        let cluster = node.get_cluster().unwrap();
                        self.maybe_lift(&cluster);
                        self.comps.push(Comp::Cluster(cluster));
                    }
                    self.nodes.push((node.clone(), node.phys(), true));
                }
            }
        }
        for (_, id) in &self.names {
            let (got, want) = (self.reg.allocation_count(*id), self.model.live_on(*id));
            ensure!(got == want, "{id} backs {got} live nodes, model {want}");
        }
        Ok(())
    }

    /// The component half of the agreement. A rollup that went wrong stays
    /// wrong, so the stream checks this every few steps, not after each.
    fn check_components(&mut self) -> Result<(), String> {
        self.comps.retain(Comp::is_live);
        let mut attached: HashSet<_> = HashSet::new();
        for comp in &self.comps {
            let machines = comp.machines();
            if let Some(dead) = machines.iter().find(|m| self.model.failed.contains(m)) {
                return Err(format!("{} still lists failed {dead}", comp.label()));
            }
            let fresh: Vec<SysSnapshot> = (machines.iter())
                .map(|&m| self.model.samples.of(m).clone())
                .collect();
            same_aggregate(&comp.snapshot(), &aggregate::average(&fresh))
                .map_err(|why| format!("{}: {why}", comp.label()))?;
            let clusters = match comp {
                Comp::Cluster(c) => vec![c.clone()],
                Comp::Site(s) => (0..s.nr_clusters())
                    .map(|i| s.get_cluster(i).unwrap())
                    .collect(),
                Comp::Domain(_) => Vec::new(), // its site is in `comps` too
            };
            for c in clusters {
                attached.extend((0..c.nr_nodes()).map(|i| c.get_node(i).unwrap().key()));
            }
        }
        // Every cluster the run created is in `comps` (itself or its site)
        // while it lives, and a node contributes to rollups exactly while it
        // sits in one.
        let tracked = self.reg.plane_stats().tracked;
        ensure!(
            tracked == attached.len(),
            "{tracked} tracked, {} attached",
            attached.len()
        );
        Ok(())
    }
}

#[test]
fn registry_agrees_with_the_model() {
    for seed in SEEDS {
        let mut run = Run::new(seed);
        for step in 0..OPS {
            let checked = run.step().and_then(|()| match step % 5 {
                4 => run.check_components(),
                _ => Ok(()),
            });
            if let Err(why) = checked {
                panic!("seed {seed}, step {step}: {why}");
            }
        }
        let stats = run.reg.plane_stats();
        assert!(
            stats.hits > stats.misses,
            "seed {seed}: the cache was not used: {stats:?}"
        );
    }
}

#[test]
fn a_load_change_shows_after_the_window_lapses() {
    let clock = SimClock::new(TimeScale::new(1e9));
    let pool = ResourcePool::new();
    for i in 0..3 {
        pool.add_machine(machine(&format!("m{i}"), 10, &clock));
    }
    let avail = |c: &Cluster| c.snapshot().unwrap().num(SysParam::AvailMem).unwrap();
    let reg = VdaRegistry::new(pool.clone());
    assert_eq!(reg.plane_config(), PlaneConfig::default());
    reg.set_plane_ttl(TTL);
    let cluster = reg.request_cluster(3, None).unwrap();
    let before = avail(&cluster);
    // Three equal machines: `before` is each one's free memory too.
    let mut roomy = JsConstraints::new();
    roomy.set(SysParam::AvailMem, ">=", before - 1.0);
    let place = || reg.least_loaded(&cluster.machines(), Some(&roomy));
    pool.machine(NodeId(0)).unwrap().add_runtime_bytes(30 * MB);
    // Inside the window the component, and object placement, read this
    // period's samples...
    assert_eq!(avail(&cluster), before);
    assert_eq!(place(), Some(NodeId(0)));
    // ...and the next period's after it: 30 MB over three machines.
    lapse(&reg);
    assert!((before - avail(&cluster) - 10.0).abs() < 1e-6);
    assert_eq!(place(), Some(NodeId(1)));
    // `ttl: 0.0` needs no lapse: every query samples, through the same code.
    reg.set_plane_ttl(0.0);
    pool.machine(NodeId(1)).unwrap().add_runtime_bytes(30 * MB);
    assert!((before - avail(&cluster) - 20.0).abs() < 1e-6);
}

// ------------------------------------------------- rollup vs. `average`

/// A snapshot with a load, a memory figure and one of two OS names or none
/// (no string parameter exercises the full-coverage rule).
fn small_snap(rng: &mut XorShift, at: f64) -> SysSnapshot {
    let mut snap = SysSnapshot::empty(at);
    snap.set(SysParam::CpuLoad1, rng.below(1000) as f64 / 1000.0);
    snap.set(SysParam::AvailMem, rng.below(512) as f64);
    match rng.below(3) {
        0 => snap.set(SysParam::OsName, "linux"),
        1 => snap.set(SysParam::OsName, "solaris"),
        _ => {}
    }
    snap
}

#[test]
fn rollup_matches_average_under_add_remove_replace() {
    for seed in SEEDS {
        let mut rng = XorShift(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1);
        let mut rollup = ParamRollup::new();
        let mut shadow: Vec<SysSnapshot> = Vec::new();
        for step in 0..400 {
            match rng.below(3) {
                0 => {
                    let snap = small_snap(&mut rng, step as f64);
                    rollup.add(&snap);
                    shadow.push(snap);
                }
                1 if !shadow.is_empty() => {
                    let snap = shadow.remove(rng.below(shadow.len()));
                    rollup.remove(&snap);
                }
                2 if !shadow.is_empty() => {
                    let i = rng.below(shadow.len());
                    let fresh = small_snap(&mut rng, step as f64);
                    rollup.replace(&shadow[i], &fresh);
                    shadow[i] = fresh;
                }
                _ => {}
            }
            assert_eq!(rollup.len(), shadow.len(), "seed {seed}, step {step}");
            if let Err(why) = same_aggregate(&rollup.to_snapshot(), &aggregate::average(&shadow)) {
                panic!("seed {seed}, step {step}: {why}");
            }
        }
    }
}
