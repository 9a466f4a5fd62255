//! Object placement reads the monitoring period's samples (DESIGN.md §9):
//! inside one period `JsObj::create` takes no sample of any machine, and a
//! load change moves the next placement only once the window has lapsed.
//! Counts of `PlaneStats`, no timings. Fails when `VdaState::least_loaded` is
//! made to call `pool.snapshot_of` instead of reading the cache (mutation 6
//! in `vda/tests/placement_model.rs`): the hits do not rise.

use jsym_core::testkit::{register_test_classes, shell_with_idle_machines};
use jsym_core::{JsObj, Placement};
use jsym_sysmon::{JsConstraints, SysParam};

const MB: u64 = 1 << 20;
/// A monitoring period no test run outlasts.
const FOREVER: f64 = 1e9;

#[test]
fn a_create_inside_the_period_takes_no_sample_and_a_load_change_shows_after_it() {
    let d = shell_with_idle_machines(4).monitor_period(FOREVER).boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    let cluster = d.vda().request_cluster(3, None).unwrap();
    let create = |constraints: Option<&JsConstraints>| {
        JsObj::create(
            &reg,
            "Counter",
            &[],
            Placement::InCluster(&cluster),
            constraints,
        )
        .unwrap()
        .get_location()
        .unwrap()
    };

    // 100 placements, one period: every candidate is a cache hit, nothing is
    // sampled, and equal samples give an equal answer.
    let before = d.plane_stats();
    let first = create(None);
    for _ in 1..100 {
        assert_eq!(create(None), first);
    }
    let after = d.plane_stats();
    assert_eq!(after.misses, before.misses, "a create sampled a machine");
    assert_eq!(
        after.hits - before.hits,
        100 * cluster.machines().len() as u64
    );

    // `first` loses 64 MB. Inside the period a placement that wants the
    // memory still sees it there...
    let sample = d.vda().sample_of(first).unwrap();
    let mut roomy = JsConstraints::new();
    roomy.set(
        SysParam::AvailMem,
        ">=",
        sample.num(SysParam::AvailMem).unwrap() - 32.0,
    );
    d.pool().machine(first).unwrap().add_runtime_bytes(64 * MB);
    assert_eq!(create(Some(&roomy)), first);
    assert_eq!(d.plane_stats().misses, after.misses);

    // ...and after the window lapsed (one query at `ttl: 0.0` samples every
    // machine of the pool, once) the next create moves.
    d.vda().set_plane_ttl(0.0);
    d.vda().sample_of(first);
    d.vda().set_plane_ttl(FOREVER);
    assert_ne!(create(Some(&roomy)), first);
    assert_eq!(d.plane_stats().misses, after.misses + 4);

    d.shutdown();
}
