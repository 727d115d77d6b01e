//! Integration test: simulations are a pure function of the seed, and
//! conclusions are robust across seeds.

use std::cell::RefCell;
use std::rc::Rc;

use corelite::CoreliteConfig;
use fairness::metrics::jain_index;
use netsim::telemetry::RingProbe;
use scenarios::discipline::Corelite;
use scenarios::exec::{run_parallel, run_serial};
use scenarios::runner::{Scenario, ScenarioFlow};
use scenarios::topology::{Route, TopologySpec};
use sim_core::time::SimTime;

fn scenario(seed: u64) -> Scenario {
    let flows = (0..4)
        .map(|i| ScenarioFlow::best_effort(Route::new(0, 1), i % 2 + 1, SimTime::ZERO))
        .collect();
    Scenario::on(
        TopologySpec::paper_chain(),
        "determinism",
        flows,
        SimTime::from_secs(60),
        seed,
    )
}

#[test]
fn identical_seeds_give_identical_runs() {
    let a = scenario(99).run(&Corelite::new(CoreliteConfig::default()));
    let b = scenario(99).run(&Corelite::new(CoreliteConfig::default()));
    assert_eq!(a.report.events_processed, b.report.events_processed);
    for i in 0..4 {
        assert_eq!(
            a.report.flows[i].delivered_packets, b.report.flows[i].delivered_packets,
            "flow {i} delivery counts differ"
        );
        let ra: Vec<_> = a.allotted_rate(i).iter().collect();
        let rb: Vec<_> = b.allotted_rate(i).iter().collect();
        assert_eq!(ra, rb, "flow {i} rate series differ");
    }
}

#[test]
fn different_seeds_differ_but_agree_on_fairness() {
    let a = scenario(1).run(&Corelite::new(CoreliteConfig::default()));
    let b = scenario(2).run(&Corelite::new(CoreliteConfig::default()));
    // The random marker selection must actually differ...
    let da: Vec<u64> = a.report.flows.iter().map(|f| f.delivered_packets).collect();
    let db: Vec<u64> = b.report.flows.iter().map(|f| f.delivered_packets).collect();
    assert_ne!(da, db, "different seeds should perturb the run");
    // ...while the fairness conclusion is seed-independent.
    for r in [&a, &b] {
        let rates: Vec<f64> = (0..4)
            .map(|i| r.mean_rate_in(i, SimTime::from_secs(40), SimTime::from_secs(60)))
            .collect();
        let weights: Vec<f64> = r.scenario.flows.iter().map(|f| f.weight as f64).collect();
        let j = jain_index(&rates, &weights);
        assert!(j > 0.97, "seed {}: Jain {j:.4}", r.scenario.seed);
    }
}

/// Runs `scenario(seed)` with a probe installed and returns the
/// rendered JSONL stream. Probes are `Rc`-shared (not `Send`), so each
/// executor job builds its own inside the closure and hands back the
/// rendered string.
fn probe_stream(seed: u64) -> String {
    let probe = Rc::new(RefCell::new(RingProbe::with_capacity(1 << 16)));
    scenario(seed).run_observed(&Corelite::new(CoreliteConfig::default()), probe.clone());
    let jsonl = probe.borrow().to_jsonl();
    assert!(!jsonl.is_empty(), "probe recorded nothing");
    jsonl
}

#[test]
fn probe_streams_are_identical_across_runs_and_executors() {
    let seeds: Vec<u64> = vec![7, 8];
    let serial = run_serial(seeds.clone(), probe_stream);
    let parallel = run_parallel(seeds, probe_stream);
    assert_eq!(
        serial, parallel,
        "probe streams diverged between serial and parallel execution"
    );
    // A repeat run of the same seed reproduces the stream byte for byte,
    // and different seeds genuinely perturb it.
    assert_eq!(serial[0], probe_stream(7));
    assert_ne!(serial[0], serial[1]);
}

#[test]
fn probe_installation_does_not_change_the_simulation() {
    // The epoch-grained hooks only *observe*; a probed run must report
    // exactly what the probe-less run reports. (CSFQ's sampling timer is
    // gated on `probe_enabled` for the same reason.)
    let bare = scenario(99).run(&Corelite::new(CoreliteConfig::default()));
    let probe = Rc::new(RefCell::new(RingProbe::with_capacity(1 << 16)));
    let probed =
        scenario(99).run_observed(&Corelite::new(CoreliteConfig::default()), probe.clone());
    assert_eq!(bare.report.events_processed, probed.report.events_processed);
    assert_eq!(format!("{:?}", bare.report), format!("{:?}", probed.report));
    assert!(!probe.borrow().is_empty());
}

#[test]
fn event_counts_are_plausible() {
    let r = scenario(5).run(&Corelite::new(CoreliteConfig::default()));
    // Every delivered packet takes at least 3 hops of events.
    let delivered: u64 = r.report.flows.iter().map(|f| f.delivered_packets).sum();
    assert!(r.report.events_processed > 3 * delivered);
}
