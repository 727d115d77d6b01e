//! Integration test: both disciplines and both Corelite marker selectors
//! allocate a shared bottleneck in proportion to the rate weights.

use corelite::{CoreliteConfig, SelectorKind};
use csfq::CsfqConfig;
use fairness::metrics::{jain_index, normalized_spread};
use scenarios::discipline::{Corelite, Csfq};
use scenarios::runner::{Scenario, ScenarioFlow};
use scenarios::topology::{Route, TopologySpec};
use sim_core::time::SimTime;

/// Six flows with weights 1, 1, 2, 2, 3, 3 over the first congested link
/// (total weight 12 ⇒ 41.67 pkt/s per unit weight).
fn six_flows(seed: u64) -> Scenario {
    let weights = [1u32, 1, 2, 2, 3, 3];
    Scenario::on(
        TopologySpec::paper_chain(),
        "six_flows",
        weights
            .into_iter()
            .map(|w| ScenarioFlow {
                transport: Default::default(),
                path: Route::new(0, 1).into(),
                weight: w,
                min_rate: 0.0,
                activations: vec![(SimTime::ZERO, None)],
            })
            .collect(),
        SimTime::from_secs(120),
        seed,
    )
}

fn steady_rates(result: &scenarios::ExperimentResult) -> Vec<f64> {
    (0..result.scenario.flows.len())
        .map(|i| result.mean_rate_in(i, SimTime::from_secs(80), SimTime::from_secs(120)))
        .collect()
}

fn assert_weighted_fair(result: &scenarios::ExperimentResult, label: &str) {
    let rates = steady_rates(result);
    let weights: Vec<f64> = result
        .scenario
        .flows
        .iter()
        .map(|f| f.weight as f64)
        .collect();
    let jain = jain_index(&rates, &weights);
    assert!(jain > 0.98, "{label}: Jain {jain:.4}, rates {rates:?}");
    let spread = normalized_spread(&rates, &weights);
    assert!(
        spread < 1.4,
        "{label}: normalized spread {spread:.2}, rates {rates:?}"
    );
    // The link is actually being used.
    let total: f64 = rates.iter().sum();
    assert!(total > 400.0, "{label}: aggregate {total:.0} of 500 pkt/s");
}

#[test]
fn corelite_stateless_selector_is_weighted_fair() {
    let result = six_flows(1).run(&Corelite::new(CoreliteConfig::default()));
    assert_weighted_fair(&result, "corelite/stateless");
    assert_eq!(result.total_drops(), 0, "corelite should be loss-free here");
}

#[test]
fn corelite_cache_selector_is_weighted_fair() {
    let cfg = CoreliteConfig::default().with_selector(SelectorKind::Cache { capacity: 256 });
    let result = six_flows(2).run(&Corelite::new(cfg));
    assert_weighted_fair(&result, "corelite/cache");
}

#[test]
fn csfq_is_weighted_fair() {
    let result = six_flows(3).run(&Csfq::new(CsfqConfig::default()));
    assert_weighted_fair(&result, "csfq");
}

#[test]
fn corelite_drops_far_less_than_csfq() {
    // The paper's headline §4.4 comparison on equal terms.
    let corelite = six_flows(4).run(&Corelite::new(CoreliteConfig::default()));
    let csfq = six_flows(4).run(&Csfq::new(CsfqConfig::default()));
    assert!(
        csfq.total_drops() > 10 * corelite.total_drops().max(1),
        "corelite {} drops vs csfq {}",
        corelite.total_drops(),
        csfq.total_drops()
    );
}

#[test]
fn below_share_flows_receive_no_corelite_feedback() {
    // §3.2: flows transmitting at or below their weighted fair share must
    // not be throttled. Give flow 0 a tiny activation gap so it stays in
    // slow-start ramp far below its share while others saturate.
    let mut scenario = six_flows(5);
    // Flow 0 starts late: while it ramps from 1 pkt/s it is far below its
    // 41 pkt/s share, so it must climb monotonically (no feedback).
    scenario.flows[0].activations = vec![(SimTime::from_secs(60), None)];
    let result = scenario.run(&Corelite::new(CoreliteConfig::default()));
    let series = result.allotted_rate(0);
    let early: Vec<f64> = series
        .iter()
        .filter(|(t, _)| *t >= SimTime::from_secs(60) && *t < SimTime::from_secs(64))
        .map(|(_, v)| v)
        .collect();
    assert!(
        early.windows(2).all(|w| w[1] >= w[0]),
        "a far-below-share flow should ramp monotonically: {early:?}"
    );
}

#[test]
fn congestion_module_is_replaceable() {
    // §3.1: "the congestion estimation module can be replaced with no
    // impact on the rest of the Corelite mechanisms" — the RED-style and
    // DECbit-style detectors must still produce a weighted-fair,
    // low-loss allocation.
    use corelite::DetectorKind;
    for (name, detector) in [
        (
            "red",
            DetectorKind::Red {
                wq: 0.25,
                min_thresh: 5.0,
                max_thresh: 15.0,
                max_p: 0.2,
            },
        ),
        (
            "decbit",
            DetectorKind::Decbit {
                threshold: 2.0,
                gain: 1.0,
            },
        ),
    ] {
        let cfg = CoreliteConfig {
            detector,
            ..CoreliteConfig::default()
        };
        let result = six_flows(6).run(&Corelite::new(cfg));
        assert_weighted_fair(&result, name);
        assert!(
            result.total_drops() < 100,
            "{name}: drops {}",
            result.total_drops()
        );
    }
}
