//! Integration test: minimum rate contracts (the paper's "per-flow rate
//! contracts", §4/§6). A contracted flow is never throttled below its
//! floor; markers are injected only for its out-of-profile traffic, so
//! the surplus capacity is shared by weight among everyone's excess
//! (allocation = floor + weighted share of the surplus).

use corelite::CoreliteConfig;
use scenarios::discipline::Corelite;
use scenarios::runner::{Scenario, ScenarioFlow};
use scenarios::topology::{Route, TopologySpec};
use sim_core::time::SimTime;

fn contract_scenario(contract: f64, seed: u64) -> Scenario {
    Scenario::on(
        TopologySpec::paper_chain(),
        "contracts",
        vec![
            // The contracted flow (weight 1).
            ScenarioFlow {
                transport: Default::default(),
                path: Route::new(0, 1).into(),
                weight: 1,
                min_rate: contract,
                activations: vec![(SimTime::ZERO, None)],
            },
            // Three best-effort weight-1 flows.
            ScenarioFlow {
                transport: Default::default(),
                path: Route::new(0, 1).into(),
                weight: 1,
                min_rate: 0.0,
                activations: vec![(SimTime::ZERO, None)],
            },
            ScenarioFlow {
                transport: Default::default(),
                path: Route::new(0, 1).into(),
                weight: 1,
                min_rate: 0.0,
                activations: vec![(SimTime::ZERO, None)],
            },
            ScenarioFlow {
                transport: Default::default(),
                path: Route::new(0, 1).into(),
                weight: 1,
                min_rate: 0.0,
                activations: vec![(SimTime::ZERO, None)],
            },
        ],
        SimTime::from_secs(120),
        seed,
    )
}

fn steady(result: &scenarios::ExperimentResult, i: usize) -> f64 {
    result.mean_rate_in(i, SimTime::from_secs(80), SimTime::from_secs(120))
}

#[test]
fn binding_contract_is_honoured() {
    // The 300 pkt/s contract is reserved; the 200 pkt/s surplus is split
    // four ways (floor + share): contracted = 350, best-effort = 50.
    let scenario = contract_scenario(300.0, 41);
    let expected = scenario.expected_rates_at(SimTime::from_secs(100));
    assert!((expected[0] - 350.0).abs() < 1e-6, "{expected:?}");
    assert!((expected[1] - 50.0).abs() < 1e-6, "{expected:?}");

    let result = scenario.run(&Corelite::new(CoreliteConfig::default()));
    let contracted = steady(&result, 0);
    assert!(
        contracted >= 300.0 * 0.99,
        "contracted flow got {contracted}, contract is 300"
    );
    assert!(
        (contracted - 350.0).abs() / 350.0 < 0.15,
        "contracted flow got {contracted}, expected ≈350"
    );
    for i in 1..4 {
        let r = steady(&result, i);
        assert!(
            (r - 50.0).abs() / 50.0 < 0.35,
            "best-effort flow {i} got {r}, expected ≈50"
        );
    }
}

#[test]
fn contract_floor_holds_from_the_first_instant() {
    // Unlike best-effort flows, a contracted flow never slow-starts below
    // its admitted rate: the allotted rate is ≥ the contract at every
    // recorded instant.
    let scenario = contract_scenario(200.0, 42);
    let result = scenario.run(&Corelite::new(CoreliteConfig::default()));
    for (t, rate) in result.allotted_rate(0).iter() {
        assert!(
            rate >= 200.0 - 1e-9,
            "allotted rate {rate} below contract at {t}"
        );
    }
}

#[test]
fn small_contract_adds_its_reservation() {
    // floor + share: a 50 pkt/s contract is reserved off the top, then
    // the 450 pkt/s surplus splits 112.5 each: contracted 162.5, others
    // 112.5.
    let scenario = contract_scenario(50.0, 43);
    let expected = scenario.expected_rates_at(SimTime::from_secs(100));
    assert!((expected[0] - 162.5).abs() < 1e-6, "{expected:?}");
    assert!((expected[1] - 112.5).abs() < 1e-6, "{expected:?}");
    let result = scenario.run(&Corelite::new(CoreliteConfig::default()));
    let contracted = steady(&result, 0);
    let others: f64 = (1..4).map(|i| steady(&result, i)).sum::<f64>() / 3.0;
    assert!(
        contracted > others + 25.0,
        "contracted flow should keep its reservation edge: {contracted} vs {others}"
    );
}

#[test]
fn contract_survives_a_congestion_storm() {
    // Ten extra best-effort flows join mid-run; the contracted flow must
    // stay pinned at its floor throughout.
    let mut scenario = contract_scenario(250.0, 44);
    for _ in 0..10 {
        scenario.flows.push(ScenarioFlow {
            transport: Default::default(),
            path: Route::new(0, 1).into(),
            weight: 2,
            min_rate: 0.0,
            activations: vec![(SimTime::from_secs(40), None)],
        });
    }
    let result = scenario.run(&Corelite::new(CoreliteConfig::default()));
    let storm = result.mean_rate_in(0, SimTime::from_secs(80), SimTime::from_secs(120));
    assert!(
        storm >= 250.0 * 0.99,
        "contract violated during congestion storm: {storm}"
    );
    // The storm flows still make progress on the residual capacity.
    let total_best_effort: f64 = (4..14)
        .map(|i| result.mean_rate_in(i, SimTime::from_secs(80), SimTime::from_secs(120)))
        .sum();
    assert!(
        total_best_effort > 100.0,
        "best-effort flows starved: {total_best_effort}"
    );
}
