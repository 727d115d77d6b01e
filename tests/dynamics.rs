//! Integration test: flows joining and leaving redistribute bandwidth
//! gracefully (the paper's §4.1/§4.3 dynamics claims).

use corelite::CoreliteConfig;
use csfq::CsfqConfig;
use scenarios::discipline::{Corelite, Csfq};
use scenarios::runner::{Scenario, ScenarioFlow};
use scenarios::topology::{Route, TopologySpec};
use sim_core::time::SimTime;

/// Two resident flows (weights 1 and 2) plus a weight-3 visitor active
/// during [200 s, 280 s), all over the first congested link. The long
/// lead-in gives the residents time to reach their 167/333 pkt/s shares
/// at the paper's +α-per-epoch linear increase.
fn join_leave(seed: u64) -> Scenario {
    Scenario::on(
        TopologySpec::paper_chain(),
        "join_leave",
        vec![
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
                weight: 2,
                min_rate: 0.0,
                activations: vec![(SimTime::ZERO, None)],
            },
            ScenarioFlow {
                transport: Default::default(),
                path: Route::new(0, 1).into(),
                weight: 3,
                min_rate: 0.0,
                activations: vec![(SimTime::from_secs(200), Some(SimTime::from_secs(280)))],
            },
        ],
        SimTime::from_secs(420),
        seed,
    )
}

fn phase_rates(result: &scenarios::ExperimentResult, from: u64, to: u64) -> Vec<f64> {
    (0..3)
        .map(|i| result.mean_rate_in(i, SimTime::from_secs(from), SimTime::from_secs(to)))
        .collect()
}

#[test]
fn corelite_redistributes_on_join_and_leave() {
    let result = join_leave(21).run(&Corelite::new(CoreliteConfig::default()));

    // Before the visitor: shares 167/333 (weights 1:2 on 500 pkt/s).
    let before = phase_rates(&result, 180, 200);
    assert!((before[0] - 167.0).abs() / 167.0 < 0.3, "before {before:?}");
    assert!((before[1] - 333.0).abs() / 333.0 < 0.3, "before {before:?}");
    assert!(before[2] < 1.0, "visitor inactive: {before:?}");

    // With the visitor: shares 83.3 / 166.7 / 250 (the visitor is still
    // ramping toward its share at +2 pkt/s²; accept a generous band).
    let during = phase_rates(&result, 260, 280);
    assert!((during[0] - 83.3).abs() / 83.3 < 0.35, "during {during:?}");
    assert!(
        (during[1] - 166.7).abs() / 166.7 < 0.35,
        "during {during:?}"
    );
    assert!(
        during[2] > 150.0 && during[2] < 300.0,
        "visitor approaching its 250 pkt/s share: {during:?}"
    );

    // After it leaves: residents climb back toward their old shares.
    let after = phase_rates(&result, 400, 420);
    assert!(
        after[0] > during[0] * 1.2 && after[1] > during[1] * 1.1,
        "residents should reclaim bandwidth: during {during:?} after {after:?}"
    );
    assert!(after[2] < 1.0, "visitor stopped: {after:?}");
}

#[test]
fn resident_flows_fall_back_quickly_on_join() {
    // §4.1: "when flows start, other flows fall back almost
    // instantaneously". Within ~15 s of the join, the residents must have
    // given back a substantial part of their pre-join rates.
    let result = join_leave(22).run(&Corelite::new(CoreliteConfig::default()));
    let pre = phase_rates(&result, 180, 200);
    let shortly_after = phase_rates(&result, 205, 215);
    assert!(
        shortly_after[1] < pre[1] * 0.85,
        "weight-2 resident should fall back quickly: pre {pre:?}, after {shortly_after:?}"
    );
}

#[test]
fn csfq_also_redistributes_but_with_losses() {
    let result = join_leave(23).run(&Csfq::new(CsfqConfig::default()));
    let during = phase_rates(&result, 260, 280);
    assert!(
        during[2] > 150.0 && during[2] < 320.0,
        "visitor approaching its share under CSFQ: {during:?}"
    );
    assert!(
        result.total_drops() > 0,
        "CSFQ redistributes through packet losses"
    );
}

#[test]
fn restart_gets_a_fresh_slow_start() {
    // A restarting flow is a new arrival: it must ramp from the initial
    // rate again rather than resume its old allocation instantly.
    let mut scenario = join_leave(24);
    scenario.flows[2].activations = vec![
        (SimTime::from_secs(200), Some(SimTime::from_secs(240))),
        (SimTime::from_secs(250), None),
    ];
    let result = scenario.run(&Corelite::new(CoreliteConfig::default()));
    let series = result.allotted_rate(2);
    let just_restarted = series
        .value_at(SimTime::from_secs_f64(250.6))
        .expect("series covers restart");
    assert!(
        just_restarted < 10.0,
        "restart should begin near the initial rate, got {just_restarted}"
    );
    let settled = result.mean_rate_in(2, SimTime::from_secs(390), SimTime::from_secs(420));
    assert!(
        (settled - 250.0).abs() / 250.0 < 0.3,
        "restarted flow reconverges: {settled}"
    );
}

#[test]
fn window_agent_is_an_alternative_adaptation_scheme() {
    // §4.4 lists "different adaptation schemes at the edge router" as
    // ongoing work; the TCP-like window agent is the natural candidate.
    // It should still: converge, keep losses minimal, give more to
    // higher-weight flows, and keep the link busy. (It is weight-
    // *influenced*, not exactly weight-proportional: throttle frequency
    // rather than amplitude tracks the normalized rate.)
    use corelite::config::AdaptationScheme;
    let cfg = CoreliteConfig {
        adaptation: AdaptationScheme::WindowAimd,
        ..CoreliteConfig::default()
    };
    let result = join_leave(25).run(&Corelite::new(cfg));
    let rates = phase_rates(&result, 160, 200); // flows 0 (w1) and 1 (w2)
    assert!(
        rates[1] > rates[0] * 1.2,
        "weight 2 should clearly beat weight 1: {rates:?}"
    );
    let total = rates[0] + rates[1];
    assert!(
        total > 350.0,
        "window agents should keep the 500 pkt/s link busy: {total}"
    );
    assert!(
        result.total_drops() < 200,
        "window agents over Corelite stay mostly loss-free: {}",
        result.total_drops()
    );
}
