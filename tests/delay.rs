//! Integration test: end-to-end delay statistics are physically
//! consistent — bounded below by propagation and above by the worst-case
//! queueing along the path — and Corelite's incipient-congestion target
//! keeps typical queueing well below the drop-tail bound.

use corelite::CoreliteConfig;
use csfq::CsfqConfig;
use scenarios::discipline::{Corelite, Csfq, Discipline};
use scenarios::runner::{Scenario, ScenarioFlow};
use scenarios::topology::{Route, TopologySpec};
use sim_core::time::SimTime;

fn scenario(seed: u64) -> Scenario {
    Scenario::on(
        TopologySpec::paper_chain(),
        "delay",
        (0..6)
            .map(|i| ScenarioFlow {
                transport: Default::default(),
                path: Route::new(0, 1).into(),
                weight: i as u32 % 3 + 1,
                min_rate: 0.0,
                activations: vec![(SimTime::ZERO, None)],
            })
            .collect(),
        SimTime::from_secs(120),
        seed,
    )
}

/// Path: ingress → C1 → C2 → egress = 3 links of 40 ms propagation plus
/// serialization (2 ms per hop at 1 KB / 4 Mbps).
const PROPAGATION_S: f64 = 3.0 * 0.040;
/// Worst case adds a full 40-packet queue at each of 3 hops: 40 × 2 ms.
const WORST_QUEUEING_S: f64 = 3.0 * 40.0 * 0.002;

#[test]
fn delay_quantiles_are_physically_bounded() {
    let disciplines: Vec<Box<dyn Discipline>> = vec![
        Box::new(Corelite::new(CoreliteConfig::default())),
        Box::new(Csfq::new(CsfqConfig::default())),
    ];
    for discipline in disciplines {
        let result = scenario(71).run(discipline.as_ref());
        for (i, f) in result.report.flows.iter().enumerate() {
            let p01 = f.delay_quantile(0.01).expect("packets delivered");
            let p50 = f.delay_quantile(0.5).unwrap();
            let p99 = f.delay_quantile(0.99).unwrap();
            assert!(
                p01 >= PROPAGATION_S * 0.99,
                "{}, flow {i}: p01 {p01} below light-speed floor",
                result.discipline_name
            );
            assert!(
                p50 <= p99,
                "{}, flow {i}: p50 {p50} > p99 {p99}",
                result.discipline_name
            );
            assert!(
                p99 <= PROPAGATION_S + WORST_QUEUEING_S + 0.05,
                "{}, flow {i}: p99 {p99} above the drop-tail bound",
                result.discipline_name
            );
            assert!(
                f.mean_delay_secs >= PROPAGATION_S * 0.99
                    && f.mean_delay_secs <= PROPAGATION_S + WORST_QUEUEING_S,
                "{}, flow {i}: mean {} out of range",
                result.discipline_name,
                f.mean_delay_secs
            );
        }
    }
}

#[test]
fn corelite_keeps_typical_queueing_near_the_threshold() {
    // q_thresh = 8 packets of 40: typical (median) queueing should sit
    // nearer 8×2 ms per congested hop than the 80 ms worst case.
    let result = scenario(72).run(&Corelite::new(CoreliteConfig::default()));
    for (i, f) in result.report.flows.iter().enumerate() {
        let p50 = f.delay_quantile(0.5).unwrap();
        let queueing = p50 - PROPAGATION_S - 3.0 * 0.002;
        assert!(
            queueing < 0.06,
            "flow {i}: median queueing {queueing:.3}s should stay well below the 80 ms cap"
        );
    }
}

#[test]
fn idle_flow_reports_no_delay_quantiles() {
    let mut s = scenario(73);
    // Flow 5 never activates within the horizon.
    s.flows[5].activations = vec![(SimTime::from_secs(500), None)];
    let result = s.run(&Corelite::new(CoreliteConfig::default()));
    assert_eq!(result.report.flows[5].delay_quantile(0.5), None);
    assert_eq!(result.report.flows[5].delivered_packets, 0);
}
