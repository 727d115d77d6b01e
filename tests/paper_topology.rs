//! Integration test: the paper's Figure-2 topology under network
//! dynamics (a compressed Figure-3 scenario) reproduces the analytic
//! weighted max-min shares with no packet loss.

use corelite::CoreliteConfig;
use scenarios::discipline::Corelite;
use scenarios::runner::{Scenario, ScenarioFlow};
use scenarios::topology::{Route, TopologySpec};
use sim_core::time::SimTime;

/// A time-compressed §4.1 scenario: flows 1, 9, 10, 11, 16 live during
/// [60 s, 120 s); all others during [0 s, 180 s).
fn compressed_fig3(seed: u64) -> Scenario {
    let late = [1, 9, 10, 11, 16];
    let flows = (1..=20)
        .map(|i| ScenarioFlow {
            transport: Default::default(),
            path: Route::of_paper_flow(i).into(),
            weight: Route::paper_weight(i),
            min_rate: 0.0,
            activations: if late.contains(&i) {
                vec![(SimTime::from_secs(60), Some(SimTime::from_secs(120)))]
            } else {
                vec![(SimTime::ZERO, Some(SimTime::from_secs(180)))]
            },
        })
        .collect();
    Scenario::on(
        TopologySpec::paper_chain(),
        "compressed_fig3",
        flows,
        SimTime::from_secs(200),
        seed,
    )
}

#[test]
fn corelite_tracks_weighted_maxmin_through_dynamics() {
    let scenario = compressed_fig3(7);
    let result = scenario.run(&Corelite::new(CoreliteConfig::default()));

    // Phase 1 (15 flows): 33.33 pkt/s per unit weight.
    // Phase 2 (20 flows): 25 pkt/s per unit weight.
    // Phase 3 (15 flows): back to 33.33.
    let windows = [
        (SimTime::from_secs(35), SimTime::from_secs(60)),
        (SimTime::from_secs(90), SimTime::from_secs(120)),
        (SimTime::from_secs(150), SimTime::from_secs(180)),
    ];
    for (from, to) in windows {
        let mid = SimTime::from_secs_f64((from.as_secs_f64() + to.as_secs_f64()) / 2.0);
        let expected = scenario.expected_rates_at(mid);
        for (i, &share) in expected.iter().enumerate() {
            let measured = result.mean_rate_in(i, from, to);
            if share == 0.0 {
                assert!(
                    measured < 1.0,
                    "flow {} should be idle in [{from}, {to}), measured {measured}",
                    i + 1
                );
            } else {
                let err = (measured - share).abs() / share;
                assert!(
                    err < 0.25,
                    "flow {} in [{from}, {to}): measured {measured:.1}, share {share:.1} (err {:.0}%)",
                    i + 1,
                    err * 100.0
                );
            }
        }
    }
}

#[test]
fn corelite_is_loss_free_on_the_paper_topology() {
    let scenario = compressed_fig3(13);
    let result = scenario.run(&Corelite::new(CoreliteConfig::default()));
    assert_eq!(
        result.total_drops(),
        0,
        "Corelite must not drop packets in the §4.1 scenario"
    );
    // Congested links are used efficiently despite loss-free operation.
    // Links 0..3 are the core chain C1-C2, C2-C3, C3-C4.
    for link in &result.report.links[0..3] {
        assert!(
            link.utilization > 0.75,
            "congested link {} utilization {:.2}",
            link.id,
            link.utilization
        );
    }
}

#[test]
fn corelite_transient_loss_is_negligible_across_seeds() {
    // The loss-free steady state is the paper's claim; the t=60 s join of
    // five extra flows can cost a handful of packets on unlucky seeds
    // before the slow-start probing backs off. Keep that transient
    // bounded to a vanishing fraction of the ~250k delivered packets.
    for seed in [1u64, 2, 11, 17] {
        let result = compressed_fig3(seed).run(&Corelite::new(CoreliteConfig::default()));
        let delivered: u64 = result
            .report
            .flows
            .iter()
            .map(|f| f.delivered_packets)
            .sum();
        let drops = result.total_drops();
        assert!(
            (drops as f64) < (delivered as f64) * 1e-3,
            "seed {seed}: {drops} drops against {delivered} delivered"
        );
    }
}

#[test]
fn cumulative_service_groups_by_weight_not_by_path_length() {
    // Figure 4's claim: total service depends on the weight only, not on
    // RTT or the number of congested links crossed. Compare flows of
    // weight 2 crossing 1, 2 and 3 congested links over the full-load
    // window.
    let scenario = compressed_fig3(13);
    let result = scenario.run(&Corelite::new(CoreliteConfig::default()));
    let service = |i: usize| {
        let c = &result.report.flows[i].cumulative;
        c.value_at(SimTime::from_secs(55)).unwrap_or(0.0)
            - c.value_at(SimTime::from_secs(25)).unwrap_or(0.0)
    };
    let one_hop = service(1); // flow 2: C1-C2 only
    let two_hop = service(6); // flow 7: C1-C3
    let mid_two_hop = service(13); // flow 14: C2-C4
    for (name, s) in [("two-hop", two_hop), ("mid two-hop", mid_two_hop)] {
        let ratio = s / one_hop;
        assert!(
            (ratio - 1.0).abs() < 0.25,
            "{name} flow served {s} vs one-hop {one_hop} (ratio {ratio:.2})"
        );
    }
}
