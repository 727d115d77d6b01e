//! Randomized end-to-end property test: for *any* small population of
//! flows on the paper topology, Corelite's steady-state allocation tracks
//! the analytic weighted max-min solution and losses stay negligible.
//!
//! This is the whole-system analogue of the per-module property tests:
//! the `check` harness draws the flow population (routes, weights,
//! stagger), the simulator runs it, and the water-filling solver judges
//! the outcome.

use corelite::CoreliteConfig;
use scenarios::runner::{Scenario, ScenarioFlow};
use scenarios::topology::{Route, TopologySpec};
use sim_core::check;
use sim_core::time::SimTime;

#[test]
fn corelite_tracks_maxmin_for_random_populations() {
    check::cases(8, 0x5A_01, |g| {
        let flows: Vec<ScenarioFlow> = (0..g.usize_in(2, 7))
            .map(|_| {
                let first_draw = g.usize_in(0, 3);
                let span = g.usize_in(1, 3);
                let weight = g.u64_in(1, 4) as u32;
                let start = g.u64_in(0, 5);
                let last = (first_draw + span).min(Route::CORE_COUNT - 1);
                let first = first_draw.min(last - 1);
                ScenarioFlow {
                    transport: Default::default(),
                    path: Route::new(first, last).into(),
                    weight,
                    min_rate: 0.0,
                    activations: vec![(SimTime::from_secs(start), None)],
                }
            })
            .collect();
        let scenario = Scenario::on(
            TopologySpec::paper_chain(),
            "randomized",
            flows,
            SimTime::from_secs(220),
            1234,
        );
        let result = scenario.run(&scenarios::discipline::Corelite::new(
            CoreliteConfig::default(),
        ));

        let from = SimTime::from_secs(180);
        let to = scenario.horizon;
        let expected = scenario.expected_rates_at(SimTime::from_secs(200));
        let mut aggregate_err = 0.0;
        for (i, &share) in expected.iter().enumerate() {
            let measured = result.mean_rate_in(i, from, to);
            assert!(share > 0.0, "every drawn flow is active");
            let err = (measured - share).abs() / share;
            aggregate_err += err;
            // Individual flows may sit off their share when the analytic
            // optimum depends on second-order effects; bound each loosely
            // and the population tightly.
            assert!(
                err < 0.45,
                "flow {i}: measured {measured:.1} vs share {share:.1} ({:.0}%)",
                err * 100.0
            );
        }
        let mean_err = aggregate_err / expected.len() as f64;
        assert!(
            mean_err < 0.25,
            "population mean error {:.0}%",
            mean_err * 100.0
        );

        // Loss-free up to slow-start transients.
        let delivered: u64 = result
            .report
            .flows
            .iter()
            .map(|f| f.delivered_packets)
            .sum();
        let drops = result.total_drops();
        assert!(
            (drops as f64) < 0.005 * delivered as f64 + 50.0,
            "drops {drops} of {delivered} delivered"
        );
    });
}
