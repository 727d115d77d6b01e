//! Multi-bottleneck max-min: the classic "parking lot" shape on the
//! paper's core chain. A long flow crosses all three congested links
//! while local flows load each link; Corelite's max-over-cores feedback
//! rule gives the long flow its full weighted max-min share instead of
//! punishing it once per congested hop.
//!
//! The analytic reference comes from `fairness::MaxMinProblem`, so the
//! example doubles as a live demonstration of the water-filling solver.
//!
//! ```text
//! cargo run --release -p scenarios --example parking_lot
//! ```

use corelite::CoreliteConfig;
use fairness::maxmin::MaxMinProblem;
use scenarios::discipline::Corelite;
use scenarios::runner::{Scenario, ScenarioFlow};
use scenarios::topology::{Route, TopologySpec, LINK_CAPACITY_PPS};
use sim_core::time::SimTime;

fn main() {
    // Flow 0: the long flow over C1→C4 (three congested links).
    // Flows 1-6: two local flows per congested link.
    let mut flows = vec![ScenarioFlow {
        transport: Default::default(),
        path: Route::new(0, 3).into(),
        weight: 2,
        min_rate: 0.0,
        activations: vec![(SimTime::ZERO, None)],
    }];
    for link in 0..3 {
        for _ in 0..2 {
            flows.push(ScenarioFlow {
                transport: Default::default(),
                path: Route::new(link, link + 1).into(),
                weight: 2,
                min_rate: 0.0,
                activations: vec![(SimTime::ZERO, None)],
            });
        }
    }
    let scenario = Scenario::on(
        TopologySpec::paper_chain(),
        "parking_lot",
        flows,
        SimTime::from_secs(200),
        99,
    );

    // Analytic weighted max-min via water-filling.
    let mut problem = MaxMinProblem::new();
    let links: Vec<_> = (0..3).map(|_| problem.link(LINK_CAPACITY_PPS)).collect();
    let mut refs = vec![problem.flow(2.0, links.clone())];
    for &link in &links {
        for _ in 0..2 {
            refs.push(problem.flow(2.0, [link]));
        }
    }
    let alloc = problem.solve();

    let result = scenario.run(&Corelite::new(CoreliteConfig::default()));
    println!("parking lot, equal weights: every flow should get C/3 ≈ 166.7 pkt/s\n");
    println!("flow  hops  analytic  measured");
    for (i, r) in refs.iter().enumerate() {
        let measured = result.mean_rate_in(i, SimTime::from_secs(150), SimTime::from_secs(200));
        let hops = scenario.flows[i].path.congested_links();
        println!(
            "  {:2}    {hops}    {:7.1}   {measured:7.1}",
            i + 1,
            alloc.rate(*r)
        );
    }
    println!("\ntotal drops: {}", result.total_drops());
    println!(
        "\nThe long flow crosses three congested links yet keeps (approximately)\n\
         the same rate as the one-hop flows — the edge reacts to the *maximum*\n\
         per-core feedback, so it is throttled by its bottleneck, not by the\n\
         sum of all congested hops (paper §2.2 step 3)."
    );
}
