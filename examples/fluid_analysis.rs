//! The paper's convergence *analysis*, executable: compare the fluid
//! model's prediction of the Corelite control loop against the packet
//! simulator on the same flow population, then use the fluid model to
//! answer a what-if (adding a contracted flow) in microseconds.
//!
//! ```text
//! cargo run --release -p scenarios --example fluid_analysis
//! ```

use corelite::{CoreliteConfig, FluidModel};
use scenarios::discipline::Corelite;
use scenarios::runner::{Scenario, ScenarioFlow};
use scenarios::topology::{Route, TopologySpec};
use sim_core::time::SimTime;

fn main() {
    let weights = [1u32, 2, 3];

    // Fluid model: thousands of control epochs in microseconds.
    let mut fluid = FluidModel::new(CoreliteConfig::default(), 500.0);
    for &w in &weights {
        fluid.add_flow(w as f64, 0.0, 1.0);
    }
    fluid.run(8_000);
    let fluid_rates = fluid.rates();

    // Packet simulator: the ground truth, at packet granularity.
    let scenario = Scenario::on(
        TopologySpec::paper_chain(),
        "fluid_vs_packets",
        weights
            .iter()
            .map(|&w| ScenarioFlow {
                transport: Default::default(),
                path: Route::new(0, 1).into(),
                weight: w,
                min_rate: 0.0,
                activations: vec![(SimTime::ZERO, None)],
            })
            .collect(),
        SimTime::from_secs(260),
        3,
    );
    let result = scenario.run(&Corelite::new(CoreliteConfig::default()));

    println!("flow  weight  fluid prediction  packet simulation  analytic share");
    let expect = fluid.expected_rates();
    for (i, &w) in weights.iter().enumerate() {
        let measured = result.mean_rate_in(i, SimTime::from_secs(200), SimTime::from_secs(260));
        println!(
            "  {:2}    {w}        {:7.1}            {measured:7.1}         {:7.1}",
            i + 1,
            fluid_rates[i],
            expect[i]
        );
    }

    // What-if, answered without running packets: a customer wants a
    // 200 pkt/s contract — what happens to everyone else?
    let mut what_if = FluidModel::new(CoreliteConfig::default(), 500.0);
    for &w in &weights {
        what_if.add_flow(w as f64, 0.0, 1.0);
    }
    what_if.add_flow(1.0, 200.0, 200.0);
    what_if.run(8_000);
    println!("\nwhat-if: admit a weight-1 flow with a 200 pkt/s contract:");
    for (i, r) in what_if.rates().iter().enumerate() {
        println!("  flow {}: {r:6.1} pkt/s", i + 1);
    }
    println!(
        "\nThe fluid recursion is the paper's §2.2 convergence argument made\n\
         executable; EXPERIMENTS.md shows it agrees with the packet model."
    );
}
