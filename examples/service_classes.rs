//! Service classes: the deployment scenario from the paper's
//! introduction. A network administrator offers three rate classes —
//! bronze (weight 1), silver (weight 2), gold (weight 4) — and customers
//! pick a class. Corelite then delivers end-to-end rates proportional to
//! the class weights, re-dividing bandwidth automatically as customers
//! come and go, with zero per-flow state in the backbone.
//!
//! ```text
//! cargo run --release -p scenarios --example service_classes
//! ```

use corelite::CoreliteConfig;
use scenarios::discipline::Corelite;
use scenarios::runner::{Scenario, ScenarioFlow};
use scenarios::topology::{Route, TopologySpec};
use sim_core::time::SimTime;

#[derive(Clone, Copy)]
enum Class {
    Bronze,
    Silver,
    Gold,
}

impl Class {
    fn weight(self) -> u32 {
        match self {
            Class::Bronze => 1,
            Class::Silver => 2,
            Class::Gold => 4,
        }
    }
    fn name(self) -> &'static str {
        match self {
            Class::Bronze => "bronze",
            Class::Silver => "silver",
            Class::Gold => "gold",
        }
    }
}

fn main() {
    use Class::*;
    // Eight customers on the backbone's first congested link. The two
    // gold customers join halfway through the day.
    let customers: Vec<(Class, u64)> = vec![
        (Bronze, 0),
        (Bronze, 0),
        (Bronze, 0),
        (Silver, 0),
        (Silver, 0),
        (Silver, 0),
        (Gold, 150),
        (Gold, 150),
    ];
    let scenario = Scenario::on(
        TopologySpec::paper_chain(),
        "service_classes",
        customers
            .iter()
            .map(|&(class, start)| ScenarioFlow {
                transport: Default::default(),
                path: Route::new(0, 1).into(),
                weight: class.weight(),
                min_rate: 0.0,
                activations: vec![(SimTime::from_secs(start), None)],
            })
            .collect(),
        SimTime::from_secs(300),
        7,
    );
    let result = scenario.run(&Corelite::new(CoreliteConfig::default()));

    let phase = |label: &str, from: u64, to: u64| {
        println!("\n{label} (t ∈ [{from}s, {to}s)):");
        let expected = scenario.expected_rates_at(SimTime::from_secs((from + to) / 2));
        for (i, &(class, _)) in customers.iter().enumerate() {
            let measured = result.mean_rate_in(i, SimTime::from_secs(from), SimTime::from_secs(to));
            println!(
                "  customer {} ({:6}, w={}): {measured:6.1} pkt/s  (weighted fair share {:5.1})",
                i + 1,
                class.name(),
                class.weight(),
                expected[i]
            );
        }
    };

    phase("Before the gold customers arrive", 100, 150);
    phase("After the gold customers arrive", 250, 300);
    println!(
        "\ntotal packet drops in the backbone: {}",
        result.total_drops()
    );
    println!("(no core router kept any per-flow state)");
}
