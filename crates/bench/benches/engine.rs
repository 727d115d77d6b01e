//! End-to-end simulator throughput benchmarks: the flow-count scaling
//! rows and the paper-chain, fat-tree and churn scenarios the CI bench
//! smoke gate runs.

use bench::{compress, run_checked, Runner};
use sim_core::time::{SimDuration, SimTime};

fn bench_simulator_scaling(runner: &mut Runner) {
    use corelite::CoreliteConfig;
    use scenarios::discipline::Corelite;
    use scenarios::runner::{Scenario, ScenarioFlow};
    use scenarios::topology::Route;

    for &flows in &[5usize, 20, 50] {
        let scenario = Scenario::paper(
            "scaling",
            (0..flows)
                .map(|i| ScenarioFlow {
                    transport: Default::default(),
                    path: Route::new(i % 3, i % 3 + 1).into(),
                    weight: (i % 3 + 1) as u32,
                    min_rate: 0.0,
                    activations: vec![(SimTime::ZERO, None)],
                })
                .collect(),
            SimTime::from_secs(10),
            1,
        );
        let discipline = Corelite::new(CoreliteConfig::default());
        runner.bench_events(
            &format!("simulator_scaling/corelite_{flows}_flows_10s"),
            || {
                let result = scenario.run(&discipline);
                result.report.events_processed
            },
        );
    }
}

/// End-to-end throughput on the paper's §4.2 chain topology, compressed
/// to 20 simulated seconds. This is the workload the CI bench smoke step
/// gates against `BENCH_4.json`.
fn bench_paper_chain(runner: &mut Runner) {
    use scenarios::fig3_4;
    use scenarios::PaperFigure;

    let scenario = compress(fig3_4(1), 20);
    let discipline = PaperFigure::Fig3.discipline();
    runner.bench_events("engine/paper_chain_20s", || {
        run_checked(&scenario, discipline.as_ref())
            .report
            .events_processed
    });
}

/// End-to-end throughput on a k = 8 two-tier fat-tree (8 leaves × 4
/// spines, 16 cross flows), 20 simulated seconds — the wide-fan-out
/// counterpart to the chain workload above. The scenario is spelled out
/// from public primitives (rather than `Scenario::fat_tree_k_mix`, which
/// it mirrors) so this harness file also compiles at the baseline commit
/// when capturing the `before` side of a `BENCH_*.json` (EXPERIMENTS.md).
fn bench_fat_tree(runner: &mut Runner) {
    use corelite::CoreliteConfig;
    use scenarios::discipline::Corelite;
    use scenarios::runner::{Scenario, ScenarioFlow};
    use scenarios::topology::{CorePath, TopologySpec};

    const LEAVES: usize = 8;
    const SPINES: usize = 4;
    let topo = TopologySpec::fat_tree_k(LEAVES, SPINES);
    let flows = (0..2 * LEAVES)
        .map(|i| {
            let src = i % LEAVES;
            let dst = (src + 1 + i / LEAVES) % LEAVES;
            ScenarioFlow::best_effort(
                CorePath::new(vec![src, LEAVES + i % SPINES, dst]),
                (i % 3 + 1) as u32,
                SimTime::ZERO,
            )
        })
        .collect();
    let scenario = Scenario::on(topo, "fat_tree_k_mix", flows, SimTime::from_secs(20), 1);
    let discipline = Corelite::new(CoreliteConfig::default());
    runner.bench_events("engine/fat_tree_k8_20s", || {
        let result = scenario.run(&discipline);
        result.report.events_processed
    });
}

/// The sharded-engine headline workload: a k = 16 two-tier fat-tree
/// (16 leaves × 8 spines, 32 long-lived cross flows) carrying a
/// 100 000-arrival churn process, serial and at 2/4/8 shards. The
/// sharded rows report the same merged event total as the serial row
/// (the identity suite pins byte-equality) plus the per-shard event
/// split, so the trajectory records both aggregate throughput and how
/// evenly the delay-cut partitioner spread the load. Speedup claims
/// only mean something on multi-core capture machines; EXPERIMENTS.md
/// §BENCH_9 records the protocol and the single-core analysis.
fn bench_fat_tree_k16(runner: &mut Runner) {
    use corelite::CoreliteConfig;
    use scenarios::discipline::Corelite;
    use scenarios::runner::Scenario;

    let scenario = Scenario::fat_tree_k16_100k(SimTime::from_secs(20), 1);
    let discipline = Corelite::new(CoreliteConfig::default());
    runner.bench_events("engine/fat_tree_k16_100k", || {
        let result = scenario.run(&discipline);
        result.report.events_processed
    });
    for shards in [2usize, 4, 8] {
        runner.bench_events_sharded(
            &format!("engine/fat_tree_k16_100k_sharded{shards}"),
            shards as u64,
            || {
                let (result, per_shard) = scenario.run_sharded(&discipline, shards);
                (result.report.events_processed, per_shard)
            },
        );
    }
}

/// Flow-lifecycle throughput: 100 k Poisson arrivals with Pareto
/// lifetimes through the recycled flow table. ForwardLogic ingresses
/// emit nothing, so every event is churn machinery — arrival scheduling,
/// slot allocation and recycling, lifecycle timers, linger retirement —
/// the same shape as the million-arrival acceptance test in
/// `netsim/tests/churn.rs`, scaled to a bench iteration.
fn bench_churn(runner: &mut Runner) {
    use netsim::link::LinkSpec;
    use netsim::logic::ForwardLogic;
    use netsim::topology::TopologyBuilder;
    use netsim::ChurnSpec;

    runner.bench_events("engine/churn_100k", || {
        let mut b = TopologyBuilder::new(7);
        let e = b.node("ingress", |_| Box::new(ForwardLogic));
        let x = b.node("egress", |_| Box::new(ForwardLogic));
        b.link(
            e,
            x,
            LinkSpec::new(40_000_000, SimDuration::from_millis(5), 400),
        );
        // The cap ends the process: exactly 100 k arrivals (~5 s at
        // 20 k/s), then the horizon covers the Pareto tail's drain.
        b.churn(
            ChurnSpec::new(20_000.0, 10.0, 1_000.0)
                .route(vec![e, x])
                .window(SimTime::ZERO, SimTime::from_secs(20))
                .linger(SimDuration::from_millis(100))
                .max_arrivals(100_000),
        );
        let end = SimTime::from_secs(10);
        let mut net = b.build();
        net.run_until(end);
        net.into_report(end).events_processed
    });
}

fn main() {
    let mut runner = Runner::from_args("engine");
    bench_simulator_scaling(&mut runner);
    bench_paper_chain(&mut runner);
    bench_fat_tree(&mut runner);
    bench_fat_tree_k16(&mut runner);
    bench_churn(&mut runner);
    std::process::exit(runner.finish());
}
