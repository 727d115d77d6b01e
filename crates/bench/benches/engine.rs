//! Microbenchmarks of the discrete-event substrate: event queue, RNG
//! streams, the time-weighted queue average, the exponential rate
//! estimator, and end-to-end simulator throughput (the paper-chain
//! scenario used by the CI bench smoke gate).

use bench::{black_box, compress, run_checked, Runner};
use sim_core::event::EventQueue;
use sim_core::rng::DetRng;
use sim_core::stats::{ExpAvg, TimeWeightedMean};
use sim_core::time::{SimDuration, SimTime};

fn bench_event_queue(runner: &mut Runner) {
    runner.bench("event_queue/push_pop_interleaved_1k", || {
        let mut q = EventQueue::with_capacity(1024);
        // A sliding window of pending events, like a busy link.
        for i in 0..1_000u64 {
            q.push(SimTime::from_nanos(i * 997 % 50_000), i);
            if i % 2 == 1 {
                black_box(q.pop());
            }
        }
        while let Some(e) = q.pop() {
            black_box(e);
        }
    });
    runner.bench("event_queue/push_pop_fifo_ties_1k", || {
        let t = SimTime::from_secs(1);
        let mut q = EventQueue::with_capacity(1024);
        for i in 0..1_000u64 {
            q.push(t, i);
        }
        while let Some(e) = q.pop() {
            black_box(e);
        }
    });
}

fn bench_rng(runner: &mut Runner) {
    let mut rng = DetRng::new(7);
    runner.bench("rng/bernoulli_10k", || {
        let mut hits = 0u32;
        for _ in 0..10_000 {
            hits += u32::from(rng.bernoulli(black_box(0.3)));
        }
        black_box(hits)
    });
    runner.bench("rng/stream_derivation", || {
        black_box(DetRng::stream(black_box(42), "core-router-3"))
    });
}

fn bench_stats(runner: &mut Runner) {
    runner.bench("stats/time_weighted_mean_10k_updates", || {
        let mut m = TimeWeightedMean::new(SimTime::ZERO, 0.0);
        for i in 1..10_000u64 {
            m.set(SimTime::from_nanos(i * 1_000), (i % 40) as f64);
        }
        black_box(m.mean(SimTime::from_millis(10)))
    });
    runner.bench("stats/exp_avg_10k_observations", || {
        let mut e = ExpAvg::new(SimDuration::from_millis(100));
        let mut now = SimTime::ZERO;
        for _ in 0..10_000 {
            now += SimDuration::from_micros(500);
            black_box(e.observe(now, 1.0));
        }
        black_box(e.rate())
    });
}

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
    bench_event_queue(&mut runner);
    bench_rng(&mut runner);
    bench_stats(&mut runner);
    bench_simulator_scaling(&mut runner);
    bench_paper_chain(&mut runner);
    bench_fat_tree(&mut runner);
    bench_fat_tree_k16(&mut runner);
    bench_churn(&mut runner);
    std::process::exit(runner.finish());
}
