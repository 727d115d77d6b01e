//! Engine-mode byte-identity for the closed-loop transport scenarios:
//! the mixed LIMD/GBN/Reno workloads must produce the same
//! `format!("{:?}", report)` bytes under every engine configuration —
//! serial vs the sharded executor at 1, 2 and 4 shards, the wheel vs
//! the heap event queue, and the serial vs the parallel sweep executor.
//! Ack-clocked senders add reverse-path control traffic,
//! RTO/tick timer chains and receiver-side state to the event stream;
//! none of it may observe the engine mode.

use corelite::CoreliteConfig;
use netsim::Transport;
use scenarios::discipline::Corelite;
use scenarios::exec::{run_parallel, run_serial};
use scenarios::runner::Scenario;
use scenarios::{mixed_transports, mixed_transports_fat_tree};
use sim_core::event::QueueBackend;
use sim_core::time::SimTime;

fn compress(mut scenario: Scenario, secs: u64) -> Scenario {
    scenario.horizon = SimTime::from_secs(secs);
    scenario
}

fn scenarios() -> [Scenario; 2] {
    [
        compress(mixed_transports(7), 15),
        compress(mixed_transports_fat_tree(7), 15),
    ]
}

#[test]
fn transport_scenarios_are_byte_identical_across_shards() {
    let corelite = Corelite::new(CoreliteConfig::default());
    for scenario in scenarios() {
        let serial = scenario.run(&corelite);
        let expected = format!("{:?}", serial.report);
        // Shard 1 included: the single-shard run still goes through the
        // mailbox/epoch machinery and the replicated-push protocol that
        // the ack sink's receiver resets rely on.
        for shards in [1usize, 2, 4] {
            let (sharded, per_shard) = scenario.run_sharded(&corelite, shards);
            assert_eq!(per_shard.len(), shards);
            assert_eq!(
                expected,
                format!("{:?}", sharded.report),
                "{} diverged at {shards} shards",
                scenario.name
            );
        }
    }
}

#[test]
fn transport_scenarios_are_byte_identical_across_queue_backends() {
    let corelite = Corelite::new(CoreliteConfig::default());
    for scenario in scenarios() {
        let on = |backend| {
            let scenario = Scenario {
                backend,
                ..scenario.clone()
            };
            format!("{:?}", scenario.run(&corelite).report)
        };
        let (wheel, heap) = (on(QueueBackend::Wheel), on(QueueBackend::Heap));
        assert_eq!(wheel, heap, "{} diverged across backends", scenario.name);
    }
}

#[test]
fn transport_runs_agree_under_serial_and_parallel_exec() {
    let seeds: Vec<u64> = (1..=4).collect();
    let work = |seed: u64| {
        let corelite = Corelite::new(CoreliteConfig::default());
        format!(
            "{:?}",
            compress(mixed_transports(seed), 12).run(&corelite).report
        )
    };
    let serial = run_serial(seeds.clone(), work);
    let parallel = run_parallel(seeds, work);
    assert_eq!(serial, parallel);
    // Non-vacuous: the seed reaches the event stream.
    assert!(serial.windows(2).any(|w| w[0] != w[1]));
}

#[test]
fn closed_loop_cohorts_actually_ran() {
    // Guard against the identity suite passing vacuously: the Reno
    // flows must have delivered real traffic through the ack-clocked
    // path (distinct from the open-loop cohort's behaviour).
    let corelite = Corelite::new(CoreliteConfig::default());
    let scenario = compress(mixed_transports(7), 15);
    let result = scenario.run(&corelite);
    for (i, f) in scenario.flows.iter().enumerate() {
        let report = &result.report.flows[i];
        assert!(
            report.delivered_packets > 50,
            "flow {} ({:?}) delivered only {}",
            i + 1,
            f.transport,
            report.delivered_packets
        );
        if f.transport == Transport::Limd {
            assert_eq!(
                report.duplicate_packets,
                0,
                "open-loop flow {} cannot redeliver",
                i + 1
            );
        }
    }
    // Go-back-N retransmits whole windows on loss; with ten flows on a
    // 500 pkt/s bottleneck some duplicate deliveries must occur.
    let dups: u64 = result
        .report
        .flows
        .iter()
        .map(|f| f.duplicate_packets)
        .sum();
    assert!(dups > 0, "no duplicate deliveries recorded");
}

#[test]
fn closed_loop_flows_respect_rate_weights() {
    // The acceptance bound documented in EXPERIMENTS.md ("Mixed
    // transports"): on the full 80 s chain scenario, every flow's
    // steady-state goodput — ack-clocked Reno cohort included — stays
    // within ±45% of its weighted max-min share, each cohort's mean
    // rate per unit weight within ±10% of the analytic 16.67 pkt/s,
    // and the pooled weighted Jain index at or above 0.97.
    let corelite = Corelite::new(CoreliteConfig::default());
    let scenario = mixed_transports(20000);
    let result = scenario.run(&corelite);
    let from = SimTime::from_secs(40);
    let to = scenario.horizon;
    let expected = result.expected_rates_at(SimTime::from_secs(60));

    let mut per_weight = std::collections::BTreeMap::new();
    let mut rates = Vec::new();
    let mut weights = Vec::new();
    for (i, f) in scenario.flows.iter().enumerate() {
        let measured = result.report.flows[i]
            .goodput
            .mean_in(from, to)
            .unwrap_or(0.0);
        let err = (measured - expected[i]).abs() / expected[i];
        assert!(
            err <= 0.45,
            "flow {} ({:?}, w={}) off by {:.0}%: {measured:.1} vs {:.1}",
            i + 1,
            f.transport,
            f.weight,
            100.0 * err,
            expected[i]
        );
        let entry = per_weight.entry(f.transport as u8).or_insert((0.0, 0usize));
        entry.0 += measured / f.weight as f64;
        entry.1 += 1;
        rates.push(measured);
        weights.push(f.weight as f64);
    }
    for (transport, (sum, n)) in per_weight {
        let mean = sum / n as f64;
        let share = 500.0 / 30.0; // C1-C2 bottleneck, total weight 30
        assert!(
            (mean - share).abs() / share <= 0.10,
            "cohort {transport} mean per-weight rate {mean:.2} vs {share:.2}"
        );
    }
    let jain = fairness::metrics::jain_index(&rates, &weights);
    assert!(jain >= 0.97, "pooled weighted Jain {jain:.4}");
}
