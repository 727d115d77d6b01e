//! Sharded-vs-serial identity suite: the sharded engine must reproduce
//! the serial engine's results **byte for byte** at every shard count —
//! reports, observed record streams, churn accounting — across the paper figures,
//! fat-tree mixes, fault injection and flow churn. This is the contract
//! that makes `--shards` a pure wall-clock knob (DESIGN.md §16): any
//! divergence, however small, is a bug in the epoch/mailbox protocol,
//! never an acceptable "parallel rounding" artifact.
//!
//! The comparison is `format!("{:?}", report)` equality on the full
//! [`netsim::SimReport`] — every flow's delivery counts, delay
//! distribution, drop split, every link's counters, per-node logic
//! reports, the event total, and the churn report all participate.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use corelite::CoreliteConfig;
use netsim::telemetry::{ProbeRecord, Sample};
use netsim::trace::{Observer, TraceEvent};
use netsim::NodeId;
use scenarios::discipline::{by_name, Corelite};
use scenarios::fault::FaultSpec;
use scenarios::runner::Scenario;
use scenarios::{fig3_4, fig5_6, fig7_8, fig9_10, Discipline};
use sim_core::time::SimTime;

/// Shrinks a scenario's horizon (activation schedules are untouched;
/// periods beyond the horizon simply never fire).
fn compress(mut scenario: Scenario, secs: u64) -> Scenario {
    scenario.horizon = SimTime::from_secs(secs);
    scenario
}

/// Asserts the sharded run reproduces the serial report byte for byte
/// at each of `shard_counts`, and that the per-shard event split is
/// plausible (one entry per shard, non-zero total).
fn assert_identical(scenario: &Scenario, discipline: &dyn Discipline, shard_counts: &[usize]) {
    let serial = scenario.run(discipline);
    let expected = format!("{:?}", serial.report);
    for &shards in shard_counts {
        let (sharded, per_shard) = scenario.run_sharded(discipline, shards);
        assert_eq!(per_shard.len(), shards, "{}: split arity", scenario.name);
        assert!(
            per_shard.iter().sum::<u64>() > 0,
            "{}: sharded run did no work",
            scenario.name
        );
        assert_eq!(
            expected,
            format!("{:?}", sharded.report),
            "{} diverged at {shards} shards",
            scenario.name
        );
    }
}

#[test]
fn figure_schedules_are_byte_identical_across_shards() {
    let corelite = Corelite::new(CoreliteConfig::default());
    for scenario in [fig3_4(7), fig5_6(7), fig7_8(7), fig9_10(7)] {
        assert_identical(&compress(scenario, 12), &corelite, &[2, 3]);
    }
}

#[test]
fn shard_count_sweep_is_byte_identical() {
    // Including 1: a single-shard "parallel" run takes the sharded code
    // path (mailboxes, epochs, merge) and must still match serial.
    let corelite = Corelite::new(CoreliteConfig::default());
    assert_identical(&compress(fig5_6(21), 15), &corelite, &[1, 2, 4, 8]);
}

#[test]
fn fat_tree_mixes_are_byte_identical() {
    let corelite = Corelite::new(CoreliteConfig::default());
    assert_identical(
        &Scenario::fat_tree_mix(SimTime::from_secs(10), 3),
        &corelite,
        &[2, 4],
    );
    assert_identical(
        &Scenario::fat_tree_k16(SimTime::from_secs(4), 3),
        &corelite,
        &[4],
    );
}

#[test]
fn faulted_runs_are_byte_identical() {
    // Control-plane loss and delay draw from per-node RNG streams, link
    // flaps drop packets mid-flight, pauses freeze a core's control
    // processing — all of it must replay identically under sharding.
    let corelite = Corelite::new(CoreliteConfig::default());
    let scenario = compress(fig5_6(11), 15).with_faults(
        FaultSpec::new()
            .control_loss(0.2)
            .control_delay(0.05, 0.01)
            .marker_loss(1, 0.5)
            .flap(0, 5.0, 7.0)
            .pause(2, 8.0, 9.0),
    );
    assert_identical(&scenario, &corelite, &[2, 4]);
}

#[test]
fn churn_runs_are_byte_identical() {
    // The k = 16 fat-tree churn workload: tens of thousands of dynamic
    // flow arrivals, slot recycling, lifecycle timers and completion
    // accounting. The churn report rides inside the SimReport, so FCT
    // and settling statistics are part of the byte-identity check.
    let corelite = Corelite::new(CoreliteConfig::default());
    let scenario = Scenario::fat_tree_k16_100k(SimTime::from_secs(4), 5);
    let serial = scenario.run(&corelite);
    let churn = serial.report.churn.as_ref().expect("churn report present");
    assert!(
        churn.arrivals > 1_000,
        "churn barely ran: {}",
        churn.arrivals
    );
    assert_identical(&scenario, &corelite, &[2, 4, 8]);
}

#[test]
fn csfq_baseline_is_byte_identical() {
    // A second discipline exercises different logic state, control
    // traffic and RNG draws through the same sharded machinery.
    let csfq = by_name("csfq").expect("csfq is registered");
    assert_identical(&compress(fig3_4(13), 12), csfq.as_ref(), &[2, 3]);
}

/// Renders every observed record into one text stream in arrival
/// order: a packet event as `E <ns> <event>`, a sample as `S <JSONL>`.
#[derive(Default)]
struct Stream(String);

impl Observer for Stream {
    fn record_event(&mut self, now: SimTime, event: &TraceEvent) {
        let _ = writeln!(self.0, "E {} {event:?}", now.as_nanos());
    }

    fn record_sample(&mut self, now: SimTime, node: NodeId, sample: &Sample) {
        let record = ProbeRecord {
            time: now,
            node,
            sample: *sample,
        };
        let _ = writeln!(self.0, "S {}", record.to_json());
    }
}

#[test]
fn probe_streams_are_byte_identical() {
    // One observer sees packet events and control-plane samples in one
    // stream. The sharded engine replays its merged log into it in
    // canonical order, so the stream — the interleaving of the two
    // kinds included — must match the serial stream byte for byte.
    let corelite = Corelite::new(CoreliteConfig::default());
    let scenario = compress(fig5_6(17), 15);
    let observe = |scenario: &Scenario| {
        let stream = Rc::new(RefCell::new(Stream::default()));
        scenario.run_observed(&corelite, stream.clone());
        stream.take().0
    };

    let serial = observe(&scenario);
    // Non-vacuous: both kinds are present and really interleave.
    let kinds: Vec<u8> = serial.lines().map(|l| l.as_bytes()[0]).collect();
    let switches = kinds.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(
        switches > 100,
        "packet events and samples barely interleave: {switches} switches"
    );

    for shards in [2usize, 4] {
        let sharded = observe(&scenario.clone().with_shards(shards));
        assert!(
            serial == sharded,
            "observed stream diverged at {shards} shards"
        );
    }
}

#[test]
fn scenario_shards_field_routes_through_the_sharded_engine() {
    // `Scenario.shards` is the transparent dispatch knob: plain `run()`
    // on a shards = 4 scenario must produce the serial bytes too (this
    // is what the DSL `shards` directive and `--shards` flag rely on).
    let corelite = Corelite::new(CoreliteConfig::default());
    let scenario = compress(fig3_4(29), 12);
    let serial = scenario.run(&corelite);
    let mut sharded_scenario = scenario.clone();
    sharded_scenario.shards = 4;
    let sharded = sharded_scenario.run(&corelite);
    assert_eq!(
        format!("{:?}", serial.report),
        format!("{:?}", sharded.report)
    );
}
