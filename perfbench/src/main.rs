//! The repository benchmark.
//!
//! Runs one workload for a fixed host time, checks its outputs, and
//! prints every metric by name with its unit. The last line of standard
//! output is one JSON object: `correct`, `attempted` and `failed` scenario
//! runs, and `metrics`. With `--trace 0` the metrics are the end-to-end
//! ones; with `--trace 1` they are the per-layer ones, from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_figures --seed 20000 --seconds 20 --trace 0
//! ```
//!
//! `perfbench/METRICS.md` explains each workload and metric.

mod trace;
mod workload;

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use scenarios::Scenario;
use sim_core::time::SimTime;

use trace::{replay_events, replay_links, Sink, Traced};
use workload::{pass, Pass, Workload};

/// Distinct sub-seeds one run cycles through; the simulated metrics are
/// medians over them.
const SUBSEEDS: u64 = 10;

/// Builds timed for `setup_s` between two passes; the median over all
/// of them is reported.
const SETUP_BATCH: usize = 20;

/// The calibration's time on the machine the benchmark was built on
/// (a 2-vCPU Xeon VM); end-to-end host times are scaled to it.
const CALIBRATION_S: f64 = 0.05;

/// Fewest traced rounds a `--trace 1` run makes.
const MIN_TRACE_ROUNDS: usize = 3;

/// The scenario seed of pass `k` of a run started with `seed`.
fn subseed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(SUBSEEDS).wrapping_add(k % SUBSEEDS)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 20000,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident memory of this process since the last
/// [`reset_peak_rss`], MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the peak-memory mark at the current resident size (Linux
/// `clear_refs` value 5). Where that is unavailable the mark keeps the
/// process-wide peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Host seconds from a workload's scenarios to built networks at t = 0.
/// Each scenario is run to a zero horizon, which builds the network,
/// starts it and assembles the (empty) report. The samples are taken in
/// small batches between passes, so they span the whole run.
struct Setup {
    zero: Vec<Scenario>,
}

impl Setup {
    fn new(w: &Workload) -> Self {
        let zero = w
            .runs
            .iter()
            .map(|r| {
                let mut s = r.scenario.clone();
                s.horizon = SimTime::ZERO;
                s
            })
            .collect();
        Setup { zero }
    }

    /// Host seconds of each of [`SETUP_BATCH`] builds of the whole
    /// workload.
    fn sample(&self, w: &Workload) -> Vec<f64> {
        (0..SETUP_BATCH)
            .map(|_| {
                // simlint: allow(wall-clock) host timing is what the benchmark measures
                let start = Instant::now();
                for (s, r) in self.zero.iter().zip(&w.runs) {
                    if w.shards > 1 {
                        black_box(s.run_sharded(r.discipline.as_ref(), w.shards));
                    } else {
                        black_box(s.run(r.discipline.as_ref()));
                    }
                }
                start.elapsed().as_secs_f64()
            })
            .collect()
    }
}

/// Host seconds of a fixed event loop that shares no code with the
/// simulator: 400 000 pops and pushes on a `BinaryHeap` of 16 384
/// pending events, each touching a random slot of a 2 MB table. Timed
/// around every pass, it tracks how fast the machine runs at the moment.
fn calibrate() -> f64 {
    const SLOTS: usize = 1 << 16;
    // simlint: allow(wall-clock) host timing is what the benchmark measures
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut table = vec![[0u64; 4]; SLOTS];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..1u32 << 14)
        .map(|id| Reverse((next() % 1_000_000, id)))
        .collect();
    for _ in 0..400_000 {
        let Reverse((t, id)) = heap.pop().expect("the heap never empties");
        let slot = &mut table[next() as usize % SLOTS];
        slot[0] = slot[0].wrapping_add(t);
        slot[1] ^= u64::from(id);
        slot[2] = slot[2].wrapping_mul(31).wrapping_add(slot[0]);
        heap.push(Reverse((t + 1 + next() % 40_000, id)));
    }
    black_box(&table);
    start.elapsed().as_secs_f64()
}

/// Scenario runs attempted and failed, with the failures reported.
#[derive(Default)]
struct Runs {
    attempted: usize,
    failed: usize,
}

impl Runs {
    fn count(&mut self, p: &Pass) {
        self.attempted += p.outcomes.len();
        self.failed += p.failed_runs();
        for o in &p.outcomes {
            for f in &o.failures {
                eprintln!("check failed: {f}");
            }
        }
    }
}

fn untraced(
    _: usize,
    _: &dyn scenarios::Discipline,
) -> Option<Box<dyn scenarios::Discipline + '_>> {
    None
}

/// `--trace 0`: the end-to-end metrics.
fn end_to_end(args: &Args, runs: &mut Runs) -> Vec<(&'static str, f64, &'static str)> {
    let build =
        |k: u64| workload::build(&args.workload, subseed(args.seed, k)).expect("known workload");
    let first = build(0);
    let setup = Setup::new(&first);
    // The sharded workload must reproduce the serial engine exactly.
    let serial_fingerprint = (first.shards > 1).then(|| {
        let p = pass(&first, true, &mut untraced);
        runs.count(&p);
        p.fingerprint
    });
    // simlint: allow(wall-clock) host timing is what the benchmark measures
    let start = Instant::now();
    let (mut walls, mut rates, mut jains, mut errs) = (vec![], vec![], vec![], vec![]);
    let (mut setups, mut rss) = (vec![], vec![]);
    let mut cal = calibrate();
    let mut k = 0;
    while k < SUBSEEDS || start.elapsed().as_secs_f64() < args.seconds {
        let setup_batch = setup.sample(&first);
        let w = build(k);
        reset_peak_rss();
        let mut p = pass(&w, false, &mut untraced);
        rss.push(peak_rss_mb());
        // Host times are scaled to a machine on which the calibration
        // takes CALIBRATION_S, by the mean of the calibrations just
        // before and just after, so the machine's drift cancels.
        let next = calibrate();
        let scale = CALIBRATION_S / ((cal + next) / 2.0);
        cal = next;
        if k == 0 {
            if let Some(serial) = &serial_fingerprint {
                if *serial != p.fingerprint {
                    p.outcomes[0]
                        .failures
                        .push("sharded statistics differ from the serial engine's".into());
                }
            }
        }
        if k < SUBSEEDS {
            jains.push(p.jain());
            errs.push(p.err_pct());
        }
        setups.extend(setup_batch.iter().map(|t| t * scale));
        walls.push(p.wall_s * scale);
        rates.push(p.counts.delivered as f64 / (p.wall_s * scale));
        runs.count(&p);
        k += 1;
    }
    vec![
        ("wall_s", median(walls), "s"),
        ("setup_s", median(setups), "s"),
        ("pkts_per_s", median(rates), "pkt/s"),
        ("peak_rss_mb", median(rss), "MB"),
        ("fair_jain", median(jains), "index"),
        ("fair_err_pct", median(errs), "%"),
    ]
}

/// `--trace 1`: the per-layer metrics, from traced passes alternated
/// with untraced ones, all at the first sub-seed.
fn per_layer(args: &Args, runs: &mut Runs) -> Vec<(&'static str, f64, &'static str)> {
    let w = workload::build(&args.workload, subseed(args.seed, 0)).expect("known workload");
    let sharded = w.shards > 1;

    // One recording pass captures the first run's streams.
    let rec = Arc::new(Mutex::new(Sink::default()));
    let p = pass(&w, false, &mut |i, d| {
        (i == 0).then(|| Box::new(Traced::new(d, rec.clone(), true)) as Box<_>)
    });
    runs.count(&p);
    let counts = p.counts;
    let mut streams = std::mem::take(&mut rec.lock().expect("sink lock").streams);
    streams.dispatches.sort_unstable();
    streams.offers.sort_unstable();
    let event_ns = median((0..3).map(|_| replay_events(&streams.dispatches)).collect());
    let link_ns = median((0..3).map(|_| replay_links(&streams)).collect());

    // Events the serial schedule pops, for the shards' replication.
    let serial_popped: u64 = if sharded {
        let run = &w.runs[0];
        run.scenario
            .run_sharded(run.discipline.as_ref(), 1)
            .1
            .iter()
            .sum()
    } else {
        0
    };

    // simlint: allow(wall-clock) host timing is what the benchmark measures
    let start = Instant::now();
    let (mut untraced_walls, mut serial_walls, mut traced) = (vec![], vec![], vec![]);
    while traced.len() < MIN_TRACE_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        let p = pass(&w, false, &mut untraced);
        runs.count(&p);
        untraced_walls.push(p.wall_s);
        if sharded {
            let p = pass(&w, true, &mut untraced);
            runs.count(&p);
            serial_walls.push(p.wall_s);
        }
        let sink = Arc::new(Mutex::new(Sink::default()));
        let p = pass(&w, false, &mut |_, d| {
            Some(Box::new(Traced::new(d, sink.clone(), false)) as Box<_>)
        });
        runs.count(&p);
        let sink = std::mem::take(&mut *sink.lock().expect("sink lock"));
        traced.push((p, sink));
    }
    // Median over the traced passes of `f`.
    let med =
        |f: &dyn Fn(&Pass, &Sink) -> f64| median(traced.iter().map(|(p, s)| f(p, s)).collect());

    let traced_wall = med(&|p, _| p.wall_s);
    let report = med(&|p, _| p.report_s);
    let network_self = med(&|p, s| p.wall_s - s.logic_s() - p.report_s);
    let c = &counts;
    let events = c.events as f64;
    let offers = (c.link_forwarded + c.link_drops) as f64;
    let replayed = (event_ns * events + link_ns * offers) * 1e-9;
    let unattributed = med(&|p, s| 1.0 - (s.logic_s() + p.report_s + replayed) / p.wall_s);

    // Calls repeat exactly from pass to pass; busy time is a median.
    let layer = |pick: fn(&str) -> bool| {
        let calls = traced[0].1.tally(pick).calls as f64;
        let self_s = med(&|_, s| s.tally(pick).nanos as f64 * 1e-9);
        (calls, self_s, ratio(self_s * 1e9, calls))
    };
    let corelite_edge = layer(|l| l == "corelite/edge/limd");
    let corelite_core = layer(|l| l == "corelite/core");
    let csfq_edge = layer(|l| l.starts_with("csfq/edge"));
    let csfq_core = layer(|l| l == "csfq/core");
    let transport_edge = layer(|l| l.ends_with("/edge/gbn") || l.ends_with("/edge/reno"));

    // A serial workload is one shard doing all the work.
    let (speedup, max_share, replicated) = if sharded {
        let total: u64 = c.shard_events.iter().sum();
        let max = c.shard_events.iter().copied().max().unwrap_or(0);
        (
            ratio(median(serial_walls), median(untraced_walls.clone())),
            ratio(max as f64, total as f64),
            total.saturating_sub(serial_popped) as f64,
        )
    } else {
        (1.0, 1.0, 0.0)
    };
    let worker_max =
        med(&|_, s| s.threads.iter().map(|&(_, n)| n).max().unwrap_or(0) as f64 * 1e-9);
    let sent = (c.delivered + c.duplicates) as f64;

    vec![
        ("network.events", events, "count"),
        (
            "network.events_per_pkt",
            ratio(events, c.delivered as f64),
            "ratio",
        ),
        ("network.self_s", network_self, "s"),
        (
            "network.self_ns_per_event",
            ratio(network_self * 1e9, events),
            "ns",
        ),
        (
            "event.replay_events",
            streams.dispatches.len() as f64,
            "count",
        ),
        ("event.replay_ns_per_event", event_ns, "ns"),
        ("link.forwarded_pkts", c.link_forwarded as f64, "count"),
        ("link.tail_drops", c.link_drops as f64, "count"),
        (
            "link.mean_util",
            ratio(c.link_util_sum, c.links as f64),
            "ratio",
        ),
        ("link.replay_ns_per_offer", link_ns, "ns"),
        ("corelite.edge.calls", corelite_edge.0, "count"),
        ("corelite.edge.self_s", corelite_edge.1, "s"),
        ("corelite.edge.ns_per_call", corelite_edge.2, "ns"),
        ("corelite.core.calls", corelite_core.0, "count"),
        ("corelite.core.self_s", corelite_core.1, "s"),
        ("corelite.core.ns_per_call", corelite_core.2, "ns"),
        (
            "corelite.feedback_per_marker",
            ratio(c.feedback_sent, c.markers_injected),
            "ratio",
        ),
        ("csfq.edge.calls", csfq_edge.0, "count"),
        ("csfq.edge.self_s", csfq_edge.1, "s"),
        ("csfq.core.calls", csfq_core.0, "count"),
        ("csfq.core.self_s", csfq_core.1, "s"),
        ("csfq.core.ns_per_call", csfq_core.2, "ns"),
        (
            "csfq.policy_drop_share",
            ratio(c.csfq_policy_drops, c.csfq_policy_drops + c.csfq_forwarded),
            "ratio",
        ),
        ("transport.edge.calls", transport_edge.0, "count"),
        ("transport.edge.self_s", transport_edge.1, "s"),
        ("transport.edge.ns_per_call", transport_edge.2, "ns"),
        (
            "transport.retx_share",
            ratio(c.retransmitted, sent),
            "ratio",
        ),
        (
            "transport.dup_share",
            ratio(c.duplicates as f64, sent),
            "ratio",
        ),
        ("transport.rtos", c.rtos, "count"),
        ("churn.arrivals", c.churn_arrivals as f64, "count"),
        (
            "churn.completed_share",
            ratio(c.churn_completed as f64, c.churn_arrivals as f64),
            "ratio",
        ),
        (
            "churn.lifecycle_s",
            med(&|_, s| s.lifecycle.nanos as f64 * 1e-9),
            "s",
        ),
        ("churn.peak_slots", c.churn_peak_slots as f64, "count"),
        ("churn.stale_events", c.churn_stale as f64, "count"),
        ("churn.fct_p50_s", c.fct_p50_s, "s"),
        ("churn.fct_p99_s", c.fct_p99_s, "s"),
        ("shard.speedup", speedup, "ratio"),
        ("shard.max_events_share", max_share, "ratio"),
        ("shard.replicated_events", replicated, "count"),
        ("shard.worker_logic_s_max", worker_max, "s"),
        ("report.self_s", report, "s"),
        (
            "trace.overhead_share",
            traced_wall / median(untraced_walls) - 1.0,
            "ratio",
        ),
        ("trace.unattributed_share", unattributed, "ratio"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if workload::build(&args.workload, 0).is_none() {
        eprintln!(
            "perfbench: unknown workload {:?}; known: {}",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    }
    let mut runs = Runs::default();
    let metrics = if args.trace {
        per_layer(&args, &mut runs)
    } else {
        end_to_end(&args, &mut runs)
    };
    for (name, value, unit) in &metrics {
        println!("{}: {name} = {value} {unit}", args.workload);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        runs.failed == 0,
        runs.attempted,
        runs.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
