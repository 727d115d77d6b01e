//! The four workloads, one pass over each, and the checks every pass
//! makes on its outputs.

use std::time::Instant;

use fairness::metrics::jain_index;
use netsim::{SimReport, Transport};
use scenarios::discipline::Corelite;
use scenarios::report::{steady_state_summary, window_jain_index};
use scenarios::{
    mixed_transports_fat_tree, Discipline, ExperimentResult, PaperFigure, Scenario, ScenarioChurn,
    TopologySpec,
};
use sim_core::time::SimTime;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "paper_figures",
    "transports_fat_tree",
    "fat_tree_k16_churn",
    "fat_tree_k16_churn_2shard",
];

/// Horizon of the closed-loop transports workload (the schedule's own
/// is 80 s; ten times that makes a pass long enough to time).
const TRANSPORTS_HORIZON_S: u64 = 800;

/// Horizon of the k = 16 churn workloads.
const CHURN_HORIZON_S: u64 = 60;

/// Fidelity tolerances. They start from the measured tables in
/// EXPERIMENTS.md (one seed each) and are widened to what the figures
/// show across seeds: over 360 seeds the worst Figure 7/9 flow was 56%
/// off its analytic share, with window Jain 0.9789. That flow is the
/// documented multi-hop bias (flows answering the largest per-core
/// feedback sit low, a single-hop neighbour inherits the slack), which
/// the analytic reference does not model.
pub mod tolerance {
    /// Lowest steady-window weighted Jain index of any paper figure
    /// (one seed documented at 0.9899, Figure 7; 0.9789 across seeds).
    pub const FIGURE_JAIN: f64 = 0.97;
    /// Largest per-flow error against the analytic share in a paper
    /// figure's steady window (one seed documented at +33%, Figure 7
    /// flow 11; 56% across seeds).
    pub const FIGURE_FLOW_ERR: f64 = 0.75;
    /// Corelite's drops times this must not exceed CSFQ's on the same
    /// schedule (documented: 0 vs 912, 22 vs 1644, 47 vs 3293).
    pub const DROP_ASYMMETRY: u64 = 10;
    /// Largest spread of cumulative service within one weight class of
    /// Figure 4's full-load flows (the integration test's 25%).
    pub const FIG4_SPREAD: f64 = 0.25;
    /// Lowest pooled weighted Jain index of the mixed-transport fat
    /// tree (documented: 0.9309).
    pub const TRANSPORTS_JAIN: f64 = 0.90;
    /// Lowest share of churn arrivals that deliver a packet.
    pub const CHURN_COMPLETED: f64 = 0.95;
}

/// How a run's fidelity is read off its result.
#[derive(Debug, Clone)]
enum Eval {
    /// Allotted rates against the analytic shares over steady windows.
    Figure {
        windows: Vec<(SimTime, SimTime)>,
        /// Also check Figure 4's cumulative-service grouping.
        fig4: bool,
    },
    /// Delivered goodput against the analytic shares from `from` on.
    Goodput { from: SimTime },
}

/// One scenario run of a pass.
pub struct Run {
    /// Label for messages (`fig3`, `transports`, ...).
    pub label: &'static str,
    /// The scenario, at the workload's seed.
    pub scenario: Scenario,
    /// The discipline it runs under.
    pub discipline: Box<dyn Discipline>,
    eval: Eval,
}

/// A workload at one seed.
pub struct Workload {
    /// Its scenario runs, in order.
    pub runs: Vec<Run>,
    /// Shards every run executes on (1 = the serial engine).
    pub shards: usize,
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// The k = 16 fat tree with 32 long-lived Corelite flows and a churn
/// process sized so that arrivals transfer data: 1 000 arrivals/s over
/// the first three quarters of the horizon, at most 40 000, mean 50
/// packets at a nominal 20 pkt/s, over 16 leaf-to-next-leaf routes.
pub fn k16_churn(seed: u64) -> Scenario {
    const LEAVES: usize = 16;
    const SPINES: usize = 8;
    let horizon = secs(CHURN_HORIZON_S);
    let mut s = Scenario::fat_tree_k16(horizon, seed);
    s.name = "fat_tree_k16_churn";
    let mut churn = ScenarioChurn::new(1_000.0, 50.0, 20.0)
        .weights(vec![1, 2, 3])
        .window(SimTime::ZERO, secs(CHURN_HORIZON_S * 3 / 4))
        .max_arrivals(40_000);
    for leaf in 0..LEAVES {
        churn = churn.route(TopologySpec::fat_tree_k_path(
            LEAVES,
            SPINES,
            leaf,
            (leaf + 1) % LEAVES,
            leaf % SPINES,
        ));
    }
    s.with_churn(churn)
}

fn figure(fig: PaperFigure, seed: u64) -> Run {
    let windows = match fig {
        PaperFigure::Fig3 => vec![
            (secs(150), secs(250)),
            (secs(400), secs(500)),
            (secs(650), secs(750)),
        ],
        PaperFigure::Fig9 | PaperFigure::Fig10 => {
            vec![(secs(40), secs(60)), (secs(120), secs(160))]
        }
        _ => vec![(secs(60), secs(80))],
    };
    Run {
        label: fig.name(),
        scenario: fig.scenario(seed),
        discipline: fig.discipline(),
        eval: Eval::Figure {
            windows,
            fig4: fig == PaperFigure::Fig3,
        },
    }
}

/// Builds workload `name` at `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let (runs, shards) = match name {
        "paper_figures" => {
            // Figure 4 plots Figure 3's run, so it is checked there.
            let figs = [
                PaperFigure::Fig3,
                PaperFigure::Fig5,
                PaperFigure::Fig6,
                PaperFigure::Fig7,
                PaperFigure::Fig8,
                PaperFigure::Fig9,
                PaperFigure::Fig10,
            ];
            let runs = figs.into_iter().map(|f| figure(f, seed)).collect();
            (runs, 1)
        }
        "transports_fat_tree" => {
            let mut scenario = mixed_transports_fat_tree(seed);
            scenario.horizon = secs(TRANSPORTS_HORIZON_S);
            let run = Run {
                label: "transports",
                scenario,
                discipline: Box::new(Corelite::default()),
                eval: Eval::Goodput {
                    from: secs(TRANSPORTS_HORIZON_S / 2),
                },
            };
            (vec![run], 1)
        }
        "fat_tree_k16_churn" | "fat_tree_k16_churn_2shard" => {
            let run = Run {
                label: "k16_churn",
                scenario: k16_churn(seed),
                discipline: Box::new(Corelite::default()),
                eval: Eval::Goodput {
                    from: secs(CHURN_HORIZON_S - 10),
                },
            };
            let shards = if name == NAMES[3] { 2 } else { 1 };
            (vec![run], shards)
        }
        _ => return None,
    };
    Some(Workload { runs, shards })
}

/// Simulated outputs and check results of one scenario run.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Weighted Jain index of each steady window.
    pub jain: Vec<f64>,
    /// Relative error of each (flow, window) against its analytic share.
    pub errors: Vec<f64>,
    /// Packets dropped anywhere in the run.
    pub drops: u64,
    /// Every check this run failed, as a message.
    pub failures: Vec<String>,
}

/// Counts read from the reports of one pass, summed over its runs.
#[derive(Debug, Default)]
pub struct Counts {
    pub events: u64,
    pub delivered: u64,
    pub duplicates: u64,
    pub link_forwarded: u64,
    pub link_drops: u64,
    pub link_util_sum: f64,
    pub links: u64,
    pub markers_injected: f64,
    pub feedback_sent: f64,
    pub csfq_policy_drops: f64,
    pub csfq_forwarded: f64,
    pub retransmitted: f64,
    pub rtos: f64,
    pub churn_arrivals: u64,
    pub churn_completed: u64,
    pub churn_peak_slots: u64,
    pub churn_stale: u64,
    pub fct_p50_s: f64,
    pub fct_p99_s: f64,
    /// Events popped by each shard (sharded runs only).
    pub shard_events: Vec<u64>,
}

impl Counts {
    fn add(&mut self, r: &SimReport, shard_events: &[u64]) {
        self.events += r.events_processed;
        for f in &r.flows {
            self.delivered += f.delivered_packets;
            self.duplicates += f.duplicate_packets;
        }
        for l in &r.links {
            self.link_forwarded += l.forwarded_packets;
            self.link_drops += l.dropped_packets;
            self.link_util_sum += l.utilization;
            self.links += 1;
        }
        self.markers_injected += r.counter_total("markers_injected");
        self.feedback_sent += r.counter_total("feedback_sent");
        self.csfq_policy_drops += r.counter_total("csfq_policy_drops");
        self.csfq_forwarded += r.counter_total("csfq_forwarded");
        self.retransmitted += r.counter_total("retransmitted_packets");
        self.rtos += r.counter_total("rtos_fired");
        if let Some(c) = &r.churn {
            self.churn_arrivals += c.arrivals;
            self.churn_completed += c.completed;
            self.churn_peak_slots = self.churn_peak_slots.max(c.peak_slots as u64);
            self.churn_stale += c.stale_events;
            self.fct_p50_s = c.fct_quantile(0.5).unwrap_or(0.0);
            self.fct_p99_s = c.fct_quantile(0.99).unwrap_or(0.0);
        }
        let shards = self.shard_events.len().max(shard_events.len());
        self.shard_events.resize(shards, 0);
        for (sum, &e) in self.shard_events.iter_mut().zip(shard_events) {
            *sum += e;
        }
    }
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds for the whole pass: runs plus evaluation.
    pub wall_s: f64,
    /// Host seconds in the evaluation calls into `scenarios::report`
    /// and `fairness`.
    pub report_s: f64,
    /// One outcome per run.
    pub outcomes: Vec<RunOutcome>,
    /// Report counts summed over the runs.
    pub counts: Counts,
    /// On a sharded workload, a digest of every simulated statistic of
    /// the first run (see [`fingerprint`]); empty otherwise.
    pub fingerprint: String,
}

impl Pass {
    /// Mean weighted Jain index over every steady window of the pass.
    pub fn jain(&self) -> f64 {
        mean(self.outcomes.iter().flat_map(|o| o.jain.iter().copied()))
    }

    /// Mean relative error against the analytic shares, in percent.
    pub fn err_pct(&self) -> f64 {
        100.0 * mean(self.outcomes.iter().flat_map(|o| o.errors.iter().copied()))
    }

    /// Runs with at least one failed check.
    pub fn failed_runs(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !o.failures.is_empty())
            .count()
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Given run `i` and its discipline, optionally a replacement for it
/// (the tracer's wrapper).
pub type Wrap<'a> = dyn FnMut(usize, &dyn Discipline) -> Option<Box<dyn Discipline + '_>> + 'a;

/// Runs every scenario of `w` once and evaluates it, with each
/// discipline replaced as `wrap` says; `serial` forces the serial
/// engine whatever the workload's shard count.
pub fn pass(w: &Workload, serial: bool, wrap: &mut Wrap<'_>) -> Pass {
    let mut out = Pass::default();
    let mut digest = None;
    // simlint: allow(wall-clock) host timing is what the benchmark measures
    let start = Instant::now();
    for (i, run) in w.runs.iter().enumerate() {
        let wrapped = wrap(i, run.discipline.as_ref());
        let d: &dyn Discipline = wrapped.as_deref().unwrap_or(run.discipline.as_ref());
        let (result, shard_events) = if w.shards > 1 && !serial {
            run.scenario.run_sharded(d, w.shards)
        } else {
            (run.scenario.run(d), Vec::new())
        };
        drop(wrapped);
        // simlint: allow(wall-clock) host timing is what the benchmark measures
        let eval_start = Instant::now();
        let outcome = evaluate(run, &result);
        out.report_s += eval_start.elapsed().as_secs_f64();
        out.counts.add(&result.report, &shard_events);
        out.outcomes.push(outcome);
        // Only the sharded workload is compared with the serial engine.
        if i == 0 && w.shards > 1 {
            digest = Some(result.report);
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    // The digest is a check, so it is made outside the timed pass.
    if let Some(report) = digest {
        out.fingerprint = fingerprint(&report);
    }
    cross_checks(w, &mut out);
    out
}

/// Checks one run's outputs and reads its fidelity.
fn evaluate(run: &Run, result: &ExperimentResult) -> RunOutcome {
    let r = &result.report;
    let mut o = RunOutcome {
        drops: r.total_drops(),
        ..RunOutcome::default()
    };
    let label = run.label;
    // Every static flow is scheduled to carry traffic.
    for (i, f) in r.flows.iter().take(run.scenario.flows.len()).enumerate() {
        if f.delivered_packets == 0 {
            o.failures
                .push(format!("{label}: flow {} delivered nothing", i + 1));
        }
    }
    // Every link drop is some flow's tail drop. Under churn a recycled
    // flow-table slot reports only its latest occupant, so the flows'
    // sum can only bound the links' from below.
    let flow_tail: u64 = r.flows.iter().map(|f| f.tail_drops).sum();
    let link_drops: u64 = r.links.iter().map(|l| l.dropped_packets).sum();
    let identity_holds = if r.churn.is_some() {
        flow_tail <= link_drops
    } else {
        flow_tail == link_drops
    };
    if !identity_holds {
        o.failures.push(format!(
            "{label}: flow tail drops {flow_tail} against link drops {link_drops}"
        ));
    }
    match result.discipline_name {
        "corelite" if r.counter_total("feedback_sent") <= 0.0 => {
            o.failures.push(format!("{label}: no Corelite feedback"));
        }
        "csfq" if r.counter_total("csfq_policy_drops") <= 0.0 => {
            o.failures.push(format!("{label}: no CSFQ policy drops"));
        }
        _ => {}
    }
    match &run.eval {
        Eval::Figure { windows, fig4 } => {
            for &(from, to) in windows {
                let jain = window_jain_index(result, from, to);
                if jain < tolerance::FIGURE_JAIN {
                    o.failures
                        .push(format!("{label}: Jain {jain:.4} in [{from}, {to})"));
                }
                o.jain.push(jain);
                for s in steady_state_summary(result, from, to) {
                    if s.expected <= 0.0 {
                        continue;
                    }
                    let err = s.relative_error();
                    if err > tolerance::FIGURE_FLOW_ERR {
                        o.failures.push(format!(
                            "{label}: flow {} off its share by {:.1}% in [{from}, {to})",
                            s.flow,
                            100.0 * err
                        ));
                    }
                    o.errors.push(err);
                }
            }
            if *fig4 {
                fig4_check(run, result, &mut o);
            }
        }
        Eval::Goodput { from } => {
            let horizon = run.scenario.horizon;
            let mid = SimTime::from_secs_f64((from.as_secs_f64() + horizon.as_secs_f64()) / 2.0);
            let expected = result.expected_rates_at(mid);
            let mut rates = Vec::new();
            let mut weights = Vec::new();
            for (i, f) in run.scenario.flows.iter().enumerate() {
                let measured = r.flows[i].goodput.mean_in(*from, horizon).unwrap_or(0.0);
                rates.push(measured);
                weights.push(f.weight as f64);
                if expected[i] > 0.0 {
                    o.errors.push((measured - expected[i]).abs() / expected[i]);
                }
            }
            let jain = jain_index(&rates, &weights);
            o.jain.push(jain);
            let closed_loop = run
                .scenario
                .flows
                .iter()
                .any(|f| f.transport != Transport::Limd);
            if closed_loop {
                if jain < tolerance::TRANSPORTS_JAIN {
                    o.failures.push(format!("{label}: pooled Jain {jain:.4}"));
                }
                if r.counter_total("acks_received") <= 0.0 {
                    o.failures.push(format!("{label}: no acks"));
                }
            }
        }
    }
    if let Some(c) = &r.churn {
        let share = c.completed as f64 / c.arrivals.max(1) as f64;
        if share < tolerance::CHURN_COMPLETED {
            o.failures.push(format!(
                "{label}: {} of {} arrivals completed",
                c.completed, c.arrivals
            ));
        }
    }
    o
}

/// Figure 4: flows of one weight that are active for the whole run
/// accumulate service within [`tolerance::FIG4_SPREAD`] of one another,
/// whatever their path length.
fn fig4_check(run: &Run, result: &ExperimentResult, o: &mut RunOutcome) {
    let full_load: Vec<usize> = (0..run.scenario.flows.len())
        .filter(|&i| run.scenario.flows[i].activations[0].0 == SimTime::ZERO)
        .collect();
    for weight in 1..=3 {
        let service: Vec<f64> = full_load
            .iter()
            .filter(|&&i| run.scenario.flows[i].weight == weight)
            .map(|&i| result.report.flows[i].delivered_packets as f64)
            .collect();
        let max = service.iter().copied().fold(0.0, f64::max);
        let min = service.iter().copied().fold(f64::INFINITY, f64::min);
        if max > 0.0 && (max - min) / max > tolerance::FIG4_SPREAD {
            o.failures.push(format!(
                "fig4: weight-{weight} service spread {:.1}%",
                100.0 * (max - min) / max
            ));
        }
    }
}

/// Checks that span runs: each Corelite figure drops far fewer packets
/// than its CSFQ twin on the same schedule.
fn cross_checks(w: &Workload, pass: &mut Pass) {
    let find = |label: &str| w.runs.iter().position(|r| r.label == label);
    for (corelite, csfq) in [("fig5", "fig6"), ("fig7", "fig8"), ("fig9", "fig10")] {
        let (Some(a), Some(b)) = (find(corelite), find(csfq)) else {
            continue;
        };
        let (da, db) = (pass.outcomes[a].drops, pass.outcomes[b].drops);
        if da * tolerance::DROP_ASYMMETRY > db {
            pass.outcomes[a]
                .failures
                .push(format!("{corelite}: {da} drops against {csfq}'s {db}"));
        }
    }
}

/// Every simulated statistic of a report except the engine's own event
/// count, which differs between the serial and the sharded engine.
pub fn fingerprint(r: &SimReport) -> String {
    let mut s = String::new();
    for f in &r.flows {
        s += &format!(
            "f{} {} {} {} {} {} {} {:?}\n",
            f.id,
            f.delivered_packets,
            f.delivered_bytes,
            f.duplicate_packets,
            f.tail_drops,
            f.policy_drops,
            f.fault_drops,
            f.mean_delay_secs.to_bits()
        );
    }
    for l in &r.links {
        s += &format!(
            "l{} {} {} {} {}\n",
            l.id,
            l.forwarded_packets,
            l.dropped_packets,
            l.peak_occupancy,
            l.utilization.to_bits()
        );
    }
    for (node, logic) in r.logic.iter() {
        for (name, v) in &logic.counters {
            s += &format!("n{node} {name} {}\n", v.to_bits());
        }
    }
    if let Some(c) = &r.churn {
        s += &format!(
            "churn {} {} {} {} {} {:?} {:?}\n",
            c.arrivals,
            c.retired,
            c.completed,
            c.peak_active,
            c.peak_slots,
            c.fct_quantile(0.5).map(f64::to_bits),
            c.fct_quantile(0.99).map(f64::to_bits)
        );
    }
    s
}
