//! Fault injection at the scenario layer, plus the loss-degradation
//! sweep shared by the `faults` binary and the robustness tests.
//!
//! [`FaultSpec`] is the plain-data mirror of [`netsim::FaultPlan`]: it
//! speaks the scenario vocabulary — core indices and core-link indices
//! as used by [`crate::topology::TopologySpec`], times in seconds — and
//! is translated to simulator identifiers by [`FaultSpec::to_plan`].
//! The translation leans on a [`crate::runner::Scenario::run`]
//! invariant: core routers are built first, so core index `i` is
//! `NodeId(i)` and topology link index `j` is `LinkId(j)`.
//!
//! [`degradation_rows`] runs a `scenarios × disciplines × loss levels`
//! sweep through the deterministic executor and reports, per cell, the
//! steady-state weighted Jain index and aggregate goodput next to their
//! loss-free baselines. [`degradation_markdown`] renders the table with
//! fixed-precision formatting, so equal sweeps yield identical bytes.

use netsim::ids::{LinkId, NodeId};
use netsim::FaultPlan;
use sim_core::time::{SimDuration, SimTime};

use crate::discipline::Discipline;
use crate::exec::{run_parallel, run_serial};
use crate::report::window_jain_index;
use crate::runner::Scenario;

/// Scenario-level fault description: which failures to inject, keyed by
/// the scenario's own core/link indices and expressed in seconds.
///
/// # Example
///
/// ```
/// use scenarios::fault::FaultSpec;
///
/// let spec = FaultSpec::new()
///     .control_loss(0.2)
///     .flap(1, 10.0, 12.0)
///     .pause(0, 30.0, 31.0);
/// assert!(!spec.is_empty());
/// assert!(FaultSpec::new().is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability that any control message (marker feedback or loss
    /// notification) is silently lost, in `[0, 1]`.
    pub control_loss: f64,
    /// Fixed extra delay added to every delivered control message, in
    /// seconds.
    pub control_delay: f64,
    /// Upper bound of the uniform jitter added on top of
    /// `control_delay`, in seconds.
    pub control_jitter: f64,
    /// Per-core-link marker-strip probability `(link index, p)`.
    pub marker_loss: Vec<(usize, f64)>,
    /// Link-flap windows `(link index, from, until)` in seconds; packets
    /// entering the link inside the window are dropped.
    pub flaps: Vec<(usize, f64, f64)>,
    /// Core-router pause windows `(core index, from, until)` in seconds.
    pub pauses: Vec<(usize, f64, f64)>,
}

impl FaultSpec {
    /// An empty specification: no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the specification injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.control_loss <= 0.0
            && self.control_delay <= 0.0
            && self.control_jitter <= 0.0
            && self.marker_loss.is_empty()
            && self.flaps.is_empty()
            && self.pauses.is_empty()
    }

    /// Sets the control-message loss probability (builder-style).
    pub fn control_loss(mut self, p: f64) -> Self {
        self.control_loss = p;
        self
    }

    /// Sets the control delay and jitter in seconds (builder-style).
    pub fn control_delay(mut self, delay: f64, jitter: f64) -> Self {
        self.control_delay = delay;
        self.control_jitter = jitter;
        self
    }

    /// Adds a marker-strip probability on core link `link`
    /// (builder-style).
    pub fn marker_loss(mut self, link: usize, p: f64) -> Self {
        self.marker_loss.push((link, p));
        self
    }

    /// Adds a flap window on core link `link` (builder-style).
    pub fn flap(mut self, link: usize, from: f64, until: f64) -> Self {
        self.flaps.push((link, from, until));
        self
    }

    /// Adds a pause window on core router `core` (builder-style).
    pub fn pause(mut self, core: usize, from: f64, until: f64) -> Self {
        self.pauses.push((core, from, until));
        self
    }

    /// Translates the specification into a simulator [`FaultPlan`],
    /// mapping core index `i` to `NodeId(i)` and topology link index
    /// `j` to `LinkId(j)` (the construction order guaranteed by
    /// [`Scenario::run`]).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range probabilities or inverted windows (the
    /// underlying plan validates its inputs).
    pub fn to_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        if self.control_loss > 0.0 {
            plan = plan.control_loss(self.control_loss);
        }
        if self.control_delay > 0.0 || self.control_jitter > 0.0 {
            plan = plan.control_delay(
                SimDuration::from_secs_f64(self.control_delay),
                SimDuration::from_secs_f64(self.control_jitter),
            );
        }
        for &(link, p) in &self.marker_loss {
            plan = plan.marker_loss(LinkId::from_index(link), p);
        }
        for &(link, from, until) in &self.flaps {
            plan = plan.flap(
                LinkId::from_index(link),
                SimTime::from_secs_f64(from),
                SimTime::from_secs_f64(until),
            );
        }
        for &(core, from, until) in &self.pauses {
            plan = plan.pause(
                NodeId::from_index(core),
                SimTime::from_secs_f64(from),
                SimTime::from_secs_f64(until),
            );
        }
        plan
    }
}

/// One cell of the loss-degradation table.
#[derive(Debug, Clone)]
pub struct DegradationRow {
    /// Scenario name.
    pub scenario: &'static str,
    /// Topology name.
    pub topology: &'static str,
    /// Discipline name.
    pub discipline: &'static str,
    /// Control-message loss percentage injected for this cell.
    pub loss_pct: u32,
    /// Weighted Jain index over the last 20 s of the run.
    pub jain: f64,
    /// Aggregate steady-state goodput across all flows, packets/s.
    pub goodput: f64,
    /// Total packets dropped anywhere during the run.
    pub drops: u64,
    /// Jain degradation versus the loss-free baseline, percent
    /// (positive = worse than baseline).
    pub jain_drop_pct: f64,
    /// Goodput degradation versus the loss-free baseline, percent.
    pub goodput_drop_pct: f64,
}

/// Runs every `(scenario, discipline, loss level)` combination and
/// returns one [`DegradationRow`] per cell, in sweep order. The first
/// entry of `loss_pcts` is the baseline the deltas are computed
/// against (pass `0` there for a loss-free reference). Each lossy cell
/// layers `control_loss` on top of whatever faults the scenario
/// already carries.
///
/// The sweep goes through [`run_parallel`] unless `serial` is set;
/// both orders produce identical rows.
///
/// # Panics
///
/// Panics if `loss_pcts` is empty or any percentage exceeds 100.
pub fn degradation_rows(
    scenarios: &[Scenario],
    registry: &[Box<dyn Discipline>],
    loss_pcts: &[u32],
    serial: bool,
) -> Vec<DegradationRow> {
    assert!(!loss_pcts.is_empty(), "need at least a baseline loss level");
    assert!(
        loss_pcts.iter().all(|&p| p <= 100),
        "loss percentages must be at most 100"
    );
    let jobs: Vec<(usize, usize, usize)> = (0..scenarios.len())
        .flat_map(|s| {
            (0..registry.len()).flat_map(move |d| (0..loss_pcts.len()).map(move |l| (s, d, l)))
        })
        .collect();
    let work = |(s, d, l): (usize, usize, usize)| {
        let mut scenario = scenarios[s].clone();
        let pct = loss_pcts[l];
        if pct > 0 {
            scenario.faults = scenario.faults.control_loss(pct as f64 / 100.0);
        }
        let result = scenario.run(registry[d].as_ref());
        let horizon = result.scenario.horizon;
        let steady_from = horizon - SimDuration::from_secs(20);
        let goodput: f64 = (0..result.scenario.flows.len())
            .filter_map(|i| result.report.flows[i].mean_goodput_in(steady_from, horizon))
            .sum();
        (
            window_jain_index(&result, steady_from, horizon),
            goodput,
            result.total_drops(),
        )
    };
    let cells = if serial {
        run_serial(jobs.clone(), work)
    } else {
        run_parallel(jobs.clone(), work)
    };
    jobs.iter()
        .zip(&cells)
        .map(|(&(s, d, l), &(jain, goodput, drops))| {
            // The baseline cell shares (s, d) and sits at loss index 0.
            let base = jobs
                .iter()
                .position(|&(bs, bd, bl)| bs == s && bd == d && bl == 0)
                .expect("every cell has a baseline");
            let (base_jain, base_goodput, _) = cells[base];
            let drop_pct = |base: f64, now: f64| {
                if base > 0.0 {
                    100.0 * (base - now) / base
                } else {
                    0.0
                }
            };
            DegradationRow {
                scenario: scenarios[s].name,
                topology: scenarios[s].topology.name,
                discipline: registry[d].name(),
                loss_pct: loss_pcts[l],
                jain,
                goodput,
                drops,
                jain_drop_pct: drop_pct(base_jain, jain),
                goodput_drop_pct: drop_pct(base_goodput, goodput),
            }
        })
        .collect()
}

/// Renders [`degradation_rows`] output as a markdown table. All numeric
/// columns use fixed precision, so identical rows render to identical
/// bytes — the determinism contract the `faults` binary is tested
/// against.
pub fn degradation_markdown(rows: &[DegradationRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "| scenario | topology | discipline | loss % | Jain (steady) | ΔJain % | goodput (pkt/s) | Δgoodput % | drops |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.4} | {:+.1} | {:.1} | {:+.1} | {} |\n",
            r.scenario,
            r.topology,
            r.discipline,
            r.loss_pct,
            r.jain,
            r.jain_drop_pct,
            r.goodput,
            r.goodput_drop_pct,
            r.drops,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::ids::FlowId;

    #[test]
    fn empty_spec_produces_empty_plan() {
        assert!(FaultSpec::new().is_empty());
        assert!(FaultSpec::new().to_plan().is_empty());
    }

    #[test]
    fn spec_translates_indices_to_ids() {
        let spec = FaultSpec::new()
            .control_loss(0.25)
            .control_delay(0.05, 0.01)
            .marker_loss(2, 0.5)
            .flap(1, 3.0, 4.0)
            .pause(0, 6.0, 7.0);
        assert!(!spec.is_empty());
        let plan = spec.to_plan();
        assert!(!plan.is_empty());
        assert_eq!(plan.control_loss, 0.25);
        assert_eq!(plan.marker_loss, vec![(LinkId::from_index(2), 0.5)]);
        assert_eq!(plan.flaps.len(), 1);
        assert_eq!(plan.flaps[0].0, LinkId::from_index(1));
        assert_eq!(plan.pauses.len(), 1);
        assert_eq!(plan.pauses[0].0, NodeId::from_index(0));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_probability_rejected_at_translation() {
        let _ = FaultSpec::new().control_loss(1.5).to_plan();
    }

    #[test]
    fn degradation_rows_report_deltas_against_baseline() {
        use crate::runner::ScenarioFlow;
        use crate::topology::Route;
        let scenario = Scenario::paper(
            "mini",
            vec![
                ScenarioFlow::best_effort(Route::new(0, 1), 1, SimTime::ZERO),
                ScenarioFlow::best_effort(Route::new(0, 1), 2, SimTime::ZERO),
            ],
            SimTime::from_secs(30),
            7,
        );
        let registry = vec![crate::discipline::by_name("corelite").unwrap()];
        let rows = degradation_rows(&[scenario], &registry, &[0, 50], true);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].loss_pct, 0);
        assert_eq!(rows[0].jain_drop_pct, 0.0);
        assert_eq!(rows[0].goodput_drop_pct, 0.0);
        assert!(rows[0].jain > 0.9, "baseline Jain {}", rows[0].jain);
        assert_eq!(rows[1].loss_pct, 50);
        // Half the control messages lost: the table must still carry a
        // finite, formatted row (the *bound* on degradation lives in the
        // integration tests).
        assert!(rows[1].jain.is_finite() && rows[1].goodput.is_finite());
        let md = degradation_markdown(&rows);
        assert!(md.contains("| mini |"), "{md}");
        assert_eq!(md.lines().count(), 2 + rows.len());
        // Flow identities survive the sweep plumbing.
        let _ = FlowId::from_index(0);
    }
}
