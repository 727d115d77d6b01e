//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes the dirty-network conditions a run should
//! experience — lost or delayed control messages, markers stripped in
//! transit, links flapping down, core routers whose control plane pauses —
//! and the network applies it inside the event loop. All randomness comes
//! from dedicated [`DetRng`] streams derived from the experiment seed
//! under `fault.*` labels, so
//!
//! * the same seed and plan always produce the same run, and
//! * adding faults never perturbs the draw sequences of existing
//!   components (sources, marker selectors, ...).
//!
//! Every injected fault is surfaced to the installed observer as a
//! [`TraceEvent::Fault`](crate::trace::TraceEvent::Fault), and packets
//! dropped by a downed link are accounted under
//! [`DropReason::Fault`](crate::logic::DropReason::Fault).
//!
//! Fault semantics:
//!
//! * **Control loss** (`control_loss`): each control message (marker
//!   feedback or loss notification) is independently lost with the given
//!   probability — the paper's "soft state" argument is that losing
//!   markers degrades fairness gracefully (§3.2).
//! * **Control delay/jitter** (`control_delay`): every surviving control
//!   message is delayed by a fixed extra amount plus a uniform draw in
//!   `[0, jitter)`.
//! * **Marker strip** (`marker_loss`): a marker piggybacked on a packet
//!   entering the given link is removed with the given probability; the
//!   data packet itself survives (a corrupted or policed DS field).
//! * **Link flap** (`flap`): packets entering the link during the window
//!   are dropped (fault drops); the link carries traffic again from the
//!   window's end.
//! * **Router pause** (`pause`): the node's control plane stops for the
//!   window — arriving packets are forwarded blindly along their path
//!   (no marking, no detection), control messages addressed to the node
//!   are lost, and its timers and flow events are deferred to the
//!   window's end, where self-rescheduling timer chains resume.

use sim_core::rng::DetRng;
use sim_core::time::{SimDuration, SimTime};

use crate::ids::{LinkId, NodeId};

/// A half-open window `[from, until)` of virtual time during which a
/// fault is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First instant the fault is active.
    pub from: SimTime,
    /// First instant the fault is over.
    pub until: SimTime,
}

impl FaultWindow {
    /// Creates a window from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics unless `from < until`.
    pub fn new(from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "fault window must end after it starts");
        FaultWindow { from, until }
    }

    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: SimTime) -> bool {
        now >= self.from && now < self.until
    }
}

/// A declarative description of the faults to inject into a run.
///
/// Build one with the fluent setters and install it via
/// [`TopologyBuilder::faults`](crate::topology::TopologyBuilder::faults):
///
/// ```
/// use netsim::fault::FaultPlan;
/// use netsim::ids::LinkId;
/// use sim_core::time::SimTime;
///
/// let plan = FaultPlan::new()
///     .control_loss(0.2)
///     .flap(
///         LinkId::from_index(0),
///         SimTime::from_secs(10),
///         SimTime::from_secs(12),
///     );
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that any control message is lost.
    pub control_loss: f64,
    /// Fixed extra delay added to every surviving control message.
    pub control_delay: SimDuration,
    /// Uniform jitter bound: each surviving control message is further
    /// delayed by a draw in `[0, control_jitter)`.
    pub control_jitter: SimDuration,
    /// Per-link probability that a piggybacked marker is stripped in
    /// transit (the data packet survives).
    pub marker_loss: Vec<(LinkId, f64)>,
    /// Windows during which the link drops every packet entering it.
    pub flaps: Vec<(LinkId, FaultWindow)>,
    /// Windows during which the node's control plane is paused.
    pub pauses: Vec<(NodeId, FaultWindow)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.control_loss <= 0.0
            && self.control_delay.is_zero()
            && self.control_jitter.is_zero()
            && self.marker_loss.is_empty()
            && self.flaps.is_empty()
            && self.pauses.is_empty()
    }

    /// Sets the control-message loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is in `[0, 1]`.
    pub fn control_loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "control loss probability must be in [0, 1], got {p}"
        );
        self.control_loss = p;
        self
    }

    /// Sets the extra control delay and its uniform jitter bound.
    pub fn control_delay(mut self, delay: SimDuration, jitter: SimDuration) -> Self {
        self.control_delay = delay;
        self.control_jitter = jitter;
        self
    }

    /// Adds a marker-strip probability for `link`.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is in `[0, 1]`.
    pub fn marker_loss(mut self, link: LinkId, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "marker loss probability must be in [0, 1], got {p}"
        );
        self.marker_loss.push((link, p));
        self
    }

    /// Adds a flap window for `link`: packets entering the link during
    /// `[from, until)` are dropped.
    ///
    /// # Panics
    ///
    /// Panics unless `from < until`.
    pub fn flap(mut self, link: LinkId, from: SimTime, until: SimTime) -> Self {
        self.flaps.push((link, FaultWindow::new(from, until)));
        self
    }

    /// Adds a pause window for `node`'s control plane.
    ///
    /// # Panics
    ///
    /// Panics unless `from < until`.
    pub fn pause(mut self, node: NodeId, from: SimTime, until: SimTime) -> Self {
        self.pauses.push((node, FaultWindow::new(from, until)));
        self
    }
}

/// Runtime fault state owned by the network: the plan plus its dedicated
/// random streams.
///
/// Control-plane draws come from one substream per *sending* node and
/// marker-strip draws from one substream per affected link, so each
/// stream is consumed entirely by one execution site: a topology shard
/// that only executes its own nodes still reproduces the exact draw
/// sequence of the serial run, without observing any other shard's
/// traffic.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// One control stream per node, indexed by node; empty when the plan
    /// has no control faults.
    control_rngs: Vec<DetRng>,
    /// One marker stream per link, populated only for links the plan
    /// names.
    marker_rngs: Vec<Option<DetRng>>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, seed: u64, nodes: usize, links: usize) -> Self {
        let control_faulty = plan.control_loss > 0.0
            || !plan.control_delay.is_zero()
            || !plan.control_jitter.is_zero();
        let control_rngs = if control_faulty {
            (0..nodes)
                .map(|n| DetRng::substream(seed, "fault.control", n as u64))
                .collect()
        } else {
            Vec::new()
        };
        let mut marker_rngs: Vec<Option<DetRng>> = (0..links).map(|_| None).collect();
        for &(link, p) in &plan.marker_loss {
            if p > 0.0 && marker_rngs[link.index()].is_none() {
                marker_rngs[link.index()] =
                    Some(DetRng::substream(seed, "fault.marker", link.index() as u64));
            }
        }
        FaultState {
            plan,
            control_rngs,
            marker_rngs,
        }
    }

    /// Decides whether one control message sent by `from` is lost.
    pub(crate) fn control_lost(&mut self, from: NodeId) -> bool {
        self.plan.control_loss > 0.0
            && self.control_rngs[from.index()].bernoulli(self.plan.control_loss)
    }

    /// The extra delay one surviving control message sent by `from`
    /// experiences.
    pub(crate) fn control_extra_delay(&mut self, from: NodeId) -> SimDuration {
        let mut extra = self.plan.control_delay;
        if !self.plan.control_jitter.is_zero() {
            let jitter =
                self.plan.control_jitter.as_secs_f64() * self.control_rngs[from.index()].next_f64();
            extra += SimDuration::from_secs_f64(jitter);
        }
        extra
    }

    /// Decides whether a marker entering `link` is stripped.
    pub(crate) fn marker_stripped(&mut self, link: LinkId) -> bool {
        let p = self
            .plan
            .marker_loss
            .iter()
            .filter(|(l, _)| *l == link)
            .map(|(_, p)| *p)
            .fold(0.0f64, f64::max);
        p > 0.0
            && self.marker_rngs[link.index()]
                .as_mut()
                .expect("marker stream exists for every configured link")
                .bernoulli(p)
    }

    /// Whether `link` is flapped down at `now`.
    pub(crate) fn link_down(&self, link: LinkId, now: SimTime) -> bool {
        self.plan
            .flaps
            .iter()
            .any(|(l, w)| *l == link && w.contains(now))
    }

    /// If `node`'s control plane is paused at `now`, the instant it
    /// resumes.
    pub(crate) fn paused_until(&self, node: NodeId, now: SimTime) -> Option<SimTime> {
        self.plan
            .pauses
            .iter()
            .filter(|(n, w)| *n == node && w.contains(now))
            .map(|(_, w)| w.until)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        assert!(!FaultPlan::new().control_loss(0.1).is_empty());
        assert!(!FaultPlan::new()
            .control_delay(SimDuration::from_millis(10), SimDuration::ZERO)
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_loss_rejected() {
        FaultPlan::new().control_loss(1.5);
    }

    #[test]
    #[should_panic(expected = "after it starts")]
    fn inverted_window_rejected() {
        FaultWindow::new(SimTime::from_secs(5), SimTime::from_secs(5));
    }

    #[test]
    fn windows_are_half_open() {
        let w = FaultWindow::new(SimTime::from_secs(1), SimTime::from_secs(2));
        assert!(!w.contains(SimTime::from_millis(999)));
        assert!(w.contains(SimTime::from_secs(1)));
        assert!(w.contains(SimTime::from_millis(1999)));
        assert!(!w.contains(SimTime::from_secs(2)));
    }

    #[test]
    fn fault_streams_are_deterministic() {
        let plan = FaultPlan::new().control_loss(0.5);
        let mut a = FaultState::new(plan.clone(), 7, 2, 0);
        let mut b = FaultState::new(plan, 7, 2, 0);
        let n0 = NodeId::from_index(0);
        let draws_a: Vec<bool> = (0..64).map(|_| a.control_lost(n0)).collect();
        let draws_b: Vec<bool> = (0..64).map(|_| b.control_lost(n0)).collect();
        assert_eq!(draws_a, draws_b);
        assert!(draws_a.iter().any(|&l| l) && draws_a.iter().any(|&l| !l));
        // Per-node streams are independent: another sender draws its own
        // sequence, unaffected by node 0's consumption.
        let n1 = NodeId::from_index(1);
        let draws_a1: Vec<bool> = (0..64).map(|_| a.control_lost(n1)).collect();
        let mut c = FaultState::new(FaultPlan::new().control_loss(0.5), 7, 2, 0);
        let draws_c1: Vec<bool> = (0..64).map(|_| c.control_lost(n1)).collect();
        assert_eq!(draws_a1, draws_c1);
    }

    #[test]
    fn pause_lookup_returns_latest_end() {
        let n = NodeId::from_index(2);
        let plan = FaultPlan::new()
            .pause(n, SimTime::from_secs(1), SimTime::from_secs(3))
            .pause(n, SimTime::from_secs(2), SimTime::from_secs(5));
        let state = FaultState::new(plan, 1, 4, 0);
        assert_eq!(
            state.paused_until(n, SimTime::from_millis(2500)),
            Some(SimTime::from_secs(5))
        );
        assert_eq!(state.paused_until(n, SimTime::from_secs(6)), None);
        assert_eq!(
            state.paused_until(NodeId::from_index(0), SimTime::from_secs(2)),
            None
        );
    }

    #[test]
    fn marker_strip_uses_per_link_probability() {
        let l0 = LinkId::from_index(0);
        let l1 = LinkId::from_index(1);
        let mut state = FaultState::new(FaultPlan::new().marker_loss(l0, 1.0), 3, 0, 2);
        assert!(state.marker_stripped(l0));
        assert!(!state.marker_stripped(l1));
    }
}
