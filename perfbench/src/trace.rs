//! Per-layer tracing from outside the program.
//!
//! [`Traced`] wraps any [`Discipline`]: every `RouterLogic` it hands out
//! is boxed in a [`TimedLogic`] that times each callback and attributes
//! it to a layer named by discipline, role and transport
//! (`corelite/edge/limd`, `csfq/core`, `corelite/edge/gbn`, ...). Each
//! logic object keeps its own tallies and merges them into the shared
//! [`Sink`] when the network drops it, so the hot path takes no lock.
//!
//! A recording [`Traced`] also captures two streams: the dispatch time
//! and node of every logic call, and one link offer per packet arrival
//! (its time, the flow's next-hop link and the packet size). The
//! replays below feed them into `EventQueue` and `Link` on their own.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
// simlint: allow(thread-spawn) reads thread ids to tell shard workers apart
use std::thread::ThreadId;
use std::time::Instant;

use netsim::link::{Link, LinkSpec};
use netsim::logic::LogicReport;
use netsim::{ControlMsg, Ctx, FlowId, NodeId, Packet, RouterLogic, TimerKind, Transport};
use scenarios::{Discipline, ScenarioFlow};
use sim_core::event::EventQueue;
use sim_core::time::{SimDuration, SimTime};

/// Largest number of dispatches and of offers one recording keeps.
pub const STREAM_CAP: usize = 1 << 21;

/// Calls and busy time of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Callbacks made.
    pub calls: u64,
    /// Host nanoseconds spent inside them.
    pub nanos: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.calls += other.calls;
        self.nanos += other.nanos;
    }
}

/// The recorded streams of one run.
#[derive(Debug, Default)]
pub struct Streams {
    /// `(time ns, node)` of every logic dispatch.
    pub dispatches: Vec<(u64, u32)>,
    /// `(time ns, link, size)` of every packet offered to a next hop.
    pub offers: Vec<(u64, u32, u32)>,
    /// The spec of every link that appears in `offers`.
    pub links: BTreeMap<u32, LinkSpec>,
}

/// What every logic object of one traced run reported.
#[derive(Debug, Default)]
pub struct Sink {
    /// Busy time per layer label.
    pub layers: BTreeMap<String, Tally>,
    /// Busy time in `on_flow_start`/`on_flow_stop` over all layers.
    pub lifecycle: Tally,
    /// Busy time per host thread (one per shard worker).
    pub threads: Vec<(ThreadId, u64)>,
    /// Recorded streams (empty unless recording).
    pub streams: Streams,
}

impl Sink {
    /// Total busy time in logic calls, seconds.
    pub fn logic_s(&self) -> f64 {
        self.layers.values().map(|t| t.nanos).sum::<u64>() as f64 * 1e-9
    }

    /// Sum of the tallies whose label satisfies `pick`.
    pub fn tally(&self, pick: impl Fn(&str) -> bool) -> Tally {
        let mut t = Tally::default();
        for (label, v) in &self.layers {
            if pick(label) {
                t.add(*v);
            }
        }
        t
    }
}

/// A discipline whose logic reports its busy time to a shared [`Sink`].
pub struct Traced<'a> {
    inner: &'a dyn Discipline,
    sink: Arc<Mutex<Sink>>,
    /// Entries left before the recording cap; `None` when not recording.
    budget: Option<Arc<[AtomicUsize; 2]>>,
}

impl<'a> Traced<'a> {
    /// Wraps `inner`; with `record`, the logic also captures streams.
    pub fn new(inner: &'a dyn Discipline, sink: Arc<Mutex<Sink>>, record: bool) -> Self {
        let budget =
            record.then(|| Arc::new([AtomicUsize::new(STREAM_CAP), AtomicUsize::new(STREAM_CAP)]));
        Traced {
            inner,
            sink,
            budget,
        }
    }

    fn wrap(&self, label: String, inner: Box<dyn RouterLogic>) -> Box<dyn RouterLogic> {
        Box::new(TimedLogic {
            inner,
            label,
            sink: self.sink.clone(),
            budget: self.budget.clone(),
            tally: Tally::default(),
            lifecycle: Tally::default(),
            thread: None,
            streams: Streams::default(),
        })
    }
}

fn transport_name(t: Transport) -> &'static str {
    match t {
        Transport::Limd => "limd",
        Transport::Gbn => "gbn",
        Transport::Reno => "reno",
    }
}

impl Discipline for Traced<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn core_logic(&self, seed: u64) -> Box<dyn RouterLogic> {
        let label = format!("{}/core", self.inner.name());
        self.wrap(label, self.inner.core_logic(seed))
    }

    fn edge_logic(&self, seed: u64, flow: &ScenarioFlow) -> Box<dyn RouterLogic> {
        let label = format!(
            "{}/edge/{}",
            self.inner.name(),
            transport_name(flow.transport)
        );
        self.wrap(label, self.inner.edge_logic(seed, flow))
    }

    fn egress_logic(&self, seed: u64) -> Box<dyn RouterLogic> {
        let label = format!("{}/egress", self.inner.name());
        self.wrap(label, self.inner.egress_logic(seed))
    }

    fn reference_weight(&self, flow: &ScenarioFlow) -> f64 {
        self.inner.reference_weight(flow)
    }

    fn offered_rate(&self, flow: &ScenarioFlow) -> Option<f64> {
        self.inner.offered_rate(flow)
    }
}

/// One node's logic, timed.
struct TimedLogic {
    inner: Box<dyn RouterLogic>,
    label: String,
    sink: Arc<Mutex<Sink>>,
    budget: Option<Arc<[AtomicUsize; 2]>>,
    tally: Tally,
    lifecycle: Tally,
    thread: Option<ThreadId>,
    streams: Streams,
}

/// Takes one entry from a recording budget; `false` once it is spent.
fn take(budget: &AtomicUsize) -> bool {
    budget
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

impl TimedLogic {
    fn enter(&mut self, ctx: &Ctx<'_>) {
        if self.thread.is_none() {
            // The id only labels this logic's tally; it never reaches the
            // simulation, so the traced run stays deterministic.
            // simlint: allow(thread-spawn, taint-thread-spawn) tally label only
            self.thread = Some(std::thread::current().id());
        }
        if let Some(budget) = &self.budget {
            if take(&budget[0]) {
                self.streams
                    .dispatches
                    .push((ctx.now().as_nanos(), ctx.node().index() as u32));
            }
        }
    }

    fn timed<R>(
        &mut self,
        ctx: &mut Ctx<'_>,
        call: impl FnOnce(&mut Self, &mut Ctx<'_>) -> R,
    ) -> R {
        self.enter(ctx);
        // The clock reading only feeds the tally, never the simulation.
        // simlint: allow(wall-clock, taint-wall-clock) tally only
        let start = Instant::now();
        let out = call(self, ctx);
        self.tally.nanos += start.elapsed().as_nanos() as u64;
        self.tally.calls += 1;
        out
    }

    fn lifecycle(&mut self, ctx: &mut Ctx<'_>, call: impl FnOnce(&mut Self, &mut Ctx<'_>)) {
        let before = self.tally.nanos;
        self.timed(ctx, call);
        self.lifecycle.nanos += self.tally.nanos - before;
        self.lifecycle.calls += 1;
    }
}

impl RouterLogic for TimedLogic {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(ctx, |s, ctx| s.inner.on_start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        if let Some(budget) = &self.budget {
            if let Some(link) = ctx.next_hop(packet.flow) {
                if take(&budget[1]) {
                    let id = link.index() as u32;
                    self.streams
                        .offers
                        .push((ctx.now().as_nanos(), id, packet.size));
                    self.streams.links.insert(id, *ctx.link_spec(link));
                }
            }
        }
        self.timed(ctx, |s, ctx| s.inner.on_packet(ctx, packet));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        self.timed(ctx, |s, ctx| s.inner.on_timer(ctx, timer));
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, msg: ControlMsg) {
        self.timed(ctx, |s, ctx| s.inner.on_control(ctx, msg));
    }

    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        self.lifecycle(ctx, |s, ctx| s.inner.on_flow_start(ctx, flow));
    }

    fn on_flow_stop(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        self.lifecycle(ctx, |s, ctx| s.inner.on_flow_stop(ctx, flow));
    }

    fn report(&self, now: SimTime) -> LogicReport {
        self.inner.report(now)
    }
}

impl Drop for TimedLogic {
    fn drop(&mut self) {
        // A poisoned sink means a worker panicked; that panic is already
        // being reported, so this tally is simply lost.
        let Ok(mut sink) = self.sink.lock() else {
            return;
        };
        sink.layers
            .entry(std::mem::take(&mut self.label))
            .or_default()
            .add(self.tally);
        sink.lifecycle.add(self.lifecycle);
        if let Some(thread) = self.thread {
            match sink.threads.iter_mut().find(|(t, _)| *t == thread) {
                Some((_, nanos)) => *nanos += self.tally.nanos,
                None => sink.threads.push((thread, self.tally.nanos)),
            }
        }
        let streams = std::mem::take(&mut self.streams);
        sink.streams.dispatches.extend(streams.dispatches);
        sink.streams.offers.extend(streams.offers);
        sink.streams.links.extend(streams.links);
    }
}

/// How far ahead of its dispatch the event replay schedules each event:
/// one propagation delay of the paper's links, the lead most engine
/// events (packet arrivals) are scheduled with.
pub const REPLAY_LEAD: SimDuration = SimDuration::from_millis(40);

/// Replays the dispatch stream through an `EventQueue`: each event is
/// pushed once replay time reaches its dispatch time minus
/// [`REPLAY_LEAD`], then popped in order. Returns host ns per event.
pub fn replay_events(dispatches: &[(u64, u32)]) -> f64 {
    let lead = REPLAY_LEAD.as_nanos();
    let mut queue: EventQueue<u32> = EventQueue::new();
    // simlint: allow(wall-clock) host timing is what the benchmark measures
    let start = Instant::now();
    let mut pushed = 0;
    for &(now, _) in dispatches {
        while pushed < dispatches.len() && dispatches[pushed].0.saturating_sub(lead) <= now {
            let (t, node) = dispatches[pushed];
            queue.push_keyed(SimTime::from_nanos(t), node as u64, pushed as u32);
            pushed += 1;
        }
        black_box(queue.pop());
    }
    start.elapsed().as_nanos() as f64 / dispatches.len().max(1) as f64
}

/// Replays the offer stream into one fresh `Link` per recorded link,
/// then syncs every link to the end. Returns host ns per offer.
pub fn replay_links(streams: &Streams) -> f64 {
    let slots = streams.links.keys().last().map_or(0, |&id| id as usize + 1);
    let mut links: Vec<Option<Link>> = (0..slots).map(|_| None).collect();
    for (&id, &spec) in &streams.links {
        links[id as usize] = Some(Link::new(
            NodeId::from_index(0),
            NodeId::from_index(1),
            spec,
        ));
    }
    let end = streams.offers.last().map_or(0, |o| o.0);
    // simlint: allow(wall-clock) host timing is what the benchmark measures
    let start = Instant::now();
    for &(now, id, size) in &streams.offers {
        let link = links[id as usize]
            .as_mut()
            .expect("every offered link has a spec");
        black_box(link.offer(SimTime::from_nanos(now), size));
    }
    for link in links.iter_mut().flatten() {
        link.sync(SimTime::from_nanos(end));
    }
    start.elapsed().as_nanos() as f64 / streams.offers.len().max(1) as f64
}
