//! Emission-chain lifecycle, checked once for every paced edge.
//!
//! Each edge shapes its flows through `netsim::pacer`: one timer chain
//! per flow (or per aggregate), killed by a stop and begun afresh by a
//! restart. A chain that survives the stop keeps emitting on its old
//! schedule next to the restart's chain, so the flow sends more than its
//! rate allows and its packets leave at instants no fresh chain would
//! choose.

use std::cell::RefCell;
use std::rc::Rc;

use baselines::GreedySource;
use corelite::{AggregatingEdge, CoreliteConfig, CoreliteEdge};
use csfq::{CsfqConfig, CsfqEdge};
use netsim::churn::ChurnSpec;
use netsim::flow::FlowSpec;
use netsim::link::LinkSpec;
use netsim::logic::{CbrSource, ForwardLogic, PoissonSource, RouterLogic};
use netsim::topology::TopologyBuilder;
use netsim::trace::{Observer, TraceEvent};
use sim_core::time::{SimDuration, SimTime};

/// Emission instants: the times packets enter the edge's outgoing link.
struct Emissions {
    log: Rc<RefCell<Vec<SimTime>>>,
}

impl Observer for Emissions {
    fn record_event(&mut self, now: SimTime, event: &TraceEvent) {
        if matches!(event, TraceEvent::Enqueue { .. }) {
            self.log.borrow_mut().push(now);
        }
    }
}

/// Builds a paced edge from its component seed.
type MakeEdge = fn(u64) -> Box<dyn RouterLogic>;

const STOP: SimTime = SimTime::from_millis(450);
const RESTART: SimTime = SimTime::from_millis(550);
const HORIZON: SimTime = SimTime::from_millis(1900);

/// Runs one flow at 1 pkt/s through `edge`: active from 0 to 0.45 s and
/// again from 0.55 s. Returns the emission instants after the stop.
fn emissions_after_stop(edge: MakeEdge) -> Vec<SimTime> {
    let mut b = TopologyBuilder::new(3);
    let src = b.node("edge", edge);
    let sink = b.node("sink", |_| Box::new(ForwardLogic));
    b.link(
        src,
        sink,
        LinkSpec::new(10_000_000, SimDuration::from_millis(10), 100),
    );
    b.flow(
        FlowSpec::new(vec![src, sink], 1)
            .active(SimTime::ZERO, Some(STOP))
            .active(RESTART, None),
    );
    let log = Rc::new(RefCell::new(Vec::new()));
    b.observer(Rc::new(RefCell::new(Emissions { log: log.clone() })));
    let mut net = b.build();
    net.run_until(HORIZON);
    drop(net);
    let log = log.borrow();
    log.iter().copied().filter(|&t| t > STOP).collect()
}

/// Every paced edge starts at 1 pkt/s and holds that rate until 2 s.
/// The adaptive edges emit their first packet one gap after a start;
/// the greedy and constant-rate sources emit at once. So the chain armed at t = 0 is due
/// at 1 s, after the restart, and only a fresh chain keeps clear of it.
#[test]
fn stale_emission_chain_dies_on_stop() {
    let second = SimDuration::from_secs(1);
    let cases: [(&str, MakeEdge, Vec<SimTime>); 5] = [
        (
            "CoreliteEdge",
            |s| Box::new(CoreliteEdge::new(s, CoreliteConfig::default())),
            vec![RESTART + second],
        ),
        (
            "CsfqEdge",
            |s| Box::new(CsfqEdge::new(s, CsfqConfig::default())),
            vec![RESTART + second],
        ),
        (
            "AggregatingEdge",
            |s| Box::new(AggregatingEdge::new(s, CoreliteConfig::default(), 1)),
            vec![RESTART + second],
        ),
        (
            "GreedySource",
            |_| Box::new(GreedySource::new(1.0)),
            vec![RESTART, RESTART + second],
        ),
        (
            "CbrSource",
            |_| Box::new(CbrSource::new(1.0)),
            vec![RESTART, RESTART + second],
        ),
    ];
    let failures: Vec<String> = cases
        .into_iter()
        .filter_map(|(name, edge, fresh)| {
            let got = emissions_after_stop(edge);
            (got != fresh).then(|| {
                format!("{name}: emitted at {got:?} after the stop, a fresh chain at {fresh:?}")
            })
        })
        .collect();
    assert!(
        failures.is_empty(),
        "emissions rode the pre-stop chain:\n{}",
        failures.join("\n")
    );
}

/// Delivered packets: one per `Deliver` trace event.
struct Deliveries {
    count: Rc<RefCell<u64>>,
}

impl Observer for Deliveries {
    fn record_event(&mut self, _now: SimTime, event: &TraceEvent) {
        if matches!(event, TraceEvent::Deliver { .. }) {
            *self.count.borrow_mut() += 1;
        }
    }
}

/// Runs one flow through a 10 pkt/s `PoissonSource` built from `seed`:
/// active from 0 to 0.45 s and again from 0.55 s until 200 s. Returns the
/// packets delivered.
fn poisson_deliveries(seed: u64) -> u64 {
    let mut b = TopologyBuilder::new(seed);
    let src = b.node("edge", |s| Box::new(PoissonSource::new(s, 10.0)));
    let sink = b.node("sink", |_| Box::new(ForwardLogic));
    b.link(
        src,
        sink,
        LinkSpec::new(10_000_000, SimDuration::from_millis(10), 100),
    );
    b.flow(
        FlowSpec::new(vec![src, sink], 1)
            .active(SimTime::ZERO, Some(STOP))
            .active(RESTART, None),
    );
    let count = Rc::new(RefCell::new(0u64));
    b.observer(Rc::new(RefCell::new(Deliveries {
        count: count.clone(),
    })));
    let mut net = b.build();
    net.run_until(SimTime::from_secs(200));
    drop(net);
    count.take()
}

/// The Poisson source draws random gaps, so a surviving pre-stop chain
/// shows up in the packet count, not in exact instants: two chains
/// deliver about twice the flow's rate after the restart. Whether the
/// old chain outlives the 0.1 s pause depends on the draws (no gap
/// straddles it with probability e^-1), so several seeds run; seeds 3
/// and 4 double the count when the stop leaves the old chain running.
#[test]
fn restarted_poisson_source_keeps_its_rate() {
    let expected = 10.0 * (200.0 - (RESTART.as_secs_f64() - STOP.as_secs_f64()));
    for seed in 1..=4 {
        let got = poisson_deliveries(seed) as f64;
        assert!(
            (got - expected).abs() <= 0.1 * expected,
            "seed {seed}: delivered {got} packets, expected {expected} ± 10%"
        );
    }
}

/// Churn recycles flow slots: a packet must carry its slot's current
/// occupant's full id (generation included), or the engine discards it
/// as a stale leftover of the previous occupant.
#[test]
fn recycled_slots_emit_under_the_occupants_id() {
    let mut b = TopologyBuilder::new(11);
    let src = b.node("edge", |_| Box::new(GreedySource::new(100.0)));
    let sink = b.node("sink", |_| Box::new(ForwardLogic));
    b.link(
        src,
        sink,
        LinkSpec::new(10_000_000, SimDuration::from_millis(10), 100),
    );
    b.churn(
        ChurnSpec::new(20.0, 10.0, 100.0)
            .route(vec![src, sink])
            .window(SimTime::ZERO, SimTime::from_secs(5)),
    );
    let end = SimTime::from_secs(10);
    let mut net = b.build();
    net.run_until(end);
    let churn = net.into_report(end).churn.expect("churn report");
    assert!(
        churn.retired > churn.peak_slots as u64,
        "slots must be recycled"
    );
    assert_eq!(churn.stale_events, 0, "stale packets");
    assert_eq!(
        churn.completed, churn.retired,
        "flows that delivered nothing"
    );
}
