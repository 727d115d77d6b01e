//! Engine-level tests of the sharded executor: the merged packet-event
//! stream must reproduce the serial observer's sequence byte for byte, and
//! the merged report must match the serial report on a topology built
//! directly from netsim primitives (no scenarios layer involved).

use std::cell::RefCell;
use std::rc::Rc;

use netsim::flow::FlowSpec;
use netsim::link::LinkSpec;
use netsim::logic::{ForwardLogic, PoissonSource};
use netsim::shard::run_sharded;
use netsim::topology::TopologyBuilder;
use netsim::trace::{Observer, TraceEvent};
use sim_core::time::{SimDuration, SimTime};

/// Collects every packet event in arrival order.
#[derive(Debug, Default)]
struct VecTracer {
    log: Vec<(SimTime, TraceEvent)>,
}

impl Observer for VecTracer {
    fn record_event(&mut self, now: SimTime, event: &TraceEvent) {
        self.log.push((now, *event));
    }
}

/// A three-hop chain with two competing Poisson flows through a tight
/// middle link — enough contention for enqueues, drops and deliveries
/// to all appear in the trace.
fn chain() -> TopologyBuilder {
    let mut b = TopologyBuilder::new(42);
    let a = b.node("a", |seed| Box::new(PoissonSource::new(seed, 400.0)));
    let m = b.node("m", |_| Box::new(ForwardLogic));
    let z = b.node("z", |_| Box::new(ForwardLogic));
    b.link(
        a,
        m,
        LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40),
    );
    b.link(
        m,
        z,
        LinkSpec::new(1_000_000, SimDuration::from_millis(10), 10),
    );
    b.flow(FlowSpec::new(vec![a, m, z], 1).active(SimTime::ZERO, None));
    b.flow(FlowSpec::new(vec![a, m, z], 2).active(SimTime::ZERO, None));
    b
}

#[test]
fn sharded_event_stream_matches_serial_observer() {
    let end = SimTime::from_secs(5);

    let tracer = Rc::new(RefCell::new(VecTracer::default()));
    let mut b = chain();
    b.observer(tracer.clone());
    let mut net = b.build();
    net.run_until(end);
    let serial_report = net.into_report(end);
    let serial_log = std::mem::take(&mut tracer.borrow_mut().log);
    assert!(!serial_log.is_empty(), "serial tracer recorded nothing");

    for shards in [2usize, 3] {
        let replayed = RefCell::new(VecTracer::default());
        let outcome = run_sharded(chain, shards, end, Some(&replayed));
        assert_eq!(
            serial_log,
            replayed.into_inner().log,
            "trace stream diverged at {shards} shards"
        );
        assert_eq!(
            format!("{serial_report:?}"),
            format!("{:?}", outcome.report),
            "report diverged at {shards} shards"
        );
    }
}
