//! Packet-level tracing for debugging router logic: install one
//! [`Observer`] that writes every enqueue, drop, delivery and control
//! message as a [`CsvTracer`] row, in simulation order, and tallies the
//! control-plane samples the routers publish in the same stream.
//!
//! ```text
//! cargo run --release -p scenarios --example trace_debugging
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use corelite::{CoreliteConfig, CoreliteCore, CoreliteEdge};
use netsim::flow::FlowSpec;
use netsim::link::LinkSpec;
use netsim::logic::ForwardLogic;
use netsim::telemetry::Sample;
use netsim::topology::TopologyBuilder;
use netsim::trace::{CountingObserver, CsvTracer, Observer, TraceEvent};
use netsim::NodeId;
use sim_core::time::{SimDuration, SimTime};

/// One observer, two jobs: CSV rows for the packet events, and a tally
/// of every record kind, samples included.
struct Debugger {
    csv: CsvTracer<Vec<u8>>,
    counts: CountingObserver,
}

impl Observer for Debugger {
    fn record_event(&mut self, now: SimTime, event: &TraceEvent) {
        self.csv.record_event(now, event);
        self.counts.record_event(now, event);
    }

    fn record_sample(&mut self, now: SimTime, node: NodeId, sample: &Sample) {
        self.counts.record_sample(now, node, sample);
    }
}

fn main() {
    // A short congested run with the observer capturing everything.
    let cfg = CoreliteConfig::default();
    let debugger = Rc::new(RefCell::new(Debugger {
        csv: CsvTracer::new(Vec::new()),
        counts: CountingObserver::default(),
    }));

    let mut b = TopologyBuilder::new(5);
    b.observer(debugger.clone());
    let e1 = b.node("edge1", |s| Box::new(CoreliteEdge::new(s, cfg.clone())));
    let e2 = b.node("edge2", |s| Box::new(CoreliteEdge::new(s, cfg.clone())));
    let core = b.node("core", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
    let sink = b.node("sink", |_| Box::new(ForwardLogic));
    let access = LinkSpec::new(40_000_000, SimDuration::from_millis(1), 400);
    b.link(e1, core, access);
    b.link(e2, core, access);
    b.link(
        core,
        sink,
        LinkSpec::new(1_000_000, SimDuration::from_millis(10), 40), // 125 pkt/s
    );
    b.flow(FlowSpec::new(vec![e1, core, sink], 1).active(SimTime::ZERO, None));
    b.flow(FlowSpec::new(vec![e2, core, sink], 2).active(SimTime::ZERO, None));

    let end = SimTime::from_secs(30);
    let mut net = b.build();
    net.run_until(end);
    let report = net.into_report(end);

    let Debugger { csv, counts } = Rc::try_unwrap(debugger)
        .ok()
        .expect("sole owner")
        .into_inner();
    let rows = csv.rows();
    let text = String::from_utf8(csv.into_inner()).expect("utf8 trace");

    println!("captured {rows} packet-level events; first 12 rows:\n");
    for line in text.lines().take(13) {
        println!("  {line}");
    }
    // The control rows are the marker feedback driving the rate control.
    let feedback_rows = text
        .lines()
        .filter(|l| l.contains(",control,") && l.contains("feedback=true"))
        .count();
    println!("\nmarker-feedback control events: {feedback_rows}");
    println!(
        "deliveries traced: {} (matches the report: {})",
        text.lines().filter(|l| l.contains(",deliver,")).count(),
        report
            .flows
            .iter()
            .map(|f| f.delivered_packets)
            .sum::<u64>(),
    );
    println!(
        "\nPipe the CSV into your own tooling, or install a CountingObserver\n\
         ({counts:?}) when only totals matter."
    );
}
