//! The run observer: one sink for packet events and control-plane
//! samples.
//!
//! An [`Observer`] installed via
//! [`TopologyBuilder::observer`](crate::topology::TopologyBuilder::observer)
//! receives two kinds of record, interleaved in simulation order:
//!
//! * every packet-level [`TraceEvent`] the network processes —
//!   enqueues, drops, deliveries, control messages and faults — through
//!   [`Observer::record_event`];
//! * every control-plane [`Sample`] router logic publishes through
//!   [`Ctx::publish`](crate::logic::Ctx::publish) (see
//!   [`telemetry`](crate::telemetry)) through [`Observer::record_sample`].
//!
//! Both methods default to no-ops, so a sink implements only the kind it
//! wants. Because the two kinds share one stream, a sink sees the
//! markers a core forwards and the per-epoch selector state (`r_av`,
//! `w_av`, `p_w`) that decides their feedback in the order they
//! happened.
//!
//! Implementations shipped with the crate: [`CsvTracer`] writes one CSV
//! row per packet event to any [`std::io::Write`]; [`CountingObserver`]
//! merely tallies record kinds (cheap enough to leave on in tests);
//! [`RingProbe`](crate::telemetry::RingProbe) keeps the samples.

use std::io::Write;

use sim_core::time::SimTime;

use crate::ids::{FlowId, LinkId, NodeId, PacketId};
use crate::logic::DropReason;
use crate::telemetry::Sample;

/// One packet-level event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A packet was accepted into `link`'s queue at its source node.
    Enqueue {
        /// The link.
        link: LinkId,
        /// The packet.
        packet: PacketId,
        /// The packet's flow.
        flow: FlowId,
        /// Queue occupancy after the enqueue, packets.
        queue_len: usize,
    },
    /// A packet was dropped.
    Drop {
        /// Node at which the drop occurred.
        node: NodeId,
        /// The packet.
        packet: PacketId,
        /// The packet's flow.
        flow: FlowId,
        /// Tail drop or router-logic (policy) drop.
        reason: DropReason,
    },
    /// A packet reached its flow's egress.
    Deliver {
        /// The egress node.
        node: NodeId,
        /// The packet.
        packet: PacketId,
        /// The packet's flow.
        flow: FlowId,
    },
    /// A control message (marker feedback or loss notification) was
    /// delivered to `node`.
    Control {
        /// The receiving node.
        node: NodeId,
        /// The flow the message concerns.
        flow: FlowId,
        /// `true` for marker feedback, `false` for a loss notification.
        is_feedback: bool,
    },
    /// A fault was injected (see [`FaultPlan`](crate::fault::FaultPlan)).
    Fault {
        /// What kind of fault fired.
        kind: FaultKind,
        /// The node at which the fault took effect.
        node: NodeId,
        /// The flow affected, when one is identifiable.
        flow: Option<FlowId>,
    },
}

/// The kinds of injected fault an observer can see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A control message was discarded in transit.
    ControlLost,
    /// A control message was delayed beyond its nominal delivery time.
    ControlDelayed,
    /// A piggybacked marker was removed from a data packet.
    MarkerStripped,
    /// A packet entered a flapped (down) link and was dropped.
    LinkDown,
    /// A paused router blind-forwarded a packet or deferred an event.
    RouterPaused,
}

impl TraceEvent {
    /// Short lowercase tag for the event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Enqueue { .. } => "enqueue",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::Deliver { .. } => "deliver",
            TraceEvent::Control { .. } => "control",
            TraceEvent::Fault { .. } => "fault",
        }
    }
}

/// Observes a run's records in simulation order.
///
/// Records arrive in non-decreasing time order, packet events and
/// samples interleaved as the engine produced them. Implementations must
/// not allocate in [`record_sample`](Observer::record_sample) if they are
/// to preserve the engine's zero-alloc contract (see
/// [`telemetry`](crate::telemetry)).
pub trait Observer {
    /// Called for every packet-level event.
    fn record_event(&mut self, now: SimTime, event: &TraceEvent) {
        let _ = (now, event);
    }

    /// Called for every control-plane sample, with the node whose logic
    /// published it.
    fn record_sample(&mut self, now: SimTime, node: NodeId, sample: &Sample) {
        let _ = (now, node, sample);
    }
}

/// Counts records per kind — a zero-configuration observer for tests and
/// quick sanity checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingObserver {
    /// Packets accepted into link queues.
    pub enqueues: u64,
    /// Packets dropped (any reason).
    pub drops: u64,
    /// Packets delivered to their egress.
    pub delivers: u64,
    /// Control messages delivered.
    pub controls: u64,
    /// Faults injected.
    pub faults: u64,
    /// Control-plane samples published.
    pub samples: u64,
}

impl Observer for CountingObserver {
    fn record_event(&mut self, _now: SimTime, event: &TraceEvent) {
        match event {
            TraceEvent::Enqueue { .. } => self.enqueues += 1,
            TraceEvent::Drop { .. } => self.drops += 1,
            TraceEvent::Deliver { .. } => self.delivers += 1,
            TraceEvent::Control { .. } => self.controls += 1,
            TraceEvent::Fault { .. } => self.faults += 1,
        }
    }

    fn record_sample(&mut self, _now: SimTime, _node: NodeId, _sample: &Sample) {
        self.samples += 1;
    }
}

/// Writes one CSV row per packet event:
/// `time,kind,node,link,packet,flow,extra`. Samples are ignored.
#[derive(Debug)]
pub struct CsvTracer<W: Write> {
    out: W,
    rows: u64,
}

impl<W: Write> CsvTracer<W> {
    /// Creates a tracer writing to `out`, emitting the header row
    /// immediately.
    ///
    /// # Panics
    ///
    /// Panics if the header cannot be written (tracing to a failing sink
    /// is a programming error in a simulation harness).
    pub fn new(mut out: W) -> Self {
        writeln!(out, "time,kind,node,link,packet,flow,extra").expect("write trace header");
        CsvTracer { out, rows: 0 }
    }

    /// Number of data rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Flushes buffered rows through to the sink. Call this before
    /// inspecting the sink mid-run when `W` buffers (e.g. a
    /// [`std::io::BufWriter`]).
    ///
    /// # Panics
    ///
    /// Panics if the sink fails.
    pub fn flush(&mut self) {
        self.out.flush().expect("flush trace sink");
    }

    /// Consumes the tracer, flushing and returning the underlying writer.
    ///
    /// Without the flush, rows buffered by `W` would be silently lost if
    /// the caller drops the writer without draining it.
    ///
    /// # Panics
    ///
    /// Panics if the sink fails to flush.
    pub fn into_inner(mut self) -> W {
        self.flush();
        self.out
    }
}

impl<W: Write> Observer for CsvTracer<W> {
    fn record_event(&mut self, now: SimTime, event: &TraceEvent) {
        let t = now.as_secs_f64();
        let result = match *event {
            TraceEvent::Enqueue {
                link,
                packet,
                flow,
                queue_len,
            } => writeln!(
                self.out,
                "{t:.6},enqueue,,{link},{packet},{flow},qlen={queue_len}"
            ),
            TraceEvent::Drop {
                node,
                packet,
                flow,
                reason,
            } => writeln!(
                self.out,
                "{t:.6},drop,{node},,{packet},{flow},reason={reason:?}"
            ),
            TraceEvent::Deliver { node, packet, flow } => {
                writeln!(self.out, "{t:.6},deliver,{node},,{packet},{flow},")
            }
            TraceEvent::Control {
                node,
                flow,
                is_feedback,
            } => writeln!(
                self.out,
                "{t:.6},control,{node},,,{flow},feedback={is_feedback}"
            ),
            TraceEvent::Fault { kind, node, flow } => {
                let flow = flow.map(|f| f.to_string()).unwrap_or_default();
                writeln!(self.out, "{t:.6},fault,{node},,,{flow},kind={kind:?}")
            }
        };
        result.expect("write trace row");
        self.rows += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that records what reached it and how often it was flushed.
    #[derive(Debug, Default)]
    struct FlushSink {
        data: Vec<u8>,
        flushes: usize,
    }

    impl Write for FlushSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.data.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn csv_tracer_flushes_explicitly_and_on_into_inner() {
        let mut tracer = CsvTracer::new(std::io::BufWriter::new(FlushSink::default()));
        tracer.record_event(
            SimTime::from_secs(1),
            &TraceEvent::Deliver {
                node: NodeId::from_index(0),
                packet: PacketId::from_sequence(1),
                flow: FlowId::from_index(0),
            },
        );
        tracer.flush();
        let buf = tracer.into_inner();
        let sink = buf.into_inner().expect("buffer already flushed");
        assert!(
            sink.flushes >= 2,
            "expected flush() and into_inner() to each reach the sink, saw {}",
            sink.flushes
        );
        let text = String::from_utf8(sink.data).unwrap();
        assert_eq!(text.lines().count(), 2, "header + one row reached the sink");
        assert!(text.lines().nth(1).unwrap().contains("deliver"));
    }

    #[test]
    fn counting_tracer_tallies_kinds() {
        let mut t = CountingObserver::default();
        let ev = TraceEvent::Deliver {
            node: NodeId::from_index(1),
            packet: PacketId::from_sequence(7),
            flow: FlowId::from_index(0),
        };
        t.record_event(SimTime::ZERO, &ev);
        t.record_event(SimTime::ZERO, &ev);
        t.record_event(
            SimTime::ZERO,
            &TraceEvent::Drop {
                node: NodeId::from_index(1),
                packet: PacketId::from_sequence(8),
                flow: FlowId::from_index(0),
                reason: DropReason::Tail,
            },
        );
        assert_eq!(t.delivers, 2);
        assert_eq!(t.drops, 1);
        assert_eq!(t.enqueues, 0);
        assert_eq!(ev.kind(), "deliver");
    }

    #[test]
    fn csv_tracer_writes_rows() {
        let mut tracer = CsvTracer::new(Vec::new());
        tracer.record_event(
            SimTime::from_millis(1500),
            &TraceEvent::Enqueue {
                link: LinkId::from_index(2),
                packet: PacketId::from_sequence(9),
                flow: FlowId::from_index(3),
                queue_len: 4,
            },
        );
        tracer.record_event(
            SimTime::from_secs(2),
            &TraceEvent::Control {
                node: NodeId::from_index(0),
                flow: FlowId::from_index(3),
                is_feedback: true,
            },
        );
        assert_eq!(tracer.rows(), 2);
        let text = String::from_utf8(tracer.into_inner()).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("time,kind,node,link,packet,flow,extra"));
        assert_eq!(lines.next(), Some("1.500000,enqueue,,l2,p9,f3,qlen=4"));
        assert_eq!(lines.next(), Some("2.000000,control,n0,,,f3,feedback=true"));
    }
}
