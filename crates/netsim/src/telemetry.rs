//! Control-plane telemetry: epoch-grained introspection samples.
//!
//! Packet events show the data plane; they are blind to the *control
//! plane* — the congestion-detector and selector scalars (`q_avg`,
//! `r_av`, `w_av`, `p_w`) and the per-flow rate machinery (`b_g`, the
//! phase machine, the per-epoch feedback maximum `m(f)`) whose evolution
//! is what a rate-control scheme actually is. Router logic publishes
//! these as named per-epoch [`Sample`]s through
//! [`Ctx::publish`](crate::logic::Ctx::publish); they reach the run's
//! [`Observer`](crate::trace::Observer) through
//! [`record_sample`](crate::trace::Observer::record_sample), interleaved
//! with the packet events in simulation order.
//!
//! # The zero-allocation contract
//!
//! Publishing happens inside the per-event hot path (epoch timers fire
//! thousands of times per run), so the whole pipeline is allocation-free:
//!
//! * [`Sample`] is `Copy` and its name is a `&'static str` — building one
//!   never touches the heap;
//! * [`Ctx::publish`](crate::logic::Ctx::publish) with no observer
//!   installed is a single `Option` check — an unobserved run performs
//!   zero extra work and zero allocations per event;
//! * [`RingProbe`] records into a buffer preallocated at construction,
//!   overwriting the oldest sample (and counting the loss) once full.
//!
//! The contract is enforced twice: the `hot-alloc` simlint rule covers
//! this module's `record_sample` path statically, and
//! `crates/netsim/tests/zero_alloc.rs` pins it with a counting global
//! allocator, observer installed and publishing.
//!
//! Exporting ([`RingProbe::to_jsonl`], [`RingProbe::series`]) runs after
//! the simulation and may allocate freely.

use std::fmt::Write as _;

use sim_core::stats::TimeSeries;
use sim_core::time::SimTime;

use crate::ids::{FlowId, LinkId, NodeId};
use crate::trace::Observer;

/// One named control-plane measurement published by router logic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Metric name (`"q_avg"`, `"r_av"`, `"b_g"`, ...). Static so that
    /// building a sample on the hot path never allocates.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// The flow the sample concerns, for per-flow metrics.
    pub flow: Option<FlowId>,
    /// The link the sample concerns, for per-link metrics.
    pub link: Option<LinkId>,
}

impl Sample {
    /// A node-scoped scalar sample.
    pub fn scalar(name: &'static str, value: f64) -> Self {
        Sample {
            name,
            value,
            flow: None,
            link: None,
        }
    }

    /// A per-flow sample (controller state such as `b_g` or `m(f)`).
    pub fn for_flow(name: &'static str, flow: FlowId, value: f64) -> Self {
        Sample {
            name,
            value,
            flow: Some(flow),
            link: None,
        }
    }

    /// A per-link sample (detector and selector state such as `q_avg`).
    pub fn for_link(name: &'static str, link: LinkId, value: f64) -> Self {
        Sample {
            name,
            value,
            flow: None,
            link: Some(link),
        }
    }
}

/// A recorded sample: when and where it was published.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeRecord {
    /// Publication time.
    pub time: SimTime,
    /// The node whose logic published the sample.
    pub node: NodeId,
    /// The sample itself.
    pub sample: Sample,
}

impl ProbeRecord {
    /// Renders the record as one JSON object (one JSONL line, without
    /// the trailing newline). Field order and float formatting are fixed,
    /// so equal streams render byte-identically.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"t\":{:.6},\"node\":{},\"name\":\"{}\",\"value\":{}",
            self.time.as_secs_f64(),
            self.node.index(),
            self.sample.name,
            self.sample.value
        );
        if let Some(flow) = self.sample.flow {
            let _ = write!(out, ",\"flow\":{}", flow.index());
        }
        if let Some(link) = self.sample.link {
            let _ = write!(out, ",\"link\":{}", link.index());
        }
        out.push('}');
        out
    }
}

/// An observer recording samples into a preallocated ring buffer
/// (packet events are ignored).
///
/// Recording never allocates: the backing storage is reserved at
/// construction, and once `capacity` records have been written the oldest
/// are overwritten (the [`dropped`](RingProbe::dropped) counter tracks how
/// many were lost). Size the ring for the run — per-epoch publication
/// rates are small and predictable.
#[derive(Debug, Clone)]
pub struct RingProbe {
    records: Vec<ProbeRecord>,
    capacity: usize,
    /// Next write position once the ring is full (the oldest record).
    head: usize,
    dropped: u64,
}

impl RingProbe {
    /// Creates a ring holding up to `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "probe ring must hold at least one record");
        RingProbe {
            records: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The ring's capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records lost to ring overflow (oldest-first).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates over the held records in publication order (oldest
    /// first).
    pub fn iter(&self) -> impl Iterator<Item = &ProbeRecord> {
        let (older, newer) = self.records.split_at(self.head.min(self.records.len()));
        newer.iter().chain(older.iter())
    }

    /// Extracts the time series of metric `name`, optionally filtered by
    /// publishing node, flow, and link.
    pub fn series(
        &self,
        name: &str,
        node: Option<NodeId>,
        flow: Option<FlowId>,
        link: Option<LinkId>,
    ) -> TimeSeries {
        let mut out = TimeSeries::new();
        for r in self.iter() {
            if r.sample.name == name
                && node.is_none_or(|n| r.node == n)
                && flow.is_none_or(|f| r.sample.flow == Some(f))
                && link.is_none_or(|l| r.sample.link == Some(l))
            {
                out.push(r.time, r.sample.value);
            }
        }
        out
    }

    /// Renders the held records as JSONL, one record per line, in
    /// publication order. Deterministic runs render byte-identically.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.iter() {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }
}

impl Observer for RingProbe {
    fn record_sample(&mut self, now: SimTime, node: NodeId, sample: &Sample) {
        let record = ProbeRecord {
            time: now,
            node,
            sample: *sample,
        };
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.records[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn sample(name: &'static str, value: f64) -> Sample {
        Sample::scalar(name, value)
    }

    #[test]
    fn ring_records_in_order_until_capacity() {
        let mut p = RingProbe::with_capacity(8);
        for i in 0..5 {
            p.record_sample(t(i as f64), NodeId::from_index(0), &sample("x", i as f64));
        }
        assert_eq!(p.len(), 5);
        assert_eq!(p.dropped(), 0);
        let values: Vec<f64> = p.iter().map(|r| r.sample.value).collect();
        assert_eq!(values, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut p = RingProbe::with_capacity(3);
        for i in 0..5 {
            p.record_sample(t(i as f64), NodeId::from_index(0), &sample("x", i as f64));
        }
        assert_eq!(p.len(), 3);
        assert_eq!(p.dropped(), 2);
        let values: Vec<f64> = p.iter().map(|r| r.sample.value).collect();
        assert_eq!(values, vec![2.0, 3.0, 4.0], "oldest records are evicted");
    }

    #[test]
    fn series_filters_by_name_node_flow_and_link() {
        let mut p = RingProbe::with_capacity(16);
        let n0 = NodeId::from_index(0);
        let n1 = NodeId::from_index(1);
        let f0 = FlowId::from_index(0);
        let l2 = LinkId::from_index(2);
        p.record_sample(t(1.0), n0, &Sample::for_flow("b_g", f0, 10.0));
        p.record_sample(t(1.0), n1, &Sample::for_link("q_avg", l2, 3.0));
        p.record_sample(t(2.0), n0, &Sample::for_flow("b_g", f0, 12.0));
        p.record_sample(t(2.0), n0, &sample("other", 99.0));
        let bg = p.series("b_g", Some(n0), Some(f0), None);
        assert_eq!(bg.len(), 2);
        assert_eq!(bg.last_value(), Some(12.0));
        let q = p.series("q_avg", None, None, Some(l2));
        assert_eq!(q.len(), 1);
        assert!(p.series("b_g", Some(n1), None, None).is_empty());
    }

    #[test]
    fn jsonl_is_stable_and_parseable_shaped() {
        let mut p = RingProbe::with_capacity(4);
        p.record_sample(
            t(1.5),
            NodeId::from_index(3),
            &Sample::for_link("q_avg", LinkId::from_index(2), 0.25),
        );
        p.record_sample(
            t(2.0),
            NodeId::from_index(1),
            &Sample::for_flow("b_g", FlowId::from_index(0), 42.0),
        );
        let jsonl = p.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[0],
            "{\"t\":1.500000,\"node\":3,\"name\":\"q_avg\",\"value\":0.25,\"link\":2}"
        );
        assert_eq!(
            lines[1],
            "{\"t\":2.000000,\"node\":1,\"name\":\"b_g\",\"value\":42,\"flow\":0}"
        );
        // Rendering twice is byte-identical.
        assert_eq!(jsonl, p.to_jsonl());
    }

    #[test]
    fn counting_probe_counts() {
        let mut p = crate::trace::CountingObserver::default();
        p.record_sample(t(0.0), NodeId::from_index(0), &sample("x", 1.0));
        p.record_sample(t(1.0), NodeId::from_index(0), &sample("x", 2.0));
        assert_eq!(p.samples, 2);
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn zero_capacity_rejected() {
        RingProbe::with_capacity(0);
    }
}
