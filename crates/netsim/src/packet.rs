//! Packets and the Corelite marker they may carry.
//!
//! Every queued packet event carries a whole [`Packet`], so its layout is
//! packed to 48 bytes: the per-flow state a core router reads (the
//! Corelite marker or the CSFQ label, and the go-back-N sequence number)
//! rides in three packed words instead of three `Option` fields. See
//! DESIGN.md §11 for the before/after sizes.

use std::fmt;

use sim_core::time::SimTime;

use crate::ids::{FlowId, NodeId, PacketId};

/// A Corelite marker, logically distinct from — but physically piggybacked
/// on — a data packet.
///
/// The paper (§2): *"The source address of the marker is the edge router
/// that generated it, and the contents of the marker identify the packet
/// flow to which it corresponds"*, and for the stateless selector (§3.2)
/// the edge *"also puts the normalized packet transmission rate,
/// `r_n = b_g/w`, for the flow in the marker packet"*.
///
/// On the wire a packet stores only `edge` and `normalized_rate`: the
/// flow is the carrying packet's own [`Packet::flow`], and
/// [`Packet::marker`] rebuilds this value from it. The `flow` field stays
/// here for the places that hold a marker apart from its packet —
/// `ControlMsg::MarkerFeedback` and the core router's marker cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Marker {
    /// The flow this marker belongs to.
    pub flow: FlowId,
    /// The edge router that generated the marker (the marker's source
    /// address); feedback is sent back to this node.
    pub edge: NodeId,
    /// The flow's normalized transmission rate `r_n = b_g(f)/w(f)` at the
    /// time the marker was injected, in packets per second per unit weight.
    pub normalized_rate: f64,
}

/// Transport sequencing metadata carried by packets of an ack-clocked
/// (go-back-N) flow, as returned by [`Packet::seq`]. Open-loop sources
/// carry none and take the legacy delivery path untouched.
///
/// A packet stores it packed into one `u64` (bit 63 = retransmit, the low
/// 63 bits = `seq`, `u64::MAX` = none), so `seq` is at most
/// [`SeqInfo::MAX_SEQ`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqInfo {
    /// Zero-based cumulative sequence number within the flow.
    pub seq: u64,
    /// Whether this is a retransmission. Retransmits keep the *original*
    /// [`Packet::sent_at`] (so flow-completion accounting sees the first
    /// attempt), and the egress echoes this flag in the ack so the
    /// sender's RTT estimator can apply Karn's rule.
    pub retransmit: bool,
}

impl SeqInfo {
    /// The largest sequence number a packet can carry: `2^63 − 2`. The
    /// packed word spends bit 63 on the retransmit flag and reserves
    /// `u64::MAX` (which would otherwise be `2^63 − 1` retransmitted) for
    /// "no sequence number".
    pub const MAX_SEQ: u64 = (1 << 63) - 2;
}

/// Packed seq word of an open-loop packet.
const SEQ_NONE: u64 = u64::MAX;
/// Retransmit flag in the packed seq word.
const SEQ_RETRANSMIT: u64 = 1 << 63;
/// Tag word of a packet carrying neither a marker nor a label.
const TAG_NONE: u32 = u32::MAX;
/// Tag word of a packet whose rate slot holds a CSFQ label.
const TAG_LABEL: u32 = u32::MAX - 1;

/// A data packet traversing the network.
///
/// Marker packets are carried piggybacked (see [`Packet::marker`]): they
/// consume no link capacity of their own, matching the paper's note that
/// a marker "may be physically piggybacked to a data packet". A packet
/// may instead carry a CSFQ label ([`Packet::label`]) when running the
/// baseline; the two share one rate slot, so a packet carries at most
/// one of them.
///
/// Layout (48 bytes): `id`, `flow`, `sent_at`, `size`, plus
/// - a *seq word* (`u64`): `u64::MAX` for open-loop traffic, otherwise
///   the sequence number with bit 63 as the retransmit flag;
/// - a *tag word* (`u32`): none, CSFQ label, or the raw [`NodeId`] of the
///   marker's origin edge;
/// - a *rate slot* (`f64`): the marker's `r_n` or the CSFQ label, as the
///   tag word says; `0.0` when the tag is none, so the derived
///   `PartialEq` compares only meaningful state.
#[derive(Clone, PartialEq)]
pub struct Packet {
    /// Unique packet identifier.
    pub id: PacketId,
    /// The flow the packet belongs to.
    pub flow: FlowId,
    /// Time the ingress edge emitted the packet.
    pub sent_at: SimTime,
    /// Payload size in bytes (the paper uses 1 KB packets throughout).
    pub size: u32,
    tag: u32,
    seq: u64,
    rate: f64,
}

const _: () = assert!(std::mem::size_of::<Packet>() <= 48);

impl Packet {
    /// Creates a plain data packet.
    pub fn data(id: PacketId, flow: FlowId, size: u32, sent_at: SimTime) -> Self {
        Packet {
            id,
            flow,
            sent_at,
            size,
            tag: TAG_NONE,
            seq: SEQ_NONE,
            rate: 0.0,
        }
    }

    /// The piggybacked Corelite marker, if this is the `N_w`-th packet.
    /// Its `flow` is the packet's own.
    pub fn marker(&self) -> Option<Marker> {
        match self.tag {
            TAG_NONE | TAG_LABEL => None,
            edge => Some(Marker {
                flow: self.flow,
                edge: NodeId(edge),
                normalized_rate: self.rate,
            }),
        }
    }

    /// Attaches (`Some`) or strips (`None`) the Corelite marker. The
    /// marker must belong to this packet's flow and the packet must not
    /// carry a CSFQ label (both debug-asserted); stripping leaves a label
    /// in place.
    pub fn set_marker(&mut self, marker: Option<Marker>) {
        match marker {
            Some(m) => {
                debug_assert_eq!(m.flow, self.flow, "marker for another flow");
                debug_assert!(self.tag != TAG_LABEL, "marker would overwrite a CSFQ label");
                debug_assert!(m.edge.0 < TAG_LABEL, "node id collides with a tag sentinel");
                self.tag = m.edge.0;
                self.rate = m.normalized_rate;
            }
            None if self.tag != TAG_LABEL => {
                self.tag = TAG_NONE;
                self.rate = 0.0;
            }
            None => {}
        }
    }

    /// The CSFQ label: the flow's estimated normalized rate, stamped by
    /// the ingress edge and re-labelled by congested core routers.
    pub fn label(&self) -> Option<f64> {
        (self.tag == TAG_LABEL).then_some(self.rate)
    }

    /// Stamps (or re-stamps) the CSFQ label. The packet must not carry a
    /// marker (debug-asserted).
    pub fn set_label(&mut self, label: f64) {
        debug_assert!(
            matches!(self.tag, TAG_NONE | TAG_LABEL),
            "label would overwrite a Corelite marker"
        );
        self.tag = TAG_LABEL;
        self.rate = label;
    }

    /// Go-back-N sequencing metadata; `None` for open-loop traffic.
    pub fn seq(&self) -> Option<SeqInfo> {
        (self.seq != SEQ_NONE).then_some(SeqInfo {
            seq: self.seq & !SEQ_RETRANSMIT,
            retransmit: self.seq & SEQ_RETRANSMIT != 0,
        })
    }

    /// Attaches a Corelite marker (builder-style; see
    /// [`set_marker`](Self::set_marker)).
    pub fn with_marker(mut self, marker: Marker) -> Self {
        self.set_marker(Some(marker));
        self
    }

    /// Attaches a CSFQ label (builder-style; see
    /// [`set_label`](Self::set_label)).
    pub fn with_label(mut self, label: f64) -> Self {
        self.set_label(label);
        self
    }

    /// Attaches go-back-N sequencing metadata (builder-style). `seq` must
    /// not exceed [`SeqInfo::MAX_SEQ`] (debug-asserted).
    pub fn with_seq(mut self, seq: u64, retransmit: bool) -> Self {
        debug_assert!(
            seq <= SeqInfo::MAX_SEQ,
            "sequence number {seq} out of range"
        );
        self.seq = if retransmit {
            seq | SEQ_RETRANSMIT
        } else {
            seq
        };
        self
    }
}

/// Prints the packed words as the `Option`s they stand for, so no
/// sentinel value ever shows.
impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("id", &self.id)
            .field("flow", &self.flow)
            .field("size", &self.size)
            .field("marker", &self.marker())
            .field("label", &self.label())
            .field("sent_at", &self.sent_at)
            .field("seq", &self.seq())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet() -> Packet {
        Packet::data(PacketId(1), FlowId::from_index(2), 1000, SimTime::ZERO)
    }

    fn marker(rate: f64) -> Marker {
        Marker {
            flow: FlowId::from_index(2),
            edge: NodeId(7),
            normalized_rate: rate,
        }
    }

    #[test]
    fn data_packet_has_no_metadata() {
        let p = Packet::data(PacketId(0), FlowId::from_index(0), 1000, SimTime::ZERO);
        assert!(p.marker().is_none());
        assert!(p.label().is_none());
        assert!(p.seq().is_none());
    }

    #[test]
    fn builders_attach_metadata() {
        // A marker and a label share one rate slot, so each rides on its
        // own packet (see `marker_and_label_are_exclusive`).
        let p = packet().with_marker(marker(12.5)).with_seq(9, false);
        assert_eq!(p.marker().unwrap().normalized_rate, 12.5);
        assert_eq!(p.marker(), Some(marker(12.5)));
        assert_eq!(p.label(), None);
        assert_eq!(p.size, 1000);
        let p = packet().with_label(3.0).with_seq(9, true);
        assert_eq!(p.label(), Some(3.0));
        assert_eq!(p.marker(), None);
        assert_eq!(
            p.seq(),
            Some(SeqInfo {
                seq: 9,
                retransmit: true
            })
        );
    }

    #[test]
    fn marker_and_label_are_exclusive() {
        // Stripping the marker leaves a label alone.
        let mut p = packet().with_label(3.0);
        p.set_marker(None);
        assert_eq!(p.label(), Some(3.0));
        let mut p = packet().with_marker(marker(1.5));
        p.set_marker(None);
        assert_eq!(p, packet());
        // Relabelling a labelled packet is fine; attaching the other kind
        // is a debug assertion.
        let mut p = packet().with_label(3.0);
        p.set_label(4.0);
        assert_eq!(p.label(), Some(4.0));
        if cfg!(debug_assertions) {
            let labelled = packet().with_label(3.0);
            assert!(std::panic::catch_unwind(|| labelled.with_marker(marker(1.0))).is_err());
            let marked = packet().with_marker(marker(1.0));
            assert!(std::panic::catch_unwind(|| marked.with_label(3.0)).is_err());
        }
    }

    #[test]
    fn marker_carries_the_packets_own_flow() {
        let mut p = packet().with_marker(marker(2.0));
        assert_eq!(p.marker().unwrap().flow, p.flow);
        // The flow is not stored twice: the marker follows the packet.
        p.flow = FlowId::with_generation(2, 1);
        assert_eq!(p.marker().unwrap().flow, FlowId::with_generation(2, 1));
        if cfg!(debug_assertions) {
            let other = Marker {
                flow: FlowId::from_index(3),
                ..marker(2.0)
            };
            assert!(std::panic::catch_unwind(|| packet().with_marker(other)).is_err());
        }
    }

    #[test]
    fn seq_round_trips_at_both_ends_of_its_range() {
        for seq in [0, SeqInfo::MAX_SEQ] {
            for retransmit in [false, true] {
                let p = packet().with_seq(seq, retransmit);
                assert_eq!(p.seq(), Some(SeqInfo { seq, retransmit }));
            }
        }
        assert_eq!(SeqInfo::MAX_SEQ, (1 << 63) - 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn with_seq_rejects_the_reserved_range() {
        let _ = packet().with_seq(1 << 63, false);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn with_seq_rejects_the_sentinel_sequence_number() {
        let _ = packet().with_seq((1 << 63) - 1, true);
    }

    #[test]
    fn debug_prints_options_not_sentinels() {
        // Field for field what the derived `Debug` of the unpacked
        // layout (`marker`/`label`/`seq` as `Option` fields) printed.
        assert_eq!(
            format!("{:?}", packet()),
            "Packet { id: PacketId(1), flow: FlowId(2), size: 1000, marker: None, \
             label: None, sent_at: SimTime(0), seq: None }"
        );
        assert_eq!(
            format!("{:?}", packet().with_marker(marker(12.5)).with_seq(4, true)),
            "Packet { id: PacketId(1), flow: FlowId(2), size: 1000, \
             marker: Some(Marker { flow: FlowId(2), edge: NodeId(7), normalized_rate: 12.5 }), \
             label: None, sent_at: SimTime(0), seq: Some(SeqInfo { seq: 4, retransmit: true }) }"
        );
        assert_eq!(
            format!("{:?}", packet().with_label(0.5)),
            "Packet { id: PacketId(1), flow: FlowId(2), size: 1000, marker: None, \
             label: Some(0.5), sent_at: SimTime(0), seq: None }"
        );
    }
}
