//! Paced emission chains: the one mechanism every shaping edge uses to
//! emit a flow (or an aggregate) at a rate.
//!
//! A paced edge keeps at most one emission timer outstanding per key.
//! Each fire emits a packet and re-arms one gap later. Two things make
//! that safe under stops, restarts and recycled flow slots:
//!
//! * a per-slot **generation guard** (`ChainGuard`). Every timer
//!   carries `(generation << 32) | slot` as its param, and a start or
//!   stop bumps the slot's generation. A timer armed by a finished
//!   activation, or by a recycled slot's previous occupant, is then
//!   recognized as stale and dropped instead of feeding a chain it no
//!   longer owns.
//! * a per-key [`Chain`] value embedded in the edge's own per-flow (or
//!   per-group) record: the pending timer's param, so a chain is never
//!   doubled, and a one-entry `1/rate` gap memo.
//!
//! [`Pacer`] bundles the guard with the [`ActiveSet`] of started keys
//! that per-epoch scans walk. The edges keep only what is theirs:
//! markers, labels, buffers, round-robin and the rate source.
//!
//! Timer params never enter event order (the queue keys on the
//! dispatching site and a push sequence number), so the encoding is free
//! to change; what a paced edge must keep stable is the order, number
//! and delay of its `set_timer` calls.

use std::marker::PhantomData;

use sim_core::time::SimDuration;

use crate::ids::FlowId;
use crate::logic::{Ctx, TimerKind};
use crate::slab::{ActiveSet, SlabKey};

/// Per-slot generation counters for timer chains keyed by slot.
///
/// One generation covers every chain of a slot: `GbnSender`'s RTO and
/// tick chains share it, and a bump kills both.
#[derive(Debug, Clone)]
pub(crate) struct ChainGuard<K: SlabKey> {
    gens: Vec<u32>,
    _key: PhantomData<K>,
}

/// Every slot starts at generation 0.
impl<K: SlabKey> Default for ChainGuard<K> {
    fn default() -> Self {
        ChainGuard {
            gens: Vec::new(),
            _key: PhantomData,
        }
    }
}

impl<K: SlabKey> ChainGuard<K> {
    /// Invalidates every timer armed for `key`'s slot so far.
    pub(crate) fn bump(&mut self, key: K) {
        let idx = key.index();
        if idx >= self.gens.len() {
            self.gens.resize(idx + 1, 0);
        }
        self.gens[idx] = self.gens[idx].wrapping_add(1);
    }

    /// The timer param for `key`'s current chains: generation in the
    /// high 32 bits, slot index in the low 32.
    pub(crate) fn param(&self, key: K) -> u64 {
        let idx = key.index();
        let gen = self.gens.get(idx).copied().unwrap_or(0);
        (u64::from(gen) << 32) | idx as u64
    }

    /// The slot a timer param was armed for, or `None` if the slot's
    /// generation moved on since (the chain is stale).
    pub(crate) fn check(&self, param: u64) -> Option<K> {
        let idx = param as u32 as usize;
        let gen = (param >> 32) as u32;
        (self.gens.get(idx).copied().unwrap_or(0) == gen).then(|| K::from_index(idx))
    }
}

impl ChainGuard<FlowId> {
    /// Like [`check`](Self::check), resolved to the slot's current
    /// occupant (generation included), so packets emitted for it are
    /// attributed to the flow that armed the chain.
    pub(crate) fn resolve(&self, ctx: &Ctx<'_>, param: u64) -> Option<FlowId> {
        self.check(param).map(|slot| ctx.flow(slot).id)
    }
}

/// One key's emission chain, embedded in the edge's per-key record.
#[derive(Debug, Clone, Copy, Default)]
pub struct Chain {
    /// The param of the outstanding emission timer, if any. The chain
    /// is pending only while this matches the slot's current param, so
    /// a start or stop (a generation bump) also idles the chain.
    armed: Option<u64>,
    /// One-entry memo of `1 / rate` as a duration: rates change on
    /// epoch boundaries and feedback, while the conversion runs once
    /// per emitted packet. Bit-identical on hits.
    gap: (f64, SimDuration),
}

impl Chain {
    /// Marks the chain idle: its timer fired.
    pub fn fired(&mut self) {
        self.armed = None;
    }

    /// The inter-packet gap at `rate` packets per second.
    pub fn gap(&mut self, rate: f64) -> SimDuration {
        if self.gap.0 != rate {
            self.gap = (rate, SimDuration::from_secs_f64(1.0 / rate));
        }
        self.gap.1
    }
}

/// The emission-chain bookkeeping of one paced edge: the generation
/// guard, the set of started keys, and the timer tag its chains use.
#[derive(Debug, Clone)]
pub struct Pacer<K: SlabKey> {
    tag: u32,
    guard: ChainGuard<K>,
    active: ActiveSet<K>,
}

impl<K: SlabKey> Pacer<K> {
    /// A pacer whose emission timers carry `tag`.
    pub fn new(tag: u32) -> Self {
        Pacer {
            tag,
            guard: ChainGuard::default(),
            active: ActiveSet::new(),
        }
    }

    /// Keys currently started, in ascending slot order.
    pub fn active(&self) -> &ActiveSet<K> {
        &self.active
    }

    /// `key` starts: any chain left from a previous activation (or a
    /// recycled slot's previous occupant) dies, and `key` joins the
    /// active set.
    pub fn start(&mut self, key: K) {
        self.guard.bump(key);
        self.active.insert(key);
    }

    /// `key` stops: its outstanding chain dies and it leaves the active
    /// set.
    pub fn stop(&mut self, key: K) {
        self.guard.bump(key);
        self.active.remove(key);
    }

    /// Kills `key`'s outstanding chain but keeps it in the active set.
    pub fn invalidate(&mut self, key: K) {
        self.guard.bump(key);
    }

    /// Arms `key`'s chain to fire after `delay`, unless a timer is
    /// already outstanding.
    pub fn arm(&self, ctx: &mut Ctx<'_>, key: K, chain: &mut Chain, delay: SimDuration) {
        let param = self.guard.param(key);
        if chain.armed != Some(param) {
            chain.armed = Some(param);
            ctx.set_timer(delay, TimerKind::with_param(self.tag, param));
        }
    }

    /// Arms `key`'s chain one gap at `rate` from now, unless a timer is
    /// already outstanding.
    pub fn pace(&self, ctx: &mut Ctx<'_>, key: K, chain: &mut Chain, rate: f64) {
        let gap = chain.gap(rate);
        self.arm(ctx, key, chain, gap);
    }

    /// The slot an emission timer was armed for, or `None` if its chain
    /// is stale. The caller marks the key's [`Chain`]
    /// [`fired`](Chain::fired) before emitting or re-arming.
    pub fn fire(&self, timer: TimerKind) -> Option<K> {
        self.guard.check(timer.param)
    }
}

impl Pacer<FlowId> {
    /// Like [`fire`](Self::fire), resolved to the slot's current
    /// occupant (generation included), so packets emitted for it are
    /// attributed to the flow that armed the chain.
    pub fn fire_flow(&self, ctx: &Ctx<'_>, timer: TimerKind) -> Option<FlowId> {
        self.guard.resolve(ctx, timer.param)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_makes_earlier_params_stale() {
        let mut guard: ChainGuard<FlowId> = ChainGuard::default();
        let f = FlowId::from_index(3);
        let before = guard.param(f);
        assert_eq!(
            guard.check(before),
            Some(f),
            "unbumped slots are at generation 0"
        );
        guard.bump(f);
        assert_eq!(guard.check(before), None);
        let after = guard.param(f);
        assert_eq!(guard.check(after), Some(f));
        // Other slots are unaffected.
        let g = FlowId::from_index(1);
        assert_eq!(guard.check(guard.param(g)), Some(g));
    }

    #[test]
    fn gap_memo_is_bit_identical() {
        let mut chain = Chain::default();
        for rate in [1.0, 3.0, 3.0, 7.5, 1.0] {
            assert_eq!(chain.gap(rate), SimDuration::from_secs_f64(1.0 / rate));
        }
    }

    #[test]
    fn start_and_stop_track_the_active_set() {
        let mut pacer: Pacer<FlowId> = Pacer::new(2);
        pacer.start(FlowId::from_index(4));
        pacer.start(FlowId::from_index(1));
        let order: Vec<usize> = pacer.active().iter().map(|k| k.index()).collect();
        assert_eq!(order, vec![1, 4]);
        let param = pacer.guard.param(FlowId::from_index(4));
        pacer.invalidate(FlowId::from_index(4));
        assert_eq!(pacer.active().len(), 2, "invalidate keeps membership");
        assert_eq!(pacer.fire(TimerKind::with_param(2, param)), None);
        pacer.stop(FlowId::from_index(4));
        assert_eq!(pacer.active().len(), 1);
    }
}
