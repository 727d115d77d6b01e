//! A deterministic event queue for discrete-event simulation.
//!
//! Events are ordered by timestamp; events with equal timestamps are
//! delivered in insertion order (stable FIFO tie-break). This makes a
//! simulation run a pure function of its inputs and seed.
//!
//! Two interchangeable backends implement the same delivery contract:
//!
//! * [`QueueBackend::Wheel`] (the default) — a hand-rolled hierarchical
//!   timer wheel. Scheduling and delivery are O(1) amortized for the
//!   near-future events that dominate a packet-level simulation (link
//!   serialization plus propagation); events beyond the wheel horizon
//!   spill into a small overflow heap and migrate in as the clock
//!   reaches their window. See DESIGN.md §"Engine performance" for the
//!   layout.
//! * [`QueueBackend::Heap`] — the original `BinaryHeap` implementation,
//!   kept as [`HeapEventQueue`] for differential testing and as a
//!   reference for the ordering contract.
//!
//! The wheel assumes the simulation invariant that time never rewinds:
//! events must not be scheduled earlier than the latest delivered event
//! (debug-asserted; in release builds such a push is clamped to the
//! current tick). The heap backend has no such requirement.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Log2 of the wheel tick in nanoseconds: one tick is 2^17 ns ≈ 131 µs.
/// Events inside one tick are ordered exactly by `(time, seq)` — the
/// tick granularity batches *storage*, never delivery order — so the
/// tick size is a pure performance knob: it trades cascade depth
/// (cheaper with coarse ticks, since link-scale delays land directly in
/// the bottom levels) against the size of the per-tick sort (costlier
/// with coarse ticks). 131 µs keeps the per-tick population at a
/// handful of events for packet-level workloads while eliminating most
/// cascades; see DESIGN.md §"Engine performance".
const TICK_SHIFT: u32 = 17;
/// Bits per wheel level: 64 slots each.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels. Four 64-slot levels cover 2^24 ticks ≈ 36.6 simulated
/// minutes ahead of the current tick; anything farther overflows to a
/// heap.
const LEVELS: usize = 4;
/// Total tick bits the wheel resolves (24).
const WHEEL_BITS: u32 = LEVEL_BITS * LEVELS as u32;

/// Which data structure backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueBackend {
    /// Hierarchical timer wheel with overflow heap (default).
    Wheel,
    /// Binary heap (the seed implementation; reference semantics).
    Heap,
}

/// A timestamped event queue with deterministic ordering.
///
/// # Example
///
/// ```
/// use sim_core::event::EventQueue;
/// use sim_core::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(1), 'b');
/// q.push(SimTime::from_secs(1), 'c'); // same instant: FIFO order
/// q.push(SimTime::ZERO, 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    backend: Backend<E>,
}

#[derive(Debug, Clone)]
enum Backend<E> {
    Wheel(TimerWheel<E>),
    Heap(HeapEventQueue<E>),
}

impl<E> EventQueue<E> {
    /// Creates an empty wheel-backed queue.
    pub fn new() -> Self {
        EventQueue::with_backend(QueueBackend::Wheel, 0)
    }

    /// Creates an empty wheel-backed queue with capacity for `capacity`
    /// same-tick pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue::with_backend(QueueBackend::Wheel, capacity)
    }

    /// Creates an empty queue on the chosen backend.
    pub fn with_backend(backend: QueueBackend, capacity: usize) -> Self {
        EventQueue {
            backend: match backend {
                QueueBackend::Wheel => Backend::Wheel(TimerWheel::with_capacity(capacity)),
                QueueBackend::Heap => Backend::Heap(HeapEventQueue::with_capacity(capacity)),
            },
        }
    }

    /// The backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match &self.backend {
            Backend::Wheel(_) => QueueBackend::Wheel,
            Backend::Heap(_) => QueueBackend::Heap,
        }
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// On the wheel backend, `time` must not precede the latest
    /// delivered event's time (simulation time never rewinds); this is
    /// debug-asserted, and release builds clamp such an event to the
    /// current tick.
    pub fn push(&mut self, time: SimTime, event: E) {
        match &mut self.backend {
            Backend::Wheel(w) => w.push(time, event),
            Backend::Heap(h) => h.push(time, event),
        }
    }

    /// Schedules `event` to fire at `time` under a caller-chosen tie-break
    /// key instead of the internal insertion counter.
    ///
    /// Same-time events pop in ascending `key` order. Keys must be unique
    /// across the queue's lifetime (duplicate `(time, key)` pairs make the
    /// pop order unspecified), and a queue should use either `push` or
    /// `push_keyed` exclusively — mixing them interleaves the two key
    /// spaces arbitrarily. Caller keys let independently filled queues
    /// (e.g. one per topology shard) agree on a global total order.
    pub fn push_keyed(&mut self, time: SimTime, key: u64, event: E) {
        match &mut self.backend {
            Backend::Wheel(w) => w.push_keyed(time, key, event),
            Backend::Heap(h) => h.push_keyed(time, key, event),
        }
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Ties are broken by insertion order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match &mut self.backend {
            Backend::Wheel(w) => w.pop(),
            Backend::Heap(h) => h.pop(),
        }
    }

    /// Removes and returns the earliest event if its timestamp is at or
    /// before `end`; returns `None` (leaving the event pending) when the
    /// earliest event is later, or the queue is empty.
    ///
    /// Equivalent to a `peek_time`-check-then-`pop`, but in one call: a
    /// horizon-bounded dispatch loop pays for locating the minimum once
    /// per event instead of twice.
    pub fn pop_at_or_before(&mut self, end: SimTime) -> Option<(SimTime, E)> {
        self.pop_keyed_at_or_before(end)
            .map(|(time, _, event)| (time, event))
    }

    /// [`pop_at_or_before`](Self::pop_at_or_before), also returning the
    /// event's tie-break key: the insertion counter for [`push`], the
    /// caller's key for [`push_keyed`]. The queue stores the key anyway,
    /// so a caller that needs it back at pop time need not carry a second
    /// copy inside its event.
    ///
    /// [`push`]: Self::push
    /// [`push_keyed`]: Self::push_keyed
    pub fn pop_keyed_at_or_before(&mut self, end: SimTime) -> Option<(SimTime, u64, E)> {
        let e = match &mut self.backend {
            Backend::Wheel(w) => w.pop_entry_at_or_before(end),
            Backend::Heap(h) => h.pop_entry_at_or_before(end),
        }?;
        Some((e.time, e.seq, e.event))
    }

    /// Returns the timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            Backend::Wheel(w) => w.peek_time(),
            Backend::Heap(h) => h.peek_time(),
        }
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Wheel(w) => w.len(),
            Backend::Heap(h) => h.len(),
        }
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the total number of events delivered so far. Monotone
    /// over the queue's lifetime; [`clear`](Self::clear) does not reset
    /// it.
    pub fn delivered(&self) -> u64 {
        match &self.backend {
            Backend::Wheel(w) => w.delivered(),
            Backend::Heap(h) => h.delivered(),
        }
    }

    /// Removes all pending events without delivering them.
    ///
    /// Only *pending* state is discarded: [`delivered`](Self::delivered)
    /// keeps its count (cleared events were never delivered), and the
    /// internal FIFO sequence keeps advancing, so events pushed after a
    /// `clear` still tie-break after everything pushed before it. On the
    /// wheel backend the clock rewinds to zero, so a cleared queue can
    /// be reused for a fresh run starting at `SimTime::ZERO`.
    pub fn clear(&mut self) {
        match &mut self.backend {
            Backend::Wheel(w) => w.clear(),
            Backend::Heap(h) => h.clear(),
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// One scheduled event: `(time, seq)` is the delivery key.
#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted so that in a max-heap (and at the *back* of a sorted
        // vec) the earliest (time, seq) comes out first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The seed `BinaryHeap` event queue: same delivery contract as the
/// wheel, O(log n) per operation, no monotonic-push requirement. Kept
/// public for differential testing against the wheel backend.
#[derive(Debug, Clone)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    popped: u64,
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapEventQueue::with_capacity(0)
    }

    /// Creates an empty queue with capacity for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        HeapEventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            popped: 0,
        }
    }

    /// Schedules `event` to fire at `time` (any order allowed).
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Schedules `event` under a caller-chosen tie-break key (see
    /// [`EventQueue::push_keyed`]).
    pub fn push_keyed(&mut self, time: SimTime, key: u64, event: E) {
        self.heap.push(Entry {
            time,
            seq: key,
            event,
        });
    }

    /// Removes and returns the earliest event (FIFO on ties).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|e| (e.time, e.event))
    }

    fn pop_entry(&mut self) -> Option<Entry<E>> {
        let e = self.heap.pop()?;
        self.popped += 1;
        Some(e)
    }

    /// Pops the earliest event only if it fires at or before `end` (see
    /// [`EventQueue::pop_at_or_before`]).
    pub fn pop_at_or_before(&mut self, end: SimTime) -> Option<(SimTime, E)> {
        self.pop_entry_at_or_before(end).map(|e| (e.time, e.event))
    }

    fn pop_entry_at_or_before(&mut self, end: SimTime) -> Option<Entry<E>> {
        if self.heap.peek()?.time > end {
            return None;
        }
        self.pop_entry()
    }

    /// Returns the timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Returns the total number of events delivered so far (see
    /// [`EventQueue::delivered`]).
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Removes all pending events; `delivered()` and the FIFO sequence
    /// are preserved (see [`EventQueue::clear`]).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        HeapEventQueue::new()
    }
}

/// Hierarchical timer wheel.
///
/// Ticks are `time >> TICK_SHIFT`. Level `l` of the wheel stores every
/// pending event whose tick agrees with the current tick on all digits
/// above `l` (base-64 digits) and first differs at digit `l`; the slot
/// index is the event's digit `l`. Events whose tick differs above the
/// top level (≥ 2^24 ticks ahead) wait in `overflow`, a min-heap, and
/// migrate into the wheel when the clock enters their 2^24-tick window.
///
/// `cur` holds the current tick's events sorted ascending in `Entry`'s
/// inverted order (earliest at the back), so delivery is an O(1)
/// comparison-free `Vec::pop`. Events pushed *into the current tick
/// after it started* — a running transmission train scheduling within
/// its own tick, or the adversarial all-one-tick microbench — go to
/// `late`, a small max-heap in the same inverted order, instead of an
/// O(n) sorted insert into `cur`; `pop` merges the two sources by
/// comparing `cur.last()` against `late.peek()`. Since `(time, seq)` is
/// a total order (seqs are unique), the merged sequence is exactly the
/// globally sorted one, and slot events all carry later ticks than
/// anything in `cur`/`late`, so the pending minimum is always: best of
/// `cur`/`late`, else the lowest occupied slot of the lowest occupied
/// level, else the overflow top — which makes `peek_time` cheap and
/// `pop` lazy: the wheel only advances when both same-tick sources run
/// dry.
#[derive(Debug, Clone)]
struct TimerWheel<E> {
    /// Current tick's events, sorted ascending by `Entry`'s (inverted)
    /// order; the earliest event is at the back.
    cur: Vec<Entry<E>>,
    /// `LEVELS * SLOTS` buckets, indexed `level * SLOTS + slot`.
    slots: Vec<Vec<Entry<E>>>,
    /// One occupancy bitmap per level (bit `s` = slot `s` non-empty).
    occupied: [u64; LEVELS],
    /// Events beyond the wheel horizon, min-first.
    overflow: BinaryHeap<Entry<E>>,
    /// The tick of the most recent delivery (starts at 0). May run
    /// ahead of the last delivery up to the earliest *pending* tick: a
    /// bounded [`pop_entry_at_or_before`](Self::pop_entry_at_or_before)
    /// advances the wheel before discovering the next event lies beyond
    /// its horizon.
    now_tick: u64,
    /// Timestamp of the most recent delivery — the true monotonic floor
    /// for pushes. Events between `floor` and `now_tick` are still
    /// ordered exactly: they join `late`, which orders by real
    /// `(time, seq)`, ahead of every slot entry (whose ticks are all
    /// `>= now_tick`).
    floor: SimTime,
    /// Pending-event count across `cur`, `late`, `slots` and `overflow`.
    pending: usize,
    next_seq: u64,
    popped: u64,
    /// Same-tick late arrivals, max-first in `Entry`'s inverted order
    /// (top = earliest). Usually empty: most pushes land a full
    /// serialization time ahead, beyond the current tick. Declared last
    /// to keep the hot fields' layout unchanged.
    late: BinaryHeap<Entry<E>>,
}

impl<E> TimerWheel<E> {
    fn with_capacity(capacity: usize) -> Self {
        TimerWheel {
            cur: Vec::with_capacity(capacity),
            // Slots start empty and grow on first touch; the capacity
            // they gain is then pinned by the drain-based delivery, so
            // steady state sees no slot reallocs. (Pre-sizing them was
            // measured and bought nothing once the drain pins capacity.)
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            now_tick: 0,
            floor: SimTime::ZERO,
            pending: 0,
            next_seq: 0,
            popped: 0,
            late: BinaryHeap::new(),
        }
    }

    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending += 1;
        self.place(Entry { time, seq, event });
    }

    fn push_keyed(&mut self, time: SimTime, key: u64, event: E) {
        self.pending += 1;
        self.place(Entry {
            time,
            seq: key,
            event,
        });
    }

    /// Files `e` into `cur`, a wheel slot, or the overflow heap
    /// according to its tick's highest digit differing from `now_tick`.
    fn place(&mut self, e: Entry<E>) {
        let tick = e.time.as_nanos() >> TICK_SHIFT;
        if tick <= self.now_tick {
            debug_assert!(
                e.time >= self.floor,
                "event scheduled at {:?} before the latest delivery at {:?}",
                e.time,
                self.floor,
            );
            // O(log n) heap push, not an O(n) sorted insert into `cur`;
            // `pop` merges the two sources in exact (time, seq) order.
            self.late.push(e);
            return;
        }
        let diff = tick ^ self.now_tick;
        let level = ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(e);
            return;
        }
        let slot = ((tick >> (level as u32 * LEVEL_BITS)) & (SLOTS as u64 - 1)) as usize;
        self.occupied[level] |= 1 << slot;
        self.slots[level * SLOTS + slot].push(e);
    }

    /// The earliest pending same-tick entry: the better of `cur`'s back
    /// and `late`'s top (the larger in `Entry`'s inverted order).
    fn peek_same_tick(&self) -> Option<&Entry<E>> {
        match (self.cur.last(), self.late.peek()) {
            (Some(c), Some(l)) => Some(if c > l { c } else { l }),
            (c, l) => c.or(l),
        }
    }

    /// Removes the earliest same-tick entry when `late` is non-empty —
    /// out of the hot path so the common all-in-`cur` case stays a
    /// comparison-free `Vec::pop`.
    #[cold]
    fn pop_merged(&mut self) -> Entry<E> {
        debug_assert!(!self.late.is_empty());
        match self.cur.last() {
            Some(c) if c > self.late.peek().expect("checked non-empty") => {
                self.cur.pop().expect("checked non-empty")
            }
            _ => self.late.pop().expect("checked non-empty"),
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|e| (e.time, e.event))
    }

    fn pop_entry(&mut self) -> Option<Entry<E>> {
        let e = loop {
            if self.late.is_empty() {
                // Fast path: the current tick's events all sit in `cur`,
                // earliest at the back.
                if let Some(e) = self.cur.pop() {
                    break e;
                }
            } else {
                break self.pop_merged();
            }
            if !self.advance() {
                return None;
            }
        };
        self.pending -= 1;
        self.popped += 1;
        self.floor = e.time;
        Some(e)
    }

    fn pop_entry_at_or_before(&mut self, end: SimTime) -> Option<Entry<E>> {
        loop {
            let next = if self.late.is_empty() {
                match self.cur.last() {
                    Some(c) => c.time,
                    None => {
                        // The advance may carry `now_tick` past `end`'s
                        // tick; that is harmless (see the `now_tick`
                        // field docs) and the event stays pending for a
                        // later pop.
                        if !self.advance() {
                            return None;
                        }
                        continue;
                    }
                }
            } else {
                self.peek_same_tick().expect("late is non-empty").time
            };
            if next > end {
                return None;
            }
            return self.pop_entry();
        }
    }

    /// Advances the wheel until `cur` or `late` holds the next tick's
    /// events. Returns `false` if nothing is pending.
    fn advance(&mut self) -> bool {
        debug_assert!(self.cur.is_empty() && self.late.is_empty());
        loop {
            let Some(level) = self.occupied.iter().position(|&bits| bits != 0) else {
                // Wheel empty: enter the overflow's next 2^24-tick
                // window and migrate that window's events in.
                let Some(top) = self.overflow.peek() else {
                    return false;
                };
                let min_tick = top.time.as_nanos() >> TICK_SHIFT;
                self.now_tick = min_tick & !((1u64 << WHEEL_BITS) - 1);
                while let Some(top) = self.overflow.peek() {
                    let tick = top.time.as_nanos() >> TICK_SHIFT;
                    if tick >> WHEEL_BITS != self.now_tick >> WHEEL_BITS {
                        break;
                    }
                    let e = self.overflow.pop().expect("peeked entry pops");
                    self.place(e);
                }
                // `place` routes events at the new current tick to
                // `late` (there is no slot for them).
                if !self.late.is_empty() {
                    return true; // window base == an event's tick
                }
                continue;
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            let shift = level as u32 * LEVEL_BITS;
            // Jump to the slot's base tick: digits above `level` keep
            // their value, digit `level` becomes `slot`, lower digits
            // reset to zero. Slots never sit at or below the current
            // digit (pushes are monotone), so this moves time forward.
            self.now_tick = (self.now_tick & !(((1u64) << (shift + LEVEL_BITS)) - 1))
                | ((slot as u64) << shift);
            self.occupied[level] &= !(1u64 << slot);
            if level == 0 {
                // A level-0 slot is exactly one tick: move its events
                // into the (empty) `cur` and order them for back-pop
                // delivery. `append` empties the slot but keeps its
                // capacity pinned in place, so after warmup each slot
                // has grown to its historical maximum and the steady
                // state allocates nothing (a swap would permute
                // capacities around the wheel and re-grow forever).
                let slot_vec = &mut self.slots[slot];
                self.cur.append(slot_vec);
                self.cur.sort_unstable();
                return true;
            }
            // Cascade: redistribute the slot one level down (or into
            // `cur` for events landing exactly on the new current tick).
            let mut moved = std::mem::take(&mut self.slots[level * SLOTS + slot]);
            for e in moved.drain(..) {
                self.place(e);
            }
            self.slots[level * SLOTS + slot] = moved; // recycle capacity
                                                      // Events landing exactly on the new current tick were
                                                      // routed to `late` by `place`.
            if !self.late.is_empty() {
                return true;
            }
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        if let Some(e) = self.peek_same_tick() {
            return Some(e.time);
        }
        if let Some(level) = self.occupied.iter().position(|&bits| bits != 0) {
            let slot = self.occupied[level].trailing_zeros() as usize;
            // The earliest (time, seq) is the *maximum* in Entry's
            // inverted order.
            return self.slots[level * SLOTS + slot]
                .iter()
                .max()
                .map(|e| e.time);
        }
        self.overflow.peek().map(|e| e.time)
    }

    fn len(&self) -> usize {
        self.pending
    }

    fn delivered(&self) -> u64 {
        self.popped
    }

    fn clear(&mut self) {
        self.cur.clear();
        self.late.clear();
        for slot in &mut self.slots {
            slot.clear();
        }
        self.occupied = [0; LEVELS];
        self.overflow.clear();
        self.now_tick = 0;
        self.floor = SimTime::ZERO;
        self.pending = 0;
        // next_seq and popped survive: see EventQueue::clear.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both_backends() -> [EventQueue<u64>; 2] {
        [
            EventQueue::with_backend(QueueBackend::Wheel, 16),
            EventQueue::with_backend(QueueBackend::Heap, 16),
        ]
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in both_backends() {
            q.push(SimTime::from_secs(3), 3);
            q.push(SimTime::from_secs(1), 1);
            q.push(SimTime::from_secs(2), 2);
            assert_eq!(q.pop().unwrap().1, 1);
            assert_eq!(q.pop().unwrap().1, 2);
            assert_eq!(q.pop().unwrap().1, 3);
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn ties_break_fifo() {
        for mut q in both_backends() {
            let t = SimTime::from_millis(5);
            for i in 0..100 {
                q.push(t, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop().unwrap().1, i);
            }
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        for mut q in both_backends() {
            q.push(SimTime::from_secs(5), 5);
            q.push(SimTime::from_secs(1), 1);
            assert_eq!(q.pop().unwrap().1, 1);
            q.push(SimTime::from_secs(2), 2);
            q.push(SimTime::from_secs(4), 4);
            assert_eq!(q.pop().unwrap().1, 2);
            q.push(SimTime::from_secs(3), 3);
            assert_eq!(q.pop().unwrap().1, 3);
            assert_eq!(q.pop().unwrap().1, 4);
            assert_eq!(q.pop().unwrap().1, 5);
        }
    }

    #[test]
    fn bookkeeping_counts() {
        for mut q in both_backends() {
            assert!(q.is_empty());
            q.push(SimTime::ZERO, 0);
            q.push(SimTime::ZERO, 0);
            assert_eq!(q.len(), 2);
            assert_eq!(q.peek_time(), Some(SimTime::ZERO));
            q.pop();
            assert_eq!(q.delivered(), 1);
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.delivered(), 1);
        }
    }

    #[test]
    fn clear_preserves_delivered_and_fifo_sequence() {
        for mut q in both_backends() {
            let t = SimTime::from_millis(1);
            q.push(t, 1);
            q.push(t, 2);
            assert_eq!(q.pop(), Some((t, 1)));
            q.clear();
            assert_eq!(q.len(), 0);
            assert_eq!(q.peek_time(), None);
            // delivered() keeps counting across the clear.
            assert_eq!(q.delivered(), 1);
            // Pushes after the clear still tie-break FIFO among
            // themselves, and the queue is usable from t = 0 again.
            q.push(t, 10);
            q.push(SimTime::ZERO, 9);
            q.push(t, 11);
            assert_eq!(q.pop(), Some((SimTime::ZERO, 9)));
            assert_eq!(q.pop(), Some((t, 10)));
            assert_eq!(q.pop(), Some((t, 11)));
            assert_eq!(q.delivered(), 4);
        }
    }

    #[test]
    fn far_future_events_cross_the_wheel_horizon() {
        // 2^24 ticks × 2^17 ns ≈ 2199 s: schedule well past it, in
        // several different overflow windows, plus near-future events.
        for mut q in both_backends() {
            q.push(SimTime::from_secs(9_000), 100);
            q.push(SimTime::from_secs(3_000), 40);
            q.push(SimTime::from_micros(3), 0);
            q.push(SimTime::from_secs(3_000), 41);
            q.push(SimTime::from_secs(2_000), 18);
            assert_eq!(q.pop().unwrap().1, 0);
            assert_eq!(q.pop().unwrap().1, 18);
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(3_000)));
            assert_eq!(q.pop().unwrap().1, 40);
            assert_eq!(q.pop().unwrap().1, 41);
            assert_eq!(q.pop().unwrap().1, 100);
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn sub_tick_times_deliver_in_time_order() {
        // Distinct SimTimes inside one tick must still deliver
        // by (time, seq), not insertion order.
        for mut q in both_backends() {
            q.push(SimTime::from_nanos(700), 7);
            q.push(SimTime::from_nanos(100), 1);
            q.push(SimTime::from_nanos(100), 2);
            q.push(SimTime::from_nanos(300), 3);
            let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, [1, 2, 3, 7]);
        }
    }

    #[test]
    fn pop_at_or_before_respects_the_bound() {
        for mut q in both_backends() {
            q.push(SimTime::from_millis(10), 1);
            q.push(SimTime::from_millis(30), 3);
            assert_eq!(q.pop_at_or_before(SimTime::from_millis(5)), None);
            assert_eq!(
                q.pop_at_or_before(SimTime::from_millis(10)),
                Some((SimTime::from_millis(10), 1))
            );
            assert_eq!(q.pop_at_or_before(SimTime::from_millis(20)), None);
            assert_eq!(q.len(), 1);
            assert_eq!(
                q.pop_at_or_before(SimTime::from_secs(1)),
                Some((SimTime::from_millis(30), 3))
            );
            assert_eq!(q.pop_at_or_before(SimTime::from_secs(1)), None);
        }
    }

    #[test]
    fn pop_keyed_returns_the_stored_key() {
        for mut q in both_backends() {
            q.push_keyed(SimTime::from_millis(10), 7, 70);
            q.push_keyed(SimTime::from_millis(10), 3, 30);
            q.push_keyed(SimTime::from_millis(40), 1, 10);
            let t = SimTime::from_millis(10);
            assert_eq!(q.pop_keyed_at_or_before(t), Some((t, 3, 30)));
            assert_eq!(q.pop_keyed_at_or_before(t), Some((t, 7, 70)));
            assert_eq!(q.pop_keyed_at_or_before(t), None);
            assert_eq!(q.delivered(), 2);
            let t = SimTime::from_millis(40);
            assert_eq!(q.pop_keyed_at_or_before(t), Some((t, 1, 10)));
        }
        // Unkeyed pushes report their insertion counter.
        for mut q in both_backends() {
            q.push(SimTime::ZERO, 5);
            q.push(SimTime::ZERO, 6);
            assert_eq!(
                q.pop_keyed_at_or_before(SimTime::ZERO),
                Some((SimTime::ZERO, 0, 5))
            );
            assert_eq!(
                q.pop_keyed_at_or_before(SimTime::ZERO),
                Some((SimTime::ZERO, 1, 6))
            );
        }
    }

    #[test]
    fn late_push_after_bounded_pop_stays_ordered() {
        // A bounded pop may advance the wheel to the earliest pending
        // tick before finding it beyond the bound. Events pushed
        // afterwards with earlier timestamps (but not earlier than the
        // last delivery) must still come out first.
        for mut q in both_backends() {
            q.push(SimTime::from_millis(1), 1);
            q.push(SimTime::from_millis(100), 100);
            assert_eq!(q.pop_at_or_before(SimTime::from_millis(1)).unwrap().1, 1);
            // Wheel has advanced toward tick(100 ms) internally.
            assert_eq!(q.pop_at_or_before(SimTime::from_millis(50)), None);
            q.push(SimTime::from_millis(60), 60);
            q.push(SimTime::from_millis(55), 55);
            q.push(SimTime::from_millis(55), 56);
            let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, [55, 56, 60, 100]);
        }
    }

    #[test]
    fn default_backend_is_wheel() {
        assert_eq!(EventQueue::<u32>::new().backend(), QueueBackend::Wheel);
        assert_eq!(
            EventQueue::<u32>::with_backend(QueueBackend::Heap, 0).backend(),
            QueueBackend::Heap
        );
    }
}
