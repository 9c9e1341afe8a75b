//! Hierarchical timer wheel: the far-tier store behind
//! [`crate::queue::EventQueue`].
//!
//! The far tier holds every event strictly later than the instant the clock
//! sits at. At fleet scale (ROADMAP item 1: 10k machines) that is thousands
//! of pending Poisson think-time timers and wire-propagation sleeps per
//! lane, and the old `BinaryHeap` paid an `O(log n)` sift over a
//! cache-hostile array on every one of them. The wheel makes the push and
//! the amortized pop `O(1)` in the pending-timer population:
//!
//! - [`LEVELS`] levels of [`SLOTS`] slots each, with power-of-two slot
//!   widths: level `l` slots are `2^(6l)` ns wide, so the wheel proper
//!   spans `2^36` ns ≈ 68.7 virtual seconds ahead of the cursor.
//! - Slot indexing is absolute (the tokio-style formulation): an event's
//!   level is the highest bit in which its time differs from the cursor
//!   (`elapsed`), divided into 6-bit digits; its slot is that 6-bit digit
//!   of the time itself. Per-level `u64` occupancy bitmaps make
//!   first-occupied-slot a `trailing_zeros`.
//! - Events beyond the wheel span land in an **overflow** binary heap
//!   ordered by the full `(time, tie, seq)` key. Overflow events never
//!   migrate into the wheel; they are popped straight off the heap when
//!   their instant arrives. A far tier only ever sees a handful of these
//!   (timeout guards, end-of-run horizons), so the heap stays tiny — as
//!   long as the cursor keeps up with the clock: a heap pop that finds the
//!   wheel proper empty commits the cursor to its instant, so a standing
//!   timer population carried across a `2^36` ns epoch boundary goes back
//!   to the wheel instead of piling into the heap.
//!
//! # Exact pop order, not approximate expiry
//!
//! Real kernel wheels fire whole slots per tick and tolerate intra-slot
//! reordering. This one must not: the `(time, tie, seq)` total order is the
//! simulator's public invariant (see the `queue` module docs) and every
//! golden trace and chaos hash hangs off it. Exactness falls out of three
//! structural facts:
//!
//! 1. **Level-0 slots are single instants.** A level-0 slot is 1 ns wide,
//!    so once the minimum lives at level 0 the whole slot shares one `time`
//!    and draining it in `(tie, seq)` order — one `sort_unstable` at
//!    extraction — is full-key order.
//! 2. **Lower level ⇒ earlier time.** A resident's level is the highest
//!    bit it disagrees with the cursor on, and every resident is in the
//!    cursor's future, so level-`l` residents agree with the cursor above
//!    bit `6(l+1)` and exceed it at their own digit. Any level-`l` event
//!    therefore precedes any level-`m` event for `l < m`, and within one
//!    level lower slot index ⇒ earlier time range. The global minimum is
//!    always in the first occupied slot of the lowest occupied level.
//! 3. **Cascading preserves residency.** Advancing the cursor to the start
//!    of the first occupied slot of level `l > 0` and re-placing that
//!    slot's events moves each of them to some level `< l` (their times
//!    differ from the new cursor only below bit `6l`) and touches no other
//!    slot's residency (the cursor changed only in bits the other levels
//!    don't index). Each event cascades at most `LEVELS - 1` times in its
//!    lifetime, so the amortized pop cost is `O(1)`.
//!
//! # The cursor only moves at committed pops
//!
//! `elapsed` must never pass an instant the scheduler could still schedule
//! at. Pushes are bounded below by the near tier's `bucket_time`, so the
//! cursor is only advanced inside [`Wheel::take_min`] — the committed
//! extraction of the global minimum instant, which is exactly the moment
//! `bucket_time` jumps to that instant. Peeks never cascade: the earliest
//! pending time is kept in a cache (`min_time`) maintained on push and
//! recomputed — by scanning the one slot that must contain the minimum —
//! only when an extraction empties it.

use std::collections::{BinaryHeap, VecDeque};

use crate::queue::Event;
use crate::time::SimTime;

/// log2 of the slots per level; a level's slot covers `2^(SLOT_BITS * l)` ns.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; deeper times go to the overflow heap.
const LEVELS: usize = 6;
/// Bits of virtual time the wheel proper can index ahead of the cursor.
const SPAN_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// "Wheel proper empty" sentinel for the cached minimum.
const NO_MIN: u64 = u64::MAX;

pub(crate) struct Wheel {
    /// Depth-1 fast path: when the far tier holds exactly one event it
    /// lives here, untouched by slot filing. A solitary pending timer is
    /// the commonest far-tier state outside fleet worlds (one sleeper
    /// re-arming, one timeout guard), and the old 1-element `BinaryHeap`
    /// was nearly free — this keeps it that way. Invariant:
    /// `single.is_some()` ⇒ the wheel proper and the overflow heap are
    /// empty (`len == 1`).
    single: Option<Event>,
    /// The cursor: a committed lower bound (in ns) on every resident's
    /// time, and the reference point of the level/slot indexing. Advances
    /// only in [`Wheel::take_min`].
    elapsed: u64,
    /// Per-level occupancy bitmap: bit `s` set ⇔ `slot[l][s]` non-empty.
    occupied: [u64; LEVELS],
    /// `LEVELS × SLOTS` FIFO vectors, row-major by level.
    slots: Box<[Vec<Event>]>,
    /// Far-future events (beyond `elapsed + 2^SPAN_BITS`'s shared prefix),
    /// full-key ordered. Never migrates into the wheel.
    overflow: BinaryHeap<Event>,
    /// Total events held (wheel proper + overflow).
    len: usize,
    /// Exact earliest wheel-proper time, [`NO_MIN`] when empty. Lets
    /// `peek_time` answer without cascading.
    min_time: u64,
    /// Reusable redistribution buffer, so cascades don't allocate.
    scratch: Vec<Event>,
    /// Lifetime pushes that landed in the wheel proper.
    pub(crate) wheel_pushes: u64,
    /// Lifetime pushes that landed in the overflow heap.
    pub(crate) overflow_pushes: u64,
    /// Lifetime slot redistributions (counted per slot, not per event).
    pub(crate) cascades: u64,
}

impl Wheel {
    pub(crate) fn with_capacity(cap: usize) -> Self {
        Wheel {
            single: None,
            elapsed: 0,
            occupied: [0; LEVELS],
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::with_capacity(cap.min(64)),
            len: 0,
            min_time: NO_MIN,
            scratch: Vec::new(),
            wheel_pushes: 0,
            overflow_pushes: 0,
            cascades: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The earliest pending time, without popping or cascading. Exact: the
    /// windowed driver publishes this as the lane's next-event time, so a
    /// lower bound would let pops cross a window edge.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        if let Some(s) = &self.single {
            return Some(s.time);
        }
        let over = self.overflow.peek().map_or(NO_MIN, |e| e.time.as_nanos());
        let min = self.min_time.min(over);
        (min != NO_MIN).then(|| SimTime::from_nanos(min))
    }

    pub(crate) fn push(&mut self, ev: Event) {
        let t = ev.time.as_nanos();
        debug_assert!(t > self.elapsed, "wheel events are strictly future");
        // Tier-routing counters record where the event belongs; the cursor
        // cannot move while `single` is held (any `take_min` empties it
        // first), so a later spill files it exactly where counted.
        if (t ^ self.elapsed) >> SPAN_BITS != 0 {
            self.overflow_pushes += 1;
        } else {
            self.wheel_pushes += 1;
        }
        if self.len == 0 {
            self.single = Some(ev);
            self.len = 1;
            return;
        }
        if let Some(prev) = self.single.take() {
            self.file(prev);
        }
        self.file(ev);
        self.len += 1;
    }

    /// Routes one event to the overflow heap or its wheel slot, maintaining
    /// the cached minimum. Counter-free: `push` accounts for tier routing.
    #[inline]
    fn file(&mut self, ev: Event) {
        let t = ev.time.as_nanos();
        if (t ^ self.elapsed) >> SPAN_BITS != 0 {
            self.overflow.push(ev);
        } else {
            self.place(ev);
            if t < self.min_time {
                self.min_time = t;
            }
        }
    }

    /// Files `ev` into the slot its residency invariant dictates: level =
    /// highest 6-bit digit in which its time differs from the cursor, slot =
    /// that digit of the time. Shared by `push` and the cascade loop (whose
    /// re-placed events never overflow: they only move down-level).
    #[inline]
    fn place(&mut self, ev: Event) {
        let t = ev.time.as_nanos();
        let x = t ^ self.elapsed;
        debug_assert_eq!(x >> SPAN_BITS, 0, "event beyond the wheel span");
        let level = if x == 0 {
            0
        } else {
            ((63 - x.leading_zeros()) / SLOT_BITS) as usize
        };
        let slot = ((t >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.occupied[level] |= 1 << slot;
        self.slots[level * SLOTS + slot].push(ev);
    }

    /// Extracts **every** event at the global minimum instant, appending
    /// them to `out` in ascending `(tie, seq)` order, and returns that
    /// instant. This is the committed clock advance: the cursor moves here
    /// and nowhere else. Returns `None` when the far tier is empty.
    pub(crate) fn take_min(&mut self, out: &mut VecDeque<Event>) -> Option<SimTime> {
        debug_assert!(out.is_empty(), "draining into a non-empty buffer");
        if let Some(ev) = self.single.take() {
            // The sole resident is trivially the minimum; commit the cursor
            // to its instant, same as the slot-drain path below would.
            self.elapsed = ev.time.as_nanos();
            self.len = 0;
            let t = ev.time;
            out.push_back(ev);
            return Some(t);
        }
        let over = self.overflow.peek().map_or(NO_MIN, |e| e.time.as_nanos());
        let t = self.min_time.min(over);
        if t == NO_MIN {
            return None;
        }
        if self.min_time == t {
            self.extract_min_slot(out);
        } else if self.min_time == NO_MIN {
            // The minimum comes off the heap and the wheel proper is empty:
            // no resident's slot depends on the cursor, so commit it here.
            // Otherwise a cursor left in an earlier 2^36 ns epoch would
            // route every later push past that epoch to the heap.
            self.elapsed = t;
        }
        // The overflow heap can hold events at the same instant as wheel
        // residents (pushed in an earlier cursor epoch, before the wheel
        // span reached them). Heap pops at one instant ascend by (tie, seq);
        // merge them into the sorted slot drain.
        while self.overflow.peek().is_some_and(|e| e.time.as_nanos() == t) {
            let ev = self.overflow.pop().expect("peeked");
            self.len -= 1;
            let at = out.partition_point(|e| (e.tie, e.seq) < (ev.tie, ev.seq));
            out.insert(at, ev);
        }
        Some(SimTime::from_nanos(t))
    }

    /// Cascades until the minimum sits at level 0, then drains that slot —
    /// a single exact instant — sorted by `(tie, seq)`. Caller guarantees
    /// the wheel proper is non-empty.
    fn extract_min_slot(&mut self, out: &mut VecDeque<Event>) {
        loop {
            let level = (0..LEVELS)
                .find(|&l| self.occupied[l] != 0)
                .expect("cached min set but wheel empty");
            let slot = self.occupied[level].trailing_zeros() as usize;
            let mut batch = std::mem::take(&mut self.scratch);
            std::mem::swap(&mut batch, &mut self.slots[level * SLOTS + slot]);
            self.occupied[level] &= !(1u64 << slot);
            if level == 0 {
                // A level-0 slot is one exact instant: the cursor's 64-ns
                // line with the low digit replaced by the slot index.
                let t = (self.elapsed & !(SLOTS as u64 - 1)) | slot as u64;
                debug_assert_eq!(t, self.min_time, "first level-0 slot is the minimum");
                self.elapsed = t;
                self.len -= batch.len();
                batch.sort_unstable_by_key(|e| (e.tie, e.seq));
                out.extend(batch.drain(..));
                self.scratch = batch;
                self.min_time = self.recompute_min();
                return;
            }
            // Advance the cursor to the slot's start and redistribute: every
            // event here now differs from the cursor only below bit
            // `6 * level`, so each lands at a strictly lower level. Other
            // levels' residency is untouched — the cursor changed only in
            // bits this level and lower index.
            let shift = SLOT_BITS * level as u32;
            let below = (1u64 << (shift + SLOT_BITS)) - 1;
            self.elapsed = (self.elapsed & !below) | ((slot as u64) << shift);
            self.cascades += 1;
            for ev in batch.drain(..) {
                self.place(ev);
            }
            self.scratch = batch;
        }
    }

    /// Recomputes the cached minimum after an extraction emptied it. The
    /// minimum must live in the first occupied slot of the lowest occupied
    /// level (module docs, fact 2), so one slot scan suffices — no cascade,
    /// no cursor movement.
    fn recompute_min(&self) -> u64 {
        for level in 0..LEVELS {
            if self.occupied[level] != 0 {
                let slot = self.occupied[level].trailing_zeros() as usize;
                return self.slots[level * SLOTS + slot]
                    .iter()
                    .map(|e| e.time.as_nanos())
                    .min()
                    .expect("occupancy bit set on empty slot");
            }
        }
        NO_MIN
    }
}
