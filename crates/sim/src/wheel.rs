//! A hierarchical timing wheel keyed by `(time, seq)`.
//!
//! The simulator's event queue is append-mostly and pop-in-time-order;
//! a binary heap pays O(log n) per operation and scatters comparisons
//! across the whole arena. This wheel gives O(1) amortized push and
//! pop: eleven levels of 64 slots each cover the full `u64` nanosecond
//! range (6 bits per level, 66 ≥ 64), a one-word occupancy bitmap per
//! level makes the next-slot scan a couple of `trailing_zeros` calls,
//! and events only ever *cascade down* levels, so each entry is touched
//! at most `LEVELS` (11) times over its whole life.
//!
//! ## Ordering contract
//!
//! Pops come out in ascending `(time, seq)` order, bit-for-bit the
//! order `BinaryHeap<Reverse<(time, seq)>>` would produce (pinned by
//! `tests/wheel_differential.rs`), under two caller obligations that
//! the simulator already satisfies:
//!
//! * `time >= now` for every push, where `now` is the time of the most
//!   recent pop (the wheel cannot schedule into the past), and
//! * `seq` values are unique and assigned in increasing push order
//!   (they are a global event counter).
//!
//! Same-time entries live in one level-0 slot; the slot is drained in
//! one go and sorted by `seq` alone, which is exact because every entry
//! in a level-0 slot shares the full timestamp: an entry is placed at
//! level 0 only when its time agrees with `now` on all bits above the
//! slot index, and `now`'s upper bits only change when all lower levels
//! are empty. Pushes *at* the current time while the slot is being
//! consumed re-occupy it and are re-drained afterwards — their `seq` is
//! larger than anything already popped, so order is preserved. A front
//! slot above level 0 holding a single entry becomes `cur` directly: a
//! cascade would carry that entry down alone and leave the clock at its
//! time, which is the state the shortcut leaves too.
//!
//! ## Buffer recycling
//!
//! Drained slot buffers are reused, not freed. An unoccupied slot holds
//! a capacity-less `Vec`; its first push takes a buffer from the `free`
//! list, and its drain gives one back (the level-0 drain swaps the slot
//! in as `cur` and gives back the consumed `cur`). So after warm-up push,
//! pop and cascade allocate only when more slots are occupied at once
//! than ever before, or a slot outgrows its recycled buffer
//! (`tests/alloc_guard.rs` pins this). One buffer per slot would not
//! do: slot indices at levels ≥ 4 advance with the clock, so first
//! touches never end. A buffer grown past `KEEP_CAPACITY` entries is
//! freed on drain instead, so a one-off burst (a mega-scale t = 0
//! arrival slot) does not pin megabytes for the rest of the run.

/// Bits per wheel level: 64 slots each.
const BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Low-bits mask selecting a slot index within a level.
const MASK: u64 = SLOTS as u64 - 1;
/// Levels needed so `LEVELS * BITS >= 64`: the top level spans the
/// entire remaining `u64` range.
const LEVELS: usize = 11;
/// Largest capacity, in entries, a drained buffer keeps for reuse;
/// the engine's per-batch lists share the cap.
pub(crate) const KEEP_CAPACITY: usize = 4096;

struct Entry<T> {
    time: u64,
    seq: u64,
    payload: T,
}

/// The wheel. See the module docs for the ordering contract.
pub struct TimingWheel<T> {
    /// `LEVELS * SLOTS` buckets, flattened level-major.
    slots: Vec<Vec<Entry<T>>>,
    /// One occupancy bit per slot per level.
    occ: [u64; LEVELS],
    /// Lower bound on every queued time; advances on pop.
    now: u64,
    /// Total queued entries, including the drained current slot.
    len: usize,
    /// The current level-0 slot, drained and sorted by **descending**
    /// `seq` so consumption is `Vec::pop` from the back.
    cur: Vec<Entry<T>>,
    /// Drained, empty buffers, capacity kept, for the next slot that
    /// goes from unoccupied to occupied.
    free: Vec<Vec<Entry<T>>>,
}

impl<T> TimingWheel<T> {
    /// An empty wheel anchored at time 0.
    pub fn new() -> TimingWheel<T> {
        let mut slots = Vec::with_capacity(LEVELS * SLOTS);
        slots.resize_with(LEVELS * SLOTS, Vec::new);
        TimingWheel {
            slots,
            occ: [0; LEVELS],
            now: 0,
            len: 0,
            cur: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `payload` at `(time, seq)`. `time` must be `>= now`
    /// (asserted in debug builds; clamped in release so a buggy caller
    /// degrades to "fires immediately" rather than never).
    pub fn push(&mut self, time: u64, seq: u64, payload: T) {
        debug_assert!(
            time >= self.now,
            "push into the past: time {} < now {}",
            time,
            self.now
        );
        let time = time.max(self.now);
        self.insert_raw(Entry { time, seq, payload });
        self.len += 1;
    }

    fn insert_raw(&mut self, e: Entry<T>) {
        // The level is chosen by the highest bit where the time differs
        // from `now`: all digits above it agree, so the entry can sit
        // in the slot named by its own digit at that level and will be
        // reached before `now`'s upper digits move past it.
        let diff = e.time ^ self.now;
        let level = if diff == 0 {
            0
        } else {
            (63 - diff.leading_zeros()) as usize / BITS as usize
        };
        let slot = ((e.time >> (BITS as usize * level)) & MASK) as usize;
        let bit = 1u64 << slot;
        let buf = &mut self.slots[level * SLOTS + slot];
        if self.occ[level] & bit == 0 {
            // An unoccupied slot holds a capacity-less `Vec`, so
            // replacing it frees nothing.
            if let Some(recycled) = self.free.pop() {
                *buf = recycled;
            }
            self.occ[level] |= bit;
        }
        buf.push(e);
    }

    /// Ensures `cur` holds the front slot's entries. Returns false iff
    /// the wheel is empty.
    fn fill_cur(&mut self) -> bool {
        if !self.cur.is_empty() {
            return true;
        }
        if self.len == 0 {
            return false;
        }
        'scan: loop {
            for level in 0..LEVELS {
                let shift = BITS as usize * level;
                let cursor = ((self.now >> shift) & MASK) as u32;
                // Only slots at or after the cursor can be occupied:
                // earlier ones are in the past.
                let w = self.occ[level] & (u64::MAX << cursor);
                if w == 0 {
                    continue;
                }
                let slot = w.trailing_zeros() as usize;
                self.occ[level] &= !(1u64 << slot);
                let mut entries = std::mem::take(&mut self.slots[level * SLOTS + slot]);
                // A level-0 slot's entries share one timestamp; a lone
                // entry higher up skips its cascade (see the module docs).
                if level == 0 || entries.len() == 1 {
                    self.now = entries[0].time;
                    entries.sort_unstable_by_key(|e| std::cmp::Reverse(e.seq));
                    let consumed = std::mem::replace(&mut self.cur, entries);
                    self.recycle(consumed);
                    return true;
                }
                // Cascade: advance `now` to the start of this slot's
                // span (levels below are empty, so no entry is skipped)
                // and re-insert the slot's entries; each lands at a
                // strictly lower level.
                let above = if shift + BITS as usize >= 64 {
                    0
                } else {
                    self.now >> (shift + BITS as usize)
                };
                self.now = ((above << BITS) | slot as u64) << shift;
                for e in entries.drain(..) {
                    self.insert_raw(e);
                }
                self.recycle(entries);
                continue 'scan;
            }
            unreachable!("timing wheel: len > 0 but no occupied slot");
        }
    }

    /// Keeps a drained, empty buffer for the next slot to be occupied,
    /// unless a burst grew it past [`KEEP_CAPACITY`].
    fn recycle(&mut self, buf: Vec<Entry<T>>) {
        if buf.capacity() <= KEEP_CAPACITY {
            self.free.push(buf);
        }
    }

    /// The front entry's `(time, seq)` and a borrow of its payload.
    ///
    /// Non-mutating on purpose: unlike [`TimingWheel::pop`], a peek
    /// commits to nothing, so the clock does not advance and no slots
    /// cascade. A caller may peek at the next event, decide not to take
    /// it, and still push entries timed before it (as the simulator
    /// does while collecting a same-tick batch). The cost is a bitmap
    /// scan plus a linear pass over one slot's entries — O(1) when the
    /// drained current slot is non-empty.
    pub fn peek(&self) -> Option<(u64, u64, &T)> {
        if let Some(e) = self.cur.last() {
            return Some((e.time, e.seq, &e.payload));
        }
        if self.len == 0 {
            return None;
        }
        // The first occupied slot at the lowest occupied level holds the
        // globally soonest entries: level-L entries differ from `now`
        // exactly in bit range [6L, 6(L+1)), so anything at a higher
        // level lies beyond every lower level's current window.
        for level in 0..LEVELS {
            let shift = BITS as usize * level;
            let cursor = ((self.now >> shift) & MASK) as u32;
            let w = self.occ[level] & (u64::MAX << cursor);
            if w == 0 {
                continue;
            }
            let slot = w.trailing_zeros() as usize;
            let e = self.slots[level * SLOTS + slot]
                .iter()
                .min_by_key(|e| (e.time, e.seq))
                .expect("occupied slot is empty");
            return Some((e.time, e.seq, &e.payload));
        }
        unreachable!("timing wheel: len > 0 but no occupied slot");
    }

    /// Removes and returns the front entry.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if !self.fill_cur() {
            return None;
        }
        let e = self.cur.pop().expect("fill_cur returned true");
        self.len -= 1;
        Some((e.time, e.seq, e.payload))
    }
}

impl<T> Default for TimingWheel<T> {
    fn default() -> TimingWheel<T> {
        TimingWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_wheel_pops_nothing() {
        let mut w: TimingWheel<()> = TimingWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert!(w.pop().is_none());
        assert!(w.peek().is_none());
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimingWheel::new();
        w.push(50, 0, "a");
        w.push(10, 1, "b");
        w.push(50, 2, "c");
        w.push(10, 3, "d");
        let order: Vec<_> = std::iter::from_fn(|| w.pop()).collect();
        assert_eq!(
            order,
            vec![(10, 1, "b"), (10, 3, "d"), (50, 0, "a"), (50, 2, "c")]
        );
    }

    #[test]
    fn far_future_times_cascade_down_correctly() {
        let mut w = TimingWheel::new();
        let times = [
            0u64,
            63,
            64,
            4095,
            4096,
            1 << 20,
            (1 << 40) + 7,
            (1 << 60) + 12345,
            u64::MAX,
        ];
        for (i, &t) in times.iter().enumerate() {
            w.push(t, i as u64, t);
        }
        let mut prev = None;
        while let Some((t, _, payload)) = w.pop() {
            assert_eq!(t, payload);
            assert!(prev.is_none_or(|p| p <= t));
            prev = Some(t);
        }
        assert!(w.is_empty());
    }

    #[test]
    fn push_at_current_time_during_drain_pops_after_drained_entries() {
        let mut w = TimingWheel::new();
        w.push(100, 0, 0);
        w.push(100, 1, 1);
        let (t, s, _) = w.pop().unwrap();
        assert_eq!((t, s), (100, 0));
        // The slot is mid-drain; a same-time push must still come out,
        // after the already-queued seq 1.
        w.push(100, 2, 2);
        assert_eq!(w.pop().map(|(t, s, _)| (t, s)), Some((100, 1)));
        assert_eq!(w.pop().map(|(t, s, _)| (t, s)), Some((100, 2)));
        assert!(w.pop().is_none());
    }

    #[test]
    fn peek_does_not_advance_the_clock() {
        // Regression: peek used to cascade slots (advancing `now` to the
        // next occupied slot), after which a push timed between the last
        // pop and the peeked entry was "in the past".
        let mut w = TimingWheel::new();
        w.push(200_000_000, 1, "sample");
        w.push(0, 2, "arrive");
        assert_eq!(w.pop().map(|(t, s, _)| (t, s)), Some((0, 2)));
        // Peeking at the far-future event must not commit to it...
        assert_eq!(w.peek().map(|(t, s, _)| (t, s)), Some((200_000_000, 1)));
        // ...so an earlier push is still legal and pops first.
        w.push(20_005_000, 3, "timer");
        assert_eq!(w.peek().map(|(t, s, _)| (t, s)), Some((20_005_000, 3)));
        assert_eq!(w.pop().map(|(t, s, _)| (t, s)), Some((20_005_000, 3)));
        assert_eq!(w.pop().map(|(t, s, _)| (t, s)), Some((200_000_000, 1)));
        assert!(w.is_empty());
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut w = TimingWheel::new();
        for i in 0..100u64 {
            w.push(i * 37 % 50, i, ());
        }
        assert_eq!(w.len(), 100);
        // Interleave: pop a few, push ahead of now.
        for _ in 0..40 {
            w.pop().unwrap();
        }
        assert_eq!(w.len(), 60);
        let (now, _, _) = w.peek().unwrap();
        for i in 0..10u64 {
            w.push(now + i, 1000 + i, ());
        }
        assert_eq!(w.len(), 70);
        let mut n = 0;
        while w.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 70);
        assert!(w.is_empty());
    }
}
