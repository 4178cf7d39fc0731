//! A deterministic discrete-event queue.
//!
//! Events pop in `(time, sequence number)` order: ties in simulated
//! time break by insertion order, which makes every simulation in the
//! workspace reproducible run-to-run regardless of payload type.
//!
//! **Key layout.** The order is computed once, at the push, into one
//! integer, [`event_key`]: `bits(time) << 64 | seq`. For a time `>= 0`
//! the IEEE-754 bit pattern orders as the number does, so comparing two
//! events is one `u128` compare, and the time is decoded from the key
//! when the event pops. Hence **times must be `>= 0`** — a negative
//! pattern orders backwards, a NaN has no order — and [`event_key`]
//! rejects both where the event enters, naming the value.
//!
//! **Lanes are hints.** A caller whose events of some family are due
//! in non-decreasing time order (a constant delay added to a sorted
//! stream) can say so with [`EventQueue::push_lane`]: the event is
//! appended to that lane's FIFO and never enters the heap. A hint is
//! never a promise: an event below its lane's back goes to the heap,
//! and `pop` takes the least key among the heap's top and the lane
//! fronts, so the pop order is exactly `(time, seq)` whatever was
//! hinted. A wrong hint costs only speed.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Cycles;

/// The integer that orders events as `(time, seq)` does:
/// `bits(time + 0.0) << 64 | seq` (the addition folds `-0.0` into
/// `+0.0`, so the two zeros tie). Panics when `time` is negative or
/// NaN: `Cycles(pub f64)` arithmetic can make either (`a − b`,
/// `∞ − ∞`) without passing [`Cycles::new`].
#[inline]
pub fn event_key(time: Cycles, seq: u64) -> u128 {
    let t = time.get();
    assert!(t >= 0.0, "an event time must be >= 0 and not NaN, got {t}");
    ((t + 0.0).to_bits() as u128) << 64 | seq as u128
}

/// The `(time, seq)` an [`event_key`] was made from, bit for bit.
#[inline]
pub fn split_key(key: u128) -> (Cycles, u64) {
    (Cycles(f64::from_bits((key >> 64) as u64)), key as u64)
}

struct Entry<T> {
    /// [`event_key`]`(time, seq)`.
    key: u128,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.key.cmp(&self.key)
    }
}

/// Earliest-first event queue with deterministic tie-breaking.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Each ascending by key, front to back.
    lanes: Vec<VecDeque<Entry<T>>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue (without lanes).
    pub fn new() -> Self {
        Self::with_lanes(0)
    }

    /// Create an empty queue with FIFO lanes `0..lanes` (see
    /// [`Self::push_lane`]).
    pub fn with_lanes(lanes: usize) -> Self {
        let lanes = (0..lanes).map(|_| VecDeque::new()).collect();
        Self { heap: BinaryHeap::new(), lanes, next_seq: 0 }
    }

    fn entry(&mut self, time: Cycles, payload: T) -> Entry<T> {
        let seq = self.next_seq;
        self.next_seq += 1;
        Entry { key: event_key(time, seq), payload }
    }

    /// Schedule `payload` at `time` (which must be `>= 0`: see
    /// [`event_key`]).
    pub fn push(&mut self, time: Cycles, payload: T) {
        let entry = self.entry(time, payload);
        self.heap.push(entry);
    }

    /// [`Self::push`], with the hint that `time` is not before the
    /// last event pushed on `lane`. Returns whether the lane took the
    /// event: one that does not exist, or whose back is later, leaves
    /// it to the heap. The pop order is the same either way.
    //
    // `#[inline]` here and on `pop`: the serve engine calls both per
    // event, and without it their inlining into its loop moved with
    // unrelated edits (one read serve_reads `pass_s` +5 %).
    #[inline]
    pub fn push_lane(&mut self, lane: usize, time: Cycles, payload: T) -> bool {
        let entry = self.entry(time, payload);
        let fits = |fifo: &VecDeque<Entry<T>>| fifo.back().is_none_or(|back| back.key < entry.key);
        let rides = self.lanes.get(lane).is_some_and(fits);
        if rides {
            self.lanes[lane].push_back(entry);
        } else {
            self.heap.push(entry);
        }
        rides
    }

    /// Where the earliest event is — `None` the heap, `Some(l)` lane
    /// `l` — and its key. Keys are unique, so there is no tie.
    fn earliest(&self) -> Option<(Option<usize>, u128)> {
        // A plain loop: as an iterator chain under `min_by_key` this
        // cost the serve engine 64 % of a pass.
        let mut best = self.heap.peek().map(|e| (None, e.key));
        for (l, fifo) in self.lanes.iter().enumerate() {
            if let Some(front) = fifo.front() {
                if best.is_none_or(|(_, key)| front.key < key) {
                    best = Some((Some(l), front.key));
                }
            }
        }
        best
    }

    /// Remove and return the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycles, T)> {
        let entry = match self.earliest()?.0 {
            Some(l) => self.lanes[l].pop_front(),
            None => self.heap.pop(),
        };
        entry.map(|e| (split_key(e.key).0, e.payload))
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Cycles> {
        self.earliest().map(|(_, key)| split_key(key).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(5.0), "c");
        q.push(Cycles::new(1.0), "a");
        q.push(Cycles::new(3.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycles::new(7.0), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(2.0), ());
        assert_eq!(q.peek_time(), Some(Cycles::new(2.0)));
        assert_eq!(q.pop(), Some((Cycles::new(2.0), ())));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(10.0), 10);
        q.push(Cycles::new(1.0), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(Cycles::new(5.0), 5);
        q.push(Cycles::new(0.5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 10);
    }

    #[test]
    #[should_panic(expected = "an event time must be >= 0 and not NaN, got NaN")]
    fn a_nan_time_is_rejected_at_the_push() {
        // A lone event is never compared with another: the old queue
        // took this one and popped it back.
        let nan = Cycles(f64::INFINITY) - Cycles(f64::INFINITY);
        EventQueue::new().push(nan, ());
    }

    #[test]
    #[should_panic(expected = "an event time must be >= 0 and not NaN, got -1")]
    fn a_negative_time_is_rejected_at_the_lane_push() {
        EventQueue::with_lanes(1).push_lane(0, Cycles::new(1.0) - Cycles::new(2.0), ());
    }

    #[test]
    fn the_two_zeros_tie() {
        let mut q = EventQueue::with_lanes(1);
        q.push(Cycles(0.0), 0);
        q.push(Cycles(-0.0), 1);
        assert!(q.push_lane(0, Cycles(0.0), 2));
        assert!(q.push_lane(0, Cycles(-0.0), 3), "-0.0 is not before +0.0");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, (0..4).map(|v| (Cycles::ZERO, v)).collect::<Vec<_>>());
        assert!(order.iter().all(|(t, _)| t.get().is_sign_positive()));
    }

    #[test]
    fn a_key_decodes_to_the_time_and_seq_it_was_made_from() {
        let times = [
            0.0,
            f64::from_bits(1), // the least subnormal
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            0.35,
            1.0,
            25_500.0,
            (1u64 << 60) as f64,
            f64::MAX,
        ];
        for (w, &t) in times.iter().enumerate() {
            for seq in [0, 1, u64::MAX] {
                let (back, s) = split_key(event_key(Cycles(t), seq));
                assert_eq!((back.get().to_bits(), s), (t.to_bits(), seq), "{t:e}");
            }
            if let Some(&next) = times.get(w + 1) {
                // A later time outranks any sequence number.
                assert!(event_key(Cycles(t), u64::MAX) < event_key(Cycles(next), 0), "{t:e}");
            }
        }
    }

    #[test]
    fn an_entry_is_its_key_and_its_payload() {
        // What `qsm-serve` counts on: a 16-byte send makes a 32-byte entry.
        assert_eq!(std::mem::size_of::<Entry<[u64; 2]>>(), 32);
    }

    #[test]
    fn a_wrong_lane_hint_falls_back_to_the_heap() {
        let mut q = EventQueue::with_lanes(2);
        assert!(q.push_lane(0, Cycles::new(5.0), "c"));
        assert!(!q.push_lane(0, Cycles::new(1.0), "a"), "before the lane's back");
        assert!(q.push_lane(1, Cycles::new(3.0), "b"));
        assert!(!q.push_lane(2, Cycles::new(9.0), "d"), "no such lane");
        assert_eq!(q.peek_time(), Some(Cycles::new(1.0)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, vec!["a", "b", "c", "d"]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Draining the queue always yields non-decreasing times.
        #[test]
        fn drain_is_sorted(times in proptest::collection::vec(0.0f64..1e9, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(Cycles::new(*t), i);
            }
            let mut last = Cycles::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// The queue against a model: a `Vec` kept stable-sorted by
        /// `(time, seq)`. Pushes, lane pushes — hints that hold and
        /// hints that do not — and pops interleave at random; times
        /// come from a coarse grid (forced ties) mixed with wide-range
        /// values.
        #[test]
        fn any_interleaving_pops_as_the_sorted_model(
            lanes in 0usize..4,
            ops in proptest::collection::vec((0u8..6, 0u32..8, 0.0f64..1.0, 0usize..4), 1..400),
        ) {
            let mut q = EventQueue::with_lanes(lanes);
            let mut model: Vec<(Cycles, u64)> = Vec::new();
            let mut seq = 0u64;
            for (op, grid, wide, lane) in ops {
                // Half the times tie on 8 grid points; the rest span
                // 2^-30 .. 2^60.
                let time = if op % 2 == 0 {
                    Cycles::new(grid as f64 * 100.0)
                } else {
                    Cycles::new((wide * 90.0 - 30.0).exp2())
                };
                match op {
                    0 | 1 => q.push(time, seq),
                    2 | 3 => {
                        q.push_lane(lane, time, seq);
                    }
                    _ => {
                        let expected = if model.is_empty() { None } else { Some(model.remove(0)) };
                        prop_assert_eq!(q.pop(), expected);
                    }
                }
                if op < 4 {
                    // Stable: after every entry whose time is not later.
                    let at = model.partition_point(|(t, _)| t.cmp(&time).is_le());
                    model.insert(at, (time, seq));
                    seq += 1;
                }
                prop_assert_eq!(q.peek_time(), model.first().map(|e| e.0));
            }
            let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            prop_assert_eq!(drained, model);
        }
    }
}
