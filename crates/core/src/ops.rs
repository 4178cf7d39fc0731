//! Queued shared-memory operations and get tickets.
//!
//! As in the paper's library, `get()` and `put()` merely enqueue
//! requests on the local node; all communication happens inside
//! `sync()`. A [`GetTicket`] is the capability to read a get's result
//! — it only becomes redeemable after the next `sync()`, which is how
//! the bulk-synchrony rule "values returned by reads issued in a
//! phase cannot be used in the same phase" is enforced at runtime.
//!
//! Requests are batched **per destination on the requesting node**, as
//! they are issued, and each is filed once: an `Outbox` holds one
//! bucket of `Run`s per storage owner, one arena with every put's
//! payload, and the requester's own row of the phase's traffic matrix.
//! A run names where its elements sit on the requesting side (that
//! arena for a put, the phase's result arena of `crate::ctx` for a
//! get), so at `sync()` the requester serves its gets from its own
//! buckets, an owner sweeps (κ) and applies only the buckets addressed
//! to it, and the leader reads the rows where they lie; nobody walks a
//! flat list.
//!
//! ### Host memory
//!
//! A run is 24 bytes, `(array, len, global start, arena offset)`,
//! with a tag bit of the offset saying which arena. Both kinds of
//! operation add to the requester's row, one cell per `(cost owner,
//! bank)` and one bank a node on a machine that models none, which is
//! all the metering a `Hashed` array needs. A row is O(p) cells, sized
//! by a processor's first operation and cleared through its dirty-cell
//! list, so what a run holds quadratic in `p` is the rows alone (at
//! p = 256 with four banks, `tests/sim_on_pool.rs` reads 0.2 MiB live),
//! and the leader keeps no matrix and of the arrays only a live bit
//! each. Per-sync state is dense by [`ArrayId`] (ids are assigned
//! densely and never reused) and recycled across phases, and a segment
//! never moves: its worker owns its block of every array for the whole
//! run. None of this can move a simulated number: the metered events
//! keep their order (the latin-square exchange, the transmit sort keys,
//! processor-then-issue put application, sorted-id κ sweeps), and the
//! dirty lists skip only cells that moved no message.

use std::marker::PhantomData;

use crate::addr::{for_each_bank_run, for_each_owner_run, ArrayId, Layout};
use crate::driver::PairTraffic;
use crate::shmem::ArrayInfo;
use crate::word::{elems_mut, storage_words, Word};

/// Tag bit of [`Run::src`]: set on a get's run.
const GET: usize = 1 << (usize::BITS - 1);

/// The part of one queued put or get that lies in one processor's
/// block of storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    pub(crate) array: ArrayId,
    /// Elements in the run.
    pub(crate) len: u32,
    /// First global index.
    pub(crate) start: usize,
    /// Where the run's first element sits on the requesting side,
    /// counted in elements of the array's width: a put's in its
    /// source's payload arena, a get's, under [`GET`], in its
    /// requester's result arena of the phase.
    src: usize,
}

impl Run {
    pub(crate) fn is_put(&self) -> bool {
        self.src & GET == 0
    }

    /// [`Run::src`] without its tag.
    pub(crate) fn offset(&self) -> usize {
        self.src & !GET
    }
}

/// Everything a processor queued during one phase, bucketed by
/// destination and metered as it was issued. Sized by the first
/// operation and cleared by what was touched: queuing nothing costs
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    p: usize,
    /// Cells per owner: the banks per node the run meters, one on a
    /// machine that models none.
    banks: usize,
    /// `runs[dst]`: the runs in `dst`'s block of storage, in issue
    /// order; `touched` lists the non-empty buckets.
    runs: Vec<Vec<Run>>,
    touched: Vec<u32>,
    /// Every put's elements, packed at its array's width; each put
    /// starts on a storage word.
    pub(crate) payload: Vec<u64>,
    /// This processor's row of the traffic matrix, one cell per
    /// `(cost owner, bank)` (all the metering a `Hashed` array needs
    /// too); empty until the first operation. `dirty` lists the
    /// non-empty cells.
    pub(crate) cells: Vec<PairTraffic>,
    dirty: Vec<u32>,
}

impl Outbox {
    /// An empty outbox of processor count `p`, metering `banks` banks
    /// per node (0: the machine models none).
    pub(crate) fn new(p: usize, banks: usize) -> Self {
        Self { p, banks: banks.max(1), ..Self::default() }
    }

    /// Cells per owner in the row: the banks it meters, at least one.
    pub(crate) fn banks(&self) -> usize {
        self.banks
    }

    /// Queue a write of `data` at `start` of `info`'s array.
    pub(crate) fn put<T: Word>(&mut self, info: &ArrayInfo, start: usize, data: &[T]) {
        let at = self.payload.len();
        self.payload.resize(at + storage_words(data.len(), T::BYTES), 0);
        elems_mut(&mut self.payload[at..], data.len()).copy_from_slice(data);
        self.push(info, start, data.len(), at * (8 / T::BYTES as usize));
    }

    /// Queue a read of `len` elements at `start` of `info`'s array, to
    /// land at element `at` of the requester's result arena.
    pub(crate) fn get(&mut self, info: &ArrayInfo, start: usize, len: usize, at: usize) {
        self.push(info, start, len, GET | at);
    }

    /// Bucket `start..start + len` by storage owner (always the block
    /// partition) and meter it by cost owner (`info.layout`).
    fn push(&mut self, info: &ArrayInfo, start: usize, len: usize, src: usize) {
        if self.runs.is_empty() {
            self.runs.resize_with(self.p, Vec::new);
            self.cells.resize(self.p * self.banks, PairTraffic::default());
            self.touched.reserve(self.p);
            self.dirty.reserve(self.p);
        }
        let put = src & GET == 0;
        info.geom.for_each_run(start, len, |dst, s, l| {
            let bucket = &mut self.runs[dst];
            if bucket.is_empty() {
                self.touched.push(dst as u32);
            }
            let len = u32::try_from(l).expect("a run of 2^32 elements or more");
            bucket.push(Run { array: info.id, len, start: s, src: src + (s - start) });
            if info.layout == Layout::Block {
                self.meter(info, put, dst, s, l);
            }
        });
        if info.layout == Layout::Hashed {
            for_each_owner_run(info.layout, info.id, info.len, self.p, start, len, |dst, s, l| {
                self.meter(info, put, dst, s, l)
            });
        }
    }

    /// Add the `l` elements at `s`, all of cost owner `dst`, to its
    /// bank cells of the row.
    fn meter(&mut self, info: &ArrayInfo, put: bool, dst: usize, s: usize, l: usize) {
        // The library is word-granular, as in the paper: every 4-byte
        // word carries its own item header and marshal/apply cost (this
        // is why Table 3's observed gap is an order of magnitude above
        // the hardware gap even for bulk transfers).
        let (words, bytes) = (info.words_per_elem(), info.elem_bytes);
        let mut add = |idx: usize, n: usize| {
            let cell = &mut self.cells[idx];
            if cell.is_empty() {
                self.dirty.push(idx as u32);
            }
            if put {
                cell.put_words += n as u64 * words;
                cell.put_payload_bytes += n as u64 * bytes;
            } else {
                cell.get_words += n as u64 * words;
                cell.get_reply_payload_bytes += n as u64 * bytes;
            }
        };
        let first = dst * self.banks;
        // One bank takes the run whole; `for_each_bank_run` would walk
        // a hashed run element by element.
        if self.banks == 1 {
            add(first, l);
        } else {
            for_each_bank_run(info.layout, info.id, self.banks, s, l, |bank, n| {
                add(first + bank, n)
            });
        }
    }

    /// Empty for reuse: visits what was touched, frees nothing.
    pub(crate) fn clear(&mut self) {
        for dst in self.touched.drain(..) {
            self.runs[dst as usize].clear();
        }
        for idx in self.dirty.drain(..) {
            self.cells[idx as usize] = PairTraffic::default();
        }
        self.payload.clear();
    }

    /// The runs that land in `dst`'s block of storage, in issue order.
    pub(crate) fn runs_for(&self, dst: usize) -> &[Run] {
        self.runs.get(dst).map_or(&[], Vec::as_slice)
    }

    /// The non-empty cells, as `(cost owner, bank, cell)`.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (usize, usize, &PairTraffic)> {
        self.dirty.iter().map(|&idx| {
            let idx = idx as usize;
            (idx / self.banks, idx % self.banks, &self.cells[idx])
        })
    }
}

/// Capability to read the result of a `get()` after the next
/// `sync()`.
///
/// The ticket is intentionally **not** `Copy`/`Clone`: redeeming it
/// consumes it, so a result can be taken exactly once. The results of
/// one phase's gets share one buffer, recycled when the last of their
/// tickets is redeemed: a ticket dropped un-redeemed keeps its own
/// phase's results, and nothing else, allocated until the run ends.
#[derive(Debug, PartialEq, Eq)]
#[must_use = "a get() that is never take()n moves data for nothing"]
pub struct GetTicket<T: Word> {
    /// First storage word of the result in its phase's arena.
    pub(crate) at: usize,
    pub(crate) len: usize,
    pub(crate) issued_phase: u64,
    pub(crate) _elem: PhantomData<fn() -> T>,
}

impl<T: Word> GetTicket<T> {
    /// Number of elements the redeemed result will contain.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the get was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
impl Outbox {
    /// Set the cell of bank `bank` of owner `dst` to `traffic`, as if
    /// queuing had metered it so.
    pub(crate) fn meter_cell(&mut self, dst: usize, bank: usize, traffic: PairTraffic) {
        self.cells.resize(self.p * self.banks, PairTraffic::default());
        let idx = dst * self.banks + bank;
        if self.cells[idx].is_empty() {
            self.dirty.push(idx as u32);
        }
        self.cells[idx] = traffic;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{bank_of, block_owner, owner};
    use crate::shmem::Registration;
    use crate::word::elems;

    /// An array of `len` elements over `p` processors.
    fn info(elem_bytes: u64, len: usize, layout: Layout, p: usize) -> ArrayInfo {
        ArrayInfo::new(ArrayId(3), Registration { name: "a".into(), len, elem_bytes, layout }, p)
    }

    #[test]
    fn a_run_is_three_words() {
        assert!(std::mem::size_of::<Run>() <= 24);
    }

    #[test]
    fn a_put_is_split_and_bucketed_by_storage_owner() {
        // Blocks of 7 over 3: 0..3, 3..5, 5..7.
        let a = info(4, 7, Layout::Block, 3);
        let mut out = Outbox::new(3, 0);
        out.put(&a, 1, &[10u32, 11, 12, 13, 14]);
        out.put(&a, 4, &[20u32]);
        out.get(&a, 2, 2, 8);
        let run = |start, len, src| Run { array: a.id, len, start, src };
        assert_eq!(out.runs_for(0), [run(1, 2, 0), run(2, 1, GET | 8)]);
        // Five u32 fill three storage words: the next put is element 6.
        assert_eq!(out.runs_for(1), [run(3, 2, 2), run(4, 1, 6), run(3, 1, GET | 9)]);
        assert_eq!(out.runs_for(2), [run(5, 1, 4)]);
        assert_eq!(elems::<u32>(&out.payload, 7), [10, 11, 12, 13, 14, 0, 20]);
        let [put, get] = out.runs_for(0) else { panic!("two runs") };
        assert!(put.is_put() && !get.is_put());
        assert_eq!((put.offset(), get.offset()), (0, 8));
    }

    #[test]
    fn a_get_over_three_owners_lands_contiguously() {
        // Blocks of 7 over 3: 0..3, 3..5, 5..7.
        let a = info(8, 7, Layout::Block, 3);
        let mut out = Outbox::new(3, 0);
        out.get(&a, 2, 4, 40);
        let run = |start, len, at| Run { array: a.id, len, start, src: GET | at };
        assert_eq!(out.runs_for(0), [run(2, 1, 40)]);
        assert_eq!(out.runs_for(1), [run(3, 2, 41)]);
        assert_eq!(out.runs_for(2), [run(5, 1, 43)]);
        assert!(out.payload.is_empty(), "a get carries no payload");
    }

    #[test]
    fn the_row_is_metered_by_cost_owner() {
        for (layout, banks) in
            [(Layout::Block, 0), (Layout::Hashed, 0), (Layout::Block, 4), (Layout::Hashed, 4)]
        {
            let (p, len, cells) = (4, 50, banks.max(1));
            let a = info(8, len, layout, p);
            let mut out = Outbox::new(p, banks);
            out.put(&a, 5, &[7u64; 30]);
            out.get(&a, 40, 10, 0);
            // Element by element: 8 bytes are two accounting words.
            let mut want = vec![PairTraffic::default(); p * cells];
            for idx in (5..35).chain(40..50) {
                let bank = if banks > 0 { bank_of(layout, a.id, banks, idx) } else { 0 };
                let cell = &mut want[owner(layout, a.id, len, p, idx) * cells + bank];
                if idx < 35 {
                    cell.put_words += 2;
                    cell.put_payload_bytes += 8;
                } else {
                    cell.get_words += 2;
                    cell.get_reply_payload_bytes += 8;
                }
            }
            let mut got = vec![PairTraffic::default(); p * cells];
            for (dst, bank, cell) in out.cells() {
                got[dst * cells + bank] = *cell;
            }
            assert_eq!(got, want, "{layout:?}, {banks} banks");
            let nonempty = want.iter().filter(|c| !c.is_empty()).count();
            assert_eq!(out.cells().count(), nonempty, "each dirty cell is listed once");
            // Storage is the block partition whatever the cost layout.
            for dst in 0..p {
                for run in out.runs_for(dst) {
                    assert_eq!(block_owner(len, p, run.start), dst);
                    assert_eq!(block_owner(len, p, run.start + run.len as usize - 1), dst);
                }
            }
        }
    }

    #[test]
    fn clear_visits_what_was_touched_and_keeps_the_buffers() {
        let a = info(4, 64, Layout::Block, 8);
        let mut out = Outbox::new(8, 2);
        assert!(out.runs_for(5).is_empty(), "an outbox never used has no buckets");
        out.put(&a, 8, &[1u32, 2, 3]);
        let (bucket, arena) = (out.runs_for(1).as_ptr(), out.payload.as_ptr());
        out.clear();
        assert!((0..8).all(|dst| out.runs_for(dst).is_empty()));
        assert!(out.payload.is_empty());
        assert_eq!(out.cells().count(), 0);
        assert_eq!(out.cells, vec![PairTraffic::default(); 8 * 2]);
        // Only bucket 1 was ever allocated, and refilling reuses it.
        assert!(out.runs.iter().enumerate().all(|(dst, b)| (b.capacity() > 0) == (dst == 1)));
        out.put(&a, 9, &[4u32]);
        assert_eq!((out.runs_for(1).as_ptr(), out.payload.as_ptr()), (bucket, arena));
        assert_eq!(out.runs_for(1), [Run { array: a.id, len: 1, start: 9, src: 0 }]);
    }

    #[test]
    fn ticket_reports_len() {
        let t = GetTicket::<u32> { at: 1, len: 4, issued_phase: 0, _elem: PhantomData };
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }
}
