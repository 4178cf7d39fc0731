//! The per-processor programming context.
//!
//! A [`Ctx`] is what a QSM program sees: its processor id, typed
//! shared-array registration, `put`/`get` enqueueing, a local window
//! into block-distributed arrays, explicit local-operation charging,
//! and `sync()`. One `Ctx` lives on each processor's stack for the length
//! of a run and owns that processor's memory segments throughout. On
//! every backend `sync()` is the same rendezvous through the lock-free
//! exchange area in `crate::spmd`, which is also where all the
//! `unsafe` of reading a peer's context lives; this file has none.
//!
//! ### Bulk-synchrony enforcement
//!
//! * A [`GetTicket`] issued in phase *k* can only be redeemed in a
//!   phase strictly later than *k* ([`Ctx::take`] panics otherwise).
//! * The driver checks that no shared location is both read and
//!   written in the same phase and panics with a diagnostic if an
//!   algorithm violates the rule (the QSM phase contract).
//!
//! ### Cost charging
//!
//! Shared-memory traffic is metered automatically. Local computation
//! is charged explicitly through [`Ctx::charge`]: the paper's
//! analyses count abstract "local operations", so the algorithm
//! decides what constitutes one (typically: one loop iteration per
//! element). Host-side work done to *implement* the simulation (e.g.
//! copying a local window out and back) costs nothing unless charged.
//!
//! ### Local windows
//!
//! A processor's block of a block-distributed array is stored packed
//! at the element width (`crate::word`), so [`Ctx::local`] and
//! [`Ctx::local_mut`] hand it out as a plain `&[T]` / `&mut [T]`: a
//! kernel scans, accumulates or scatters in place, and nothing is
//! copied. [`Ctx::local_read`], [`Ctx::local_vec`] and
//! [`Ctx::local_write`] are `memcpy`s over those windows, for when the
//! caller wants to own the data or must hold it across a call that
//! needs `&mut Ctx`; likewise [`Ctx::take`] over [`Ctx::take_into`].
//! A handle is checked against the width of the array it names on
//! every use, so a handle kept from another run cannot reinterpret
//! storage.
//!
//! ### The allocation-free hot path
//!
//! Steady-state phases allocate nothing in the runtime, and an
//! operation is filed once: one 24-byte run per storage owner in the
//! phase's `Outbox` (`crate::ops`), found through the array's
//! `BlockGeom` (one division a call) and metered into the outbox's
//! traffic row. A put's run names its elements in the outbox's payload
//! arena; a get's names the words `get` reserved in the phase's
//! `Results` buffer, which `sync()` fills (`Ctx::serve_gets`), a
//! [`GetTicket`] indexes and [`Ctx::take_into`] copies out of. Both
//! kinds of buffer are reused: a worker's two outboxes are cleared by
//! what they touched, and a `Results` is recycled when the last ticket
//! of its phase is redeemed — a pipelined loop holds two, whatever the
//! number of gets.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::addr::{ArrayId, Layout};
use crate::driver::OwnerKappa;
use crate::ops::{GetTicket, Outbox};
use crate::shmem::{ArrayInfo, LocalStore, Registration, SharedArray};
use crate::spmd::{SpmdLink, SpmdObs};
use crate::word::{self, Word};

/// The results of one phase's gets.
#[derive(Default)]
struct Results {
    /// The phase that issued the gets.
    phase: u64,
    /// Every result, packed at its array's width in issue order; each
    /// starts on a storage word.
    words: Vec<u64>,
    /// Tickets of the phase not yet redeemed; none marks a buffer that
    /// waits for reuse.
    outstanding: usize,
}

impl Results {
    /// Whether tickets issued in `phase` wait on this buffer.
    fn serves(&self, phase: u64) -> bool {
        self.phase == phase && self.outstanding > 0
    }
}

/// The per-processor execution context handed to QSM programs.
pub struct Ctx {
    pub(crate) proc: usize,
    pub(crate) nprocs: usize,
    pub(crate) phase: u64,
    pub(crate) charged: u64,
    pub(crate) next_array_id: u32,
    pub(crate) store: LocalStore,
    pub(crate) queued: Outbox,
    /// Scratch of the κ sweep over the runs bound for this block.
    pub(crate) kappa: OwnerKappa,
    pub(crate) pending_regs: Vec<Registration>,
    pub(crate) pending_unregs: Vec<ArrayId>,
    /// Result arenas: those waiting for reuse at the front, then those
    /// with tickets outstanding in phase order.
    results: VecDeque<Results>,
    rng: SmallRng,
    /// This run's exchange area, where `sync()` rendezvouses.
    pub(crate) link: SpmdLink,
    /// Per-worker span capture; `None` (the default, and always on
    /// the simulated machine) means no capture.
    pub(crate) spmd_obs: Option<Box<SpmdObs>>,
}

impl Ctx {
    /// A context for processor `proc` of the run behind `link`, which
    /// meters `banks` banks per node.
    pub(crate) fn new(proc: usize, nprocs: usize, banks: usize, seed: u64, link: SpmdLink) -> Self {
        Self {
            proc,
            nprocs,
            phase: 0,
            charged: 0,
            next_array_id: 0,
            store: LocalStore::default(),
            queued: Outbox::new(nprocs, banks),
            kappa: OwnerKappa::default(),
            pending_regs: Vec::new(),
            pending_unregs: Vec::new(),
            results: VecDeque::new(),
            rng: SmallRng::seed_from_u64(seed ^ (proc as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            link,
            spmd_obs: None,
        }
    }

    /// This processor's id in `0..nprocs()`.
    pub fn proc_id(&self) -> usize {
        self.proc
    }

    /// Number of processors in the machine.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Index of the current phase (incremented by every [`Ctx::sync`]).
    pub fn phase(&self) -> u64 {
        self.phase
    }

    /// Charge `ops` local operations to the current phase (the QSM
    /// `m_op` term).
    pub fn charge(&mut self, ops: u64) {
        self.charged += ops;
    }

    /// A per-processor deterministic RNG (seeded from the machine
    /// seed and the processor id).
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Collectively register a shared array of `len` elements of `T`.
    ///
    /// Every processor must call `register` with identical arguments
    /// in the same phase (the driver verifies this); the array
    /// becomes usable **after the next [`Ctx::sync`]**, mirroring the
    /// paper's "allocate and register, then barrier" idiom.
    pub fn register<T: Word>(&mut self, name: &str, len: usize, layout: Layout) -> SharedArray<T> {
        let id = ArrayId(self.next_array_id);
        self.next_array_id += 1;
        self.pending_regs.push(Registration {
            name: name.to_string(),
            len,
            elem_bytes: T::BYTES,
            layout,
        });
        SharedArray { id, len, layout, _elem: PhantomData }
    }

    /// Collectively unregister `arr`; storage is reclaimed at the
    /// next [`Ctx::sync`]. Queuing further operations against the
    /// handle afterwards panics.
    pub fn unregister<T: Word>(&mut self, arr: SharedArray<T>) {
        self.pending_unregs.push(arr.id);
    }

    /// Queue a write of `data` to the global range starting at
    /// `start`. Visible to everyone after the next [`Ctx::sync`].
    pub fn put<T: Word>(&mut self, arr: &SharedArray<T>, start: usize, data: &[T]) {
        if data.is_empty() {
            return;
        }
        let info = Self::info_of(&self.store, arr);
        assert!(
            start + data.len() <= info.len,
            "put of {}..{} exceeds array '{}' (len {})",
            start,
            start + data.len(),
            info.name,
            info.len
        );
        self.queued.put(info, start, data);
    }

    /// Queue a read of `len` elements starting at global index
    /// `start`. The returned ticket is redeemable via [`Ctx::take`]
    /// after the next [`Ctx::sync`].
    pub fn get<T: Word>(&mut self, arr: &SharedArray<T>, start: usize, len: usize) -> GetTicket<T> {
        let info = Self::info_of(&self.store, arr);
        assert!(
            start + len <= info.len,
            "get of {}..{} exceeds array '{}' (len {})",
            start,
            start + len,
            info.name,
            info.len
        );
        if !self.results.back().is_some_and(|r| r.serves(self.phase)) {
            // The phase's first get: take a buffer that waits.
            let free = self.results.front().is_some_and(|r| r.outstanding == 0);
            let recycled = if free { self.results.pop_front() } else { None };
            self.results.push_back(Results { phase: self.phase, ..recycled.unwrap_or_default() });
        }
        let arena = self.results.back_mut().expect("pushed above");
        let at = arena.words.len();
        arena.words.resize(at + word::storage_words(len, T::BYTES), 0);
        arena.outstanding += 1;
        self.queued.get(info, start, len, at * (8 / T::BYTES as usize));
        GetTicket { at, len, issued_phase: self.phase, _elem: PhantomData }
    }

    /// Redeem a get ticket, appending its result to `out`. Panics if
    /// called in the phase that issued the get — that is precisely the
    /// bulk-synchrony rule QSM enforces ("values returned by
    /// shared-memory reads issued in a phase cannot be used in the same
    /// phase").
    pub fn take_into<T: Word>(&mut self, ticket: GetTicket<T>, out: &mut Vec<T>) {
        assert!(
            self.phase > ticket.issued_phase || ticket.len == 0,
            "bulk-synchrony violation on processor {}: take() of a get issued in \
             phase {} before any sync(); call sync() first",
            self.proc,
            ticket.issued_phase
        );
        let of_ticket = |r: &Results| r.serves(ticket.issued_phase);
        let idx = self.results.iter().position(of_ticket).expect("get result missing");
        let arena = &mut self.results[idx];
        out.extend_from_slice(word::elems(&arena.words[ticket.at..], ticket.len));
        arena.outstanding -= 1;
        if arena.outstanding == 0 {
            // The phase's last ticket: its buffer waits at the front.
            let mut arena = self.results.remove(idx).expect("found above");
            arena.words.clear();
            self.results.push_front(arena);
        }
    }

    /// Redeem a get ticket into a fresh `Vec` (see [`Ctx::take_into`]).
    pub fn take<T: Word>(&mut self, ticket: GetTicket<T>) -> Vec<T> {
        let mut out = Vec::with_capacity(ticket.len);
        self.take_into(ticket, &mut out);
        out
    }

    /// Serve the gets this processor queued in `mine`, its published
    /// outbox of the phase, into the phase's result arena: owner by
    /// owner, from the block in the store that `store_of` names.
    pub(crate) fn serve_gets<'a>(
        &mut self,
        mine: &Outbox,
        store_of: impl Fn(usize) -> &'a LocalStore,
    ) {
        let Some(arena) = self.results.back_mut().filter(|r| r.serves(self.phase)) else {
            return; // no get this phase
        };
        for owner in 0..self.nprocs {
            for run in mine.runs_for(owner).iter().filter(|run| !run.is_put()) {
                // Named per get, not per owner: a slot's cache line also
                // holds the κ its owner writes meanwhile, and looking at
                // all `p` cost a 16-processor exchange phase 2–6 %.
                let (info, peer) = (self.store.info(run.array), store_of(owner));
                let from = run.start - info.geom.start(owner);
                let (seg, n) = (peer.segment(run.array), run.len as usize);
                word::copy_packed(info.elem_bytes, seg, from, &mut arena.words, run.offset(), n);
            }
        }
    }

    /// Metadata of the live array `arr` names, after checking that the
    /// handle's element width is the array's: ids restart at 0 in every
    /// run, so a handle kept from another run can name an array of
    /// another type. (Of the store, not of `self`: `put` and `get` fill
    /// the outbox while they hold it.)
    fn info_of<'a, T: Word>(store: &'a LocalStore, arr: &SharedArray<T>) -> &'a ArrayInfo {
        let info = store.info(arr.id);
        assert!(
            info.elem_bytes == T::BYTES,
            "handle of {}-byte elements used on array '{}', which stores {}-byte elements \
             (a handle from another run?)",
            T::BYTES,
            info.name,
            info.elem_bytes
        );
        info
    }

    /// The global index range of `arr` held in this processor's local
    /// window (block layout only).
    pub fn local_range<T: Word>(&self, arr: &SharedArray<T>) -> Range<usize> {
        let info = Self::info_of(&self.store, arr);
        assert_eq!(
            info.layout,
            Layout::Block,
            "array '{}' is hash-distributed and has no local window",
            info.name
        );
        info.geom.range(self.proc)
    }

    /// This processor's local window of `arr`, borrowed in place:
    /// element `i` is global index `local_range(arr).start + i`. Free of
    /// communication cost and of any copy; sees values as of the start
    /// of the phase plus this processor's own local writes.
    pub fn local<T: Word>(&self, arr: &SharedArray<T>) -> &[T] {
        let len = self.local_range(arr).len();
        word::elems(self.store.segment(arr.id), len)
    }

    /// This processor's local window of `arr`, borrowed mutably in
    /// place (see [`Ctx::local`]). Writes are local writes: free, and
    /// visible to peers' gets from the next [`Ctx::sync`] on.
    pub fn local_mut<T: Word>(&mut self, arr: &SharedArray<T>) -> &mut [T] {
        let len = self.local_range(arr).len();
        word::elems_mut(self.store.segment_mut(arr.id), len)
    }

    /// Copy `len` elements starting at global index `start` out of the
    /// local window (see [`Ctx::local`]).
    pub fn local_read<T: Word>(&self, arr: &SharedArray<T>, start: usize, len: usize) -> Vec<T> {
        let range = self.local_range(arr);
        assert!(
            start >= range.start && start + len <= range.end,
            "local_read {}..{} outside local window {:?} of processor {}",
            start,
            start + len,
            range,
            self.proc
        );
        self.local(arr)[start - range.start..][..len].to_vec()
    }

    /// Copy the entire local window out.
    pub fn local_vec<T: Word>(&self, arr: &SharedArray<T>) -> Vec<T> {
        self.local(arr).to_vec()
    }

    /// Copy `data` into the local window starting at global index
    /// `start` (see [`Ctx::local_mut`]).
    pub fn local_write<T: Word>(&mut self, arr: &SharedArray<T>, start: usize, data: &[T]) {
        let range = self.local_range(arr);
        assert!(
            start >= range.start && start + data.len() <= range.end,
            "local_write {}..{} outside local window {:?} of processor {}",
            start,
            start + data.len(),
            range,
            self.proc
        );
        self.local_mut(arr)[start - range.start..][..data.len()].copy_from_slice(data);
    }

    /// End the phase: exchange all queued operations, complete
    /// pending registrations, and synchronize with every other
    /// processor. Returns once the barrier releases this processor.
    pub fn sync(&mut self) {
        crate::spmd::sync_phase(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::block_range;

    fn reg<T: Word>(len: usize) -> Registration {
        Registration { name: "a".into(), len, elem_bytes: T::BYTES, layout: Layout::Block }
    }

    /// Processor `proc` of `p` with one live array of `len` elements,
    /// installed as the registering `sync()` would have.
    fn ctx_with<T: Word>(len: usize, p: usize, proc: usize) -> (Ctx, SharedArray<T>) {
        let mut ctx = Ctx::new(proc, p, 0, 0, SpmdLink::detached());
        let arr = ctx.register::<T>("a", len, Layout::Block);
        let reg = ctx.pending_regs.pop().expect("one registration");
        let words = word::storage_words(block_range(len, p, proc).len(), reg.elem_bytes);
        ctx.store.install(ArrayInfo::new(arr.id, reg, p), vec![0; words]);
        (ctx, arr)
    }

    /// The `p` frozen stores a `sync()` would serve from: element `i`
    /// of the one array holds `value(i)`.
    fn stores<T: Word>(len: usize, p: usize, value: impl Fn(usize) -> T) -> Vec<LocalStore> {
        let store_of = |proc| {
            let block: Vec<T> = block_range(len, p, proc).map(&value).collect();
            let mut seg = vec![0; word::storage_words(block.len(), T::BYTES)];
            word::elems_mut(&mut seg, block.len()).copy_from_slice(&block);
            let mut store = LocalStore::default();
            store.install(ArrayInfo::new(ArrayId(0), reg::<T>(len), p), seg);
            store
        };
        (0..p).map(store_of).collect()
    }

    /// What a `sync()` does to the gets `ctx` queued, without a run.
    fn sync(ctx: &mut Ctx, peers: &[LocalStore]) {
        let mine = std::mem::replace(&mut ctx.queued, Outbox::new(ctx.nprocs, 0));
        ctx.serve_gets(&mine, |owner| &peers[owner]);
        ctx.phase += 1;
    }

    #[test]
    fn a_window_is_the_block_in_place() {
        // Blocks of 10 over 3: 0..4, 4..7, 7..10.
        let (mut ctx, arr) = ctx_with::<u32>(10, 3, 1);
        assert_eq!(ctx.local_range(&arr), 4..7);
        assert_eq!(ctx.store.segment(arr.id).len(), 2, "three u32s in two storage words");
        ctx.local_mut(&arr).copy_from_slice(&[7, 8, 9]);
        assert_eq!(ctx.local(&arr), [7, 8, 9]);
        ctx.local_write(&arr, 5, &[80, 90]);
        ctx.local_mut(&arr)[0] = u32::MAX;
        assert_eq!(ctx.local_read(&arr, 4, 2), [u32::MAX, 80]);
        assert_eq!(ctx.local_vec(&arr), [u32::MAX, 80, 90]);
    }

    #[test]
    fn a_put_is_packed_at_the_element_width() {
        let (mut ctx, arr) = ctx_with::<i32>(10, 3, 1);
        ctx.put(&arr, 0, &[-1, 2, -3]);
        let run = ctx.queued.runs_for(0)[0];
        assert_eq!((run.start, run.len, run.offset(), run.is_put()), (0, 3, 0, true));
        assert_eq!(ctx.queued.payload.len(), 2);
        assert_eq!(word::elems::<i32>(&ctx.queued.payload, 3), [-1, 2, -3]);
        ctx.put(&arr, 9, &[]);
        assert_eq!(ctx.queued.runs_for(2), [], "an empty put queues nothing");
    }

    #[test]
    fn take_into_appends_and_recycles_the_buffer() {
        let nan = f64::from_bits(0x7ff8_0000_0000_beef);
        let peers = stores(10, 3, |i| if i == 0 { nan } else { i as f64 + 0.5 });
        let (mut ctx, arr) = ctx_with::<f64>(10, 3, 1);
        let ticket = ctx.get(&arr, 0, 2);
        sync(&mut ctx, &peers);
        let arena = ctx.results[0].words.as_ptr();
        let mut out = vec![1.0];
        ctx.take_into(ticket, &mut out);
        assert_eq!(out[0], 1.0);
        assert_eq!((out[1].to_bits(), out[2]), (nan.to_bits(), 1.5));
        // Its last ticket redeemed, the buffer serves the next phase.
        assert_eq!((ctx.results.len(), ctx.results[0].outstanding), (1, 0));
        let next = ctx.get(&arr, 8, 1);
        assert_eq!((ctx.results.len(), ctx.results[0].words.as_ptr()), (1, arena));
        sync(&mut ctx, &peers);
        assert_eq!(ctx.take(next), [8.5]);
    }

    #[test]
    fn an_empty_get_is_ready_at_once_and_moves_nothing() {
        let (mut ctx, arr) = ctx_with::<u32>(10, 3, 1);
        let (empty, full) = (ctx.get(&arr, 10, 0), ctx.get(&arr, 9, 1));
        assert!(empty.is_empty() && ctx.results[0].words.len() == 1);
        assert_eq!((0..3).map(|owner| ctx.queued.runs_for(owner).len()).sum::<usize>(), 1);
        assert_eq!(ctx.queued.m_rw, 1);
        assert!(ctx.take(empty).is_empty(), "in the phase that issued it");
        assert_eq!(ctx.results[0].outstanding, 1);
        drop(full);
    }

    #[test]
    fn tickets_are_redeemed_in_any_order_and_any_later_phase() {
        let peers = stores(10, 3, |i| 100 + i as u32);
        let (mut ctx, arr) = ctx_with::<u32>(10, 3, 1);
        let (a0, b0) = (ctx.get(&arr, 0, 3), ctx.get(&arr, 9, 1));
        sync(&mut ctx, &peers);
        let (a1, b1) = (ctx.get(&arr, 4, 1), ctx.get(&arr, 5, 2));
        sync(&mut ctx, &peers);
        let a2 = ctx.get(&arr, 7, 2);
        assert_eq!(ctx.results.len(), 3, "an arena a phase with tickets outstanding");
        sync(&mut ctx, &peers);
        // Interleaved across phases, last issued first, two phases late.
        assert_eq!(ctx.take(b1), [105, 106]);
        assert_eq!(ctx.take(b0), [109]);
        assert_eq!(ctx.take(a2), [107, 108]);
        assert_eq!(ctx.results[0].outstanding, 0, "phase 2 is redeemed in full");
        assert_eq!(ctx.take(a0), [100, 101, 102]);
        assert_eq!(ctx.take(a1), [104]);
        assert!(ctx.results.iter().all(|r| r.outstanding == 0 && r.words.is_empty()));
    }

    #[test]
    fn a_get_over_three_owners_is_one_stretch_of_the_arena() {
        // Blocks of 7 over 3: 0..3, 3..5, 5..7.
        let peers = stores(7, 3, |i| 10 * i as u64);
        let (mut ctx, arr) = ctx_with::<u64>(7, 3, 2);
        let first = ctx.get(&arr, 6, 1);
        let wide = ctx.get(&arr, 2, 4);
        assert_eq!((first.at, wide.at), (0, 1));
        sync(&mut ctx, &peers);
        assert_eq!(ctx.results[0].words, [60, 20, 30, 40, 50]);
        assert_eq!((ctx.take(wide), ctx.take(first)), (vec![20, 30, 40, 50], vec![60]));
    }

    #[test]
    fn a_dropped_ticket_holds_its_own_phase_and_no_other() {
        let peers = stores(10, 3, |i| i as u32);
        let (mut ctx, arr) = ctx_with::<u32>(10, 3, 1);
        drop((ctx.get(&arr, 0, 1), ctx.get(&arr, 1, 1)));
        for phase in 1..50 {
            sync(&mut ctx, &peers);
            let tickets: Vec<_> = (0..8).map(|i| ctx.get(&arr, i, 1)).collect();
            sync(&mut ctx, &peers);
            for (i, t) in tickets.into_iter().enumerate() {
                assert_eq!(ctx.take(t), [i as u32], "phase {phase}");
            }
            // The dropped phase's arena, and one that is recycled.
            assert_eq!(ctx.results.len(), 2, "phase {phase}");
        }
        assert_eq!((ctx.results[1].phase, ctx.results[1].outstanding), (0, 2));
    }

    #[test]
    #[should_panic(expected = "take() of a get issued in phase 0 before any sync()")]
    fn a_ticket_is_not_redeemable_in_its_own_phase() {
        let (mut ctx, arr) = ctx_with::<u32>(10, 3, 1);
        let ticket = ctx.get(&arr, 0, 1);
        let _ = ctx.take(ticket);
    }

    #[test]
    #[should_panic(expected = "handle of 8-byte elements used on array 'a', which stores 4-byte")]
    fn a_handle_of_another_width_is_refused() {
        let (ctx, arr) = ctx_with::<u32>(10, 3, 1);
        let stale =
            SharedArray::<u64> { id: arr.id, len: 10, layout: Layout::Block, _elem: PhantomData };
        let _ = ctx.local(&stale);
    }
}
