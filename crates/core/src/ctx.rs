//! The per-processor programming context.
//!
//! A [`Ctx`] is what a QSM program sees: its processor id, typed
//! shared-array registration, `put`/`get` enqueueing, a local window
//! into block-distributed arrays, explicit local-operation charging,
//! and `sync()`. One `Ctx` lives on each pooled worker for the length
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
//! Steady-state phases allocate nothing in the runtime: `put` packs
//! its elements into the payload arena of the phase's `Outbox`
//! (`crate::ops`) and files one 24-byte run per storage owner, `get`
//! files runs only, and both meter into the outbox's traffic row. A
//! worker's two outboxes (one filling, one published) are cleared by
//! what they touched and keep their buffers; get results come from a
//! bounded per-processor pool of storage-word buffers, refilled as they
//! are redeemed, and wait in a dense ticket-indexed `TicketTable`
//! instead of a hash map.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::addr::{block_range, ArrayId, Layout};
use crate::driver::OwnerKappa;
use crate::ops::{GetTicket, Outbox};
use crate::shmem::{ArrayInfo, LocalStore, Registration, SharedArray};
use crate::spmd::{SpmdLink, SpmdObs};
use crate::word::{self, Word};

/// Upper bound on pooled storage-word buffers kept per processor.
const RAW_POOL_CAP: usize = 4096;

/// One issued get's lifecycle in the [`TicketTable`].
#[derive(Default)]
enum TicketSlot {
    /// Issued; the fulfilling `sync()` has not run yet.
    #[default]
    Pending,
    /// Fulfilled: the packed result awaits [`Ctx::take_into`].
    Ready(Vec<u64>),
    /// Redeemed; kept only until the front of the table compacts past
    /// it (ids are dense and issued in order).
    Taken,
}

/// Dense ticket-indexed get-result table.
///
/// Ticket ids are assigned sequentially, so results live in a
/// `VecDeque` indexed by `ticket - base` instead of a `HashMap`;
/// redeemed front entries are compacted away, keeping the table as
/// short as the window of outstanding tickets.
#[derive(Default)]
pub(crate) struct TicketTable {
    base: u64,
    slots: VecDeque<TicketSlot>,
}

impl TicketTable {
    /// Record the issue of ticket `id` (ids must arrive in order).
    fn issue(&mut self, id: u64, slot: TicketSlot) {
        debug_assert_eq!(id, self.base + self.slots.len() as u64);
        self.slots.push_back(slot);
    }

    /// Deliver the packed result for `id`.
    pub(crate) fn fulfill(&mut self, id: u64, data: Vec<u64>) {
        let idx = (id - self.base) as usize;
        self.slots[idx] = TicketSlot::Ready(data);
    }

    /// Redeem `id`, compacting redeemed entries off the front.
    fn take(&mut self, id: u64) -> Vec<u64> {
        let idx = id
            .checked_sub(self.base)
            .map(|d| d as usize)
            .filter(|&d| d < self.slots.len())
            .expect("get result missing (ticket already taken?)");
        let slot = std::mem::replace(&mut self.slots[idx], TicketSlot::Taken);
        let TicketSlot::Ready(data) = slot else {
            panic!("get result missing (ticket already taken?)");
        };
        while matches!(self.slots.front(), Some(TicketSlot::Taken)) {
            self.slots.pop_front();
            self.base += 1;
        }
        data
    }
}

/// The per-processor execution context handed to QSM programs.
pub struct Ctx {
    pub(crate) proc: usize,
    pub(crate) nprocs: usize,
    pub(crate) phase: u64,
    pub(crate) charged: u64,
    pub(crate) next_array_id: u32,
    next_ticket: u64,
    pub(crate) store: LocalStore,
    pub(crate) queued: Outbox,
    /// Scratch of the κ sweep over the runs bound for this block.
    pub(crate) kappa: OwnerKappa,
    pub(crate) pending_regs: Vec<Registration>,
    pub(crate) pending_unregs: Vec<ArrayId>,
    pub(crate) tickets: TicketTable,
    /// Recycled storage-word buffers: redeemed get results feed later
    /// gets of any element type, so steady-state phases allocate
    /// nothing here.
    pub(crate) raw_pool: Vec<Vec<u64>>,
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
            next_ticket: 0,
            store: LocalStore::default(),
            queued: Outbox::new(nprocs, banks),
            kappa: OwnerKappa::default(),
            pending_regs: Vec::new(),
            pending_unregs: Vec::new(),
            tickets: TicketTable::default(),
            raw_pool: Vec::new(),
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
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        if len > 0 {
            self.queued.get(info, start, len, ticket);
            self.tickets.issue(ticket, TicketSlot::Pending);
        } else {
            self.tickets.issue(ticket, TicketSlot::Ready(Vec::new()));
        }
        GetTicket { id: ticket, len, issued_phase: self.phase, _elem: PhantomData }
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
        let mut raw = self.tickets.take(ticket.id);
        out.extend_from_slice(word::elems(&raw, ticket.len));
        // Keep the buffer for a later get; bounded, so a burst of tiny
        // gets cannot pin unbounded memory.
        if self.raw_pool.len() < RAW_POOL_CAP {
            raw.clear();
            self.raw_pool.push(raw);
        }
    }

    /// Redeem a get ticket into a fresh `Vec` (see [`Ctx::take_into`]).
    pub fn take<T: Word>(&mut self, ticket: GetTicket<T>) -> Vec<T> {
        let mut out = Vec::with_capacity(ticket.len);
        self.take_into(ticket, &mut out);
        out
    }

    /// A zeroed buffer of `words` storage words, recycled if the pool
    /// has one.
    pub(crate) fn pooled_raw(&mut self, words: usize) -> Vec<u64> {
        let mut buf = self.raw_pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(words, 0);
        buf
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
        block_range(info.len, self.nprocs, self.proc)
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

    /// Processor `proc` of `p` with one live array of `len` elements,
    /// installed as the registering `sync()` would have.
    fn ctx_with<T: Word>(len: usize, p: usize, proc: usize) -> (Ctx, SharedArray<T>) {
        let mut ctx = Ctx::new(proc, p, 0, 0, SpmdLink::detached());
        let arr = ctx.register::<T>("a", len, Layout::Block);
        let reg = ctx.pending_regs.pop().expect("one registration");
        let words = word::storage_words(block_range(len, p, proc).len(), reg.elem_bytes);
        let info = ArrayInfo {
            id: arr.id,
            name: reg.name,
            len,
            elem_bytes: reg.elem_bytes,
            layout: reg.layout,
        };
        ctx.store.install(info, vec![0; words]);
        (ctx, arr)
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
        assert_eq!((run.start, run.len, run.src), (0, 3, 0));
        assert_eq!(ctx.queued.payload.len(), 2);
        assert_eq!(word::elems::<i32>(&ctx.queued.payload, 3), [-1, 2, -3]);
        ctx.put(&arr, 9, &[]);
        assert_eq!(ctx.queued.runs_for(2), [], "an empty put queues nothing");
    }

    #[test]
    fn take_into_appends_and_recycles_the_buffer() {
        let (mut ctx, arr) = ctx_with::<f64>(10, 3, 1);
        let ticket = ctx.get(&arr, 0, 2);
        let nan = f64::from_bits(0x7ff8_0000_0000_beef);
        ctx.tickets.fulfill(0, vec![nan.to_bits(), 2.5f64.to_bits()]);
        ctx.phase += 1; // what the sync in between does
        let mut out = vec![1.0];
        ctx.take_into(ticket, &mut out);
        assert_eq!(out[0], 1.0);
        assert_eq!((out[1].to_bits(), out[2]), (nan.to_bits(), 2.5));
        assert_eq!(ctx.raw_pool.len(), 1);
        let empty = ctx.get(&arr, 3, 0);
        assert!(ctx.take(empty).is_empty(), "an empty get is ready at once");
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
