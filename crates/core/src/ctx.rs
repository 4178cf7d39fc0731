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
//! ### The allocation-free hot path
//!
//! Steady-state phases allocate nothing in the runtime: put payload
//! buffers come from a bounded per-processor raw-word pool (refilled
//! by redeemed get results and by the worker's own put buffers, which
//! it reclaims from its exchange slot two phases later), the op and
//! registration containers are drained and reused in place, and get
//! results live in a dense ticket-indexed `TicketTable` instead of a
//! hash map.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::addr::{block_range, ArrayId, Layout};
use crate::ops::{GetOp, GetTicket, PutOp, QueuedOps};
use crate::shmem::{LocalStore, Registration, SharedArray};
use crate::word::Word;

/// Upper bound on pooled raw-word buffers kept per processor, so a
/// burst of tiny ops cannot pin unbounded memory.
const RAW_POOL_CAP: usize = 4096;

/// One issued get's lifecycle in the [`TicketTable`].
#[derive(Default)]
enum TicketSlot {
    /// Issued; the fulfilling `sync()` has not run yet.
    #[default]
    Pending,
    /// Fulfilled: raw result words await [`Ctx::take`].
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

    /// Deliver the raw result for `id`.
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
    pub(crate) queued: QueuedOps,
    pub(crate) pending_regs: Vec<Registration>,
    pub(crate) pending_unregs: Vec<ArrayId>,
    pub(crate) tickets: TicketTable,
    /// Recycled raw-word buffers: redeemed get results and drained
    /// put payloads feed later puts, so steady-state phases allocate
    /// nothing here.
    pub(crate) raw_pool: Vec<Vec<u64>>,
    rng: SmallRng,
    /// This run's exchange area, where `sync()` rendezvouses.
    pub(crate) link: crate::spmd::SpmdLink,
    /// Per-worker span capture; `None` (the default, and always on
    /// the simulated machine) means no capture.
    pub(crate) spmd_obs: Option<Box<crate::spmd::SpmdObs>>,
}

impl Ctx {
    /// A context for processor `proc` of the run behind `link`.
    pub(crate) fn new(proc: usize, nprocs: usize, seed: u64, link: crate::spmd::SpmdLink) -> Self {
        Self {
            proc,
            nprocs,
            phase: 0,
            charged: 0,
            next_array_id: 0,
            next_ticket: 0,
            store: LocalStore::default(),
            queued: QueuedOps::default(),
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
        let info = self.store.info(arr.id); // liveness check
        assert!(
            start + data.len() <= info.len,
            "put of {}..{} exceeds array '{}' (len {})",
            start,
            start + data.len(),
            info.name,
            info.len
        );
        let mut raw = self.raw_pool.pop().unwrap_or_default();
        raw.clear();
        raw.reserve(data.len());
        raw.extend(data.iter().map(|v| v.to_raw()));
        self.queued.puts.push(PutOp { array: arr.id, start, data: raw });
    }

    /// Queue a read of `len` elements starting at global index
    /// `start`. The returned ticket is redeemable via [`Ctx::take`]
    /// after the next [`Ctx::sync`].
    pub fn get<T: Word>(&mut self, arr: &SharedArray<T>, start: usize, len: usize) -> GetTicket<T> {
        let info = self.store.info(arr.id);
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
            self.queued.gets.push(GetOp { array: arr.id, start, len, ticket });
            self.tickets.issue(ticket, TicketSlot::Pending);
        } else {
            self.tickets.issue(ticket, TicketSlot::Ready(Vec::new()));
        }
        GetTicket { id: ticket, len, issued_phase: self.phase, _elem: PhantomData }
    }

    /// Redeem a get ticket. Panics if called in the phase that issued
    /// the get — that is precisely the bulk-synchrony rule QSM
    /// enforces ("values returned by shared-memory reads issued in a
    /// phase cannot be used in the same phase").
    pub fn take<T: Word>(&mut self, ticket: GetTicket<T>) -> Vec<T> {
        assert!(
            self.phase > ticket.issued_phase || ticket.len == 0,
            "bulk-synchrony violation on processor {}: take() of a get issued in \
             phase {} before any sync(); call sync() first",
            self.proc,
            ticket.issued_phase
        );
        let raw = self.tickets.take(ticket.id);
        debug_assert_eq!(raw.len(), ticket.len);
        let out = raw.iter().map(|&r| T::from_raw(r)).collect();
        self.recycle_raw(raw);
        out
    }

    /// Return a raw-word buffer to the per-processor pool (bounded by
    /// [`RAW_POOL_CAP`], so bursts cannot pin unbounded memory).
    pub(crate) fn recycle_raw(&mut self, mut buf: Vec<u64>) {
        if self.raw_pool.len() < RAW_POOL_CAP {
            buf.clear();
            self.raw_pool.push(buf);
        }
    }

    /// The global index range of `arr` held in this processor's local
    /// window (block layout only).
    pub fn local_range<T: Word>(&self, arr: &SharedArray<T>) -> Range<usize> {
        let info = self.store.info(arr.id);
        assert_eq!(
            info.layout,
            Layout::Block,
            "array '{}' is hash-distributed and has no local window",
            info.name
        );
        block_range(info.len, self.nprocs, self.proc)
    }

    /// Read `len` elements starting at global index `start` from the
    /// local window. Free of communication cost; sees values as of
    /// the start of the phase plus this processor's own local writes.
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
        let seg = self.store.segment(arr.id);
        seg[start - range.start..start - range.start + len]
            .iter()
            .map(|&r| T::from_raw(r))
            .collect()
    }

    /// Copy the entire local window out.
    pub fn local_vec<T: Word>(&self, arr: &SharedArray<T>) -> Vec<T> {
        let range = self.local_range(arr);
        self.local_read(arr, range.start, range.len())
    }

    /// Write `data` into the local window starting at global index
    /// `start`. Free of communication cost.
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
        let seg = self.store.segment_mut(arr.id);
        for (i, v) in data.iter().enumerate() {
            seg[start - range.start + i] = v.to_raw();
        }
    }

    /// End the phase: exchange all queued operations, complete
    /// pending registrations, and synchronize with every other
    /// processor. Returns once the barrier releases this processor.
    pub fn sync(&mut self) {
        crate::spmd::sync_phase(self);
    }
}
