//! The SPMD exchange: a lock-free, double-buffered `sync()`.
//!
//! Every run of every backend rendezvouses here; no driver thread
//! exists. A worker is a processor: a fiber of one of the run's `k`
//! carrier threads (`crate::fiber`), or that thread itself when it
//! hosts one. Every worker publishes its phase contribution (charged
//! ops, its outbox — puts and gets bucketed by owner, with the puts'
//! payload and its row of the traffic matrix — registrations, and a
//! pointer to its own memory segments) into a per-processor **slot** of
//! a shared [`ExchangeArea`], then crosses two barriers per phase:
//!
//! ```text
//!   publish slot[phase % 2]          (each worker, its own slot)
//!   ── B1 ──────────────────────────
//!   leader: plan stage               (worker 0; copies the p rows)
//!   all:    serve own gets           (own runs; peers' frozen stores)
//!   all:    κ of own block           (read runs[me] of all p outboxes)
//!   ── B2 ──────────────────────────
//!   all:    apply runs[me] of all p outboxes, install/retire arrays
//!   leader: max κ, price + record    (overlaps peers' next compute)
//! ```
//!
//! Slots are double-buffered by phase parity (the `active_buffer`
//! idiom): phase *k* publishes into `slots[k % 2]`, so the leader's
//! trailing price/record work on phase *k* can overlap the peers'
//! publication of phase *k+1* without contention. A slot stays
//! untouched until its owner republishes at phase *k+2* (but for its
//! outbox, see below), which cannot happen before the leader finished
//! phase *k* (it only reaches the *k+1* barriers after recording *k*).
//!
//! The plan/price/record stages are the driver's
//! (`Driver::plan_stage` & co., reading the slots through the
//! accessors of [`Slot`]); the *exchange* stage is here. Between the
//! barriers a worker serves its own gets (the get runs of its own
//! published outbox, owner by owner, from that owner's frozen store
//! into its result arena of the phase) and sweeps the runs bound for
//! its own block for κ; right after B2 it applies the puts among those,
//! in processor-then-issue order, so the outcome of a phase does not
//! depend on how the host schedules the workers: the simulated machine,
//! whose results must be bit-reproducible, rides the same exchange as
//! the wall-clock one.
//!
//! ### Memory-safety windows
//!
//! All cross-worker access to slot contents is bracketed by the two
//! barriers (which provide the happens-before edges between carriers;
//! the workers of one carrier run one at a time, in program order):
//!
//! * a slot published for phase *k* is read by others only between
//!   B1(*k*) and the leader's record(*k*);
//! * of a published outbox, the row is read by the leader (B1..B2),
//!   all of `runs` by its owner as it serves (B1..B2), and `runs[w]`
//!   and the payload arena by worker *w*: from B1(*k*) for κ until *w*
//!   has applied phase *k*, before it enters B1(*k+1*); its owner
//!   takes the outbox back, to refill, after B2(*k+1*) — two outboxes
//!   per worker, flipped at the barrier;
//! * a worker writes its κ into its own slot between B1 and B2; the
//!   leader reads all `p` after B2, in its finish(*k*);
//! * each worker's [`LocalStore`] is frozen from its publish until
//!   B2(*k*) (reads by any worker), and mutated only by its owner
//!   afterwards (a result arena is its owner's alone throughout);
//! * registration slices published by pointer are read only by the
//!   leader between B1 and B2; owners clear them after B2.
//!
//! ### Aborts
//!
//! A panicking worker (user program or a collective-violation check)
//! poisons the shared barrier; every other worker observes the poison
//! at its next (or current) wait, paused or parked, and unwinds with a
//! private [`SpmdAborted`] marker. All workers then meet at an exit
//! rendezvous — no worker's `Ctx` (and thus no published store) is
//! dropped while a peer could still read it — and the engine re-raises
//! the first real payload.

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::Thread;
use std::time::Instant;

use qsm_obs::{Recorder, Span, SpanKind};
use qsm_simnet::Cycles;

use crate::addr::ArrayId;
use crate::ctx::Ctx;
use crate::driver::{Driver, PhasePlan, PhaseRecord};
use crate::machine::PhaseTimer;
use crate::ops::Outbox;
use crate::shmem::{ArrayInfo, LocalStore, Registration};
use crate::word::{copy_packed, storage_words};

/// Marker payload workers unwind with when a *peer* failed: the
/// engine suppresses it in favor of the originating panic.
pub(crate) struct SpmdAborted;

#[cold]
fn aborted() -> ! {
    std::panic::panic_any(SpmdAborted);
}

/// A carrier's wait spins this often, then yields this often, then
/// parks. The yield leg has to outlast a phase's work on the other
/// carriers: a parked thread pays a futex wake-up and a scheduler trip
/// to come back (at 192 yields `figure_suite` `part2_s` read +7.7 % on
/// the two-core host; a timed sleep oversleeps every phase longer than
/// the leg).
const SPINS: u32 = 64;
const YIELDS: u32 = 4096;

/// The processors carrier `c` of `k` hosts, of `p`: statically, since a
/// program's locals across `sync()` need not be `Send`.
pub(crate) fn hosted(c: usize, p: usize, k: usize) -> std::ops::Range<usize> {
    c * p / k..(c + 1) * p / k
}

/// What the processors of one carrier thread share.
#[derive(Default)]
#[repr(align(64))]
struct Carrier {
    hosted: usize,
    /// Local arrivals at the crossing in progress, and the crossings
    /// this carrier's last arriver saw completed.
    count: Cell<usize>,
    gen: Cell<usize>,
    /// The thread, noted before it first parks, and whether it parked
    /// or is about to: whoever ends its wait unparks it.
    thread: OnceLock<Thread>,
    parked: AtomicBool,
}

// SAFETY: the `Cell`s of carrier `c` are touched only in
// `Barrier::wait(c)`, which only the processors `c` hosts call
// (`SpmdLink::carrier`, from the engine): fibers of one thread, of
// which one runs at a time. `thread` and `parked` are `Sync`.
unsafe impl Sync for Carrier {}

/// A reusable, poisonable two-level barrier for `p` processors on `k`
/// carrier threads. A processor that is not its carrier's last arriver
/// pauses (`fiber::pause`) until that one moves the carrier's
/// generation; the last arrivers cross a `k`-party sense barrier (a
/// generation counter), waiting by spin, yield, then park. `wait()`
/// returns whether poison cut the crossing short; poisoned barriers
/// release all current and future waiters immediately, which is how a
/// panicking processor unblocks its peers.
///
/// With `track` on, every carrier wait that escalated past pure
/// spinning bumps one of two relaxed telemetry counters (its deepest
/// backoff state: yield or park) — cheap enough to leave in the wait
/// path, but only requested when full-level observability is capturing.
#[derive(Default)]
struct Barrier {
    carriers: Box<[Carrier]>,
    count: AtomicUsize,
    /// `SeqCst`, like `poisoned`: a waiter stores `parked` and re-reads
    /// the two, a waker stores one and reads `parked`, and one of them
    /// must see the other's store.
    gen: AtomicUsize,
    poisoned: AtomicBool,
    track: bool,
    /// Carrier waits whose deepest backoff was `yield_now`, and those
    /// that escalated all the way to parking.
    yields: AtomicU64,
    parks: AtomicU64,
}

impl Barrier {
    fn new(p: usize, k: usize, track: bool) -> Self {
        let carrier = |c| Carrier { hosted: hosted(c, p, k).len(), ..Carrier::default() };
        Self { carriers: (0..k).map(carrier).collect(), track, ..Self::default() }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.wake();
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Unpark every carrier that parked, or is about to, on what the
    /// caller just stored.
    fn wake(&self) {
        for carrier in self.carriers.iter().filter(|c| c.parked.load(Ordering::SeqCst)) {
            carrier.thread.get().expect("a carrier notes its thread before it parks").unpark();
        }
    }

    /// Block the calling processor, hosted by carrier `c`, until all
    /// `p` arrived; returns `true` iff poison kept the crossing from
    /// completing. One that completed counts for every processor in
    /// it, however late it wakes and whatever a peer it released did
    /// since: which processors run a stage, and so which report a
    /// violation, must not depend on host scheduling.
    fn wait(&self, c: usize) -> bool {
        if self.is_poisoned() {
            return true;
        }
        let carrier = &self.carriers[c];
        let arrived = carrier.count.get() + 1;
        if arrived < carrier.hosted {
            carrier.count.set(arrived);
            let g = carrier.gen.get();
            while carrier.gen.get() == g {
                // The last arriver blocks the thread while it crosses
                // and moves `gen` if that completed: poison seen here
                // is poison before the crossing.
                if self.is_poisoned() {
                    return true;
                }
                crate::fiber::pause();
            }
            return false;
        }
        carrier.count.set(0);
        let cut = self.cross(carrier);
        if !cut {
            carrier.gen.set(carrier.gen.get().wrapping_add(1));
        }
        cut
    }

    /// The `k`-party crossing of the carriers' last arrivers. The
    /// store of `gen` by the last of them and the loads by the waiters
    /// (plus the AcqRel RMW chain on `count`) provide the
    /// happens-before edge between everything published before the
    /// barrier and everything read after it, on any carrier: a
    /// carrier's own processors run in program order.
    fn cross(&self, carrier: &Carrier) -> bool {
        let g = self.gen.load(Ordering::SeqCst);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.carriers.len() {
            self.count.store(0, Ordering::Relaxed);
            self.gen.store(g + 1, Ordering::SeqCst);
            self.wake();
            return false;
        }
        let moved = || self.gen.load(Ordering::SeqCst) != g;
        let done = || moved() || self.is_poisoned();
        let mut waited = 0u32;
        while !done() {
            waited = waited.saturating_add(1);
            if waited <= SPINS {
                std::hint::spin_loop();
            } else if waited <= SPINS + YIELDS {
                std::thread::yield_now();
            } else {
                carrier.thread.get_or_init(std::thread::current);
                carrier.parked.store(true, Ordering::SeqCst);
                if !done() {
                    std::thread::park();
                }
                carrier.parked.store(false, Ordering::SeqCst);
            }
        }
        if self.track && waited > SPINS {
            let deepest = if waited > SPINS + YIELDS { &self.parks } else { &self.yields };
            deepest.fetch_add(1, Ordering::Relaxed);
        }
        // Poisoned by a peer this very crossing released? Its poison
        // follows its own sight of the new `gen`.
        !moved()
    }

    /// `(yield, park)` escalation counts accumulated so far (always
    /// zero unless tracking was requested at construction).
    fn transitions(&self) -> (u64, u64) {
        (self.yields.load(Ordering::Relaxed), self.parks.load(Ordering::Relaxed))
    }
}

/// Slot states (plain `u8` behind the barrier's ordering).
const STATE_EMPTY: u8 = 0;
const STATE_SYNCED: u8 = 1;
const STATE_FINISHED: u8 = 2;

/// One processor's published phase contribution. Written only by its
/// owner (at publish time); read by peers only inside the barrier
/// windows documented on the module.
pub(crate) struct Slot {
    state: AtomicU8,
    charged: UnsafeCell<u64>,
    arrived: UnsafeCell<Instant>,
    /// The phase's outbox, swapped in at publish; the owner takes it
    /// back to refill once the next phase's B2 is behind it.
    outbox: UnsafeCell<Outbox>,
    /// κ over the owner's own block (owner writes B1..B2; leader only).
    kappa: UnsafeCell<u64>,
    /// The owner's pending registrations (valid B1..B2; leader only).
    regs: UnsafeCell<*const [Registration]>,
    /// The owner's pending unregistrations (valid B1..B2; leader only).
    unregs: UnsafeCell<*const [ArrayId]>,
    /// The owner's memory view (frozen publish..B2; any worker).
    store: UnsafeCell<*const LocalStore>,
}

impl Slot {
    fn new(p: usize, banks: usize) -> Self {
        const NO_REGS: &[Registration] = &[];
        const NO_UNREGS: &[ArrayId] = &[];
        Self {
            state: AtomicU8::new(STATE_EMPTY),
            charged: UnsafeCell::new(0),
            arrived: UnsafeCell::new(Instant::now()),
            outbox: UnsafeCell::new(Outbox::new(p, banks)),
            kappa: UnsafeCell::new(0),
            regs: UnsafeCell::new(NO_REGS as *const [Registration]),
            unregs: UnsafeCell::new(NO_UNREGS as *const [ArrayId]),
            store: UnsafeCell::new(std::ptr::null()),
        }
    }
}

/// The leader's view of a published slot. Only `leader_plan` (between
/// B1 and B2) and `leader_finish` (after B2, before the leader enters
/// the next phase's B1) call these, which is what every `SAFETY`
/// comment below leans on: the owner wrote the slot before B1 of this
/// phase and writes it next when it publishes two phases later, which
/// the leader's own arrival at the next B1 precedes.
impl Slot {
    pub(crate) fn charged(&self) -> u64 {
        // SAFETY: written by the owner before B1, read by the leader
        // in `leader_finish`; no write until the owner's publish two
        // phases on, after the leader is done with this one.
        unsafe { *self.charged.get() }
    }
    pub(crate) fn arrived(&self) -> Instant {
        // SAFETY: as `charged` — same writer, same window.
        unsafe { *self.arrived.get() }
    }
    pub(crate) fn outbox(&self) -> &Outbox {
        // SAFETY: swapped in by the owner before B1 and frozen until it
        // takes it back after B2 of the next phase; the leader reads
        // its row in `leader_plan`, inside B1..B2, while the workers
        // read its runs — shared reads all. The borrow ends with the
        // plan stage.
        unsafe { &*self.outbox.get() }
    }
    pub(crate) fn kappa(&self) -> u64 {
        // SAFETY: written by the owner between B1 and B2 of this phase
        // and next in that window two phases on; read by the leader in
        // `leader_finish`, after B2 and before it enters the next B1.
        unsafe { *self.kappa.get() }
    }
    pub(crate) fn regs(&self) -> &[Registration] {
        // SAFETY: points into the owner's `pending_regs`, which the
        // owner leaves untouched from its publish until after B2
        // (`apply_exchange` drains it); read in `leader_plan`, B1..B2.
        unsafe { &**self.regs.get() }
    }
    pub(crate) fn unregs(&self) -> &[ArrayId] {
        // SAFETY: as `regs`, for the owner's `pending_unregs`.
        unsafe { &**self.unregs.get() }
    }
}

/// Run-level observability handle for worker-side capture: the shared
/// recorder plus the timer's epoch instant every worker-side span
/// timestamp is measured from (so worker lanes and the leader's
/// machine track share one timeline). Created by the engine only
/// when full-level capture is on.
pub(crate) struct RunObs {
    pub(crate) rec: Recorder,
    pub(crate) epoch: Instant,
}

/// One worker's span capture across a run. Spans are buffered
/// locally and flushed to the recorder at the exit epilogue — after
/// every phase has been priced — so capture never perturbs measured
/// timing (the "spans after measurement" discipline).
pub(crate) struct SpmdObs {
    rec: Recorder,
    epoch: Instant,
    /// End of the previous stage = start of the next span:
    /// consecutive spans share boundary instants, so each worker's
    /// lane tiles exactly with no gaps or overlap.
    cursor: Instant,
    spans: Vec<Span>,
}

impl SpmdObs {
    fn new(obs: &RunObs) -> Self {
        Self { rec: obs.rec.clone(), epoch: obs.epoch, cursor: obs.epoch, spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> Cycles {
        Cycles::new(t.saturating_duration_since(self.epoch).as_nanos() as f64)
    }

    /// Close the span that started at the cursor and advance it:
    /// the stage `kind` of `phase` on worker lane `lane` ran from the
    /// previous mark to now.
    fn mark(&mut self, kind: SpanKind, phase: u64, lane: u32) {
        let now = Instant::now();
        let start = self.ns(self.cursor);
        self.spans.push(Span { kind, phase, lane, start, dur: self.ns(now) - start });
        self.cursor = now;
    }

    /// Flush the buffered spans and the per-worker roll-ups (barrier
    /// leg waits, busy/wait totals, utilization) into the recorder.
    fn flush(mut self) {
        let mut busy = 0.0f64;
        let mut wait = 0.0f64;
        for s in &self.spans {
            if s.kind == SpanKind::BarrierWait {
                wait += s.dur.get();
            } else {
                busy += s.dur.get();
            }
        }
        self.rec.observe_iter(
            "barrier_wait_ns",
            self.spans
                .iter()
                .filter(|s| s.kind == SpanKind::BarrierWait)
                .map(|s| s.dur.get() as u64),
        );
        let total = busy + wait;
        if total > 0.0 {
            self.rec.observe("spmd_worker_util_pct", (busy * 100.0 / total + 0.5) as u64);
        }
        self.rec.add("spmd_busy_ns", busy as u64);
        self.rec.add("spmd_wait_ns", wait as u64);
        self.rec.spans(self.spans.drain(..));
    }
}

/// Phase-pipeline state owned by worker 0 (the leader): the shared
/// metering/pricing driver, the backend timer, and the growing record
/// stream.
struct LeaderState {
    driver: Driver,
    timer: Box<dyn PhaseTimer>,
    records: Vec<PhaseRecord>,
    plan: Option<PhasePlan>,
}

/// The shared rendezvous structure of one run. Lives on the
/// engine's stack frame; workers borrow it for the run's duration
/// (the exit rendezvous guarantees no worker outlives the borrow).
pub(crate) struct ExchangeArea {
    p: usize,
    /// Double-buffered per-processor slots, indexed `[phase % 2][proc]`.
    slots: [Box<[Slot]>; 2],
    barrier: Barrier,
    /// Exit rendezvous: one more crossing, of a barrier nobody
    /// poisons, so no `Ctx` drops while a peer might read it.
    exit: Barrier,
    /// Real panic payloads, stashed by the engine's worker wrapper.
    panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>>,
    leader: UnsafeCell<LeaderState>,
    /// Full-level capture handle; workers clone per-lane span buffers
    /// off it in `make_ctx`. `None` keeps the whole path span-free.
    obs: Option<RunObs>,
    /// Banks per node the run meters, for the workers' outboxes.
    banks: usize,
    /// Whether an owner's κ sweep panics on a read/write overlap.
    check_conflicts: bool,
}

// SAFETY: field by field. `slots`: every `UnsafeCell` in a `Slot` has
// one writer, its owner — at publish time, and for `kappa` between B1
// and B2 — and readers only inside the barrier windows of the module
// doc (for `outbox` they end when the last worker has applied the
// phase, two barriers before the owner takes it back; for `kappa`
// they are the leader's, after B2); the barrier's release/acquire
// pair orders the two. The raw pointers in a slot are dereferenced in
// those windows only, while the `Ctx` they point into is alive and
// frozen (a `Ctx` drops after the exit rendezvous). `leader`: touched
// only by worker 0 during the run and by the owning engine frame after
// every worker exited, which requires `Driver` and the boxed timer to
// be `Send` (`PhaseTimer: Send`), not `Sync`. `obs`: a `Recorder`
// (`Sync`) and an `Instant`. `barrier`, `exit`: `Sync` (see `Carrier`).
// `panics`: a mutex. `banks`, `check_conflicts`: never written.
unsafe impl Sync for ExchangeArea {}

impl ExchangeArea {
    pub(crate) fn new(
        p: usize,
        k: usize,
        driver: Driver,
        timer: Box<dyn PhaseTimer>,
        obs: Option<RunObs>,
        track_barrier: bool,
    ) -> Self {
        let (banks, check_conflicts) = (driver.banks, driver.check_conflicts);
        let mk = || (0..p).map(|_| Slot::new(p, banks)).collect::<Vec<_>>().into_boxed_slice();
        Self {
            p,
            banks,
            check_conflicts,
            slots: [mk(), mk()],
            barrier: Barrier::new(p, k, track_barrier),
            exit: Barrier::new(p, k, false),
            panics: Mutex::new(Vec::new()),
            leader: UnsafeCell::new(LeaderState { driver, timer, records: Vec::new(), plan: None }),
            obs,
        }
    }

    /// `(yield, park)` backoff escalations the barrier accumulated
    /// over the run (zero unless tracking was requested).
    pub(crate) fn barrier_transitions(&self) -> (u64, u64) {
        self.barrier.transitions()
    }

    /// Release all processors blocked (now or later) on the barrier;
    /// called by the engine's wrapper when any of them panics.
    pub(crate) fn poison(&self) {
        self.barrier.poison();
    }

    /// Record a real (non-marker) panic payload for re-raising.
    pub(crate) fn stash_panic(&self, proc: usize, payload: Box<dyn std::any::Any + Send>) {
        self.panics.lock().unwrap_or_else(|e| e.into_inner()).push((proc, payload));
    }

    /// Tear down after every worker exited: the recorded phases and
    /// the lowest-processor real panic payload, if any.
    pub(crate) fn into_results(self) -> (Vec<PhaseRecord>, Option<Box<dyn std::any::Any + Send>>) {
        let mut panics = self.panics.into_inner().unwrap_or_else(|e| e.into_inner());
        panics.sort_by_key(|&(proc, _)| proc);
        let payload = (!panics.is_empty()).then(|| panics.remove(0).1);
        (self.leader.into_inner().records, payload)
    }
}

/// A `Ctx`'s handle onto the exchange area, and the carrier that
/// hosts it there. The raw pointer is dereferenced only while the
/// engine's stack frame (which owns the area and blocks until every
/// worker exits) is alive.
#[derive(Clone, Copy)]
pub(crate) struct SpmdLink {
    area: *const ExchangeArea,
    carrier: usize,
}

#[cfg(test)]
impl Slot {
    /// A slot that published `outbox` and nothing else, to drive the
    /// plan stage without a run.
    pub(crate) fn publishing(outbox: Outbox) -> Self {
        let mut slot = Self::new(0, 0);
        *slot.outbox.get_mut() = outbox;
        slot
    }
}

#[cfg(test)]
impl SpmdLink {
    /// A link to no run, for unit tests of a `Ctx` that never syncs.
    pub(crate) fn detached() -> Self {
        Self { area: std::ptr::null(), carrier: 0 }
    }
}

/// Build the context of processor `proc`, hosted by `carrier`
/// (attaching a span buffer when the run captures worker lanes).
pub(crate) fn make_ctx(proc: usize, carrier: usize, seed: u64, area: &ExchangeArea) -> Ctx {
    let mut ctx = Ctx::new(proc, area.p, area.banks, seed, SpmdLink { area, carrier });
    if let Some(obs) = &area.obs {
        ctx.spmd_obs = Some(Box::new(SpmdObs::new(obs)));
    }
    ctx
}

/// Count this processor, hosted by carrier `c`, out and wait until
/// every processor did; after this returns, no peer will ever read its
/// `Ctx` again.
pub(crate) fn exit_rendezvous(area: &ExchangeArea, c: usize) {
    area.exit.wait(c);
}

fn area_of(ctx: &Ctx) -> &'static ExchangeArea {
    // SAFETY: the area lives on the engine frame that is blocked in
    // `pool::execute` until every job returned, and a job returns only
    // after the exit rendezvous, which strictly follows every use of
    // this reference. (The 'static is a local fiction; the reference
    // never escapes the sync/epilogue call that derived it.)
    unsafe { &*ctx.link.area }
}

/// Move this phase's contribution into our slot at `parity`. The
/// outbox goes in by swap: what comes out is the empty one
/// `apply_exchange` left there when it took phase k-2's back.
fn publish(ctx: &mut Ctx, area: &ExchangeArea, parity: usize, state: u8) {
    let slot = &area.slots[parity][ctx.proc];
    // SAFETY: only the owner writes its slot. Its previous tenant is
    // phase k-2, whose last reader is the leader's record(k-2); the
    // leader then crossed B1 and B2 of phase k-1, and so did this
    // worker before getting here. No reader touches the new contents
    // until after B1(k), which follows the release-store below. The
    // pointers stored are into `ctx`, which outlives the run's last
    // barrier (exit rendezvous).
    unsafe {
        std::ptr::swap(slot.outbox.get(), &mut ctx.queued);
        *slot.charged.get() = std::mem::take(&mut ctx.charged);
        *slot.regs.get() = ctx.pending_regs.as_slice() as *const [Registration];
        *slot.unregs.get() = ctx.pending_unregs.as_slice() as *const [ArrayId];
        *slot.store.get() = &ctx.store as *const LocalStore;
        // Captured last: wall-clock backends read this as "compute
        // ended here" (the price stage's compute/comm split).
        *slot.arrived.get() = Instant::now();
    }
    slot.state.store(state, Ordering::Release);
}

/// How many workers published `FINISHED` at this parity.
fn count_finished(area: &ExchangeArea, parity: usize) -> usize {
    area.slots[parity].iter().filter(|s| s.state.load(Ordering::Relaxed) == STATE_FINISHED).count()
}

#[cold]
fn collective_violation(finished: usize, p: usize) -> ! {
    panic!(
        "collective violation: {} processor(s) returned while {} called sync()",
        finished,
        p - finished
    );
}

/// Serve this worker's own queued gets from the peers' published
/// (pre-put) stores, into its result arena of the phase
/// ([`Ctx::serve_gets`]). Runs between B1 and B2, where every store at
/// this parity is frozen.
fn serve_own_gets(ctx: &mut Ctx, area: &ExchangeArea, parity: usize) {
    let slots = &area.slots[parity];
    // SAFETY: our own slot's outbox: swapped in by us at publish, and
    // only read, by us and by peers, until we take it back a phase on.
    let mine = unsafe { &*slots[ctx.proc].outbox.get() };
    // SAFETY: we are between B1 and B2. The peer published the pointer
    // to its `LocalStore` before B1 and mutates that store next in its
    // own `apply_exchange`, after B2; its `Ctx` (the pointee) drops
    // only after the exit rendezvous.
    ctx.serve_gets(mine, |owner| unsafe { &*(*slots[owner].store.get()) });
}

/// Between B1 and B2: κ over the runs every source queued for this
/// worker's block, left in its slot for the leader. A location both
/// read and written panics here, on the processor that stores it.
fn sweep_own_block(ctx: &mut Ctx, area: &ExchangeArea, parity: usize) {
    let me = ctx.proc;
    for src in 0..area.p {
        // SAFETY: we are after B1 of phase k. `src` swapped this outbox
        // in before B1(k) and takes it back after B2(k+1) — barriers we
        // have not crossed. Every concurrent access is a read.
        let outbox = unsafe { &*area.slots[parity][src].outbox.get() };
        for run in outbox.runs_for(me) {
            ctx.kappa.note(run);
        }
    }
    let kappa = ctx.kappa.sweep(&ctx.store, area.check_conflicts);
    // SAFETY: our own slot's cell, which only we write, and only in
    // this window; the leader reads it after B2 (`Slot::kappa`).
    unsafe { *area.slots[parity][me].kappa.get() = kappa };
}

/// After B2: apply every put among the runs queued for this worker's
/// block (in processor-then-issue order, exactly the driver's
/// deterministic resolution), take back the outbox of the phase before
/// to fill next — two per worker, flipped at the barrier — then install
/// newly registered arrays zero-initialized and retire unregistered
/// ones.
fn apply_exchange(ctx: &mut Ctx, area: &ExchangeArea, parity: usize) {
    let p = area.p;
    let me = ctx.proc;
    // SAFETY: our own slot of the other parity holds our outbox of
    // phase k-1 (a fresh one when k = 0). Its readers were the leader's
    // plan(k-1) and every worker's sweep and apply of k-1, each over
    // before that worker entered B1(k); we are past B2(k), and only we
    // write the slot.
    unsafe { std::ptr::swap(area.slots[parity ^ 1][me].outbox.get(), &mut ctx.queued) };
    ctx.queued.clear();
    for src in 0..p {
        // SAFETY: as in `sweep_own_block`; we are after B2 of phase k,
        // a phase short of `src` taking the outbox back.
        let outbox = unsafe { &*area.slots[parity][src].outbox.get() };
        for run in outbox.runs_for(me).iter().filter(|run| run.is_put()) {
            let info = ctx.store.info(run.array);
            let (elem_bytes, to) = (info.elem_bytes, run.start - info.geom.start(me));
            let seg = ctx.store.segment_mut(run.array);
            copy_packed(elem_bytes, &outbox.payload, run.offset(), seg, to, run.len as usize);
        }
    }
    let mut regs = std::mem::take(&mut ctx.pending_regs);
    let first_new = ctx.next_array_id - regs.len() as u32;
    for (k, reg) in regs.drain(..).enumerate() {
        let info = ArrayInfo::new(ArrayId(first_new + k as u32), reg, p);
        let words = storage_words(info.geom.range(me).len(), info.elem_bytes);
        ctx.store.install(info, vec![0u64; words]);
    }
    ctx.pending_regs = regs;
    let mut unregs = std::mem::take(&mut ctx.pending_unregs);
    for id in unregs.drain(..) {
        ctx.store.remove(id);
    }
    ctx.pending_unregs = unregs;
}

/// Worker 0, between B1 and B2: run the driver's plan stage over the
/// published slots (collective validation, merge of the traffic rows).
fn leader_plan(area: &ExchangeArea, parity: usize) {
    // SAFETY: only worker 0 calls this (`sync_phase` checks `proc`),
    // so the `&mut` is unique; the engine frame reads the state only
    // after `pool::execute` returned.
    let leader = unsafe { &mut *area.leader.get() };
    let plan = leader.driver.plan_stage(&area.slots[parity]);
    leader.plan = Some(plan);
}

/// Worker 0, after B2: price and record the phase (overlapping the
/// peers' next compute), then retire the plan's metadata changes.
fn leader_finish(area: &ExchangeArea, parity: usize) {
    // SAFETY: as in `leader_plan` — worker 0 only, and its borrow
    // there ended with that call.
    let leader = unsafe { &mut *area.leader.get() };
    let plan = leader.plan.take().expect("leader plan missing at phase end");
    let timing = leader.driver.price_stage(&area.slots[parity], leader.timer.as_mut());
    let faults = leader.timer.fault_counts();
    let bank_wait = leader.timer.bank_wait();
    let link = (leader.timer.link_wait(), leader.timer.link_util());
    let kappa = area.slots[parity].iter().map(Slot::kappa).max().unwrap_or(0);
    let record = leader.driver.record_stage(&plan, kappa, timing, faults, bank_wait, link);
    leader.records.push(record);
    leader.driver.finish_phase_meta(&plan);
}

/// One `sync()`: the publish / B1 / plan+serve / B2 / apply
/// pipeline described on the module.
///
/// When span capture is on (`ctx.spmd_obs`), each stage boundary is
/// marked into the worker's lane buffer: compute (ending at publish),
/// the B1 wait, the leader's plan, serving gets, the κ sweep of the
/// own block, the B2 wait, applying puts, and the leader's
/// price/record tail. Marks append to a local `Vec` — nothing is
/// flushed (or locked) until the exit epilogue, after all measurement.
pub(crate) fn sync_phase(ctx: &mut Ctx) {
    let area = area_of(ctx);
    let parity = (ctx.phase & 1) as usize;
    // Taken (not borrowed) so marking cannot alias the &mut ctx the
    // pipeline stages need; restored before returning.
    let mut obs = ctx.spmd_obs.take();
    let (phase, lane) = (ctx.phase, ctx.proc as u32);
    publish(ctx, area, parity, STATE_SYNCED);
    if let Some(o) = obs.as_deref_mut() {
        o.mark(SpanKind::Compute, phase, lane);
    }
    if area.barrier.wait(ctx.link.carrier) {
        aborted();
    }
    if let Some(o) = obs.as_deref_mut() {
        o.mark(SpanKind::BarrierWait, phase, lane);
    }
    let finished = count_finished(area, parity);
    if finished > 0 {
        collective_violation(finished, area.p);
    }
    if ctx.proc == 0 {
        leader_plan(area, parity);
        if let Some(o) = obs.as_deref_mut() {
            o.mark(SpanKind::LeaderPlan, phase, lane);
        }
    }
    serve_own_gets(ctx, area, parity);
    if let Some(o) = obs.as_deref_mut() {
        o.mark(SpanKind::ServeGets, phase, lane);
    }
    sweep_own_block(ctx, area, parity);
    if let Some(o) = obs.as_deref_mut() {
        o.mark(SpanKind::OwnerKappa, phase, lane);
    }
    if area.barrier.wait(ctx.link.carrier) {
        aborted();
    }
    if let Some(o) = obs.as_deref_mut() {
        o.mark(SpanKind::BarrierWait, phase, lane);
    }
    apply_exchange(ctx, area, parity);
    if let Some(o) = obs.as_deref_mut() {
        o.mark(SpanKind::ApplyPuts, phase, lane);
    }
    if ctx.proc == 0 {
        leader_finish(area, parity);
        if let Some(o) = obs.as_deref_mut() {
            o.mark(SpanKind::LeaderPrice, phase, lane);
        }
    }
    ctx.spmd_obs = obs;
    ctx.phase += 1;
}

/// Teardown: publish `FINISHED` and rendezvous one last time so
/// a mismatched `sync()` elsewhere is diagnosed as a collective
/// violation (every worker must return together). With capture on,
/// the final compute leg and rendezvous wait are marked, then the
/// worker's whole span buffer is flushed — every phase has been
/// priced by now, so recorder locking cannot perturb measurement.
pub(crate) fn epilogue(ctx: &mut Ctx) {
    let area = area_of(ctx);
    let parity = (ctx.phase & 1) as usize;
    let mut obs = ctx.spmd_obs.take();
    let (phase, lane) = (ctx.phase, ctx.proc as u32);
    publish(ctx, area, parity, STATE_FINISHED);
    if let Some(o) = obs.as_deref_mut() {
        o.mark(SpanKind::Compute, phase, lane);
    }
    if area.barrier.wait(ctx.link.carrier) {
        aborted();
    }
    let finished = count_finished(area, parity);
    if finished < area.p {
        collective_violation(finished, area.p);
    }
    if let Some(mut o) = obs {
        o.mark(SpanKind::BarrierWait, phase, lane);
        o.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// `p` processors on `k` scoped carrier threads, each running
    /// `body(carrier, proc)`.
    fn on_carriers(p: usize, k: usize, body: impl Fn(usize, usize) + Sync) {
        std::thread::scope(|scope| {
            for c in 0..k {
                let body = &body;
                scope.spawn(move || crate::fiber::host(hosted(c, p, k), &|proc| body(c, proc)));
            }
        });
    }

    #[test]
    fn spin_barrier_synchronizes_and_reuses() {
        let barrier = Barrier::new(4, 4, false);
        let counter = AtomicUsize::new(0);
        on_carriers(4, 4, |c, _| {
            for round in 1..=3 {
                counter.fetch_add(1, Ordering::SeqCst);
                assert!(!barrier.wait(c));
                assert_eq!(counter.load(Ordering::SeqCst), 4 * round);
                assert!(!barrier.wait(c));
            }
        });
    }

    /// Four processors a core on one carrier a core: the mates of a
    /// carrier take turns, the carriers cross, and nobody starves.
    #[test]
    fn an_oversubscribed_barrier_yields_its_way_through() {
        let cores = crate::pool::host_cores();
        let p = 4 * cores;
        let k = if crate::fiber::HOSTS { cores } else { p };
        let barrier = Barrier::new(p, k, false);
        let arrived = AtomicUsize::new(0);
        on_carriers(p, k, |c, _| {
            for round in 1..=2000 {
                arrived.fetch_add(1, Ordering::SeqCst);
                assert!(!barrier.wait(c));
                assert!(arrived.load(Ordering::SeqCst) >= p * round);
            }
        });
        assert_eq!(arrived.into_inner(), p * 2000);
    }

    #[test]
    fn poisoned_barrier_releases_waiters() {
        let barrier = Barrier::new(2, 2, false);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| barrier.wait(1));
            barrier.poison();
            assert!(waiter.join().unwrap(), "poison must release the waiter");
        });
        assert!(barrier.wait(0), "poisoned barriers release immediately");
    }

    /// A carrier that waits for milliseconds parks, and both what
    /// completes the crossing and poison bring it back.
    #[test]
    fn a_parked_carrier_is_woken_by_the_last_arriver_and_by_poison() {
        for poison in [false, true] {
            let barrier = Barrier::new(2, 2, true);
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| barrier.wait(1));
                while !barrier.carriers[1].parked.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                if poison {
                    barrier.poison();
                } else {
                    assert!(!barrier.wait(0));
                }
                assert_eq!(waiter.join().unwrap(), poison);
            });
            assert_eq!(barrier.transitions(), (0, 1), "one wait, which parked");
        }
    }

    #[test]
    fn tracked_barrier_counts_backoff_escalations() {
        // Untracked barriers never count, whatever the contention; a
        // tracked waiter stuck for milliseconds escalates past its
        // spins and records its deepest backoff state.
        for (track, barrier) in [false, true].map(|t| (t, Barrier::new(2, 2, t))) {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    std::thread::sleep(Duration::from_millis(5));
                    barrier.wait(1)
                });
                barrier.wait(0);
            });
            let (yields, parks) = barrier.transitions();
            assert_eq!(yields + parks, u64::from(track), "a millisecond wait must escalate");
        }
    }
}
