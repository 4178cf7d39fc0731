//! The phase driver: what every `sync()` meters, prices and records.
//!
//! Each worker publishes its outbox — the phase's operations, bucketed
//! by owner and metered into its own traffic row as they were queued
//! (`crate::ops`) — into its exchange-area [`Slot`] at `sync()`
//! (`crate::spmd`); worker 0, the phase leader, then runs the stages of
//! this module over all `p` slots. Every phase of every backend goes
//! through the same four-stage pipeline:
//!
//! 1. **plan** — validate collective calls and gather the metering:
//!    the per-processor counters summed off the [`CommMatrix`], a view
//!    over the `p` published rows (the leader walks dirty cells, never
//!    operations, and copies no row).
//! 2. **exchange** — each worker serves its own gets from the peers'
//!    frozen stores (the pre-put state), sweeps the runs bound for its
//!    own block for κ and read/write conflicts ([`OwnerKappa`]), and
//!    applies the puts among them (deterministically: processor order,
//!    then issue order). Workers own their memory throughout, so this
//!    stage lives in `crate::spmd`, between and after the barriers.
//! 3. **price** — ask the backend's [`PhaseTimer`] what the phase
//!    cost on the simulated (or real) machine, given the same view.
//! 4. **record** — emit observability spans/metrics and assemble the
//!    [`PhaseRecord`] for the cost models.
//!
//! The [`Driver`] holds no program data: only the metering scratch,
//! cleared and reused from phase to phase. It is the same code for the
//! simulated and the native machine; only the [`PhaseTimer`] handed to
//! the price stage differs.
//!
//! The κ sweep is the per-word part of a phase's metering, so it is
//! spread over the owners: between the barriers every worker sweeps
//! the runs that all `p` outboxes hold for *its* block
//! ([`OwnerKappa`], array by array in id order), and the leader takes
//! the maximum. A run never leaves its owner's block, so that maximum
//! is what one sweep over everything finds (the unit tests proptest it
//! against a per-operation oracle with every traffic cell). A
//! location both read and written panics on the processor that stores
//! it; when two owners hold a conflict, the lowest processor's is
//! reported on every run, since a barrier crossing that completed
//! counts for every worker in it (`tests/sim_on_pool.rs`).

use std::time::Instant;

use qsm_models::PhaseProfile;
use qsm_obs::{Recorder, SpanKind};
use qsm_simnet::{BankModel, Cycles};

use crate::addr::ArrayId;
use crate::machine::PhaseTimer;
use crate::ops::Run;
use crate::shmem::LocalStore;
use crate::spmd::Slot;

/// Aggregate traffic from one source processor to one cost owner in a
/// single phase. Counts are in 4-byte words; the library is
/// word-granular, each word an item with its own header.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairTraffic {
    /// Put payload in 4-byte words.
    pub put_words: u64,
    /// Put payload in wire bytes.
    pub put_payload_bytes: u64,
    /// Get reply payload in 4-byte words.
    pub get_words: u64,
    /// Get reply payload in wire bytes.
    pub get_reply_payload_bytes: u64,
}

impl PairTraffic {
    /// True when no traffic flows on this pair.
    pub fn is_empty(&self) -> bool {
        self.put_words == 0 && self.get_words == 0
    }
}

/// What a cell reads when its source queued nothing there.
static NO_TRAFFIC: PairTraffic =
    PairTraffic { put_words: 0, put_payload_bytes: 0, get_words: 0, get_reply_payload_bytes: 0 };

/// The per-phase (source, cost owner, bank) traffic matrix: a
/// read-only view over the rows the processors metered into their
/// published outboxes as they queued (`crate::ops`), row `src` in
/// processor `src`'s. A row is one cell per `(owner, bank)`, one bank
/// a node on a machine that models none, and one that queued nothing
/// reads zero. Each row lists its non-empty cells, so emptiness checks
/// and whole-phase scans ([`CommMatrix::for_each_dirty`]) touch only
/// the cells a phase actually used instead of all `p²` pairs. Most
/// phases of real programs touch O(p) pairs.
#[derive(Clone)]
pub struct CommMatrix<'a> {
    rows: &'a [Slot],
}

impl<'a> CommMatrix<'a> {
    /// The traffic `rows` published; no rows at all is a phase that
    /// moved nothing.
    pub(crate) fn new(rows: &'a [Slot]) -> Self {
        Self { rows }
    }

    /// Cells per owner: the banks per node the rows meter, one when
    /// the machine models none.
    pub fn banks(&self) -> usize {
        self.rows.first().map_or(1, |slot| slot.outbox().banks())
    }

    /// Traffic from `src` to bank `bank` of owner `dst`.
    pub fn at(&self, src: usize, dst: usize, bank: usize) -> &'a PairTraffic {
        let row = self.rows[src].outbox();
        row.cells.get(dst * row.banks() + bank).unwrap_or(&NO_TRAFFIC)
    }

    /// True when the whole phase moved no data. Scans only the dirty
    /// cells, so a phase that queued nothing answers in O(p).
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(|slot| slot.outbox().cells().all(|(_, _, c)| c.is_empty()))
    }

    /// Visit every dirty `(src, dst, bank, traffic)` cell. Visit order
    /// is source-major and first-touch within a row, which varies with
    /// program structure — use only for order-insensitive
    /// accumulation; ordered consumers (the exchange simulation) must
    /// index with [`CommMatrix::at`].
    pub fn for_each_dirty(&self, mut visit: impl FnMut(usize, usize, usize, &PairTraffic)) {
        for (src, slot) in self.rows.iter().enumerate() {
            for (dst, bank, c) in slot.outbox().cells() {
                visit(src, dst, bank, c);
            }
        }
    }
}

/// Wall-clock/simulated timing of one phase, as produced by the
/// machine's timing strategy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTiming {
    /// Full phase duration (compute + communication).
    pub elapsed: Cycles,
    /// Slowest processor's local-compute duration.
    pub compute: Cycles,
    /// `elapsed - compute`: time attributable to `sync()`.
    pub comm: Cycles,
}

/// What a [`crate::PhaseTimer`] knows about the phase it priced. A
/// backend that injects no faults and simulates no banks or fabric
/// fills in only the timing (`PhaseTiming::into`); the rest stays
/// zero.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhasePrice {
    /// Measured timing.
    pub timing: PhaseTiming,
    /// [`PhaseRecord::retries`].
    pub retries: u64,
    /// [`PhaseRecord::dropped_msgs`].
    pub dropped_msgs: u64,
    /// [`PhaseRecord::bank_wait`].
    pub bank_wait: Cycles,
    /// [`PhaseRecord::link_wait`].
    pub link_wait: Cycles,
    /// [`PhaseRecord::link_util`].
    pub link_util: f64,
}

impl From<PhaseTiming> for PhasePrice {
    fn from(timing: PhaseTiming) -> Self {
        PhasePrice { timing, ..PhasePrice::default() }
    }
}

/// One completed phase: model-facing profile plus measured timing and
/// traffic totals.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRecord {
    /// Per-phase maxima for the cost models.
    pub profile: PhaseProfile,
    /// Measured timing.
    pub timing: PhaseTiming,
    /// Data messages the exchange sends (excluding plan/barrier): per
    /// `(pair, bank)` cell, a put-data message, and a get request with
    /// its reply.
    pub data_msgs: u64,
    /// Total payload bytes moved (excluding headers).
    pub payload_bytes: u64,
    /// Resends the delivery protocol performed under fault injection
    /// (0 on fault-free runs and wall-clock backends).
    pub retries: u64,
    /// Transmissions lost to fault injection (each later
    /// re-delivered; 0 on fault-free runs and wall-clock backends).
    pub dropped_msgs: u64,
    /// Observed bank-κ: the most 4-byte accounting words any single
    /// `(node, bank)` served this phase — the bank-level analogue of
    /// the module-level κ in `profile.kappa`. Zero when no bank model
    /// is enabled.
    pub bank_kappa: u64,
    /// Summed destination-bank queuing across the phase's deliveries
    /// (zero without a bank model, and on wall-clock backends, which
    /// do not simulate banks).
    pub bank_wait: Cycles,
    /// Summed fabric-link queuing across the phase's deliveries (zero
    /// on the flat contention-free wire, and on wall-clock backends,
    /// which do not simulate the fabric).
    pub link_wait: Cycles,
    /// Busy fraction of the most-utilized fabric link over the phase
    /// (zero on the flat wire and on wall-clock backends).
    pub link_util: f64,
}

/// Kinds of a packed κ event, in the order they take effect at one
/// position: ranges are half-open, so ends leave before starts arrive,
/// and a one-element range counts there and nowhere else.
const END: u64 = 0;
const START: u64 = 1;
const POINT: u64 = 2;

/// File the access `start..start + len` among `events`, each packed
/// into one `u64` as `pos << 3 | kind << 1 | write`: a start and an
/// end, or the single point of a one-element range.
fn note_range(events: &mut Vec<u64>, start: usize, len: usize, write: bool) {
    let key = |pos: usize, kind: u64| {
        debug_assert!(pos as u64 >> 61 == 0, "position {pos} does not fit a packed event");
        (pos as u64) << 3 | kind << 1 | u64::from(write)
    };
    if len == 1 {
        events.push(key(start, POINT));
    } else {
        events.push(key(start, START));
        events.push(key(start + len, END));
    }
}

/// Sweep the accesses to one array filed by [`note_range`], leaving
/// `events` empty: returns the maximum queue depth κ at any single
/// location, and panics on a read/write overlap. Integer order is
/// position order with the kinds in theirs at each position; the sort
/// is unstable because the events of one group — one kind at one
/// position — are summed, in any order.
fn sweep_kappa(name: &str, events: &mut Vec<u64>) -> u64 {
    events.sort_unstable();
    // Ranges of two elements or more that cover the position swept.
    let (mut r, mut w, mut kappa) = (0i64, 0i64, 0i64);
    let mut i = 0;
    while i < events.len() {
        let group = events[i] >> 1;
        let (mut reads, mut writes) = (0i64, 0i64);
        while i < events.len() && events[i] >> 1 == group {
            let write = (events[i] & 1) as i64;
            reads += 1 - write;
            writes += write;
            i += 1;
        }
        let (pos, kind) = (group >> 2, group & 0b11);
        let (r_here, w_here) = match kind {
            END => (r - reads, w - writes),
            _ => (r + reads, w + writes),
        };
        if kind != POINT {
            (r, w) = (r_here, w_here);
        }
        if r_here > 0 && w_here > 0 {
            panic!(
                "bulk-synchrony violation: location {pos} of array '{name}' is both \
                 read and written in the same phase (the QSM phase contract forbids \
                 this; split the accesses across a sync())"
            );
        }
        kappa = kappa.max(r_here + w_here);
    }
    events.clear();
    kappa as u64
}

/// One worker's κ sweep over the runs bound for its own block.
/// Locations are partitioned by storage owner and a run never leaves
/// its owner's block, so the deepest queue at any location of the
/// machine is the maximum of the owners' answers, and a location both
/// read and written is found by the one processor that stores it.
#[derive(Default)]
pub(crate) struct OwnerKappa {
    /// Packed events, dense by `ArrayId.0`, paired with the ids touched
    /// this phase.
    events: Vec<Vec<u64>>,
    touched: Vec<u32>,
}

impl OwnerKappa {
    /// Count `run` among this phase's accesses.
    pub(crate) fn note(&mut self, run: &Run) {
        let aid = run.array.0 as usize;
        if self.events.len() <= aid {
            self.events.resize_with(aid + 1, Vec::new);
        }
        let events = &mut self.events[aid];
        if events.is_empty() {
            self.touched.push(run.array.0);
        }
        note_range(events, run.start, run.len as usize, run.is_put());
    }

    /// κ over the runs noted since the last call, array by array in id
    /// order; panics at the first read/write overlap. `store` names
    /// the arrays.
    pub(crate) fn sweep(&mut self, store: &LocalStore) -> u64 {
        let mut kappa = 0;
        self.touched.sort_unstable();
        for aid in self.touched.drain(..) {
            let name = &store.info(ArrayId(aid)).name;
            let events = &mut self.events[aid as usize];
            kappa = kappa.max(sweep_kappa(name, events));
        }
        kappa
    }
}

/// The driver's persistent state across phases.
///
/// All per-phase working storage lives here and is reused from phase
/// to phase: the per-processor counters are cleared, not reallocated
/// (the traffic matrix is the workers' own rows). In steady state the
/// stages allocate nothing beyond the plan's (usually empty)
/// unregistration list. Array metadata stays with the workers, who
/// meter and sweep; the leader only keeps count.
pub(crate) struct Driver {
    p: usize,
    /// Dense by `ArrayId.0` (ids are sequential): registered and not
    /// yet unregistered.
    live: Vec<bool>,
    /// Observability sink (disabled unless a harness installed one).
    rec: Recorder,
    /// Accumulated machine time (simulated cycles, or host ns on
    /// wall-clock backends), for span start points.
    now: Cycles,
    phase_idx: u64,
    // --- pooled per-phase scratch ---
    /// Get and put words each processor issued, off its row's cells.
    m_get: Vec<u64>,
    m_put: Vec<u64>,
    h_in_words: Vec<u64>,
    h_out_words: Vec<u64>,
    data_msgs_by: Vec<u64>,
    charged: Vec<u64>,
    arrivals: Vec<Instant>,
    /// Banks per node when the backend models destination banks
    /// (0 = bank metering off; set once per run from the timer). Every
    /// outbox of the run is built for it.
    pub(crate) banks: usize,
    /// Directed fabric links when the backend routes messages over a
    /// non-flat topology (0 = link metrics off; set once per run
    /// from the timer).
    links: usize,
    /// Dense `(node, bank)` word-load scratch for the bank-κ sweep,
    /// paired with the indices touched this phase.
    bank_load: Vec<u64>,
    bank_load_touched: Vec<u32>,
}

/// Everything the plan stage decides about a phase before any data
/// moves: the registration changes and the metered traffic totals.
pub(crate) struct PhasePlan {
    /// Arrays registered this phase; they take the next ids.
    registered: usize,
    unregs: Vec<ArrayId>,
    /// Observed bank-κ (0 when bank metering is off).
    bank_kappa: u64,
    data_msgs: u64,
    payload_bytes: u64,
}

impl Driver {
    pub(crate) fn new(p: usize, rec: Recorder) -> Self {
        rec.set_nprocs(p);
        Self {
            p,
            live: Vec::new(),
            rec,
            now: Cycles::ZERO,
            phase_idx: 0,
            m_get: vec![0; p],
            m_put: vec![0; p],
            h_in_words: vec![0; p],
            h_out_words: vec![0; p],
            data_msgs_by: vec![0; p],
            charged: vec![0; p],
            arrivals: Vec::with_capacity(p),
            banks: 0,
            links: 0,
            bank_load: Vec::new(),
            bank_load_touched: Vec::new(),
        }
    }

    /// Once-per-run initialization: meter a cell per bank when the
    /// machine models destination banks (bank-free runs meter one a
    /// pair), and per-link metrics over its `links` fabric links.
    /// The engine calls this before the first phase.
    pub(crate) fn begin_run(&mut self, banks: Option<BankModel>, links: usize) {
        if let Some(bm) = banks {
            self.banks = bm.banks_per_node;
            self.bank_load = vec![0; self.p * self.banks];
        }
        self.links = links;
    }

    /// **Stage 1 — plan.** Validate collective registration calls and
    /// gather the metering the workers did as they queued: the
    /// per-processor word, h and message counters and bank-κ off their
    /// rows of the traffic matrix, read where they were published. No
    /// data moves yet. `inputs` is indexed by processor id.
    pub(crate) fn plan_stage(&mut self, inputs: &[Slot]) -> PhasePlan {
        let this = &mut *self;
        let p = this.p;

        // --- Collective registration / unregistration validation ---
        for i in 1..p {
            assert!(
                inputs[i].regs() == inputs[0].regs(),
                "collective violation: processor {i} registered different arrays \
                 than processor 0 in the same phase"
            );
            assert!(
                inputs[i].unregs() == inputs[0].unregs(),
                "collective violation: processor {i} unregistered different arrays \
                 than processor 0 in the same phase"
            );
        }
        let registered = inputs[0].regs().len();
        let unregs = inputs[0].unregs().to_vec();
        for id in &unregs {
            assert!(
                this.live.get(id.0 as usize) == Some(&true),
                "unregister of unknown array {id:?} (double unregister?)"
            );
        }

        // --- Metering: per-proc counters off the workers' rows ---
        // Words, h, messages, payload and bank-κ in one pass over the
        // dirty cells, a message per cell and kind as the exchange sends
        // them; every accumulation is order-insensitive. Bank-κ is the
        // heaviest word load any single (node, bank) serves this phase:
        // put words written into it plus get words read out of it.
        let banks = this.banks;
        let (mut data_msgs, mut payload_bytes) = (0u64, 0u64);
        {
            let (m_get, m_put) = (&mut this.m_get, &mut this.m_put);
            let data_msgs_by = &mut this.data_msgs_by;
            let h_in_words = &mut this.h_in_words;
            let h_out_words = &mut this.h_out_words;
            let load = &mut this.bank_load;
            let touched = &mut this.bank_load_touched;
            CommMatrix::new(inputs).for_each_dirty(|src, dst, bank, c| {
                m_get[src] += c.get_words;
                m_put[src] += c.put_words;
                if c.put_words > 0 {
                    data_msgs_by[src] += 1;
                    data_msgs += 1;
                }
                if c.get_words > 0 {
                    // Request from src, reply from dst.
                    data_msgs_by[src] += 1;
                    data_msgs_by[dst] += 1;
                    data_msgs += 2;
                }
                h_out_words[src] += c.put_words + c.get_words; // request ≈ 1 word/item
                h_in_words[dst] += c.put_words + c.get_words;
                h_out_words[dst] += c.get_words;
                h_in_words[src] += c.get_words;
                payload_bytes += c.put_payload_bytes + c.get_reply_payload_bytes;
                if banks > 0 {
                    let idx = dst * banks + bank;
                    if load[idx] == 0 {
                        touched.push(idx as u32);
                    }
                    load[idx] += c.put_words + c.get_words;
                }
            });
        }
        let mut bank_kappa = 0u64;
        for idx in this.bank_load_touched.drain(..) {
            bank_kappa = bank_kappa.max(this.bank_load[idx as usize]);
            this.bank_load[idx as usize] = 0;
        }

        PhasePlan { registered, unregs, bank_kappa, data_msgs, payload_bytes }
    }

    /// **Stage 3 — price.** Hand the metered phase to the backend's
    /// [`PhaseTimer`]: charged local operations, the traffic matrix,
    /// and each worker's `sync()` arrival instant.
    pub(crate) fn price_stage(
        &mut self,
        inputs: &[Slot],
        timer: &mut dyn PhaseTimer,
    ) -> PhasePrice {
        self.charged.clear();
        self.charged.extend(inputs.iter().map(Slot::charged));
        self.arrivals.clear();
        self.arrivals.extend(inputs.iter().map(Slot::arrived));
        timer.price(&self.charged, &CommMatrix::new(inputs), &self.arrivals)
    }

    /// **Stage 4 — record.** Emit observability counters/spans and
    /// assemble the [`PhaseRecord`] the cost models consume; `kappa` is
    /// the maximum of the owners' sweeps. Runs identically on every
    /// backend; only the time unit differs.
    pub(crate) fn record_stage(
        &mut self,
        plan: &PhasePlan,
        kappa: u64,
        price: PhasePrice,
    ) -> PhaseRecord {
        let this = &mut *self;
        let p = this.p;
        let PhasePrice { timing, retries, dropped_msgs, bank_wait, link_wait, link_util } = price;

        // --- Observability: phase spans on the machine track carry
        // the phase timing verbatim (dur, not endpoints), so the comm
        // spans of a run sum to `CostReport.measured_comm` exactly.
        if this.rec.is_enabled() {
            this.rec.add("phases", 1);
            this.rec.add("data_msgs", plan.data_msgs);
            this.rec.add("payload_bytes", plan.payload_bytes);
            this.rec.observe("kappa", kappa);
            // Bank-κ and bank-wait exist only under a bank model;
            // emitting conditionally keeps bank-free metrics dumps
            // byte-identical to pre-bank builds.
            if this.banks > 0 {
                this.rec.observe("bank_kappa", plan.bank_kappa);
                this.rec.add("bank_wait_cycles", bank_wait.get() as u64);
            }
            // Link-wait and link-utilization exist only under a
            // non-flat topology; same conditional-emission rule.
            if this.links > 0 {
                this.rec.add("link_wait_cycles", link_wait.get() as u64);
                this.rec.observe("link_util_pct", (link_util * 100.0).round() as u64);
            }
            if this.rec.is_full() {
                let t0 = this.now;
                this.rec.span(SpanKind::PhaseCompute, this.phase_idx, 0, t0, timing.compute);
                this.rec.span(
                    SpanKind::PhaseComm,
                    this.phase_idx,
                    0,
                    t0 + timing.compute,
                    timing.comm,
                );
                this.rec.counter("kappa", 0, t0 + timing.elapsed, kappa as f64);
                if this.banks > 0 {
                    this.rec.span(
                        SpanKind::BankService,
                        this.phase_idx,
                        0,
                        t0 + timing.compute,
                        bank_wait,
                    );
                    this.rec.counter("bank_kappa", 0, t0 + timing.elapsed, plan.bank_kappa as f64);
                }
            }
        }
        this.now += timing.elapsed;
        this.phase_idx += 1;

        // --- Profile ---
        let mut profile = PhaseProfile::default();
        for i in 0..p {
            profile.merge_max(&PhaseProfile {
                m_op: this.charged[i],
                m_rw: this.m_get[i] + this.m_put[i],
                m_get: this.m_get[i],
                m_put: this.m_put[i],
                kappa: 0,
                h_in: this.h_in_words[i],
                h_out: this.h_out_words[i],
                msgs: this.data_msgs_by[i],
            });
        }
        profile.kappa = kappa;

        PhaseRecord {
            profile,
            timing,
            data_msgs: plan.data_msgs,
            payload_bytes: plan.payload_bytes,
            retries,
            dropped_msgs,
            bank_kappa: plan.bank_kappa,
            bank_wait,
            link_wait,
            link_util,
        }
    }

    /// Phase-end bookkeeping: count in the arrays the plan registered,
    /// retire the ones it unregistered (workers install and drop the
    /// segments, and keep the metadata, themselves), and reset the
    /// pooled scratch.
    pub(crate) fn finish_phase_meta(&mut self, plan: &PhasePlan) {
        self.live.resize(self.live.len() + plan.registered, true);
        for id in &plan.unregs {
            self.live[id.0 as usize] = false;
        }
        self.m_get.fill(0);
        self.m_put.fill(0);
        self.h_in_words.fill(0);
        self.h_out_words.fill(0);
        self.data_msgs_by.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use proptest::prelude::*;

    use super::*;
    use crate::ops::Outbox;
    use crate::shmem::{ArrayInfo, Registration};

    /// Whole access ranges of one array, `(start, len)`: what the
    /// oracles below sweep, and [`sweep`] files range by range.
    #[derive(Default)]
    struct AccessRanges {
        reads: Vec<(usize, usize)>,
        writes: Vec<(usize, usize)>,
    }

    fn sweep(name: &str, acc: &AccessRanges) -> u64 {
        let mut events = Vec::new();
        acc.reads.iter().for_each(|&(s, l)| note_range(&mut events, s, l, false));
        acc.writes.iter().for_each(|&(s, l)| note_range(&mut events, s, l, true));
        sweep_kappa(name, &mut events)
    }

    #[test]
    fn sweep_counts_overlap_depth() {
        let acc = AccessRanges {
            reads: vec![(0, 10), (5, 10), (7, 1)],
            writes: vec![(20, 5), (20, 5), (20, 5)],
        };
        assert_eq!(sweep("t", &acc), 3);
    }

    #[test]
    fn adjacent_ranges_do_not_conflict() {
        let acc = AccessRanges { reads: vec![(0, 5)], writes: vec![(5, 5)] };
        assert_eq!(sweep("t", &acc), 1);
        // Nor does one element at a range's open end, on either side.
        let acc = AccessRanges { reads: vec![(3, 3), (3, 3)], writes: vec![(6, 1), (2, 1)] };
        assert_eq!(sweep("t", &acc), 2);
    }

    #[test]
    #[should_panic(expected = "bulk-synchrony violation: location 9 of array 't'")]
    fn read_write_overlap_detected() {
        let acc = AccessRanges { reads: vec![(0, 10)], writes: vec![(9, 1)] };
        sweep("t", &acc);
    }

    #[test]
    fn empty_access_set_has_zero_kappa() {
        assert_eq!(sweep("t", &AccessRanges::default()), 0);
    }

    #[test]
    fn a_one_element_access_is_one_event_counted_where_it_is() {
        let mut events = Vec::new();
        note_range(&mut events, 7, 1, true);
        note_range(&mut events, 7, 1, true);
        note_range(&mut events, 7, 2, true);
        assert_eq!(events.len(), 4);
        // Two points on a range at 7; at 8 the range is alone again.
        note_range(&mut events, 8, 1, true);
        assert_eq!(sweep_kappa("t", &mut events), 3);
    }

    #[test]
    fn sweep_reuses_event_buffer() {
        let mut events = Vec::new();
        note_range(&mut events, 0, 10, false);
        note_range(&mut events, 5, 10, false);
        assert_eq!(events.len(), 4);
        let (buf, cap) = (events.as_ptr(), events.capacity());
        assert_eq!(sweep_kappa("t", &mut events), 2);
        // The sweep leaves the buffer empty: were the wider sweep's
        // events to leak into the next, this κ would be 3 and, being
        // reads, a conflict with the write.
        assert!(events.is_empty());
        note_range(&mut events, 0, 1, false);
        note_range(&mut events, 7, 1, true);
        assert_eq!(sweep_kappa("t", &mut events), 1);
        // ... and the smaller sweep ran in the same allocation.
        assert_eq!((events.as_ptr(), events.capacity()), (buf, cap));
    }

    /// The tuple-sort kernel `sweep_kappa` replaced, kept verbatim as
    /// the oracle for the packed one.
    fn sweep_kappa_oracle(
        name: &str,
        acc: &AccessRanges,
        events: &mut Vec<(usize, bool, i64, i64)>,
    ) -> u64 {
        // Events: (position, end-before-start flag, d_read, d_write).
        events.clear();
        for &(s, l) in &acc.reads {
            events.push((s, false, 1, 0));
            events.push((s + l, true, -1, 0));
        }
        for &(s, l) in &acc.writes {
            events.push((s, false, 0, 1));
            events.push((s + l, true, 0, -1));
        }
        events.sort_by_key(|&(pos, is_end, _, _)| (pos, !is_end));
        let (mut r, mut w, mut kappa) = (0i64, 0i64, 0i64);
        let mut i = 0;
        while i < events.len() {
            let pos = events[i].0;
            let end_flag = events[i].1;
            while i < events.len() && events[i].0 == pos && events[i].1 == end_flag {
                r += events[i].2;
                w += events[i].3;
                i += 1;
            }
            if r > 0 && w > 0 {
                panic!(
                    "bulk-synchrony violation: location {pos} of array '{name}' is both \
                     read and written in the same phase (the QSM phase contract forbids \
                     this; split the accesses across a sync())"
                );
            }
            kappa = kappa.max(r + w);
        }
        kappa as u64
    }

    /// κ, or the panic message of the conflict the sweep stopped at.
    fn outcome(sweep: impl FnOnce() -> u64) -> Result<u64, String> {
        catch_unwind(AssertUnwindSafe(sweep))
            .map_err(|payload| *payload.downcast::<String>().expect("sweep panics with a String"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Positions from a universe of 24 and lengths from 0, so
        /// zero-length, adjacent, nested and duplicate ranges — and
        /// read/write overlaps — all occur in most cases. Every other
        /// range is cut to one element: duplicates at one position, a
        /// unit write inside a read range and a unit read at a range's
        /// open end are then as common.
        #[test]
        fn packed_sweep_matches_the_tuple_sort_oracle(
            reads in proptest::collection::vec((0usize..24, 0usize..6, proptest::bool::ANY), 0..8),
            writes in proptest::collection::vec((0usize..24, 0usize..6, proptest::bool::ANY), 0..8),
        ) {
            let cut = |ranges: Vec<(usize, usize, bool)>| -> Vec<(usize, usize)> {
                ranges.into_iter().map(|(s, l, unit)| (s, if unit { 1 } else { l })).collect()
            };
            let acc = AccessRanges { reads: cut(reads), writes: cut(writes) };
            let want = outcome(|| sweep_kappa_oracle("a", &acc, &mut Vec::new()));
            let got = outcome(|| sweep("a", &acc));
            prop_assert_eq!(&got, &want);
        }
    }

    /// One operation of the flat per-processor lists the plan stage
    /// used to walk.
    #[derive(Debug, Clone)]
    struct FlatOp {
        src: usize,
        array: usize,
        put: bool,
        start: usize,
        len: usize,
    }

    /// A dense traffic matrix, a row per source of one cell per
    /// `(owner, bank)`: `cells[src][dst * banks.max(1) + bank]`.
    struct Dense {
        cells: Vec<Vec<PairTraffic>>,
    }

    /// The plan stage's metering as it was while the leader walked
    /// every queued operation — the per-op loops, the matrix filled
    /// element by element, as the oracle for rows metered at the sender
    /// and κ swept at the owner: the traffic matrix, each source's get
    /// and put words, and each array's whole access ranges.
    fn meter_flat(
        p: usize,
        banks: usize,
        infos: &[ArrayInfo],
        ops: &[FlatOp],
    ) -> (Dense, [Vec<u64>; 2], Vec<AccessRanges>) {
        let cells = banks.max(1);
        let mut matrix = Dense { cells: vec![vec![PairTraffic::default(); p * cells]; p] };
        let (mut m_get, mut m_put) = (vec![0u64; p], vec![0u64; p]);
        let mut accesses: Vec<AccessRanges> =
            infos.iter().map(|_| AccessRanges::default()).collect();
        for op in ops {
            let (src, info) = (op.src, &infos[op.array]);
            let wpe = info.words_per_elem();
            let acc = &mut accesses[op.array];
            if op.put { &mut acc.writes } else { &mut acc.reads }.push((op.start, op.len));
            let add = |c: &mut PairTraffic, n: usize| {
                if op.put {
                    c.put_words += n as u64 * wpe;
                    c.put_payload_bytes += n as u64 * info.elem_bytes;
                } else {
                    c.get_words += n as u64 * wpe;
                    c.get_reply_payload_bytes += n as u64 * info.elem_bytes;
                }
            };
            for idx in op.start..op.start + op.len {
                let owner = crate::addr::owner(info.layout, info.id, info.len, p, idx);
                let bank = if banks > 0 {
                    crate::addr::bank_of(info.layout, info.id, banks, idx)
                } else {
                    0
                };
                add(&mut matrix.cells[src][owner * cells + bank], 1);
            }
            let words = if op.put { &mut m_put } else { &mut m_get };
            words[src] += op.len as u64 * wpe;
        }
        (matrix, [m_get, m_put], accesses)
    }

    /// Totals of a dense traffic matrix of `banks` banks, cell by cell
    /// over all of it: `(data_msgs, payload_bytes, bank_kappa)`.
    fn totals(m: &Dense, banks: usize) -> (u64, u64, u64) {
        let (mut msgs, mut bytes, mut bank_kappa) = (0, 0, 0);
        for c in m.cells.iter().flatten() {
            msgs += u64::from(c.put_words > 0) + 2 * u64::from(c.get_words > 0);
            bytes += c.put_payload_bytes + c.get_reply_payload_bytes;
        }
        if banks > 0 {
            for cell in 0..m.cells[0].len() {
                let load = m.cells.iter().map(|row| row[cell]).map(|c| c.put_words + c.get_words);
                bank_kappa = bank_kappa.max(load.sum());
            }
        }
        (msgs, bytes, bank_kappa)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Rows metered at the sender and read in place by the leader,
        /// and the maximum of the owners' sweeps, against the flat-list
        /// oracle.
        /// Arrays are `(hashed, 8-byte, len)` and short, so a range of
        /// up to 8 spans up to four of 16 owners, and duplicates and
        /// read/write overlaps are common; an op is `(src, array, put,
        /// start, len, one element only)` before reduction to the drawn
        /// `p` and lengths, so at least half the runs are one element.
        #[test]
        fn rows_and_owner_kappa_match_the_flat_plan_stage(
            p_idx in 0usize..5,
            banks_on in proptest::bool::ANY,
            arrays in proptest::collection::vec(
                (proptest::bool::ANY, proptest::bool::ANY, 1usize..40), 2),
            raw_ops in proptest::collection::vec(
                (0usize..16, 0usize..2, proptest::bool::ANY, 0usize..40, 1usize..9,
                 proptest::bool::ANY), 0..24),
        ) {
            let (p, banks) = ([1, 3, 4, 7, 16][p_idx], if banks_on { 4 } else { 0 });
            let ops: Vec<FlatOp> = raw_ops
                .iter()
                .map(|&(src, array, put, at, len, unit)| {
                    let (start, len) = (at % arrays[array].2, if unit { 1 } else { len });
                    FlatOp { src: src % p, array, put, start, len: len.min(arrays[array].2 - start) }
                })
                .collect();
            let infos: Vec<ArrayInfo> = arrays
                .iter()
                .enumerate()
                .map(|(k, &(hashed, wide, len))| {
                    let (name, elem_bytes) = (format!("a{k}"), if wide { 8 } else { 4 });
                    let layout = if hashed { crate::Layout::Hashed } else { crate::Layout::Block };
                    ArrayInfo::new(ArrayId(k as u32), Registration { name, len, elem_bytes, layout }, p)
                })
                .collect();
            let (want, [want_get, want_put], accesses) = meter_flat(p, banks, &infos, &ops);

            // The senders: each queues its own operations, in order.
            let mut outboxes: Vec<Outbox> = (0..p).map(|_| Outbox::new(p, banks)).collect();
            for (k, op) in ops.iter().enumerate() {
                let (out, info) = (&mut outboxes[op.src], &infos[op.array]);
                match (op.put, info.elem_bytes) {
                    (false, _) => out.get(info, op.start, op.len, 8 * k),
                    (true, 4) => out.put(info, op.start, &vec![0u32; op.len]),
                    (true, _) => out.put(info, op.start, &vec![0u64; op.len]),
                }
            }
            // The owners: each sweeps what is bound for its block.
            let mut store = LocalStore::default();
            infos.iter().for_each(|info| store.install(info.clone(), Vec::new()));
            let owner_kappas: Vec<Result<u64, String>> = (0..p)
                .map(|me| {
                    let mut sweep = OwnerKappa::default();
                    outboxes.iter().flat_map(|out| out.runs_for(me)).for_each(|run| sweep.note(run));
                    outcome(|| sweep.sweep(&store))
                })
                .collect();
            // The leader: reads the rows where they were published.
            let mut driver = Driver::new(p, Recorder::disabled());
            if banks > 0 {
                driver.banks = banks;
                driver.bank_load = vec![0; p * banks];
            }
            let slots: Vec<Slot> = outboxes.into_iter().map(Slot::publishing).collect();
            let plan = driver.plan_stage(&slots);

            let matrix = CommMatrix::new(&slots);
            let cells = banks.max(1);
            prop_assert_eq!(matrix.banks(), cells);
            for (src, dst) in (0..p).flat_map(|src| (0..p).map(move |dst| (src, dst))) {
                for bank in 0..cells {
                    let want = &want.cells[src][dst * cells + bank];
                    prop_assert_eq!(matrix.at(src, dst, bank), want, "{}->{} bank {}", src, dst, bank);
                }
            }
            prop_assert_eq!((&driver.m_get, &driver.m_put), (&want_get, &want_put));
            let totals = totals(&want, banks);
            prop_assert_eq!((plan.data_msgs, plan.payload_bytes, plan.bank_kappa), totals);

            // The flat sweep, array by array over whole ranges, as the
            // leader ran it: its κ is the owners' maximum, and it stops
            // at a conflict exactly when an owner does.
            let sweep = |name: &str, acc: &AccessRanges| outcome(|| sweep(name, acc));
            let flat: Vec<_> = infos.iter().zip(&accesses).map(|(i, acc)| sweep(&i.name, acc)).collect();
            // What reaches the user is the lowest processor's panic: its
            // lowest array's, over the ranges clipped to its block.
            let clip = |ranges: &[(usize, usize)], block: &std::ops::Range<usize>| {
                let cut = ranges.iter().map(|&(s, l)| (s.max(block.start), (s + l).min(block.end)));
                cut.filter(|(s, e)| s < e).map(|(s, e)| (s, e - s)).collect::<Vec<_>>()
            };
            let first_owner_failure = (0..p).find_map(|me| {
                infos.iter().zip(&accesses).find_map(|(info, acc)| {
                    let block = crate::addr::block_range(info.len, p, me);
                    let mine =
                        AccessRanges { reads: clip(&acc.reads, &block), writes: clip(&acc.writes, &block) };
                    sweep(&info.name, &mine).err()
                })
            });
            let failed = |rs: &[Result<u64, String>]| rs.iter().find_map(|r| r.clone().err());
            prop_assert_eq!(failed(&owner_kappas), first_owner_failure.clone());
            prop_assert_eq!(failed(&flat).is_some(), first_owner_failure.is_some());
            match first_owner_failure {
                None => prop_assert_eq!(
                    owner_kappas.iter().flatten().max(),
                    flat.iter().flatten().max()
                ),
                // One array in conflict: the flat sweep said the same.
                Some(got) if flat.iter().filter(|r| r.is_err()).count() == 1 => {
                    prop_assert_eq!(Some(got), failed(&flat))
                }
                Some(got) => prop_assert!(flat.contains(&Err(got))),
            }
        }
    }

    /// A phase over p = 3 metering `banks` banks, as its processors
    /// published it: blocks of 6 are 0..2, 2..4 and 4..6, and with 2
    /// banks the bank of index i is i % 2. Processor 1 queues nothing;
    /// the rows in `cleared` are emptied for reuse before they are
    /// published.
    fn published_rows(banks: usize, cleared: &[usize]) -> Vec<Slot> {
        let p = 3;
        let reg =
            Registration { name: "a".into(), len: 6, elem_bytes: 4, layout: crate::Layout::Block };
        let a = ArrayInfo::new(ArrayId(0), reg, p);
        let mut outboxes: Vec<Outbox> = (0..p).map(|_| Outbox::new(p, banks)).collect();
        outboxes[0].get(&a, 5, 1, 0);
        outboxes[0].put(&a, 1, &[7u32]);
        outboxes[2].put(&a, 2, &[1u32, 2, 3]);
        for &src in cleared {
            outboxes[src].clear();
        }
        outboxes.into_iter().map(Slot::publishing).collect()
    }

    fn put_traffic(n: u64) -> PairTraffic {
        PairTraffic { put_words: n, put_payload_bytes: 4 * n, ..PairTraffic::default() }
    }

    fn get_traffic() -> PairTraffic {
        PairTraffic { get_words: 1, get_reply_payload_bytes: 4, ..PairTraffic::default() }
    }

    /// The view reads each source's published row in place: the cells
    /// its puts and gets metered, and zero where a row queued nothing.
    #[test]
    fn comm_matrix_indexing() {
        let slots = published_rows(2, &[]);
        let m = CommMatrix::new(&slots);
        let (put, get) = (put_traffic, get_traffic());
        assert_eq!(m.banks(), 2);
        assert_eq!((m.at(0, 2, 1), m.at(0, 2, 0)), (&get, &PairTraffic::default()));
        assert_eq!((m.at(0, 0, 1), m.at(0, 0, 0)), (&put(1), &PairTraffic::default()));
        assert_eq!((m.at(2, 1, 0), m.at(2, 1, 1)), (&put(1), &put(1)));
        assert_eq!((m.at(2, 2, 0), m.at(2, 2, 1)), (&put(1), &PairTraffic::default()));
        // Processor 1 queued nothing: its row was never sized.
        assert!((0..3).all(|dst| (0..2).all(|bank| m.at(1, dst, bank).is_empty())));
        assert!(!m.is_empty());
        // Bank-free, a pair is one cell.
        let slots = published_rows(0, &[]);
        let m = CommMatrix::new(&slots);
        assert_eq!((m.banks(), m.at(2, 1, 0), m.at(0, 2, 0)), (1, &put(2), &get));
        let none = CommMatrix::new(&[]);
        assert!(none.is_empty(), "no rows: a phase that moved nothing");
        assert_eq!(none.banks(), 1);
    }

    /// The dirty walk visits the cells source by source, each row in
    /// first-touch order and bank by bank within a pair; a row cleared
    /// for reuse reads zero and drops out of it.
    #[test]
    fn comm_matrix_dirty_list_tracks_and_clears() {
        let walk = |banks: usize, cleared: &[usize]| {
            let slots = published_rows(banks, cleared);
            let m = CommMatrix::new(&slots);
            let mut seen = Vec::new();
            m.for_each_dirty(|src, dst, bank, c| {
                seen.push((src, dst, bank, c.put_words + c.get_words))
            });
            let row0_zero = (0..3).all(|dst| (0..m.banks()).all(|b| m.at(0, dst, b).is_empty()));
            (seen, row0_zero, m.is_empty())
        };
        let banked = vec![(0, 2, 1, 1), (0, 0, 1, 1), (2, 1, 0, 1), (2, 1, 1, 1), (2, 2, 0, 1)];
        assert_eq!(walk(2, &[]), (banked, false, false));
        assert_eq!(walk(2, &[0]), (vec![(2, 1, 0, 1), (2, 1, 1, 1), (2, 2, 0, 1)], true, false));
        assert_eq!(walk(2, &[0, 2]), (vec![], true, true));
        let pairs = vec![(0, 2, 0, 1), (0, 0, 0, 1), (2, 1, 0, 2), (2, 2, 0, 1)];
        assert_eq!(walk(0, &[]), (pairs, false, false));
        assert_eq!(walk(0, &[0]), (vec![(2, 1, 0, 2), (2, 2, 0, 1)], true, false));
    }
}
