//! The phase driver: what every `sync()` meters, prices and records.
//!
//! Each worker publishes its queued operations into its exchange-area
//! [`Slot`] at `sync()` (`crate::spmd`); worker 0, the phase leader,
//! then runs the stages of this module over all `p` slots. Every phase
//! of every backend goes through the same four-stage pipeline:
//!
//! 1. **plan** — validate collective calls, assign array ids, and
//!    meter the phase: build the [`CommMatrix`], per-processor
//!    counters, and the κ contention sweep.
//! 2. **exchange** — each worker serves its own gets from the peers'
//!    frozen stores (the pre-put state) and applies the puts that land
//!    in its own block (deterministically: processor order, then
//!    issue order). Workers own their memory throughout, so this
//!    stage lives in `crate::spmd`, between and after the barriers.
//! 3. **price** — ask the backend's [`PhaseTimer`] what the phase
//!    cost on the simulated (or real) machine.
//! 4. **record** — emit observability spans/metrics and assemble the
//!    [`PhaseRecord`] for the cost models.
//!
//! The [`Driver`] holds no program data: only array metadata and the
//! metering scratch, cleared and reused from phase to phase. It is
//! the same code for the simulated and the native machine; only the
//! [`PhaseTimer`] handed to the price stage differs.

use std::time::Instant;

use qsm_models::PhaseProfile;
use qsm_obs::{Recorder, SpanKind};
use qsm_simnet::Cycles;

use crate::addr::{for_each_owner_run, ArrayId};
use crate::machine::PhaseTimer;
use crate::shmem::ArrayInfo;
use crate::spmd::Slot;

/// Aggregate traffic from one source processor to one cost owner in a
/// single phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairTraffic {
    /// Number of put items (maximal single-owner runs).
    pub put_items: u64,
    /// Put payload in 4-byte accounting words.
    pub put_words: u64,
    /// Put payload in wire bytes.
    pub put_payload_bytes: u64,
    /// Number of get items requested.
    pub get_items: u64,
    /// Get reply payload in 4-byte accounting words.
    pub get_words: u64,
    /// Get reply payload in wire bytes.
    pub get_reply_payload_bytes: u64,
}

impl PairTraffic {
    /// True when no traffic flows on this pair.
    pub fn is_empty(&self) -> bool {
        self.put_items == 0 && self.get_items == 0
    }
}

/// The per-phase (source, cost-owner) traffic matrix.
///
/// Maintains a dirty-pair list: [`CommMatrix::at_mut`] records each
/// cell the first time it is borrowed mutably, so emptiness checks,
/// whole-phase scans ([`CommMatrix::for_each_dirty`]) and
/// [`CommMatrix::clear`] touch only the pairs a phase actually used
/// instead of all `p²` cells. Most phases of real programs touch
/// O(p) pairs.
#[derive(Debug, Clone)]
pub struct CommMatrix {
    p: usize,
    pairs: Vec<PairTraffic>,
    touched: Vec<bool>,
    dirty: Vec<u32>,
    /// Optional per-bank refinement (enabled only when the backend's
    /// machine models destination banks).
    bank: Option<BankLayer>,
}

/// Per-bank refinement of the traffic matrix: one [`PairTraffic`]
/// cell per `(src, dst, bank)`, with its own dirty list. Allocated
/// only when a bank model is enabled, so bank-free runs pay nothing.
#[derive(Debug, Clone)]
struct BankLayer {
    banks: usize,
    cells: Vec<PairTraffic>,
    touched: Vec<bool>,
    dirty: Vec<u32>,
}

impl CommMatrix {
    /// An empty matrix for `p` processors.
    pub fn new(p: usize) -> Self {
        Self {
            p,
            pairs: vec![PairTraffic::default(); p * p],
            touched: vec![false; p * p],
            dirty: Vec::new(),
            bank: None,
        }
    }

    /// Processor count.
    pub fn nprocs(&self) -> usize {
        self.p
    }

    /// Traffic from `src` to owner `dst`.
    pub fn at(&self, src: usize, dst: usize) -> &PairTraffic {
        &self.pairs[src * self.p + dst]
    }

    /// Mutable traffic cell; marks the pair dirty.
    pub fn at_mut(&mut self, src: usize, dst: usize) -> &mut PairTraffic {
        let idx = src * self.p + dst;
        if !self.touched[idx] {
            self.touched[idx] = true;
            self.dirty.push(idx as u32);
        }
        &mut self.pairs[idx]
    }

    /// True when the whole phase moved no data. Scans only the dirty
    /// pairs, so an untouched matrix answers in O(1).
    pub fn is_empty(&self) -> bool {
        self.dirty.iter().all(|&idx| self.pairs[idx as usize].is_empty())
    }

    /// Visit every dirty `(src, dst, traffic)` cell. Visit order is
    /// first-touch order, which varies with program structure — use
    /// only for order-insensitive accumulation; ordered consumers
    /// (the exchange simulation) must index with [`CommMatrix::at`].
    pub fn for_each_dirty(&self, mut visit: impl FnMut(usize, usize, &PairTraffic)) {
        for &idx in &self.dirty {
            let idx = idx as usize;
            visit(idx / self.p, idx % self.p, &self.pairs[idx]);
        }
    }

    /// Reset to the empty matrix, clearing only dirty cells.
    pub fn clear(&mut self) {
        for &idx in &self.dirty {
            self.pairs[idx as usize] = PairTraffic::default();
            self.touched[idx as usize] = false;
        }
        self.dirty.clear();
        if let Some(layer) = &mut self.bank {
            for &idx in &layer.dirty {
                layer.cells[idx as usize] = PairTraffic::default();
                layer.touched[idx as usize] = false;
            }
            layer.dirty.clear();
        }
    }

    /// Switch on the per-bank refinement with `banks` banks per node
    /// (idempotent; reallocates only when the count changes).
    pub fn enable_banks(&mut self, banks: usize) {
        assert!(banks >= 1);
        if self.bank.as_ref().is_some_and(|l| l.banks == banks) {
            return;
        }
        let n = self.p * self.p * banks;
        self.bank = Some(BankLayer {
            banks,
            cells: vec![PairTraffic::default(); n],
            touched: vec![false; n],
            dirty: Vec::new(),
        });
    }

    /// Banks per node of the enabled refinement (0 when disabled).
    pub fn banks(&self) -> usize {
        self.bank.as_ref().map_or(0, |l| l.banks)
    }

    /// Traffic from `src` to bank `bank` of owner `dst` (requires an
    /// enabled bank layer).
    pub fn at_bank(&self, src: usize, dst: usize, bank: usize) -> &PairTraffic {
        let layer = self.bank.as_ref().expect("bank layer not enabled");
        &layer.cells[(src * self.p + dst) * layer.banks + bank]
    }

    /// Mutable per-bank traffic cell; marks it dirty.
    pub fn at_bank_mut(&mut self, src: usize, dst: usize, bank: usize) -> &mut PairTraffic {
        let layer = self.bank.as_mut().expect("bank layer not enabled");
        let idx = (src * self.p + dst) * layer.banks + bank;
        if !layer.touched[idx] {
            layer.touched[idx] = true;
            layer.dirty.push(idx as u32);
        }
        &mut layer.cells[idx]
    }

    /// Visit every dirty `(src, dst, bank, traffic)` cell of the bank
    /// layer, in first-touch order (order-insensitive accumulation
    /// only). No-op when the layer is disabled.
    pub fn for_each_dirty_bank(&self, mut visit: impl FnMut(usize, usize, usize, &PairTraffic)) {
        if let Some(layer) = &self.bank {
            for &idx in &layer.dirty {
                let idx = idx as usize;
                let pair = idx / layer.banks;
                visit(pair / self.p, pair % self.p, idx % layer.banks, &layer.cells[idx]);
            }
        }
    }
}

/// Wall-clock/simulated timing of one phase, as produced by the
/// machine's timing strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTiming {
    /// Full phase duration (compute + communication).
    pub elapsed: Cycles,
    /// Slowest processor's local-compute duration.
    pub compute: Cycles,
    /// `elapsed - compute`: time attributable to `sync()`.
    pub comm: Cycles,
}

/// One completed phase: model-facing profile plus measured timing and
/// traffic totals.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRecord {
    /// Per-phase maxima for the cost models.
    pub profile: PhaseProfile,
    /// Measured timing.
    pub timing: PhaseTiming,
    /// Total data messages in the exchange (excluding plan/barrier).
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

/// Per-array access ranges used for κ and conflict detection.
#[derive(Default)]
struct AccessRanges {
    reads: Vec<(usize, usize)>,
    writes: Vec<(usize, usize)>,
}

impl AccessRanges {
    fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }

    fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
    }
}

/// Sweep all access ranges of one array: returns the maximum queue
/// depth κ at any single location, and panics on a read/write overlap
/// when `check_conflicts` is set. `events` is caller-provided scratch
/// (cleared here) so per-phase sweeps don't allocate.
///
/// A range contributes two events, each packed into one `u64` as
/// `pos << 2 | start << 1 | write`: integer order is then position
/// order with the ends at a position before its starts (half-open
/// ranges: adjacent ranges do not overlap). The sort is unstable
/// because events sharing `key >> 1` are summed, in any order.
fn sweep_kappa(
    name: &str,
    acc: &AccessRanges,
    check_conflicts: bool,
    events: &mut Vec<u64>,
) -> u64 {
    const START: u64 = 0b10;
    const WRITE: u64 = 0b01;
    let key = |pos: usize, flags: u64| {
        debug_assert!(pos as u64 >> 62 == 0, "position {pos} does not fit a packed event");
        (pos as u64) << 2 | flags
    };
    events.clear();
    for &(s, l) in &acc.reads {
        events.push(key(s, START));
        events.push(key(s + l, 0));
    }
    for &(s, l) in &acc.writes {
        events.push(key(s, START | WRITE));
        events.push(key(s + l, WRITE));
    }
    events.sort_unstable();
    let (mut r, mut w, mut kappa) = (0i64, 0i64, 0i64);
    let mut i = 0;
    while i < events.len() {
        // One group: the ends, or the starts, at one position.
        let group = events[i] >> 1;
        let sign = if group & 1 != 0 { 1 } else { -1 };
        while i < events.len() && events[i] >> 1 == group {
            let write = (events[i] & WRITE) as i64;
            r += sign * (1 - write);
            w += sign * write;
            i += 1;
        }
        if check_conflicts && r > 0 && w > 0 {
            let pos = group >> 1;
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

/// The driver's persistent state across phases.
///
/// All per-phase working storage lives here and is reused from phase
/// to phase: the metadata table is a dense `Vec` indexed by
/// `ArrayId.0` (ids are sequential), and the metering scratch
/// (matrix, counters, access ranges, κ event buffer) is cleared, not
/// reallocated. In steady state the stages allocate nothing beyond
/// the plan's (usually empty) registration lists.
pub(crate) struct Driver {
    p: usize,
    next_array_id: u32,
    /// Dense by `ArrayId.0`; `None` = never registered/unregistered.
    infos: Vec<Option<ArrayInfo>>,
    check_conflicts: bool,
    /// Observability sink (disabled unless a harness installed one).
    rec: Recorder,
    /// Accumulated machine time (simulated cycles, or host ns on
    /// wall-clock backends), for span start points.
    now: Cycles,
    phase_idx: u64,
    // --- pooled per-phase scratch ---
    matrix: CommMatrix,
    m_rw: Vec<u64>,
    h_in_words: Vec<u64>,
    h_out_words: Vec<u64>,
    data_msgs_by: Vec<u64>,
    charged: Vec<u64>,
    arrivals: Vec<Instant>,
    /// Dense by `ArrayId.0`, paired with the list of ids touched this
    /// phase (so clearing skips untouched arrays).
    accesses: Vec<AccessRanges>,
    touched_arrays: Vec<u32>,
    kappa_events: Vec<u64>,
    /// Banks per node when the backend models destination banks
    /// (0 = bank metering off; set once per run from the timer).
    banks: usize,
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
    new_arrays: Vec<ArrayInfo>,
    unregs: Vec<ArrayId>,
    kappa: u64,
    /// Observed bank-κ (0 when bank metering is off).
    bank_kappa: u64,
    data_msgs: u64,
    payload_bytes: u64,
}

impl Driver {
    pub(crate) fn new(p: usize, check_conflicts: bool, rec: Recorder) -> Self {
        rec.set_nprocs(p);
        Self {
            p,
            next_array_id: 0,
            infos: Vec::new(),
            check_conflicts,
            rec,
            now: Cycles::ZERO,
            phase_idx: 0,
            matrix: CommMatrix::new(p),
            m_rw: vec![0; p],
            h_in_words: vec![0; p],
            h_out_words: vec![0; p],
            data_msgs_by: vec![0; p],
            charged: vec![0; p],
            arrivals: Vec::with_capacity(p),
            accesses: Vec::new(),
            touched_arrays: Vec::new(),
            kappa_events: Vec::new(),
            banks: 0,
            links: 0,
            bank_load: Vec::new(),
            bank_load_touched: Vec::new(),
        }
    }

    /// Once-per-run initialization: switch on bank metering when the
    /// backend's machine models destination banks, so bank-free runs
    /// never touch the layer. The engine calls this before the first
    /// phase.
    pub(crate) fn begin_run(&mut self, timer: &dyn PhaseTimer) {
        if let Some(bm) = timer.bank_model() {
            self.banks = bm.banks_per_node;
            self.matrix.enable_banks(self.banks);
            self.bank_load = vec![0; self.p * self.banks];
        }
        self.links = timer.link_count();
    }

    /// **Stage 1 — plan.** Validate collective registration calls,
    /// assign ids to new arrays, and meter the phase: the traffic
    /// matrix, per-processor h/message counters, and the κ
    /// contention sweep. No data moves yet. `inputs` is indexed by
    /// processor id.
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
        let new_arrays: Vec<ArrayInfo> = inputs[0]
            .regs()
            .iter()
            .map(|reg| {
                let id = ArrayId(this.next_array_id);
                this.next_array_id += 1;
                ArrayInfo {
                    id,
                    name: reg.name.clone(),
                    len: reg.len,
                    elem_bytes: reg.elem_bytes,
                    layout: reg.layout,
                }
            })
            .collect();
        let unregs = inputs[0].unregs().to_vec();
        for id in &unregs {
            assert!(
                this.infos.get(id.0 as usize).is_some_and(Option::is_some),
                "unregister of unknown array {id:?} (double unregister?)"
            );
        }

        // --- Metering: comm matrix, per-proc counters, κ sweep ---
        debug_assert!(this.matrix.is_empty());
        let banks = this.banks;
        for (src, input) in inputs.iter().enumerate() {
            for op in &input.ops().puts {
                let info = info_for_op(&this.infos, &new_arrays, op.array);
                let wpe = info.words_per_elem();
                let acc = &mut this.accesses[op.array.0 as usize];
                if acc.is_empty() {
                    this.touched_arrays.push(op.array.0);
                }
                acc.writes.push((op.start, op.len));
                let matrix = &mut this.matrix;
                for_each_owner_run(
                    info.layout,
                    info.id,
                    info.len,
                    p,
                    op.start,
                    op.len,
                    |owner, s, l| {
                        let cell = matrix.at_mut(src, owner);
                        // The library is word-granular, as in the paper:
                        // every 4-byte word carries its own item header
                        // and marshal/apply cost (this is why Table 3's
                        // observed gap is an order of magnitude above the
                        // hardware gap even for bulk transfers).
                        cell.put_items += l as u64 * wpe;
                        cell.put_words += l as u64 * wpe;
                        cell.put_payload_bytes += l as u64 * info.elem_bytes;
                        if banks > 0 {
                            crate::addr::for_each_bank_run(
                                info.layout,
                                info.id,
                                banks,
                                s,
                                l,
                                |bank, cnt| {
                                    let bc = matrix.at_bank_mut(src, owner, bank);
                                    bc.put_items += cnt as u64 * wpe;
                                    bc.put_words += cnt as u64 * wpe;
                                    bc.put_payload_bytes += cnt as u64 * info.elem_bytes;
                                },
                            );
                        }
                    },
                );
                this.m_rw[src] += op.len as u64 * wpe;
            }
            for op in &input.ops().gets {
                let info = info_for_op(&this.infos, &new_arrays, op.array);
                let wpe = info.words_per_elem();
                let acc = &mut this.accesses[op.array.0 as usize];
                if acc.is_empty() {
                    this.touched_arrays.push(op.array.0);
                }
                acc.reads.push((op.start, op.len));
                let matrix = &mut this.matrix;
                for_each_owner_run(
                    info.layout,
                    info.id,
                    info.len,
                    p,
                    op.start,
                    op.len,
                    |owner, s, l| {
                        let cell = matrix.at_mut(src, owner);
                        cell.get_items += l as u64 * wpe; // word-granular, see above
                        cell.get_words += l as u64 * wpe;
                        cell.get_reply_payload_bytes += l as u64 * info.elem_bytes;
                        if banks > 0 {
                            crate::addr::for_each_bank_run(
                                info.layout,
                                info.id,
                                banks,
                                s,
                                l,
                                |bank, cnt| {
                                    let bc = matrix.at_bank_mut(src, owner, bank);
                                    bc.get_items += cnt as u64 * wpe;
                                    bc.get_words += cnt as u64 * wpe;
                                    bc.get_reply_payload_bytes += cnt as u64 * info.elem_bytes;
                                },
                            );
                        }
                    },
                );
                this.m_rw[src] += op.len as u64 * wpe;
            }
        }
        let mut kappa = 0u64;
        this.touched_arrays.sort_unstable();
        for &aid in &this.touched_arrays {
            let info = info_for_op(&this.infos, &new_arrays, ArrayId(aid));
            kappa = kappa.max(sweep_kappa(
                &info.name,
                &this.accesses[aid as usize],
                this.check_conflicts,
                &mut this.kappa_events,
            ));
        }

        // h and message counts from the matrix; only dirty pairs
        // contribute, and every accumulation is order-insensitive.
        let mut data_msgs = 0u64;
        let mut payload_bytes = 0u64;
        {
            let data_msgs_by = &mut this.data_msgs_by;
            let h_in_words = &mut this.h_in_words;
            let h_out_words = &mut this.h_out_words;
            this.matrix.for_each_dirty(|src, dst, c| {
                if c.put_items > 0 {
                    data_msgs_by[src] += 1;
                    data_msgs += 1;
                }
                if c.get_items > 0 {
                    // Request from src, reply from dst.
                    data_msgs_by[src] += 1;
                    data_msgs_by[dst] += 1;
                    data_msgs += 2;
                }
                h_out_words[src] += c.put_words + c.get_items; // request ≈ 1 word/item
                h_in_words[dst] += c.put_words + c.get_items;
                h_out_words[dst] += c.get_words;
                h_in_words[src] += c.get_words;
                payload_bytes += c.put_payload_bytes + c.get_reply_payload_bytes;
            });
        }

        // Observed bank-κ: the heaviest word load any single
        // (node, bank) serves this phase — put words written into it
        // plus get words read out of it.
        let mut bank_kappa = 0u64;
        if banks > 0 {
            let load = &mut this.bank_load;
            let touched = &mut this.bank_load_touched;
            this.matrix.for_each_dirty_bank(|_src, dst, bank, c| {
                let words = c.put_words + c.get_words;
                if words > 0 {
                    let idx = dst * banks + bank;
                    if load[idx] == 0 {
                        touched.push(idx as u32);
                    }
                    load[idx] += words;
                }
            });
            for &idx in touched.iter() {
                bank_kappa = bank_kappa.max(load[idx as usize]);
                load[idx as usize] = 0;
            }
            touched.clear();
        }

        PhasePlan { new_arrays, unregs, kappa, bank_kappa, data_msgs, payload_bytes }
    }

    /// **Stage 3 — price.** Hand the metered phase to the backend's
    /// [`PhaseTimer`]: charged local operations, the traffic matrix,
    /// and each worker's `sync()` arrival instant.
    pub(crate) fn price_stage(
        &mut self,
        inputs: &[Slot],
        timer: &mut dyn PhaseTimer,
    ) -> PhaseTiming {
        self.charged.clear();
        self.charged.extend(inputs.iter().map(Slot::charged));
        self.arrivals.clear();
        self.arrivals.extend(inputs.iter().map(Slot::arrived));
        timer.price(&self.charged, &self.matrix, &self.arrivals)
    }

    /// **Stage 4 — record.** Emit observability counters/spans and
    /// assemble the [`PhaseRecord`] the cost models consume. Runs
    /// identically on every backend; only the time unit differs.
    pub(crate) fn record_stage(
        &mut self,
        plan: &PhasePlan,
        timing: PhaseTiming,
        (retries, dropped_msgs): (u64, u64),
        bank_wait: Cycles,
        (link_wait, link_util): (Cycles, f64),
    ) -> PhaseRecord {
        let this = &mut *self;
        let p = this.p;

        // --- Observability: phase spans on the machine track carry
        // the phase timing verbatim (dur, not endpoints), so the comm
        // spans of a run sum to `CostReport.measured_comm` exactly.
        if this.rec.is_enabled() {
            this.rec.add("phases", 1);
            this.rec.add("data_msgs", plan.data_msgs);
            this.rec.add("payload_bytes", plan.payload_bytes);
            this.rec.observe("kappa", plan.kappa);
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
                this.rec.counter("kappa", 0, t0 + timing.elapsed, plan.kappa as f64);
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
                m_rw: this.m_rw[i],
                kappa: 0,
                h_in: this.h_in_words[i],
                h_out: this.h_out_words[i],
                msgs: this.data_msgs_by[i],
            });
        }
        profile.kappa = plan.kappa;

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

    /// Phase-end bookkeeping: install metadata for the arrays the plan
    /// registered, retire the ones it unregistered (workers install
    /// and drop the segments themselves), and reset the pooled scratch.
    pub(crate) fn finish_phase_meta(&mut self, plan: &PhasePlan) {
        for info in &plan.new_arrays {
            debug_assert_eq!(info.id.0 as usize, self.infos.len());
            self.infos.push(Some(info.clone()));
            self.accesses.push(AccessRanges::default());
        }
        for id in &plan.unregs {
            self.infos[id.0 as usize] = None;
        }
        self.reset_scratch();
    }

    /// Reset the pooled per-phase metering scratch for the next
    /// rendezvous.
    fn reset_scratch(&mut self) {
        self.matrix.clear();
        self.m_rw.fill(0);
        self.h_in_words.fill(0);
        self.h_out_words.fill(0);
        self.data_msgs_by.fill(0);
        for &aid in &self.touched_arrays {
            self.accesses[aid as usize].clear();
        }
        self.touched_arrays.clear();
    }
}

/// Metadata lookup across the live table and this phase's fresh
/// registrations (a free function so callers can hold disjoint
/// mutable borrows of other [`Driver`] fields).
fn info_for_op<'a>(
    infos: &'a [Option<ArrayInfo>],
    new_arrays: &'a [ArrayInfo],
    id: ArrayId,
) -> &'a ArrayInfo {
    infos
        .get(id.0 as usize)
        .and_then(Option::as_ref)
        .or_else(|| new_arrays.iter().find(|a| a.id == id))
        .unwrap_or_else(|| panic!("operation on unknown array {id:?}"))
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn sweep_counts_overlap_depth() {
        let acc = AccessRanges {
            reads: vec![(0, 10), (5, 10), (7, 1)],
            writes: vec![(20, 5), (20, 5), (20, 5)],
        };
        assert_eq!(sweep_kappa("t", &acc, true, &mut Vec::new()), 3);
    }

    #[test]
    fn adjacent_ranges_do_not_conflict() {
        let acc = AccessRanges { reads: vec![(0, 5)], writes: vec![(5, 5)] };
        assert_eq!(sweep_kappa("t", &acc, true, &mut Vec::new()), 1);
    }

    #[test]
    #[should_panic(expected = "bulk-synchrony violation")]
    fn read_write_overlap_detected() {
        let acc = AccessRanges { reads: vec![(0, 10)], writes: vec![(9, 1)] };
        sweep_kappa("t", &acc, true, &mut Vec::new());
    }

    #[test]
    fn overlap_tolerated_when_check_disabled() {
        let acc = AccessRanges { reads: vec![(0, 10)], writes: vec![(9, 1)] };
        assert_eq!(sweep_kappa("t", &acc, false, &mut Vec::new()), 2);
    }

    #[test]
    fn empty_access_set_has_zero_kappa() {
        assert_eq!(sweep_kappa("t", &AccessRanges::default(), true, &mut Vec::new()), 0);
    }

    #[test]
    fn sweep_reuses_event_buffer() {
        let mut events = Vec::new();
        let acc = AccessRanges { reads: vec![(0, 10), (5, 10)], writes: vec![] };
        assert_eq!(sweep_kappa("t", &acc, true, &mut events), 2);
        assert_eq!(events.len(), 4);
        let (buf, cap) = (events.as_ptr(), events.capacity());
        // A stale buffer from a previous array must not leak in: the
        // wider sweep's events would make this κ = 3 and, being reads,
        // a conflict with the write.
        let acc2 = AccessRanges { reads: vec![(0, 1)], writes: vec![(7, 1)] };
        assert_eq!(sweep_kappa("t", &acc2, true, &mut events), 1);
        assert_eq!(events.len(), 4);
        // ... and the smaller sweep ran in the same allocation.
        assert_eq!((events.as_ptr(), events.capacity()), (buf, cap));
    }

    /// The tuple-sort kernel `sweep_kappa` replaced, kept verbatim as
    /// the oracle for the packed one.
    fn sweep_kappa_oracle(
        name: &str,
        acc: &AccessRanges,
        check_conflicts: bool,
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
            if check_conflicts && r > 0 && w > 0 {
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
        /// read/write overlaps — all occur in most cases.
        #[test]
        fn packed_sweep_matches_the_tuple_sort_oracle(
            reads in proptest::collection::vec((0usize..24, 0usize..6), 0..8),
            writes in proptest::collection::vec((0usize..24, 0usize..6), 0..8),
            check_conflicts in proptest::bool::ANY,
        ) {
            let acc = AccessRanges { reads, writes };
            let want = outcome(|| sweep_kappa_oracle("a", &acc, check_conflicts, &mut Vec::new()));
            let got = outcome(|| sweep_kappa("a", &acc, check_conflicts, &mut Vec::new()));
            prop_assert_eq!(&got, &want);
            prop_assert!(check_conflicts || got.is_ok());
        }
    }

    #[test]
    fn comm_matrix_indexing() {
        let mut m = CommMatrix::new(3);
        assert!(m.is_empty());
        m.at_mut(1, 2).put_items = 4;
        assert_eq!(m.at(1, 2).put_items, 4);
        assert_eq!(m.at(2, 1).put_items, 0);
        assert!(!m.is_empty());
        assert_eq!(m.nprocs(), 3);
    }

    #[test]
    fn comm_matrix_dirty_list_tracks_and_clears() {
        let mut m = CommMatrix::new(4);
        m.at_mut(0, 3).put_items = 1;
        m.at_mut(2, 1).get_items = 2;
        m.at_mut(0, 3).put_words = 7; // second borrow must not duplicate
        let mut seen = Vec::new();
        m.for_each_dirty(|s, d, c| seen.push((s, d, c.put_items, c.get_items)));
        assert_eq!(seen, vec![(0, 3, 1, 0), (2, 1, 0, 2)]);
        m.clear();
        assert!(m.is_empty());
        let mut count = 0;
        m.for_each_dirty(|_, _, _| count += 1);
        assert_eq!(count, 0);
        assert_eq!(m.at(0, 3), &PairTraffic::default());
        // A touched-but-empty cell still reads as empty overall.
        let _ = m.at_mut(1, 1);
        assert!(m.is_empty());
    }

    #[test]
    fn comm_matrix_bank_layer_tracks_and_clears() {
        let mut m = CommMatrix::new(2);
        assert_eq!(m.banks(), 0);
        m.enable_banks(4);
        assert_eq!(m.banks(), 4);
        m.at_bank_mut(0, 1, 2).put_words = 5;
        m.at_bank_mut(1, 0, 0).get_words = 3;
        m.at_bank_mut(0, 1, 2).put_items = 5; // second borrow: no dup
        assert_eq!(m.at_bank(0, 1, 2).put_words, 5);
        let mut seen = Vec::new();
        m.for_each_dirty_bank(|s, d, b, c| seen.push((s, d, b, c.put_words + c.get_words)));
        assert_eq!(seen, vec![(0, 1, 2, 5), (1, 0, 0, 3)]);
        m.clear();
        assert_eq!(m.at_bank(0, 1, 2), &PairTraffic::default());
        let mut n = 0;
        m.for_each_dirty_bank(|_, _, _, _| n += 1);
        assert_eq!(n, 0);
        // Re-enabling at the same count is a no-op.
        m.enable_banks(4);
        assert_eq!(m.banks(), 4);
    }
}
