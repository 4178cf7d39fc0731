//! Simulated timing of a bulk-synchronous exchange.
//!
//! Mirrors the paper's library: during `sync()` the system (1) builds
//! and distributes a **communication plan** telling every pair of
//! nodes how many gets and puts will flow between them, (2) exchanges
//! data in a latin-square round order designed to avoid hot
//! receivers, and (3) runs a barrier. Three per-node resources are
//! modeled: the CPU (marshalling, applying, serving — the *software*
//! costs that make the observed gap an order of magnitude above the
//! hardware gap, cf. Table 3), and the send/receive NIC engines
//! simulated by [`qsm_simnet::Network`]. Every buffer a phase fills is
//! pooled on the timer, so an empty phase allocates nothing.
//!
//! ### The delivery protocol
//!
//! The models price communication on a reliable network, so the
//! runtime provides one on top of the lossy one: [`transmit_reliably`]
//! sends each data batch through the faulty path and resends what was
//! lost, by the rule [`FaultConfig::resend_ready`] states once for
//! every caller; giving up is a panic naming the message here (the
//! sweep executor catches it) and a `timed_out` count in `qsm-serve`.
//! Resend drop decisions are keyed on `(primary sequence, attempt)`,
//! not drawn from the stream, so retry traffic never shifts a later
//! phase's schedule between runs that differ only in drop probability:
//! the drop set at a lower probability is a subset of the set at a
//! higher one across whole runs. Retry and loss counts reach the
//! [`PhasePrice`] (and so `CostReport`'s `retries` / `dropped_msgs`),
//! metrics counters of the same names, and `RetryRound` spans. With
//! `faults: None` the protocol is exactly the reliable path.

use qsm_obs::{Recorder, Span, SpanKind};
use qsm_simnet::barrier::{self, BarrierScratch};
use qsm_simnet::config::{
    wire_bytes, ExchangeOrder, GET_APPLY, GET_REQUEST, GET_SERVE, PLAN_ENTRY_COST, SYNC_FIXED,
};
use qsm_simnet::{
    Cycles, Delivery, FaultConfig, Injection, MachineConfig, MsgKind, NetStats, Network,
};

use crate::driver::{CommMatrix, PairTraffic, PhasePrice, PhaseTiming};
use crate::machine::PhaseTimer;

/// Wire bytes of one plan entry (get count + put count for one pair).
const PLAN_ENTRY_BYTES: u64 = 16;

/// Per-phase cap on captured wire events when a full recorder is
/// attached (the trace is drained into the recorder every phase, so
/// this bounds a single phase, not the run).
const PHASE_TRACE_CAP: usize = 65_536;

/// Sidecar per data/reply message: word count recovered via the
/// parallel index into the injection buffer.
#[derive(Clone, Copy)]
struct MsgMeta {
    words: u64,
    reply_payload_bytes: u64,
}

/// Simulated-machine timer: owns the network and the global clock.
///
/// All per-phase working buffers (finish and release times, message
/// lists, delivery tables, receiver inboxes, the barrier's tokens) are
/// pooled on the struct and reused, so a phase of the simulation
/// allocates nothing in steady state.
pub struct SimTimer {
    cfg: MachineConfig,
    net: Network,
    phase_start: Vec<Cycles>,
    prev_release_max: Cycles,
    rec: Recorder,
    phase_idx: u64,
    /// Network statistics at the end of the previous recorded phase,
    /// for the per-phase deltas `record_phase` emits.
    prev_stats: NetStats,
    /// Every link's busy total at the end of the previous phase.
    prev_link_busy: Vec<Cycles>,
    // --- pooled per-phase scratch ---
    local_finish: Vec<Cycles>,
    /// The phase's barrier release times, which become the next
    /// phase's `phase_start`; then the buffer the last one was.
    release: Vec<Cycles>,
    cpu: Vec<Cycles>,
    plan_msgs: Vec<Injection>,
    data_msgs: Vec<Injection>,
    metas: Vec<MsgMeta>,
    deliveries: Vec<Delivery>,
    inbox: Vec<Vec<usize>>,
    replies: Vec<Injection>,
    reply_metas: Vec<MsgMeta>,
    reply_deliveries: Vec<Delivery>,
    reply_inbox: Vec<Vec<usize>>,
    barrier_enter: Vec<Cycles>,
    barrier: BarrierScratch,
    /// `(round, first msg index, one-past-last)` per non-empty data
    /// round, for [`SpanKind::ExchangeRound`] spans (full level only).
    round_bounds: Vec<(usize, usize, usize)>,
    retry: RetryScratch,
    /// Every link's utilization over the phase most recently priced
    /// (empty on the flat wire and after a phase that took no time).
    link_utils: Vec<f64>,
}

impl SimTimer {
    /// A fresh machine at time zero, emitting into `rec`. At full
    /// level the network trace is enabled and drained into the
    /// recorder every phase.
    pub fn new(cfg: MachineConfig, rec: Recorder) -> Self {
        let mut net = Network::new(cfg.p, cfg.net);
        if rec.is_full() {
            net.enable_trace(PHASE_TRACE_CAP);
        }
        let links = net.link_count();
        Self {
            net,
            cfg,
            phase_start: vec![Cycles::ZERO; cfg.p],
            prev_release_max: Cycles::ZERO,
            rec,
            phase_idx: 0,
            prev_stats: NetStats::default(),
            prev_link_busy: vec![Cycles::ZERO; links],
            local_finish: Vec::with_capacity(cfg.p),
            release: Vec::with_capacity(cfg.p),
            cpu: Vec::with_capacity(cfg.p),
            plan_msgs: Vec::new(),
            data_msgs: Vec::new(),
            metas: Vec::new(),
            deliveries: Vec::new(),
            inbox: vec![Vec::new(); cfg.p],
            replies: Vec::new(),
            reply_metas: Vec::new(),
            reply_deliveries: Vec::new(),
            reply_inbox: vec![Vec::new(); cfg.p],
            barrier_enter: Vec::with_capacity(cfg.p),
            barrier: BarrierScratch::default(),
            round_bounds: Vec::new(),
            retry: RetryScratch::default(),
            link_utils: Vec::new(),
        }
    }

    /// Simulate one full sync. `local_finish[i]` is when processor
    /// `i`'s compute for the phase ended; fills `release` with each
    /// processor's barrier release time, and adds the delivery
    /// protocol's resends and losses and the bank and link queuing to
    /// `out`.
    fn simulate_exchange(
        &mut self,
        local_finish: &[Cycles],
        matrix: &CommMatrix,
        out: &mut PhasePrice,
        release: &mut Vec<Cycles>,
    ) {
        let p = self.cfg.p;
        let sw = self.cfg.sw;
        self.cpu.clear();
        self.cpu.extend(local_finish.iter().map(|&t| t + Cycles::new(SYNC_FIXED)));

        if p > 1 {
            // --- Plan distribution: all-to-all of pair counts ---
            for c in self.cpu.iter_mut() {
                *c += Cycles::new(PLAN_ENTRY_COST * p as f64);
            }
            let plan_bytes = wire_bytes(0, PLAN_ENTRY_BYTES);
            self.plan_msgs.clear();
            for r in 1..p {
                for (i, &ready) in self.cpu.iter().enumerate() {
                    self.plan_msgs.push(Injection::new(
                        i,
                        (i + r) % p,
                        plan_bytes,
                        ready,
                        MsgKind::Plan,
                    ));
                }
            }
            self.net.transmit_into(&self.plan_msgs, &mut self.deliveries);
            // Every injection captured its ready time above, so the
            // arrival maxima can fold into `cpu` in place.
            for (m, d) in self.plan_msgs.iter().zip(&self.deliveries) {
                self.cpu[m.dst] = self.cpu[m.dst].max(d.visible);
            }
        }

        // --- Data exchange: latin-square rounds (round r: i -> i+r).
        // Round 0 carries self-traffic of hashed arrays: it pays the
        // library path (marshal, overheads, apply) but no wire
        // latency. A phase that moved no data skips all three stages
        // outright — with nothing injected they would not move any
        // timeline, only burn host time scanning p² empty cells.
        if !matrix.is_empty() {
            self.data_msgs.clear();
            self.metas.clear();
            self.round_bounds.clear();
            let track_rounds = self.rec.is_full();
            // When the machine models destination banks *and* the
            // driver metered per-bank traffic, each pair's exchange
            // goes out as one message per touched bank (tagged so the
            // network can queue it at that bank's FIFO) instead of one
            // aggregate message. Without both, the aggregate path
            // below is untouched.
            let split_banks = if self.cfg.net.banks.is_some() { matrix.banks() } else { 0 };
            let cpu = &mut self.cpu;
            let data_msgs = &mut self.data_msgs;
            let metas = &mut self.metas;
            let round_bounds = &mut self.round_bounds;
            for r in 0..p {
                let round_lo = data_msgs.len();
                #[allow(clippy::needless_range_loop)] // cpu is mutated mid-loop
                for i in 0..p {
                    let dst = match sw.exchange_order {
                        ExchangeOrder::LatinSquare => (i + r) % p,
                        ExchangeOrder::DirectSweep => r,
                    };
                    if split_banks > 0 {
                        for b in 0..split_banks {
                            let traffic = *matrix.at_bank(i, dst, b);
                            inject_pair(
                                &sw,
                                i,
                                dst,
                                traffic,
                                Some(b as u32),
                                cpu,
                                data_msgs,
                                metas,
                            );
                        }
                    } else {
                        inject_pair(&sw, i, dst, *matrix.at(i, dst), None, cpu, data_msgs, metas);
                    }
                }
                if track_rounds && data_msgs.len() > round_lo {
                    round_bounds.push((r, round_lo, data_msgs.len()));
                }
            }
            let (r, d) = transmit_reliably(
                &mut self.net,
                self.cfg.net.faults,
                &self.data_msgs,
                &mut self.deliveries,
                &mut self.retry,
                &self.rec,
                self.phase_idx,
            );
            out.retries += r;
            out.dropped_msgs += d;
            if self.cfg.net.banks.is_some() {
                out.bank_wait += self.deliveries.iter().map(|d| d.bank_wait).sum::<Cycles>();
            }
            if self.net.link_count() > 0 {
                out.link_wait += self.deliveries.iter().map(|d| d.link_wait).sum::<Cycles>();
            }

            // --- Receiver-side processing in deterministic arrival
            // order: apply each put, serve each get into a reply.
            self.replies.clear();
            self.reply_metas.clear();
            let (replies, reply_metas) = (&mut self.replies, &mut self.reply_metas);
            receive(
                &mut self.inbox,
                &self.data_msgs,
                &self.deliveries,
                &self.metas,
                &mut self.cpu,
                |dst, m, meta, start| match m.kind {
                    MsgKind::PutData => {
                        sw.put_apply * meta.words as f64 + sw.copy_per_word_recv * meta.words as f64
                    }
                    MsgKind::GetRequest => {
                        let serve = GET_SERVE * meta.words as f64
                            + sw.copy_per_word_send * meta.words as f64;
                        let bytes = wire_bytes(meta.words, meta.reply_payload_bytes);
                        let ready = start + Cycles::new(serve);
                        replies.push(Injection::new(dst, m.src, bytes, ready, MsgKind::GetReply));
                        reply_metas.push(meta);
                        serve
                    }
                    _ => unreachable!("unexpected message kind in data exchange"),
                },
            );

            // --- Replies back to the requesters.
            if !self.replies.is_empty() {
                let (r, d) = transmit_reliably(
                    &mut self.net,
                    self.cfg.net.faults,
                    &self.replies,
                    &mut self.reply_deliveries,
                    &mut self.retry,
                    &self.rec,
                    self.phase_idx,
                );
                out.retries += r;
                out.dropped_msgs += d;
                if self.net.link_count() > 0 {
                    out.link_wait +=
                        self.reply_deliveries.iter().map(|d| d.link_wait).sum::<Cycles>();
                }
                receive(
                    &mut self.reply_inbox,
                    &self.replies,
                    &self.reply_deliveries,
                    &self.reply_metas,
                    &mut self.cpu,
                    |_, _, meta, _| {
                        GET_APPLY * meta.words as f64 + sw.copy_per_word_recv * meta.words as f64
                    },
                );
            }
        }

        // --- Barrier.
        self.barrier_enter.clear();
        for i in 0..p {
            self.barrier_enter.push(self.cpu[i].max(self.net.send_free_at(i)));
        }
        barrier::dissemination(&mut self.net, &self.barrier_enter, release, &mut self.barrier);
    }

    /// Emit this phase's spans, counter samples, wire events, and
    /// metrics into the attached recorder. Called once per `sync()`
    /// when the recorder is enabled; `release` is per-processor
    /// barrier release, `price` carries the phase's resends and
    /// losses. `self.phase_start` still holds the phase *start* times.
    fn record_phase(
        &mut self,
        local_finish: &[Cycles],
        matrix: &CommMatrix,
        release: &[Cycles],
        price: &PhasePrice,
    ) {
        let p = self.cfg.p;
        let phase = self.phase_idx;
        let exchanged = !matrix.is_empty();

        // --- Metrics (commutative; byte-stable across QSM_JOBS) ---
        // Per-kind network traffic as a delta against the previous
        // phase's statistics.
        let stats = *self.net.stats();
        for (kind, msgs, bytes) in stats.by_kind() {
            let (msgs_name, bytes_name) = kind_counter_names(kind);
            self.rec.add(msgs_name, msgs - self.prev_stats.count(kind));
            self.rec.add(bytes_name, bytes - self.prev_stats.bytes_of(kind));
        }
        // Link-stage traffic exists only under a non-flat topology;
        // emitting conditionally keeps flat-wire metrics dumps
        // byte-identical to pre-topology builds.
        if self.net.link_count() > 0 {
            self.rec.add("link_fwd_msgs", stats.link_msgs - self.prev_stats.link_msgs);
            self.rec.add("link_fwd_bytes", stats.link_bytes - self.prev_stats.link_bytes);
        }
        self.prev_stats = stats;
        // Fault counters only when faults actually fired, so the
        // metrics dump of a fault-free run is byte-identical to one
        // recorded before the delivery protocol existed.
        if price.dropped_msgs > 0 {
            self.rec.add("dropped_msgs", price.dropped_msgs);
        }
        if price.retries > 0 {
            self.rec.add("retries", price.retries);
        }
        if exchanged {
            self.rec.observe_iter(
                "msg_size_bytes",
                self.data_msgs.iter().chain(self.replies.iter()).map(|m| m.bytes),
            );
            self.rec.observe_iter("dest_queue_depth", self.inbox.iter().map(|q| q.len() as u64));
        }
        let slowest = local_finish
            .iter()
            .zip(&self.phase_start)
            .map(|(&f, &s)| f - s)
            .fold(Cycles::ZERO, Cycles::max);
        if slowest > Cycles::ZERO {
            let fastest = local_finish
                .iter()
                .zip(&self.phase_start)
                .map(|(&f, &s)| f - s)
                .fold(slowest, Cycles::min);
            let pct = (slowest - fastest).get() / slowest.get() * 100.0;
            self.rec.observe("compute_imbalance_pct", pct.round() as u64);
        }

        if !self.rec.is_full() {
            return;
        }

        // --- Per-processor lanes: compute, comm-busy, barrier wait.
        let spans = (0..p).flat_map(|i| {
            let lane = i as u32;
            [
                Span {
                    kind: SpanKind::Compute,
                    phase,
                    lane,
                    start: self.phase_start[i],
                    dur: local_finish[i] - self.phase_start[i],
                },
                Span {
                    kind: SpanKind::CommBusy,
                    phase,
                    lane,
                    start: local_finish[i],
                    dur: self.barrier_enter[i] - local_finish[i],
                },
                Span {
                    kind: SpanKind::BarrierWait,
                    phase,
                    lane,
                    start: self.barrier_enter[i],
                    dur: release[i] - self.barrier_enter[i],
                },
            ]
        });
        self.rec.spans(spans);

        // --- Exchange-round spans: first injection ready to last
        // delivery visible, per latin-square (or sweep) round.
        if exchanged {
            let round_spans = self.round_bounds.iter().map(|&(r, lo, hi)| {
                let start = self.data_msgs[lo..hi]
                    .iter()
                    .map(|m| m.ready)
                    .fold(self.data_msgs[lo].ready, Cycles::min);
                let end = self.deliveries[lo..hi]
                    .iter()
                    .map(|d| d.visible)
                    .fold(Cycles::ZERO, Cycles::max);
                Span {
                    kind: SpanKind::ExchangeRound,
                    phase,
                    lane: r as u32,
                    start,
                    dur: end - start,
                }
            });
            self.rec.spans(round_spans);

            // Queue-depth counter samples, one per destination, keyed
            // at the phase end.
            let release_max = release.iter().copied().fold(Cycles::ZERO, Cycles::max);
            for (dst, q) in self.inbox.iter().enumerate() {
                self.rec.counter("queue_depth", dst as u32, release_max, q.len() as f64);
            }
        }

        // --- Per-link utilization counter samples, one track per
        // directed link, keyed at the phase end (non-flat only).
        if !self.link_utils.is_empty() {
            let release_max = release.iter().copied().fold(Cycles::ZERO, Cycles::max);
            for (l, &util) in self.link_utils.iter().enumerate() {
                self.rec.counter("link_util", l as u32, release_max, util);
            }
        }

        // --- Wire events: drain the per-phase network trace.
        if let Some(tr) = self.net.take_trace() {
            if tr.dropped() > 0 {
                self.rec.add("wire_events_dropped", tr.dropped());
            }
            self.rec.wire(phase, tr.into_events());
            self.net.enable_trace(PHASE_TRACE_CAP);
        }
    }
}

/// Marshal one traffic cell (a pair's whole exchange, or one bank's
/// slice of it) into data-plane injections: a put-data message and/or
/// a get-request message, each paying its marshal cost on the
/// sender's CPU before departing. `bank` tags the injections for the
/// network's destination-bank stage; `None` leaves the pre-bank wire
/// format — and arithmetic — exactly as it was.
#[allow(clippy::too_many_arguments)]
fn inject_pair(
    sw: &qsm_simnet::SoftwareConfig,
    i: usize,
    dst: usize,
    traffic: PairTraffic,
    bank: Option<u32>,
    cpu: &mut [Cycles],
    data_msgs: &mut Vec<Injection>,
    metas: &mut Vec<MsgMeta>,
) {
    if traffic.put_words > 0 {
        let marshal = sw.put_marshal * traffic.put_words as f64
            + sw.copy_per_word_send * traffic.put_words as f64;
        cpu[i] += Cycles::new(marshal);
        let bytes = wire_bytes(traffic.put_words, traffic.put_payload_bytes);
        let mut m = Injection::new(i, dst, bytes, cpu[i], MsgKind::PutData);
        if let Some(b) = bank {
            m = m.with_bank(b);
        }
        data_msgs.push(m);
        metas.push(MsgMeta { words: traffic.put_words, reply_payload_bytes: 0 });
    }
    if traffic.get_words > 0 {
        cpu[i] += Cycles::new(GET_REQUEST * traffic.get_words as f64);
        let bytes = wire_bytes(traffic.get_words, 0);
        let mut m = Injection::new(i, dst, bytes, cpu[i], MsgKind::GetRequest);
        if let Some(b) = bank {
            m = m.with_bank(b);
        }
        data_msgs.push(m);
        metas.push(MsgMeta {
            words: traffic.get_words,
            reply_payload_bytes: traffic.get_reply_payload_bytes,
        });
    }
}

/// Receiver-side processing of one delivered batch: queue each message
/// at its destination, then drain every queue in `(visible, src,
/// index)` order. A node's CPU takes a message once it is visible and
/// the node's earlier work is done (`start`), and spends the cycles
/// `work(dst, msg, meta, start)` returns on it.
fn receive(
    inbox: &mut [Vec<usize>],
    msgs: &[Injection],
    deliveries: &[Delivery],
    metas: &[MsgMeta],
    cpu: &mut [Cycles],
    mut work: impl FnMut(usize, &Injection, MsgMeta, Cycles) -> f64,
) {
    for q in inbox.iter_mut() {
        q.clear();
    }
    for (idx, m) in msgs.iter().enumerate() {
        inbox[m.dst].push(idx);
    }
    for (dst, queue) in inbox.iter_mut().enumerate() {
        queue.sort_by(|&a, &b| {
            deliveries[a]
                .visible
                .cmp(&deliveries[b].visible)
                .then_with(|| msgs[a].src.cmp(&msgs[b].src))
                .then_with(|| a.cmp(&b))
        });
        for &idx in queue.iter() {
            let start = cpu[dst].max(deliveries[idx].visible);
            cpu[dst] = start + Cycles::new(work(dst, &msgs[idx], metas[idx], start));
        }
    }
}

/// Pooled buffers of the delivery protocol's retry loop, parallel to
/// one another within a resend wave.
#[derive(Default)]
struct RetryScratch {
    /// Undelivered messages: `(original injection index, attempts made
    /// so far)`.
    pending: Vec<(usize, u32)>,
    msgs: Vec<Injection>,
    keys: Vec<u64>,
    deliveries: Vec<Delivery>,
}

/// Transmit a data-plane batch through the delivery protocol: send it
/// via the fault-injecting path, then resend lost messages when
/// [`FaultConfig::resend_ready`] says (bounded exponential backoff
/// from the previous failed departure) until every message is
/// delivered or a message exhausts `max_attempts` — this caller's
/// give-up policy is a panic; the sweep executor degrades gracefully.
/// A resend is the original message with a later `ready`: it queues at
/// the same destination bank. Each message's final successful
/// [`Delivery`] is written back into `deliveries`, so receiver-side
/// processing observes the protocol's true visibility times. Without a
/// fault configuration this is exactly the reliable path.
///
/// Returns `(resends performed, transmissions lost)`. Takes the
/// timer's fields piecewise so the pooled buffers borrow alongside
/// the injected message list.
fn transmit_reliably(
    net: &mut Network,
    faults: Option<FaultConfig>,
    msgs: &[Injection],
    deliveries: &mut Vec<Delivery>,
    retry: &mut RetryScratch,
    rec: &Recorder,
    phase: u64,
) -> (u64, u64) {
    let Some(f) = faults else {
        net.transmit_into(msgs, deliveries);
        return (0, 0);
    };
    // Resends are keyed on (primary sequence, attempt) rather than
    // drawing fresh numbers from the stream: retry traffic volume
    // varies with drop_prob, and letting it advance the stream would
    // desynchronize later phases' drop decisions between two runs
    // that differ only in probability.
    let base = net.next_fault_seq();
    net.transmit_into_faulty(msgs, deliveries);
    let pending = &mut retry.pending;
    pending.clear();
    pending.extend(net.last_dropped().iter().enumerate().filter(|&(_, &d)| d).map(|(i, _)| (i, 1)));
    let mut retries = 0u64;
    let mut drops = pending.len() as u64;
    let mut wave = 0u32;
    while !pending.is_empty() {
        retry.msgs.clear();
        retry.keys.clear();
        for &(i, attempts) in pending.iter() {
            let Some(ready) = f.resend_ready(deliveries[i].depart, attempts) else {
                panic!(
                    "delivery protocol gave up: message {} -> {} ({} bytes, {:?}) still lost \
                     after {} attempts at drop_prob {} (seed {}); raise max_attempts or \
                     retry_timeout",
                    msgs[i].src,
                    msgs[i].dst,
                    msgs[i].bytes,
                    msgs[i].kind,
                    attempts,
                    f.drop_prob,
                    f.seed,
                );
            };
            retry.msgs.push(Injection { ready, ..msgs[i] });
            retry.keys.push(FaultConfig::retry_key(base + i as u64, attempts));
        }
        net.transmit_into_faulty_keyed(&retry.msgs, &mut retry.deliveries, &retry.keys);
        retries += retry.msgs.len() as u64;
        if rec.is_full() {
            let start = retry.msgs.iter().map(|m| m.ready).fold(retry.msgs[0].ready, Cycles::min);
            let end = retry
                .deliveries
                .iter()
                .zip(net.last_dropped())
                .map(|(d, &lost)| if lost { d.arrive } else { d.visible })
                .fold(Cycles::ZERO, Cycles::max);
            rec.spans(std::iter::once(Span {
                kind: SpanKind::RetryRound,
                phase,
                lane: wave,
                start,
                dur: end - start,
            }));
        }
        // Fold results back; still-lost messages stay pending with one
        // more attempt on the clock.
        let lost = net.last_dropped();
        let mut kept = 0;
        for j in 0..pending.len() {
            let (i, attempts) = pending[j];
            deliveries[i] = retry.deliveries[j];
            if lost[j] {
                drops += 1;
                pending[kept] = (i, attempts + 1);
                kept += 1;
            }
        }
        pending.truncate(kept);
        wave += 1;
    }
    (retries, drops)
}

impl PhaseTimer for SimTimer {
    /// Simulated pricing ignores host arrival instants: simulated
    /// time advances only from charged operations and the network.
    fn price(
        &mut self,
        charged: &[u64],
        matrix: &CommMatrix,
        _arrivals: &[std::time::Instant],
    ) -> PhasePrice {
        let mut out = PhasePrice::default();
        let mut local_finish = std::mem::take(&mut self.local_finish);
        local_finish.clear();
        local_finish.extend(
            charged.iter().zip(&self.phase_start).enumerate().map(|(i, (&ops, &start))| {
                start + Cycles::new(ops as f64) * self.cfg.cpu_factor(i)
            }),
        );
        let mut release = std::mem::take(&mut self.release);
        self.simulate_exchange(&local_finish, matrix, &mut out, &mut release);
        let release_max = release.iter().copied().fold(Cycles::ZERO, Cycles::max);
        let compute = charged
            .iter()
            .enumerate()
            .map(|(i, &ops)| Cycles::new(ops as f64) * self.cfg.cpu_factor(i))
            .fold(Cycles::ZERO, Cycles::max);
        let elapsed = release_max - self.prev_release_max;
        let comm = elapsed - compute;
        if self.net.link_count() > 0 {
            // Per-link busy deltas against the previous phase, as a
            // fraction of the phase's elapsed time; the hottest is the
            // phase's record, every one a full-level counter sample.
            self.link_utils.clear();
            for (l, prev) in self.prev_link_busy.iter_mut().enumerate() {
                let busy = self.net.link_busy_total(l);
                if elapsed > Cycles::ZERO {
                    self.link_utils.push((busy - *prev).get() / elapsed.get());
                }
                *prev = busy;
            }
            out.link_util = self.link_utils.iter().copied().fold(0.0, f64::max);
        }
        if self.rec.is_enabled() {
            self.record_phase(&local_finish, matrix, &release, &out);
        }
        self.phase_idx += 1;
        self.prev_release_max = release_max;
        self.local_finish = local_finish;
        self.release = std::mem::replace(&mut self.phase_start, release);
        out.timing = PhaseTiming { elapsed, compute, comm };
        out
    }

    fn link_count(&self) -> usize {
        self.net.link_count()
    }
}

/// Static metric names for per-kind network counters (the registry
/// keys on `&'static str`, so the kind label folds in at compile
/// time).
fn kind_counter_names(kind: MsgKind) -> (&'static str, &'static str) {
    match kind {
        MsgKind::PutData => ("net_msgs_put_data", "net_bytes_put_data"),
        MsgKind::GetRequest => ("net_msgs_get_request", "net_bytes_get_request"),
        MsgKind::GetReply => ("net_msgs_get_reply", "net_bytes_get_reply"),
        MsgKind::Plan => ("net_msgs_plan", "net_bytes_plan"),
        MsgKind::Barrier => ("net_msgs_barrier", "net_bytes_barrier"),
        MsgKind::Other => ("net_msgs_other", "net_bytes_other"),
    }
}

/// Cost of one completely empty `sync()` (plan all-to-all + barrier)
/// on a fresh machine: the Table 3 "synchronization barrier L"
/// microbenchmark, and the `L` used by BSP predictions.
pub(crate) fn empty_sync_cost(cfg: MachineConfig) -> Cycles {
    let mut timer = SimTimer::new(cfg, Recorder::disabled());
    let charged = vec![0u64; cfg.p];
    timer.price(&charged, &CommMatrix::new(&[], 0), &[]).timing.elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Outbox;
    use crate::spmd::Slot;

    /// The published slots of `p` processors whose rows hold exactly
    /// `cells`, each `(src, dst, bank, traffic)` (a pair's total has no
    /// bank), metered for `banks` banks: a phase to price without
    /// queuing an operation.
    fn metered(
        p: usize,
        banks: usize,
        cells: impl IntoIterator<Item = (usize, usize, Option<usize>, PairTraffic)>,
    ) -> Vec<Slot> {
        let mut rows: Vec<Outbox> = (0..p).map(|_| Outbox::new(p, banks)).collect();
        for (src, dst, bank, traffic) in cells {
            rows[src].meter_cell(dst, bank, traffic);
        }
        rows.into_iter().map(Slot::publishing).collect()
    }

    fn puts(words: u64, bytes: u64) -> PairTraffic {
        PairTraffic { put_words: words, put_payload_bytes: bytes, ..PairTraffic::default() }
    }

    fn gets(words: u64, bytes: u64) -> PairTraffic {
        PairTraffic { get_words: words, get_reply_payload_bytes: bytes, ..PairTraffic::default() }
    }

    fn timing(cfg: MachineConfig, charged: &[u64], rows: &[Slot]) -> PhaseTiming {
        let mut t = SimTimer::new(cfg, Recorder::disabled());
        t.price(charged, &CommMatrix::new(rows, 0), &[]).timing
    }

    #[test]
    fn empty_sync_near_paper_l() {
        // Table 3: 25 500 cycles (64 us) at p = 16.
        let l = empty_sync_cost(MachineConfig::paper_default(16)).get();
        assert!((22_000.0..29_000.0).contains(&l), "empty sync = {l}, want ~25500 (Table 3)");
    }

    #[test]
    fn single_processor_sync_is_cheap() {
        let l = empty_sync_cost(MachineConfig::paper_default(1)).get();
        assert!(l < 1_000.0, "p=1 sync = {l}");
    }

    #[test]
    fn compute_only_phase_has_tiny_comm() {
        let cfg = MachineConfig::paper_default(4);
        let t = timing(cfg, &[1_000_000, 900_000, 800_000, 700_000], &[]);
        assert_eq!(t.compute.get(), 1_000_000.0);
        // comm = empty-sync overhead only.
        assert!(t.comm.get() < 30_000.0);
        assert_eq!(t.elapsed, t.compute + t.comm);
    }

    #[test]
    fn put_traffic_increases_comm_linearly_in_words() {
        let cfg = MachineConfig::paper_default(4);
        let mk = |words: u64| {
            metered(4, 0, (0..4).map(|i| (i, (i + 1) % 4, None, puts(words, words * 4))))
        };
        let small = timing(cfg, &[0; 4], &mk(1_000)).comm.get();
        let large = timing(cfg, &[0; 4], &mk(10_000)).comm.get();
        let ratio = (large - small) / 9.0; // extra cost per 1000 words
                                           // Per word: wire 12 + copy 4+4 = at least 20 cycles/word.
        assert!(ratio > 1_000.0 * 15.0, "ratio {ratio}");
        assert!(large > small);
    }

    #[test]
    fn gets_cost_more_than_puts() {
        // Round trip + serve costs: the paper's 287 vs 35 cycles/byte.
        let cfg = MachineConfig::paper_default(4);
        let mk = |traffic| metered(4, 0, (0..4).map(|i| (i, (i + 1) % 4, None, traffic)));
        let tp = timing(cfg, &[0; 4], &mk(puts(1000, 4000))).comm.get();
        let tg = timing(cfg, &[0; 4], &mk(gets(1000, 4000))).comm.get();
        assert!(tg > 2.0 * tp, "get comm {tg} !>> put comm {tp}");
    }

    #[test]
    fn latency_adds_constant_not_linear_cost() {
        // QSM's central hypothesis: with pipelining, raising l shifts
        // communication time by a constant, independent of volume.
        let base = MachineConfig::paper_default(8);
        let slow = base.with_latency(16_000.0);
        let mk = |words: u64| {
            metered(8, 0, (0..8).map(|i| (i, (i + 3) % 8, None, puts(words, words * 4))))
        };
        let d_small =
            timing(slow, &[0; 8], &mk(100)).comm.get() - timing(base, &[0; 8], &mk(100)).comm.get();
        let d_large = timing(slow, &[0; 8], &mk(100_000)).comm.get()
            - timing(base, &[0; 8], &mk(100_000)).comm.get();
        // The latency penalty must not grow with message size.
        assert!(d_small > 0.0);
        let growth = d_large / d_small;
        assert!(growth < 1.5, "latency penalty grew {growth}x with volume");
    }

    #[test]
    fn clock_advances_monotonically_across_phases() {
        let cfg = MachineConfig::paper_default(4);
        let mut t = SimTimer::new(cfg, Recorder::disabled());
        let m = CommMatrix::new(&[], 0);
        let mut now = Cycles::ZERO;
        for k in 1..5u64 {
            let timing = t.price(&[k * 100; 4], &m, &[]).timing;
            assert!(timing.elapsed.get() > 0.0);
            now += timing.elapsed;
            let clock = t.prev_release_max.get();
            assert!((now.get() - clock).abs() <= 1e-9 * clock, "phases tile the clock");
        }
    }

    #[test]
    fn observed_timer_emits_spans_wire_and_metrics() {
        use qsm_obs::{ObsLevel, SpanKind};
        let cfg = MachineConfig::paper_default(4);
        let rec = Recorder::new(ObsLevel::Full, qsm_simnet::CLOCK_HZ);
        let mut t = SimTimer::new(cfg, rec.clone());
        let m = metered(4, 0, (0..4).map(|i| (i, (i + 1) % 4, None, puts(10, 40))));
        let timing = t.price(&[1_000; 4], &CommMatrix::new(&m, 0), &[]).timing;
        let data = rec.take().unwrap();
        // One compute / comm-busy / barrier-wait lane span per proc.
        for kind in [SpanKind::Compute, SpanKind::CommBusy, SpanKind::BarrierWait] {
            assert_eq!(data.spans.iter().filter(|s| s.kind == kind).count(), 4, "{kind:?}");
        }
        // Lane spans tile the phase: compute + busy + wait per proc
        // ends exactly at that proc's barrier release <= elapsed.
        for i in 0..4u32 {
            let total: Cycles = data
                .spans
                .iter()
                .filter(|s| s.lane == i && s.kind != SpanKind::ExchangeRound)
                .map(|s| s.dur)
                .sum();
            assert!(total <= timing.elapsed);
            assert!(total > Cycles::ZERO);
        }
        assert!(data.spans.iter().any(|s| s.kind == SpanKind::ExchangeRound));
        // Wire events include the data and the barrier legs.
        assert!(data.wire.iter().any(|w| w.ev.kind == MsgKind::PutData));
        assert!(data.wire.iter().any(|w| w.ev.kind == MsgKind::Barrier));
        // Metrics: per-kind counters and size/queue histograms.
        assert_eq!(data.metrics.counter("net_msgs_put_data"), 4);
        assert!(data.metrics.counter("net_bytes_barrier") > 0);
        let json = data.metrics.to_json();
        assert!(json.contains("\"msg_size_bytes\": {\"count\":4,"), "{json}");
        assert!(json.contains("\"dest_queue_depth\": {"), "{json}");
    }

    #[test]
    fn unobserved_timer_timing_is_identical_to_observed() {
        // The recorder must never perturb simulated time.
        let cfg = MachineConfig::paper_default(8);
        let mut plain = SimTimer::new(cfg, Recorder::disabled());
        let rec = Recorder::new(qsm_obs::ObsLevel::Full, qsm_simnet::CLOCK_HZ);
        let mut observed = SimTimer::new(cfg, rec);
        let rows = metered(8, 0, (0..8).map(|i| (i, (i + 3) % 8, None, gets(50, 200))));
        let m = CommMatrix::new(&rows, 0);
        for k in 1..4u64 {
            let a = plain.price(&[k * 500; 8], &m, &[]);
            let b = observed.price(&[k * 500; 8], &m, &[]);
            assert_eq!(a, b, "phase {k}");
        }
    }

    #[test]
    fn fault_free_config_is_byte_identical_with_protocol_installed() {
        // `faults: None` must take the exact pre-protocol code path.
        let cfg = MachineConfig::paper_default(8);
        let rows = metered(8, 0, (0..8).map(|i| (i, (i + 1) % 8, None, puts(100, 400))));
        let m = CommMatrix::new(&rows, 0);
        let mut a = SimTimer::new(cfg, Recorder::disabled());
        let mut b = SimTimer::new(cfg, Recorder::disabled());
        for k in 1..4u64 {
            let price = a.price(&[k * 100; 8], &m, &[]);
            assert_eq!(price, b.price(&[k * 100; 8], &m, &[]));
            assert_eq!((price.retries, price.dropped_msgs), (0, 0));
        }
    }

    #[test]
    fn retry_protocol_delivers_under_heavy_loss() {
        use qsm_simnet::FaultConfig;
        // Half of all data transmissions are lost; every message must
        // still be delivered, at a measurable cost in time and
        // resends.
        let base = MachineConfig::paper_default(4);
        let faulted = base.with_faults(FaultConfig::drops(0xFA17, 0.5));
        let rows = metered(
            4,
            0,
            (0..4).flat_map(|i| {
                [(i, (i + 1) % 4, None, puts(50, 200)), (i, (i + 2) % 4, None, gets(20, 80))]
            }),
        );
        let m = CommMatrix::new(&rows, 0);
        let mut clean = SimTimer::new(base, Recorder::disabled());
        let mut faulty = SimTimer::new(faulted, Recorder::disabled());
        let p_clean = clean.price(&[0; 4], &m, &[]);
        let p_faulty = faulty.price(&[0; 4], &m, &[]);
        let (retries, drops) = (p_faulty.retries, p_faulty.dropped_msgs);
        assert!(drops > 0, "no transmissions lost at drop_prob 0.5");
        assert_eq!(retries, drops, "every loss must be matched by exactly one resend");
        let (t_clean, t_faulty) = (p_clean.timing, p_faulty.timing);
        assert!(
            t_faulty.comm > t_clean.comm,
            "faulted comm {} should exceed clean {}",
            t_faulty.comm,
            t_clean.comm
        );
        assert_eq!((p_clean.retries, p_clean.dropped_msgs), (0, 0));
    }

    #[test]
    fn faulted_run_is_deterministic() {
        use qsm_simnet::FaultConfig;
        let cfg = MachineConfig::paper_default(4).with_faults(FaultConfig::drops(7, 0.3));
        let run = || {
            let mut t = SimTimer::new(cfg, Recorder::disabled());
            let rows = metered(4, 0, (0..4).map(|i| (i, (i + 1) % 4, None, puts(30, 120))));
            let m = CommMatrix::new(&rows, 0);
            let mut out = Vec::new();
            for k in 1..5u64 {
                out.push(t.price(&[k * 100; 4], &m, &[]));
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "delivery protocol gave up")]
    fn exhausted_attempts_panic_with_context() {
        use qsm_simnet::FaultConfig;
        // max_attempts 1 means a single loss exhausts the budget.
        let fc = FaultConfig { max_attempts: 1, ..FaultConfig::drops(3, 0.9) };
        let cfg = MachineConfig::paper_default(4).with_faults(fc);
        let mut t = SimTimer::new(cfg, Recorder::disabled());
        let rows = metered(4, 0, (0..4).map(|i| (i, (i + 1) % 4, None, puts(10, 40))));
        let m = CommMatrix::new(&rows, 0);
        for _ in 0..20 {
            t.price(&[0; 4], &m, &[]);
        }
    }

    #[test]
    fn retry_waves_emit_spans_and_counters() {
        use qsm_obs::{ObsLevel, SpanKind};
        use qsm_simnet::FaultConfig;
        let cfg = MachineConfig::paper_default(4).with_faults(FaultConfig::drops(21, 0.4));
        let rec = Recorder::new(ObsLevel::Full, qsm_simnet::CLOCK_HZ);
        let mut t = SimTimer::new(cfg, rec.clone());
        let m = metered(4, 0, (0..4).map(|i| (i, (i + 1) % 4, None, puts(40, 160))));
        let price = t.price(&[0; 4], &CommMatrix::new(&m, 0), &[]);
        let (retries, drops) = (price.retries, price.dropped_msgs);
        assert!(drops > 0);
        let data = rec.take().unwrap();
        assert!(data.spans.iter().any(|s| s.kind == SpanKind::RetryRound));
        assert_eq!(data.metrics.counter("retries"), retries);
        assert_eq!(data.metrics.counter("dropped_msgs"), drops);
    }

    /// `p = 4` rows of 4 banks with every processor putting `words`
    /// words to processor 0, all landing in bank `bank(i)` (the pair's
    /// total and its bank metered together, as queuing does).
    fn banked_puts_to_zero(bank: impl Fn(usize) -> usize, words: u64) -> Vec<Slot> {
        let c = puts(words, words * 4);
        metered(4, 4, (0..4).flat_map(|i| [(i, 0, None, c), (i, 0, Some(bank(i)), c)]))
    }

    #[test]
    fn bank_layer_without_bank_model_prices_identically() {
        // A matrix that metered per-bank traffic must price exactly
        // like one that didn't when the machine has no bank model:
        // the aggregate injection path is shared, banks untouched.
        let cfg = MachineConfig::paper_default(4);
        let banked = banked_puts_to_zero(|i| i, 500);
        let plain = metered(4, 0, (0..4).map(|i| (i, 0, None, puts(500, 2000))));
        let mut a = SimTimer::new(cfg, Recorder::disabled());
        let mut b = SimTimer::new(cfg, Recorder::disabled());
        let price = a.price(&[0; 4], &CommMatrix::new(&banked, 4), &[]);
        assert_eq!(price, b.price(&[0; 4], &CommMatrix::new(&plain, 0), &[]));
        assert_eq!(price.bank_wait, Cycles::ZERO);
    }

    #[test]
    fn conflicting_bank_traffic_queues_longer_than_spread() {
        use qsm_simnet::BankModel;
        // Service at 30 cycles/byte dwarfs the 3 cycles/byte wire
        // gap, so arrivals into one bank outpace its drain.
        let cfg = MachineConfig::paper_default(4).with_banks(BankModel {
            banks_per_node: 4,
            service_fixed: 0.0,
            service_per_byte: 30.0,
        });
        let conflict = banked_puts_to_zero(|_| 0, 500);
        let spread = banked_puts_to_zero(|i| i, 500);
        let mut tc = SimTimer::new(cfg, Recorder::disabled());
        let mut ts = SimTimer::new(cfg, Recorder::disabled());
        let conflicted = tc.price(&[0; 4], &CommMatrix::new(&conflict, 4), &[]);
        let spread_out = ts.price(&[0; 4], &CommMatrix::new(&spread, 4), &[]);
        let (conflict_comm, spread_comm) = (conflicted.timing.comm, spread_out.timing.comm);
        assert!(
            conflict_comm > spread_comm,
            "single-bank comm {conflict_comm} !> spread comm {spread_comm}"
        );
        assert!(conflicted.bank_wait > Cycles::ZERO);
        // Distinct banks drain in parallel: nothing queues.
        assert_eq!(spread_out.bank_wait, Cycles::ZERO);
    }

    #[test]
    fn banked_gets_price_and_reply_untagged() {
        use qsm_simnet::BankModel;
        let cfg = MachineConfig::paper_default(4).with_banks(BankModel::per_message(2, 50_000.0));
        let c = gets(50, 200);
        let m = metered(4, 2, (1..4).flat_map(|i| [(i, 0, None, c), (i, 0, Some(0), c)]));
        let mut t = SimTimer::new(cfg, Recorder::disabled());
        let price = t.price(&[0; 4], &CommMatrix::new(&m, 2), &[]);
        assert!(price.timing.comm > Cycles::ZERO);
        // Three get requests collide on bank 0 of node 0: the second
        // and third each queue behind ~50k cycles of service. The
        // replies come back unbanked, so all queuing is request-side.
        assert!(price.bank_wait > Cycles::new(50_000.0), "bank wait {}", price.bank_wait);
    }

    #[test]
    fn bank_wait_resets_each_phase() {
        use qsm_simnet::BankModel;
        let cfg = MachineConfig::paper_default(4).with_banks(BankModel::per_message(4, 50_000.0));
        let conflict = banked_puts_to_zero(|_| 0, 100);
        let mut t = SimTimer::new(cfg, Recorder::disabled());
        assert!(t.price(&[0; 4], &CommMatrix::new(&conflict, 4), &[]).bank_wait > Cycles::ZERO);
        assert_eq!(t.price(&[100; 4], &CommMatrix::new(&[], 0), &[]).bank_wait, Cycles::ZERO);
    }

    #[test]
    fn resent_puts_still_queue_at_their_bank() {
        use qsm_simnet::{BankModel, FaultConfig};
        // Banks and faults together: a put that is lost and resent
        // must be served by its destination bank like any other, so
        // the banks of node 0 end up having served every put exactly
        // once — lost transmissions never reach a bank.
        let service = 5_000.0;
        let cfg = MachineConfig::paper_default(4)
            .with_banks(BankModel::per_message(4, service))
            .with_faults(FaultConfig::drops(0xBA2C, 0.5));
        let puts = banked_puts_to_zero(|i| i, 100);
        let mut t = SimTimer::new(cfg, Recorder::disabled());
        let phases = 8;
        let mut retries = 0;
        for _ in 0..phases {
            retries += t.price(&[0; 4], &CommMatrix::new(&puts, 4), &[]).retries;
        }
        assert!(retries > 0, "no put was resent at drop_prob 0.5");
        assert_eq!(t.net.bank_busy_total(0), Cycles::new(service * 4.0 * phases as f64));
    }

    #[test]
    fn link_wait_and_util_reset_each_phase() {
        use qsm_simnet::TopologyKind;
        // A line with a slow link gap funnels everyone's puts to node
        // 0 through the same few links, so phase 1 queues; the empty
        // phase after it must report a clean slate.
        let cfg =
            MachineConfig::paper_default(4).with_topology(TopologyKind::Line).with_link_gap(100.0);
        let m = metered(4, 0, (1..4).map(|i| (i, 0, None, puts(500, 2000))));
        let mut t = SimTimer::new(cfg, Recorder::disabled());
        let loaded = t.price(&[0; 4], &CommMatrix::new(&m, 0), &[]);
        assert!(loaded.link_wait > Cycles::ZERO, "converging line traffic must queue at links");
        assert!(loaded.link_util > 0.0);
        // The next phase carries only the sync's own plan exchange:
        // its links stay warm (the plan messages route hop-by-hop
        // too) but the previous phase's queuing must not leak in.
        let next = t.price(&[100; 4], &CommMatrix::new(&[], 0), &[]);
        assert_eq!(next.link_wait, Cycles::ZERO);
        assert!(next.link_util < loaded.link_util, "util {} is phase-local", next.link_util);
    }

    #[test]
    fn self_traffic_pays_library_but_not_latency() {
        let cfg = MachineConfig::paper_default(2);
        let own = metered(2, 0, [(0, 0, None, puts(100, 400))]);
        let remote = metered(2, 0, [(0, 1, None, puts(100, 400))]);
        let t_own = timing(cfg, &[0; 2], &own).comm.get();
        let t_remote = timing(cfg, &[0; 2], &remote).comm.get();
        assert!(t_own < t_remote, "self traffic {t_own} should undercut remote {t_remote}");
        let empty = empty_sync_cost(cfg).get();
        assert!(t_own > empty, "self traffic {t_own} must still cost above empty sync {empty}");
    }
}
