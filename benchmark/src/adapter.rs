//! Every call into a repository crate goes through this file.
//!
//! The timed end-to-end paths use only the entry points every ROADMAP
//! item keeps — `Machine::run`, the algorithms' `run_on`,
//! `qsm_serve::run` and `figures::*::run` — and never the `run_sim` /
//! `run_threads` wrappers ROADMAP item 2 deletes. The probe side also
//! calls `Network::transmit_into` and `transmit_into_faulty`; when
//! item 2 collapses the transmit entry points, this is the one file a
//! follow-up benchmark change edits.

use std::path::Path;
use std::time::Instant;

use qsm_algorithms::{gen, listrank, prefix, samplesort, seq};
use qsm_bench::figures;
use qsm_bench::RunCfg;
use qsm_core::{Layout, Machine, RunResult, SimMachine, ThreadMachine};
use qsm_obs::{Histogram, ObsLevel, Recorder, RunJournal};
use qsm_serve::ServiceConfig;
use qsm_simnet::event::EventQueue;
use qsm_simnet::{
    BankModel, Cycles, Delivery, FaultConfig, FifoTimeline, Injection, MachineConfig, MsgKind,
    NetConfig, Network, TopologyKind,
};

pub use qsm_bench::Report;
pub use qsm_obs::json_escape;
pub use qsm_serve::ServiceOutcome;

// ---------------------------------------------------------------- bench

type FigureFn = fn(&RunCfg) -> Report;

/// The figure registry in the order `crates/bench/src/bin/all.rs`
/// runs it. A unit test holds the ids against the `pub mod` list of
/// `crates/bench/src/figures/mod.rs`.
pub const FIGURES: [(&str, FigureFn); 17] = [
    ("table3", figures::table3::run),
    ("fig1", figures::fig1::run),
    ("fig2", figures::fig2::run),
    ("fig3", figures::fig3::run),
    ("fig4", figures::fig4::run),
    ("fig5", figures::fig5::run),
    ("fig6", figures::fig6::run),
    ("fig7", figures::fig7::run),
    ("table4", figures::table4::run),
    ("ablations", figures::ablations::run),
    ("ext_fabric", figures::ext_fabric::run),
    ("ext_straggler", figures::ext_straggler::run),
    ("ext_hotspot", figures::ext_hotspot::run),
    ("ext_faults", figures::ext_faults::run),
    ("ext_banks", figures::ext_banks::run),
    ("ext_topology", figures::ext_topology::run),
    ("ext_service", figures::ext_service::run),
];

/// Run one figure the way `QSM_FAST=1 all` does: p = 16, one
/// repetition, fast sweeps, sim backend. The registry fixes its own
/// seeds, so this takes none.
pub fn run_figure(f: FigureFn) -> Report {
    f(&RunCfg { p: 16, reps: 1, fast: true })
}

/// Sweep points the figures dropped so far in this process.
pub fn failed_sweep_points() -> usize {
    qsm_bench::sweep::failed_points()
}

// ----------------------------------------------------------------- core

pub fn sim_machine(p: usize, seed: u64) -> SimMachine {
    SimMachine::new(MachineConfig::paper_default(p)).with_seed(seed)
}

pub fn thread_machine(p: usize, seed: u64) -> ThreadMachine {
    ThreadMachine::new(p).with_seed(seed)
}

/// Elements each processor puts to each peer, and gets, per phase.
pub const EXCHANGE_BLOCK: usize = 64;

/// What one run of the exchange program produced.
pub struct ExchangeRun {
    /// Every processor saw the right data in its last `take` and in
    /// the blocks its peers put to it.
    pub data_ok: bool,
    pub num_phases: usize,
    /// Measured total and communication time, in the backend's unit.
    pub total: f64,
    pub comm: f64,
    pub data_msgs: u64,
    pub payload_bytes: u64,
    /// Host ns processor 0 spent in all its `put` calls and in all its
    /// `get` calls; zero unless `time_ctx` was set.
    pub put_ns: u64,
    pub get_ns: u64,
}

/// The `driver_phases` program of `perf_baseline`, made checkable:
/// every phase each processor puts a 64×u32 block to every peer and
/// gets one block from a rotating peer, with no compute, so nearly
/// all host time is plan / exchange / price / record and the barrier.
/// The run has `phases + 1` phases (one registers the arrays).
pub fn exchange<M: Machine>(machine: &M, phases: usize, time_ctx: bool) -> ExchangeRun {
    const B: usize = EXCHANGE_BLOCK;
    let run: RunResult<(bool, u64, u64)> = machine.run(|ctx| {
        let p = ctx.nprocs();
        let me = ctx.proc_id();
        let src = ctx.register::<u32>("src", B * p, Layout::Block);
        let dst = ctx.register::<u32>("dst", B * p * p, Layout::Block);
        ctx.sync();
        let mine = vec![me as u32; B];
        ctx.local_write(&src, me * B, &mine);
        let timed = time_ctx && me == 0;
        let (mut put_ns, mut get_ns) = (0u64, 0u64);
        let mut last = (me, Vec::new());
        for phase in 0..phases {
            // Never self: the get is always a remote read.
            let from = (me + 1 + phase % (p - 1)) % p;
            let t0 = timed.then(Instant::now);
            for peer in (0..p).filter(|&peer| peer != me) {
                ctx.put(&dst, (peer * p + me) * B, &mine);
            }
            let t1 = timed.then(Instant::now);
            let ticket = ctx.get(&src, from * B, B);
            if let (Some(t0), Some(t1)) = (t0, t1) {
                put_ns += (t1 - t0).as_nanos() as u64;
                get_ns += t1.elapsed().as_nanos() as u64;
            }
            ctx.sync();
            last = (from, ctx.take(ticket));
        }
        let got = ctx.local_vec(&dst);
        let puts_ok = (0..p)
            .filter(|&s| s != me)
            .all(|s| got[s * B..(s + 1) * B].iter().all(|&v| v == s as u32));
        let get_ok = last.1.len() == B && last.1.iter().all(|&v| v == last.0 as u32);
        (puts_ok && get_ok, put_ns, get_ns)
    });
    ExchangeRun {
        data_ok: run.outputs.iter().all(|o| o.0),
        num_phases: run.num_phases(),
        total: run.total().get(),
        comm: run.comm().get(),
        data_msgs: run.phases.iter().map(|r| r.data_msgs).sum(),
        payload_bytes: run.phases.iter().map(|r| r.payload_bytes).sum(),
        put_ns: run.outputs[0].1,
        get_ns: run.outputs[0].2,
    }
}

/// The smallest program there is: one `sync`. Its host time is the
/// fixed cost of `Machine::run`.
pub fn empty_run<M: Machine>(machine: &M) -> usize {
    machine.run(|ctx| ctx.sync()).num_phases()
}

// ----------------------------------------------------------- algorithms

pub struct KernelInputs {
    pub prefix: Vec<u64>,
    pub sort: Vec<u32>,
    pub succ: Vec<u64>,
    pub pred: Vec<u64>,
    pub head: usize,
}

pub fn kernel_inputs(n_prefix: usize, n_sort: usize, n_list: usize, seed: u64) -> KernelInputs {
    let (succ, pred, head) = gen::random_list(n_list, seed);
    KernelInputs {
        prefix: gen::random_u64s(n_prefix, seed),
        sort: gen::random_u32s(n_sort, seed),
        succ,
        pred,
        head,
    }
}

pub fn seq_prefix(input: &[u64]) -> Vec<u64> {
    seq::prefix_sums(input)
}

pub fn seq_sort(input: &[u32]) -> Vec<u32> {
    seq::sorted(input)
}

pub fn seq_list_ranks(succ: &[u64], head: usize) -> Vec<u64> {
    seq::list_ranks(succ, head)
}

/// One algorithm run reduced to what the benchmark checks and counts.
pub struct KernelRun<T> {
    pub output: Vec<T>,
    pub phases: usize,
    pub payload_bytes: u64,
    /// Measured communication time, in the backend's unit.
    pub comm: f64,
}

fn kernel_run<T, R>(output: Vec<T>, comm: f64, run: &RunResult<R>) -> KernelRun<T> {
    KernelRun {
        output,
        phases: run.num_phases(),
        payload_bytes: run.phases.iter().map(|r| r.payload_bytes).sum(),
        comm,
    }
}

pub fn prefix_on<M: Machine>(machine: &M, input: &[u64]) -> KernelRun<u64> {
    let r = prefix::run_on(machine, input);
    let comm = r.comm();
    kernel_run(r.output, comm, &r.run)
}

pub fn samplesort_on<M: Machine>(machine: &M, input: &[u32]) -> KernelRun<u32> {
    let r = samplesort::run_on(machine, input);
    let comm = r.comm();
    kernel_run(r.output, comm, &r.run)
}

pub fn listrank_on<M: Machine>(machine: &M, succ: &[u64], pred: &[u64]) -> KernelRun<u64> {
    let r = listrank::run_on(machine, succ, pred);
    let comm = r.comm();
    kernel_run(r.ranks, comm, &r.run)
}

// ---------------------------------------------------------------- serve

/// The serving bank model of `ext_service`: 4 banks per node at 12
/// cycles per byte.
const SERVE_BANKS: BankModel =
    BankModel { banks_per_node: 4, service_fixed: 0.0, service_per_byte: 12.0 };

/// The read-mostly scenario: default 7/8-get mix on the flat wire, no
/// faults. The offered load is set per load point by [`at_load`].
pub fn serve_reads_config(p: usize, window_log2: u32, seed: u64) -> ServiceConfig {
    ServiceConfig::new(MachineConfig::paper_default(p).with_banks(SERVE_BANKS))
        .with_window((1u64 << window_log2) as f64)
        .with_seed(seed)
}

/// The write-mostly scenario at p = 64: 1/8 gets, so most requests
/// are puts priced at the bank stage during ingest; a torus, so every
/// single message runs the fabric stage; 5 % drops, so the keyed
/// retry path runs.
pub fn serve_writes_config(window_log2: u32, seed: u64) -> ServiceConfig {
    let p = 64;
    let machine = MachineConfig::paper_default(p)
        .with_banks(SERVE_BANKS)
        .with_topology(TopologyKind::torus(p))
        .with_faults(FaultConfig::drops(seed, 0.05));
    let mut cfg =
        ServiceConfig::new(machine).with_window((1u64 << window_log2) as f64).with_seed(seed);
    cfg.get_fraction = 0.125;
    cfg
}

/// `base` offered `load` times the utilization model's predicted
/// capacity, with admission control at `admission` cycles of backlog
/// if given.
pub fn at_load(base: &ServiceConfig, load: f64, admission: Option<f64>) -> ServiceConfig {
    let capacity = qsm_serve::predict(base).capacity;
    let cfg = base.clone().with_offered((load * capacity * base.window).round() as usize);
    match admission {
        Some(backlog) => cfg.with_admission(backlog),
        None => cfg,
    }
}

pub fn serve(cfg: &ServiceConfig) -> ServiceOutcome {
    qsm_serve::run(cfg, &Recorder::disabled())
}

/// The same run feeding a metrics-level recorder, to price what the
/// recorder costs the engine.
pub fn serve_with_metrics(cfg: &ServiceConfig) -> ServiceOutcome {
    qsm_serve::run(cfg, &metrics_recorder())
}

/// Derive every transaction of `cfg` once; returns a checksum so the
/// work cannot be optimised away.
pub fn derive_arrivals(cfg: &ServiceConfig) -> u64 {
    (0..cfg.offered as u64)
        .map(|i| {
            let t = qsm_serve::arrival::txn(cfg, i);
            t.arrival.get().to_bits() ^ t.node as u64
        })
        .fold(0, u64::wrapping_add)
}

// --------------------------------------------------------------- simnet

/// The pipeline configurations the `simnet.*` probes cover.
pub const NET_PROBES: [&str; 5] =
    ["flat_p16", "flat_p256", "torus_p256", "banks_p256", "faulty_p256"];

/// One network plus one all-to-all batch of p(p−1) 256-byte messages
/// and a reused delivery buffer.
pub struct NetProbe {
    net: Network,
    msgs: Vec<Injection>,
    buf: Vec<Delivery>,
    faulty: bool,
}

impl NetProbe {
    /// Build the probe named by an entry of [`NET_PROBES`].
    pub fn new(name: &str, seed: u64) -> Self {
        let mut cfg = NetConfig::paper_default();
        let p = if name.ends_with("_p16") { 16 } else { 256 };
        match name.split('_').next() {
            Some("flat") => {}
            Some("torus") => cfg.topology = TopologyKind::torus(p),
            Some("banks") => cfg.banks = Some(SERVE_BANKS),
            Some("faulty") => cfg.faults = Some(FaultConfig::drops(seed, 0.05)),
            _ => panic!("unknown network probe {name}"),
        }
        // Round r sends src -> src + r, so consecutive messages leave
        // different nodes, as a serving engine's traffic does, and the
        // ready times already ascend in input order.
        let msgs = (1..p)
            .flat_map(|r| (0..p).map(move |src| (r, src)))
            .enumerate()
            .map(|(k, (r, src))| {
                Injection::new(src, (src + r) % p, 256, Cycles::new(k as f64), MsgKind::PutData)
                    .with_bank((src % SERVE_BANKS.banks_per_node) as u32)
            })
            .collect();
        Self {
            net: Network::new(p, cfg),
            msgs,
            buf: Vec::new(),
            faulty: name.starts_with("faulty"),
        }
    }

    pub fn messages(&self) -> usize {
        self.msgs.len()
    }

    /// Transmit the whole batch in one call, as the BSP driver does.
    pub fn batch(&mut self) {
        if self.faulty {
            self.net.transmit_into_faulty(&self.msgs, &mut self.buf);
        } else {
            self.net.transmit_into(&self.msgs, &mut self.buf);
        }
        std::hint::black_box(&self.buf);
    }

    /// Transmit the same messages one per call, as `qsm-serve` does.
    pub fn singles(&mut self) {
        for m in &self.msgs {
            let one = std::slice::from_ref(m);
            if self.faulty {
                self.net.transmit_into_faulty(one, &mut self.buf);
            } else {
                self.net.transmit_into(one, &mut self.buf);
            }
            std::hint::black_box(&self.buf);
        }
    }
}

/// `calls` calls of `FifoTimeline::serve` spread over 64 servers.
pub fn fifo_serve(calls: u64) -> f64 {
    let mut timeline = FifoTimeline::new(64);
    let busy = Cycles::new(100.0);
    let mut last = Cycles::ZERO;
    for i in 0..calls {
        last = timeline.serve((i % 64) as usize, Cycles::new(i as f64), busy).done;
    }
    std::hint::black_box(last).get()
}

/// An event queue holding `pending` events, for push+pop probing.
pub struct EventQueueProbe {
    queue: EventQueue<u64>,
    next: u64,
}

impl EventQueueProbe {
    pub fn new(pending: u64) -> Self {
        let mut probe = Self { queue: EventQueue::new(), next: 0 };
        for _ in 0..pending {
            probe.push();
        }
        probe
    }

    fn push(&mut self) {
        // Weyl sequence: times scatter over the queue without an RNG.
        self.next = self.next.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.queue.push(Cycles::new((self.next >> 24) as f64), self.next);
    }

    /// `pairs` times: push one event, pop the earliest, so the number
    /// pending stays where it was.
    pub fn churn(&mut self, pairs: u64) {
        for _ in 0..pairs {
            self.push();
            std::hint::black_box(self.queue.pop());
        }
    }
}

// ------------------------------------------------------------------ obs

pub fn histogram_observe(calls: u64) -> u64 {
    let mut h = Histogram::default();
    for i in 0..calls {
        h.observe(std::hint::black_box(i.wrapping_mul(0x9E37_79B9) >> 8));
    }
    std::hint::black_box(h.count)
}

fn metrics_recorder() -> Recorder {
    // 400 MHz: the paper's clock, as every harness recorder uses.
    Recorder::new(ObsLevel::Metrics, 400e6)
}

/// `calls` calls of `Recorder::observe` on a disabled recorder, or on
/// a metrics-level one.
pub fn recorder_observe(calls: u64, metrics: bool) {
    let rec = if metrics { metrics_recorder() } else { Recorder::disabled() };
    for i in 0..calls {
        rec.observe("benchmark_probe", std::hint::black_box(i));
    }
    std::hint::black_box(rec.is_enabled());
}

/// Open a journal at `path` and append `records` lines.
pub fn journal_append(path: &Path, sync: bool, records: u64) -> std::io::Result<()> {
    let journal = RunJournal::open_with(path, sync)?;
    for i in 0..records {
        journal.append(&format!("{{\"kind\": \"benchmark_probe\", \"v\": 1, \"i\": {i}}}"))?;
    }
    Ok(())
}

// -------------------------------------------------------------- membank

/// Simulate all three access patterns on the Cray T3E panel of
/// Figure 7; returns how many accesses that simulated.
pub fn membank_simulate(accesses: usize, seed: u64) -> u64 {
    let machine = qsm_membank::platform::cray_t3e();
    let results = qsm_membank::sim::simulate_all(&machine, accesses, seed);
    std::hint::black_box(&results);
    (results.len() * accesses * machine.procs) as u64
}
