//! The five workloads. Each is closed-loop fixed work: `setup` builds
//! the inputs from the seed, `pass` runs them once through the
//! program, one timed operation ([`Runtime::op`]) per call, and checks
//! what came back. A pass has two parts, timed separately (only the
//! calls into the program are timed, never the checks), so a change
//! that helps one half and costs the other shows:
//!
//! | workload       | part 1                         | part 2                         |
//! |----------------|--------------------------------|--------------------------------|
//! | `figure_suite` | the paper's 9 tables/figures   | the 8 extension figures        |
//! | `bsp_exchange` | sim p=16                       | threads p=4                    |
//! | `bsp_kernels`  | sim p=16                       | threads p=4                    |
//! | `serve_reads`  | p=16                           | p=256                          |
//! | `serve_writes` | open loop at 50 % and 90 %     | 150 % under admission control  |

use crate::adapter::{self, KernelInputs, KernelRun, ServiceOutcome};
use crate::alloc;
use crate::run::Runtime;
use crate::stats::Fnv;
use qsm_core::{Machine, SimMachine, ThreadMachine};
use qsm_serve::ServiceConfig;

/// A figure named in the issue's metric table, derived from one part
/// (or the whole pass) of a workload: the time itself, or, given the
/// `work` a pass does, work per second.
pub struct Derived {
    pub name: &'static str,
    pub unit: &'static str,
    /// 0 = whole pass, 1 or 2 = that part.
    pub part: usize,
    pub work: Option<f64>,
}

pub trait Workload {
    /// Run the workload once, every call into the program through
    /// [`Runtime::op`], which times it and files it under its part.
    fn pass(&mut self, rt: &mut Runtime);

    /// FNV-1a-64 over the deterministic simulated outputs of the first
    /// pass; every later pass is checked equal to the first.
    fn sim_digest(&self) -> u64;

    fn derived(&self) -> &[Derived];
}

/// Build workload `name` from `seed`. In smoke mode nothing shrinks:
/// a smoke run is one timed pass of the real sizes.
pub fn setup(name: &str, seed: u64, rt: &mut Runtime) -> Box<dyn Workload> {
    match name {
        "figure_suite" => Box::new(FigureSuite::default()),
        "bsp_exchange" => Box::new(BspExchange::new(seed)),
        "bsp_kernels" => Box::new(BspKernels::new(seed, rt)),
        "serve_reads" => Box::new(Serve::reads(seed)),
        "serve_writes" => Box::new(Serve::writes(seed)),
        _ => panic!("unknown workload {name}"),
    }
}

/// Remember `value` the first time, and report whether every later
/// call saw the same one: the cross-pass determinism check.
fn same_as_first<T: PartialEq>(reference: &mut Option<T>, value: T) -> bool {
    match reference {
        Some(first) => *first == value,
        None => {
            *reference = Some(value);
            true
        }
    }
}

// --------------------------------------------------------- figure_suite

/// How many entries of [`adapter::FIGURES`] are the paper's own
/// artifacts (Table 3 to Table 4); the rest are this repo's
/// extensions.
const PAPER_FIGURES: usize = 9;

/// `figure_suite` takes no seed: the figure registry fixes its own.
#[derive(Default)]
struct FigureSuite {
    /// Per-figure CSV digests of the first pass.
    first_csvs: Option<Vec<u64>>,
    digest: u64,
}

impl Workload for FigureSuite {
    fn pass(&mut self, rt: &mut Runtime) {
        let mut csv_digests = Vec::new();
        let mut csv_bytes = 0;
        let mut all = Fnv::default();
        for (i, (id, figure)) in adapter::FIGURES.iter().enumerate() {
            let part = usize::from(i >= PAPER_FIGURES);
            let (report, _) =
                rt.op(part, &format!("bench.fig_s.{id}"), || adapter::run_figure(*figure));
            let mut one = Fnv::default();
            // fig7's native microbenchmark columns are host wall clock,
            // so neither its bytes nor their number repeat.
            if *id != "fig7" {
                csv_bytes += report.csv.len();
                one.bytes(report.csv.as_bytes());
                all.bytes(report.csv.as_bytes());
            }
            csv_digests.push(one.get());
            let same = self.first_csvs.as_ref().is_none_or(|first| first[i] == one.get());
            rt.check(!report.csv.is_empty() && same && adapter::failed_sweep_points() == 0, || {
                format!("figure {id}: empty CSV, a dropped sweep point, or a CSV that changed")
            });
        }
        if self.first_csvs.is_none() {
            self.first_csvs = Some(csv_digests);
            self.digest = all.get();
        }
        rt.sample("bench.csv_bytes", csv_bytes as f64);
    }

    fn sim_digest(&self) -> u64 {
        self.digest
    }

    fn derived(&self) -> &[Derived] {
        &[Derived { name: "suite_pass_s", unit: "s", part: 0, work: None }]
    }
}

// --------------------------------------------------------- bsp_exchange

/// Each backend's phases come in this many runs per pass. A run is
/// still some thousand times its fixed cost, and the calibration
/// slices between runs follow the host four times as closely.
const EXCHANGE_RUNS: usize = 4;
const EXCHANGE_SIM_PHASES: usize = 512;
const EXCHANGE_THREADS_PHASES: usize = 8192;

struct BspExchange {
    sim: SimMachine,
    threads: ThreadMachine,
    first_sim_total: Option<f64>,
}

impl BspExchange {
    fn new(seed: u64) -> Self {
        Self {
            sim: adapter::sim_machine(16, seed),
            threads: adapter::thread_machine(4, seed),
            first_sim_total: None,
        }
    }

    /// One exchange run on `machine`, part `part` of the pass, timed
    /// and sampled. Returns its measured total time and whether the
    /// data and the phase count came back right.
    fn leg<M: Machine>(
        rt: &mut Runtime,
        part: usize,
        machine: &M,
        phases: usize,
        backend: &str,
    ) -> (f64, bool) {
        // `put`/`get` only queue, identically on both backends, so
        // timing them on one is enough.
        let time_ctx = rt.tracer.enabled() && backend == "sim";
        let ((run, allocs), secs) = rt.op(part, &format!("core.exchange_{backend}"), || {
            alloc::count(|| adapter::exchange(machine, phases, time_ctx))
        });
        let per_phase = |total: f64| total / phases as f64;
        rt.sample(&format!("core.{backend}_us_per_phase"), per_phase(secs * 1e6));
        rt.sample(&format!("core.allocs_per_phase_{backend}"), per_phase(allocs as f64));
        if backend == "sim" {
            rt.sample("core.msgs_per_phase", per_phase(run.data_msgs as f64));
            rt.sample("core.payload_bytes_per_phase", per_phase(run.payload_bytes as f64));
            let puts_per_phase = (machine.nprocs() - 1) as f64;
            rt.sample("core.ctx_put_ns", per_phase(run.put_ns as f64) / puts_per_phase);
            rt.sample("core.ctx_get_ns", per_phase(run.get_ns as f64));
        } else {
            rt.sample("core.threads_comm_share", run.comm / run.total);
        }
        (run.total, run.data_ok && run.num_phases == phases + 1)
    }
}

impl Workload for BspExchange {
    fn pass(&mut self, rt: &mut Runtime) {
        for _ in 0..EXCHANGE_RUNS {
            let (sim_total, ok) = Self::leg(rt, 0, &self.sim, EXCHANGE_SIM_PHASES, "sim");
            let same = same_as_first(&mut self.first_sim_total, sim_total);
            rt.check(ok && same, || {
                "exchange on sim: wrong data or phase count, or total cycles changed".into()
            });
        }
        for _ in 0..EXCHANGE_RUNS {
            let (_, ok) = Self::leg(rt, 1, &self.threads, EXCHANGE_THREADS_PHASES, "threads");
            rt.check(ok, || "exchange on threads: wrong data or phase count".into());
        }
    }

    fn sim_digest(&self) -> u64 {
        let mut d = Fnv::default();
        d.f64(self.first_sim_total.unwrap_or(0.0));
        d.get()
    }

    fn derived(&self) -> &[Derived] {
        &[
            Derived {
                name: "sim_phases_per_s",
                unit: "phases/s",
                part: 1,
                work: Some((EXCHANGE_RUNS * EXCHANGE_SIM_PHASES) as f64),
            },
            Derived {
                name: "threads_phases_per_s",
                unit: "phases/s",
                part: 2,
                work: Some((EXCHANGE_RUNS * EXCHANGE_THREADS_PHASES) as f64),
            },
        ]
    }
}

// ---------------------------------------------------------- bsp_kernels

struct BspKernels {
    sim: SimMachine,
    threads: ThreadMachine,
    inputs: KernelInputs,
    want_prefix: Vec<u64>,
    want_sorted: Vec<u32>,
    want_ranks: Vec<u64>,
    /// Simulated communication cycles of each sim run, first pass.
    first_sim_comm: [Option<f64>; 3],
}

impl BspKernels {
    fn new(seed: u64, rt: &mut Runtime) -> Self {
        let inputs = adapter::kernel_inputs(1 << 23, 1 << 22, 1 << 16, seed);
        // The sequential oracles double as the single-thread baseline
        // the per-layer table reports.
        let (want_prefix, _) =
            rt.span("algorithms.seq_prefix_s", |_| adapter::seq_prefix(&inputs.prefix));
        let (want_sorted, _) =
            rt.span("algorithms.seq_sort_s", |_| adapter::seq_sort(&inputs.sort));
        let (want_ranks, _) = rt.span("algorithms.seq_listrank_s", |_| {
            adapter::seq_list_ranks(&inputs.succ, inputs.head)
        });
        Self {
            sim: adapter::sim_machine(16, seed),
            threads: adapter::thread_machine(4, seed),
            inputs,
            want_prefix,
            want_sorted,
            want_ranks,
            first_sim_comm: [None; 3],
        }
    }
}

/// One algorithm run, timed, checked against the oracle, and sampled.
/// `first_comm` is given for sim runs, whose communication cycles must
/// repeat from pass to pass.
fn kernel<T: PartialEq>(
    rt: &mut Runtime,
    name: &str,
    backend: &str,
    want: &[T],
    first_comm: Option<&mut Option<f64>>,
    run: impl FnOnce() -> KernelRun<T>,
) {
    let part = usize::from(backend == "threads");
    let (got, _) = rt.op(part, &format!("algorithms.{name}_{backend}_s"), run);
    let mut same = true;
    if let Some(first) = first_comm {
        same = same_as_first(first, got.comm);
        rt.sample(&format!("algorithms.{name}_phases"), got.phases as f64);
        rt.sample(&format!("algorithms.{name}_payload_bytes"), got.payload_bytes as f64);
    }
    rt.check(got.output == want && same, || {
        format!("{name} on {backend}: output differs from seq, or sim comm cycles changed")
    });
}

impl Workload for BspKernels {
    fn pass(&mut self, rt: &mut Runtime) {
        // Both backends are held to the same oracle, which also makes
        // the sim outputs equal to the threads outputs.
        let i = &self.inputs;
        let [c0, c1, c2] = &mut self.first_sim_comm;
        let (sim, thr) = (&self.sim, &self.threads);
        kernel(rt, "prefix", "sim", &self.want_prefix, Some(c0), || {
            adapter::prefix_on(sim, &i.prefix)
        });
        kernel(rt, "samplesort", "sim", &self.want_sorted, Some(c1), || {
            adapter::samplesort_on(sim, &i.sort)
        });
        kernel(rt, "listrank", "sim", &self.want_ranks, Some(c2), || {
            adapter::listrank_on(sim, &i.succ, &i.pred)
        });
        kernel(rt, "prefix", "threads", &self.want_prefix, None, || {
            adapter::prefix_on(thr, &i.prefix)
        });
        kernel(rt, "samplesort", "threads", &self.want_sorted, None, || {
            adapter::samplesort_on(thr, &i.sort)
        });
        kernel(rt, "listrank", "threads", &self.want_ranks, None, || {
            adapter::listrank_on(thr, &i.succ, &i.pred)
        });
    }

    fn sim_digest(&self) -> u64 {
        let mut d = Fnv::default();
        self.first_sim_comm.iter().for_each(|c| d.f64(c.unwrap_or(0.0)));
        d.get()
    }

    fn derived(&self) -> &[Derived] {
        &[
            Derived { name: "sim_kernels_pass_s", unit: "s", part: 1, work: None },
            Derived { name: "threads_kernels_pass_s", unit: "s", part: 2, work: None },
        ]
    }
}

// ------------------------------------------------ serve_reads / _writes

/// One load point of a serving workload.
struct LoadPoint {
    /// Which part of the pass it belongs to (0 or 1).
    part: usize,
    /// The machine it runs on, e.g. `p256`; names spans and samples.
    label: &'static str,
    load_pct: u32,
    cfg: ServiceConfig,
}

struct Serve {
    points: Vec<LoadPoint>,
    derived: Vec<Derived>,
    first: Option<Vec<ServiceOutcome>>,
}

/// Transactions offered per pass over `points`.
fn offered<'a>(points: impl Iterator<Item = &'a LoadPoint>) -> f64 {
    points.map(|pt| pt.cfg.offered as f64).sum()
}

/// The three load points (50 %, 90 % and 150 % of predicted capacity,
/// open loop) of the read-mostly scenario on a `p`-node machine.
fn reads_points(
    part: usize,
    label: &'static str,
    p: usize,
    window_log2: u32,
    seed: u64,
) -> Vec<LoadPoint> {
    let base = adapter::serve_reads_config(p, window_log2, seed);
    [50, 90, 150]
        .into_iter()
        .map(|load_pct| {
            let cfg = adapter::at_load(&base, f64::from(load_pct) / 100.0, None);
            LoadPoint { part, label, load_pct, cfg }
        })
        .collect()
}

/// The configurations of the p = 256 part of `serve_reads`, for the
/// probes that rerun it.
pub fn serve_reads_p256(seed: u64) -> Vec<ServiceConfig> {
    reads_points(1, "p256", 256, 19, seed).into_iter().map(|pt| pt.cfg).collect()
}

impl Serve {
    fn reads(seed: u64) -> Self {
        let mut points = reads_points(0, "p16", 16, 24, seed);
        points.extend(reads_points(1, "p256", 256, 19, seed));
        let rate = |name, part: usize| Derived {
            name,
            unit: "txn/s",
            part: part + 1,
            work: Some(offered(points.iter().filter(|pt| pt.part == part))),
        };
        let derived = vec![rate("serve_txn_per_s_p16", 0), rate("serve_txn_per_s_p256", 1)];
        Self { points, derived, first: None }
    }

    fn writes(seed: u64) -> Self {
        let base = adapter::serve_writes_config(22, seed);
        let point = |part, load_pct: u32, admission| LoadPoint {
            part,
            label: "p64",
            load_pct,
            cfg: adapter::at_load(&base, f64::from(load_pct) / 100.0, admission),
        };
        let points = vec![point(0, 50, None), point(0, 90, None), point(1, 150, Some(200_000.0))];
        let derived = vec![Derived {
            name: "serve_txn_per_s_p64",
            unit: "txn/s",
            part: 0,
            work: Some(offered(points.iter())),
        }];
        Self { points, derived, first: None }
    }
}

/// Conservation laws every serving outcome must satisfy.
fn outcome_conserves(o: &ServiceOutcome) -> bool {
    o.admitted + o.rejected == o.offered
        && o.completed + o.timed_out == o.admitted
        && o.retries == o.drops - o.timed_out
        && o.latency.count == o.completed
}

/// What one machine's load points added up to in one pass.
#[derive(Default)]
struct MachineTotals {
    secs: f64,
    allocs: u64,
    offered: u64,
    wire_legs: u64,
    completed: u64,
    retries: u64,
    rejected: u64,
}

impl Workload for Serve {
    fn pass(&mut self, rt: &mut Runtime) {
        let mut outcomes = Vec::with_capacity(self.points.len());
        let mut totals: Vec<(&str, MachineTotals)> = Vec::new();
        let mut open_p99: Option<(&str, f64)> = None;
        for (i, pt) in self.points.iter().enumerate() {
            let name = format!("serve.run_{}.load{}", pt.label, pt.load_pct);
            let ((out, allocs), secs) =
                rt.op(pt.part, &name, || alloc::count(|| adapter::serve(&pt.cfg)));
            // p99 may not fall as the open-loop load on one machine rises.
            let p99 = out.latency_percentile(0.99);
            let mut monotone = true;
            if pt.cfg.admission_backlog.is_none() {
                monotone = open_p99.is_none_or(|(label, last)| label != pt.label || p99 >= last);
                open_p99 = Some((pt.label, p99));
            }
            let same = self.first.as_ref().is_none_or(|first| first[i] == out);
            rt.check(outcome_conserves(&out) && monotone && same, || {
                format!("{name}: conservation, p99 monotonicity or determinism broke")
            });
            if totals.last().is_none_or(|(label, _)| *label != pt.label) {
                totals.push((pt.label, MachineTotals::default()));
            }
            let t = &mut totals.last_mut().expect("pushed above").1;
            t.secs += secs;
            t.allocs += allocs;
            t.offered += out.offered;
            // Every completed transaction sent two legs that arrived,
            // and every drop was one more transmission.
            t.wire_legs += 2 * out.completed + out.drops;
            t.completed += out.completed;
            t.retries += out.retries;
            t.rejected += out.rejected;
            outcomes.push(out);
        }
        for (label, t) in totals {
            rt.sample(&format!("serve.ns_per_txn_{label}"), t.secs * 1e9 / t.offered as f64);
            rt.sample(&format!("_serve.{label}_s"), t.secs);
            rt.sample(
                &format!("_serve.{label}_allocs_per_txn"),
                t.allocs as f64 / t.offered as f64,
            );
            rt.sample(&format!("_serve.{label}_offered"), t.offered as f64);
            rt.sample(&format!("_serve.{label}_wire_legs"), t.wire_legs as f64);
            rt.sample(&format!("_serve.{label}_completed"), t.completed as f64);
            rt.sample(&format!("_serve.{label}_retries"), t.retries as f64);
            rt.sample(&format!("_serve.{label}_rejected"), t.rejected as f64);
        }
        if self.first.is_none() {
            self.first = Some(outcomes);
        }
    }

    fn sim_digest(&self) -> u64 {
        let mut d = Fnv::default();
        for o in self.first.iter().flatten() {
            let counts =
                [o.offered, o.admitted, o.completed, o.rejected, o.drops, o.retries, o.timed_out];
            counts.into_iter().for_each(|c| d.u64(c));
            d.f64(o.elapsed.get());
            [0.5, 0.99, 0.999].into_iter().for_each(|q| d.f64(o.latency_percentile(q)));
            let utils = o.send_util.iter().chain(&o.recv_util).chain(&o.bank_util);
            utils.for_each(|u| d.f64(*u));
        }
        d.get()
    }

    fn derived(&self) -> &[Derived] {
        &self.derived
    }
}
