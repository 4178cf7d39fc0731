//! The native QSM machine: same programming model, real threads.
//!
//! [`ThreadMachine`] executes a QSM program on the host's cores (its
//! `p` processors on `min(p, cores)` carrier threads, a stack per
//! processor: past `p = cores` it times the program and the exchange,
//! not the OS time-slicer)
//! with real wall-clock timing, through the identical engine, driver
//! and context as [`crate::SimMachine`] — so every algorithm written
//! once runs unmodified on both, produces the same
//! [`crate::PhaseRecord`] stream (κ and message accounting come from
//! the same `CommMatrix` metering), feeds the same observability
//! recorder, and yields a [`crate::CostReport`]. This is the
//! workspace's "run on actual parallel hardware" backend (the
//! paper's NOW/SMP role), used by the criterion benches.
//!
//! Timing units: the [`crate::PhaseTiming`] fields are
//! **nanoseconds** here (the `Cycles` newtype is reused as a plain
//! number container). The phase `compute` component is the interval
//! between the previous barrier release and the *last* worker's
//! `sync()` arrival; `comm` is the remainder of the phase — the
//! exchange processing plus barrier — exactly the quantity the
//! simulated backend prices with its network model.
//!
//! The [`crate::CostReport`] attached to a native run predicts with
//! the machine's *model configuration* (default:
//! `MachineConfig::paper_default(p)`), so predicted columns are in
//! simulated cycles while measured columns are host nanoseconds;
//! they share phase structure and traffic, not a unit. Use
//! [`ThreadMachine::with_model_config`] to predict against a
//! different reference machine.

use std::time::Instant;

use qsm_obs::{Recorder, Span, SpanKind};
use qsm_simnet::{Cycles, MachineConfig};

use crate::accounting::CostReport;
use crate::ctx::Ctx;
use crate::driver::{CommMatrix, PhaseRecord, PhaseTiming};
use crate::machine::{Machine, PhaseTimer, RunResult};
use crate::sim_timer::empty_sync_cost;

/// Wall-clock timer: phases are priced by elapsed real time, split
/// at the last worker's `sync()` arrival.
pub struct WallTimer {
    run_start: Instant,
    last_release: Instant,
    rec: Recorder,
    phase_idx: u64,
    /// Bank model of the machine's reference configuration: reported
    /// to the driver so per-bank traffic metering (observed bank-κ)
    /// also runs on the native backend. Wall-clock timing itself is
    /// never adjusted — real hardware queues for real.
    banks: Option<qsm_simnet::BankModel>,
    /// Set when the engine takes over per-worker span capture
    /// (`spmd_span_epoch`): the workers then emit fine-grained lane
    /// spans themselves and this timer's coarser per-processor
    /// compute/barrier spans would double-cover the same lanes.
    suppress_proc_spans: bool,
    /// Scratch for batching message-size observations under one
    /// recorder lock (reused across phases).
    msg_sizes: Vec<u64>,
}

impl WallTimer {
    /// A fresh timer emitting per-processor spans into `rec` (when
    /// the recorder captures at full level). Time zero is "now".
    pub fn with_recorder(rec: Recorder) -> Self {
        let now = Instant::now();
        Self {
            run_start: now,
            last_release: now,
            rec,
            phase_idx: 0,
            banks: None,
            suppress_proc_spans: false,
            msg_sizes: Vec::new(),
        }
    }

    /// Report `banks` to the driver as this machine's bank model.
    pub fn with_banks(mut self, banks: Option<qsm_simnet::BankModel>) -> Self {
        self.banks = banks;
        self
    }

    /// Nanoseconds from the run epoch to `t`, as a span timestamp.
    fn ns_since_start(&self, t: Instant) -> Cycles {
        Cycles::new(t.saturating_duration_since(self.run_start).as_nanos() as f64)
    }
}

impl PhaseTimer for WallTimer {
    fn price(
        &mut self,
        _charged: &[u64],
        matrix: &CommMatrix,
        arrivals: &[Instant],
    ) -> PhaseTiming {
        // Called by the driver after all workers arrived and data has
        // been applied; "now" is effectively the end of the exchange.
        let now = Instant::now();
        let elapsed = now.saturating_duration_since(self.last_release).as_nanos() as f64;
        // Compute ends when the last worker reaches sync(): the
        // machine-wide phase structure (as in the simulated backend,
        // where `compute` is the slowest processor's local work).
        let compute = arrivals
            .iter()
            .map(|&a| a.saturating_duration_since(self.last_release).as_nanos() as f64)
            .fold(0.0, f64::max)
            .min(elapsed);

        if self.rec.is_enabled() && !matrix.is_empty() {
            // Message sizes as the SPMD exchange moves them: one put
            // payload and one get reply per (src, dst) pair with
            // traffic. Metered from the deterministic `CommMatrix`,
            // so the histogram is byte-stable across job counts
            // (granularity differs from the simulated backend, which
            // records per wire message including headers).
            self.msg_sizes.clear();
            let sizes = &mut self.msg_sizes;
            matrix.for_each_dirty(|_src, _dst, t| {
                if t.put_payload_bytes > 0 {
                    sizes.push(t.put_payload_bytes);
                }
                if t.get_reply_payload_bytes > 0 {
                    sizes.push(t.get_reply_payload_bytes);
                }
            });
            self.rec.observe_iter("msg_size_bytes", self.msg_sizes.drain(..));
        }

        if self.rec.is_full() && !self.suppress_proc_spans && !arrivals.is_empty() {
            let phase = self.phase_idx;
            let release = self.ns_since_start(self.last_release);
            let end = self.ns_since_start(now);
            let spans = arrivals.iter().enumerate().flat_map(|(i, &a)| {
                let lane = i as u32;
                let arr = self.ns_since_start(a).max(release).min(end);
                [
                    // Per-processor lanes: local work until this
                    // worker's own arrival, then waiting on the
                    // exchange + barrier until the driver releases
                    // everyone (there is no per-processor comm-busy
                    // interval on this backend — the driver performs
                    // the exchange centrally).
                    Span {
                        kind: SpanKind::Compute,
                        phase,
                        lane,
                        start: release,
                        dur: arr - release,
                    },
                    Span { kind: SpanKind::BarrierWait, phase, lane, start: arr, dur: end - arr },
                ]
            });
            self.rec.spans(spans);
        }

        self.phase_idx += 1;
        self.last_release = now;
        PhaseTiming {
            elapsed: Cycles::new(elapsed),
            compute: Cycles::new(compute),
            comm: Cycles::new(elapsed - compute),
        }
    }

    fn bank_model(&self) -> Option<qsm_simnet::BankModel> {
        self.banks
    }

    /// The native backend opts in: hand the SPMD workers the run
    /// epoch so their spans share this timer's timeline (machine
    /// track and worker lanes line up in the trace), and stop
    /// emitting the coarse per-processor spans `price` would
    /// otherwise derive from arrivals.
    fn spmd_span_epoch(&mut self) -> Option<Instant> {
        self.suppress_proc_spans = true;
        Some(self.run_start)
    }
}

/// A native (host-core) QSM machine.
#[derive(Debug, Clone, Copy)]
pub struct ThreadMachine {
    p: usize,
    seed: u64,
    check_conflicts: bool,
    model_cfg: MachineConfig,
}

impl ThreadMachine {
    /// Create a `p`-processor machine.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1);
        Self {
            p,
            seed: 0x1998_0021,
            check_conflicts: true,
            model_cfg: MachineConfig::paper_default(p),
        }
    }

    /// Replace the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disable the read/write-overlap phase check.
    pub fn with_conflict_check(mut self, check: bool) -> Self {
        self.check_conflicts = check;
        self
    }

    /// Replace the reference machine the [`CostReport`] predictions
    /// are computed against (default: the paper machine at this
    /// processor count). Predictions stay in that machine's cycles;
    /// measured values stay in host nanoseconds.
    pub fn with_model_config(mut self, cfg: MachineConfig) -> Self {
        assert_eq!(cfg.p, self.p, "model config processor count must match the machine");
        self.model_cfg = cfg;
        self
    }

    /// The reference machine used for model predictions.
    pub fn model_config(&self) -> &MachineConfig {
        &self.model_cfg
    }

    /// Number of threads.
    pub fn nprocs(&self) -> usize {
        self.p
    }

    /// Run `program` on every thread. Equivalent to the generic
    /// [`Machine::run`]; kept inherent so callers need no trait
    /// import.
    pub fn run<R, F>(&self, program: F) -> RunResult<R>
    where
        R: Send,
        F: Fn(&mut Ctx) -> R + Send + Sync,
    {
        crate::engine::run(self, program)
    }
}

impl Machine for ThreadMachine {
    fn nprocs(&self) -> usize {
        self.p
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn check_conflicts(&self) -> bool {
        self.check_conflicts
    }

    fn backend_name(&self) -> &'static str {
        "threads"
    }

    fn time_unit(&self) -> &'static str {
        "ns"
    }

    fn make_timer(&self, rec: Recorder) -> Box<dyn PhaseTimer> {
        Box::new(WallTimer::with_recorder(rec).with_banks(self.model_cfg.net.banks))
    }

    fn make_report(&self, phases: &[PhaseRecord]) -> CostReport {
        CostReport::build(&self.model_cfg, phases, empty_sync_cost(self.model_cfg).get())
            .with_measured_unit("ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn wall_timer_splits_compute_at_last_arrival() {
        let mut t = WallTimer::with_recorder(Recorder::disabled());
        let release = t.last_release;
        std::thread::sleep(Duration::from_millis(5));
        let arrivals = [release + Duration::from_millis(2), Instant::now()];
        let timing = t.price(&[0, 0], &CommMatrix::new(2), &arrivals);
        assert!(timing.elapsed.get() > 0.0);
        assert!(timing.compute.get() > 0.0, "compute must not be booked as comm");
        assert!(timing.comm.get() >= 0.0);
        let sum = timing.compute.get() + timing.comm.get();
        assert!((sum - timing.elapsed.get()).abs() < 1e-6);
        // The last arrival was "now": nearly the whole phase is
        // compute, and comm is only the (tiny) residual exchange.
        assert!(timing.compute > timing.comm);
    }

    #[test]
    fn wall_timer_with_no_arrivals_books_all_as_comm() {
        let mut t = WallTimer::with_recorder(Recorder::disabled());
        std::thread::sleep(Duration::from_millis(1));
        let timing = t.price(&[], &CommMatrix::new(1), &[]);
        assert_eq!(timing.compute.get(), 0.0);
        assert_eq!(timing.comm, timing.elapsed);
    }

    #[test]
    fn wall_timer_reports_model_bank_config() {
        use qsm_simnet::BankModel;
        let m = ThreadMachine::new(2).with_model_config(
            MachineConfig::paper_default(2).with_banks(BankModel::per_message(4, 100.0)),
        );
        let t = m.make_timer(Recorder::disabled());
        assert_eq!(t.bank_model().unwrap().banks_per_node, 4);
        assert_eq!(t.bank_wait(), Cycles::ZERO);
        // Without banks on the model config, the default stays off.
        let t = ThreadMachine::new(2).make_timer(Recorder::disabled());
        assert_eq!(t.bank_model(), None);
    }

    #[test]
    fn wall_timer_emits_per_processor_spans_at_full_level() {
        let rec = Recorder::new(qsm_obs::ObsLevel::Full, 1e9);
        let mut t = WallTimer::with_recorder(rec.clone());
        std::thread::sleep(Duration::from_millis(1));
        let arrivals = [Instant::now(), Instant::now()];
        let _ = t.price(&[0, 0], &CommMatrix::new(2), &arrivals);
        let data = rec.take().unwrap();
        for kind in [SpanKind::Compute, SpanKind::BarrierWait] {
            assert_eq!(data.spans.iter().filter(|s| s.kind == kind).count(), 2, "{kind:?}");
        }
    }

    #[test]
    fn spmd_epoch_hands_over_the_timeline_and_suppresses_proc_spans() {
        let rec = Recorder::new(qsm_obs::ObsLevel::Full, 1e9);
        let mut t = WallTimer::with_recorder(rec.clone());
        let epoch = t.spmd_span_epoch().expect("native timer opts in");
        assert_eq!(epoch, t.run_start, "workers must share the timer's epoch");
        let arrivals = [Instant::now(), Instant::now()];
        let _ = t.price(&[0, 0], &CommMatrix::new(2), &arrivals);
        let data = rec.take().unwrap();
        assert!(data.spans.is_empty(), "worker-side capture owns the lanes: {:?}", data.spans);
    }
}
