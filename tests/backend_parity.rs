//! The native backend rides the same recorder and accounting path as
//! the simulated one: a [`ThreadMachine`] run must produce a
//! [`qsm::core::CostReport`], populate the metrics registry, and emit
//! per-processor spans that export to Perfetto — all through the
//! process-global recorder the bench harness installs.
//!
//! This lives in its own integration-test binary because the global
//! recorder slot is first-install-wins per process.

use qsm::algorithms::{gen, prefix};
use qsm::core::obs::{self, ObsLevel, Recorder, SpanKind};
use qsm::core::{Machine, ThreadMachine};
use qsm::membank::Pattern;

#[test]
fn thread_machine_feeds_the_shared_recorder_path() {
    // Install a Full-level recorder exactly as the bench harness
    // does (nanosecond timestamps on the wall-clock backend).
    obs::install(Recorder::new(ObsLevel::Full, 1e9));
    let rec = obs::recorder();
    assert!(rec.is_full(), "install must win in this fresh process");

    let input = gen::random_u64s(4096, 1);
    let machine = ThreadMachine::new(4);
    let r = prefix::run_on(&machine, &input);

    // The same CostReport every backend assembles: measured values in
    // host nanoseconds, predictions against the model machine.
    let report = machine.make_report(&r.run.phases);
    assert_eq!(report.measured_unit, "ns");
    assert_eq!(report.p, 4);
    assert!(report.measured_total.get() > 0.0);
    assert!(report.data_msgs > 0, "traffic metering must reach the report");
    assert!(report.sqsm_comm > 0.0, "model predictions must be populated");
    assert!(report.to_string().contains("(ns)"));

    let data = rec.take().expect("run must capture observability data");

    // Metrics registry: the driver's record stage counts phases and
    // traffic identically on every backend.
    let metrics = data.metrics_json();
    for needle in ["phases", "data_msgs", "payload_bytes", "kappa"] {
        assert!(metrics.contains(needle), "metric '{needle}' missing:\n{metrics}");
    }

    // Spans: machine-level phase spans from the driver plus
    // per-processor compute/barrier lanes from the wall timer.
    let lanes: std::collections::BTreeSet<u32> =
        data.spans.iter().filter(|s| s.kind == SpanKind::Compute).map(|s| s.lane).collect();
    assert_eq!(lanes.len(), 4, "one compute lane per processor: {lanes:?}");
    for kind in [SpanKind::PhaseCompute, SpanKind::PhaseComm, SpanKind::BarrierWait] {
        assert!(data.spans.iter().any(|s| s.kind == kind), "no {kind:?} span captured");
    }

    // Per-phase comm spans sum to the report's measured comm.
    let comm_sum: f64 =
        data.spans.iter().filter(|s| s.kind == SpanKind::PhaseComm).map(|s| s.dur.get()).sum();
    assert!(
        (comm_sum - report.measured_comm.get()).abs() < 1e-6,
        "phase comm spans ({comm_sum}) must tile measured comm ({})",
        report.measured_comm.get()
    );

    // And the capture exports to Perfetto like any simulated run.
    let trace = data.to_perfetto_json();
    assert!(trace.contains("traceEvents") || trace.contains('['), "empty trace:\n{trace}");
    assert!(trace.contains("processors"), "per-processor track missing");
}

#[test]
fn membank_backends_share_the_target_sequences() {
    // The membank unification mirrors the Machine one: both executors
    // are driven by the same generic loop, so a probe of the drawn
    // targets must match what the simulator consumed — the sim
    // results stay bit-identical through the shared path.
    use qsm::membank::{platform, run_pattern, BankBackend, SimBank};

    let m = platform::smp_native();
    let bank = SimBank { machine: &m, seed: 9 };
    let direct = run_pattern(&bank, Pattern::Random, 500);
    let again = run_pattern(&bank, Pattern::Random, 500);
    assert_eq!(direct, again, "shared drawing must stay deterministic");

    // The backend reports the same geometry the profile declares.
    assert_eq!(bank.procs(), m.procs);
    assert_eq!(bank.banks(), m.banks);
}
