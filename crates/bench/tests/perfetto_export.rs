//! End-to-end trace export from real simulated runs: the Perfetto
//! JSON must be well formed with one named track per processor, and
//! the per-phase comm spans must sum (in phase order) to exactly the
//! `measured_comm` of the run's [`qsm_core::CostReport`] — both in
//! the capture and after a JSON round-trip of `args.cycles`.
//!
//! This file contains exactly one `#[test]` on purpose: the recorder
//! slot is process-global and first-install-wins, so a sibling test
//! in the same binary would race on the shared capture.

use qsm_algorithms::{gen, prefix};
use qsm_core::obs::{self, ObsLevel, Recorder};
use qsm_core::SimMachine;
use qsm_obs::SpanKind;
use qsm_simnet::MachineConfig;

fn cycles_arg(line: &str) -> f64 {
    let rest = line.split("\"cycles\":").nth(1).expect("span line carries args.cycles");
    rest[..rest.find('}').unwrap()].parse().unwrap()
}

#[test]
fn real_run_export_parses_and_comm_spans_sum_to_measured_comm() {
    assert!(obs::install(Recorder::new(ObsLevel::Full, 400e6)));
    let rec = obs::recorder();

    // A 2-processor prefix-sums run exports a well-formed trace with
    // one named track per processor, carrying actual spans.
    let machine = SimMachine::new(MachineConfig::paper_default(2));
    prefix::run_on(&machine, &gen::random_u64s(1 << 10, 42));
    let data = rec.take().expect("recorder is installed");
    assert_eq!(data.nprocs, 2);
    let j = data.to_perfetto_json();
    assert!(j.starts_with('[') && j.ends_with(']'));
    assert_eq!(j.matches('{').count(), j.matches('}').count());
    assert_eq!(j.matches('[').count(), j.matches(']').count());
    for p in 0..2u32 {
        assert!(
            j.contains(&format!(r#""args":{{"name":"proc {p}"}}"#)),
            "missing thread_name for processor {p}"
        );
        let has_spans = j.lines().any(|l| {
            l.contains(r#""ph":"X""#)
                && l.contains(r#""pid":1"#)
                && l.contains(&format!(r#""tid":{p},"#))
        });
        assert!(has_spans, "processor {p} track has no spans");
    }
    // Barrier legs ride the wire process like any other message.
    assert!(j.contains("Barrier"), "barrier legs missing from wire track");

    // On a p=8 run the phase-comm spans reproduce measured_comm
    // exactly: durations are copied verbatim from the phase timings
    // and summed in the same (phase) order as CostReport.
    let machine = SimMachine::new(MachineConfig::paper_default(8));
    let r = prefix::run_on(&machine, &gen::random_u64s(1 << 12, 7));
    let data = rec.take().expect("recorder is installed");
    let measured = r.run.report.measured_comm.get();
    let sum: f64 =
        data.spans.iter().filter(|s| s.kind == SpanKind::PhaseComm).map(|s| s.dur.get()).sum();
    assert_eq!(sum, measured, "captured comm spans disagree with CostReport");

    let j = data.to_perfetto_json();
    let sum_json: f64 = j
        .lines()
        .filter(|l| l.contains(r#"comm","ph":"X""#) && l.contains(r#""pid":0"#))
        .map(cycles_arg)
        .sum();
    assert_eq!(sum_json, measured, "args.cycles does not round-trip the comm spans");
}
