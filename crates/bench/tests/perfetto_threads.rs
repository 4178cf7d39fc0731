//! End-to-end trace export from a real threads-backend (SPMD) run:
//! every worker gets its own named track, and each worker's spans —
//! compute, both barrier legs, serve-gets, the κ sweep of its own
//! block, apply-puts, plus the leader's plan/price stages — tile its
//! timeline exactly (each span
//! starts where the previous one ended, to the nanosecond), because
//! the SPMD observer advances a single cursor per worker.
//!
//! This file contains exactly one `#[test]` on purpose: the recorder
//! slot is process-global and first-install-wins, so a sibling test
//! in the same binary would race on the shared capture.

use qsm_algorithms::{gen, prefix};
use qsm_core::obs::{self, ObsLevel, Recorder};
use qsm_core::ThreadMachine;
use qsm_obs::{Span, SpanKind};

const P: usize = 8;

/// The span kinds the SPMD workers emit on their own lanes.
fn is_worker_kind(k: SpanKind) -> bool {
    matches!(
        k,
        SpanKind::Compute
            | SpanKind::BarrierWait
            | SpanKind::ServeGets
            | SpanKind::OwnerKappa
            | SpanKind::ApplyPuts
            | SpanKind::LeaderPlan
            | SpanKind::LeaderPrice
    )
}

#[test]
fn threads_run_emits_one_tiled_track_per_worker() {
    assert!(obs::install(Recorder::new(ObsLevel::Full, 1e9)));
    let rec = obs::recorder();

    let machine = ThreadMachine::new(P);
    let r = prefix::run_on(&machine, &gen::random_u64s(1 << 12, 42));
    let nphases = r.run.phases.len();
    let data = rec.take().expect("recorder is installed");
    assert_eq!(data.nprocs, P);

    for lane in 0..P as u32 {
        let mut track: Vec<&Span> =
            data.spans.iter().filter(|s| is_worker_kind(s.kind) && s.lane == lane).collect();
        assert!(!track.is_empty(), "worker {lane} emitted no spans");
        track.sort_by(|a, b| a.start.get().total_cmp(&b.start.get()));

        // The track tiles: wall timestamps are integer nanoseconds
        // (exact in f64 far below 2^53), and consecutive spans share
        // their boundary instant, so equality is exact — no epsilon.
        for w in track.windows(2) {
            assert!(w[0].dur.get() >= 0.0);
            assert_eq!(
                w[0].start.get() + w[0].dur.get(),
                w[1].start.get(),
                "worker {lane}: gap or overlap between {:?} p{} and {:?} p{}",
                w[0].kind,
                w[0].phase,
                w[1].kind,
                w[1].phase
            );
        }

        // Every full phase carries the complete stage decomposition
        // per worker; only worker 0 (the leader) runs plan and price.
        for phase in 0..nphases as u64 {
            let count =
                |k: SpanKind| track.iter().filter(|s| s.phase == phase && s.kind == k).count();
            assert_eq!(count(SpanKind::Compute), 1, "worker {lane} phase {phase}");
            assert_eq!(count(SpanKind::BarrierWait), 2, "worker {lane} phase {phase}");
            assert_eq!(count(SpanKind::ServeGets), 1, "worker {lane} phase {phase}");
            assert_eq!(count(SpanKind::OwnerKappa), 1, "worker {lane} phase {phase}");
            assert_eq!(count(SpanKind::ApplyPuts), 1, "worker {lane} phase {phase}");
            let leader = usize::from(lane == 0);
            assert_eq!(count(SpanKind::LeaderPlan), leader, "worker {lane} phase {phase}");
            assert_eq!(count(SpanKind::LeaderPrice), leader, "worker {lane} phase {phase}");
        }

        // The epilogue (everything after the last sync) shows up as a
        // final compute span plus the exit-barrier wait.
        let epi = nphases as u64;
        assert!(track.iter().any(|s| s.phase == epi && s.kind == SpanKind::Compute));
        assert!(track.iter().any(|s| s.phase == epi && s.kind == SpanKind::BarrierWait));
    }

    // The export names one track per worker on the processors pid and
    // stays structurally well formed.
    let j = data.to_perfetto_json();
    assert!(j.starts_with('[') && j.ends_with(']'));
    assert_eq!(j.matches('{').count(), j.matches('}').count());
    for lane in 0..P as u32 {
        assert!(
            j.contains(&format!(r#""args":{{"name":"proc {lane}"}}"#)),
            "missing thread_name for worker {lane}"
        );
        let has_spans = j.lines().any(|l| {
            l.contains(r#""ph":"X""#)
                && l.contains(r#""pid":1"#)
                && l.contains(&format!(r#""tid":{lane},"#))
        });
        assert!(has_spans, "worker {lane} track has no spans");
    }
    // The leader stages are labelled on the track.
    assert!(j.contains("plan p"), "leader plan spans missing");
    assert!(j.contains("price p"), "leader price spans missing");
    assert!(j.contains("serve p"), "serve-gets spans missing");
    assert!(j.contains("kappa p"), "owner κ spans missing");
    assert!(j.contains("apply p"), "apply-puts spans missing");
}
