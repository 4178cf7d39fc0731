//! The fault schedule is a pure function of the configured seed, so
//! the `ext_faults` artifact must be byte-identical across worker
//! counts and across repeat runs — faults perturb the *simulated*
//! machine, never the harness. A different seed must change the
//! artifact (the knob is actually wired through).

mod common;

use common::{fresh_dir, read, run_figure};

#[test]
fn ext_faults_is_byte_identical_across_job_counts_and_runs() {
    let dir = fresh_dir("faults");
    let run = |tag: &str, knobs: &[(&str, &str)]| {
        run_figure(env!("CARGO_BIN_EXE_ext_faults"), &dir.join(tag), knobs);
        read(&dir.join(tag).join("ext_faults.csv"))
    };
    let serial = run("serial", &[("QSM_JOBS", "1")]);
    let parallel = run("parallel", &[("QSM_JOBS", "4")]);
    let parallel_again = run("again", &[("QSM_JOBS", "4")]);
    assert_eq!(serial, parallel, "fault sweep must not depend on worker count");
    assert_eq!(parallel, parallel_again, "fault sweep must replay exactly");

    // The seed knob is live: a different schedule moves the measured
    // columns (and only the measured columns — predictions are blind
    // to faults).
    let reseeded = run("reseeded", &[("QSM_JOBS", "4"), ("QSM_FAULT_SEED", "12345")]);
    let reseeded_again = run("reseeded_again", &[("QSM_JOBS", "1"), ("QSM_FAULT_SEED", "12345")]);
    assert_ne!(serial, reseeded, "QSM_FAULT_SEED must change the schedule");
    assert_eq!(reseeded, reseeded_again, "every seed must be reproducible");
    let pred_cols = |csv: &str| -> Vec<String> {
        csv.lines()
            .skip(1)
            .map(|l| {
                let c: Vec<&str> = l.split(',').collect();
                format!("{},{},{}", c[2], c[3], c[4])
            })
            .collect()
    };
    assert_eq!(pred_cols(&serial), pred_cols(&reseeded));
    let _ = std::fs::remove_dir_all(&dir);
}
