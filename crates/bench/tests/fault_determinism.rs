//! The fault schedule is a pure function of its seed, so the
//! `ext_faults` artifact must be byte-identical across worker counts
//! and across repeat runs — faults perturb the *simulated* machine,
//! never the harness.

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
    let _ = std::fs::remove_dir_all(&dir);
}
