//! Knobs are parsed once per process: a value that does not parse
//! warns on stderr exactly once and its default applies, a `QSM_*`
//! name that is no knob warns once and is ignored, and only an unknown
//! backend stops the run. `explain` is the binary that reads the most
//! of them. Subprocesses, so that the knobs it sees are exactly these.

mod common;

use common::{fresh_dir, run_bin, run_figure, stderr};

#[test]
fn an_unparseable_processor_count_warns_and_runs_at_the_default() {
    let out = run_bin(env!("CARGO_BIN_EXE_explain"), &[("QSM_P", "abc"), ("QSM_N", "4096")]);
    let (stdout, stderr) = (String::from_utf8_lossy(&out.stdout), stderr(&out));
    assert!(out.status.success(), "{stdout}\n{stderr}");
    let warning = "warning: ignoring unparseable QSM_P=\"abc\"";
    assert_eq!(stderr.matches(warning).count(), 1, "stderr:\n{stderr}");
    assert!(stdout.contains("== explain — prefix, p = 8, n = 4096,"), "stdout:\n{stdout}");
}

#[test]
fn unusable_values_warn_once_each_and_the_run_goes_on() {
    let knobs = [("QSM_N", "4096"), ("QSM_TOPOLOGY", "bogus"), ("QSM_TRACE", "/dev/null/t.json")];
    let out = run_bin(env!("CARGO_BIN_EXE_explain"), &knobs);
    let err = stderr(&out);
    assert!(out.status.success(), "{err}");
    for warning in [
        "warning: ignoring unparseable QSM_TOPOLOGY=\"bogus\" (want flat, line, mesh, torus, \
         or fattree); using the flat wire",
        "warning: ignoring unusable QSM_TRACE=\"/dev/null/t.json\" (cannot open for writing: ",
    ] {
        assert_eq!(err.matches(warning).count(), 1, "{warning}\nstderr:\n{err}");
    }
    // The header prints the resolved knobs: the flat wire.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("banks: 0, topology: None }"), "stdout:\n{stdout}");
}

#[test]
fn an_unknown_backend_exits_2() {
    let out = run_bin(env!("CARGO_BIN_EXE_explain"), &[("QSM_BACKEND", "gpu")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown QSM_BACKEND 'gpu' (want sim or threads)"));
}

#[test]
fn an_unknown_knob_warns_once_and_the_figure_still_runs() {
    let dir = fresh_dir("unknown-knob");
    let warning = "warning: ignoring unknown knob QSM_RESUME";
    let out = run_figure(env!("CARGO_BIN_EXE_fig1_prefix"), &dir, &[("QSM_RESUME", "1")]);
    assert_eq!(stderr(&out).matches(warning).count(), 1, "stderr:\n{}", stderr(&out));
    assert!(dir.join("fig1.csv").exists());
    // Only known knobs: no such line.
    let out = run_figure(env!("CARGO_BIN_EXE_fig1_prefix"), &dir, &[("QSM_JOBS", "1")]);
    assert!(!stderr(&out).contains("unknown knob"), "stderr:\n{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}
