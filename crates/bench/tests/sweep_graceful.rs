//! A panicking sweep point must never take down the executor with a
//! misleading "lock poisoned" secondary panic: `sweep::map` re-raises
//! the *point's own payload* after completing every other point, and
//! `sweep::map_surviving` degrades to partial results instead. Both
//! behaviours must hold in the serial executor and the worker pool
//! alike. The `QSM_PANIC_POINT` drill fails the point without needing
//! a broken figure.

mod common;

use common::{fresh_dir, read, run_bin, stderr};

#[test]
fn panicking_point_surfaces_its_own_payload_at_any_job_count() {
    for jobs in ["1", "4"] {
        let dir = fresh_dir(&format!("graceful-j{jobs}"));
        let (results, log) = (dir.join("results"), dir.join("run.jsonl"));
        let knobs = |panic_point| {
            [
                ("QSM_FAST", "1"),
                ("QSM_JOBS", jobs),
                ("QSM_PANIC_POINT", panic_point),
                ("QSM_RESULTS_DIR", results.to_str().unwrap()),
                ("QSM_RUN_LOG", log.to_str().unwrap()),
            ]
        };

        // `ext_banks` sweeps its three patterns with `map`: the run
        // dies on the point's own panic, after the other two finished.
        let out = run_bin(env!("CARGO_BIN_EXE_ext_banks"), &knobs("1"));
        let err = stderr(&out);
        assert!(!out.status.success(), "the panic must end the run (jobs={jobs})");
        // Regression: this used to die in the executor itself with
        // `expect("sweep item lock poisoned")`, hiding the real error.
        assert!(
            err.contains(
                "error: sweep point 1 panicked: artificial failure injected by QSM_PANIC_POINT=1"
            ),
            "payload must be the point's own, got:\n{err}"
        );
        assert!(!err.contains("poisoned"), "must not surface lock poisoning:\n{err}");
        let ledger = read(&log);
        assert_eq!(
            ledger.matches("\"status\":\"ok\"").count(),
            2,
            "surviving points must complete"
        );
        assert!(!results.join("ext_banks.csv").exists());

        // `ext_faults` sweeps with `map_surviving`: it drops the point,
        // keeps the rest, writes the partial artifact and exits 1.
        let out = run_bin(env!("CARGO_BIN_EXE_ext_faults"), &knobs("1"));
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "a degraded run exits 1 (jobs={jobs}):\n{err}");
        assert!(err.contains("warning: sweep point 1 failed"), "{err}");
        assert!(err.contains("1 sweep point(s) failed"), "{err}");
        let csv = read(&results.join("ext_faults.csv"));
        let drops: Vec<&str> = csv.lines().skip(1).map(|l| l.split(',').next().unwrap()).collect();
        assert_eq!(drops, ["0.00", "0.02", "0.05", "0.10", "0.20"], "survivors keep their rows");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
