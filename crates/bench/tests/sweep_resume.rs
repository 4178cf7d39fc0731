//! End-to-end crash-resume drill for the sweep checkpoint ledger.
//!
//! The contract under test (see `qsm_bench::journal` and the
//! `QSM_RESUME` knob): kill a sweep partway (`QSM_PANIC_POINT`
//! panics one point, so the binary exits nonzero without emitting a
//! CSV), rerun it with `QSM_RESUME=1` against the same
//! `QSM_RUN_LOG`, and the resumed run must (a) produce a CSV
//! byte-identical to an uninterrupted run, and (b) re-execute *only*
//! the unfinished point — asserted via journal record counts, since
//! every executed point leaves a `sweep_claim` record and every
//! replayed one does not.
//!
//! Everything runs in subprocesses (`CARGO_BIN_EXE_ext_topology`)
//! with a fully scrubbed-and-explicit `QSM_*` environment: a process
//! parses its knobs once.

mod common;

use std::path::{Path, PathBuf};
use std::process::Output;

use common::{fresh_dir, run_bin};

/// Run the `ext_topology` binary in fast mode with its results under
/// `dir` and exactly the given `QSM_*` knobs besides.
fn run_ext_topology(dir: &Path, knobs: &[(&str, &str)]) -> Output {
    run_fast(env!("CARGO_BIN_EXE_ext_topology"), dir, knobs)
}

fn run_fast(exe: &str, dir: &Path, knobs: &[(&str, &str)]) -> Output {
    let results = dir.join("results");
    let mut all = vec![("QSM_FAST", "1"), ("QSM_RESULTS_DIR", results.to_str().unwrap())];
    all.extend_from_slice(knobs);
    run_bin(exe, &all)
}

fn csv(dir: &Path) -> PathBuf {
    dir.join("results").join("ext_topology.csv")
}

fn count_occurrences(haystack: &str, needle: &str) -> usize {
    haystack.matches(needle).count()
}

/// The full drill, at a given worker count.
fn kill_and_resume_roundtrip(jobs: &str) {
    let tag = format!("kill-j{jobs}");
    let clean_dir = fresh_dir(&format!("{tag}-clean"));
    let crash_dir = fresh_dir(&format!("{tag}-crash"));

    // Uninterrupted oracle run (no journal involved).
    let out = run_ext_topology(&clean_dir, &[("QSM_JOBS", jobs)]);
    assert!(out.status.success(), "clean run failed: {}", String::from_utf8_lossy(&out.stderr));
    let clean_csv = std::fs::read(csv(&clean_dir)).expect("clean run should emit a CSV");

    // Killed run: point 7 of 15 panics; `map` re-raises after
    // finishing the grid, so the binary dies without a CSV but with a
    // complete journal for every other point.
    let journal = crash_dir.join("run.jsonl");
    let journal_s = journal.to_str().unwrap();
    let out = run_ext_topology(
        &crash_dir,
        &[("QSM_JOBS", jobs), ("QSM_RUN_LOG", journal_s), ("QSM_PANIC_POINT", "7")],
    );
    assert!(!out.status.success(), "the killed run must exit nonzero");
    assert!(!csv(&crash_dir).exists(), "a killed run must not emit a CSV");
    let ledger = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(count_occurrences(&ledger, "\"kind\":\"sweep_claim\""), 15, "all points claimed");
    assert_eq!(count_occurrences(&ledger, "\"status\":\"ok\""), 14);
    assert_eq!(count_occurrences(&ledger, "\"status\":\"failed\""), 1);

    // Resume: replay the 14 completed points, execute only point 7.
    let out = run_ext_topology(
        &crash_dir,
        &[("QSM_JOBS", jobs), ("QSM_RUN_LOG", journal_s), ("QSM_RESUME", "1")],
    );
    assert!(out.status.success(), "resume failed: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("resume: replaying 14/15 completed points"),
        "resume should report its replay count, got:\n{stderr}"
    );
    let resumed_csv = std::fs::read(csv(&crash_dir)).expect("resumed run should emit the CSV");
    assert_eq!(
        resumed_csv, clean_csv,
        "resumed CSV must be byte-identical to the uninterrupted run (jobs={jobs})"
    );
    let ledger = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(
        count_occurrences(&ledger, "\"kind\":\"sweep_claim\""),
        16,
        "exactly one point may re-execute on resume"
    );
    assert_eq!(count_occurrences(&ledger, "\"status\":\"ok\""), 15);
    assert_eq!(count_occurrences(&ledger, "\"status\":\"failed\""), 1);

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn killed_sweep_resumes_to_a_byte_identical_csv_serially() {
    kill_and_resume_roundtrip("1");
}

#[test]
fn killed_sweep_resumes_to_a_byte_identical_csv_in_parallel() {
    kill_and_resume_roundtrip("4");
}

/// A crash can tear the journal itself. After a killed run, cut its
/// journal at a seeded random byte inside one of its `sweep_point`
/// records — at least the record's closing brace goes — and resume:
/// the torn record must read as nothing, so exactly the points with no
/// complete `ok` record before the cut re-run, and the CSV is still
/// byte-identical to the uninterrupted run.
fn torn_journal_roundtrip(jobs: &str) {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let tag = format!("torn-j{jobs}");
    let clean_dir = fresh_dir(&format!("{tag}-clean"));
    let crash_dir = fresh_dir(&format!("{tag}-crash"));
    let out = run_ext_topology(&clean_dir, &[("QSM_JOBS", jobs)]);
    assert!(out.status.success(), "clean run failed: {}", String::from_utf8_lossy(&out.stderr));
    let clean_csv = std::fs::read(csv(&clean_dir)).unwrap();
    let killed = crash_dir.join("killed.jsonl");
    let out = run_ext_topology(
        &crash_dir,
        &[("QSM_JOBS", jobs), ("QSM_RUN_LOG", killed.to_str().unwrap()), ("QSM_PANIC_POINT", "7")],
    );
    assert!(!out.status.success(), "the killed run must exit nonzero");
    let ledger = std::fs::read_to_string(&killed).unwrap();

    // Each `sweep_point` record as (first byte, its newline).
    let mut records = Vec::new();
    let mut start = 0;
    for line in ledger.split_inclusive('\n') {
        if line.contains("\"kind\":\"sweep_point\"") {
            records.push((start, start + line.len() - 1));
        }
        start += line.len();
    }
    assert_eq!(records.len(), 15);
    let mut rng = SmallRng::seed_from_u64(0x7024_0000 + jobs.parse::<u64>().unwrap());
    for case in 0..6 {
        let (start, end) = records[rng.gen_range(0..records.len())];
        let cut = rng.gen_range(start + 1..end);
        let intact = &ledger[..start];
        let ok: std::collections::BTreeSet<&str> = intact
            .lines()
            .filter(|l| l.contains("\"status\":\"ok\""))
            .map(|l| l.split("\"point\":").nth(1).unwrap().split(',').next().unwrap())
            .collect();

        let dir = crash_dir.join(format!("case{case}"));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("run.jsonl");
        std::fs::write(&journal, &ledger.as_bytes()[..cut]).unwrap();
        let out = run_ext_topology(
            &dir,
            &[("QSM_JOBS", jobs), ("QSM_RUN_LOG", journal.to_str().unwrap()), ("QSM_RESUME", "1")],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "resume after a cut at byte {cut} failed: {stderr}");
        assert!(
            stderr.contains(&format!("resume: replaying {}/15 completed points", ok.len())),
            "a cut at byte {cut} leaves {} ok records, got:\n{stderr}",
            ok.len()
        );
        assert_eq!(std::fs::read(csv(&dir)).unwrap(), clean_csv, "cut at byte {cut} (jobs={jobs})");
        let after = String::from_utf8_lossy(&std::fs::read(&journal).unwrap()).into_owned();
        let claims = |s: &str| count_occurrences(s, "\"kind\":\"sweep_claim\"");
        assert_eq!(
            claims(&after) - claims(intact),
            15 - ok.len(),
            "a cut at byte {cut} re-runs exactly the points without an ok record before it"
        );
    }

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn torn_journal_resumes_to_a_byte_identical_csv() {
    torn_journal_roundtrip("1");
    torn_journal_roundtrip("4");
}

/// A complete journal from a configuration that differs from the
/// default in one knob that decides a result (`knob`), resumed under
/// the default: every record has a stale fingerprint, so nothing may
/// replay and the CSV must be the default one. A poisoned replay would
/// smuggle the other configuration's rows into the default artifact.
fn stale_journal_roundtrip(figure: &str, exe: &str, knob: (&str, &str), points: usize) {
    let tag = format!("stale-{figure}");
    let clean_dir = fresh_dir(&format!("{tag}-clean"));
    let stale_dir = fresh_dir(&tag);
    let csv_of = |dir: &Path| dir.join("results").join(format!("{figure}.csv"));

    // Oracle: default configuration, no journal.
    let out = run_fast(exe, &clean_dir, &[("QSM_JOBS", "1")]);
    assert!(out.status.success());
    let clean_csv = std::fs::read(csv_of(&clean_dir)).unwrap();

    let journal = stale_dir.join("run.jsonl");
    let journal_s = journal.to_str().unwrap();
    let out = run_fast(exe, &stale_dir, &[("QSM_JOBS", "1"), ("QSM_RUN_LOG", journal_s), knob]);
    assert!(out.status.success());
    let other_csv = std::fs::read(csv_of(&stale_dir)).unwrap();
    assert_ne!(other_csv, clean_csv, "{knob:?} must actually change the results");

    let out = run_fast(
        exe,
        &stale_dir,
        &[("QSM_JOBS", "1"), ("QSM_RUN_LOG", journal_s), ("QSM_RESUME", "1")],
    );
    assert!(out.status.success(), "resume failed: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("resume: replaying 0/{points} completed points")),
        "a stale journal must replay nothing, got:\n{stderr}"
    );
    assert_eq!(std::fs::read(csv_of(&stale_dir)).unwrap(), clean_csv);
    let ledger = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(
        count_occurrences(&ledger, "\"kind\":\"sweep_claim\""),
        2 * points,
        "the resume must have re-executed all {points} points"
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&stale_dir);
}

#[test]
fn stale_journal_is_fully_rerun_never_replayed() {
    // The link gap changes every non-flat row of `ext_topology`.
    stale_journal_roundtrip(
        "ext_topology",
        env!("CARGO_BIN_EXE_ext_topology"),
        ("QSM_LINK_GAP", "100"),
        15,
    );
    // `ext_banks` pins its bank count but reads the service rate, which
    // the fingerprint once saw only when `QSM_BANKS` was set.
    stale_journal_roundtrip(
        "ext_banks",
        env!("CARGO_BIN_EXE_ext_banks"),
        ("QSM_BANK_SERVICE", "40"),
        3,
    );
}
