//! # qsm-bench — the experiment harness
//!
//! One module per table and figure of the paper's evaluation, each
//! regenerating the same rows/series the paper reports (on our
//! simulated substrate — see DESIGN.md for the substitution notes and
//! EXPERIMENTS.md for paper-vs-measured comparisons). Every module is
//! exposed both as a library function (used by the `all` binary and
//! the integration tests) and as a standalone binary:
//!
//! ```text
//! cargo run --release -p qsm-bench --bin fig2_samplesort
//! QSM_FAST=1 cargo run --release -p qsm-bench --bin all
//! ```
//!
//! Environment knobs: `QSM_FAST=1` shrinks sweeps for smoke runs,
//! `QSM_REPS=k` overrides the repetition count (default 3; the paper
//! used 10), `QSM_RESULTS_DIR` redirects the CSV output directory
//! (default `./results`), and `QSM_JOBS=k` sizes the [`sweep`] worker
//! pool that runs independent measurement points concurrently
//! (default `available_parallelism() / p`; `QSM_JOBS=1` is fully
//! serial). Results are identical for every `QSM_JOBS` value.
//! `QSM_BACKEND=sim|threads` (see [`backend`]) selects the
//! [`qsm_core::Machine`] the algorithm figures run on — the
//! deterministic simulator (default) or real host threads.
//! `QSM_BANKS=b` puts `b` FIFO memory banks on every node of the
//! simulated machine and `QSM_BANK_SERVICE=c` tunes their per-byte
//! service cost in cycles (see [`backend::env_banks`]; unset or `0`
//! banks keeps the exact bank-free arithmetic, so all default CSVs
//! are unchanged).
//!
//! Observability knobs (see [`obs`]): `QSM_TRACE=path.json` captures
//! a Perfetto trace of the run, `QSM_METRICS=path.json` dumps the
//! run-wide metrics registry (byte-stable across `QSM_JOBS`),
//! `QSM_PROGRESS=1` reports per-point sweep durations (with a running
//! ETA) on stderr, and `QSM_RUN_LOG=path.jsonl` keeps a durable
//! per-point run journal (see [`journal`]): claim + completion
//! records with each point's [`replay::Replay`]-encoded result.
//! `QSM_RESUME=1` turns a rerun against the same journal into a
//! crash resume — completed points replay from the ledger bit-exactly
//! and only unfinished points execute — and `QSM_JOURNAL_SYNC=0`
//! trades the journal's per-record `fdatasync` durability for speed.
//! The `explain` binary prints a phase-by-phase measured-vs-predicted
//! breakdown for one algorithm configuration.

#![deny(missing_docs)]

pub mod backend;
pub mod figures;
pub mod journal;
mod jsonl;
mod knob;
pub mod obs;
pub mod output;
pub mod replay;
pub mod stats;
pub mod sweep;

use std::path::PathBuf;

pub use knob::{env_usize, parse_usize_knob};

/// Common sweep configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunCfg {
    /// Simulated processors (paper default: 16).
    pub p: usize,
    /// Repetitions per measurement point.
    pub reps: usize,
    /// Fast mode: smaller maximum problem sizes.
    pub fast: bool,
}

impl RunCfg {
    /// Read configuration from the environment.
    pub fn from_env() -> Self {
        let fast = std::env::var("QSM_FAST").map(|v| v != "0").unwrap_or(false);
        let reps = env_usize("QSM_REPS").unwrap_or(if fast { 1 } else { 3 });
        Self { p: 16, reps, fast }
    }

    /// A fast configuration for tests.
    pub fn fast() -> Self {
        Self { p: 8, reps: 1, fast: true }
    }

    /// The problem-size sweep (powers of two, as in the figures).
    pub fn sizes(&self) -> Vec<usize> {
        let max_log = if self.fast { 16 } else { 21 };
        (12..=max_log).map(|k| 1usize << k).collect()
    }

    /// Seed for repetition `rep` of a sweep point.
    pub fn seed(&self, point: usize, rep: usize) -> u64 {
        0x1998_0021u64.wrapping_add((point as u64) << 32).wrapping_add(rep as u64)
    }
}

/// Directory CSV artifacts are written into.
pub fn results_dir() -> PathBuf {
    std::env::var("QSM_RESULTS_DIR").map(PathBuf::from).unwrap_or_else(|_| PathBuf::from("results"))
}

/// A rendered experiment: human-readable text plus a CSV artifact.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment identifier (`fig1`, `table3`, ...).
    pub id: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Aligned text table(s) for the terminal.
    pub text: String,
    /// CSV payload.
    pub csv: String,
}

impl Report {
    /// Print the report and persist the CSV under
    /// [`results_dir`]`/<id>.csv`. IO errors are reported, not fatal.
    pub fn emit(&self) {
        println!("== {} — {} ==", self.id, self.title);
        println!("{}", self.text);
        let dir = results_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{}.csv", self.id));
        if let Err(e) = std::fs::write(&path, &self.csv) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            println!("[csv written to {}]\n", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_doubling_powers() {
        let cfg = RunCfg { p: 16, reps: 3, fast: false };
        let sizes = cfg.sizes();
        assert_eq!(*sizes.first().unwrap(), 1 << 12);
        assert_eq!(*sizes.last().unwrap(), 1 << 21);
        for w in sizes.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }

    #[test]
    fn fast_mode_shrinks_sweep() {
        assert!(
            RunCfg::fast().sizes().len() < RunCfg { p: 16, reps: 3, fast: false }.sizes().len()
        );
    }

    #[test]
    fn seeds_differ_across_points_and_reps() {
        let cfg = RunCfg::fast();
        assert_ne!(cfg.seed(0, 0), cfg.seed(0, 1));
        assert_ne!(cfg.seed(0, 0), cfg.seed(1, 0));
    }

    #[test]
    fn usize_knobs_parse_strictly_but_warn_not_panic() {
        // `knob` owns the exhaustive tests; this pins the crate-root
        // API. Fake knob names: the warned-once registry is process
        // global.
        assert_eq!(parse_usize_knob("QSM_TEST_KNOB_BENCH", Some("8")), Some(8));
        assert_eq!(parse_usize_knob("QSM_TEST_KNOB_BENCH", Some("abc")), None);
        assert_eq!(parse_usize_knob("QSM_TEST_KNOB_BENCH", None), None);
    }
}
