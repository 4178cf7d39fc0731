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
//! Every `QSM_*` environment knob is parsed once, by [`knobs()`]: see
//! [`knobs::Knobs`] for what each selects and README for the table.
//! The `explain` binary prints a phase-by-phase measured-vs-predicted
//! breakdown for one algorithm configuration.

#![deny(missing_docs)]

pub mod backend;
pub mod figures;
pub mod journal;
mod jsonl;
pub mod knobs;
pub mod obs;
pub mod output;
pub mod replay;
pub mod stats;
pub mod sweep;

pub use knobs::knobs;

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
    /// The configuration `QSM_FAST` and `QSM_REPS` select.
    pub fn from_env() -> Self {
        knobs().run.clone()
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
    /// `QSM_RESULTS_DIR/<id>.csv`. IO errors are reported, not fatal.
    pub fn emit(&self) {
        println!("== {} — {} ==", self.id, self.title);
        println!("{}", self.text);
        let dir = &knobs().results_dir;
        if let Err(e) = std::fs::create_dir_all(dir) {
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
impl RunCfg {
    /// A fast configuration for tests.
    pub(crate) fn fast() -> Self {
        Self { p: 8, reps: 1, fast: true }
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
        // `QSM_REPS` sets the repetitions; a typo warns and leaves the
        // mode's default rather than panicking.
        let reps =
            |fast, reps| knobs::tests::parse(&[("QSM_FAST", fast), ("QSM_REPS", reps)]).run.reps;
        assert_eq!(reps("0", "8"), 8);
        assert_eq!(reps("0", "abc"), 3);
        assert_eq!(reps("1", "abc"), 1);
    }
}
