//! # qsm-bench — the experiment harness
//!
//! One module per table and figure of the paper's evaluation
//! ([`figures`]), each regenerating the rows/series the paper reports
//! as an aligned text table and a CSV (on our simulated substrate —
//! see DESIGN.md for the substitution notes and EXPERIMENTS.md for
//! paper-vs-measured comparisons). A figure is the library function
//! `figures::<id>::run(&RunCfg) -> Report`, which the integration
//! tests and the `benchmark/` crate call; each binary in `src/bin` is
//! one call of [`run_figures`] — `all` with the 17 figures in order,
//! the others with their one:
//!
//! ```text
//! cargo run --release -p qsm-bench --bin fig2_samplesort
//! QSM_FAST=1 cargo run --release -p qsm-bench --bin all
//! ```
//!
//! The one other binary, `explain`, prints the instrumented
//! phase-by-phase measured-vs-predicted breakdown of one algorithm
//! run; it picks the kernel through [`figures::run_kernel`], as
//! `ext_topology` does. Host performance is measured by the
//! standalone `benchmark/` crate (see `benchmark/README.md`).
//!
//! ## Knobs
//!
//! [`mod@knobs`] is the only code in the workspace that reads the
//! environment, and the workspace's `tests/code_layout.rs` fails on
//! an environment read anywhere else and on any code or test that
//! writes it: [`knobs()`] parses every `QSM_*` variable once per
//! process and every reader takes its field from the result.
//! [`Knobs::NAMES`](knobs::Knobs::NAMES) lists the 12 knobs, and
//! `tests/knob_names.rs` holds the documents to that list. The
//! [`ResultKnobs`](knobs::ResultKnobs) — backend, banks and topology —
//! decide a result; the rest decide only how a run goes (workers, the
//! panic drill, output paths, `explain`'s selection).
//! Figures take their [`RunCfg`] (`QSM_FAST`) as a parameter and read
//! the rest ambiently, since `figures::*::run(&RunCfg)` is the
//! benchmark's fixed entry point. Tests that need other knobs either call
//! [`Knobs::parse`](knobs::Knobs::parse) over a map or run a binary as
//! a subprocess; none mutates its own environment.
//!
//! ## Modules
//!
//! * [`figures`] — one module per table and figure, and what several
//!   of them share: the kernels by name, the estimate sweep of
//!   Figures 2–3 and the crossover figure of Figures 5–6.
//! * [`mod@knobs`] — every `QSM_*` variable, parsed once (above).
//! * [`sweep`] — fans a figure's independent points across a `QSM_JOBS`
//!   worker pool and reassembles them in input order, so tables are
//!   byte-identical to a serial run.
//! * [`backend`] — resolves `QSM_BACKEND=sim|threads` into a
//!   [`qsm_core::AnyMachine`] factory ([`backend::Backend::machine`]):
//!   figures 1–3 and `explain` honour it; the machine-configuration
//!   sweeps warn and stay on sim.
//! * [`obs`] — installs the global recorder from `QSM_TRACE` /
//!   `QSM_METRICS` and writes the artifacts when the binary ends.
//! * [`output`] — text-table and CSV rendering, which a figure reaches
//!   through [`Report::table`].
//! * [`stats`] — small statistics helpers for repeated measurements.

#![deny(missing_docs)]

pub mod backend;
pub mod figures;
pub mod knobs;
pub mod obs;
pub mod output;
pub mod stats;
pub mod sweep;

pub use knobs::knobs;

/// Run `figures` in order under the environment's [`RunCfg`], with
/// the `QSM_TRACE` / `QSM_METRICS` capture around them: each prints
/// its report and writes its CSV ([`Report::emit`]). Exits nonzero
/// after the last one if any sweep dropped points
/// ([`sweep::exit_if_degraded`]). Every figure binary is one call of
/// this: `all` with the whole list, the others with their one figure.
pub fn run_figures(figures: &[fn(&RunCfg) -> Report]) {
    let obs = obs::ObsSink::from_env();
    let cfg = RunCfg::from_env();
    for run in figures {
        run(&cfg).emit();
    }
    obs.finalize();
    sweep::exit_if_degraded();
}

/// Common sweep configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunCfg {
    /// Simulated processors (paper default: 16).
    pub p: usize,
    /// Repetitions per measurement point (3; 1 in fast mode).
    pub reps: usize,
    /// Fast mode: smaller maximum problem sizes.
    pub fast: bool,
}

impl RunCfg {
    /// The configuration `QSM_FAST` selects.
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
    /// A report whose text and CSV are both `headers` over `rows`
    /// ([`output::table`], [`output::csv`]).
    pub fn table(
        id: &'static str,
        title: &'static str,
        headers: &[&str],
        rows: &[Vec<String>],
    ) -> Self {
        Report { id, title, text: output::table(headers, rows), csv: output::csv(headers, rows) }
    }

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
}
