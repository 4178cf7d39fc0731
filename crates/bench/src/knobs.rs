//! Every `QSM_*` knob, parsed once.
//!
//! The harness reads its environment here and nowhere else: [`knobs()`]
//! parses the process's `QSM_*` variables into one [`Knobs`] value on
//! first use, and every reader takes its field from that value. Parsed
//! once, a value it cannot use warns on stderr once and the default
//! applies, and a `QSM_*` name that is no knob warns once and is
//! ignored; only an unknown `QSM_BACKEND` is fatal (exit 2). Absent and
//! blank values mean "the default"; `QSM_FAST` is on when set to
//! anything but `0`.
//!
//! The knobs split in two. [`ResultKnobs`] holds the ones that decide
//! a result, printed in `explain`'s header. The rest decide how many
//! workers run, where output goes and what `explain` runs, never what
//! a figure's rows are. `QSM_FAST` makes up
//! [`Knobs::run`], the [`RunCfg`] every figure is handed.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use qsm_simnet::{BankModel, MachineConfig, TopologyKind};

use crate::backend::Backend;
use crate::RunCfg;

/// Cycles of bank service per wire byte, in the bank model `QSM_BANKS`
/// installs and in `ext_banks`' and `ext_service`'s: 4× the wire gap,
/// so a bank drains slower than the NIC ingests and same-bank pileups
/// actually queue (a bank at or below the wire rate can never be the
/// bottleneck behind a 3 c/B NIC).
pub const DEFAULT_BANK_SERVICE: usize = 12;

/// The harness's bank model: `banks` FIFO banks per node, each serving
/// [`DEFAULT_BANK_SERVICE`] cycles per byte and nothing per access.
pub fn bank_model(banks: usize) -> BankModel {
    BankModel {
        banks_per_node: banks,
        service_fixed: 0.0,
        service_per_byte: DEFAULT_BANK_SERVICE as f64,
    }
}

/// Every knob of the harness, parsed (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Knobs {
    /// `QSM_FAST` (smaller sweeps, one repetition per point instead of
    /// three), at the paper's `p = 16`.
    pub run: RunCfg,
    /// The knobs that decide a result.
    pub result: ResultKnobs,
    /// `QSM_JOBS`: sweep workers (default: cores / p, see [`crate::sweep`]).
    pub jobs: Option<usize>,
    /// `QSM_PANIC_POINT`: the point every sweep fails on purpose.
    pub panic_point: Option<usize>,
    /// `QSM_RESULTS_DIR`: where CSV artifacts go (default `results`).
    pub results_dir: PathBuf,
    /// `QSM_TRACE`: a writable path for the Perfetto trace.
    pub trace: Option<PathBuf>,
    /// `QSM_METRICS`: a writable path for the metrics dump.
    pub metrics: Option<PathBuf>,
    /// `QSM_ALGO`: what `explain` runs (default `prefix`).
    pub algo: String,
    /// `QSM_P`: `explain`'s processor count (default 8).
    pub p: usize,
    /// `QSM_N`: `explain`'s problem size (default 65536).
    pub n: usize,
}

/// The knobs that decide a result, with their defaults applied.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultKnobs {
    /// `QSM_BACKEND=sim|threads` (default sim).
    pub backend: Backend,
    /// `QSM_BANKS`: FIFO banks per node (default 0: bank-free).
    pub banks: usize,
    /// `QSM_TOPOLOGY` as written — `line`, `fattree`, `mesh`/`mesh2d`
    /// or `torus`/`torus2d`; `None` is the flat wire.
    /// [`ResultKnobs::topology_at`] resolves it.
    pub topology: Option<String>,
}

impl ResultKnobs {
    /// The bank model `QSM_BANKS` selects (`None` when it is `0`):
    /// [`bank_model`] of that many banks.
    pub fn bank_model(&self) -> Option<BankModel> {
        (self.banks > 0).then(|| bank_model(self.banks))
    }

    /// The routed topology on a `p`-node machine: a grid name tiles `p`
    /// as squarely as it can.
    pub fn topology_at(&self, p: usize) -> Option<TopologyKind> {
        topology_kind(self.topology.as_deref()?, p)
    }

    /// `cfg` with the bank model and routed topology these knobs select
    /// installed where `cfg` chose none: a config that chose its own
    /// bank model or fabric wins. The knobs' links run at the NIC gap.
    pub fn apply(&self, cfg: MachineConfig) -> MachineConfig {
        let cfg = match (self.bank_model(), cfg.net.banks) {
            (Some(b), None) => cfg.with_banks(b),
            _ => cfg,
        };
        match (self.topology_at(cfg.p), cfg.net.topology) {
            (Some(t), TopologyKind::Flat) => cfg.with_topology(t),
            _ => cfg,
        }
    }
}

impl Knobs {
    /// Every knob's name.
    pub const NAMES: [&'static str; 12] = [
        "QSM_FAST",
        "QSM_BACKEND",
        "QSM_BANKS",
        "QSM_TOPOLOGY",
        "QSM_JOBS",
        "QSM_PANIC_POINT",
        "QSM_RESULTS_DIR",
        "QSM_TRACE",
        "QSM_METRICS",
        "QSM_ALGO",
        "QSM_P",
        "QSM_N",
    ];

    /// Parse the knobs from `vars` (name → value), warning about every
    /// value it cannot use and every `QSM_*` name that is no knob, and
    /// exiting with status 2 on an unknown `QSM_BACKEND`. Probes each
    /// output path by opening it for appending.
    pub fn parse(vars: &HashMap<String, String>) -> Knobs {
        let mut unknown: Vec<&str> = vars
            .keys()
            .map(String::as_str)
            .filter(|k| k.starts_with("QSM_") && !Self::NAMES.contains(k))
            .collect();
        unknown.sort_unstable();
        for name in unknown {
            eprintln!("warning: ignoring unknown knob {name}");
        }
        let get = |name: &str| vars.get(name).map(String::as_str);
        let number = |name: &str| {
            let hint = "expected a non-negative integer";
            parsed(name, get(name), hint, "using the default", |v| v.parse::<usize>().ok())
        };
        // `explain` builds no machine of 0 processors and no list of 0
        // nodes: there, 0 is no more usable than garbage.
        let positive = |name: &str| {
            let hint = "expected a positive integer";
            parsed(name, get(name), hint, "using the default", |v| {
                v.parse().ok().filter(|&n| n > 0)
            })
        };
        let path = |name: &str, what: &str| writable(name, what, get(name));

        let fast = get("QSM_FAST").is_some_and(|v| v != "0");
        let backend = match get("QSM_BACKEND").map(|v| (v, v.trim())) {
            None | Some((_, "" | "sim")) => Backend::Sim,
            Some((_, "threads")) => Backend::Threads,
            Some((v, _)) => {
                eprintln!("unknown QSM_BACKEND '{v}' (want sim or threads)");
                std::process::exit(2);
            }
        };
        let topology = parsed(
            "QSM_TOPOLOGY",
            get("QSM_TOPOLOGY"),
            "want flat, line, mesh, torus, or fattree",
            "using the flat wire",
            |v| Some((topology_kind(v, 1)? != TopologyKind::Flat).then(|| v.to_string())),
        );
        Knobs {
            run: RunCfg { p: 16, reps: if fast { 1 } else { 3 }, fast },
            result: ResultKnobs {
                backend,
                banks: number("QSM_BANKS").unwrap_or(0),
                topology: topology.flatten(),
            },
            jobs: number("QSM_JOBS"),
            panic_point: number("QSM_PANIC_POINT"),
            results_dir: PathBuf::from(get("QSM_RESULTS_DIR").unwrap_or("results")),
            trace: path("QSM_TRACE", "trace"),
            metrics: path("QSM_METRICS", "metrics"),
            algo: get("QSM_ALGO").unwrap_or("prefix").to_string(),
            p: positive("QSM_P").unwrap_or(8),
            n: positive("QSM_N").unwrap_or(1 << 16),
        }
    }
}

/// The process's knobs, parsed from its environment on first use. A
/// variable whose value is not Unicode counts as unset.
pub fn knobs() -> &'static Knobs {
    static KNOBS: OnceLock<Knobs> = OnceLock::new();
    KNOBS.get_or_init(|| {
        let vars = std::env::vars_os()
            .filter_map(|(k, v)| Some((k.into_string().ok()?, v.into_string().ok()?)))
            .filter(|(k, _)| k.starts_with("QSM_"))
            .collect();
        Knobs::parse(&vars)
    })
}

/// Knob `name`'s value through `parse`: `None` when absent or blank,
/// and — after a warning naming the value, what was `wanted` and the
/// `fallback` — when `parse` rejects it.
fn parsed<T>(
    name: &str,
    raw: Option<&str>,
    wanted: &str,
    fallback: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let v = raw?.trim();
    if v.is_empty() {
        return None;
    }
    let value = parse(v);
    if value.is_none() {
        eprintln!("warning: ignoring unparseable {name}={v:?} ({wanted}); {fallback}");
    }
    value
}

/// `QSM_TOPOLOGY`'s names, on a `p`-node machine.
fn topology_kind(v: &str, p: usize) -> Option<TopologyKind> {
    match v {
        "flat" => Some(TopologyKind::Flat),
        "line" => Some(TopologyKind::Line),
        "fattree" => Some(TopologyKind::FatTree),
        "mesh" | "mesh2d" => Some(TopologyKind::mesh(p)),
        "torus" | "torus2d" => Some(TopologyKind::torus(p)),
        _ => None,
    }
}

/// A path-valued knob, probed by opening it for appending (creating it
/// if absent). An unusable path warns and disables that capture, rather
/// than failing at finalize time after the measurement was spent.
fn writable(name: &str, what: &str, raw: Option<&str>) -> Option<PathBuf> {
    let path = PathBuf::from(raw.filter(|v| !v.is_empty())?);
    match std::fs::OpenOptions::new().create(true).append(true).open(&path) {
        Ok(_) => Some(path),
        Err(e) => {
            eprintln!(
                "warning: ignoring unusable {name}={:?} (cannot open for writing: {e}); \
                 {what} capture disabled",
                path.display()
            );
            None
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The knobs `pairs` select, as if they were the environment.
    pub(crate) fn parse(pairs: &[(&str, &str)]) -> Knobs {
        Knobs::parse(&pairs.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect())
    }

    #[test]
    fn defaults_are_the_documented_ones() {
        let k = parse(&[]);
        assert_eq!(k.run, RunCfg { p: 16, reps: 3, fast: false });
        let r = &k.result;
        assert_eq!((r.backend, r.banks, r.topology.as_deref()), (Backend::Sim, 0, None));
        assert_eq!((k.jobs, k.panic_point), (None, None));
        assert_eq!(k.results_dir, PathBuf::from("results"));
        assert_eq!((k.trace, k.metrics), (None, None));
        assert_eq!((k.algo.as_str(), k.p, k.n), ("prefix", 8, 65536));
        // `QSM_FAST` is on at anything but `0`; fast mode drops to one rep.
        let k = parse(&[("QSM_FAST", "")]);
        assert_eq!(k.run, RunCfg { p: 16, reps: 1, fast: true });
        assert!(parse(&[("QSM_FAST", "yes")]).run.fast);
        assert!(!parse(&[("QSM_FAST", "0")]).run.fast);
    }

    #[test]
    fn usize_knobs_parse_strictly_but_warn_not_panic() {
        let jobs = |v: &str| parse(&[("QSM_JOBS", v)]).jobs;
        assert_eq!(jobs(""), None);
        assert_eq!(jobs("   "), None);
        assert_eq!(jobs("8"), Some(8));
        assert_eq!(jobs(" 12 "), Some(12));
        // Garbage and negative numbers warn and fall back to the default.
        assert_eq!(jobs("abc"), None);
        assert_eq!(jobs("-3"), None);
        // `explain` cannot build a machine of no processors or a list
        // of no nodes.
        let p = |v: &str| parse(&[("QSM_P", v)]).p;
        assert_eq!((p("4"), p("0"), p("-1")), (4, 8, 8));
        let n = |v: &str| parse(&[("QSM_N", v)]).n;
        assert_eq!((n("1024"), n("0")), (1024, 65536));
    }
}
