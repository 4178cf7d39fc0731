//! Runtime backend selection for the experiment harness.
//!
//! `QSM_BACKEND=sim` (default) runs measurement programs on the
//! simulated machine; `QSM_BACKEND=threads` runs them on real host
//! threads through the same generic [`qsm_core::Machine`] pipeline.
//! The algorithm figures (fig1–fig3) honour the selection; figures
//! whose *experiment* is parameterized over simulated machine
//! configurations (latency sweeps, fabric ablations, the model
//! tables) always run on sim and say so on stderr when a different
//! backend was requested.

use qsm_core::{AnyMachine, SimMachine, ThreadMachine};
use qsm_simnet::{BankModel, CpuConfig, MachineConfig, TopologyKind};

use crate::knob::warn_once;

/// Which [`qsm_core::Machine`] the harness runs programs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The simulated machine: deterministic, priced in simulated
    /// cycles at the paper's 400 MHz clock. The default.
    Sim,
    /// Real host threads, priced by the wall clock in nanoseconds.
    Threads,
}

impl Backend {
    /// Parse a `QSM_BACKEND` value. Empty selects the default.
    pub fn parse(v: &str) -> Option<Backend> {
        match v.trim() {
            "" | "sim" => Some(Backend::Sim),
            "threads" => Some(Backend::Threads),
            _ => None,
        }
    }

    /// Read `QSM_BACKEND` (default [`Backend::Sim`]); exit with a
    /// diagnostic on an unknown value.
    pub fn from_env() -> Backend {
        match std::env::var("QSM_BACKEND") {
            Err(_) => Backend::Sim,
            Ok(v) => Backend::parse(&v).unwrap_or_else(|| {
                eprintln!("unknown QSM_BACKEND '{v}' (want sim or threads)");
                std::process::exit(2);
            }),
        }
    }

    /// Short stable name (matches [`qsm_core::Machine::backend_name`]).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Threads => "threads",
        }
    }

    /// Build the machine for one measurement run. On the threads
    /// backend, `cfg` becomes the reference machine its
    /// [`qsm_core::CostReport`] predictions are computed against.
    ///
    /// When the `QSM_BANKS` knob enables a destination-bank model and
    /// `cfg` does not already carry one, it is installed here — so any
    /// figure's machine can be rerun with banked memory without code
    /// changes. A config that chose its own bank model wins. The
    /// `QSM_TOPOLOGY`/`QSM_LINK_GAP` knobs install a fabric topology
    /// under the same rule (`flat` and unset leave the config alone —
    /// the exact contention-free arithmetic).
    pub fn machine(self, cfg: MachineConfig, seed: u64) -> AnyMachine {
        let cfg = match (env_banks(), cfg.net.banks) {
            (Some(b), None) => cfg.with_banks(b),
            _ => cfg,
        };
        let cfg = match (env_topology(cfg.p), cfg.net.topology) {
            (Some(t), TopologyKind::Flat) if t != TopologyKind::Flat => {
                let cfg = cfg.with_topology(t);
                match env_link_gap() {
                    Some(g) => cfg.with_link_gap(g),
                    None => cfg,
                }
            }
            _ => cfg,
        };
        match self {
            Backend::Sim => AnyMachine::from(SimMachine::new(cfg).with_seed(seed)),
            Backend::Threads => {
                AnyMachine::from(ThreadMachine::new(cfg.p).with_model_config(cfg).with_seed(seed))
            }
        }
    }

    /// Ticks per second of the backend's time unit: the simulated
    /// clock rate for sim, nanoseconds for threads. Used to label
    /// observability timestamps.
    pub fn clock_hz(self) -> f64 {
        match self {
            Backend::Sim => CpuConfig::default_1998().clock_hz,
            Backend::Threads => 1e9,
        }
    }

    /// Convert a measured [`qsm_core::RunResult`] timing (simulated
    /// cycles or host nanoseconds) to microseconds.
    pub fn us(self, t: f64) -> f64 {
        match self {
            Backend::Sim => crate::output::us_at_400mhz(t),
            Backend::Threads => t / 1000.0,
        }
    }
}

/// Cycles of bank service per wire byte when `QSM_BANK_SERVICE` is
/// unset: 4× the wire gap, so a bank drains slower than the NIC
/// ingests and same-bank pileups actually queue (a bank at or below
/// the wire rate can never be the bottleneck behind a 3 c/B NIC).
pub const DEFAULT_BANK_SERVICE: usize = 12;

/// The destination-bank model selected by the environment:
/// `QSM_BANKS=b` puts `b` FIFO banks on every node (`0` or unset
/// keeps banks off — the exact pre-bank arithmetic), and
/// `QSM_BANK_SERVICE=c` sets the per-byte service cost in cycles
/// (default [`DEFAULT_BANK_SERVICE`]). Both parse through the
/// warn-once [`crate::parse_usize_knob`] path.
pub fn env_banks() -> Option<BankModel> {
    banks_from_knobs(crate::env_usize("QSM_BANKS"), crate::env_usize("QSM_BANK_SERVICE"))
}

/// Pure half of [`env_banks`]: combine the two parsed knob values.
pub fn banks_from_knobs(banks: Option<usize>, service: Option<usize>) -> Option<BankModel> {
    let banks = banks.unwrap_or(0);
    if banks == 0 {
        return None;
    }
    Some(BankModel {
        banks_per_node: banks,
        service_fixed: 0.0,
        service_per_byte: service.unwrap_or(DEFAULT_BANK_SERVICE) as f64,
    })
}

/// Maximum swept offered load of the `ext_service` experiment when
/// `QSM_SERVICE_LOAD` is unset, as a percentage of the utilization
/// model's predicted capacity: the sweep's evenly spaced points then
/// straddle the saturation knee (ρ = 1 = 100%) with margin on both
/// sides.
pub const DEFAULT_SERVICE_LOAD_PCT: usize = 200;

/// Logical client population when `QSM_SERVICE_CLIENTS` is unset.
pub const DEFAULT_SERVICE_CLIENTS: usize = 1_000_000;

/// Hash shards per node when `QSM_SERVICE_SHARDS` is unset.
pub const DEFAULT_SERVICE_SHARDS_PER_NODE: usize = 64;

/// The serving-scenario knobs selected by the environment, all
/// through the warn-once [`crate::parse_usize_knob`] path:
/// `QSM_SERVICE_LOAD` (max swept offered load, % of predicted
/// capacity), `QSM_SERVICE_CLIENTS` (logical client population),
/// `QSM_SERVICE_SHARDS` (hash shards per node), and
/// `QSM_SERVICE_ADMISSION` (admission-control backlog limit in
/// cycles; `0` or unset runs open-loop with no shedding).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceKnobs {
    /// Maximum swept offered load, percent of predicted capacity.
    pub load_pct: usize,
    /// Logical client population.
    pub clients: u64,
    /// Hash shards per node.
    pub shards_per_node: usize,
    /// Admission-control backlog limit in cycles (`None` = off).
    pub admission: Option<f64>,
}

/// Read the `QSM_SERVICE_*` knobs (see [`ServiceKnobs`]).
pub fn env_service() -> ServiceKnobs {
    service_from_knobs(
        crate::env_usize("QSM_SERVICE_LOAD"),
        crate::env_usize("QSM_SERVICE_CLIENTS"),
        crate::env_usize("QSM_SERVICE_SHARDS"),
        crate::env_usize("QSM_SERVICE_ADMISSION"),
    )
}

/// Pure half of [`env_service`]: combine the four parsed knob values.
/// A `0` (like an unset or unparseable knob) selects each default —
/// except admission, where `0`/unset means "no admission control".
pub fn service_from_knobs(
    load: Option<usize>,
    clients: Option<usize>,
    shards: Option<usize>,
    admission: Option<usize>,
) -> ServiceKnobs {
    ServiceKnobs {
        load_pct: load.filter(|&v| v > 0).unwrap_or(DEFAULT_SERVICE_LOAD_PCT),
        clients: clients.filter(|&v| v > 0).unwrap_or(DEFAULT_SERVICE_CLIENTS) as u64,
        shards_per_node: shards.filter(|&v| v > 0).unwrap_or(DEFAULT_SERVICE_SHARDS_PER_NODE),
        admission: admission.filter(|&v| v > 0).map(|v| v as f64),
    }
}

/// The fabric topology selected by the environment for a `p`-node
/// machine: `QSM_TOPOLOGY` names the routing stage — `flat` (the
/// default contention-free wire), `line`, `mesh`/`mesh2d`,
/// `torus`/`torus2d` (optionally with explicit `:RxC` axes, e.g.
/// `torus:4x4`), or `fattree`. Unset, empty, and `flat` all mean "no
/// link stage" (`None`), and an unusable value warns once and falls
/// back to that — never panics mid-run.
pub fn env_topology(p: usize) -> Option<TopologyKind> {
    topology_from_knob(std::env::var("QSM_TOPOLOGY").ok().as_deref(), p)
}

/// Pure half of [`env_topology`]: parse one knob value.
pub fn topology_from_knob(raw: Option<&str>, p: usize) -> Option<TopologyKind> {
    let v = raw?.trim();
    if v.is_empty() {
        return None;
    }
    let (name, dims) = match v.split_once(':') {
        Some((n, d)) => (n.trim(), Some(d.trim())),
        None => (v, None),
    };
    let axes = |d: &str| -> Option<(usize, usize)> {
        let (r, c) = d.split_once('x')?;
        Some((r.trim().parse().ok()?, c.trim().parse().ok()?))
    };
    let kind = match (name, dims) {
        ("flat", None) => Some(TopologyKind::Flat),
        ("line", None) => Some(TopologyKind::Line),
        ("fattree", None) => Some(TopologyKind::FatTree),
        ("mesh" | "mesh2d", None) => Some(TopologyKind::mesh(p)),
        ("torus" | "torus2d", None) => Some(TopologyKind::torus(p)),
        ("mesh" | "mesh2d", Some(d)) => {
            axes(d).map(|(rows, cols)| TopologyKind::Mesh2d { rows, cols })
        }
        ("torus" | "torus2d", Some(d)) => {
            axes(d).map(|(rows, cols)| TopologyKind::Torus2d { rows, cols })
        }
        _ => None,
    };
    let Some(kind) = kind else {
        warn_once(
            "QSM_TOPOLOGY",
            format_args!(
                "ignoring unparseable QSM_TOPOLOGY={v:?} (want flat, line, \
                 mesh[:RxC], torus[:RxC], or fattree); using the flat wire"
            ),
        );
        return None;
    };
    if let TopologyKind::Mesh2d { rows, cols } | TopologyKind::Torus2d { rows, cols } = kind {
        if rows == 0 || cols == 0 || rows * cols != p {
            warn_once(
                "QSM_TOPOLOGY",
                format_args!(
                    "ignoring QSM_TOPOLOGY={v:?}: grid {rows}x{cols} does not tile \
                     p = {p} nodes; using the flat wire"
                ),
            );
            return None;
        }
    }
    Some(kind)
}

/// The per-byte fabric-link gap override: `QSM_LINK_GAP=c` sets each
/// directed link's serialization cost to `c` cycles per byte (float;
/// default = the machine's NIC gap). Honoured only when a non-flat
/// `QSM_TOPOLOGY` installs a link stage.
pub fn env_link_gap() -> Option<f64> {
    let raw = std::env::var("QSM_LINK_GAP").ok()?;
    let v = raw.trim();
    if v.is_empty() {
        return None;
    }
    match v.parse::<f64>() {
        Ok(g) if g.is_finite() && g >= 0.0 => Some(g),
        _ => {
            warn_once(
                "QSM_LINK_GAP",
                format_args!(
                    "ignoring unparseable QSM_LINK_GAP={v:?} (expected a \
                     non-negative number of cycles per byte); using the NIC gap"
                ),
            );
            None
        }
    }
}

/// Announce that a figure is parameterized over *simulated* machine
/// configurations and therefore ignores a non-sim `QSM_BACKEND`.
pub fn warn_sim_only(id: &str) {
    if Backend::from_env() != Backend::Sim {
        eprintln!(
            "[{id}] experiment is parameterized over simulated machine configurations; \
             ignoring QSM_BACKEND and running on sim"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsm_core::Machine;

    #[test]
    fn parse_accepts_known_names() {
        assert_eq!(Backend::parse("sim"), Some(Backend::Sim));
        assert_eq!(Backend::parse("threads"), Some(Backend::Threads));
        assert_eq!(Backend::parse(" threads "), Some(Backend::Threads));
        assert_eq!(Backend::parse(""), Some(Backend::Sim));
        assert_eq!(Backend::parse("cuda"), None);
    }

    #[test]
    fn machines_carry_backend_identity() {
        let cfg = MachineConfig::paper_default(4);
        for b in [Backend::Sim, Backend::Threads] {
            let m = b.machine(cfg, 7);
            assert_eq!(m.nprocs(), 4);
            assert_eq!(m.seed(), 7);
            assert_eq!(m.backend_name(), b.name());
        }
    }

    #[test]
    fn bank_knobs_compose_through_the_strict_parser() {
        use crate::parse_usize_knob;
        // Unset or zero banks keep the model off, whatever the
        // service knob says.
        assert_eq!(banks_from_knobs(None, None), None);
        assert_eq!(banks_from_knobs(None, Some(7)), None);
        assert_eq!(banks_from_knobs(Some(0), Some(7)), None);
        // Enabled: banks count and service rate land in the model.
        let b = banks_from_knobs(Some(8), None).unwrap();
        assert_eq!(b.banks_per_node, 8);
        assert_eq!(b.service_per_byte, DEFAULT_BANK_SERVICE as f64);
        assert_eq!(b.service_fixed, 0.0);
        assert_eq!(banks_from_knobs(Some(4), Some(30)).unwrap().service_per_byte, 30.0);
        // A garbage value goes through parse_usize_knob's warn-once
        // fallback, i.e. behaves as unset rather than panicking.
        assert_eq!(banks_from_knobs(parse_usize_knob("QSM_BANKS", Some("lots")), None), None);
    }

    #[test]
    fn service_knobs_compose_through_the_strict_parser() {
        use crate::parse_usize_knob;
        // All unset: the documented defaults, admission off.
        let d = service_from_knobs(None, None, None, None);
        assert_eq!(d.load_pct, DEFAULT_SERVICE_LOAD_PCT);
        assert_eq!(d.clients, DEFAULT_SERVICE_CLIENTS as u64);
        assert_eq!(d.shards_per_node, DEFAULT_SERVICE_SHARDS_PER_NODE);
        assert_eq!(d.admission, None);
        // Explicit values land; zero means "default" (or "off" for
        // admission), matching every other QSM_* disable convention.
        let k = service_from_knobs(Some(120), Some(5_000), Some(16), Some(30_000));
        assert_eq!(k.load_pct, 120);
        assert_eq!(k.clients, 5_000);
        assert_eq!(k.shards_per_node, 16);
        assert_eq!(k.admission, Some(30_000.0));
        assert_eq!(service_from_knobs(Some(0), Some(0), Some(0), Some(0)), d);
        // Garbage goes through parse_usize_knob's warn-once fallback:
        // it behaves as unset rather than panicking mid-run.
        let garbage = service_from_knobs(
            parse_usize_knob("QSM_SERVICE_LOAD", Some("a lot")),
            parse_usize_knob("QSM_SERVICE_CLIENTS", Some("-3")),
            parse_usize_knob("QSM_SERVICE_SHARDS", Some("4.5")),
            parse_usize_knob("QSM_SERVICE_ADMISSION", Some("")),
        );
        assert_eq!(garbage, d);
    }

    #[test]
    fn topology_knob_parses_every_shape() {
        assert_eq!(topology_from_knob(None, 16), None);
        assert_eq!(topology_from_knob(Some(""), 16), None);
        assert_eq!(topology_from_knob(Some("flat"), 16), Some(TopologyKind::Flat));
        assert_eq!(topology_from_knob(Some(" line "), 16), Some(TopologyKind::Line));
        assert_eq!(topology_from_knob(Some("fattree"), 16), Some(TopologyKind::FatTree));
        // Bare grid names tile p into the squarest factorization.
        assert_eq!(
            topology_from_knob(Some("mesh"), 16),
            Some(TopologyKind::Mesh2d { rows: 4, cols: 4 })
        );
        assert_eq!(
            topology_from_knob(Some("torus2d"), 8),
            Some(TopologyKind::Torus2d { rows: 2, cols: 4 })
        );
        // Explicit axes win, and must tile p.
        assert_eq!(
            topology_from_knob(Some("torus:2x8"), 16),
            Some(TopologyKind::Torus2d { rows: 2, cols: 8 })
        );
        assert_eq!(topology_from_knob(Some("mesh:3x3"), 16), None);
        // Garbage warns (once) and falls back to the flat wire.
        assert_eq!(topology_from_knob(Some("hypercube"), 16), None);
        assert_eq!(topology_from_knob(Some("mesh:4by4"), 16), None);
    }

    #[test]
    fn topology_knob_installs_the_link_stage() {
        // A non-flat selection lands in the machine's config the same
        // way QSM_BANKS does; `flat` leaves the config untouched.
        let cfg = MachineConfig::paper_default(4);
        let line = cfg.with_topology(TopologyKind::Line);
        assert_eq!(line.net.topology, TopologyKind::Line);
        assert_eq!(cfg.net.topology, TopologyKind::Flat);
    }

    #[test]
    fn us_conversion_matches_units() {
        // 400 cycles at 400 MHz and 1000 ns are both one microsecond.
        assert_eq!(Backend::Sim.us(400.0), 1.0);
        assert_eq!(Backend::Threads.us(1000.0), 1.0);
        // The sim conversion is the exact historical formula, so CSVs
        // are byte-identical to the pre-backend harness.
        assert_eq!(Backend::Sim.us(25_500.0), crate::output::us_at_400mhz(25_500.0));
    }
}
