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
use qsm_simnet::{MachineConfig, CLOCK_HZ};

use crate::knobs::knobs;

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
    /// Build the machine for one measurement run. On the threads
    /// backend, `cfg` becomes the reference machine its
    /// [`qsm_core::CostReport`] predictions are computed against.
    ///
    /// The bank and topology knobs extend `cfg` where it chose no bank
    /// model or fabric of its own ([`crate::knobs::ResultKnobs::apply`]),
    /// so any figure's machine can be rerun banked or routed without
    /// code changes.
    pub fn machine(self, cfg: MachineConfig, seed: u64) -> AnyMachine {
        let cfg = knobs().result.apply(cfg);
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
            Backend::Sim => CLOCK_HZ,
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

/// Announce that a figure is parameterized over *simulated* machine
/// configurations and therefore ignores a non-sim `QSM_BACKEND`.
pub fn warn_sim_only(id: &str) {
    if knobs().result.backend != Backend::Sim {
        eprintln!(
            "[{id}] experiment is parameterized over simulated machine configurations; \
             ignoring QSM_BACKEND and running on sim"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::{ResultKnobs, DEFAULT_BANK_SERVICE};
    use qsm_core::Machine;
    use qsm_simnet::TopologyKind;

    fn parse(pairs: &[(&str, &str)]) -> ResultKnobs {
        crate::knobs::tests::parse(pairs).result
    }

    #[test]
    fn parse_accepts_known_names() {
        // An unknown name exits the process (`explain_knobs.rs`).
        let backend = |v: &str| parse(&[("QSM_BACKEND", v)]).backend;
        assert_eq!(backend("sim"), Backend::Sim);
        assert_eq!(backend("threads"), Backend::Threads);
        assert_eq!(backend(" threads "), Backend::Threads);
        assert_eq!(backend(""), Backend::Sim);
        assert_eq!(parse(&[]).backend, Backend::Sim);
    }

    #[test]
    fn machines_carry_backend_identity() {
        let cfg = MachineConfig::paper_default(4);
        for (b, name) in [(Backend::Sim, "sim"), (Backend::Threads, "threads")] {
            let m = b.machine(cfg, 7);
            assert_eq!(m.nprocs(), 4);
            assert_eq!(m.seed(), 7);
            assert_eq!(m.backend_name(), name);
        }
    }

    #[test]
    fn bank_knobs_compose_through_the_strict_parser() {
        // Unset or zero banks keep the model off.
        assert_eq!(parse(&[]).bank_model(), None);
        assert_eq!(parse(&[("QSM_BANKS", "0")]).bank_model(), None);
        // Enabled: the bank count lands in the model.
        let b = parse(&[("QSM_BANKS", "8")]).bank_model().unwrap();
        assert_eq!(b.banks_per_node, 8);
        assert_eq!(b.service_per_byte, DEFAULT_BANK_SERVICE as f64);
        assert_eq!(b.service_fixed, 0.0);
        // A garbage value warns and behaves as unset.
        assert_eq!(parse(&[("QSM_BANKS", "lots")]).bank_model(), None);
    }

    #[test]
    fn topology_knob_parses_every_shape() {
        let topo = |v: &str, p| parse(&[("QSM_TOPOLOGY", v)]).topology_at(p);
        assert_eq!(parse(&[]).topology, None);
        assert_eq!(topo("", 16), None);
        assert_eq!(topo("flat", 16), None);
        assert_eq!(topo(" line ", 16), Some(TopologyKind::Line));
        assert_eq!(topo("fattree", 16), Some(TopologyKind::FatTree));
        // Grid names tile p into the squarest factorization.
        assert_eq!(topo("mesh", 16), Some(TopologyKind::Mesh2d { rows: 4, cols: 4 }));
        assert_eq!(topo("torus2d", 8), Some(TopologyKind::Torus2d { rows: 2, cols: 4 }));
        // Garbage warns and falls back to the flat wire.
        assert_eq!(topo("hypercube", 16), None);
        assert_eq!(topo("mesh:4x4", 16), None);
    }

    #[test]
    fn topology_knob_installs_the_link_stage() {
        // A routed topology lands in a config that chose none; a config
        // that chose its own fabric keeps it.
        let knobs = parse(&[("QSM_TOPOLOGY", "line")]);
        let plain = MachineConfig::paper_default(16);
        let routed = knobs.apply(plain);
        assert_eq!(routed, plain.with_topology(TopologyKind::Line));
        let fabric = plain.with_fabric(3.0);
        assert_eq!(knobs.apply(fabric), fabric);
        assert_eq!(parse(&[]).apply(plain), plain);
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
