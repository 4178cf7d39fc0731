//! Extension experiment: routed multi-hop fabrics vs the flat wire.
//!
//! The paper's simulator delivers every message over a flat,
//! contention-free wire — distance does not exist. This experiment
//! reruns the paper's three algorithms (prefix sums, sample sort,
//! list ranking) on the same machine with a routed fabric installed:
//! messages travel hop-by-hop over a fat tree, a 2-D torus, a 2-D
//! mesh, and a line, each directed link a FIFO serializing at the
//! NIC gap and each topology's wire latency split evenly over its
//! diameter (so the *longest* route costs exactly the flat wire's
//! `l` of pure latency — what changes is link sharing, not the
//! latency budget).
//!
//! Links are provisioned at [`LINK_GAP_FACTOR`]× the wire gap. At
//! the NIC's own 3 c/B the fabric is invisible: the paper's software
//! costs (Table 3's effective gap, ~35 c/B) throttle every endpoint
//! far below wire speed, so no link ever queues — topology-blindness
//! is *justified* for a full-bandwidth fabric, exactly the Brewer &
//! Kuszmaul argument the paper leans on. The interesting regime is a fabric provisioned
//! below the software's effective bandwidth (the same reasoning that
//! sets the bank-model service rate): there, link sharing bites.
//!
//! Expected shape: the `vs_flat` drift column grows with topology
//! diameter. The fat tree (diameter 2, per-node up/down links) stays
//! closest to the flat wire; the grids pay for their limited
//! bisection; and the line's single central link carries Θ(p²) of
//! the all-to-all and dominates. The QSM prediction column is
//! identical down the rows of one algorithm — topology is exactly
//! the machine detail the model abstracts away, and the drift column
//! is the price of that abstraction at fixed g, l, o.

use qsm_core::{Machine, SimMachine};
use qsm_simnet::{MachineConfig, TopologyKind};

use crate::output::us_at_400mhz;
use crate::{Report, RunCfg};

/// Topologies swept, in increasing-diameter order (flat first as the
/// paper baseline).
pub fn topologies(p: usize) -> Vec<TopologyKind> {
    vec![
        TopologyKind::Flat,
        TopologyKind::FatTree,
        TopologyKind::torus(p),
        TopologyKind::mesh(p),
        TopologyKind::Line,
    ]
}

/// The three paper algorithms driven across the fabric sweep.
const ALGOS: [&str; 3] = ["prefix", "samplesort", "listrank"];

/// Processors (= fabric nodes). Pinned to the paper's default
/// machine size so the grids are square 4×4 (a 2×4 grid is too
/// degenerate for the topologies to separate).
const P: usize = 16;

/// Per-link gap as a multiple of the wire gap: 4×, so the fabric
/// drains slower than the endpoints' software can feed it and link
/// sharing actually queues (a link at or above the software's
/// effective bandwidth can never be the bottleneck — see the module
/// docs). The same rationale as
/// [`crate::knobs::DEFAULT_BANK_SERVICE`].
pub const LINK_GAP_FACTOR: f64 = 4.0;

/// What one (algorithm, topology) pipeline run produced.
struct Measured {
    comm: f64,
    link_wait: f64,
    link_util: f64,
    qsm_pred: f64,
}

/// Run one algorithm on a [`P`]-node paper-default machine carrying
/// `topo`. The input depends only on the algorithm (never the
/// topology), so the `vs_flat` ratio compares identical work.
fn measure(algo: &str, topo: TopologyKind, n: usize, seed: u64) -> Measured {
    let mut cfg = MachineConfig::paper_default(P).with_topology(topo);
    if topo != TopologyKind::Flat {
        cfg = cfg.with_link_gap(cfg.net.gap_per_byte * LINK_GAP_FACTOR);
    }
    let machine = SimMachine::new(cfg).with_seed(seed);
    let n = if algo == "listrank" { n / 4 } else { n };
    let phases = super::run_kernel(algo, &machine, n, seed).expect("ALGOS are kernels");
    let report = machine.make_report(&phases);
    Measured {
        comm: report.measured_comm.get(),
        link_wait: report.link_wait.get(),
        link_util: report.link_util,
        qsm_pred: report.qsm_comm,
    }
}

/// Run the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    crate::backend::warn_sim_only("ext_topology");
    let n = if cfg.fast { 1 << 13 } else { 1 << 16 };
    let topos = topologies(P);
    let items: Vec<(&'static str, TopologyKind)> =
        ALGOS.iter().flat_map(|&algo| topos.iter().map(move |&t| (algo, t))).collect();
    let measured =
        crate::sweep::map(P, items.clone(), |_, (algo, topo)| measure(algo, topo, n, 0x7090));
    let rows: Vec<Vec<String>> = items
        .iter()
        .zip(&measured)
        .map(|(&(algo, topo), m)| {
            // Each algorithm's flat row leads its group.
            let base = measured
                [items.iter().position(|&(a, t)| a == algo && t == TopologyKind::Flat).unwrap()]
            .comm;
            vec![
                algo.to_string(),
                topo.name().to_string(),
                topo.params(),
                topo.diameter(P).to_string(),
                format!("{:.1}", us_at_400mhz(m.comm)),
                format!("{:.3}", m.comm / base),
                format!("{:.1}", us_at_400mhz(m.link_wait)),
                format!("{:.1}", m.link_util * 100.0),
                format!("{:.1}", us_at_400mhz(m.qsm_pred)),
            ]
        })
        .collect();
    let headers = [
        "algo",
        "topology",
        "params",
        "diameter",
        "comm_us",
        "vs_flat",
        "link_wait_us",
        "max_link_util_pct",
        "qsm_pred_us",
    ];
    Report::table(
        "ext_topology",
        "extension: routed multi-hop fabrics vs the flat wire at fixed g, l, o",
        &headers,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(rep: &Report) -> Vec<Vec<String>> {
        rep.csv.lines().skip(1).map(|l| l.split(',').map(str::to_string).collect()).collect()
    }

    fn drift(rows: &[Vec<String>], algo: &str, topo: &str) -> f64 {
        rows.iter()
            .find(|r| r[0] == algo && r[1] == topo)
            .unwrap_or_else(|| panic!("missing row {algo}/{topo}"))[5]
            .parse()
            .unwrap()
    }

    #[test]
    fn drift_grows_with_diameter() {
        let rep = run(&RunCfg::fast());
        let rows = cells(&rep);
        assert_eq!(rows.len(), ALGOS.len() * topologies(P).len());
        for algo in ALGOS {
            let flat = drift(&rows, algo, "flat");
            assert!((flat - 1.0).abs() < 1e-9, "{algo}: flat must be its own baseline");
            // Drift grows outward with diameter: the fat tree
            // (diameter 2) drifts least of the routed fabrics, the
            // 4×4 grids sit between, and the line — maximum
            // diameter, Θ(p²) of the all-to-all through one central
            // link — pays the most. (The two grids are not asserted
            // against each other: the torus's shorter diameter also
            // means a larger per-hop share of the wire latency, so
            // the pair straddles.)
            let ft = drift(&rows, algo, "fattree");
            let line = drift(&rows, algo, "line");
            assert!(ft >= 1.0 - 1e-9, "{algo}: fattree beat flat: {ft}");
            assert!(line > 1.2, "{algo}: the line must visibly congest: {line}");
            for grid in ["torus2d", "mesh2d"] {
                let d = drift(&rows, algo, grid);
                assert!(d > ft * 0.999, "{algo}: {grid} {d} under fattree {ft}");
                assert!(line > d, "{algo}: line {line} must exceed {grid} {d}");
            }
        }
    }

    #[test]
    fn qsm_prediction_is_topology_blind() {
        let rep = run(&RunCfg::fast());
        let rows = cells(&rep);
        for algo in ALGOS {
            let preds: Vec<&str> =
                rows.iter().filter(|r| r[0] == algo).map(|r| r[8].as_str()).collect();
            assert!(preds.windows(2).all(|w| w[0] == w[1]), "{algo}: QSM must not see topology");
        }
    }

    #[test]
    fn flat_rows_report_no_link_stage() {
        let rep = run(&RunCfg::fast());
        for r in cells(&rep).iter().filter(|r| r[1] == "flat") {
            assert_eq!(r[6], "0.0", "flat wire has no links to wait on");
            assert_eq!(r[7], "0.0", "flat wire has no links to utilize");
        }
    }

    #[test]
    fn experiment_is_deterministic() {
        let cfg = RunCfg::fast();
        assert_eq!(run(&cfg).csv, run(&cfg).csv);
    }
}
