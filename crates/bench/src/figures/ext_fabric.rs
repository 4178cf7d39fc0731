//! Extension experiment: does ignoring *network* contention matter?
//!
//! The paper notes its simulator "does not include network
//! contention" and relies on Brewer & Kuszmaul-style arguments that
//! bulk-synchronous programs keep the network tame. This experiment
//! adds the contention the paper left out — a shared fabric every
//! message serializes through, at a configurable bandwidth — and
//! measures how sample-sort communication responds.
//!
//! Expected shape: with a fabric at or above the aggregate NIC
//! bandwidth (`p` nodes × g cycles/byte → fabric gap ≤ g/p), nothing
//! changes; costs grow only once the fabric is provisioned *below*
//! what the endpoints can inject — i.e. the paper's omission is
//! harmless for balanced bulk-synchronous traffic unless the
//! bisection is undersized.

use qsm_algorithms::{gen, samplesort};
use qsm_core::SimMachine;
use qsm_simnet::MachineConfig;

use crate::output::us_at_400mhz;
use crate::{Report, RunCfg};

/// Fabric gaps swept, in cycles/byte machine-wide (plus the no-fabric
/// baseline). The per-NIC gap is 3 c/B, so `3/p` is "full bisection".
pub fn fabric_gaps(p: usize) -> Vec<Option<f64>> {
    let g = 3.0;
    vec![
        None,
        Some(g / p as f64),       // full bisection
        Some(2.0 * g / p as f64), // half bisection
        Some(g),                  // single-link bottleneck
        Some(4.0 * g),            // badly undersized
    ]
}

/// Run the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    crate::backend::warn_sim_only("ext_fabric");
    let n = if cfg.fast { 1 << 14 } else { 1 << 17 };
    let input = gen::random_u32s(n, 0xFAB);
    // Every fabric provisioning is an independent simulation of the
    // same input; the baseline row is simply the first result, so
    // ratios are computed after the fan-out.
    let gaps = fabric_gaps(cfg.p);
    let comms = crate::sweep::map("ext_fabric", cfg, cfg.p, gaps.clone(), |_, fabric| {
        let mut machine_cfg = MachineConfig::paper_default(cfg.p);
        if let Some(f) = fabric {
            machine_cfg = machine_cfg.with_fabric(f);
        }
        samplesort::run_on(&SimMachine::new(machine_cfg), &input).comm()
    });
    let base = comms[0];
    let rows: Vec<Vec<String>> = gaps
        .iter()
        .zip(&comms)
        .map(|(fabric, &comm)| {
            vec![
                fabric.map(|f| format!("{f:.3}")).unwrap_or_else(|| "none (paper)".into()),
                format!("{:.1}", us_at_400mhz(comm)),
                format!("{:.2}", comm / base),
            ]
        })
        .collect();
    let headers = ["fabric_gap_cyc_per_byte", "comm_us", "vs_no_fabric"];
    Report::table(
        "ext_fabric",
        "extension: shared-fabric contention vs sample-sort communication",
        &headers,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adequate_fabric_is_free_undersized_fabric_hurts() {
        let cfg = RunCfg::fast();
        let rep = run(&cfg);
        let ratios: Vec<f64> = rep
            .csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(2).unwrap().parse().unwrap())
            .collect();
        // Full bisection: within a few percent of the paper's
        // contention-free simulator.
        assert!(ratios[1] < 1.10, "full bisection should be ~free: {ratios:?}");
        // Badly undersized fabric: clearly slower.
        assert!(ratios[4] > 1.5, "4x-undersized fabric should hurt: {ratios:?}");
        // Monotone in fabric gap.
        for w in ratios[1..].windows(2) {
            assert!(w[1] >= w[0] * 0.999, "ratios not monotone: {ratios:?}");
        }
    }
}
