//! Table 3: raw hardware settings vs observed (hardware + software)
//! network performance.
//!
//! The observed rows come from the library's self-calibration
//! microbenchmarks: streamed scattered single-word puts and gets, and
//! an empty `sync()` for the synchronization barrier L. Paper values:
//! 35 cycles/byte (put), 287 cycles/byte (get), 25 500 cycles (L,
//! 16 processors).

use qsm_core::EffectiveCosts;
use qsm_simnet::MachineConfig;

use crate::output::us_at_400mhz;
use crate::{Report, RunCfg};

/// Paper reference values for the observed rows.
pub const PAPER_PUT_CPB: f64 = 35.0;
/// Paper reference: get cycles/byte.
pub const PAPER_GET_CPB: f64 = 287.0;
/// Paper reference: barrier cycles at p = 16.
pub const PAPER_L: f64 = 25_500.0;

/// Run the experiment.
pub fn run(_cfg: &RunCfg) -> Report {
    crate::backend::warn_sim_only("table3");
    let machine_cfg = MachineConfig::paper_default(16); // Table 3 is p=16
    let costs = EffectiveCosts::measure(machine_cfg);

    let rows = vec![
        vec![
            "Gap g (bandwidth)".into(),
            format!("{} cycles/byte", machine_cfg.net.gap_per_byte),
            format!(
                "{:.1} cycles/byte (put), {:.1} cycles/byte (get)",
                costs.put_cycles_per_byte(),
                costs.get_cycles_per_byte()
            ),
            format!("{PAPER_PUT_CPB} (put), {PAPER_GET_CPB} (get)"),
        ],
        vec![
            "Per-message overhead o".into(),
            format!(
                "{:.0} cycles ({:.0} us)",
                machine_cfg.net.send_overhead,
                us_at_400mhz(machine_cfg.net.send_overhead)
            ),
            "N/A (hidden by batching)".into(),
            "N/A".into(),
        ],
        vec![
            "Latency l".into(),
            format!(
                "{:.0} cycles ({:.0} us)",
                machine_cfg.net.latency,
                us_at_400mhz(machine_cfg.net.latency)
            ),
            "N/A (hidden by pipelining)".into(),
            "N/A".into(),
        ],
        vec![
            "Synchronization barrier L".into(),
            "N/A".into(),
            format!(
                "{:.0} cycles (16 processors) ({:.0} us)",
                costs.l_sync,
                us_at_400mhz(costs.l_sync)
            ),
            format!("{PAPER_L:.0} cycles (64 us)"),
        ],
    ];

    let headers = ["parameter", "hardware setting", "observed (HW+SW)", "paper observed"];
    Report::table(
        "table3",
        "raw hardware vs measured network performance (simulated library)",
        &headers,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_rows_near_paper_values() {
        let costs = EffectiveCosts::measure(MachineConfig::paper_default(16));
        let put = costs.put_cycles_per_byte();
        let get = costs.get_cycles_per_byte();
        assert!((put - PAPER_PUT_CPB).abs() / PAPER_PUT_CPB < 0.25, "put = {put}");
        assert!((get - PAPER_GET_CPB).abs() / PAPER_GET_CPB < 0.25, "get = {get}");
        assert!((costs.l_sync - PAPER_L).abs() / PAPER_L < 0.25, "L = {}", costs.l_sync);
    }

    #[test]
    fn report_contains_all_rows() {
        let rep = run(&RunCfg::fast());
        for needle in ["Gap g", "overhead o", "Latency l", "barrier L"] {
            assert!(rep.text.contains(needle), "missing {needle}");
        }
    }
}
