//! Figure 7: remote memory access performance under the three access
//! patterns on the Section 4 platforms.
//!
//! Expected shape (the paper's finding): NoConflict is modestly
//! better than Random (0–68%), while Conflict is a factor of 2–4
//! worse than NoConflict on hardware-limited paths — i.e. the
//! randomized layout QSM assumes forgoes a little performance to
//! avoid a catastrophic worst case.

use qsm_membank::platform::{self, BankMachine};
use qsm_membank::{simulate_all, Pattern, Sample};

use crate::{Report, RunCfg};

/// One platform's panel under Figure 7's seed and access count: each
/// pattern's sample beside its time over the panel's NoConflict time.
pub(crate) fn panel(m: &BankMachine, fast: bool) -> Vec<(Pattern, Sample, f64)> {
    let accesses = if fast { 2_000 } else { 20_000 };
    let samples = simulate_all(m, accesses, 0x1998);
    let noc = samples.iter().find(|(p, _)| *p == Pattern::NoConflict).unwrap().1.avg_ns;
    samples.into_iter().map(|(p, s)| (p, s, s.avg_ns / noc)).collect()
}

/// Run the experiment: one simulated panel per platform.
pub fn run(cfg: &RunCfg) -> Report {
    let mut rows = Vec::new();
    for m in platform::figure7_machines() {
        for (p, s, ratio) in panel(&m, cfg.fast) {
            rows.push(vec![
                m.name.to_string(),
                p.label().to_string(),
                format!("{:.0}", s.avg_ns),
                format!("{:.0}", s.avg_queue_ns),
                format!("{ratio:.2}"),
            ]);
        }
    }

    let headers = ["platform", "pattern", "avg_ns", "queue_ns", "vs_noconflict"];
    Report::table(
        "fig7",
        "memory-bank contention: Random/Conflict/NoConflict across platforms",
        &headers,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_platform_reports_three_patterns() {
        let rep = run(&RunCfg::fast());
        let lines = rep.csv.lines().skip(1).count();
        // 5 simulated platforms, 3 patterns each.
        assert_eq!(lines, 5 * 3);
    }

    #[test]
    fn two_runs_write_the_same_csv() {
        assert_eq!(run(&RunCfg::fast()).csv, run(&RunCfg::fast()).csv);
    }

    #[test]
    fn simulated_ratios_match_paper_band() {
        let rep = run(&RunCfg::fast());
        for line in rep.csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let ratio: f64 = cells[4].parse().unwrap();
            match cells[1] {
                "NoConflict" => assert!((ratio - 1.0).abs() < 1e-9),
                "Random" => assert!((1.0..=1.9).contains(&ratio), "{line}"),
                "Conflict" => assert!((1.0..=8.0).contains(&ratio), "{line}"),
                other => panic!("unexpected pattern {other}"),
            }
        }
    }
}
