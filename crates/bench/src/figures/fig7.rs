//! Figure 7: remote memory access performance under the three access
//! patterns on the Section 4 platforms.
//!
//! Expected shape (the paper's finding): NoConflict is modestly
//! better than Random (0–68%), while Conflict is a factor of 2–4
//! worse than NoConflict on hardware-limited paths — i.e. the
//! randomized layout QSM assumes forgoes a little performance to
//! avoid a catastrophic worst case. A native run on the host (padded
//! atomics as banks) is appended as a real-hardware data point.

use qsm_membank::{platform, run_all, NativeBank, Pattern, Sample, SimBank};

use crate::{Report, RunCfg};

/// Append one panel of (pattern, sample) rows, normalized against
/// the panel's NoConflict time.
fn push_panel(
    rows: &mut Vec<Vec<String>>,
    platform: &str,
    samples: &[(Pattern, Sample)],
    ns_decimals: usize,
) {
    let noc = samples.iter().find(|(p, _)| *p == Pattern::NoConflict).unwrap().1.avg_ns;
    for (p, s) in samples {
        rows.push(vec![
            platform.to_string(),
            p.label().to_string(),
            format!("{:.*}", ns_decimals, s.avg_ns),
            s.avg_queue_ns.map_or_else(|| "-".to_string(), |q| format!("{q:.0}")),
            format!("{:.2}", s.avg_ns / noc),
        ]);
    }
}

/// Run the experiment. Every panel — the five simulated platforms
/// and the host data point — goes through the same generic
/// microbenchmark loop; only the [`qsm_membank::BankBackend`]
/// differs.
pub fn run(cfg: &RunCfg) -> Report {
    let accesses = if cfg.fast { 2_000 } else { 20_000 };
    let mut rows = Vec::new();
    for m in platform::figure7_machines() {
        let samples = run_all(&SimBank { machine: &m, seed: 0x1998 }, accesses);
        push_panel(&mut rows, m.name, &samples, 0);
    }

    // Native host data point.
    let threads = std::thread::available_parallelism().map(|c| c.get().min(8)).unwrap_or(4);
    let native =
        run_all(&NativeBank { threads, banks: 8 }, if cfg.fast { 50_000 } else { 500_000 });
    push_panel(&mut rows, &format!("host ({threads} threads; native atomics)"), &native, 1);

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
        // 5 simulated platforms + host, 3 patterns each.
        assert_eq!(lines, 6 * 3);
    }

    #[test]
    fn simulated_ratios_match_paper_band() {
        let rep = run(&RunCfg::fast());
        for line in rep.csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            if cells[0].starts_with("host") {
                continue; // real hardware is allowed to be noisy
            }
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
