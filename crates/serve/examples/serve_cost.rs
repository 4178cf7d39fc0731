//! What one offered transaction costs the host in the open-loop
//! engine: nanoseconds per offered transaction, best of five runs in
//! one process, at each load point of the repo benchmark's two serving
//! scenarios — the open-loop counterpart of `examples/phase_cost`.
//!
//! ```text
//! cargo run --release -p qsm-serve --example serve_cost            # seed 0x51EED001
//! cargo run --release -p qsm-serve --example serve_cost -- 7       # any seed
//! ```
//!
//! * `serve_reads`: 7/8 gets on the flat wire, p = 16 (a 2²⁴-cycle
//!   window) and p = 256 (2¹⁹), at 50, 90 and 150 % of the utilization
//!   model's capacity.
//! * `serve_writes`: 1/8 gets at p = 64 on a torus with 5 % drops
//!   (2²² cycles), at 50 and 90 % open, and 150 % under admission
//!   control at 200 000 cycles of backlog.
//!
//! Every machine has 4 banks a node at 12 cycles a byte. Read it in
//! alternation with another build's: a cold process reads slow.

use std::time::Instant;

use qsm_obs::Recorder;
use qsm_serve::{predict, ServiceConfig};
use qsm_simnet::{BankModel, FaultConfig, MachineConfig, TopologyKind};

const BANKS: BankModel =
    BankModel { banks_per_node: 4, service_fixed: 0.0, service_per_byte: 12.0 };

/// `base` offered `load` times its predicted capacity, under admission
/// control at `admission` cycles if given.
fn at_load(base: &ServiceConfig, load: f64, admission: Option<f64>) -> ServiceConfig {
    let offered = (load * predict(base).capacity * base.window).round() as usize;
    let cfg = base.clone().with_offered(offered);
    match admission {
        Some(backlog) => cfg.with_admission(backlog),
        None => cfg,
    }
}

fn measure(label: &str, cfg: &ServiceConfig) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..5 {
        let start = Instant::now();
        let run = qsm_serve::run(cfg, &Recorder::disabled());
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(run);
    }
    let out = out.expect("five runs");
    println!(
        "{label:<26} {:>9} {:>9} {:>8} {:>8} {:>8.1}",
        out.offered,
        out.completed,
        out.retries,
        out.rejected,
        best * 1e9 / out.offered as f64
    );
}

fn main() {
    let seed = match std::env::args().nth(1).map(|a| a.parse()) {
        None => 0x51EE_D001,
        Some(Ok(seed)) => seed,
        Some(Err(_)) => {
            eprintln!("usage: serve_cost [seed]   (decimal, default 0x51EED001)");
            std::process::exit(2);
        }
    };
    println!(
        "{:<26} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "scenario", "offered", "done", "retries", "rejected", "ns/txn"
    );
    for (p, window_log2) in [(16, 24), (256, 19)] {
        let machine = MachineConfig::paper_default(p).with_banks(BANKS);
        let base =
            ServiceConfig::new(machine).with_window((1u64 << window_log2) as f64).with_seed(seed);
        for load in [50, 90, 150] {
            measure(&format!("reads p{p} {load}%"), &at_load(&base, f64::from(load) / 100.0, None));
        }
    }
    let machine = MachineConfig::paper_default(64)
        .with_banks(BANKS)
        .with_topology(TopologyKind::torus(64))
        .with_faults(FaultConfig::drops(seed, 0.05));
    let mut base = ServiceConfig::new(machine).with_window((1u64 << 22) as f64).with_seed(seed);
    base.get_fraction = 0.125;
    for (load, admission) in [(50, None), (90, None), (150, Some(200_000.0))] {
        let label = match admission {
            None => format!("writes p64 {load}%"),
            Some(_) => format!("writes p64 {load}% admission"),
        };
        measure(&label, &at_load(&base, f64::from(load) / 100.0, admission));
    }
}
