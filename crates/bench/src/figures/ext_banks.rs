//! Extension experiment: destination memory-bank contention through
//! the full `get/put/sync` pipeline.
//!
//! Figure 7 measures the Section 4 bank phenomenon with a dedicated
//! closed-loop microbenchmark. This experiment drives the *same*
//! three access patterns through the ordinary machine pipeline — a
//! program issues gets, the driver meters them per `(node, bank)`
//! via the array layout, and the simnet destination-bank stage
//! queues the resulting messages — so bank contention shows up in a
//! real [`qsm_core::CostReport`] next to the model predictions.
//!
//! Expected shape: Conflict ≥ Random ≥ NoConflict per-access cost
//! (the closed-loop ordering survives the pipeline), while the QSM
//! and s-QSM predictions are *identical* across patterns: κ counts
//! per-location queuing and every pattern reads (nearly) distinct
//! words, so bank placement is exactly the machine detail the models
//! abstract away. The observed bank-κ and bank-wait columns are what
//! explains the measured split.

use qsm_core::{Layout, Machine, SimMachine};
use qsm_membank::{platform, Pattern};
use qsm_simnet::MachineConfig;

use crate::knobs::bank_model;
use crate::output::us_at_400mhz;
use crate::replay::replay_struct;
use crate::{Report, RunCfg};

/// Processors (= nodes) in the simulated machine.
const P: usize = 8;
/// Banks per node, each serving the harness's [`bank_model`]. Fixed:
/// the patterns are built around it.
const BANKS: usize = 8;
/// Words of the shared array per node. A multiple of [`BANKS`], so a
/// node-local offset and its global index agree on the bank.
const SLAB: usize = 4096;

replay_struct! {
    /// What one pattern's pipeline run produced.
    struct Measured {
        comm: f64,
        bank_kappa: u64,
        bank_wait: f64,
        qsm_pred: f64,
        sqsm_pred: f64,
    }
}

/// The global index of processor `me`'s `k`-th get under `pattern`.
///
/// Under `Layout::Block` with [`SLAB`] words per node, the owner of
/// index `i` is `i / SLAB` and its bank is `i % BANKS`:
/// * Conflict — everyone hammers node 0's bank 0 (stride-[`BANKS`]
///   walk of node 0's slab).
/// * NoConflict — processor `me` walks node `(me+1) % p`'s slab
///   contiguously: nobody shares a node, and the walk interleaves
///   evenly over all its banks — the hand-placed ideal.
/// * Random — a uniform draw over the whole array from a per-proc
///   deterministic RNG.
fn target_index(
    pattern: Pattern,
    me: usize,
    p: usize,
    k: usize,
    rng: &mut impl rand::Rng,
) -> usize {
    match pattern {
        Pattern::Conflict => (k * BANKS) % SLAB,
        Pattern::NoConflict => ((me + 1) % p) * SLAB + k % SLAB,
        Pattern::Random => rng.gen_range(0..p * SLAB),
    }
}

/// Run `w` single-word gets per processor under `pattern` on a
/// banked paper-default machine and pull the data phase's numbers.
fn measure(pattern: Pattern, w: usize, seed: u64) -> Measured {
    let machine = SimMachine::new(MachineConfig::paper_default(P).with_banks(bank_model(BANKS)))
        .with_seed(seed);
    let run = machine.run(move |ctx| {
        let p = ctx.nprocs();
        let arr = ctx.register::<u32>("banked", p * SLAB, Layout::Block);
        ctx.sync();
        let me = ctx.proc_id();
        let tickets: Vec<_> = (0..w)
            .map(|k| {
                let i = target_index(pattern, me, p, k, ctx.rng());
                ctx.get(&arr, i, 1)
            })
            .collect();
        ctx.sync();
        for t in tickets {
            let _ = ctx.take(t);
        }
    });
    let data = &run.phases[1];
    let report = machine.make_report(&run.phases);
    Measured {
        comm: data.timing.comm.get(),
        bank_kappa: data.bank_kappa,
        bank_wait: data.bank_wait.get(),
        qsm_pred: report.qsm_comm,
        sqsm_pred: report.sqsm_comm,
    }
}

/// Run the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    crate::backend::warn_sim_only("ext_banks");
    let w = if cfg.fast { 64 } else { 256 };
    let patterns = Pattern::all().to_vec();
    let measured = crate::sweep::map("ext_banks", cfg, P, patterns.clone(), |point, pat| {
        measure(pat, w, cfg.seed(point, 0))
    });
    // Figure 7's own SMP-NATIVE panel: the exact ratios that figure
    // reports, so the pipeline's `vs_noconflict` column reads directly
    // against them.
    let closed = super::fig7::panel(&platform::smp_native(), cfg.fast);
    let noc_comm = measured[patterns
        .iter()
        .position(|&p| p == Pattern::NoConflict)
        .expect("NoConflict is in the pattern set")]
    .comm;
    let rows: Vec<Vec<String>> = patterns
        .iter()
        .zip(&measured)
        .map(|(&pat, m)| {
            let closed_ratio =
                closed.iter().find(|(p, ..)| *p == pat).expect("closed loop ran all patterns").2;
            vec![
                pat.label().to_string(),
                format!("{:.1}", us_at_400mhz(m.comm)),
                format!("{:.0}", m.comm / w as f64),
                m.bank_kappa.to_string(),
                format!("{:.2}", us_at_400mhz(m.bank_wait)),
                format!("{:.2}", m.comm / noc_comm),
                format!("{closed_ratio:.2}"),
                format!("{:.1}", us_at_400mhz(m.qsm_pred)),
                format!("{:.1}", us_at_400mhz(m.sqsm_pred)),
            ]
        })
        .collect();
    let headers = [
        "pattern",
        "comm_us",
        "per_access_cyc",
        "bank_kappa",
        "bank_wait_us",
        "vs_noconflict",
        "closed_vs_noconflict",
        "qsm_pred_us",
        "sqsm_pred_us",
    ];
    Report::table(
        "ext_banks",
        "extension: bank contention through the get/put/sync pipeline",
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

    #[test]
    fn pipeline_reproduces_closed_loop_ordering() {
        let rep = run(&RunCfg::fast());
        let rows = cells(&rep);
        assert_eq!(rows.len(), 3);
        let per_access =
            |pat: &str| rows.iter().find(|r| r[0] == pat).unwrap()[2].parse::<f64>().unwrap();
        let (conf, rand, noc) =
            (per_access("Conflict"), per_access("Random"), per_access("NoConflict"));
        assert!(conf > rand, "Conflict {conf} must exceed Random {rand}");
        assert!(rand > noc, "Random {rand} must exceed NoConflict {noc}");
        // The closed-loop column orders the same way.
        let closed =
            |pat: &str| rows.iter().find(|r| r[0] == pat).unwrap()[6].parse::<f64>().unwrap();
        assert!(closed("Conflict") > closed("Random"));
        assert!(closed("Random") >= closed("NoConflict"));
    }

    #[test]
    fn bank_columns_separate_the_patterns() {
        let rep = run(&RunCfg::fast());
        let rows = cells(&rep);
        let row = |pat: &str| rows.iter().find(|r| r[0] == pat).unwrap().clone();
        let kappa = |pat: &str| row(pat)[3].parse::<u64>().unwrap();
        let wait = |pat: &str| row(pat)[4].parse::<f64>().unwrap();
        // Conflict piles every word onto one (node, bank); NoConflict
        // gives each processor its own.
        assert!(kappa("Conflict") >= (P as u64 - 1) * kappa("NoConflict"));
        assert!(wait("Conflict") > 0.0, "conflict traffic must queue at the bank");
        assert_eq!(wait("NoConflict"), 0.0, "disjoint banks must not queue");
        // The models are bank-blind: every pattern moves the same
        // words, so QSM and s-QSM predict the same cost for all three
        // rows — the measured split is explained only by the bank
        // columns.
        for r in &rows {
            assert_eq!(r[7], row("NoConflict")[7]);
            assert_eq!(r[8], row("NoConflict")[8]);
        }
    }

    #[test]
    fn experiment_is_deterministic() {
        let cfg = RunCfg::fast();
        assert_eq!(run(&cfg).csv, run(&cfg).csv);
    }
}
