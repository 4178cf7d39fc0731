//! The paper's headline quantitative claims, as executable tests.
//!
//! These run on reduced problem sizes (to keep the suite fast) but
//! assert the same *shapes* the paper reports: prediction error
//! shrinking with n, latency insensitivity of bulk-synchronous
//! programs, Table 3 calibration, and the ordering of the analysis
//! lines.

use qsm::algorithms::analysis::{relative_error, EffectiveParams};
use qsm::algorithms::{gen, listrank, prefix, samplesort};
use qsm::core::{EffectiveCosts, SimMachine};
use qsm::simnet::MachineConfig;

#[test]
fn table3_calibration_matches_paper() {
    let costs = EffectiveCosts::measure(MachineConfig::paper_default(16));
    // Paper: 35 c/B put, 287 c/B get, 25 500 cycle empty sync.
    assert!((costs.put_cycles_per_byte() - 35.0).abs() < 9.0, "{}", costs.put_cycles_per_byte());
    assert!((costs.get_cycles_per_byte() - 287.0).abs() < 70.0, "{}", costs.get_cycles_per_byte());
    assert!((costs.empty_sync - 25_500.0).abs() < 6_000.0, "{}", costs.empty_sync);
}

#[test]
fn samplesort_estimate_error_shrinks_with_n() {
    let cfg = MachineConfig::paper_default(8);
    let params = EffectiveParams::measure(cfg);
    // Average over a few seeds: a single draw's error at any one n is
    // dominated by pivot-sampling luck, which made the bare
    // two-point comparison flaky.
    let err = |n: usize| {
        let seeds = [1u64, 2, 3];
        let total: f64 = seeds
            .iter()
            .map(|&seed| {
                let m = SimMachine::new(cfg).with_seed(n as u64 ^ seed);
                let input = gen::random_u32s(n, seed);
                let run = samplesort::run_on(&m, &input);
                let est = samplesort::predict_estimate(
                    n,
                    &run,
                    samplesort::DEFAULT_OVERSAMPLING,
                    &params,
                );
                relative_error(run.comm(), est.qsm)
            })
            .sum();
        total / seeds.len() as f64
    };
    // At n=512 with p=8 the per-phase constants the estimate omits
    // dominate; by n=128k they are amortized away.
    let small = err(1 << 9);
    let large = err(1 << 17);
    assert!(large < small, "error should shrink: {small} -> {large}");
    assert!(large < 0.15, "large-n estimate error {large} should be under 15%");
}

#[test]
fn listrank_estimate_error_small_at_large_n() {
    // Paper: QSM within 15% of measured comm for n >= 60k.
    let cfg = MachineConfig::paper_default(8);
    let params = EffectiveParams::measure(cfg);
    let n = 1 << 16;
    let m = SimMachine::new(cfg);
    let (succ, pred, _) = gen::random_list(n, 2);
    let run = listrank::run_on(&m, &succ, &pred);
    let est = listrank::predict_estimate(&run, &params);
    // BSP estimate (which includes the per-phase L the QSM line
    // deliberately omits) should track measured closely.
    let bsp_err = relative_error(run.comm(), est.bsp);
    assert!(bsp_err < 0.25, "BSP estimate error {bsp_err}");
    // QSM underestimates by the per-phase constants but not wildly.
    assert!(est.qsm < run.comm());
    assert!(relative_error(run.comm(), est.qsm) < 0.35);
}

#[test]
fn bulk_synchronous_programs_are_latency_insensitive_at_scale() {
    // The central claim: quadrupling l barely moves total time for a
    // large-enough bulk-synchronous program (pipelining hides it).
    let n = 1 << 16;
    let input = gen::random_u32s(n, 3);
    let run = |l: f64| {
        let cfg = MachineConfig::paper_default(8).with_latency(l);
        samplesort::run_on(&SimMachine::new(cfg), &input).comm()
    };
    let base = run(1600.0);
    let slow = run(6400.0);
    let slowdown = slow / base;
    assert!(slowdown < 1.05, "4x latency should cost <5% at n={n}: slowdown {slowdown}");
}

#[test]
fn overhead_is_amortized_by_batching_at_scale() {
    let n = 1 << 16;
    let input = gen::random_u32s(n, 4);
    let run = |o: f64| {
        let cfg = MachineConfig::paper_default(8).with_overhead(o);
        samplesort::run_on(&SimMachine::new(cfg), &input).comm()
    };
    let base = run(400.0);
    let slow = run(1600.0);
    let slowdown = slow / base;
    assert!(
        slowdown < 1.10,
        "4x per-message overhead should cost <10% at n={n}: slowdown {slowdown}"
    );
}

#[test]
fn small_problems_are_latency_sensitive() {
    // The flip side: at tiny n the same latency increase is visible —
    // this is exactly why n_min exists.
    let input = gen::random_u32s(1 << 10, 5);
    let run = |l: f64| {
        let cfg = MachineConfig::paper_default(8).with_latency(l);
        samplesort::run_on(&SimMachine::new(cfg), &input).comm()
    };
    let slowdown = run(25_600.0) / run(1600.0);
    assert!(slowdown > 1.3, "latency should visibly hurt small problems: {slowdown}");
}

#[test]
fn prefix_prediction_error_is_large_relative_small_absolute() {
    // Figure 1's finding, both halves.
    let cfg = MachineConfig::paper_default(16);
    let params = EffectiveParams::measure(cfg);
    let m = SimMachine::new(cfg);
    let n = 1 << 20;
    let input = gen::random_u64s(n, 6);
    let run = prefix::run_on(&m, &input);
    let pred = prefix::predict(&params);
    // Relative error is large ...
    assert!(relative_error(run.comm(), pred.qsm) > 0.5);
    // ... but the absolute error is tiny next to total running time.
    assert!((run.comm() - pred.qsm) / run.total() < 0.25);
}

#[test]
fn kappa_contention_is_visible_to_the_model() {
    // A hot-spot program: everyone reads location 0. The recorded
    // kappa must equal p, and the QSM phase cost must reflect it.
    let p = 8;
    let m = SimMachine::new(MachineConfig::paper_default(p));
    let run = m.run(|ctx| {
        let arr = ctx.register::<u64>("hot", 16, qsm::core::Layout::Block);
        ctx.sync();
        let t = ctx.get(&arr, 0, 1);
        ctx.sync();
        ctx.take(t)[0]
    });
    let hot_phase = &run.phases[1].profile;
    assert_eq!(hot_phase.kappa as usize, p);
}
