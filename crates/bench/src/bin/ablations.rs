//! Runs the runtime design-choice ablations (exchange schedule,
//! randomized layout).
fn main() {
    qsm_bench::run_figures(&[qsm_bench::figures::ablations::run]);
}
