//! Runs the pipeline bank-contention extension experiment.
fn main() {
    qsm_bench::run_figures(&[qsm_bench::figures::ext_banks::run]);
}
