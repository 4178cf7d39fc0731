//! Runs the open-loop serving extension experiment.
fn main() {
    qsm_bench::run_figures(&[qsm_bench::figures::ext_service::run]);
}
