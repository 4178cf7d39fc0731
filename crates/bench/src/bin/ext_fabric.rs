//! Runs the shared-fabric network-contention extension experiment.
fn main() {
    qsm_bench::run_figures(&[qsm_bench::figures::ext_fabric::run]);
}
