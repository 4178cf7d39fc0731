//! Runs the heterogeneous-processors (straggler) extension experiment.
fn main() {
    qsm_bench::run_figures(&[qsm_bench::figures::ext_straggler::run]);
}
