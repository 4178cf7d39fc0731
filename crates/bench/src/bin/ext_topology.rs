//! Runs the routed multi-hop fabric topology extension experiment.
fn main() {
    qsm_bench::run_figures(&[qsm_bench::figures::ext_topology::run]);
}
