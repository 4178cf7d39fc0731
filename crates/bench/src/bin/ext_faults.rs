//! Runs the fault-injection (message loss + retry protocol) extension
//! experiment.
fn main() {
    qsm_bench::run_figures(&[qsm_bench::figures::ext_faults::run]);
}
