//! Regenerates the paper's fig7 (see module docs for the expected shape).
fn main() {
    qsm_bench::run_figures(&[qsm_bench::figures::fig7::run]);
}
