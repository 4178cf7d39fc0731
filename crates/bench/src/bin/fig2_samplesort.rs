//! Regenerates the paper's fig2 (see module docs for the expected shape).
fn main() {
    qsm_bench::run_figures(&[qsm_bench::figures::fig2::run]);
}
