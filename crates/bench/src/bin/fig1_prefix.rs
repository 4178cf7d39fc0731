//! Regenerates the paper's fig1 (see module docs for the expected shape).
fn main() {
    qsm_bench::run_figures(&[qsm_bench::figures::fig1::run]);
}
