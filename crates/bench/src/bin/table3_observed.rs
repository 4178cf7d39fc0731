//! Regenerates the paper's table3 (see module docs for the expected shape).
fn main() {
    qsm_bench::run_figures(&[qsm_bench::figures::table3::run]);
}
