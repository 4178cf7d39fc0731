//! Regenerates the paper's table4 (see module docs for the expected shape).
fn main() {
    qsm_bench::run_figures(&[qsm_bench::figures::table4::run]);
}
