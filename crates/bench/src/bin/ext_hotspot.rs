//! Runs the hot-spot contention extension experiment (QSM vs s-QSM).
fn main() {
    qsm_bench::run_figures(&[qsm_bench::figures::ext_hotspot::run]);
}
