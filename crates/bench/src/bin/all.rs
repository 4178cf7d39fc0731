//! Regenerates every table and figure of the paper in sequence.
//! `QSM_FAST=1` for a quick smoke pass.
fn main() {
    qsm_bench::run_figures(&[
        qsm_bench::figures::table3::run,
        qsm_bench::figures::fig1::run,
        qsm_bench::figures::fig2::run,
        qsm_bench::figures::fig3::run,
        qsm_bench::figures::fig4::run,
        qsm_bench::figures::fig5::run,
        qsm_bench::figures::fig6::run,
        qsm_bench::figures::fig7::run,
        qsm_bench::figures::table4::run,
        qsm_bench::figures::ablations::run,
        qsm_bench::figures::ext_fabric::run,
        qsm_bench::figures::ext_straggler::run,
        qsm_bench::figures::ext_hotspot::run,
        qsm_bench::figures::ext_faults::run,
        qsm_bench::figures::ext_banks::run,
        qsm_bench::figures::ext_topology::run,
        qsm_bench::figures::ext_service::run,
    ]);
}
