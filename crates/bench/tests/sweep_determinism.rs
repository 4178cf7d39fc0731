//! The parallel sweep executor must be invisible in the results:
//! whatever `QSM_JOBS` is set to, every figure's CSV must be
//! byte-identical to the serial run, and repeat runs must replay the
//! same simulated cycle counts exactly. The same holds for the
//! metrics registry: its counters and histograms are commutative, so
//! the JSON dump must not depend on worker count or completion order.

mod common;

use common::{fresh_dir, read, run_figure};

#[test]
fn fig4_is_byte_identical_across_job_counts_and_runs() {
    // fig4 is the best canary: it crosses latency x size, exercises
    // the randomized sample-sort path, and its seeds are keyed on the
    // sweep-point index — exactly what must not depend on which
    // worker executes which point.
    let dir = fresh_dir("fig4");
    let run = |tag: &str, jobs: &str| {
        let (out, metrics) = (dir.join(tag), dir.join(format!("{tag}.json")));
        let knobs = [("QSM_JOBS", jobs), ("QSM_METRICS", metrics.to_str().unwrap())];
        run_figure(env!("CARGO_BIN_EXE_fig4_latency_sweep"), &out, &knobs);
        (read(&out.join("fig4.csv")), read(&metrics))
    };
    let serial = run("serial", "1");
    let parallel = run("parallel", "4");
    let parallel_again = run("again", "4");

    assert_eq!(
        serial.0, parallel.0,
        "QSM_JOBS=4 must produce the byte-identical CSV of a serial run"
    );
    assert_eq!(
        parallel.0, parallel_again.0,
        "repeat parallel runs must replay simulated cycles exactly"
    );
    assert!(serial.1.contains("\"phases\""), "metrics dump looks empty:\n{}", serial.1);
    assert_eq!(serial.1, parallel.1, "metrics JSON must be byte-identical across QSM_JOBS");
    assert_eq!(
        parallel.1, parallel_again.1,
        "repeat runs must replay the metrics registry exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
