//! The open-loop serving extension must be exactly replayable:
//! `ext_service`'s CSV must be byte-identical whatever `QSM_JOBS` is
//! set to, and repeat runs must replay the same simulated cycle
//! counts — arrival draws, hash shards, bank slots, and the latency
//! histogram included. The metrics registry rides along: the service
//! counters and the latency histogram merge commutatively, so the
//! JSON dump must not depend on worker count or completion order.

mod common;

use common::{fresh_dir, read, run_figure};

#[test]
fn ext_service_is_byte_identical_across_job_counts_and_runs() {
    let dir = fresh_dir("service");
    let run = |tag: &str, jobs: &str| {
        let (out, metrics) = (dir.join(tag), dir.join(format!("{tag}.json")));
        let knobs = [("QSM_JOBS", jobs), ("QSM_METRICS", metrics.to_str().unwrap())];
        run_figure(env!("CARGO_BIN_EXE_ext_service"), &out, &knobs);
        (read(&out.join("ext_service.csv")), read(&metrics))
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
        "repeat parallel runs must replay arrivals and service slots exactly"
    );
    // The engine actually fed the registry, and its histogram and
    // counters are as order-blind as the rest of it.
    assert!(
        serial.1.contains("\"service_latency_cycles"),
        "latency histogram missing from the metrics dump:\n{}",
        serial.1
    );
    assert!(serial.1.contains("\"service_completed\""));
    assert_eq!(serial.1, parallel.1, "metrics JSON must be byte-identical across QSM_JOBS");
    assert_eq!(
        parallel.1, parallel_again.1,
        "repeat runs must replay the metrics registry exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
