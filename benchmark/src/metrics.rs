//! The names this benchmark reports: workloads, end-to-end metrics
//! with their bounds, and per-layer metrics. `BENCHMARK.json` lists
//! the same names; a unit test holds the two together.

/// The workloads, each with the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "figure_suite",
        "all 17 figures in fast mode on the sim backend: thousands of short sim runs, so \
         per-run fixed cost in core and sweep overhead in bench dominate, not any kernel",
    ),
    (
        "bsp_exchange",
        "64xu32 all-to-all puts plus one get per phase and no compute, on sim p=16 then \
         threads p=4: core plan/exchange/price/record, simnet batch transmit and the barrier",
    ),
    (
        "bsp_kernels",
        "prefix, samplesort and listrank at large n on sim p=16 then threads p=4: local \
         kernels and bulk Ctx data movement dominate; the mirror image of bsp_exchange",
    ),
    (
        "serve_reads",
        "open-loop 7/8-get serving on the flat wire at p=16 then p=256: serve engine, simnet \
         single-message transmit and EventQueue; exposes the O(p) cost per transaction",
    ),
    (
        "serve_writes",
        "1/8-get serving at p=64 on a torus with 5% drops, then under admission control: \
         keyed retries, fabric stage per message, bank-in-ingest and the admission probes",
    ),
];

/// An end-to-end metric. Every workload reports every one of them;
/// `bound` is the share of the parent's median by which the metric
/// may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

/// All end-to-end metrics are "lower is better". The time bounds are
/// the widest the driver allows: the shared host moves a run's times
/// by 5 to 10 % even after calibration (see the README).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", bound: 0.20 },
    EndToEnd { name: "pass_s", unit: "s", bound: 0.25 },
    EndToEnd { name: "part1_s", unit: "s", bound: 0.25 },
    EndToEnd { name: "part2_s", unit: "s", bound: 0.25 },
];

/// A per-layer metric of the traced run. `exact` marks a
/// deterministic count: two runs of the same seed must agree on it to
/// the last digit, and `compare` holds them to that.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: false, exact: false }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: false, exact: true }
}

pub const PER_LAYER: [PerLayer; 79] = [
    timing("bench.fig_s.table3", "s"),
    timing("bench.fig_s.fig1", "s"),
    timing("bench.fig_s.fig2", "s"),
    timing("bench.fig_s.fig3", "s"),
    timing("bench.fig_s.fig4", "s"),
    timing("bench.fig_s.fig5", "s"),
    timing("bench.fig_s.fig6", "s"),
    timing("bench.fig_s.fig7", "s"),
    timing("bench.fig_s.table4", "s"),
    timing("bench.fig_s.ablations", "s"),
    timing("bench.fig_s.ext_fabric", "s"),
    timing("bench.fig_s.ext_straggler", "s"),
    timing("bench.fig_s.ext_hotspot", "s"),
    timing("bench.fig_s.ext_faults", "s"),
    timing("bench.fig_s.ext_banks", "s"),
    timing("bench.fig_s.ext_topology", "s"),
    timing("bench.fig_s.ext_service", "s"),
    exact("bench.csv_bytes", "bytes"),
    timing("bench.trace_overhead_pct", "%"),
    timing("core.sim_run_overhead_us", "us"),
    timing("core.threads_run_overhead_us", "us"),
    timing("core.sim_us_per_phase", "us"),
    timing("core.threads_us_per_phase", "us"),
    timing("core.ctx_put_ns", "ns"),
    timing("core.ctx_get_ns", "ns"),
    timing("core.threads_comm_share", "ratio"),
    exact("core.msgs_per_phase", "count"),
    exact("core.payload_bytes_per_phase", "bytes"),
    timing("core.allocs_per_phase_sim", "count"),
    timing("core.allocs_per_phase_threads", "count"),
    timing("simnet.batch_ns_per_msg.flat_p16", "ns"),
    timing("simnet.batch_ns_per_msg.flat_p256", "ns"),
    timing("simnet.batch_ns_per_msg.torus_p256", "ns"),
    timing("simnet.batch_ns_per_msg.banks_p256", "ns"),
    timing("simnet.batch_ns_per_msg.faulty_p256", "ns"),
    timing("simnet.single_ns_per_msg.flat_p16", "ns"),
    timing("simnet.single_ns_per_msg.flat_p256", "ns"),
    timing("simnet.single_ns_per_msg.torus_p256", "ns"),
    timing("simnet.single_ns_per_msg.banks_p256", "ns"),
    timing("simnet.single_ns_per_msg.faulty_p256", "ns"),
    timing("simnet.fifo_serve_ns", "ns"),
    timing("simnet.eventq_ns_per_op_1k", "ns"),
    timing("simnet.eventq_ns_per_op_1m", "ns"),
    timing("simnet.allocs_per_batch", "count"),
    timing("obs.histogram_observe_ns", "ns"),
    timing("obs.recorder_observe_ns_off", "ns"),
    timing("obs.recorder_observe_ns_metrics", "ns"),
    timing("obs.journal_append_us_nosync", "us"),
    timing("obs.journal_append_us_sync", "us"),
    timing("serve.recorder_metrics_overhead_pct", "%"),
    timing("serve.ns_per_txn_p16", "ns"),
    timing("serve.ns_per_txn_p256", "ns"),
    timing("serve.ns_per_txn_p64", "ns"),
    timing("serve.ns_per_txn_ratio_p256_p16", "ratio"),
    timing("serve.arrival_ns_per_txn", "ns"),
    exact("serve.wire_legs", "count"),
    PerLayer { name: "serve.completed", unit: "count", higher_is_better: true, exact: true },
    exact("serve.retries", "count"),
    exact("serve.rejected", "count"),
    timing("serve.simnet_share", "ratio"),
    timing("serve.eventq_share", "ratio"),
    timing("serve.arrival_share", "ratio"),
    timing("serve.allocs_per_txn", "count"),
    timing("algorithms.prefix_sim_s", "s"),
    timing("algorithms.samplesort_sim_s", "s"),
    timing("algorithms.listrank_sim_s", "s"),
    timing("algorithms.prefix_threads_s", "s"),
    timing("algorithms.samplesort_threads_s", "s"),
    timing("algorithms.listrank_threads_s", "s"),
    timing("algorithms.seq_prefix_s", "s"),
    timing("algorithms.seq_sort_s", "s"),
    timing("algorithms.seq_listrank_s", "s"),
    exact("algorithms.prefix_phases", "count"),
    exact("algorithms.samplesort_phases", "count"),
    exact("algorithms.listrank_phases", "count"),
    exact("algorithms.prefix_payload_bytes", "bytes"),
    exact("algorithms.samplesort_payload_bytes", "bytes"),
    exact("algorithms.listrank_payload_bytes", "bytes"),
    timing("membank.sim_ns_per_access", "ns"),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn names(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|e| e.get("name").and_then(Value::as_str).expect("a name").to_string())
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads and these tables are
    /// what the binary prints; neither may drift from the other.
    #[test]
    fn benchmark_json_lists_exactly_these_names_units_and_bounds() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");

        let workloads: Vec<_> = WORKLOADS.iter().map(|(w, _)| w.to_string()).collect();
        assert_eq!(names(&doc, "workloads"), workloads);
        for (entry, (_, why)) in
            doc.get("workloads").unwrap().as_arr().unwrap().iter().zip(WORKLOADS)
        {
            assert_eq!(entry.get("why").and_then(Value::as_str), Some(why));
        }

        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(m.name));
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(entry.get("better").and_then(Value::as_str), Some("lower"));
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(m.bound));
        }

        let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(m.name));
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
            let better = if m.higher_is_better { "higher" } else { "lower" };
            assert_eq!(entry.get("better").and_then(Value::as_str), Some(better));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &all {
            assert!(name.len() <= 64, "{name} is too long");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
