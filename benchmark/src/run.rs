//! One run of one workload: the untraced run that reports the
//! end-to-end metrics, and the traced run that reports the per-layer
//! ones. Both print every metric by name for a reader and end with
//! the one-line JSON result the driver parses.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::adapter::json_escape;
use crate::calib::{self, Calibrator};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::probes;
use crate::stats::{median, quartiles};
use crate::trace::{layer_self_seconds, spans_json, Tracer};
use crate::workloads::{self, Workload};

/// What the command line asked of one run.
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    /// How long the timed passes go on for.
    pub seconds: f64,
    pub trace: bool,
    /// One set-up and one timed pass, every check on.
    pub smoke: bool,
    /// Append the run's record to this file, for `compare`.
    pub out: Option<PathBuf>,
}

/// One timed call into the program, as a pass recorded it.
#[derive(Debug, Clone, Copy)]
pub struct OpTime {
    /// Which part of the pass it belongs to (0 or 1).
    pub part: usize,
    /// Seconds on the reference host: the measured time scaled by the
    /// calibration slices taken right before and right after the call.
    pub secs: f64,
}

/// State shared by everything a run executes: the tracer, the
/// calibrator, the op counts, the op times of the pass under way and
/// the per-layer samples a traced run collects.
pub struct Runtime {
    pub tracer: Tracer,
    pub calib: Calibrator,
    attempted: u64,
    failed: u64,
    pass_ops: Vec<OpTime>,
    samples: BTreeMap<String, Vec<f64>>,
}

impl Runtime {
    fn new(epoch: Instant) -> Self {
        Self {
            tracer: Tracer::new(epoch),
            calib: Calibrator::new(),
            attempted: 0,
            failed: 0,
            pass_ops: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// seconds it took. The time is measured whether or not tracing is
    /// on, because untraced passes are made of the same calls.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let open = self.tracer.begin(name);
        let result = f(self);
        (result, self.tracer.end(open))
    }

    /// One timed operation of a pass: `f` inside a span named `name`,
    /// between two calibration slices (consecutive operations share
    /// the one between them). Returns the result and the raw seconds;
    /// the scaled time goes to `part` of the pass under way.
    pub fn op<R>(&mut self, part: usize, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let before = self.calib.recent();
        let (result, raw) = self.span(name, |_| f());
        let after = self.calib.slice();
        self.pass_ops.push(OpTime { part, secs: raw * calib::scale((before + after) / 2.0) });
        (result, raw)
    }

    /// The op times recorded since the last call: one pass's worth.
    pub fn take_pass(&mut self) -> Vec<OpTime> {
        std::mem::take(&mut self.pass_ops)
    }

    /// Count one operation (a figure, an algorithm run, an exchange
    /// run, a serve load point) and whether every check on it held.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Record one sample of a per-layer quantity, if tracing is on:
    /// untraced passes contribute nothing. Names starting with `_` are
    /// intermediate values, not reported metrics.
    pub fn sample(&mut self, name: &str, value: f64) {
        if self.tracer.enabled() {
            self.samples.entry(name.to_string()).or_default().push(value);
        }
    }

    /// Median of the samples of `name`. A layer that never reported a
    /// listed metric is a bug in this benchmark, hence the panic.
    pub fn value(&self, name: &str) -> f64 {
        median(self.samples.get(name).unwrap_or_else(|| panic!("no sample of {name}")))
    }
}

/// Where run artifacts go: `benchmark/out/` of the checkout the
/// binary was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One metric of the final result.
struct Reported {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// Execute the run `opts` describes. Returns whether every check held
/// and every artifact was written.
pub fn run(opts: &RunOpts, process_start: Instant) -> bool {
    let mut rt = Runtime::new(process_start);
    println!(
        "workload {}  seed {:#x}  trace {}  host_cores {}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        host_cores()
    );
    let (metrics, digest) =
        if opts.trace { traced(opts, &mut rt) } else { untraced(opts, &mut rt, process_start) };
    println!(
        "  ops_attempted {}  ops_failed {}  sim_digest {digest:016x}",
        rt.attempted, rt.failed
    );

    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    let mut ok = rt.failed == 0;
    if opts.trace {
        ok &= report_io(write_trace_file(opts, &rt, &body));
    }
    if let Some(path) = &opts.out {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"sim_digest\": \"{digest:016x}\", \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}\n",
            opts.workload,
            opts.seed,
            u8::from(opts.trace),
            rt.attempted,
            rt.failed
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, record.as_bytes()));
        ok &= report_io(appended.map_err(|e| format!("cannot append to {}: {e}", path.display())));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        rt.failed == 0,
        rt.attempted,
        rt.failed
    );
    ok
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn report_io(result: Result<(), String>) -> bool {
    if let Err(e) = &result {
        eprintln!("error: {e}");
    }
    result.is_ok()
}

fn print_metric(name: &str, unit: &str, value: f64, samples: &[f64]) {
    let (q1, q3) = quartiles(samples);
    println!("  {name:<24} {value:>14.6} {unit:<9} (q1 {q1:.6}, q3 {q3:.6}, n={})", samples.len());
}

/// Whether a per-layer metric of this unit is a host time, which the
/// traced run scales by the median calibration slice of the run.
fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "us" | "ns")
}

fn print_host_speed(rt: &Runtime) {
    println!(
        "  host speed {:.3} of the reference (median calibration slice {:.2} ms, n={}); \
         times are scaled to the reference host",
        rt.calib.scale(),
        median(rt.calib.slices()) * 1e3,
        rt.calib.slices().len()
    );
}

// ------------------------------------------------------------- untraced

/// Seconds of each part of one pass.
fn part_sums(pass: &[OpTime]) -> [f64; 2] {
    let mut parts = [0.0; 2];
    pass.iter().for_each(|op| parts[op.part] += op.secs);
    parts
}

/// What the passes of a run say one pass costs, per part: for each
/// operation the median of its times over the passes, summed over the
/// part's operations. Finer than the median of whole passes, in which
/// one stalled operation spoils the other sixteen.
fn part_medians(passes: &[Vec<OpTime>]) -> [f64; 2] {
    let first = &passes[0];
    assert!(passes.iter().all(|p| p.len() == first.len()), "every pass runs the same operations");
    let mut parts = [0.0; 2];
    for (k, op) in first.iter().enumerate() {
        let times: Vec<f64> = passes.iter().map(|p| p[k].secs).collect();
        parts[op.part] += median(&times);
    }
    parts
}

fn untraced(opts: &RunOpts, rt: &mut Runtime, process_start: Instant) -> (Vec<Reported>, u64) {
    // Set-up is input generation from the seed, machine construction
    // and one warm-up pass. It is done five times and the median
    // reported, so that one slow page-in does not decide `setup_s`;
    // the first also counts the time from process start.
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for i in 0..if opts.smoke { 1 } else { 5 } {
        // Free the previous copy first, or peak RSS would count two.
        drop(workload.take());
        let lead = if i == 0 { process_start.elapsed().as_secs_f64() } else { 0.0 };
        let before = rt.calib.slice();
        let (start, slices_before) = (Instant::now(), rt.calib.spent_s());
        let mut w = workloads::setup(&opts.workload, opts.seed, rt);
        w.pass(rt);
        // The clock ran across the warm-up pass's calibration slices.
        let secs = lead + start.elapsed().as_secs_f64() - (rt.calib.spent_s() - slices_before);
        rt.take_pass();
        let after = rt.calib.slice();
        setup_s.push(secs * calib::scale((before + after) / 2.0));
        workload = Some(w);
    }
    let mut workload = workload.expect("set up at least once");

    let window = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || (!opts.smoke && started.elapsed() < window) {
        workload.pass(rt);
        passes.push(rt.take_pass());
    }

    print_host_speed(rt);
    let [part1, part2] = part_medians(&passes);
    let per_pass: Vec<[f64; 2]> = passes.iter().map(|p| part_sums(p)).collect();
    let column = |f: fn(&[f64; 2]) -> f64| per_pass.iter().map(f).collect::<Vec<f64>>();
    let rss = peak_rss_mib();
    let values: [(f64, Vec<f64>); 5] = [
        (median(&setup_s), setup_s),
        (rss, vec![rss]),
        (part1 + part2, column(|p| p[0] + p[1])),
        (part1, column(|p| p[0])),
        (part2, column(|p| p[1])),
    ];
    let mut reported = Vec::new();
    for (m, (value, samples)) in END_TO_END.iter().zip(&values) {
        print_metric(m.name, m.unit, *value, samples);
        reported.push(Reported { name: m.name, unit: m.unit, value: *value });
    }
    // The figures the issue's table names, derived from the parts.
    for d in workload.derived() {
        let secs = values[2 + d.part].0;
        let value = d.work.map_or(secs, |work| work / secs);
        println!("  {:<24} {value:>14.6} {:<9} (n={})", d.name, d.unit, passes.len());
    }
    (reported, workload.sim_digest())
}

// --------------------------------------------------------------- traced

/// One traced pass of `workload`, under a `pass.<name>` root span.
fn traced_pass(rt: &mut Runtime, name: &str, workload: &mut dyn Workload) {
    rt.tracer.set_enabled(true);
    rt.tracer.next_pass();
    rt.span(&format!("pass.{name}"), |rt| workload.pass(rt));
    rt.tracer.set_enabled(false);
    rt.take_pass();
}

/// Wall seconds `pass` took, everything between its operations
/// included (checks, and span recording if tracing is on) and the
/// calibration slices taken out. Unscaled: it is only ever compared
/// with the pass next to it.
fn pass_wall_seconds(rt: &mut Runtime, pass: impl FnOnce(&mut Runtime)) -> f64 {
    let (start, slices_before) = (Instant::now(), rt.calib.spent_s());
    pass(rt);
    start.elapsed().as_secs_f64() - (rt.calib.spent_s() - slices_before)
}

/// Set a workload up with tracing on, so the spans its set-up records
/// (the sequential baselines) are kept.
fn traced_setup(rt: &mut Runtime, name: &str, seed: u64) -> Box<dyn Workload> {
    rt.tracer.set_enabled(true);
    let (workload, _) = rt.span(&format!("setup.{name}"), |rt| workloads::setup(name, seed, rt));
    rt.tracer.set_enabled(false);
    workload
}

fn traced(opts: &RunOpts, rt: &mut Runtime) -> (Vec<Reported>, u64) {
    // The workload asked for: warm up, then alternate untraced and
    // traced passes, so both kinds see the same machine state and the
    // ratio within a pair is what tracing costs.
    let name = opts.workload.as_str();
    let mut workload = traced_setup(rt, name, opts.seed);
    workload.pass(rt);
    rt.take_pass();
    let window = Duration::from_secs_f64(opts.seconds / 2.0);
    let min_pairs = if opts.smoke { 1 } else { 3 };
    let started = Instant::now();
    let mut overhead_pct = Vec::new();
    while overhead_pct.len() < min_pairs || (!opts.smoke && started.elapsed() < window) {
        let plain = pass_wall_seconds(rt, |rt| {
            workload.pass(rt);
            rt.take_pass();
        });
        let with_trace = pass_wall_seconds(rt, |rt| traced_pass(rt, name, &mut *workload));
        overhead_pct.push((with_trace / plain - 1.0) * 100.0);
    }
    let digest = workload.sim_digest();
    drop(workload);

    // Every traced run reports the whole per-layer table, so each
    // other workload runs one traced pass too. Theirs is a single cold
    // pass: read a layer's metrics from the traced run of the workload
    // that exercises the layer.
    for (other, _) in WORKLOADS.iter().filter(|(w, _)| *w != name) {
        let mut w = traced_setup(rt, other, opts.seed);
        traced_pass(rt, other, &mut *w);
    }

    rt.tracer.set_enabled(true);
    rt.tracer.next_pass();
    rt.span("probes", |rt| probes::run(rt, opts.seed, opts.smoke));
    rt.tracer.set_enabled(false);

    let traced_passes = overhead_pct.len();
    rt.samples.insert("bench.trace_overhead_pct".into(), overhead_pct);
    derive_layer_metrics(rt);

    println!("  {traced_passes} traced passes of {name}; self time by layer over all spans:");
    for (layer, secs) in layer_self_seconds(rt.tracer.spans()) {
        println!("    {layer:<12} {secs:>10.4} s");
    }
    print_host_speed(rt);
    let mut reported = Vec::new();
    for m in &PER_LAYER {
        let samples = &rt.samples[m.name];
        let value = median(samples) * if is_time(m.unit) { rt.calib.scale() } else { 1.0 };
        println!("  {:<40} {value:>16.4} {:<6} (n={})", m.name, m.unit, samples.len());
        reported.push(Reported { name: m.name, unit: m.unit, value });
    }
    (reported, digest)
}

/// Fill in the per-layer metrics that are not sampled directly: span
/// durations, sums over the serving workloads, and the shares that
/// price a pass's operation counts at the probes' cost per operation.
fn derive_layer_metrics(rt: &mut Runtime) {
    for m in &PER_LAYER {
        let durations = rt.tracer.durations(m.name);
        if !durations.is_empty() {
            rt.samples.insert(m.name.to_string(), durations);
        }
    }
    for count in ["wire_legs", "completed", "retries", "rejected"] {
        let total = ["p16", "p256", "p64"].map(|l| rt.value(&format!("_serve.{l}_{count}")));
        rt.samples.insert(format!("serve.{count}"), vec![total.iter().sum()]);
    }
    // Attribution for the p = 256 leg of serve_reads, the one ROADMAP
    // item 3 targets. Each event is one push and one pop; each
    // transaction is derived once at push, once at arrival and once
    // per transmission.
    let secs = rt.value("_serve.p256_s");
    let offered = rt.value("_serve.p256_offered");
    let legs = rt.value("_serve.p256_wire_legs");
    let share = |ops: f64, ns_per_op: f64| ops * ns_per_op * 1e-9 / secs;
    let derived = [
        (
            "serve.ns_per_txn_ratio_p256_p16",
            rt.value("serve.ns_per_txn_p256") / rt.value("serve.ns_per_txn_p16"),
        ),
        ("serve.simnet_share", share(legs, rt.value("simnet.single_ns_per_msg.banks_p256"))),
        ("serve.eventq_share", share(offered + legs, rt.value("_serve.p256_eventq_ns"))),
        ("serve.arrival_share", share(2.0 * offered + legs, rt.value("serve.arrival_ns_per_txn"))),
        ("serve.allocs_per_txn", rt.value("_serve.p256_allocs_per_txn")),
        (
            "serve.recorder_metrics_overhead_pct",
            (rt.value("_serve.p256_metrics_s") - secs) / secs * 100.0,
        ),
    ];
    for (name, value) in derived {
        rt.samples.insert(name.to_string(), vec![value]);
    }
}

/// Write `out/<workload>.trace.json`: the spans with their self
/// times, the per-layer self-time rollup and the metrics.
fn write_trace_file(opts: &RunOpts, rt: &Runtime, metrics_body: &str) -> Result<(), String> {
    let dir = out_dir();
    let path = dir.join(format!("{}.trace.json", opts.workload));
    let layers: Vec<String> = layer_self_seconds(rt.tracer.spans())
        .iter()
        .map(|(layer, secs)| format!("\"{}\": {secs}", json_escape(layer)))
        .collect();
    let doc = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host_cores\": {}, \"host_speed\": {},\n\
         \"layer_self_s\": {{{}}},\n\"metrics\": {{{metrics_body}}},\n\"spans\": {}}}\n",
        opts.workload,
        opts.seed,
        host_cores(),
        rt.calib.scale(),
        layers.join(", "),
        spans_json(rt.tracer.spans())
    );
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("  [spans written to {}]", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(part: usize, secs: f64) -> OpTime {
        OpTime { part, secs }
    }

    #[test]
    fn a_part_is_the_sum_of_its_operations_medians() {
        // Two operations in part 0, one in part 1, three passes. The
        // stall of 9.0 spoils one sample of one operation only.
        let passes = vec![
            vec![op(0, 1.0), op(0, 2.0), op(1, 5.0)],
            vec![op(0, 9.0), op(0, 2.2), op(1, 4.0)],
            vec![op(0, 1.2), op(0, 1.8), op(1, 6.0)],
        ];
        assert_eq!(part_medians(&passes), [1.2 + 2.0, 5.0]);
        assert_eq!(part_sums(&passes[1]), [9.0 + 2.2, 4.0]);
    }

    #[test]
    fn a_slower_host_scales_times_down() {
        let reference = calib::scale(1.0);
        assert_eq!(calib::scale(2.0), reference / 2.0);
    }
}
