//! `compare a.json b.json`: hold two sets of runs against each other,
//! metric by metric and workload by workload, using the bounds this
//! benchmark fixed. `a` is the parent (or the first set), `b` the
//! change (or the second set). Each file holds one JSON record per
//! line, as `--out` appends them.

use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};

/// One run, as `--out` recorded it.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub sim_digest: String,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

impl Record {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Parse a result file: one record per non-empty line.
pub fn load(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let field = |key: &str| v.get(key).ok_or(format!("line {}: no \"{key}\"", i + 1));
            let number = |key: &str| {
                field(key)?.as_f64().ok_or(format!("line {}: \"{key}\" is not a number", i + 1))
            };
            let text = |key: &str| {
                let s = field(key)?.as_str();
                s.map(str::to_string).ok_or(format!("line {}: \"{key}\" is not a string", i + 1))
            };
            let metrics = field("metrics")?
                .as_obj()
                .ok_or(format!("line {}: \"metrics\" is not an object", i + 1))?
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64);
                    value.map(|v| (name.clone(), v)).ok_or(format!("line {}: {name}", i + 1))
                })
                .collect::<Result<_, _>>()?;
            Ok(Record {
                workload: text("workload")?,
                seed: number("seed")? as u64,
                trace: number("trace")? != 0.0,
                sim_digest: text("sim_digest")?,
                attempted: number("attempted")? as u64,
                failed: number("failed")? as u64,
                metrics,
            })
        })
        .collect()
}

/// What `compare` found.
pub struct Comparison {
    pub text: String,
    pub regressions: usize,
    pub unresolved: usize,
}

/// The verdict on one end-to-end metric (all are lower-is-better).
/// With the run-to-run spread wider than the bound the medians decide
/// nothing: the metric is unresolved, unless every run of `b` reads
/// better than every run of `a`.
fn verdict(a: &[f64], b: &[f64], bound: f64) -> &'static str {
    let worse_by = (median(b) - median(a)) / median(a);
    if spread(a).max(spread(b)) > bound {
        let b_max = b.iter().copied().fold(f64::MIN, f64::max);
        let a_min = a.iter().copied().fold(f64::MAX, f64::min);
        if b_max < a_min {
            "better"
        } else {
            "unresolved"
        }
    } else if worse_by > bound {
        "REGRESSION"
    } else {
        "ok"
    }
}

pub fn compare<'a>(a: &'a [Record], b: &'a [Record]) -> Comparison {
    let mut out = Comparison { text: String::new(), regressions: 0, unresolved: 0 };
    let t = &mut out.text;
    let _ = writeln!(
        t,
        "{:<13} {:<12} {:>12} {:>12} {:>8} {:>6} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "delta", "bound", "spread"
    );
    for (workload, _) in WORKLOADS {
        let side = |recs: &'a [Record], trace: bool| -> Vec<&'a Record> {
            recs.iter().filter(|r| r.workload == workload && r.trace == trace).collect()
        };
        let (ra, rb) = (side(a, false), side(b, false));
        if ra.is_empty() || rb.is_empty() {
            let _ = writeln!(t, "{workload:<13} no untraced runs on one side; not compared");
            out.unresolved += 1;
            continue;
        }
        for m in &END_TO_END {
            let values = |recs: &[&Record]| recs.iter().filter_map(|r| r.metric(m.name)).collect();
            let (va, vb): (Vec<f64>, Vec<f64>) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                let _ = writeln!(t, "{workload:<13} {:<12} missing on one side", m.name);
                out.unresolved += 1;
                continue;
            }
            let v = verdict(&va, &vb, m.bound);
            out.regressions += usize::from(v == "REGRESSION");
            out.unresolved += usize::from(v == "unresolved");
            let _ = writeln!(
                t,
                "{workload:<13} {:<12} {:>12.5} {:>12.5} {:>+7.1}% {:>5.0}% {:>6.1}%  {v}",
                m.name,
                median(&va),
                median(&vb),
                (median(&vb) - median(&va)) / median(&va) * 100.0,
                m.bound * 100.0,
                spread(&va).max(spread(&vb)) * 100.0
            );
        }

        // Failed operations as a share of those attempted may not grow.
        let rate = |recs: &[&Record]| {
            let (failed, attempted) =
                recs.iter().fold((0, 0), |(f, n), r| (f + r.failed, n + r.attempted));
            (failed, attempted, failed as f64 / attempted.max(1) as f64)
        };
        let ((fa, na, rate_a), (fb, nb, rate_b)) = (rate(&ra), rate(&rb));
        let grew = rate_b > rate_a;
        out.regressions += usize::from(grew);
        let _ = writeln!(
            t,
            "{workload:<13} ops_failed   {fa}/{na} -> {fb}/{nb}  {}",
            if grew { "REGRESSION" } else { "ok" }
        );

        // Simulated outputs of runs that share a seed must agree for a
        // change that claims only host speed. Reported, not judged: a
        // correctness fix is allowed to move them.
        let all = |recs: &'a [Record]| -> Vec<&'a Record> {
            recs.iter().filter(|r| r.workload == workload).collect()
        };
        let (all_a, all_b) = (all(a), all(b));
        let pairs: Vec<(&Record, &Record)> = all_a
            .iter()
            .flat_map(|&x| all_b.iter().filter(move |y| y.seed == x.seed).map(move |&y| (x, y)))
            .collect();
        let changed: Vec<u64> = pairs
            .iter()
            .filter(|(x, y)| x.sim_digest != y.sim_digest)
            .map(|(x, _)| x.seed)
            .collect();
        let _ = match (pairs.is_empty(), changed.first()) {
            (true, _) => writeln!(t, "{workload:<13} sim_digest   no seed is on both sides"),
            (false, None) => writeln!(t, "{workload:<13} sim_digest   equal"),
            (false, Some(seed)) => {
                writeln!(t, "{workload:<13} sim_digest   CHANGED (first at seed {seed:#x})")
            }
        };

        // Deterministic counts of traced runs that share a seed: any
        // move in the worse direction is a regression, however small.
        for (x, y) in pairs.iter().filter(|(x, y)| x.trace && y.trace) {
            for m in PER_LAYER.iter().filter(|m| m.exact) {
                let (Some(va), Some(vb)) = (x.metric(m.name), y.metric(m.name)) else { continue };
                if va == vb {
                    continue;
                }
                let worse = (vb > va) != m.higher_is_better;
                out.regressions += usize::from(worse);
                let _ = writeln!(
                    t,
                    "{workload:<13} {} {va} -> {vb} at seed {:#x}  {}",
                    m.name,
                    x.seed,
                    if worse { "REGRESSION" } else { "changed (better)" }
                );
            }
        }
    }
    let _ = writeln!(t, "{} regression(s), {} unresolved", out.regressions, out.unresolved);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result file of `pass_s` values for one workload, the other
    /// end-to-end metrics held constant.
    fn file(workload: &str, pass_s: &[f64], digest: &str, failed: u64) -> String {
        pass_s
            .iter()
            .enumerate()
            .map(|(seed, p)| {
                format!(
                    "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": 0, \
                     \"sim_digest\": \"{digest}\", \"attempted\": 10, \"failed\": {failed}, \
                     \"metrics\": {{\"setup_s\": {{\"value\": 1.0, \"unit\": \"s\"}}, \
                     \"peak_rss_mb\": {{\"value\": 50.0, \"unit\": \"MiB\"}}, \
                     \"pass_s\": {{\"value\": {p}, \"unit\": \"s\"}}, \
                     \"part1_s\": {{\"value\": 0.5, \"unit\": \"s\"}}, \
                     \"part2_s\": {{\"value\": 0.5, \"unit\": \"s\"}}}}}}\n"
                )
            })
            .collect()
    }

    fn line_of<'a>(c: &'a Comparison, workload: &str, what: &str) -> &'a str {
        c.text
            .lines()
            .find(|l| l.starts_with(workload) && l.contains(what))
            .unwrap_or_else(|| panic!("no {workload} {what} line in:\n{}", c.text))
    }

    #[test]
    fn load_reads_back_what_out_writes() {
        let recs = load(&file("bsp_kernels", &[1.25], "00ff", 0)).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].workload, "bsp_kernels");
        assert!(!recs[0].trace);
        assert_eq!(recs[0].sim_digest, "00ff");
        assert_eq!(recs[0].metric("pass_s"), Some(1.25));
        assert_eq!(recs[0].metric("nope"), None);
        assert!(load("{\"workload\": 3}").is_err());
        assert!(load("not json").is_err());
    }

    #[test]
    fn compare_judges_each_metric_against_its_bound() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.01];
        let a = [
            file("figure_suite", &steady, "aa", 0),
            file("bsp_exchange", &steady, "aa", 0),
            file("bsp_kernels", &[1.0, 1.3, 0.8, 1.2, 0.9], "aa", 0),
            file("serve_reads", &[1.0, 1.3, 0.8, 1.2, 0.9], "aa", 0),
            file("serve_writes", &steady, "aa", 0),
        ]
        .concat();
        let b = [
            // 40 % slower with a tight spread: beyond the 25 % bound.
            file("figure_suite", &steady.map(|v| v * 1.4), "aa", 0),
            // 5 % slower: within the bound.
            file("bsp_exchange", &steady.map(|v| v * 1.05), "bb", 0),
            // Spread wider than the bound and overlapping runs.
            file("bsp_kernels", &[1.1, 1.2, 0.9, 1.3, 1.0], "aa", 0),
            // As wide, but every run of b beats every run of a.
            file("serve_reads", &[0.5, 0.6, 0.4, 0.7, 0.45], "aa", 0),
            // Same times, but an operation now fails.
            file("serve_writes", &steady, "aa", 1),
        ]
        .concat();
        let c = compare(&load(&a).unwrap(), &load(&b).unwrap());

        assert!(line_of(&c, "figure_suite", "pass_s").ends_with("REGRESSION"));
        assert!(line_of(&c, "figure_suite", "setup_s").ends_with("ok"));
        assert!(line_of(&c, "bsp_exchange", "pass_s").ends_with("ok"));
        assert!(line_of(&c, "bsp_kernels", "pass_s").ends_with("unresolved"));
        assert!(line_of(&c, "serve_reads", "pass_s").ends_with("better"));
        assert!(line_of(&c, "serve_writes", "ops_failed").ends_with("REGRESSION"));
        assert!(line_of(&c, "figure_suite", "ops_failed").ends_with("ok"));
        assert!(line_of(&c, "figure_suite", "sim_digest").ends_with("equal"));
        assert!(line_of(&c, "bsp_exchange", "sim_digest").contains("CHANGED"));
        assert_eq!((c.regressions, c.unresolved), (2, 1));
    }

    #[test]
    fn a_set_agrees_with_itself_and_a_missing_workload_is_unresolved() {
        let a = load(&file("figure_suite", &[1.0, 1.02, 0.98], "aa", 0)).unwrap();
        let c = compare(&a, &a);
        assert_eq!(c.regressions, 0);
        // The four workloads the file does not hold.
        assert_eq!(c.unresolved, 4);
    }

    #[test]
    fn an_exact_count_moving_the_wrong_way_is_a_regression() {
        let traced = |msgs: f64, completed: f64| {
            format!(
                "{{\"workload\": \"bsp_exchange\", \"seed\": 7, \"trace\": 1, \
                 \"sim_digest\": \"aa\", \"attempted\": 10, \"failed\": 0, \"metrics\": \
                 {{\"core.msgs_per_phase\": {{\"value\": {msgs}, \"unit\": \"count\"}}, \
                 \"serve.completed\": {{\"value\": {completed}, \"unit\": \"count\"}}, \
                 \"core.sim_us_per_phase\": {{\"value\": {msgs}, \"unit\": \"us\"}}}}}}\n"
            )
        };
        let base = file("bsp_exchange", &[1.0], "aa", 0);
        let a = load(&(base.clone() + &traced(240.0, 1000.0))).unwrap();
        let more_msgs = load(&(base.clone() + &traced(256.0, 1000.0))).unwrap();
        let fewer_done = load(&(base.clone() + &traced(240.0, 999.0))).unwrap();
        let fewer_msgs = load(&(base + &traced(200.0, 1000.0))).unwrap();
        assert_eq!(compare(&a, &more_msgs).regressions, 1);
        assert_eq!(compare(&a, &fewer_done).regressions, 1);
        let better = compare(&a, &fewer_msgs);
        assert_eq!(better.regressions, 0);
        assert!(line_of(&better, "bsp_exchange", "core.msgs_per_phase").contains("better"));
    }
}
