//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [options]
//!     (no --workload)          every workload, each in its own process
//!     --workload <name>        one workload, in this process
//!     --seed <n>               inputs are a function of the seed (default 0x51EED001)
//!     --seconds <s>            how long the timed passes go on for (default 10)
//!     --trace <0|1>            0: end-to-end metrics; 1: per-layer metrics and spans
//!     --smoke                  one timed pass, every check on
//!     --out <file>             append each run's record, for `compare`
//! ... -- trace <workload>      short for --workload <workload> --trace 1
//! ... -- compare a.json b.json hold two sets of runs against each other
//! ```

mod adapter;
mod alloc;
mod calib;
mod compare;
mod json;
mod metrics;
mod probes;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use run::RunOpts;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const DEFAULT_SEED: u64 = 0x51EE_D001;
const DEFAULT_SECONDS: f64 = 10.0;

fn main() -> ExitCode {
    let process_start = Instant::now();
    // The benchmark fixes its own configuration: no knob of the
    // harness may leak in from the caller's environment, and sweeps
    // run serially so one figure is one thread of work.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("QSM_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("QSM_JOBS", "1");

    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_command(&args, process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(usage) => {
            eprintln!("error: {usage}");
            ExitCode::from(2)
        }
    }
}

/// Parse an unsigned integer, decimal or `0x` hexadecimal.
fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn run_command(args: &[String], process_start: Instant) -> Result<bool, String> {
    if args.first().is_some_and(|a| a == "compare") {
        let [_, a, b] = args else { return Err("usage: compare a.json b.json".into()) };
        let load = |path: &String| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            compare::load(&text).map_err(|e| format!("{path}: {e}"))
        };
        let result = compare::compare(&load(a)?, &load(b)?);
        print!("{}", result.text);
        return Ok(result.regressions == 0);
    }

    let mut workload = None;
    let mut opts = RunOpts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "trace" => {
                workload = Some(value()?.clone());
                opts.trace = true;
            }
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = parse_u64(value()?).ok_or("--seed takes an integer")?,
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }

    match workload {
        Some(name) if metrics::is_workload(&name) => {
            opts.workload = name;
            Ok(run::run(&opts, process_start))
        }
        Some(name) => Err(format!("unknown workload {name}")),
        None => run_all(&opts),
    }
}

/// Run every workload, each in a process of its own so that
/// `peak_rss_mb` is per workload and no workload warms another's
/// caches. Succeeds only if every one did.
fn run_all(opts: &RunOpts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_ok = true;
    for (name, _) in metrics::WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &opts.seed.to_string()]);
        cmd.args(["--seconds", &opts.seconds.to_string()]);
        cmd.args(["--trace", if opts.trace { "1" } else { "0" }]);
        if opts.smoke {
            cmd.arg("--smoke");
        }
        if let Some(out) = &opts.out {
            cmd.arg("--out").arg(out);
        }
        // `status` waits for the child to end.
        let status = cmd.status().map_err(|e| format!("cannot run {name}: {e}"))?;
        if !status.success() {
            eprintln!("error: workload {name} failed ({status})");
            all_ok = false;
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `perf_baseline`'s figure list drifted from the registry; this
    /// one cannot, because it is held against the registry's source.
    #[test]
    fn figure_list_equals_the_pub_mod_list_of_the_registry() {
        let registry = include_str!("../../crates/bench/src/figures/mod.rs");
        let mut modules: Vec<&str> = registry
            .lines()
            .filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';'))
            .collect();
        let mut listed: Vec<&str> = adapter::FIGURES.iter().map(|(id, _)| *id).collect();
        assert_eq!(listed.len(), 17);
        modules.sort_unstable();
        listed.sort_unstable();
        assert_eq!(listed, modules);
    }

    /// The order is the order `all.rs` runs the figures in.
    #[test]
    fn figure_order_is_the_order_of_the_all_binary() {
        let all = include_str!("../../crates/bench/src/bin/all.rs");
        let in_all: Vec<&str> = all
            .lines()
            .filter_map(|l| l.trim().strip_prefix("qsm_bench::figures::")?.split("::").next())
            .collect();
        let listed: Vec<&str> = adapter::FIGURES.iter().map(|(id, _)| *id).collect();
        assert_eq!(listed, in_all);
    }

    #[test]
    fn per_layer_table_has_one_time_per_figure() {
        for (id, _) in adapter::FIGURES {
            let name = format!("bench.fig_s.{id}");
            assert!(metrics::PER_LAYER.iter().any(|m| m.name == name), "{name} is not listed");
        }
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_u64("0x51EED001"), Some(DEFAULT_SEED));
        assert_eq!(parse_u64("42"), Some(42));
        assert_eq!(parse_u64("4x"), None);
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let start = Instant::now();
        assert!(run_command(&args("--workload nope"), start).is_err());
        assert!(run_command(&args("--seconds -1 --workload bsp_kernels"), start).is_err());
        assert!(run_command(&args("--trace 2 --workload bsp_kernels"), start).is_err());
        assert!(run_command(&args("--frobnicate"), start).is_err());
        assert!(run_command(&args("compare only-one.json"), start).is_err());
    }
}
