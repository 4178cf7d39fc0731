//! The figure registry is written in three places that must agree:
//! the `pub mod` list of `crates/bench/src/figures/mod.rs`, the list
//! the `all` binary runs, and the figure binaries, one a figure. Each
//! names the same 17 figures, each exactly once.

use std::collections::BTreeMap;
use std::path::Path;

/// How often each `qsm_bench::figures::<id>::run` occurs in `src`.
fn runs_named(src: &str, counts: &mut BTreeMap<String, usize>) {
    for (at, _) in src.match_indices("qsm_bench::figures::") {
        let rest = &src[at + "qsm_bench::figures::".len()..];
        if let Some((id, tail)) = rest.split_once("::") {
            let is_run = tail.starts_with("run")
                && !tail[3..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
            if is_run && id.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                *counts.entry(id.to_string()).or_default() += 1;
            }
        }
    }
}

fn once_each(counts: &BTreeMap<String, usize>) -> Vec<String> {
    let twice: Vec<_> = counts.iter().filter(|&(_, &n)| n != 1).collect();
    assert!(twice.is_empty(), "named more than once: {twice:?}");
    counts.keys().cloned().collect()
}

#[test]
fn the_run_scanner_sees_what_it_must() {
    let mut counts = BTreeMap::new();
    runs_named(
        "qsm_bench::figures::fig1::run, qsm_bench::figures::ext_service::base_config(&cfg), \
         qsm_bench::figures::run_kernel(a), qsm_bench::figures::fig2::run_with(c)",
        &mut counts,
    );
    assert_eq!(once_each(&counts), ["fig1"]);
}

#[test]
fn registry_all_and_binaries_name_the_same_seventeen_figures() {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/src");
    let registry = std::fs::read_to_string(bench.join("figures/mod.rs")).unwrap();
    let mut modules: Vec<String> = registry
        .lines()
        .filter_map(|l| Some(l.strip_prefix("pub mod ")?.strip_suffix(';')?.to_string()))
        .collect();
    modules.sort_unstable();
    assert_eq!(modules.len(), 17, "{modules:?}");

    let mut in_all = BTreeMap::new();
    runs_named(&std::fs::read_to_string(bench.join("bin/all.rs")).unwrap(), &mut in_all);
    assert_eq!(once_each(&in_all), modules, "all.rs");

    let mut in_bins = BTreeMap::new();
    for entry in std::fs::read_dir(bench.join("bin")).unwrap() {
        let path = entry.unwrap().path();
        if path.file_name().is_some_and(|f| f == "all.rs") {
            continue;
        }
        let mut own = BTreeMap::new();
        runs_named(&std::fs::read_to_string(&path).unwrap(), &mut own);
        assert!(own.len() <= 1, "{} runs more than one figure: {own:?}", path.display());
        for (id, n) in own {
            *in_bins.entry(id).or_default() += n;
        }
    }
    assert_eq!(once_each(&in_bins), modules, "the figure binaries");
}
