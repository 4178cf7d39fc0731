//! Running the harness binaries the way a user does: in a subprocess
//! whose `QSM_*` environment is exactly the knobs given. The knobs are
//! parsed once per process, so a test that wants other knobs runs
//! another process.

#![allow(dead_code)] // each test binary uses its own share

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Run the binary at `exe` with exactly `knobs` as its `QSM_*`
/// environment (every inherited `QSM_*` variable is scrubbed first).
pub fn run_bin(exe: &str, knobs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(exe);
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("QSM_") {
            cmd.env_remove(k);
        }
    }
    cmd.envs(knobs.iter().copied());
    cmd.output().unwrap_or_else(|e| panic!("{exe} should spawn: {e}"))
}

/// Run a figure binary in fast mode with its results under `dir`, and
/// insist it succeeds.
pub fn run_figure(exe: &str, dir: &Path, knobs: &[(&str, &str)]) -> Output {
    let results = dir.to_str().unwrap();
    let mut all = vec![("QSM_FAST", "1"), ("QSM_RESULTS_DIR", results)];
    all.extend_from_slice(knobs);
    let out = run_bin(exe, &all);
    assert!(out.status.success(), "{exe} {knobs:?} failed:\n{}", stderr(&out));
    out
}

pub fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// An empty scratch directory unique to this process and `tag`.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qsm-bench-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

pub fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}
