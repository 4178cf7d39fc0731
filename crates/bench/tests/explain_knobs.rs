//! `explain` reads its size knobs like every other `QSM_*` integer: a
//! value that does not parse warns on stderr and the default applies,
//! instead of a silent fallback. A subprocess, so that the knobs it
//! sees are exactly these.

use std::process::Command;

#[test]
fn an_unparseable_processor_count_warns_and_runs_at_the_default() {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_explain"));
    for (k, _) in std::env::vars() {
        if k.starts_with("QSM_") {
            cmd.env_remove(k);
        }
    }
    let out = cmd.env("QSM_P", "abc").env("QSM_N", "4096").output().expect("explain should spawn");
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "{stdout}\n{stderr}");
    let warning = "warning: ignoring unparseable QSM_P=\"abc\"";
    assert_eq!(stderr.matches(warning).count(), 1, "stderr:\n{stderr}");
    assert!(stdout.contains("== explain — prefix, p = 8, n = 4096,"), "stdout:\n{stdout}");
}
