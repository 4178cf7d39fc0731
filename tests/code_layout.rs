//! Every `crates/*/src` file keeps its test code last: after the first
//! column-0 `#[cfg(test)]`, every top-level item carries a test `cfg`.
//!
//! The size meter (non-test lines of a file = the lines before that
//! attribute; `.claude/skills/verify/SKILL.md`, "Code size") relies on
//! it: a test-only item in the middle of a file hides the code after it.
//!
//! And the environment is read in one place: only
//! `crates/bench/src/knobs.rs` reads a variable, and no code or test
//! writes one (a process parses its knobs once, so a test that wants
//! other knobs runs another process).

use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Whether a column-0 line starts an item (or a top-level macro call).
fn starts_item(line: &str) -> bool {
    const KEYWORDS: [&str; 13] = [
        "pub", "fn", "impl", "struct", "enum", "mod", "use", "static", "const", "type", "trait",
        "unsafe", "extern",
    ];
    let word = line.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == '!')).next();
    word.is_some_and(|w| KEYWORDS.contains(&w) || (w.len() > 1 && w.ends_with('!')))
}

/// Whether an attribute line puts its item under `cfg(test)`.
fn is_test_cfg(attr: &str) -> bool {
    attr.starts_with("#[cfg") && attr.contains("test") && !attr.contains("not(test")
}

/// `(line number, line)` of every item after the file's first column-0
/// `#[cfg(test)]` that is compiled outside tests.
fn stray_items(src: &str) -> Vec<(usize, &str)> {
    let mut lines = src.lines().enumerate();
    if !lines.any(|(_, line)| line.starts_with("#[cfg(test)]")) {
        return Vec::new();
    }
    let (mut stray, mut test_cfg) = (Vec::new(), true);
    for (i, line) in lines {
        if line.starts_with("#[") {
            test_cfg |= is_test_cfg(line);
        } else if starts_item(line) {
            if !test_cfg {
                stray.push((i + 1, line));
            }
            test_cfg = false;
        }
    }
    stray
}

/// Every `.rs` file under `crates/*/<sub>` for each of `subs`.
fn crate_files(subs: &[&str]) -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(&root).unwrap() {
        let krate = krate.unwrap().path();
        for sub in subs {
            if krate.join(sub).is_dir() {
                rust_files(&krate.join(sub), &mut files);
            }
        }
    }
    assert!(files.len() > 50, "found only {} source files under {}", files.len(), root.display());
    files
}

/// `path:line: text` of every line of `files` that contains a needle.
fn lines_with(files: &[PathBuf], needles: &[String]) -> String {
    let mut report = String::new();
    for file in files {
        let src = std::fs::read_to_string(file).unwrap();
        for (n, line) in src.lines().enumerate() {
            if needles.iter().any(|needle| line.contains(needle.as_str())) {
                report += &format!("{}:{}: {}\n", file.display(), n + 1, line.trim());
            }
        }
    }
    report
}

#[test]
fn no_file_has_code_after_its_tests() {
    let mut report = String::new();
    for file in crate_files(&["src"]) {
        let src = std::fs::read_to_string(&file).unwrap();
        for (n, line) in stray_items(&src) {
            report += &format!("{}:{n}: {line}\n", file.display());
        }
    }
    assert!(
        report.is_empty(),
        "non-test code after a file's first `#[cfg(test)]` (move it above, or the test-only \
         item below it):\n{report}"
    );
}

#[test]
fn the_check_sees_what_it_must() {
    let layout = "fn code() {}\n\n#[cfg(test)]\nimpl X {}\n\n/// Doc.\npub(crate) fn more() {}\n\n\
                  #[cfg(test)]\n#[cfg(target_os = \"linux\")]\nmod tests {\n    fn inner() {}\n}\n";
    assert_eq!(stray_items(layout), [(7, "pub(crate) fn more() {}")]);
    assert!(stray_items("fn a() {}\n#[cfg(test)]\nmod tests {}\n").is_empty());
    assert!(stray_items("#[cfg(test)]\nmod t {}\n#[cfg(not(test))]\nfn b() {}\n").len() == 1);
    assert!(stray_items("#[cfg(test)]\nmod t {}\n#[cfg(all(test, unix))]\nfn c() {}\n").is_empty());
    assert!(stray_items("#[cfg(test)]\nmod t {}\nthread_local! {}\n").len() == 1);
}

#[test]
fn only_the_knobs_read_the_environment() {
    // `env::var`, `var_os`, `vars`, `vars_os`; spelled in pieces so
    // this file does not match itself.
    let reads = [format!("env::{}", "var")];
    let files: Vec<PathBuf> = crate_files(&["src"])
        .into_iter()
        .filter(|f| !f.ends_with("crates/bench/src/knobs.rs"))
        .collect();
    let report = lines_with(&files, &reads);
    assert!(report.is_empty(), "read the knob through `qsm_bench::knobs()` instead:\n{report}");
}

#[test]
fn nothing_writes_the_environment() {
    let writes = ["set", "remove"].map(|w| format!("env::{w}_var"));
    let mut files = crate_files(&["src", "tests", "benches", "examples"]);
    rust_files(&Path::new(env!("CARGO_MANIFEST_DIR")).join("tests"), &mut files);
    rust_files(&Path::new(env!("CARGO_MANIFEST_DIR")).join("examples"), &mut files);
    let report = lines_with(&files, &writes);
    assert!(report.is_empty(), "run a subprocess with its own knobs instead:\n{report}");
}
