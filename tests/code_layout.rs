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
//!
//! And a vendored stand-in (`vendor/*`) lives only as long as some
//! package depends on it.
//!
//! And the settable values (ROADMAP item 2) are pinned: a new setting
//! moves the pin on purpose, or not at all.

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

/// A file's non-test lines: those before its first column-0
/// `#[cfg(test)]`.
fn non_test(src: &str) -> impl Iterator<Item = &str> {
    src.lines().take_while(|line| !line.starts_with("#[cfg(test)]"))
}

/// The structs whose `pub` fields are settings.
const CONFIG_STRUCTS: [&str; 7] = [
    "ResultKnobs",
    "MachineConfig",
    "NetConfig",
    "SoftwareConfig",
    "BankModel",
    "FaultConfig",
    "ServiceConfig",
];

/// The settable values of `sources`' non-test lines: the entries of
/// `Knobs::NAMES`, the `pub` fields of each of [`CONFIG_STRUCTS`] (in
/// its order) and the `pub fn with_*` builders.
fn settable_values(sources: &[String]) -> (usize, [usize; 7], usize) {
    let (mut names, mut fields, mut builders) = (0, [0; 7], 0);
    for src in sources {
        let (mut in_names, mut in_struct) = (false, None);
        for line in non_test(src) {
            if line.contains("pub const NAMES") {
                in_names = true;
            } else if in_names && line.trim() == "];" {
                in_names = false;
            } else if in_names && line.contains("\"QSM_") {
                names += 1;
            }
            let header = |t: &&str| line.strip_prefix("pub struct ") == Some(&format!("{t} {{"));
            if let Some(t) = CONFIG_STRUCTS.iter().position(header) {
                in_struct = Some(t);
            } else if line.starts_with('}') {
                in_struct = None;
            } else if let Some(t) = in_struct {
                let field = line.strip_prefix("    pub ").and_then(|rest| rest.split_once(':'));
                let is_name = |name: &str| {
                    !name.is_empty()
                        && name.bytes().all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_'))
                };
                fields[t] += field.is_some_and(|(name, _)| is_name(name)) as usize;
            }
            builders += line.trim_start().starts_with("pub fn with_") as usize;
        }
    }
    (names, fields, builders)
}

#[test]
fn settable_values_are_pinned() {
    let sources: Vec<String> =
        crate_files(&["src"]).iter().map(|f| std::fs::read_to_string(f).unwrap()).collect();
    let (names, fields, builders) = settable_values(&sources);
    let total = names + fields.iter().sum::<usize>() + builders;
    let per_struct: Vec<String> =
        CONFIG_STRUCTS.iter().zip(fields).map(|(t, n)| format!("{t} {n}")).collect();
    assert_eq!(
        total,
        69,
        "settable values: knobs {names}, fields {} ({}), builders {builders}. A new setting \
         needs two callers outside tests that want different values; one with a single value \
         in use is a constant. Move the pin with the reading in ROADMAP item 2.",
        fields.iter().sum::<usize>(),
        per_struct.join(", ")
    );
}

#[test]
fn settable_values_count_what_they_must() {
    let src = "pub struct NetConfig {\n    /// Doc.\n    pub gap: f64,\n    pub(crate) hidden: u8,\n    \
               pub topology_2: Kind,\n}\n\npub struct Other {\n    pub x: u8,\n}\n\
               impl K {\n    pub const NAMES: [&str; 2] = [\n        \"QSM_A\",\n        \"QSM_B\",\n    ];\n\
               \n    pub fn with_gap(self) -> Self {}\n    fn with_private() {}\n}\n\n\
               #[cfg(test)]\nmod tests {\n    pub fn with_test() {}\n}\n";
    let (names, fields, builders) = settable_values(&[src.to_string()]);
    assert_eq!((names, fields.iter().sum::<usize>(), fields[2], builders), (2, 2, 2, 1));
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

/// The crates a manifest's dependency tables name: the key of every
/// entry under a `[dependencies]`, `[dev-dependencies]` or
/// `[build-dependencies]` header (target-specific ones included), but
/// not `[workspace.dependencies]`, which only declares where a crate
/// comes from.
fn dependencies(manifest: &str) -> Vec<&str> {
    let mut in_deps = false;
    let mut names = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']');
            in_deps = header.ends_with("dependencies") && !header.starts_with("workspace");
        } else if in_deps {
            let key = line.split(['=', '.', ' ']).next().unwrap_or("");
            if !key.is_empty() && !key.starts_with('#') {
                names.push(key);
            }
        }
    }
    names
}

#[test]
fn every_vendored_crate_has_a_user() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: PathBuf| {
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let mut manifests =
        vec![read(root.join("Cargo.toml")), read(root.join("benchmark/Cargo.toml"))];
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        manifests.push(read(krate.unwrap().path().join("Cargo.toml")));
    }
    let used: Vec<&str> = manifests.iter().flat_map(|m| dependencies(m)).collect();
    let mut unused = Vec::new();
    for vendored in std::fs::read_dir(root.join("vendor")).unwrap() {
        let dir = vendored.unwrap().path();
        let manifest = read(dir.join("Cargo.toml"));
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = "))
            .map(|n| n.trim_matches('"').to_string())
            .unwrap_or_else(|| panic!("{}: no package name", dir.display()));
        if !used.contains(&name.as_str()) {
            unused.push(format!("{} ({name})", dir.display()));
        }
    }
    assert!(
        unused.is_empty(),
        "vendored crates no package depends on (delete them and their workspace entry):\n{}",
        unused.join("\n")
    );
}

#[test]
fn dependency_tables_are_read_and_workspace_declarations_are_not() {
    let manifest = "[workspace.dependencies]\nrand = { path = \"vendor/rand\" }\n\n\
                    [package]\nname = \"x\"\n\n[dependencies]\nqsm-core.workspace = true\n\
                    # a comment\n\n[dev-dependencies]\nproptest = { path = \"p\" }\n\n\
                    [target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n\n[[bench]]\nname = \"b\"\n";
    assert_eq!(dependencies(manifest), ["qsm-core", "proptest", "libc"]);
}
