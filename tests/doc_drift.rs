//! Quoted API cannot drift from the source: every `` `Type::member` ``
//! the user-facing documents quote names a type declared in
//! `crates/*/src` or `benchmark/src` (a `struct`, `enum`, `trait`,
//! `type` or `union`) and a member declared there — a `fn member`, a
//! `member:` field (or constant), or an enum variant. `Type::{a, b}`
//! quotes two members, and `Type::prefix_*` any member so named.
//!
//! Quoted paths cannot drift either: a module path a workspace crate
//! qualifies (`core::x`, `qsm_core::x` or `qsm::core::x`) names a
//! module file of that crate or an item it declares, and a quoted
//! `….rs` path is the tail of a file under `crates`, `src`, `tests`,
//! `examples` or `benchmark/src`.
//! Fenced code blocks are not quotes and are not checked.
//!
//! Named binaries cannot drift: every `--bin X` and `target/release/X`
//! in those documents and the verify skill, fenced blocks included, is
//! a file `crates/bench/src/bin/X.rs` or the benchmark's own binary.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = ["README.md", "DESIGN.md", "TUTORIAL.md", "EXPERIMENTS.md"];

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

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifiers of `text`, each with the byte offset it starts at.
fn idents(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let starts = text.char_indices().filter(move |&(at, c)| {
        (c.is_ascii_alphabetic() || c == '_') && !text[..at].ends_with(is_ident)
    });
    starts.map(move |(at, _)| {
        let len = text[at..].find(|c: char| !is_ident(c)).unwrap_or(text.len() - at);
        (at, &text[at..at + len])
    })
}

/// What a source file declares: `(types, members)`.
#[derive(Default)]
struct Declared {
    types: BTreeSet<String>,
    members: BTreeSet<String>,
}

impl Declared {
    fn scan(&mut self, src: &str) {
        let mut prev = "";
        for (at, word) in idents(src) {
            let rest = src[at + word.len()..].trim_start_matches([' ', '\t']);
            let field = rest.starts_with(':') && !rest.starts_with("::");
            let line_start = src[..at].rfind('\n').map_or(0, |n| n + 1);
            let first_on_line = src[line_start..at].trim().is_empty();
            let variant = first_on_line
                && word.starts_with(|c: char| c.is_ascii_uppercase())
                && (rest.is_empty() || rest.starts_with([',', '(', '{', '=', '\n', '\r']));
            if matches!(prev, "struct" | "enum" | "trait" | "type" | "union") {
                self.types.insert(word.to_string());
            } else if prev == "fn" || field || variant {
                self.members.insert(word.to_string());
            }
            prev = word;
        }
    }

    fn has_member(&self, member: &str) -> bool {
        match member.strip_suffix('*') {
            Some(prefix) => self.members.iter().any(|m| m.starts_with(prefix)),
            None => self.members.contains(member),
        }
    }
}

/// Every `(type, member)` a line's inline code quotes as
/// `Type::member`, `Type::{a, b}` or `Type::prefix_*`; a type that a
/// path qualifies (`krate::Type::member`) counts too.
fn quoted<'a>(line: &'a str) -> Vec<(&'a str, &'a str)> {
    let mut out = Vec::new();
    for span in line.split('`').skip(1).step_by(2) {
        for (at, word) in idents(span) {
            let Some(rest) = span[at + word.len()..].strip_prefix("::") else { continue };
            if !word.starts_with(|c: char| c.is_ascii_uppercase()) {
                continue;
            }
            // An identifier, and the `*` of a prefix after it.
            let name = |m: &'a str| {
                let len = m.find(|c: char| !is_ident(c)).unwrap_or(m.len());
                &m[..len + usize::from(m[len..].starts_with('*'))]
            };
            match rest.strip_prefix('{') {
                Some(group) => {
                    let group = group.split('}').next().unwrap_or("");
                    out.extend(group.split(',').map(|m| (word, name(m.trim()))));
                }
                None => out.push((word, name(rest))),
            }
        }
    }
    out
}

#[test]
fn the_scanner_sees_what_it_must() {
    let line = "`Ctx::local` / `EventQueue::{pop, push_lane}`, `qsm_core::Ctx::run(…)`, \
                `NetStats::link_*`, `Cycles`, `a::b` and `Knobs::NAMES`";
    assert_eq!(
        quoted(line),
        [
            ("Ctx", "local"),
            ("EventQueue", "pop"),
            ("EventQueue", "push_lane"),
            ("Ctx", "run"),
            ("NetStats", "link_*"),
            ("Knobs", "NAMES"),
        ]
    );
    let mut declared = Declared::default();
    declared.scan(
        "pub enum Kind {\n    Put,\n    Get(u8),\n}\n\
         pub struct S<'a> {\n    pub(crate) rows: u8,\n}\n\
         impl S {\n    const NAMES: [u8; 0] = [];\n    fn at(&self) -> u8 { Kind::Put; 0 }\n}\n",
    );
    assert_eq!(declared.types, BTreeSet::from(["Kind".into(), "S".into()]));
    for member in ["Put", "Get", "rows", "NAMES", "at", "ro*"] {
        assert!(declared.has_member(member), "{member}");
    }
    assert!(!declared.has_member("u8") && !declared.has_member("self"));
}

#[test]
fn every_quoted_type_and_member_is_declared() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        rust_files(&krate.unwrap().path().join("src"), &mut files);
    }
    rust_files(&root.join("benchmark/src"), &mut files);
    let mut declared = Declared::default();
    for file in &files {
        declared.scan(&std::fs::read_to_string(file).unwrap());
    }
    assert!(declared.types.contains("CommMatrix") && declared.members.contains("for_each_dirty"));

    let mut stale = Vec::new();
    for (at, line) in doc_lines(root) {
        for (ty, member) in quoted(&line) {
            if !declared.types.contains(ty) || !declared.has_member(member) {
                stale.push(format!("{at}: `{ty}::{member}`"));
            }
        }
    }
    assert!(stale.is_empty(), "quoted but not declared:\n{}", stale.join("\n"));
}

/// Every line of the documents outside fenced code blocks, each with
/// its `doc:line` position.
fn doc_lines(root: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        let mut fenced = false;
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
            }
            if !fenced {
                out.push((format!("{doc}:{}", n + 1), line.to_string()));
            }
        }
    }
    out
}

/// The workspace crates, by the short name `qsm_<name>` and
/// `qsm::<name>` extend.
const CRATES: [&str; 8] =
    ["algorithms", "bench", "core", "membank", "models", "obs", "serve", "simnet"];

/// Every `(crate, name)` a line's inline code quotes as a crate-qualified
/// path — `core::x`, `qsm_core::x` or `qsm::core::x` — and every
/// `….rs` path it quotes.
fn quoted_paths(line: &str) -> (Vec<(&str, &str)>, Vec<&str>) {
    let (mut modules, mut files) = (Vec::new(), Vec::new());
    for span in line.split('`').skip(1).step_by(2) {
        for (at, _) in idents(span).filter(|&(at, _)| !span[..at].ends_with("::")) {
            let mut segs =
                span[at..].split("::").map(|s| &s[..s.find(|c| !is_ident(c)).unwrap_or(s.len())]);
            let (first, second) = (segs.next().unwrap_or(""), segs.next().unwrap_or(""));
            let (krate, name) = match first.strip_prefix("qsm_") {
                Some(krate) => (krate, second),
                None if first == "qsm" => (second, segs.next().unwrap_or("")),
                None => (first, second),
            };
            if CRATES.contains(&krate) && !name.is_empty() {
                modules.push((krate, name));
            }
        }
        let tokens = span.split(|c: char| c.is_whitespace() || "(),:;".contains(c));
        files.extend(tokens.filter(|t| t.len() > 3 && t.ends_with(".rs")));
    }
    (modules, files)
}

/// The module files and declared item names of a crate's `src`.
fn crate_names(src: &Path) -> BTreeSet<String> {
    let mut files = Vec::new();
    rust_files(src, &mut files);
    let mut names = BTreeSet::new();
    for file in &files {
        let module = file.strip_prefix(src).unwrap().with_extension("");
        names.extend(module.iter().map(|part| part.to_string_lossy().into_owned()));
        let text = std::fs::read_to_string(file).unwrap();
        let mut prev = "";
        for (_, word) in idents(&text) {
            let item = ["fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union"];
            if item.contains(&prev) {
                names.insert(word.to_string());
            }
            prev = word;
        }
    }
    names
}

#[test]
fn the_path_scanner_sees_what_it_must() {
    let line = "`core::spmd` and `qsm_bench::knobs()`, `qsm::models::nmin`, \
                `simnet::config::CpuConfig`, `crate::obs`, `std::core::x`, \
                `tests/sim_on_pool.rs`, `sim_timer.rs::tests`, `a.rs` and `Cycles`";
    let (modules, files) = quoted_paths(line);
    assert_eq!(
        modules,
        [("core", "spmd"), ("bench", "knobs"), ("models", "nmin"), ("simnet", "config")]
    );
    assert_eq!(files, ["tests/sim_on_pool.rs", "sim_timer.rs", "a.rs"]);
}

#[test]
fn every_quoted_module_path_and_file_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let names: BTreeMap<&str, BTreeSet<String>> = CRATES
        .iter()
        .map(|&c| (c, crate_names(&root.join("crates").join(c).join("src"))))
        .collect();
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut sources);
    }
    let sources: Vec<String> = sources
        .iter()
        .map(|f| f.strip_prefix(root).unwrap().to_string_lossy().into_owned())
        .collect();

    let mut stale = Vec::new();
    for (at, line) in doc_lines(root) {
        let (modules, files) = quoted_paths(&line);
        for (krate, name) in modules {
            if !names[krate].contains(name) {
                stale.push(format!("{at}: `{krate}::{name}`"));
            }
        }
        for file in files {
            let tail = format!("/{file}");
            if !sources.iter().any(|s| s == file || s.ends_with(&tail)) {
                stale.push(format!("{at}: `{file}`"));
            }
        }
    }
    assert!(stale.is_empty(), "quoted but not in the tree:\n{}", stale.join("\n"));
}

/// Every binary a line names as `--bin X` or `target/release/X`.
fn named_binaries(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for marker in ["--bin ", "--bin=", "target/release/"] {
        for (at, _) in line.match_indices(marker) {
            let rest = &line[at + marker.len()..];
            let len = rest.find(|c: char| !is_ident(c) && c != '-').unwrap_or(rest.len());
            if len > 0 {
                out.push(&rest[..len]);
            }
        }
    }
    out
}

#[test]
fn the_binary_scanner_sees_what_it_must() {
    let line = "cargo run -p qsm-bench --bin fig1_prefix; `./target/release/explain` and \
                benchmark/target/release/qsm-benchmark, `--bin <name>`, `target/release/`";
    assert_eq!(named_binaries(line), ["fig1_prefix", "explain", "qsm-benchmark"]);
}

#[test]
fn every_named_binary_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("benchmark/Cargo.toml")).unwrap();
    assert!(manifest.contains("name = \"qsm-benchmark\""), "the benchmark binary was renamed");
    let bin = root.join("crates/bench/src/bin");
    let mut missing = Vec::new();
    for doc in DOCS.iter().chain([&".claude/skills/verify/SKILL.md"]) {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (n, line) in text.lines().enumerate() {
            for name in named_binaries(line) {
                if name != "qsm-benchmark" && !bin.join(format!("{name}.rs")).is_file() {
                    missing.push(format!("{doc}:{}: `{name}`", n + 1));
                }
            }
        }
    }
    assert!(missing.is_empty(), "named but not built:\n{}", missing.join("\n"));
}
