//! Knob names cannot drift from the documents: every `QSM_*` name the
//! user-facing documents quote is a knob the harness parses
//! (`Knobs::NAMES` in `crates/bench/src/knobs.rs`), and README names
//! every one of them.

use std::collections::BTreeSet;

const DOCS: [&str; 5] =
    ["README.md", "DESIGN.md", "TUTORIAL.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"];

/// Every `QSM_[A-Z_]+` in `text`.
fn quoted(text: &str) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    for (at, _) in text.match_indices("QSM_") {
        let len = text[at + 4..].find(|c: char| !(c.is_ascii_uppercase() || c == '_'));
        let end = at + 4 + len.unwrap_or(text.len() - at - 4);
        if end > at + 4 {
            names.insert(&text[at..end]);
        }
    }
    names
}

/// The names listed in `Knobs::NAMES`.
fn knob_names() -> BTreeSet<&'static str> {
    let src = include_str!("../crates/bench/src/knobs.rs");
    let start = src.find("pub const NAMES").expect("Knobs::NAMES");
    let list = &src[start..start + src[start..].find("];").unwrap()];
    let names: BTreeSet<&str> = list.split('"').skip(1).step_by(2).collect();
    assert_eq!(names.len(), 12, "{names:?}");
    names
}

fn doc(path: &str) -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_documented_knob_exists() {
    let knobs = knob_names();
    for path in DOCS {
        let text = doc(path);
        for name in quoted(&text) {
            // A name ending in `_` (`QSM_BANK_*`, say) names a family of knobs.
            let known = match name.strip_suffix('_') {
                Some(prefix) => knobs.iter().any(|k| k.starts_with(prefix)),
                None => knobs.contains(name),
            };
            assert!(known, "{path} names {name}, which is not in Knobs::NAMES");
        }
    }
}

#[test]
fn readme_names_every_knob() {
    let readme = doc("README.md");
    let missing: Vec<&str> = knob_names().difference(&quoted(&readme)).copied().collect();
    assert!(missing.is_empty(), "README never names {missing:?}");
}

#[test]
fn the_scanner_sees_what_it_must() {
    let text = "`QSM_JOBS=4`, the `QSM_SERVICE_*` knobs, QSM_P, and a bare QSM_*";
    assert_eq!(quoted(text), BTreeSet::from(["QSM_JOBS", "QSM_SERVICE_", "QSM_P"]));
}
