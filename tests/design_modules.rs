//! DESIGN.md's per-crate module lists match the source tree.
//!
//! Under each `` ### `crates/X` `` heading, a bullet that opens with
//! `` `file.rs` `` (or `` `a.rs` / `b.rs` ``) names a module of
//! `crates/X/src`: the file must exist, and a section that bullets any
//! file must bullet every one but `lib.rs`. A section without such
//! bullets (a crate described in prose) is not checked.

use std::collections::BTreeSet;
use std::path::Path;

/// The `name.rs` tokens a bullet opens with: the backticked ones
/// before its ` — ` dash.
fn bulleted_files(line: &str) -> Vec<&str> {
    let Some(item) = line.strip_prefix("* ").or_else(|| line.strip_prefix("- ")) else {
        return Vec::new();
    };
    let head = item.split(" — ").next().unwrap_or(item);
    let is_file = |t: &&str| t.len() > 3 && t.ends_with(".rs") && !t.contains(['/', ' ']);
    head.split('`').skip(1).step_by(2).filter(is_file).collect()
}

/// `(crate directory, bulleted files)` per `` ### `crates/X` `` section.
fn sections(design: &str) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = Vec::new();
    let mut open = false;
    for line in design.lines() {
        if line.starts_with("## ") || line.starts_with("### ") {
            let dir = line.strip_prefix("### `crates/").and_then(|r| r.split('`').next());
            open = dir.is_some();
            if let Some(dir) = dir {
                out.push((dir.to_string(), Vec::new()));
            }
        } else if open {
            let files = &mut out.last_mut().expect("an open section").1;
            files.extend(bulleted_files(line).into_iter().map(str::to_string));
        }
    }
    out
}

#[test]
fn bullets_open_on_file_names_only() {
    assert_eq!(bulleted_files("* `a.rs` / `b_c.rs` — uses `d.rs`"), ["a.rs", "b_c.rs"]);
    assert_eq!(bulleted_files("* `bin/x.rs` — a binary"), Vec::<&str>::new());
    assert_eq!(bulleted_files("  `a.rs` — a continuation"), Vec::<&str>::new());
    assert_eq!(bulleted_files("* `Cycles` (f64 newtype)"), Vec::<&str>::new());
}

#[test]
fn design_module_lists_match_the_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let sections = sections(&design);
    assert!(sections.len() >= 8, "found {} crate sections", sections.len());
    let mut problems = Vec::new();
    for (dir, bulleted) in sections {
        if bulleted.is_empty() {
            continue;
        }
        let src = root.join("crates").join(&dir).join("src");
        let on_disk: BTreeSet<String> = std::fs::read_dir(&src)
            .unwrap_or_else(|e| panic!("{}: {e}", src.display()))
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".rs") && name != "lib.rs")
            .collect();
        let bulleted: BTreeSet<String> = bulleted.into_iter().collect();
        for missing in bulleted.difference(&on_disk) {
            problems
                .push(format!("crates/{dir}: DESIGN.md bullets `{missing}`, which does not exist"));
        }
        for unlisted in on_disk.difference(&bulleted) {
            problems.push(format!("crates/{dir}: `{unlisted}` has no DESIGN.md bullet"));
        }
    }
    assert!(problems.is_empty(), "DESIGN.md module lists are stale:\n{}", problems.join("\n"));
}
