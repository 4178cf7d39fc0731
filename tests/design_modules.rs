//! Each crate's design lives in its rustdoc, and its `lib.rs` names
//! every module: under the `## Modules` heading of the crate's `//!`
//! docs, each bullet opens with the modules it describes —
//! `` [`name`] ``, `` [`mod@name`] ``, or `` `name` `` for a private
//! module, several joined by ` / ` before the bullet's ` — ` dash.
//! Every module file of `crates/X/src` (a `name.rs` beside `lib.rs`,
//! or a `name/mod.rs`) must be named there exactly once, and every
//! name must be such a file.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The module names a bullet opens with: the backticked tokens before
/// its ` — ` dash, links or not.
fn bulleted_modules(line: &str) -> Vec<&str> {
    let Some(item) = line.strip_prefix("* ") else { return Vec::new() };
    let head = item.split(" — ").next().unwrap_or(item);
    head.split('`').skip(1).step_by(2).map(|t| t.strip_prefix("mod@").unwrap_or(t)).collect()
}

/// Every module name the bullets of `lib`'s `## Modules` section open
/// with, in order; `None` when its `//!` docs have no such section.
fn inventory(lib: &str) -> Option<Vec<&str>> {
    let docs = lib.lines().map_while(|l| l.strip_prefix("//!")).map(|l| l.trim_start());
    let mut section = docs.skip_while(|l| *l != "## Modules");
    section.next()?;
    Some(section.take_while(|l| !l.starts_with('#')).flat_map(bulleted_modules).collect())
}

/// The modules of a crate's `src`, by the files that define them.
fn module_files(src: &Path) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for entry in std::fs::read_dir(src).unwrap_or_else(|e| panic!("{}: {e}", src.display())) {
        let path = entry.expect("dir entry").path();
        let name = path.file_stem().expect("file name").to_string_lossy().into_owned();
        let is_module = if path.is_dir() {
            path.join("mod.rs").is_file()
        } else {
            path.extension().is_some_and(|x| x == "rs") && name != "lib"
        };
        if is_module {
            out.insert(name);
        }
    }
    out
}

#[test]
fn bullets_open_on_module_names_only() {
    assert_eq!(bulleted_modules("* [`a`] / `b_c` — uses [`d`] and `e`"), ["a", "b_c"]);
    assert_eq!(bulleted_modules("* [`mod@knobs`] — the knobs"), ["knobs"]);
    assert_eq!(bulleted_modules("  [`a`] — a continuation"), Vec::<&str>::new());
    let lib = "//! # x\n//!\n//! * [`before`] — not listed\n//!\n//! ## Modules\n//!\n\
               //! Prose.\n//!\n//! * [`a`] — one\n//!   [`b`] — continued\n//! * `c` — two\n\
               //!\n//! ## Next\n//!\n//! * [`after`] — not listed\n\npub mod a;\n";
    assert_eq!(inventory(lib), Some(vec!["a", "c"]));
    assert_eq!(inventory("//! # x\n//!\n//! * [`a`] — no section\n"), None);
}

#[test]
fn design_module_lists_match_the_crates() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut problems = Vec::new();
    let mut checked = 0;
    for krate in std::fs::read_dir(&crates).expect("crates/") {
        let src = krate.expect("dir entry").path().join("src");
        let dir = src.parent().and_then(Path::file_name).unwrap().to_string_lossy().into_owned();
        let lib = std::fs::read_to_string(src.join("lib.rs")).expect("lib.rs");
        let Some(named) = inventory(&lib) else {
            problems.push(format!("crates/{dir}: lib.rs has no `## Modules` section"));
            continue;
        };
        checked += 1;
        let on_disk = module_files(&src);
        let mut times: BTreeMap<&str, usize> = BTreeMap::new();
        for name in named {
            *times.entry(name).or_default() += 1;
        }
        for (name, &n) in &times {
            if !on_disk.contains(*name) {
                problems.push(format!("crates/{dir}: lib.rs lists `{name}`, which is no module"));
            } else if n > 1 {
                problems.push(format!("crates/{dir}: lib.rs lists `{name}` {n} times"));
            }
        }
        for module in on_disk.iter().filter(|m| !times.contains_key(m.as_str())) {
            problems.push(format!("crates/{dir}: `{module}` is not in lib.rs's module list"));
        }
    }
    assert!(checked >= 8, "found {checked} crate inventories");
    assert!(problems.is_empty(), "module inventories are stale:\n{}", problems.join("\n"));
}
