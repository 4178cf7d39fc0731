//! Every fast-mode artifact, pinned: `all` at `QSM_FAST=1` writes the
//! 17 figure CSVs and, with `QSM_METRICS`, one metrics dump, and each
//! must match its line in `fast_artifacts.txt` — the file's name, its
//! row count (lines, a CSV's header included) and the FNV-1a digest of
//! its bytes. A change that means to move no simulated number leaves
//! this file unedited; one that does prints the new rows of every file
//! it moved, and the line to commit for each.
//!
//! The dump is deterministic on the sim backend: it holds no host time
//! and no scheduling counter, and reads the same at any `QSM_JOBS`.

mod common;

use std::collections::BTreeMap;

use common::{fresh_dir, read, run_figure};

/// The committed pins: name → (rows, digest).
const PINS: &str = include_str!("fast_artifacts.txt");

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// `text`'s line in the pin file, under `name`.
fn pin(name: &str, text: &str) -> String {
    format!("{name} {} {:016x}", text.lines().count(), fnv1a(text))
}

#[test]
fn every_fast_artifact_matches_its_pin() {
    let dir = fresh_dir("fast-artifacts");
    let metrics = dir.join("metrics.json");
    let knobs = [("QSM_JOBS", "2"), ("QSM_METRICS", metrics.to_str().unwrap())];
    run_figure(env!("CARGO_BIN_EXE_all"), &dir, &knobs);

    let mut written = BTreeMap::new();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        written.insert(name, read(&path));
    }
    let pinned: BTreeMap<&str, &str> =
        PINS.lines().map(|line| (line.split(' ').next().unwrap(), line)).collect();
    assert_eq!(pinned.len(), 18, "17 CSVs and the metrics dump are pinned");
    assert_eq!(
        written.keys().map(String::as_str).collect::<Vec<_>>(),
        pinned.keys().copied().collect::<Vec<_>>(),
        "`all` writes exactly the pinned files"
    );

    let moved: Vec<String> = written
        .iter()
        .filter(|(name, text)| pin(name, text) != pinned[name.as_str()])
        .map(|(name, text)| {
            format!("{name} moved; its new rows:\n{text}\nnew pin: {}", pin(name, text))
        })
        .collect();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fnv1a_matches_reference_vectors() {
    // Published FNV-1a test vectors, so the pins are the function the
    // file's doc names.
    assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
}
