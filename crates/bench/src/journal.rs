//! `QSM_RUN_LOG` — the structured per-point run journal, and the
//! `QSM_RESUME` checkpoint ledger built on it.
//!
//! With `QSM_RUN_LOG=path.jsonl` set, the sweep executor appends
//! self-describing JSON records to the journal. Two record kinds
//! cover each measurement point's lifecycle:
//!
//! * `sweep_claim` — appended when a worker *starts* a point, before
//!   any work: `{"v":2,"kind":"sweep_claim","figure":"fig1",
//!   "fingerprint":"…","point":3,"total":10}`. The claim makes the
//!   journal a work ledger (a future PR can distribute one sweep
//!   across processes by treating an unclaimed point as available),
//!   and `claim` records without a matching completion pinpoint
//!   where a crashed run died. Replayed points never claim, so the
//!   claim count is exactly the work each (re)run performed.
//! * `sweep_point` — appended when the point completes, `status`
//!   `ok` or `failed` (then `error` carries the panic message and
//!   there is no `result`):
//!
//! ```json
//! {"v":2,"kind":"sweep_point","figure":"fig1","fingerprint":"c455a763c4e322c0",
//!  "point":0,"total":5,"config":"fig1|RunCfg { p: 16, reps: 1, fast: true }|
//!  total=5|schema=2|0.1.0|ResultKnobs { backend: Sim, banks: 0, bank_service:
//!  12, topology: None, link_gap: None, fault_seed: 1592654359 }","jobs":1,
//!  "duration_ms":0.781,"result":["6","4096","158.6","154.1","0.0","10.5","72.9"],
//!  "status":"ok"}
//! ```
//!
//! The `config` is everything that determines the sweep's results —
//! the figure, its [`crate::RunCfg`], the point count, the record
//! schema, the crate version and every knob that decides a result
//! ([`crate::knobs::ResultKnobs`], by its `Debug` form, so a new such
//! knob joins it by construction) — and the `fingerprint` is its
//! hash; `result` is the point's result encoded via
//! [`crate::replay::Replay`]. Together they make a completed point
//! *detectably recoverable*: a rerun with `QSM_RESUME=1` loads the
//! journal, replays the `ok` records whose fingerprint matches its
//! own configuration bit-exactly, and re-runs everything else (failed
//! points, unfinished points, and — on any fingerprint mismatch — the
//! whole sweep, so a stale journal can never poison an artifact).
//!
//! The fingerprint is derived, not listed. When it was a hand-written
//! list, `QSM_BANK_SERVICE` counted only under `QSM_BANKS`, so a stale
//! `ext_banks` journal replayed into a default run; this crate's
//! `tests/sweep_resume.rs` pins that case. `QSM_PANIC_POINT` stays
//! outside it, like every knob outside `ResultKnobs`: the kill drill
//! must not change the identity of the sweep it kills, or a resume
//! could never match the killed run's records.
//!
//! Every line is written durably (see [`qsm_obs::RunJournal`]: flush +
//! `sync_data`; whole-line appends; a torn final line left by a crash
//! is terminated on reopen), so the ledger survives exactly the
//! crashes it exists for. The reader accepts exactly the flat object
//! the writer renders — strings, numbers and one array of strings —
//! and only as a whole line, so a torn record is skipped, never
//! half-read.
//!
//! Records carry `"v"` and `"kind"` so readers skip what they do not
//! understand. Unlike the metrics dump, the journal is *not*
//! byte-stable across `QSM_JOBS`: concurrent points complete (and
//! log) in scheduling order, and durations are wall-clock. Every
//! line is valid JSON in any order, which is what the CI smoke jobs
//! check; the per-point `duration_ms` is how a long sweep is watched
//! (`tail -f` the journal).
//!
//! An unusable `QSM_RUN_LOG` warns and disables journaling when the
//! knobs are parsed ([`mod@crate::knobs`]).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use qsm_obs::{json_escape, json_unescape, read_complete_lines, RunJournal};

use crate::knobs::{knobs, ResultKnobs};
use crate::RunCfg;

/// Version of the journal's record layout: each record's `v`, and part
/// of the fingerprint.
const SCHEMA: u32 = 2;

/// Figure and run configuration the next records are attributed to.
static CTX: Mutex<(&str, RunCfg)> = Mutex::new(("?", RunCfg { p: 0, reps: 0, fast: false }));
static JOURNAL: OnceLock<Option<(RunJournal, PathBuf)>> = OnceLock::new();

fn journal() -> Option<&'static (RunJournal, PathBuf)> {
    JOURNAL
        .get_or_init(|| {
            let path = knobs().run_log.clone()?;
            match RunJournal::open_with(&path, true) {
                Ok(j) => Some((j, path)),
                Err(e) => {
                    // The knobs probed writability, so this is a race
                    // (e.g. the directory vanished); same loud
                    // degradation.
                    eprintln!(
                        "warning: ignoring unusable QSM_RUN_LOG={:?} ({e}); \
                         run journal disabled",
                        path.display()
                    );
                    None
                }
            }
        })
        .as_ref()
}

/// Whether a journal is active (decides if the sweep executor times
/// its points).
pub(crate) fn active() -> bool {
    journal().is_some()
}

/// Attribute subsequent sweep points to `figure` under `cfg`. Each
/// figure's entry point calls this before running its sweeps; a
/// binary running several figures (`all`) just re-points the context.
pub fn set_figure(figure: &'static str, cfg: &RunCfg) {
    *CTX.lock().unwrap_or_else(|e| e.into_inner()) = (figure, cfg.clone());
}

/// FNV-1a over `s` — a stable, dependency-free content hash for the
/// configuration fingerprint (collision resistance is irrelevant:
/// the fingerprint guards against *configuration drift*, not an
/// adversary).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything that decides a sweep's results: the figure, its run
/// configuration, the sweep's point count, the record schema, the
/// crate version and the knobs that decide a result. Two runs share it
/// exactly when their journaled results are interchangeable — the
/// property `QSM_RESUME` replay rests on. Every other knob is left
/// out: `QSM_PANIC_POINT`, say, must not change the identity of the
/// sweep it kills, or the resumed run could never match it.
fn config(figure: &str, cfg: &RunCfg, total: usize, knobs: &ResultKnobs) -> String {
    format!(
        "{figure}|{cfg:?}|total={total}|schema={SCHEMA}|{}|{knobs:?}",
        env!("CARGO_PKG_VERSION")
    )
}

/// The fingerprint every record of a sweep under `config` carries.
fn hash(config: &str) -> String {
    format!("{:016x}", fnv1a(config))
}

/// The current sweep's figure and [`config`].
fn current(total: usize) -> (&'static str, String) {
    let (figure, cfg) = CTX.lock().unwrap_or_else(|e| e.into_inner()).clone();
    (figure, config(figure, &cfg, total, &knobs().result))
}

/// A value of a journal record.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    /// A non-negative finite number: a count, or `duration_ms`.
    Num(f64),
    /// The point's encoded result.
    List(Vec<String>),
}

/// The opening fields of a record of `kind` for point `index` of a
/// sweep of `figure` under `config`.
fn head(
    kind: &str,
    figure: &str,
    config: &str,
    index: usize,
    total: usize,
) -> Vec<(&'static str, Value)> {
    vec![
        ("v", Value::Num(SCHEMA.into())),
        ("kind", Value::Str(kind.into())),
        ("figure", Value::Str(figure.into())),
        ("fingerprint", Value::Str(hash(config))),
        ("point", Value::Num(index as f64)),
        ("total", Value::Num(total as f64)),
    ]
}

/// `fields` as one JSON object, in order.
fn render(fields: &[(&str, Value)]) -> String {
    let quoted = |s: &str| format!("\"{}\"", json_escape(s));
    let values: Vec<String> = fields
        .iter()
        .map(|(key, value)| {
            let v = match value {
                Value::Str(s) => quoted(s),
                Value::Num(n) => n.to_string(),
                Value::List(items) => {
                    format!("[{}]", items.iter().map(|s| quoted(s)).collect::<Vec<_>>().join(","))
                }
            };
            format!("{}:{v}", quoted(key))
        })
        .collect();
    format!("{{{}}}", values.join(","))
}

/// Parse a journal line as the flat object [`render`] writes. `None`
/// unless the whole line is one, so every torn prefix of a record is
/// `None`; nothing recurses, whatever the line holds.
fn parse(line: &str) -> Option<Vec<(String, Value)>> {
    /// The string literal `s` opens with, unescaped, and the rest.
    fn string(s: &str) -> Option<(String, &str)> {
        let body = s.strip_prefix('"')?;
        let mut escaped = false;
        let end = body.bytes().position(|b| {
            let end = b == b'"' && !escaped;
            escaped = b == b'\\' && !escaped;
            end
        })?;
        Some((json_unescape(&body[..end])?, &body[end + 1..]))
    }
    let mut rest = line.strip_prefix('{')?;
    let mut fields = Vec::new();
    loop {
        let (key, after) = string(rest)?;
        let after = after.strip_prefix(':')?;
        let (value, after) = if after.starts_with('"') {
            let (s, after) = string(after)?;
            (Value::Str(s), after)
        } else if let Some(mut after) = after.strip_prefix('[') {
            let mut items = Vec::new();
            while !after.starts_with(']') {
                if !items.is_empty() {
                    after = after.strip_prefix(',')?;
                }
                let (item, next) = string(after)?;
                items.push(item);
                after = next;
            }
            (Value::List(items), &after[1..])
        } else {
            let end = after.find(|c: char| !(c.is_ascii_digit() || c == '.'))?;
            (Value::Num(after[..end].parse().ok()?), &after[end..])
        };
        fields.push((key, value));
        match after.strip_prefix(',') {
            Some(next) => rest = next,
            None => return (after == "}").then_some(fields),
        }
    }
}

/// Append `fields` as one record (no-op when inactive).
fn append(fields: &[(&str, Value)]) {
    let Some((journal, _)) = journal() else { return };
    if let Err(e) = journal.append(&render(fields)) {
        eprintln!("warning: cannot append to QSM_RUN_LOG: {e}");
    }
}

/// Append a work-claim record for point `index` of a `total`-point
/// sweep (no-op when inactive). Written *before* the point runs: a
/// claim without a later completion marks where a crashed run died.
pub(crate) fn record_claim(index: usize, total: usize) {
    let (figure, config) = current(total);
    append(&head("sweep_claim", figure, &config, index, total));
}

/// One completed sweep point, reported by the executor.
pub(crate) struct PointRecord<'a> {
    pub index: usize,
    pub total: usize,
    pub jobs: usize,
    pub duration_ms: f64,
    /// The point's [`crate::replay::Replay`]-encoded result, or the
    /// panic message of a failed point.
    pub outcome: Result<Vec<String>, &'a str>,
}

/// The fields of `rec`'s `sweep_point` record in a sweep of `figure`
/// under `config`, in the order they are written.
fn point_fields(figure: &str, config: String, rec: &PointRecord<'_>) -> Vec<(&'static str, Value)> {
    let mut fields = head("sweep_point", figure, &config, rec.index, rec.total);
    fields.push(("config", Value::Str(config)));
    fields.push(("jobs", Value::Num(rec.jobs as f64)));
    fields.push(("duration_ms", Value::Num((rec.duration_ms * 1e3).round() / 1e3)));
    match &rec.outcome {
        Ok(result) => {
            fields.push(("result", Value::List(result.clone())));
            fields.push(("status", Value::Str("ok".into())));
        }
        Err(msg) => {
            fields.push(("status", Value::Str("failed".into())));
            fields.push(("error", Value::Str(msg.to_string())));
        }
    }
    fields
}

/// Append `rec` to the journal (no-op when inactive).
pub(crate) fn record_point(rec: &PointRecord<'_>) {
    let (figure, config) = current(rec.total);
    append(&point_fields(figure, config, rec));
}

/// Load the replayable results for the current figure's `total`-point
/// sweep: every journaled `sweep_point` record that completed `ok`,
/// carries a `result`, and matches this run's fingerprint. Keyed by
/// point index; when a point was journaled more than once (a sweep
/// resumed twice, or rerun into the same ledger) the latest record
/// wins. Unparseable lines — including a crash's quarantined torn
/// tail — are skipped, never fatal.
pub(crate) fn load_replay(total: usize) -> HashMap<usize, Vec<String>> {
    let mut out = HashMap::new();
    let Some((_, path)) = journal() else { return out };
    let lines = match read_complete_lines(path) {
        Ok(lines) => lines,
        Err(e) => {
            eprintln!("warning: cannot read QSM_RUN_LOG for resume: {e}");
            return out;
        }
    };
    let want = hash(&current(total).1);
    for rec in lines.iter().filter_map(|line| parse(line)) {
        let get = |key: &str| rec.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let is = |key: &str, want: &str| matches!(get(key), Some(Value::Str(s)) if s == want);
        let count = |key: &str| match get(key) {
            Some(&Value::Num(n)) if n.fract() == 0.0 => Some(n as usize),
            _ => None,
        };
        let (Some(point), Some(Value::List(result))) = (count("point"), get("result")) else {
            continue;
        };
        if is("kind", "sweep_point")
            && is("status", "ok")
            && is("fingerprint", &want)
            && count("total") == Some(total)
            && point < total
        {
            out.insert(point, result.clone());
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The fingerprint of a sweep of `figure` under `cfg` and `knobs`.
    pub(crate) fn fingerprint(
        figure: &str,
        cfg: &RunCfg,
        total: usize,
        knobs: &ResultKnobs,
    ) -> String {
        hash(&config(figure, cfg, total, knobs))
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let knobs = crate::knobs::tests::parse(&[]).result;
        let cfg = RunCfg { p: 16, reps: 3, fast: false };
        let a = fingerprint("fig1", &cfg, 10, &knobs);
        assert_eq!(a, fingerprint("fig1", &cfg, 10, &knobs));
        assert_eq!(a.len(), 16, "zero-padded 64-bit hex");
        // Any identity-relevant change moves it (the knobs' share is
        // `knobs::tests::the_fingerprint_hashes_exactly_the_result_knobs`).
        assert_ne!(a, fingerprint("fig2", &cfg, 10, &knobs), "figure");
        assert_ne!(a, fingerprint("fig1", &cfg, 11, &knobs), "point count");
        let more_reps = RunCfg { reps: 4, ..cfg.clone() };
        assert_ne!(a, fingerprint("fig1", &more_reps, 10, &knobs), "reps");
    }

    /// Records as `record_claim` and `record_point` render them, with
    /// results and errors that need every escape and non-ASCII text.
    fn records() -> Vec<Vec<(&'static str, Value)>> {
        let config = config("fig1", &RunCfg::fast(), 10, &crate::knobs::tests::parse(&[]).result);
        let point = |outcome: Result<&[&str], &'static str>| PointRecord {
            index: 3,
            total: 10,
            jobs: 4,
            duration_ms: 12.345_678,
            outcome: outcome.map(|r| r.iter().map(|s| s.to_string()).collect()),
        };
        let tricky =
            ["65536", "1.5", "-0.0", "x\"y", "back\\slash", "tab\tnl\ncr\r\u{1}", "κ→∞", ""];
        vec![
            head("sweep_claim", "fig1", &config, 3, 10),
            point_fields("fig1", config.clone(), &point(Ok(&tricky))),
            point_fields("fig1", config.clone(), &point(Ok(&[]))),
            point_fields("ext\"q", config.clone(), &point(Err("boom \"at\" 3\n\u{7f}é"))),
        ]
    }

    fn owned(fields: &[(&str, Value)]) -> Vec<(String, Value)> {
        fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    }

    #[test]
    fn every_rendered_record_reads_back_equal() {
        for fields in records() {
            let line = render(&fields);
            assert_eq!(parse(&line), Some(owned(&fields)), "{line}");
        }
    }

    #[test]
    fn every_proper_prefix_of_a_record_is_none() {
        for fields in records() {
            let line = render(&fields);
            for (at, _) in line.char_indices() {
                assert_eq!(parse(&line[..at]), None, "{}", &line[..at]);
            }
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            r#"{"a":}"#,
            r#"{"a":1"#,
            r#"{"a":1} trailing"#,
            r#"{"a":01x}"#,
            r#"[1,2,3]"#, // not an object
            r#"{"a":"unterminated}"#,
        ] {
            assert_eq!(parse(bad), None, "should reject {bad:?}");
        }
    }

    #[test]
    fn numbers_parse_with_integer_exactness() {
        let rec = parse(r#"{"i":9007199254740992,"f":12.345}"#).unwrap();
        assert_eq!(rec[0].1, Value::Num(9_007_199_254_740_992.0));
        assert_eq!(rec[1].1, Value::Num(12.345));
        // The writer renders no sign and no exponent.
        for bad in [r#"{"i":-3}"#, r#"{"f":1.5e3}"#, r#"{"n":null}"#, r#"{"b":true}"#] {
            assert_eq!(parse(bad), None, "should reject {bad:?}");
        }
    }

    #[test]
    fn a_million_brackets_are_rejected_without_recursing() {
        // A million open brackets once aborted a recursive parser.
        assert_eq!(parse(&format!(r#"{{"a":{}"#, "[".repeat(1_000_000))), None);
    }

    #[test]
    fn arbitrary_bytes_give_a_record_or_none() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let record = render(&records()[1]).into_bytes();
        let alphabet = br#"{}[]":,.-+eE0123456789tfnrul\ u"#;
        let mut rng = SmallRng::seed_from_u64(0x15_0A);
        for _ in 0..20_000 {
            let mut bytes = Vec::new();
            if rng.gen_bool(0.5) {
                // Text from JSON's own alphabet, with the odd stray byte.
                for _ in 0..rng.gen_range(0..200) {
                    let stray = rng.gen_bool(0.05);
                    bytes.push(if stray {
                        rng.gen()
                    } else {
                        alphabet[rng.gen_range(0..alphabet.len())]
                    });
                }
            } else {
                // A journal record with a few bytes overwritten, cut or doubled.
                bytes.extend_from_slice(&record);
                for _ in 0..rng.gen_range(1..4) {
                    let at = rng.gen_range(0..bytes.len());
                    match rng.gen_range(0..3) {
                        0 => bytes[at] = rng.gen(),
                        1 => bytes.truncate(at.max(1)),
                        _ => bytes.insert(at, bytes[at]),
                    }
                }
            }
            let line = String::from_utf8_lossy(&bytes);
            if let Some(fields) = parse(&line) {
                assert!(!fields.is_empty(), "{line:?}");
            }
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors, so the hash is the function
        // we claim (fingerprints outlive any one process).
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x85944171f73967e8);
    }
}
