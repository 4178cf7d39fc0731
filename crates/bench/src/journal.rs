//! `QSM_RUN_LOG` — the structured per-point run journal, and the
//! `QSM_RESUME` checkpoint ledger built on it.
//!
//! With `QSM_RUN_LOG=path.jsonl` set, the sweep executor appends
//! self-describing JSON records to the journal. Two record kinds
//! cover each measurement point's lifecycle:
//!
//! * `sweep_claim` — appended when a worker *starts* a point, before
//!   any work: `{"v":1,"kind":"sweep_claim","figure":"fig1",
//!   "fingerprint":"…","point":3,"total":10}`. The claim makes the
//!   journal a work ledger (a future PR can distribute one sweep
//!   across processes by treating an unclaimed point as available),
//!   and `claim` records without a matching completion pinpoint
//!   where a crashed run died.
//! * `sweep_point` — appended when the point completes:
//!
//! ```json
//! {"v":1,"kind":"sweep_point","figure":"fig1","backend":"sim",
//!  "p":16,"reps":1,"fast":true,"topology":"flat","topo_params":"",
//!  "banks":0,"fingerprint":"9bfca1f20c1d3e47","point":3,"total":10,
//!  "jobs":4,"duration_ms":12.345,"retries":0,"dropped_msgs":0,
//!  "result":["65536","1.5","42.0"],"status":"ok"}
//! ```
//!
//! The `fingerprint` is a hash of everything that determines the
//! sweep's results — the figure, its [`crate::RunCfg`], the point
//! count, the record schema, the crate version and every knob that
//! decides a result ([`crate::knobs::ResultKnobs`], by its `Debug`
//! form, so a new such knob joins it by construction) — and `result`
//! is the point's result encoded via [`crate::replay::Replay`].
//! Together they make a completed point *detectably recoverable*: a
//! rerun with `QSM_RESUME=1` loads the journal, replays the `ok`
//! records whose fingerprint matches its own configuration
//! bit-exactly, and re-runs everything else (failed points,
//! unfinished points, and — on any fingerprint mismatch — the whole
//! sweep, so a stale journal can never poison an artifact). Every
//! line is written durably (see
//! [`qsm_obs::RunJournal`]: flush + `sync_data`, opt out with
//! `QSM_JOURNAL_SYNC=0`), so the ledger survives exactly the crashes
//! it exists for.
//!
//! Records carry `"v"` and `"kind"` so readers skip what they do not
//! understand. Unlike the metrics dump, the journal is *not*
//! byte-stable across `QSM_JOBS`: concurrent points complete (and
//! log) in scheduling order, and durations are wall-clock. Every
//! line is valid JSON in any order, which is what the CI smoke jobs
//! check.
//!
//! An unusable `QSM_RUN_LOG` warns and disables journaling when the
//! knobs are parsed ([`mod@crate::knobs`]).

use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use qsm_obs::{json_escape, read_complete_lines, RunJournal};

use crate::jsonl::{parse_object, Json};
use crate::knobs::{knobs, ResultKnobs};
use crate::RunCfg;

/// Version of the journal's record layout; part of the fingerprint.
const SCHEMA: u32 = 1;

/// Figure and run configuration the next records are attributed to.
static CTX: Mutex<(&str, RunCfg)> = Mutex::new(("?", RunCfg { p: 0, reps: 0, fast: false }));
static JOURNAL: OnceLock<Option<(RunJournal, PathBuf)>> = OnceLock::new();

fn journal() -> Option<&'static (RunJournal, PathBuf)> {
    JOURNAL
        .get_or_init(|| {
            let path = knobs().run_log.clone()?;
            match RunJournal::open_with(&path, knobs().journal_sync) {
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

/// Whether a journal is active (decides if the sweep executor pays
/// for per-point timing and tally snapshots).
pub(crate) fn active() -> bool {
    journal().is_some()
}

/// Attribute subsequent sweep points to `figure` under `cfg`. Each
/// figure's entry point calls this before running its sweeps; a
/// binary running several figures (`all`) just re-points the context.
pub fn set_figure(figure: &'static str, cfg: &RunCfg) {
    *CTX.lock().unwrap_or_else(|e| e.into_inner()) = (figure, cfg.clone());
}

fn current_ctx() -> (&'static str, RunCfg) {
    CTX.lock().unwrap_or_else(|e| e.into_inner()).clone()
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

/// The identity every record of one sweep carries: a hash of the
/// figure, its run configuration, the sweep's point count, the record
/// schema, the crate version and the knobs that decide a result. Two
/// runs share a fingerprint exactly when their journaled results are
/// interchangeable — the property `QSM_RESUME` replay rests on. Every
/// other knob is left out: `QSM_PANIC_POINT`, say, must not change
/// the identity of the sweep it kills, or the resumed run could never
/// match it.
pub(crate) fn fingerprint(figure: &str, cfg: &RunCfg, total: usize, knobs: &ResultKnobs) -> String {
    let key = format!(
        "{figure}|{cfg:?}|total={total}|schema={SCHEMA}|{}|{knobs:?}",
        env!("CARGO_PKG_VERSION")
    );
    format!("{:016x}", fnv1a(&key))
}

/// [`fingerprint`] of the current sweep.
fn current_fingerprint(total: usize) -> String {
    let (figure, cfg) = current_ctx();
    fingerprint(figure, &cfg, total, &knobs().result)
}

/// Append a work-claim record for point `index` of a `total`-point
/// sweep (no-op when inactive). Written *before* the point runs: a
/// claim without a later completion marks where a crashed run died.
pub(crate) fn record_claim(index: usize, total: usize) {
    let Some((journal, _)) = journal() else { return };
    let line = format!(
        "{{\"v\":1,\"kind\":\"sweep_claim\",\"figure\":\"{}\",\"fingerprint\":\"{}\",\
         \"point\":{index},\"total\":{total}}}",
        json_escape(current_ctx().0),
        current_fingerprint(total),
    );
    if let Err(e) = journal.append(&line) {
        eprintln!("warning: cannot append to QSM_RUN_LOG: {e}");
    }
}

/// One completed sweep point, reported by the executor.
pub(crate) struct PointRecord<'a> {
    pub index: usize,
    pub total: usize,
    pub jobs: usize,
    pub duration_ms: f64,
    pub retries: u64,
    pub dropped_msgs: u64,
    /// The point's [`crate::replay::Replay`]-encoded result;
    /// `None` for failed points.
    pub result: Option<Vec<String>>,
    /// Panic message of a failed point; `None` means success.
    pub error: Option<&'a str>,
}

/// Append `rec` to the journal (no-op when inactive).
pub(crate) fn record_point(rec: &PointRecord<'_>) {
    let Some((journal, _)) = journal() else { return };
    let (figure, RunCfg { p, reps, fast }) = current_ctx();
    // The active fabric topology and bank count, so a journal line is
    // attributable to the exact machine extension knobs it ran under.
    let knobs = &knobs().result;
    let topo = knobs.topology_at(p.max(1)).unwrap_or_default();
    let banks = knobs.banks;
    let mut line = format!(
        "{{\"v\":1,\"kind\":\"sweep_point\",\"figure\":\"{}\",\"backend\":\"{}\",\
         \"p\":{p},\"reps\":{reps},\"fast\":{fast},\
         \"topology\":\"{}\",\"topo_params\":\"{}\",\"banks\":{banks},\
         \"fingerprint\":\"{}\",\
         \"point\":{},\"total\":{},\"jobs\":{},\
         \"duration_ms\":{:.3},\"retries\":{},\"dropped_msgs\":{}",
        json_escape(figure),
        knobs.backend.name(),
        topo.name(),
        topo.params(),
        current_fingerprint(rec.total),
        rec.index,
        rec.total,
        rec.jobs,
        rec.duration_ms,
        rec.retries,
        rec.dropped_msgs,
    );
    if let Some(fields) = &rec.result {
        line.push_str(",\"result\":[");
        for (i, f) in fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push('"');
            line.push_str(&json_escape(f));
            line.push('"');
        }
        line.push(']');
    }
    match rec.error {
        None => line.push_str(",\"status\":\"ok\"}"),
        Some(msg) => {
            line.push_str(&format!(",\"status\":\"failed\",\"error\":\"{}\"}}", json_escape(msg)));
        }
    }
    if let Err(e) = journal.append(&line) {
        eprintln!("warning: cannot append to QSM_RUN_LOG: {e}");
    }
}

/// Load the replayable results for the current figure's `total`-point
/// sweep: every journaled `sweep_point` record that completed `ok`,
/// carries a `result`, and matches this run's fingerprint. Keyed by
/// point index; when a point was journaled more than once (a sweep
/// resumed twice, or rerun into the same ledger) the latest record
/// wins. Unparseable lines — including a crash's quarantined torn
/// tail — are skipped, never fatal.
pub(crate) fn load_replay(total: usize) -> std::collections::HashMap<usize, Vec<String>> {
    let mut out = std::collections::HashMap::new();
    let Some((_, path)) = journal() else { return out };
    let lines = match read_complete_lines(path) {
        Ok(lines) => lines,
        Err(e) => {
            eprintln!("warning: cannot read QSM_RUN_LOG for resume: {e}");
            return out;
        }
    };
    let want = current_fingerprint(total);
    for line in &lines {
        let Some(rec) = parse_object(line) else { continue };
        if rec.get("kind").and_then(Json::as_str) != Some("sweep_point")
            || rec.get("status").and_then(Json::as_str) != Some("ok")
            || rec.get("fingerprint").and_then(Json::as_str) != Some(want.as_str())
            || rec.get("total").and_then(Json::as_usize) != Some(total)
        {
            continue;
        }
        let Some(point) = rec.get("point").and_then(Json::as_usize) else { continue };
        let Some(result) = rec.get("result").and_then(Json::as_str_vec) else { continue };
        if point < total {
            out.insert(point, result);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors, so the hash is the function
        // we claim (fingerprints outlive any one process).
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x85944171f73967e8);
    }
}
