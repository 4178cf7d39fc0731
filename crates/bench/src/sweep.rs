//! Parallel sweep executor.
//!
//! Every figure sweeps a grid of *independent* measurement points
//! (problem sizes, latencies, fabric gaps, …); each point builds its
//! own [`qsm_core::SimMachine`] from an explicit per-point seed, so
//! points share no state and can run concurrently. [`map`] fans the
//! points across a bounded pool of host threads and returns the
//! results **in input order** (each worker tags its result with the
//! point's index), so tables and CSVs are byte-identical to a serial
//! run regardless of completion order or worker count.
//!
//! The pool is sized by the `QSM_JOBS` environment variable; the
//! default is `available_parallelism() / p_sim` (minimum 1), because
//! every measurement point itself keeps `p_sim` pooled workers busy
//! (concurrent points each lease their own from `qsm_core::pool`).
//! `QSM_JOBS=1` recovers the serial executor exactly.
//!
//! Panics are handled per point: every point runs under
//! `catch_unwind`, so one exploding configuration never poisons the
//! executor's locks or takes down the points still in flight.
//! [`map`] finishes the whole grid and then re-raises the *first*
//! failing point's original panic payload; [`map_surviving`] instead
//! drops failed points from the result, records them in a
//! process-wide failure registry, and lets the caller emit a partial
//! artifact — binaries call [`exit_if_degraded`] last, so a degraded
//! run still exits nonzero. `QSM_PANIC_POINT=i` artificially fails
//! point `i` of every sweep (a drill for the degradation and
//! crash-resume paths, used by the CI smoke jobs).
//!
//! With `QSM_PROGRESS=1` each completed point reports its wall-clock
//! duration, the sweep's running completion count, and an ETA
//! extrapolated from the mean duration of the points completed so far
//! (divided by the worker count, since that many points run at once)
//! on stderr — stdout (tables) and the CSV artifacts are untouched,
//! so progress output never perturbs the deterministic results.
//!
//! With `QSM_RUN_LOG=path.jsonl` (see [`crate::journal`]) the
//! executor additionally keeps a durable per-point ledger: a
//! `sweep_claim` record when a point starts and a `sweep_point`
//! record — duration, per-point fault-tally deltas, the
//! [`Replay`]-encoded result, and ok/failed status — when it
//! completes. Setting `QSM_RESUME=1` on a rerun turns that ledger
//! into a checkpoint: points whose `ok` record matches the current
//! configuration fingerprint are *replayed* from the journal
//! (bit-exact, so every downstream artifact is byte-identical to an
//! uninterrupted run) and only the rest — failed, unfinished, or
//! fingerprint-mismatched points — are executed.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::replay::Replay;

/// Worker-pool size for sweeps whose points each simulate `p_sim`
/// processors: `QSM_JOBS` if set (minimum 1), else
/// `available_parallelism() / p_sim`, minimum 1. An unparseable
/// `QSM_JOBS` warns on stderr (once) and falls back to the default.
pub fn jobs(p_sim: usize) -> usize {
    if let Some(n) = crate::env_usize("QSM_JOBS") {
        return n.max(1);
    }
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    (cores / p_sim.max(1)).max(1)
}

/// Per-point duration/progress telemetry for one sweep, reporting to
/// stderr when `QSM_PROGRESS` is set (to anything but `0`). Inactive
/// it is a single boolean test per completed point.
struct Progress {
    enabled: bool,
    total: usize,
    /// Worker-pool size, for ETA extrapolation: `workers` points
    /// complete concurrently, so the remaining wall time is roughly
    /// `avg_point_ms * remaining / workers`.
    workers: usize,
    done: AtomicUsize,
    /// Sum of completed-point durations, in microseconds.
    spent_us: AtomicU64,
}

impl Progress {
    fn new(total: usize, workers: usize) -> Self {
        let enabled = std::env::var("QSM_PROGRESS").map(|v| v != "0").unwrap_or(false);
        Self { enabled, total, workers, done: AtomicUsize::new(0), spent_us: AtomicU64::new(0) }
    }

    /// Report point `i`'s completion (taking `ms`) with a running ETA
    /// extrapolated from the mean duration of the completed points.
    fn note(&self, i: usize, ms: f64) {
        let add_us = (ms * 1e3) as u64;
        let spent_us = self.spent_us.fetch_add(add_us, Ordering::Relaxed) + add_us;
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let remaining = self.total.saturating_sub(done);
        if remaining == 0 {
            eprintln!("[sweep {done}/{}] point {i} finished in {ms:.1} ms", self.total);
        } else {
            let avg_ms = spent_us as f64 / 1e3 / done as f64;
            let eta_s = avg_ms * remaining as f64 / self.workers.max(1) as f64 / 1e3;
            eprintln!(
                "[sweep {done}/{}] point {i} finished in {ms:.1} ms (eta {eta_s:.1} s)",
                self.total
            );
        }
    }
}

/// A sweep point that panicked, with the original payload preserved
/// so [`map`] can re-raise it unchanged.
pub struct PointPanic {
    /// Input-order index of the failed point.
    pub index: usize,
    /// Human-readable panic message (best effort: the `&str`/`String`
    /// payload, or a placeholder for exotic payloads).
    pub message: String,
    /// The original panic payload, untouched.
    pub payload: Box<dyn Any + Send>,
}

impl std::fmt::Debug for PointPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PointPanic")
            .field("index", &self.index)
            .field("message", &self.message)
            .finish_non_exhaustive()
    }
}

fn panic_message(payload: &Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Process-wide registry of sweep points dropped by
/// [`map_surviving`]; inspected by [`exit_if_degraded`].
static FAILURES: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Number of sweep points dropped by [`map_surviving`] so far in this
/// process.
pub fn failed_points() -> usize {
    FAILURES.lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// If any [`map_surviving`] sweep dropped points, print a summary of
/// every failure on stderr and exit with status 1 — the artifacts
/// written so far are partial, and the process must say so. A no-op
/// on a fully successful run. Figure binaries call this last, after
/// emitting whatever survived.
pub fn exit_if_degraded() {
    let failures = FAILURES.lock().unwrap_or_else(|e| e.into_inner());
    if failures.is_empty() {
        return;
    }
    eprintln!("error: {} sweep point(s) failed; emitted results are partial:", failures.len());
    for f in failures.iter() {
        eprintln!("  - {f}");
    }
    std::process::exit(1);
}

/// Run `f` over every item under a per-point `catch_unwind`, in input
/// order: `out[i]` is point `i`'s result or its captured panic. The
/// machinery shared by [`map`] and [`map_surviving`].
///
/// With an active run journal and `QSM_RESUME=1`, points already
/// completed under the same configuration fingerprint are replayed
/// from the journal instead of executed (see [`crate::journal`]).
pub fn try_map<I, T, F>(p_sim: usize, items: Vec<I>, f: F) -> Vec<Result<T, PointPanic>>
where
    I: Send,
    T: Send + Replay,
    F: Fn(usize, I) -> T + Sync,
{
    let n = items.len();
    let workers = jobs(p_sim).min(n.max(1));
    let journal_on = crate::journal::active();
    // Resume: decode every replayable completed point before spending
    // any work. A record that fails to decode (schema drift from an
    // older build) is simply re-run — replay is an optimization, never
    // a correctness dependency.
    // (`resume_requested` owns the journal check, so asking for a
    // resume with no usable journal warns instead of silently
    // re-running everything.)
    let mut replayed: HashMap<usize, T> = HashMap::new();
    if crate::journal::resume_requested() {
        for (i, fields) in crate::journal::load_replay(n) {
            if let Some(v) = T::decode_fields(&fields) {
                replayed.insert(i, v);
            }
        }
        eprintln!(
            "[sweep] resume: replaying {}/{n} completed points from the run journal",
            replayed.len()
        );
    }
    let progress = Progress::new(n - replayed.len(), workers);
    let drill = crate::env_usize("QSM_PANIC_POINT");
    let run_point = |i: usize, item: I| {
        // Timing and tally snapshots only when someone consumes them
        // (`QSM_PROGRESS` or `QSM_RUN_LOG`); the default path stays a
        // bare catch_unwind around `f`.
        let start = (progress.enabled || journal_on).then(Instant::now);
        let tally0 = journal_on.then(qsm_core::tally::snapshot);
        if journal_on {
            // Claim the point before running it: a claim without a
            // matching completion marks where a crashed run died.
            crate::journal::record_claim(i, n);
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            if Some(i) == drill {
                panic!("artificial failure injected by QSM_PANIC_POINT={i}");
            }
            f(i, item)
        }))
        .map_err(|payload| PointPanic {
            index: i,
            message: panic_message(&payload),
            payload,
        });
        let ms = start.map_or(0.0, |s| s.elapsed().as_secs_f64() * 1e3);
        if progress.enabled {
            progress.note(i, ms);
        }
        if let Some((r0, d0)) = tally0 {
            // The point ran entirely on this thread, so the calling
            // thread's tally delta is exactly this point's fault count.
            let (r1, d1) = qsm_core::tally::snapshot();
            crate::journal::record_point(&crate::journal::PointRecord {
                index: i,
                total: n,
                jobs: workers,
                duration_ms: ms,
                retries: r1.wrapping_sub(r0),
                dropped_msgs: d1.wrapping_sub(d0),
                result: result.as_ref().ok().map(Replay::encode_fields),
                error: result.as_ref().err().map(|p| p.message.as_str()),
            });
        }
        result
    };
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| match replayed.remove(&i) {
                Some(t) => Ok(t),
                None => run_point(i, item),
            })
            .collect();
    }

    // Work-stealing over the index space: a shared cursor hands out
    // the next pending point, each slot's item moves to exactly one
    // worker, and the result lands back in the slot of the same
    // index. No ordering assumptions anywhere — only the final
    // index-ordered drain. Worker closures cannot unwind (every point
    // runs inside `catch_unwind`), so the slot locks are never
    // poisoned.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<Result<T, PointPanic>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    // Replayed points are pre-filled results; workers skip them.
    for (i, t) in replayed {
        *results[i].lock().expect("sweep result lock poisoned") = Some(Ok(t));
    }
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if results[i].lock().expect("sweep result lock poisoned").is_some() {
                    continue; // replayed from the journal
                }
                let item = slots[i]
                    .lock()
                    .expect("sweep item lock poisoned")
                    .take()
                    .expect("sweep item taken twice");
                let out = run_point(i, item);
                *results[i].lock().expect("sweep result lock poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("sweep result lock poisoned")
                .expect("sweep point produced no result")
        })
        .collect()
}

/// Run `f` over every item of the sweep grid on a pool of
/// [`jobs`]`(p_sim)` worker threads and collect the results in input
/// order. `f` receives `(index, item)`; any per-point seed must be
/// derived from those (the figure modules use
/// [`crate::RunCfg::seed`]), never from shared mutable state.
///
/// With one worker (or one item) the items are executed inline on the
/// calling thread in input order — the serial executor. If any point
/// panics, the remaining points still run to completion, then the
/// **first** (lowest-index) failing point's original panic payload is
/// re-raised on the calling thread.
pub fn map<I, T, F>(p_sim: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send + Replay,
    F: Fn(usize, I) -> T + Sync,
{
    let mut out = Vec::new();
    let mut first_failure: Option<PointPanic> = None;
    for r in try_map(p_sim, items, f) {
        match r {
            Ok(t) => out.push(t),
            Err(p) => {
                if first_failure.is_none() {
                    first_failure = Some(p);
                }
            }
        }
    }
    if let Some(p) = first_failure {
        eprintln!("error: sweep point {} panicked: {}", p.index, p.message);
        std::panic::resume_unwind(p.payload);
    }
    out
}

/// Like [`map`], but degrade gracefully: failed points are dropped
/// from the result — returned as `(input index, result)` pairs so
/// survivors keep their grid coordinates — reported on stderr, and
/// recorded for [`exit_if_degraded`]. For sweeps whose points are
/// fully independent rows, this turns one exploding configuration
/// into a partial artifact instead of a lost run.
///
/// `QSM_PANIC_POINT=i` (handled in [`try_map`], so it also covers
/// [`map`]-based sweeps) injects an artificial panic at point `i`, a
/// drill for this degradation path.
pub fn map_surviving<I, T, F>(p_sim: usize, items: Vec<I>, f: F) -> Vec<(usize, T)>
where
    I: Send,
    T: Send + Replay,
    F: Fn(usize, I) -> T + Sync,
{
    let results = try_map(p_sim, items, f);
    let mut out = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(t) => out.push((i, t)),
            Err(p) => {
                eprintln!("warning: sweep point {i} failed ({}); continuing without it", p.message);
                FAILURES
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(format!("point {i}: {}", p.message));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let out = map(1, (0..64).collect(), |i, x: i32| {
            assert_eq!(i as i32, x);
            x * 10
        });
        assert_eq!(out, (0..64).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<i32> = map(1, Vec::<i32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_matches_serial() {
        // Force a multi-worker pool regardless of host cores by going
        // through the internal path `map` takes when jobs > 1: run
        // with the env knob set in-process is racy across tests, so
        // compare against the inline serial computation instead.
        let serial: Vec<u64> = (0..40u64).map(|x| x.wrapping_mul(0x9E37)).collect();
        let parallel = map(1, (0..40u64).collect(), |_, x| x.wrapping_mul(0x9E37));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn jobs_is_at_least_one() {
        assert!(jobs(1) >= 1);
        assert!(jobs(1024) >= 1);
    }

    #[test]
    fn try_map_captures_panics_per_point() {
        let results = try_map(1, (0..8).collect(), |_, x: i32| {
            if x % 3 == 1 {
                panic!("boom at {x}");
            }
            x * 2
        });
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            if i % 3 == 1 {
                let p = r.as_ref().expect_err("point should have failed");
                assert_eq!(p.index, i);
                assert_eq!(p.message, format!("boom at {i}"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), (i as i32) * 2);
            }
        }
    }

    #[test]
    fn map_reraises_the_first_panic_payload() {
        // A typed payload (not a string) must come back downcastable:
        // the original Box<dyn Any>, not a summary of it.
        #[derive(Debug, PartialEq)]
        struct Custom(u32);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map(1, (0..6).collect(), |_, x: u32| {
                if x >= 2 {
                    std::panic::panic_any(Custom(x));
                }
                x
            })
        }))
        .expect_err("map should re-raise");
        let c = caught.downcast_ref::<Custom>().expect("payload type lost");
        assert_eq!(*c, Custom(2), "first failing point's payload, not a later one");
    }

    #[test]
    fn map_surviving_drops_failures_and_registers_them() {
        let before = failed_points();
        let out = map_surviving(1, (0..10).collect(), |_, x: i32| {
            if x == 4 || x == 7 {
                panic!("unstable point {x}");
            }
            x
        });
        let indices: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 5, 6, 8, 9]);
        for &(i, v) in &out {
            assert_eq!(v as usize, i);
        }
        assert_eq!(failed_points() - before, 2);
    }
}
