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
//! The pool is sized by the `QSM_JOBS` knob; the default is
//! `available_parallelism() / p_sim` (minimum 1), because
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
//! Every sweep names its owner: the figure whose points it computes
//! and that figure's [`RunCfg`], passed to [`map`] and
//! [`map_surviving`] by the caller, never taken from process state.
//! With `QSM_RUN_LOG=path.jsonl` (see [`crate::journal`]) the
//! executor additionally keeps a durable per-point ledger under that
//! owner: a `sweep_claim` record when a point starts and a
//! `sweep_point` record — duration, the [`Replay`]-encoded result, and
//! ok/failed status — when it completes; the durations are the way to
//! watch a long sweep. Setting `QSM_RESUME=1` on a rerun turns that
//! ledger into a checkpoint: points whose `ok` record matches the
//! sweep's configuration fingerprint are *replayed* from the journal
//! (bit-exact, so every downstream artifact is byte-identical to an
//! uninterrupted run) and only the rest — failed, unfinished, or
//! fingerprint-mismatched points — are executed.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::journal::SweepLog;
use crate::knobs::{knobs, Knobs};
use crate::replay::Replay;
use crate::RunCfg;

/// Worker-pool size for sweeps whose points each simulate `p_sim`
/// processors: the `QSM_JOBS` knob if set (minimum 1), else
/// `available_parallelism() / p_sim`, minimum 1.
fn jobs(knob: Option<usize>, p_sim: usize) -> usize {
    if let Some(n) = knob {
        return n.max(1);
    }
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    (cores / p_sim.max(1)).max(1)
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
/// machinery shared by [`map`] and [`map_surviving`], which hand it
/// the process's [`knobs()`]: `knobs` sizes the pool and switches
/// the panic drill and resume.
///
/// The sweep is journaled as `figure`'s under `cfg`: with an active
/// run journal and `QSM_RESUME=1`, points already completed under the
/// same configuration fingerprint are replayed from the journal
/// instead of executed (see [`crate::journal`]).
fn try_map<I, T, F>(
    knobs: &Knobs,
    figure: &'static str,
    cfg: &RunCfg,
    p_sim: usize,
    items: Vec<I>,
    f: F,
) -> Vec<Result<T, PointPanic>>
where
    I: Send,
    T: Send + Replay,
    F: Fn(usize, I) -> T + Sync,
{
    let n = items.len();
    let workers = jobs(knobs.jobs, p_sim).min(n.max(1));
    let log = SweepLog::open(figure, cfg, n, workers);
    // Resume: decode every replayable completed point before spending
    // any work. A record that fails to decode (schema drift from an
    // older build) is simply re-run — replay is an optimization, never
    // a correctness dependency.
    // (The knobs warn when a resume was asked for with no usable
    // journal, instead of silently re-running everything.)
    let mut results: Vec<Mutex<Option<Result<T, PointPanic>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let mut replayed = 0;
    if knobs.resume {
        for (i, fields) in log.iter().flat_map(SweepLog::replay) {
            if let Some(v) = T::decode_fields(&fields) {
                results[i] = Mutex::new(Some(Ok(v)));
                replayed += 1;
            }
        }
        eprintln!("[sweep] resume: replaying {replayed}/{n} completed points from the run journal");
    }
    let drill = knobs.panic_point;
    let run_point = |i: usize, item: I| {
        // With a journal, claim the point before running it (a claim
        // without a matching completion marks where a crashed run
        // died) and time it; the default path stays a bare
        // catch_unwind around `f`.
        let timed = log.as_ref().map(|log| {
            log.claim(i);
            (log, Instant::now())
        });
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
        if let Some((log, start)) = timed {
            let outcome = result.as_ref().map(Replay::encode_fields);
            let duration_ms = start.elapsed().as_secs_f64() * 1e3;
            log.point(i, duration_ms, outcome.map_err(|p| p.message.as_str()));
        }
        result
    };
    // Work-stealing over the index space: a shared cursor hands out
    // the next pending point, each slot's item moves to exactly one
    // worker, and the result lands back in the slot of the same
    // index. No ordering assumptions anywhere — only the final
    // index-ordered drain. Worker closures cannot unwind (every point
    // runs inside `catch_unwind`), so the slot locks are never
    // poisoned. The calling thread is one of the workers: alone, it
    // takes the points in input order and nothing is spawned.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let work = || loop {
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
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
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

/// Run `f` over every item of the sweep grid on a pool of `QSM_JOBS`
/// (default: cores / `p_sim`) worker threads and collect the results
/// in input order. `f` receives `(index, item)`; any per-point seed
/// must be derived from those (the figure modules use
/// [`RunCfg::seed`]), never from shared mutable state. The run
/// journal files the sweep's points under its owner: `figure`, run
/// under `cfg`.
///
/// With one worker (or one item) the items are executed inline on the
/// calling thread in input order — the serial executor. If any point
/// panics, the remaining points still run to completion, then the
/// **first** (lowest-index) failing point's original panic payload is
/// re-raised on the calling thread.
pub fn map<I, T, F>(figure: &'static str, cfg: &RunCfg, p_sim: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send + Replay,
    F: Fn(usize, I) -> T + Sync,
{
    // Every point has run; the first failure in input order is raised.
    match try_map(knobs(), figure, cfg, p_sim, items, f).into_iter().collect() {
        Ok(out) => out,
        Err(p) => {
            eprintln!("error: sweep point {} panicked: {}", p.index, p.message);
            std::panic::resume_unwind(p.payload)
        }
    }
}

/// Like [`map`], but degrade gracefully: failed points are dropped
/// from the result — returned as `(input index, result)` pairs so
/// survivors keep their grid coordinates — reported on stderr, and
/// recorded for [`exit_if_degraded`]. For sweeps whose points are
/// fully independent rows, this turns one exploding configuration
/// into a partial artifact instead of a lost run.
///
/// `QSM_PANIC_POINT=i` (handled by the shared executor, so it also
/// covers [`map`]-based sweeps) injects an artificial panic at point
/// `i`, a drill for this degradation path.
pub fn map_surviving<I, T, F>(
    figure: &'static str,
    cfg: &RunCfg,
    p_sim: usize,
    items: Vec<I>,
    f: F,
) -> Vec<(usize, T)>
where
    I: Send,
    T: Send + Replay,
    F: Fn(usize, I) -> T + Sync,
{
    let results = try_map(knobs(), figure, cfg, p_sim, items, f);
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
        let out = map("test", &RunCfg::fast(), 1, (0..64).collect(), |i, x: u64| {
            assert_eq!(i as u64, x);
            x * 10
        });
        assert_eq!(out, (0..64).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u64> = map("test", &RunCfg::fast(), 1, Vec::<u64>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    /// The executor's settings, as the knobs select them.
    fn knobs_with(pairs: &[(&str, &str)]) -> Knobs {
        crate::knobs::tests::parse(pairs)
    }

    #[test]
    fn parallel_matches_serial() {
        let serial: Vec<u64> = (0..40u64).map(|x| x.wrapping_mul(0x9E37)).collect();
        for jobs in ["1", "4"] {
            let knobs = knobs_with(&[("QSM_JOBS", jobs)]);
            let parallel =
                try_map(&knobs, "test", &RunCfg::fast(), 1, (0..40u64).collect(), |_, x| {
                    x.wrapping_mul(0x9E37)
                });
            assert_eq!(serial, parallel.into_iter().map(Result::unwrap).collect::<Vec<_>>());
        }
    }

    #[test]
    fn jobs_is_at_least_one() {
        assert!(jobs(None, 1) >= 1);
        assert!(jobs(None, 1024) >= 1);
        assert_eq!(jobs(Some(0), 1), 1);
        assert_eq!(jobs(Some(6), 1024), 6);
    }

    #[test]
    fn try_map_captures_panics_per_point() {
        for jobs in ["1", "4"] {
            let knobs = knobs_with(&[("QSM_JOBS", jobs)]);
            let results =
                try_map(&knobs, "test", &RunCfg::fast(), 1, (0..8).collect(), |_, x: u64| {
                    if x % 3 == 1 {
                        panic!("boom at {x}");
                    }
                    x * 2
                });
            assert_eq!(results.len(), 8);
            for (i, r) in results.iter().enumerate() {
                if i % 3 == 1 {
                    // The point's own payload, never a poisoned lock.
                    let p = r.as_ref().expect_err("point should have failed");
                    assert_eq!(p.index, i);
                    assert_eq!(p.message, format!("boom at {i}"));
                    assert_eq!(p.payload.downcast_ref::<String>(), Some(&p.message));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), (i as u64) * 2);
                }
            }
        }
    }

    #[test]
    fn map_reraises_the_first_panic_payload() {
        // A typed payload (not a string) must come back downcastable:
        // the original Box<dyn Any>, not a summary of it.
        #[derive(Debug, PartialEq)]
        struct Custom(u64);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map("test", &RunCfg::fast(), 1, (0..6).collect(), |_, x: u64| {
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
        let out = map_surviving("test", &RunCfg::fast(), 1, (0..10).collect(), |_, x: u64| {
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
