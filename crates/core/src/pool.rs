//! Process-global pool of resident SPMD worker threads.
//!
//! Every run of every backend is `k = min(p, host cores)` jobs that
//! rendezvous on barriers, one per **carrier** of the run's `p`
//! processors (`crate::engine`), each on a thread of its own. Spawning
//! those threads per run dominates short runs, so this module keeps
//! **resident** workers that are spawned once and reused: `execute`
//! *leases* `k` of them for the length of one run. Under a short lock
//! it takes idle residents, lowest index first, and spawns new ones for
//! the rest, so the pool grows to the largest number of workers ever in
//! use at once. The run itself holds no lock, so concurrent runs — the
//! bench sweep at `QSM_JOBS` > 1 — each get workers of their own and
//! proceed in parallel, while a lone run finds the residents of the
//! previous one idle and spawns nothing.
//!
//! ### Why a leased worker never runs jobs of two runs at once
//!
//! SPMD jobs wait for each other on barriers, so a worker that held
//! jobs of two runs would block the second behind the first and could
//! deadlock both. A resident's inbox sender is *moved*: it is either
//! in the pool's idle table (behind the mutex) or in exactly one
//! `execute` frame's lease, never cloned. Only the lease holder can
//! send to the worker, it sends exactly one job, and it puts the
//! sender back only after all `p` of its jobs signalled completion.
//! A run also never waits for a worker — what is not idle is spawned —
//! so leasing cannot deadlock either.
//!
//! Leasing is the only way a processor is placed: there is no resident
//! cap, no per-run thread and no core pinning. A resident never exits,
//! so its processor stacks live as long as the process. Steady state
//! spawns nothing per run, and nothing per phase ever
//! (`tests/worker_pool.rs` and `crates/core/tests/sim_on_pool.rs`
//! assert both on [`spawned_workers`]).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crossbeam::channel::{unbounded, Sender};

/// A worker-thread panic payload, forwarded to `execute`'s caller.
type Payload = Box<dyn std::any::Any + Send>;

/// A lifetime-erased job. The `'static` is a fiction that `execute`
/// makes harmless: it neither returns nor unwinds before every worker
/// it handed the reference to has signalled completion (see the
/// `SAFETY` comment at the transmute).
type JobRef = &'static (dyn Fn(usize) + Sync);

struct Job {
    f: JobRef,
    proc: usize,
    done: Sender<Result<(), Payload>>,
}

struct PoolState {
    /// Job inboxes of the residents no run holds, by worker index.
    /// A leased worker's inbox is moved out, not cloned (module doc).
    idle: BTreeMap<usize, Sender<Job>>,
    /// Residents ever spawned, which is also the next worker index:
    /// a resident never exits.
    residents: usize,
}

static POOL: Mutex<PoolState> = Mutex::new(PoolState { idle: BTreeMap::new(), residents: 0 });

/// The pool table. Every update under the lock is one insert, one
/// removal or one increment, so a poisoned lock still guards a valid
/// table and is recovered.
fn pool() -> MutexGuard<'static, PoolState> {
    POOL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every worker thread this module ever spawned. Monotonic; never reset.
static SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Total worker threads spawned by the engine so far in this process.
/// The delta across two `run()` calls is zero exactly when the pool was
/// fully reused; tests assert on it.
pub fn spawned_workers() -> u64 {
    SPAWNED.load(Ordering::Acquire)
}

/// Logical host cores (1 when undetectable), read once: the query
/// costs ~14 µs (affinity mask and cgroup quota) and every run asks.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Spawn resident worker `idx`: a detached process-lifetime thread
/// that loops on its job inbox and exits only when its inbox sender is
/// dropped, which a leased or idle sender never is. The `catch_unwind`
/// keeps a panicking job from killing the worker (the engine catches
/// its own panics, so this fires only for foreign jobs).
fn spawn_resident(idx: usize) -> Sender<Job> {
    let (tx, rx) = unbounded::<Job>();
    SPAWNED.fetch_add(1, Ordering::AcqRel);
    std::thread::Builder::new()
        .name(format!("qsm-pool-{idx}"))
        .spawn(move || {
            while let Ok(job) = rx.recv() {
                let result = catch_unwind(AssertUnwindSafe(|| (job.f)(job.proc)));
                let _ = job.done.send(result);
            }
        })
        .expect("failed to spawn pool worker");
    tx
}

/// The residents one `execute` call holds, as `(worker index, inbox)`.
/// Dropping the lease hands them back, so neither a re-raised job
/// panic nor a failed spawn can shrink the pool.
struct Lease(Vec<(usize, Sender<Job>)>);

impl Drop for Lease {
    fn drop(&mut self) {
        pool().idle.extend(self.0.drain(..));
    }
}

/// A pool invariant broke while workers may still be running a job
/// that borrows `execute`'s caller: unwinding would free that frame
/// under them, so the process stops instead.
#[cold]
pub(crate) fn die(what: &str) -> ! {
    eprintln!("qsm-core pool: {what}; aborting");
    std::process::abort()
}

/// Run `job(proc)` for every `proc` in `0..p`, each invocation on its
/// own leased resident — idle ones first, lowest index first, then
/// newly spawned ones — and return once all `p` invocations completed.
/// The pool lock is held only to take and to give back the lease. If
/// any job panicked, the first payload (by completion order) is
/// re-raised after all jobs finished. Returns how many workers this
/// call spawned.
pub(crate) fn execute(p: usize, job: &(dyn Fn(usize) + Sync)) -> u64 {
    let mut lease = Lease(Vec::with_capacity(p));
    let mut spawned = 0u64;
    {
        let mut state = pool();
        while lease.0.len() < p {
            let worker = state.idle.pop_first().unwrap_or_else(|| {
                let idx = state.residents;
                state.residents += 1;
                spawned += 1;
                (idx, spawn_resident(idx))
            });
            lease.0.push(worker);
        }
    }
    // SAFETY: the erased reference is handed to exactly the `p` leased
    // residents, which use it only until the done-signal they send
    // after their one job. `execute` returns only after receiving all
    // `p` done-signals, and every failure in between aborts (`die`)
    // instead of unwinding, so the borrow outlives every use. The
    // lease invariant (module doc) means no other run can reach these
    // workers meanwhile.
    let job_static: JobRef = unsafe { std::mem::transmute(job) };
    let (done_tx, done_rx) = unbounded::<Result<(), Payload>>();
    for (proc, (_, inbox)) in lease.0.iter().enumerate() {
        if inbox.send(Job { f: job_static, proc, done: done_tx.clone() }).is_err() {
            die("a resident worker exited while leased");
        }
    }
    let mut first_panic = None;
    for _ in 0..p {
        match done_rx.recv() {
            Ok(Ok(())) => {}
            Ok(Err(payload)) => {
                first_panic.get_or_insert(payload);
            }
            Err(_) => die("a worker dropped its job without reporting"),
        }
    }
    drop(lease);
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    spawned
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn execute_runs_every_proc_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let job = |proc: usize| {
            hits[proc].fetch_add(1, Ordering::SeqCst);
        };
        let spawned = execute(8, &job);
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
        assert!(spawned <= 8, "a job a worker, at most one spawn each");
    }

    /// Both runs are forced in flight at once (each job waits for all
    /// eight), which also shows that a run holds no pool lock. Reuse by
    /// a lone run is pinned where the process is the test's own:
    /// `tests/worker_pool.rs` and `tests/sim_on_pool.rs`.
    #[test]
    fn concurrent_runs_lease_disjoint_workers() {
        let all_running = std::sync::Barrier::new(8);
        let threads = Mutex::new(Vec::new());
        let job = |_proc: usize| {
            threads.lock().unwrap().push(std::thread::current().id());
            all_running.wait();
        };
        std::thread::scope(|s| {
            let runs = [s.spawn(|| execute(4, &job)), s.spawn(|| execute(4, &job))];
            for run in runs {
                run.join().expect("a run panicked");
            }
        });
        let mut threads = threads.into_inner().unwrap();
        threads.sort_by_key(|id| format!("{id:?}"));
        threads.dedup();
        assert_eq!(threads.len(), 8, "a worker ran jobs of two concurrent runs");
    }
}
