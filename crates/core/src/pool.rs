//! Process-global pool of resident SPMD worker threads.
//!
//! Every run of every backend is `k = min(p, host cores)` jobs that
//! rendezvous on barriers, one per **carrier** of the run's `p`
//! processors (`crate::engine`), each on a thread of its own. Spawning
//! those threads per run dominates short runs, so this module keeps
//! **resident** workers that are spawned once and reused: `execute`
//! *leases* `k` of them for the length of one run. Under a short lock
//! it takes idle residents, lowest index first, and spawns new ones
//! while fewer than `QSM_POOL` exist (default: no cap, so the pool
//! grows to the largest number of workers ever in use at once); jobs
//! it still cannot place run on per-run overflow threads that do not
//! persist. The run itself holds no lock, so concurrent runs — the
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
//! A run also never waits for a worker — what is not idle is spawned
//! or overflowed — so leasing cannot deadlock either.
//!
//! With `QSM_PIN=1` each worker is pinned to host core
//! `index % available_parallelism()` at spawn via a raw
//! `sched_setaffinity` syscall (the workspace vendors no libc). On
//! platforms where pinning is unsupported or fails, a single warning
//! is printed and workers run unpinned.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crossbeam::channel::{unbounded, Sender};

use crate::knob;

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
    /// a resident never exits, so this is what `QSM_POOL` caps.
    residents: usize,
}

static POOL: Mutex<PoolState> = Mutex::new(PoolState { idle: BTreeMap::new(), residents: 0 });

/// The pool table. Every update under the lock is one insert, one
/// removal or one increment, so a poisoned lock still guards a valid
/// table and is recovered.
fn pool() -> MutexGuard<'static, PoolState> {
    POOL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every worker thread this module ever spawned (resident and
/// overflow). Monotonic; never reset.
static SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Total worker threads spawned by the engine so far in this process
/// (resident pool workers plus per-run overflow workers). The delta
/// across two `run()` calls is zero exactly when the pool was fully
/// reused; tests assert on it.
pub fn spawned_workers() -> u64 {
    SPAWNED.load(Ordering::Acquire)
}

/// Resident-worker cap from `QSM_POOL` (default: unbounded, i.e. the
/// pool grows to the most workers ever in use at once; `0` keeps no
/// resident workers at all). Read once per process.
fn pool_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| knob::env_usize("QSM_POOL").unwrap_or(usize::MAX))
}

/// Whether `QSM_PIN` requests core affinity. Read once per process.
fn pinning() -> bool {
    static PIN: OnceLock<bool> = OnceLock::new();
    *PIN.get_or_init(|| knob::env_usize("QSM_PIN").is_some_and(|v| v != 0))
}

/// Whether `QSM_PIN` requested core affinity for this process (the
/// engine reports it as run telemetry; whether pinning *succeeded* is
/// only knowable per-worker and is warned about separately).
pub(crate) fn pinning_requested() -> bool {
    pinning()
}

/// Logical host cores (1 when undetectable), read once: the query
/// costs ~14 µs (affinity mask and cgroup quota) and every run asks.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

fn warn_pin_failed_once() {
    static WARNED: OnceLock<()> = OnceLock::new();
    WARNED.get_or_init(|| {
        eprintln!(
            "warning: QSM_PIN requested but core pinning failed or is unsupported \
             on this platform; workers run unpinned"
        );
    });
}

/// Pin the calling thread when `QSM_PIN` asks for it (warn-once
/// fallback otherwise). Worker `idx` goes to core
/// `idx % available_parallelism()`.
fn maybe_pin(idx: usize) {
    if pinning() && !pin_to_core(idx % host_cores()) {
        warn_pin_failed_once();
    }
}

/// `sched_setaffinity(0, len, mask)` by raw syscall — the workspace
/// vendors no libc and the Linux syscall ABI is stable.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin_to_core(core: usize) -> bool {
    let mut mask = [0u64; 16]; // up to 1024 logical CPUs
    if core >= mask.len() * 64 {
        return false;
    }
    mask[core / 64] |= 1u64 << (core % 64);
    let ret: isize;
    // SAFETY: `sched_setaffinity` only reads `size_of_val(&mask)` bytes
    // at `mask`, which outlives the call; the x86-64 `syscall`
    // instruction clobbers exactly rax (the result), rcx and r11, all
    // declared, and touches no stack.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret, // __NR_sched_setaffinity
            in("rdi") 0usize,                 // pid 0 = calling thread
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// `sched_setaffinity(0, len, mask)` by raw syscall (see x86_64 note).
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn pin_to_core(core: usize) -> bool {
    let mut mask = [0u64; 16]; // up to 1024 logical CPUs
    if core >= mask.len() * 64 {
        return false;
    }
    mask[core / 64] |= 1u64 << (core % 64);
    let ret: isize;
    // SAFETY: as on x86-64 — the kernel only reads the live `mask`;
    // `svc 0` returns in x0 (declared) and preserves every other
    // register, and touches no stack.
    unsafe {
        std::arch::asm!(
            "svc 0",
            in("x8") 122isize, // __NR_sched_setaffinity
            inlateout("x0") 0isize => ret,
            in("x1") std::mem::size_of_val(&mask),
            in("x2") mask.as_ptr(),
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
fn pin_to_core(_core: usize) -> bool {
    false
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
            maybe_pin(idx);
            while let Ok(job) = rx.recv() {
                let result = catch_unwind(AssertUnwindSafe(|| (job.f)(job.proc)));
                let _ = job.done.send(result);
            }
        })
        .expect("failed to spawn pool worker");
    tx
}

/// How one `execute` call placed its jobs (a run's carriers, not its
/// processors): `resident + overflow` is their number. With concurrent
/// callers the split depends on who leased first, so the engine reports
/// these at full level only (single-run captures).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecStats {
    /// Jobs placed on resident (leased) pool workers.
    pub(crate) resident: usize,
    /// Jobs placed on per-call overflow threads.
    pub(crate) overflow: usize,
    /// Worker threads spawned by this call (pool growth + overflow).
    pub(crate) spawned: u64,
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
/// own worker thread, and return once all `p` invocations completed.
///
/// The jobs run on leased residents — idle ones first, lowest index
/// first, then newly spawned ones while fewer than `QSM_POOL` exist —
/// and any remainder on per-call overflow threads. The pool lock is
/// held only to take and to give back the lease. If any job panicked,
/// the first payload (by completion order) is re-raised after all
/// jobs finished. Returns how the jobs were placed.
pub(crate) fn execute(p: usize, job: &(dyn Fn(usize) + Sync)) -> ExecStats {
    let mut lease = Lease(Vec::with_capacity(p));
    let mut grown = 0u64;
    {
        let mut state = pool();
        while lease.0.len() < p {
            if let Some(worker) = state.idle.pop_first() {
                lease.0.push(worker);
            } else if state.residents < pool_cap() {
                let idx = state.residents;
                state.residents += 1;
                lease.0.push((idx, spawn_resident(idx)));
                grown += 1;
            } else {
                break;
            }
        }
    }
    let resident = lease.0.len();
    // SAFETY: the erased reference is handed to exactly `p` workers —
    // the leased residents, which use it only until the done-signal
    // they send after their one job, and overflow scope threads, which
    // are joined before the scope ends. `execute` leaves the scope
    // only after receiving all `p` done-signals, and every failure in
    // between aborts (`die`) instead of unwinding, so the borrow
    // outlives every use. The lease invariant (module doc) means no
    // other run can reach these workers meanwhile.
    let job_static: JobRef = unsafe { std::mem::transmute(job) };
    let (done_tx, done_rx) = unbounded::<Result<(), Payload>>();
    let first_panic = crossbeam::thread::scope(|scope| {
        for proc in resident..p {
            SPAWNED.fetch_add(1, Ordering::AcqRel);
            let done = done_tx.clone();
            scope.spawn(move |_| {
                maybe_pin(proc);
                let result = catch_unwind(AssertUnwindSafe(|| job_static(proc)));
                let _ = done.send(result);
            });
        }
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
        first_panic
    })
    .expect("overflow worker panicked outside the job");
    drop(lease);
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    ExecStats { resident, overflow: p - resident, spawned: grown + (p - resident) as u64 }
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
        let stats = execute(8, &job);
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
        assert_eq!(stats.resident + stats.overflow, 8, "every job placed exactly once");
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
                let stats = run.join().expect("a run panicked");
                assert_eq!(stats.resident + stats.overflow, 4);
                assert!(stats.resident <= pool_cap());
            }
        });
        let mut threads = threads.into_inner().unwrap();
        threads.sort_by_key(|id| format!("{id:?}"));
        threads.dedup();
        assert_eq!(threads.len(), 8, "a worker ran jobs of two concurrent runs");
    }

    #[test]
    fn pinning_tracks_the_knob() {
        // The cached knob must agree with the environment (CI runs
        // this suite both with and without QSM_PIN=1), and pinning —
        // requested or not — must never panic.
        let requested = std::env::var("QSM_PIN").is_ok_and(|v| v != "0");
        assert_eq!(pinning(), requested);
        maybe_pin(0);
    }
}
