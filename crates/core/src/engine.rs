//! The shared run engine: one pipeline for every backend.
//!
//! [`run`] is the only place in the workspace that launches QSM
//! workers and drives the phase loop. A [`Machine`] contributes just
//! its configuration and its [`PhaseTimer`]; the driver's
//! plan/price/record stages, the ambient observability hookup, and
//! the final profile/report assembly are identical across backends,
//! which is what makes cross-backend comparisons of the resulting
//! [`RunResult`]s meaningful.
//!
//! Two execution paths share those stages:
//!
//! * **channel path** (the simulated backend): per-run scoped worker
//!   threads rendezvous with a dedicated driver thread over channels;
//!   ownership transfer through the channels is the synchronization.
//! * **SPMD path** ([`Machine::uses_worker_pool`]; the threads
//!   backend): jobs run on the resident worker pool (`crate::pool`)
//!   and synchronize through the lock-free exchange area
//!   (`crate::spmd`) — no driver thread, no per-run thread spawns.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use crossbeam::channel::{bounded, unbounded};
use qsm_models::ProgramProfile;
use qsm_obs::Recorder;

use crate::ctx::Ctx;
use crate::driver::{Driver, PhaseRecord};
use crate::machine::{Machine, PhaseTimer, RunResult};

/// Run `program` on every processor of `machine` and price the run,
/// observed by the ambient recorder and the calling thread's tally.
pub(crate) fn run<M, R, F>(machine: &M, program: F) -> RunResult<R>
where
    M: Machine,
    R: Send,
    F: Fn(&mut Ctx) -> R + Send + Sync,
{
    // Ambient observability: emit into whatever recorder the harness
    // installed (disabled — and free — by default).
    let result = run_with(machine, program, crate::obs::recorder());
    // Fold fault totals into the calling thread's tally (this is the
    // thread that called `Machine::run` on both paths, which is what
    // lets the bench sweep scope per-point deltas).
    let (retries, drops) =
        result.phases.iter().fold((0u64, 0u64), |(r, d), ph| (r + ph.retries, d + ph.dropped_msgs));
    crate::tally::note_run(retries, drops);
    result
}

/// [`run`] against an explicit recorder and outside the tally: the
/// run touches no ambient state, so calibration (`crate::calibrate`)
/// passes a disabled recorder and leaves no mark on any artifact.
pub(crate) fn run_with<M, R, F>(machine: &M, program: F, rec: Recorder) -> RunResult<R>
where
    M: Machine,
    R: Send,
    F: Fn(&mut Ctx) -> R + Send + Sync,
{
    if machine.uses_worker_pool() {
        return run_spmd(machine, program, rec);
    }
    let p = machine.nprocs();
    let (worker_tx, driver_rx) = unbounded();
    let mut reply_txs = Vec::with_capacity(p);
    let mut reply_rxs = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = bounded(1);
        reply_txs.push(tx);
        reply_rxs.push(rx);
    }

    // Driver and timer share the recorder, so both backends feed the
    // same capture.
    let driver = Driver::new(p, machine.check_conflicts(), rec.clone());
    let mut timer = machine.make_timer(rec);
    let program = &program;
    let seed = machine.seed();

    let scope_result = crossbeam::thread::scope(move |scope| {
        let mut handles = Vec::with_capacity(p);
        for (proc, rx) in reply_rxs.into_iter().enumerate() {
            let tx = worker_tx.clone();
            handles.push(scope.spawn(move |_| {
                let panic_tx = tx.clone();
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut ctx = Ctx::new(proc, p, seed, tx, rx);
                    let out = program(&mut ctx);
                    ctx.finish();
                    out
                }));
                match result {
                    Ok(out) => Some(out),
                    Err(payload) => {
                        let _ = panic_tx.send(crate::driver::WorkerMsg::Panicked(payload));
                        None
                    }
                }
            }));
        }
        drop(worker_tx);
        let driver_result = driver.run(&driver_rx, &reply_txs, &mut timer);
        drop(reply_txs); // release any workers still blocked in sync()
        Driver::collect_outputs(handles, driver_result)
    });
    let (outputs, phases) = match scope_result {
        Ok(v) => v,
        // The driver panicked on the scope thread (e.g. a collective
        // violation): re-raise with its own message.
        Err(payload) => std::panic::resume_unwind(payload),
    };

    assemble(machine, outputs, phases)
}

/// Run `program` on the resident SPMD worker pool with the lock-free
/// exchange (`crate::spmd`): one job per processor, worker 0 doubles
/// as the phase leader running the driver's plan/price/record stages
/// inline.
fn run_spmd<M, R, F>(machine: &M, program: F, rec: Recorder) -> RunResult<R>
where
    M: Machine,
    R: Send,
    F: Fn(&mut Ctx) -> R + Send + Sync,
{
    let p = machine.nprocs();
    let mut driver = Driver::new(p, machine.check_conflicts(), rec.clone());
    let mut timer: Box<dyn PhaseTimer> = Box::new(machine.make_timer(rec.clone()));
    driver.begin_run(timer.as_ref());
    // Full-level capture: a timer that opts in (the wall-clock one)
    // hands over its epoch and the workers emit their own per-lane
    // spans against it (compute / barrier legs / serve / apply plus
    // the leader's plan and price stages).
    let obs = if rec.is_full() {
        timer.spmd_span_epoch().map(|epoch| {
            rec.set_nprocs(p);
            crate::spmd::RunObs { rec: rec.clone(), epoch }
        })
    } else {
        None
    };
    let area = crate::spmd::ExchangeArea::new(p, driver, timer, obs);
    let outputs: Vec<Mutex<Option<R>>> = (0..p).map(|_| Mutex::new(None)).collect();
    let seed = machine.seed();
    let program = &program;

    {
        let area = &area;
        let outputs = &outputs;
        let job = move |proc: usize| {
            // The context lives OUTSIDE catch_unwind: peers read its
            // store through the exchange area until the exit
            // rendezvous, so unwinding must not drop it early.
            let mut ctx = crate::spmd::make_ctx(proc, p, seed, area);
            let result = catch_unwind(AssertUnwindSafe(|| {
                let out = program(&mut ctx);
                crate::spmd::epilogue(&mut ctx);
                out
            }));
            match result {
                Ok(out) => {
                    *outputs[proc].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                }
                Err(payload) => {
                    // Release everyone blocked on the barrier; keep
                    // only originating payloads (peers unwinding on
                    // the poison carry the internal abort marker).
                    area.poison();
                    if !payload.is::<crate::spmd::SpmdAborted>() {
                        area.stash_panic(proc, payload);
                    }
                }
            }
            crate::spmd::exit_rendezvous(area);
        };
        let stats = crate::pool::execute(p, &job);

        if rec.is_enabled() {
            // Pool placement telemetry. All deterministic for a given
            // environment (the pool always grows to min(p, QSM_POOL)
            // residents before placing, and spawns are attributed to
            // runs under the pool lock), so metrics-level dumps stay
            // byte-stable across QSM_JOBS.
            rec.add("pool_spawns", stats.spawned);
            rec.add("spmd_runs", 1);
            rec.add("pool_resident_jobs", stats.resident as u64);
            if stats.overflow > 0 {
                rec.add("pool_overflow_jobs", stats.overflow as u64);
            }
            if crate::pool::pinning_requested() {
                rec.add("pool_pinned_runs", 1);
            }
        }
    }

    if rec.is_full() {
        // Barrier backoff escalations are scheduling-dependent, so
        // they are full-level only (single-run captures).
        let (yields, sleeps) = area.barrier_transitions();
        rec.add("spmd_barrier_yield_transitions", yields);
        rec.add("spmd_barrier_sleep_transitions", sleeps);
    }
    let (phases, panic) = area.into_results();
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    let outputs = outputs
        .into_iter()
        .map(|m| {
            m.into_inner().unwrap_or_else(|e| e.into_inner()).expect("worker produced no output")
        })
        .collect();
    assemble(machine, outputs, phases)
}

/// Backend-agnostic tail of every run: profile + cost report.
fn assemble<M: Machine, R>(machine: &M, outputs: Vec<R>, phases: Vec<PhaseRecord>) -> RunResult<R> {
    let profile = ProgramProfile { phases: phases.iter().map(|r| r.profile).collect() };
    let report = machine.make_report(&phases);
    RunResult { outputs, phases, profile, report }
}
