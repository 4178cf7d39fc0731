//! The shared run engine: one pipeline, one run loop, every backend.
//!
//! [`run`] is the only place in the workspace that launches QSM
//! workers and drives the phase loop. A [`Machine`] contributes just
//! its configuration and its boxed `PhaseTimer`; how a run executes is
//! the same for all of them, which is what makes cross-backend
//! comparisons of the resulting [`RunResult`]s meaningful.
//!
//! A run is `p` jobs, one per processor, on workers leased from the
//! resident pool (`crate::pool`): no thread is spawned for a run whose
//! workers are idle in the pool. The jobs rendezvous through the
//! lock-free exchange area (`crate::spmd`) twice per `sync()`; worker
//! 0 doubles as the phase leader and runs the driver's plan / price /
//! record stages inline, with the machine's timer as the price stage.
//! On the simulated machine that timer is the network model, so
//! simulated time advances on the leader while the other workers are
//! already computing the next phase; on the threads machine it reads
//! the host clock. Nothing else differs between backends.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use qsm_models::ProgramProfile;
use qsm_obs::Recorder;

use crate::ctx::Ctx;
use crate::driver::{Driver, PhaseRecord};
use crate::machine::{Machine, RunResult};

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
    // Fold fault totals into the calling thread's tally (the thread
    // that called `Machine::run`, which is what lets the bench sweep
    // scope per-point deltas).
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
    let p = machine.nprocs();
    let mut driver = Driver::new(p, machine.check_conflicts(), rec.clone());
    let mut timer = machine.make_timer(rec.clone());
    driver.begin_run(timer.as_ref());
    // Full-level capture: a timer that opts in (the wall-clock one)
    // hands over its epoch and the workers emit their own per-lane
    // spans against it (compute / barrier legs / serve / apply plus
    // the leader's plan and price stages). The simulated timer does
    // not: its trace is in simulated cycles, from the price stage.
    let obs = if rec.is_full() {
        timer.spmd_span_epoch().map(|epoch| {
            rec.set_nprocs(p);
            crate::spmd::RunObs { rec: rec.clone(), epoch }
        })
    } else {
        None
    };
    let area = crate::spmd::ExchangeArea::new(p, driver, timer, obs, rec.is_full());
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

        if rec.is_full() {
            // Pool placement and barrier backoff depend on what the
            // process ran before (the first run spawns, the next does
            // not) and on scheduling, so they are full-level only
            // (single-run captures) and metrics-level dumps stay
            // byte-stable across `QSM_JOBS` and process history.
            rec.add("pool_spawns", stats.spawned);
            rec.add("spmd_runs", 1);
            rec.add("pool_resident_jobs", stats.resident as u64);
            if stats.overflow > 0 {
                rec.add("pool_overflow_jobs", stats.overflow as u64);
            }
            if crate::pool::pinning_requested() {
                rec.add("pool_pinned_runs", 1);
            }
            let (yields, sleeps) = area.barrier_transitions();
            rec.add("spmd_barrier_yield_transitions", yields);
            rec.add("spmd_barrier_sleep_transitions", sleeps);
        }
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
