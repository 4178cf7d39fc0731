//! The shared run engine: one pipeline, one run loop, every backend.
//!
//! [`run`] is the only place in the workspace that launches QSM
//! workers and drives the phase loop. A [`Machine`] contributes just
//! its configuration and its boxed `PhaseTimer`; how a run executes is
//! the same for all of them, which is what makes cross-backend
//! comparisons of the resulting [`RunResult`]s meaningful.
//!
//! A run is `p` processors on `k = min(p, host cores)` **carrier**
//! threads leased from the resident pool (`crate::pool`): no thread is
//! spawned for a run whose carriers are idle in the pool. Carrier `c`
//! hosts processors `c·p/k .. (c+1)·p/k`, each on a stack of its own
//! that it switches between in user space (`crate::fiber`); one that
//! hosts a single processor — every carrier, when `p` fits the host —
//! just runs it. The processors rendezvous through the lock-free
//! exchange area (`crate::spmd`) twice per `sync()`; processor 0
//! doubles as the phase leader and runs the driver's plan / price /
//! record stages inline, with the machine's timer as the price stage.
//! On the simulated machine that timer is the network model, so
//! simulated time advances on the leader while the processors of the
//! other carriers are already computing the next phase; on the threads
//! machine it reads the host clock. Nothing else differs between
//! backends, and no simulated number depends on `k`: the unit tests
//! run kernels and drawn put / get / register programs on 1, 2, 3 and
//! `p` carriers and compare every [`PhaseRecord`](crate::PhaseRecord),
//! and `tests/scale_agreement.rs` checks sim and threads outputs equal
//! at n = 2^20 and p = 8 and 64.
//!
//! ### Observability
//!
//! A simulated run's trace is the timer's, in simulated cycles. A
//! timer that opts in through `PhaseTimer::spmd_span_epoch` (the wall
//! clock's) hands each worker a lane instead: one cursor advances
//! through the stages of every phase and emits a span per stage, so
//! consecutive spans share their boundary instant and a lane tiles its
//! timeline exactly (`crates/bench/tests/perfetto_threads.rs` asserts
//! equality). Spans are buffered per worker and flushed after the last
//! phase is priced. Everything that depends on the host — barrier
//! waits, utilization, the barrier's backoff counts, and the pool's
//! spawns and placements, which depend on what the process ran before
//! — is recorded at `Full` level only, so `Metrics` dumps stay
//! byte-stable across `QSM_JOBS` and process history.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use qsm_obs::Recorder;

use crate::ctx::Ctx;
use crate::driver::Driver;
use crate::machine::{Machine, RunResult};

/// Run `program` on every processor of `machine` and price the run,
/// observed by the ambient recorder.
pub(crate) fn run<M, R, F>(machine: &M, program: F) -> RunResult<R>
where
    M: Machine,
    R: Send,
    F: Fn(&mut Ctx) -> R + Send + Sync,
{
    run_with(machine, program, crate::obs::recorder())
}

/// [`run`] against an explicit recorder: the run touches no ambient
/// state, so calibration (`crate::calibrate`) passes a disabled
/// recorder and leaves no mark on any artifact.
pub(crate) fn run_with<M, R, F>(machine: &M, program: F, rec: Recorder) -> RunResult<R>
where
    M: Machine,
    R: Send,
    F: Fn(&mut Ctx) -> R + Send + Sync,
{
    run_on_carriers(machine, program, rec, crate::pool::host_cores())
}

/// [`run_with`] on `k` carrier threads (at most `p`; exactly `p` where
/// a thread cannot host more than one processor). Not a knob: the one
/// caller but `run_with` is the test that no result depends on `k`.
pub(crate) fn run_on_carriers<M: Machine, R: Send>(
    machine: &M,
    program: impl Fn(&mut Ctx) -> R + Send + Sync,
    rec: Recorder,
    k: usize,
) -> RunResult<R> {
    let p = machine.nprocs();
    let k = if crate::fiber::HOSTS { k.clamp(1, p) } else { p };
    let mut driver = Driver::new(p, rec.clone());
    let mut timer = machine.make_timer(rec.clone());
    driver.begin_run(machine.config().net.banks, timer.link_count());
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
    let area = crate::spmd::ExchangeArea::new(p, k, driver, timer, obs, rec.is_full());
    let outputs: Vec<Mutex<Option<R>>> = (0..p).map(|_| Mutex::new(None)).collect();
    let seed = machine.seed();
    let program = &program;

    {
        let area = &area;
        let outputs = &outputs;
        let processor = move |proc: usize, carrier: usize| {
            // The context lives OUTSIDE catch_unwind: peers read its
            // store through the exchange area until the exit
            // rendezvous, so unwinding must not drop it early.
            let mut ctx = crate::spmd::make_ctx(proc, carrier, seed, area);
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
            crate::spmd::exit_rendezvous(area, carrier);
        };
        let job = move |carrier: usize| {
            crate::fiber::host(crate::spmd::hosted(carrier, p, k), &|proc| {
                processor(proc, carrier)
            });
        };
        let spawned = crate::pool::execute(k, &job);

        if rec.is_full() {
            // Pool growth and barrier backoff depend on what the
            // process ran before (the first run spawns, the next does
            // not) and on scheduling, so they are full-level only
            // (single-run captures) and metrics-level dumps stay
            // byte-stable across `QSM_JOBS` and process history.
            // The pool's jobs are the run's carriers, not its processors.
            rec.add("pool_spawns", spawned);
            rec.add("spmd_runs", 1);
            rec.add("pool_resident_jobs", k as u64);
            let (yields, parks) = area.barrier_transitions();
            rec.add("spmd_barrier_yield_transitions", yields);
            rec.add("spmd_barrier_sleep_transitions", parks);
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
    RunResult { outputs, phases }
}

#[cfg(test)]
mod tests {
    //! No result depends on how many threads carry the processors, and
    //! an abort leaves nothing behind, whatever a processor's
    //! carrier-mates were doing when it happened.

    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::{env, process::Command};

    use proptest::prelude::*;
    use qsm_simnet::MachineConfig;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::driver::PhaseRecord;
    use crate::{Layout, SimMachine, ThreadMachine};

    /// One carrier, two, three (uneven hosting: 1 + 2 + 2 of five),
    /// and one a processor.
    const CARRIERS: [usize; 4] = [1, 2, 3, usize::MAX];

    fn on<M: Machine, R: Send>(
        m: &M,
        k: usize,
        program: impl Fn(&mut Ctx) -> R + Send + Sync,
    ) -> RunResult<R> {
        run_on_carriers(m, program, Recorder::default(), k)
    }

    fn sim(p: usize) -> SimMachine {
        SimMachine::new(MachineConfig::paper_default(p))
    }

    /// Element `i` of every kernel's input.
    fn input(i: usize) -> u64 {
        (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 44
    }

    /// Prefix sums: scan the block, tell every later block the total.
    fn prefix(ctx: &mut Ctx, n: usize) -> Vec<u64> {
        let (p, me) = (ctx.nprocs(), ctx.proc_id());
        let data = ctx.register::<u64>("data", n, Layout::Block);
        let totals = ctx.register::<u64>("totals", p * p, Layout::Block);
        ctx.sync();
        let first = ctx.local_range(&data).start;
        let mut sum = 0;
        for (i, x) in ctx.local_mut(&data).iter_mut().enumerate() {
            sum += input(first + i);
            *x = sum;
        }
        ctx.charge(ctx.local_range(&data).len() as u64);
        for later in me + 1..p {
            ctx.put(&totals, later * p + me, &[sum]);
        }
        ctx.sync();
        let before: u64 = ctx.local(&totals)[..me].iter().sum();
        ctx.local(&data).iter().map(|x| x + before).collect()
    }

    /// Sample sort: all-gather `p - 1` samples a processor, route every
    /// key to its bucket's owner through a fixed-capacity inbox.
    fn samplesort(ctx: &mut Ctx, n: usize) -> Vec<u32> {
        let (p, me) = (ctx.nprocs(), ctx.proc_id());
        let cap = n.div_ceil(p);
        let samples = ctx.register::<u32>("samples", p * p * p, Layout::Block);
        let inbox = ctx.register::<u32>("inbox", p * p * cap, Layout::Block);
        let counts = ctx.register::<u32>("counts", p * p, Layout::Block);
        ctx.sync();
        let mut keys: Vec<u32> =
            crate::addr::block_range(n, p, me).map(|i| input(i) as u32).collect();
        keys.sort_unstable();
        ctx.charge(keys.len() as u64);
        let mine: Vec<u32> = (1..p).map(|j| keys[j * keys.len() / p]).collect();
        for dst in 0..p {
            ctx.put(&samples, (dst * p + me) * p, &mine);
        }
        ctx.sync();
        let mut all: Vec<u32> =
            ctx.local(&samples).chunks(p).flat_map(|from| &from[..p - 1]).copied().collect();
        all.sort_unstable();
        let mut rest = &keys[..];
        for dst in 0..p {
            let end = if dst + 1 < p {
                rest.partition_point(|&key| key < all[(dst + 1) * (p - 1) - 1])
            } else {
                rest.len()
            };
            let (bucket, tail) = rest.split_at(end);
            ctx.put(&inbox, (dst * p + me) * cap, bucket);
            ctx.put(&counts, dst * p + me, &[bucket.len() as u32]);
            rest = tail;
        }
        ctx.sync();
        let counts = ctx.local_vec(&counts);
        let mut sorted: Vec<u32> = ctx
            .local(&inbox)
            .chunks(cap)
            .zip(counts)
            .flat_map(|(from, len)| &from[..len as usize])
            .copied()
            .collect();
        sorted.sort_unstable();
        sorted
    }

    /// List ranking by pointer jumping over the list `0 → s → 2s → …`
    /// (mod `n`, `s` odd, `n` a power of two), cut before it closes:
    /// two one-word gets an element a round.
    fn listrank(ctx: &mut Ctx, n: usize) -> Vec<u64> {
        const STRIDE: usize = 1237;
        let succ = ctx.register::<u64>("succ", n, Layout::Block);
        let rank = ctx.register::<u64>("rank", n, Layout::Block);
        ctx.sync();
        let mine = ctx.local_range(&succ);
        let tail = n - STRIDE;
        for (at, i) in mine.clone().enumerate() {
            ctx.local_mut(&succ)[at] = if i == tail { i } else { (i + STRIDE) % n } as u64;
            ctx.local_mut(&rank)[at] = u64::from(i != tail);
        }
        for _ in 0..n.ilog2() {
            let next = ctx.local_vec(&succ);
            let tickets: Vec<_> = next
                .iter()
                .map(|&s| (ctx.get(&succ, s as usize, 1), ctx.get(&rank, s as usize, 1)))
                .collect();
            ctx.sync();
            for (at, (s, r)) in tickets.into_iter().enumerate() {
                let (s, r) = (ctx.take(s)[0], ctx.take(r)[0]);
                ctx.local_mut(&succ)[at] = s;
                ctx.local_mut(&rank)[at] += r;
            }
        }
        ctx.local_vec(&rank)
    }

    /// A drawn program: every phase all processors agree on an array, a
    /// split of it (puts below, gets above), and whether to register
    /// one more array or retire another; each then draws its own puts,
    /// gets and charge. Returns every get result and what is left.
    fn scripted(ctx: &mut Ctx, seed: u64, phases: usize) -> Vec<u32> {
        let (p, me) = (ctx.nprocs(), ctx.proc_id());
        let len = 8 * p + 3;
        let mut arrays = vec![ctx.register::<u32>("a", len, Layout::Block)];
        ctx.sync();
        let mut seen = Vec::new();
        for phase in 0..phases as u64 {
            let shared = &mut SmallRng::seed_from_u64(seed ^ phase << 16);
            let own = &mut SmallRng::seed_from_u64(seed ^ phase << 16 ^ (me as u64 + 1) << 40);
            let split = shared.gen_range(1..len);
            let target = shared.gen_range(0..arrays.len());
            let arr = arrays[target];
            for _ in 0..own.gen_range(0..4) {
                let start = own.gen_range(0..split);
                let data: Vec<u32> =
                    (0..own.gen_range(0..=split - start)).map(|_| own.gen()).collect();
                ctx.put(&arr, start, &data);
            }
            let tickets: Vec<_> = (0..own.gen_range(0..4))
                .map(|_| {
                    let start = own.gen_range(split..len);
                    ctx.get(&arr, start, own.gen_range(0..=len - start))
                })
                .collect();
            ctx.charge(own.gen_range(0..100));
            if arrays.len() > 1 && shared.gen_range(0..3) == 0 {
                ctx.unregister(arrays.remove((target + 1) % arrays.len()));
            }
            if shared.gen_range(0..3) == 0 {
                arrays.push(ctx.register::<u32>("more", len, Layout::Block));
            }
            ctx.sync();
            tickets.into_iter().for_each(|t| ctx.take_into(t, &mut seen));
        }
        arrays.iter().for_each(|arr| seen.extend_from_slice(ctx.local(arr)));
        seen
    }

    /// `program` on `m` at every carrier count: on the simulated
    /// machine every output and every phase record must equal the
    /// one-carrier run's; on the wall-clock machine, whose times are
    /// the host's, every output, the profile and the traffic totals.
    fn same_on_any_carriers<M: Machine, R: Send + PartialEq + std::fmt::Debug>(
        m: &M,
        program: impl Fn(&mut Ctx) -> R + Send + Sync,
    ) -> RunResult<R> {
        let one = on(m, 1, &program);
        for k in &CARRIERS[1..] {
            let run = on(m, *k, &program);
            assert_eq!(run.outputs, one.outputs, "outputs on {k} carriers");
            let profile = |r: &PhaseRecord| r.profile;
            assert!(
                run.phases.iter().map(profile).eq(one.phases.iter().map(profile)),
                "profile on {k} carriers"
            );
            if m.backend_name() == "sim" {
                assert_eq!(run.phases, one.phases, "phase records on {k} carriers");
                assert_eq!(run.total().get().to_bits(), one.total().get().to_bits());
            } else {
                let traffic = |r: &PhaseRecord| (r.data_msgs, r.payload_bytes, r.bank_kappa);
                assert!(run.phases.iter().map(traffic).eq(one.phases.iter().map(traffic)));
            }
        }
        one
    }

    /// Counts the program frames that were left, by return or unwind.
    struct Left<'a>(&'a AtomicUsize);

    impl Drop for Left<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The panic message of a run that must fail.
    fn failure(run: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("the run must panic");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast::<&str>().map(|s| s.to_string()).expect("a string payload"),
        }
    }

    /// Whether this test has the process to itself (`--exact` names one
    /// test), so that the pool and the stack lists are its own.
    fn alone() -> bool {
        env::args().any(|arg| arg == "--exact")
    }

    /// This test binary again, running `test` alone.
    fn alone_in_a_child(test: &str) -> Command {
        let mut child = Command::new(env::current_exe().unwrap());
        child.args(["--exact", test, "--include-ignored", "--test-threads=1"]);
        child
    }

    /// Where the processors of a carrier are when one of them panics.
    /// With mates resumed in turn after a crossing, the last to reach
    /// the next one rotates: 7 at the first B1 of a run, 6 at its B2,
    /// 5 and 4 in the second phase (and on any carrier that hosts 4–7).
    #[derive(Clone, Copy, Debug)]
    enum Mates {
        /// Paused at B1: the last to arrive panics instead.
        AtB1,
        /// Paused at B2: the last owner to sweep finds a conflict.
        AtB2,
        /// Paused in the exit rendezvous: processors 0 and 7 panic
        /// outright, and 0 waits there when 7 does.
        Leaving,
    }

    fn abort(ctx: &mut Ctx, mates: Mates) {
        let me = ctx.proc_id();
        let arr = ctx.register::<u64>("cells", ctx.nprocs(), Layout::Block);
        if matches!(mates, Mates::Leaving) && (me == 0 || me == 7) {
            panic!("processor {me} gave up");
        }
        ctx.sync();
        match (mates, me) {
            (Mates::AtB1, 5) => panic!("processor 5 gave up"),
            (Mates::AtB2, 0) => ctx.put(&arr, 4, &[1]),
            (Mates::AtB2, 1) => drop(ctx.get(&arr, 4, 1)),
            _ => {}
        }
        ctx.sync();
    }

    #[test]
    fn an_abort_under_hosting_unwinds_every_processor_and_leaves_no_trace() {
        const P: usize = 8;
        let m = sim(P);
        let healthy = |ctx: &mut Ctx| scripted(ctx, 7, 6);
        let fresh = on(&m, P, healthy);
        // `(workers spawned, stacks mapped)` by a healthy run.
        let cost = |k: usize| {
            let before = (crate::pool::spawned_workers(), crate::fiber::mapped_stacks());
            let run = on(&m, k, healthy);
            assert_eq!((run.outputs, run.phases), (fresh.outputs.clone(), fresh.phases.clone()));
            let after = (crate::pool::spawned_workers(), crate::fiber::mapped_stacks());
            (after.0 - before.0, after.1 - before.1)
        };
        for k in [1, 2] {
            // Nothing once the resident carriers are warm.
            let (_, warm) = (cost(k), cost(k));
            for (mates, want) in [
                (Mates::AtB1, "processor 5 gave up"),
                (
                    Mates::AtB2,
                    "bulk-synchrony violation: location 4 of array 'cells' is both read and \
                     written in the same phase (the QSM phase contract forbids this; split the \
                     accesses across a sync())",
                ),
                (Mates::Leaving, "processor 0 gave up"),
            ] {
                let left = AtomicUsize::new(0);
                let message = failure(|| {
                    on(&m, k, |ctx| {
                        let _frame = Left(&left);
                        abort(ctx, mates);
                    });
                });
                assert_eq!(message, want, "{mates:?} on {k} carrier(s)");
                assert_eq!(left.into_inner(), P, "{mates:?} on {k} carrier(s): frames unwound");
            }
            // One that returns while its mates `sync()`: the message of
            // `tests/violations.rs`, whoever hosts whom.
            let early = failure(|| drop(on(&m, k, |ctx| (ctx.proc_id() != 2).then(|| ctx.sync()))));
            assert_eq!(
                early,
                "collective violation: 1 processor(s) returned while 7 called sync()"
            );
            // The carriers are idle again and every stack is back on
            // its thread's list: the next run spawns and maps what a
            // warm one does, and is the run of a machine nothing ever
            // went wrong on.
            let after_aborts = cost(k);
            if alone() {
                assert_eq!(after_aborts, warm, "(spawned, mapped) on {k} carrier(s)");
            }
        }
    }

    #[test]
    fn an_abort_under_hosting_leaves_no_trace_in_a_process_of_its_own() {
        let test =
            "engine::tests::an_abort_under_hosting_unwinds_every_processor_and_leaves_no_trace";
        let child = alone_in_a_child(test).output().expect("cannot re-run this test binary");
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(
            child.status.success() && stdout.contains("1 passed"),
            "{stdout}\n{}",
            String::from_utf8_lossy(&child.stderr)
        );
    }

    /// Not a test of its own: it takes its process down.
    #[test]
    #[ignore = "kills its process; a_stack_overflow_under_hosting_is_a_fault_on_the_guard_page runs it"]
    fn a_hosted_processor_overflows_its_stack() {
        #[allow(unconditional_recursion)]
        fn dive(depth: u64) -> u64 {
            let frame = std::hint::black_box([depth; 64]);
            dive(depth + 1) + frame[0]
        }
        on(&sim(4), 1, |ctx| dive(ctx.proc_id() as u64));
    }

    /// The one behaviour of a fiber that differs from a thread's: no
    /// "has overflowed its stack" banner, because the standard
    /// library's handler knows thread stacks only — but a fault on the
    /// guard page all the same, and never a write below the stack.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    #[test]
    fn a_stack_overflow_under_hosting_is_a_fault_on_the_guard_page() {
        use std::os::unix::process::ExitStatusExt;
        let test = "engine::tests::a_hosted_processor_overflows_its_stack";
        let child = alone_in_a_child(test).output().expect("cannot re-run this test binary");
        const SIGSEGV: i32 = 11;
        assert_eq!(
            child.status.signal(),
            Some(SIGSEGV),
            "{}\n{}",
            String::from_utf8_lossy(&child.stdout),
            String::from_utf8_lossy(&child.stderr)
        );
    }

    fn kernels_are_the_same_on_any_carriers<M: Machine>(m: &M) {
        const N: usize = 1 << 12;
        let sums = same_on_any_carriers(m, |ctx| prefix(ctx, N)).outputs.concat();
        assert!(sums
            .iter()
            .scan(0, |sum, &x| Some(x - std::mem::replace(sum, x)))
            .eq((0..N).map(input)));
        let sorted = same_on_any_carriers(m, |ctx| samplesort(ctx, N)).outputs.concat();
        let mut want: Vec<u32> = (0..N).map(|i| input(i) as u32).collect();
        want.sort_unstable();
        assert_eq!(sorted, want);
        let ranks = same_on_any_carriers(m, |ctx| listrank(ctx, N)).outputs.concat();
        assert!((0..N).all(|j| ranks[j * 1237 % N] == (N - 1 - j) as u64));
    }

    #[test]
    fn three_kernels_are_the_same_on_any_carriers() {
        for p in [5, 16] {
            kernels_are_the_same_on_any_carriers(&sim(p));
            kernels_are_the_same_on_any_carriers(&ThreadMachine::new(p));
        }
    }

    /// `program` on `m` under a metrics recorder: the data messages
    /// its phase records count, and the put-data, get-request and
    /// get-reply messages the network carried.
    fn counted_and_sent(m: &SimMachine, program: impl Fn(&mut Ctx) + Send + Sync) -> (u64, u64) {
        let rec = Recorder::new(qsm_obs::ObsLevel::Metrics, qsm_simnet::CLOCK_HZ);
        let run = run_with(m, program, rec.clone());
        let metrics = rec.take().expect("an enabled recorder").metrics;
        let counted = run.phases.iter().map(|r| r.data_msgs).sum();
        assert_eq!(metrics.counter("data_msgs"), counted);
        let kinds = ["net_msgs_put_data", "net_msgs_get_request", "net_msgs_get_reply"];
        (counted, kinds.iter().map(|kind| metrics.counter(kind)).sum())
    }

    /// Puts and gets of a hashed array, which scatter over owners and
    /// banks element by element.
    fn hashed(ctx: &mut Ctx) {
        let me = ctx.proc_id();
        let written = ctx.register::<u32>("written", 64, Layout::Hashed);
        let read = ctx.register::<u64>("read", 64, Layout::Hashed);
        ctx.sync();
        ctx.put(&written, 7 * me, &[me as u32; 9]);
        let ticket = ctx.get(&read, 11 * me % 50, 13);
        ctx.sync();
        ctx.take(ticket);
    }

    /// The messages a phase counts are the ones its exchange sends, one
    /// per kind and (pair, bank) cell, with and without a bank model.
    #[test]
    fn a_phase_counts_the_messages_its_exchange_sends() {
        use qsm_simnet::BankModel;
        for banks in [None, Some(4)] {
            let mut cfg = MachineConfig::paper_default(5);
            if let Some(b) = banks {
                cfg = cfg.with_banks(BankModel::per_message(b, 100.0));
            }
            let m = SimMachine::new(cfg);
            let mut runs = vec![
                counted_and_sent(&m, |ctx| drop(samplesort(ctx, 4096))),
                counted_and_sent(&m, |ctx| drop(listrank(ctx, 4096))),
                counted_and_sent(&m, hashed),
            ];
            runs.extend(
                (0..4).map(|seed| counted_and_sent(&m, |ctx| drop(scripted(ctx, seed, 6)))),
            );
            for (k, (counted, sent)) in runs.into_iter().enumerate() {
                assert!(sent > 0, "program {k} sent nothing");
                assert_eq!(counted, sent, "program {k}, {banks:?} banks");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn drawn_programs_are_the_same_on_any_carriers(seed in any::<u64>(), phases in 1usize..8) {
            for p in [5, 16] {
                same_on_any_carriers(&sim(p), |ctx| scripted(ctx, seed, phases));
                same_on_any_carriers(&ThreadMachine::new(p), |ctx| scripted(ctx, seed, phases));
            }
        }
    }
}
