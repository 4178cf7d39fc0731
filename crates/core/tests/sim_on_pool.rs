//! The simulated machine on the resident pool and the SPMD exchange:
//! no thread per run, concurrent runs that neither deadlock nor
//! disturb each other's simulated results, no per-phase memory growth,
//! and the diagnostics a misused phase contract always had.
//!
//! An integration test so that it owns its process: the pool's spawn
//! counter and the counting allocator below are process-global. The
//! tests take `SERIAL` so that they do not perturb each other either.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::Duration;

use qsm_core::{pool, Ctx, Layout, PhaseRecord, SimMachine, ThreadMachine};
use qsm_simnet::MachineConfig;

/// Forwards to the system allocator, counting calls and live bytes.
struct Counting;

// Relaxed: both are statistics and publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

fn count(grown_by: i64) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    LIVE_BYTES.fetch_add(grown_by, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter updates touch
// no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const P: usize = 16;
const BLOCK: usize = 64;

fn machine(p: usize) -> SimMachine {
    SimMachine::new(MachineConfig::paper_default(p))
}

/// Every phase each processor puts a block to every peer and, when
/// `gets` is set, reads one block back from a rotating peer. Returns a
/// checksum per processor.
fn exchange(m: &SimMachine, phases: usize, gets: bool) -> (Vec<u64>, Vec<PhaseRecord>) {
    let run = m.run(|ctx| {
        let (p, me) = (ctx.nprocs(), ctx.proc_id());
        let src = ctx.register::<u32>("src", BLOCK * p, Layout::Block);
        let dst = ctx.register::<u32>("dst", BLOCK * p * p, Layout::Block);
        ctx.sync();
        let mine = [me as u32; BLOCK];
        ctx.local_write(&src, me * BLOCK, &mine);
        let mut sum = 0u64;
        for phase in 0..phases {
            for peer in (0..p).filter(|&peer| peer != me) {
                ctx.put(&dst, (peer * p + me) * BLOCK, &mine);
            }
            let ticket =
                gets.then(|| ctx.get(&src, ((me + 1 + phase % (p - 1)) % p) * BLOCK, BLOCK));
            ctx.sync();
            if let Some(t) = ticket {
                sum += ctx.take(t).iter().map(|&v| v as u64).sum::<u64>();
            }
        }
        sum + ctx.local_vec(&dst).iter().map(|&v| v as u64).sum::<u64>()
    });
    (run.outputs, run.phases)
}

/// Carrier threads a run of `p` processors leases: one a host core
/// where a thread can host several processors, one a processor elsewhere.
fn carriers(p: usize) -> usize {
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        p.min(pool::host_cores())
    } else {
        p
    }
}

/// Residents `QSM_POOL` lets the pool keep (the knob's own default).
fn pool_cap() -> usize {
    std::env::var("QSM_POOL").ok().and_then(|v| v.parse().ok()).unwrap_or(usize::MAX)
}

#[test]
fn a_second_sim_run_spawns_no_thread() {
    let _serial = serial();
    let m = machine(P);
    let first = exchange(&m, 4, true);
    let warm = pool::spawned_workers();
    let k = carriers(P);
    assert!(warm >= k as u64, "a simulated run's carriers are pool workers");
    let second = exchange(&m, 4, true);
    // Residents are reused; only what `QSM_POOL` pushes to overflow
    // threads (CI runs this file at 0 and 4 too) is spawned per run.
    let overflow = (k - k.min(pool_cap())) as u64;
    assert_eq!(pool::spawned_workers() - warm, overflow);
    assert_eq!(first, second, "worker reuse must not change a simulated result");
}

#[test]
fn concurrent_sim_runs_match_the_serial_run() {
    let _serial = serial();
    const CALLERS: usize = 4;
    let serial_run = exchange(&machine(P), 24, true);
    let (tx, rx) = mpsc::channel();
    for _ in 0..CALLERS {
        let tx = tx.clone();
        // Detached, so that a deadlock fails the test below instead of
        // hanging it in a join.
        std::thread::spawn(move || {
            for _ in 0..3 {
                let _ = tx.send(exchange(&machine(P), 24, true));
            }
        });
    }
    for i in 0..CALLERS * 3 {
        let got = rx
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("concurrent sim runs stalled after {i} of them: {e}"));
        assert_eq!(got.0, serial_run.0, "outputs of run {i}");
        assert_eq!(got.1, serial_run.1, "phase records of run {i}");
    }
}

/// `QSM_POOL` is read once per process, so the all-overflow and the
/// mixed (4 residents, the rest overflow, and whoever comes second
/// gets no resident at all) placements each need a process.
#[test]
fn concurrent_sim_runs_match_under_overflow_and_mixed_placement() {
    let _serial = serial();
    for cap in ["0", "4"] {
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "concurrent_sim_runs_match_the_serial_run"])
            .env("QSM_POOL", cap)
            .output()
            .expect("cannot re-run this test binary");
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(
            child.status.success() && stdout.contains("1 passed"),
            "QSM_POOL={cap}:\n{stdout}\n{}",
            String::from_utf8_lossy(&child.stderr)
        );
    }
}

#[test]
fn a_long_put_only_run_does_not_grow() {
    let _serial = serial();
    const PHASES: usize = 2000;
    let sample = || (ALLOCS.load(Ordering::Relaxed), LIVE_BYTES.load(Ordering::Relaxed));
    let run = machine(8).run(|ctx| {
        let (p, me) = (ctx.nprocs(), ctx.proc_id());
        let dst = ctx.register::<u32>("dst", BLOCK * p * p, Layout::Block);
        ctx.sync();
        let mine = [me as u32; BLOCK];
        let mut samples = [(0u64, 0i64); 3];
        for phase in 1..=PHASES {
            for peer in (0..p).filter(|&peer| peer != me) {
                ctx.put(&dst, (peer * p + me) * BLOCK, &mine);
            }
            ctx.sync();
            // The leader's record list last doubles at phase 1024.
            if let Some(k) = [1100, 1550, 2000].iter().position(|&at| at == phase) {
                samples[k] = sample();
            }
        }
        samples
    });
    let [(a0, live0), (a1, _), (a2, live2)] = run.outputs[0];
    let (third, fourth) = (a1 - a0, a2 - a1);
    // 56 put buffers a phase came fresh from the allocator, and stayed
    // live, when put buffers drained into an uncapped driver-side pool;
    // what is left is the price stage's handful. (The slack is for the
    // test harness, which starts and reports other tests meanwhile.)
    assert!(
        third.abs_diff(fourth) < 45 && third < 20 * 450,
        "allocations over 450 phases: {third}, then {fourth}; a steady run recycles its buffers"
    );
    assert!(
        (live2 - live0).abs() < 64 << 10,
        "live heap moved by {} bytes over 900 steady phases",
        live2 - live0
    );
}

#[test]
fn a_long_run_of_one_word_puts_reuses_its_arena_and_buckets() {
    let _serial = serial();
    const PUTS: usize = 3000 / 8;
    let sample = || (ALLOCS.load(Ordering::Relaxed), LIVE_BYTES.load(Ordering::Relaxed));
    let run = machine(8).run(|ctx| {
        let (p, me) = (ctx.nprocs(), ctx.proc_id());
        let dst = ctx.register::<u32>("dst", PUTS * p, Layout::Block);
        ctx.sync();
        let mut samples = [(0u64, 0i64); 2];
        for phase in 1..=2000 {
            // One word to each location of a stride: every owner's
            // bucket fills, and the arena holds 375 words a phase.
            for k in 0..PUTS {
                ctx.put(&dst, k * p + (me + phase) % p, &[phase as u32]);
            }
            ctx.sync();
            if let Some(k) = [10, 2000].iter().position(|&at| at == phase) {
                samples[k] = sample();
            }
        }
        samples
    });
    let [(a0, live0), (a1, live1)] = run.outputs[0];
    // The leader's record list is the one thing that grows by design: it
    // held 16 records at phase 10 and holds 2048 at phase 2000.
    let records = ((2048 - 16) * std::mem::size_of::<PhaseRecord>()) as i64;
    assert!(
        (live1 - live0 - records).abs() < 64 << 10,
        "live heap moved by {} bytes over 1990 phases of 3000 one-word puts, {records} of them \
         records: an outbox that is cleared and refilled grows nothing",
        live1 - live0
    );
    assert!(a1 - a0 < 20 * 1990, "{} allocations over 1990 steady phases", a1 - a0);
}

/// A ticket dropped un-redeemed keeps its own phase's results and
/// nothing else: while get results waited in a table compacted from
/// the front, one such ticket kept every later slot of the run.
#[test]
fn a_dropped_ticket_pins_only_its_own_phase() {
    let _serial = serial();
    const GETS: usize = 512;
    let sample = || LIVE_BYTES.load(Ordering::Relaxed);
    let run = machine(2).run(|ctx| {
        let (p, me) = (ctx.nprocs(), ctx.proc_id());
        let src = ctx.register::<u32>("src", GETS * p, Layout::Block);
        ctx.sync();
        let mine = ctx.local_range(&src);
        let values: Vec<u32> = mine.clone().map(|i| i as u32).collect();
        ctx.local_write(&src, mine.start, &values);
        drop(ctx.get(&src, 0, 1));
        ctx.sync();
        let peer = (me + 1) % p * GETS;
        let (mut live, mut got) = ([0i64; 2], Vec::with_capacity(GETS));
        for phase in 1..=1000 {
            let tickets: Vec<_> = (0..GETS).map(|k| ctx.get(&src, peer + k, 1)).collect();
            ctx.sync();
            got.clear();
            tickets.into_iter().for_each(|t| ctx.take_into(t, &mut got));
            assert!(got.iter().enumerate().all(|(k, &v)| v as usize == peer + k), "phase {phase}");
            if let Some(k) = [10, 1000].iter().position(|&at| at == phase) {
                live[k] = sample();
            }
        }
        live
    });
    let [live0, live1] = run.outputs[0];
    // The leader's record list grows by design: 16 records at phase 10
    // of the loop, 1024 at phase 1000.
    let records = ((1024 - 16) * std::mem::size_of::<PhaseRecord>()) as i64;
    assert!(
        (live1 - live0 - records).abs() < 64 << 10,
        "live heap moved by {} bytes over 990 phases of 512 one-word gets after a dropped \
         ticket, {records} of them records",
        live1 - live0
    );
}

/// Two conflicts in one phase, each in another owner's block: what the
/// user sees is the lowest processor's panic, on every run — owner 1's,
/// over the higher array id, not owner 2's over the lower.
#[test]
fn of_two_conflicts_the_lowest_owners_is_reported() {
    let _serial = serial();
    // Blocks of 8 over 4: 0..2, 2..4, 4..6, 6..8.
    let program = |ctx: &mut Ctx| {
        let early = ctx.register::<u64>("early", 8, Layout::Block);
        let late = ctx.register::<u32>("late", 8, Layout::Block);
        ctx.sync();
        match ctx.proc_id() {
            0 => {
                ctx.put(&early, 5, &[1]);
                ctx.put(&late, 3, &[1]);
            }
            3 => {
                drop(ctx.get(&early, 4, 2));
                drop(ctx.get(&late, 2, 2));
            }
            _ => {}
        }
        ctx.sync();
    };
    let want = "bulk-synchrony violation: location 3 of array 'late' is both read and written \
                in the same phase (the QSM phase contract forbids this; split the accesses \
                across a sync())";
    for run in 0..20 {
        assert_eq!(failure(|| drop(machine(4).run(program))), want, "sim, run {run}");
        assert_eq!(
            failure(|| drop(ThreadMachine::new(4).run(program))),
            want,
            "threads, run {run}"
        );
    }
}

#[test]
fn a_u32_array_keeps_four_bytes_an_element_live() {
    let _serial = serial();
    const P: usize = 4;
    // 192 KiB a processor, and 384 KiB were it stored as `u64` words.
    const N: usize = P * 48 * 1024;
    let run = machine(P).run(|ctx| {
        ctx.sync();
        let before = LIVE_BYTES.load(Ordering::Relaxed);
        let arr = ctx.register::<u32>("packed", N, Layout::Block);
        ctx.sync();
        // Every processor installs its block after the barrier of the
        // registering sync; one more and all of them have.
        ctx.sync();
        let grown = LIVE_BYTES.load(Ordering::Relaxed) - before;
        ctx.sync();
        (grown, ctx.local_range(&arr).len())
    });
    assert_eq!(run.outputs.iter().map(|&(_, len)| len).sum::<usize>(), N);
    let (grown, _) = run.outputs[0];
    let (want, slack) = (4 * N as i64, 64 << 10);
    assert!(
        grown <= want + slack,
        "registering {N} u32 elements grew the live heap by {grown} bytes, more than {want}"
    );
    assert!(grown >= want - slack, "the live heap grew by {grown} bytes, less than {want}");
}

#[test]
fn a_handle_from_another_run_cannot_reinterpret_an_array() {
    let _serial = serial();
    // Array ids restart at 0 in every run.
    let stale = machine(2).run(|ctx| ctx.register::<u64>("wide", 8, Layout::Block)).outputs[0];
    type Misuse = fn(&mut qsm_core::Ctx, &qsm_core::SharedArray<u64>);
    let uses: [(&str, Misuse); 4] = [
        ("local", |ctx, arr| drop(ctx.local(arr).to_vec())),
        ("local_mut", |ctx, arr| ctx.local_mut(arr).fill(0)),
        ("put", |ctx, arr| ctx.put(arr, 0, &[1])),
        ("get", |ctx, arr| drop(ctx.get(arr, 0, 1))),
    ];
    for (what, misuse) in uses {
        let message = failure(|| {
            machine(2).run(|ctx| {
                let _narrow = ctx.register::<u32>("narrow", 8, Layout::Block);
                ctx.sync();
                misuse(ctx, &stale);
                ctx.sync();
            });
        });
        assert_eq!(
            message,
            "handle of 8-byte elements used on array 'narrow', which stores 4-byte elements \
             (a handle from another run?)",
            "{what}"
        );
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

#[test]
fn violations_keep_their_exact_messages() {
    let _serial = serial();
    let conflict = failure(|| {
        machine(4).run(|ctx| {
            let arr = ctx.register::<u64>("ledger", 8, Layout::Block);
            ctx.sync();
            match ctx.proc_id() {
                0 => ctx.put(&arr, 5, &[1]),
                3 => drop(ctx.get(&arr, 4, 2)),
                _ => {}
            }
            ctx.sync();
        });
    });
    assert_eq!(
        conflict,
        "bulk-synchrony violation: location 5 of array 'ledger' is both read and written \
         in the same phase (the QSM phase contract forbids this; split the accesses across \
         a sync())"
    );

    let early_return = failure(|| {
        machine(4).run(|ctx| {
            if ctx.proc_id() != 2 {
                ctx.sync();
            }
        });
    });
    assert_eq!(early_return, "collective violation: 1 processor(s) returned while 3 called sync()");

    let mismatch = failure(|| {
        machine(4).run(|ctx| {
            let len = if ctx.proc_id() == 3 { 16 } else { 8 };
            let _ = ctx.register::<u64>("a", len, Layout::Block);
            ctx.sync();
        });
    });
    assert_eq!(
        mismatch,
        "collective violation: processor 3 registered different arrays than processor 0 \
         in the same phase"
    );

    // The pool survives all three: the next run is an ordinary one.
    assert_eq!(exchange(&machine(4), 2, true), exchange(&machine(4), 2, true));
}
