//! What one `sync()` costs the host, by kind of phase and backend:
//! wall time, context switches the scheduler forced, and user / system
//! CPU — each per phase, over a warm run of a few thousand phases.
//!
//! ```text
//! cargo run --release --example phase_cost          # p = 16
//! cargo run --release --example phase_cost -- 64    # any p ≥ 2
//! ```
//!
//! Three phases: an empty one (two barrier crossings, the leader's
//! plan / price / record), one get of a word per processor, and the
//! repo benchmark's `bsp_exchange` phase (64 `u32` to every peer and
//! one block read back). A processor is a fiber of one of
//! `min(p, cores)` carrier threads, so past `p = cores` the "invol"
//! column reads 0: a processor that waits for a carrier-mate switches
//! stacks and never enters the kernel. (With a thread per processor it
//! read 45–86 a sim exchange phase at p = 16 on two cores.) Run it
//! under `taskset -c 0` to see what a second core buys. Linux only:
//! elsewhere the counters print as `-`.

use std::time::Instant;

use qsm::core::{pool, Ctx, Layout, Machine, SimMachine, ThreadMachine};
use qsm::simnet::MachineConfig;

const BLOCK: usize = 64;

/// `(involuntary, voluntary)` context switches of every thread of this
/// process so far. (A thread that exited takes its counts with it:
/// measure warm, when the pool spawns nothing.)
fn switches() -> Option<(u64, u64)> {
    let field = |status: &str, name: &str| -> Option<u64> {
        status.lines().find_map(|l| l.strip_prefix(name))?.trim().parse().ok()
    };
    let mut sum = (0, 0);
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let status = std::fs::read_to_string(task.ok()?.path().join("status")).ok()?;
        sum.0 += field(&status, "nonvoluntary_ctxt_switches:")?;
        sum.1 += field(&status, "voluntary_ctxt_switches:")?;
    }
    Some(sum)
}

/// `(user, system)` CPU microseconds of this process so far: fields 14
/// and 15 of `/proc/self/stat`, in ticks of 10 ms.
fn cpu_us() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2 (the command, in parentheses) may hold spaces: count
    // from the state field that follows it, field 3.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(14 - 3);
    let mut ticks = || fields.next()?.parse::<u64>().ok();
    Some((ticks()? * 10_000, ticks()? * 10_000))
}

#[derive(Clone, Copy)]
enum Kind {
    Empty,
    OneGet,
    Exchange,
}

/// `phases` phases of `kind` after the registering one; a checksum so
/// that nothing is optimised away.
fn program(ctx: &mut Ctx, kind: Kind, phases: usize) -> u64 {
    let (p, me) = (ctx.nprocs(), ctx.proc_id());
    let src = ctx.register::<u32>("src", BLOCK * p, Layout::Block);
    let dst = ctx.register::<u32>("dst", BLOCK * p * p, Layout::Block);
    ctx.sync();
    let mine = [me as u32; BLOCK];
    ctx.local_write(&src, me * BLOCK, &mine);
    let mut sum = 0u64;
    for phase in 0..phases {
        let from = (me + 1 + phase % (p - 1)) % p;
        let ticket = match kind {
            Kind::Empty => None,
            Kind::OneGet => Some(ctx.get(&src, from * BLOCK, 1)),
            Kind::Exchange => {
                for peer in (0..p).filter(|&peer| peer != me) {
                    ctx.put(&dst, (peer * p + me) * BLOCK, &mine);
                }
                Some(ctx.get(&src, from * BLOCK, BLOCK))
            }
        };
        ctx.sync();
        sum += ticket.map_or(0, |t| ctx.take(t).iter().map(|&v| u64::from(v)).sum());
    }
    sum
}

fn measure<M: Machine>(backend: &str, m: &M, name: &str, kind: Kind, phases: usize) {
    // Warm: the carriers exist, their stacks are mapped, buffers grown.
    m.run(|ctx| program(ctx, kind, 64));
    let before = (switches(), cpu_us());
    let start = Instant::now();
    let run = m.run(|ctx| program(ctx, kind, phases));
    let us = start.elapsed().as_secs_f64() * 1e6;
    let after = (switches(), cpu_us());
    assert_eq!(run.num_phases(), phases + 1);
    let per_phase = |after: Option<(u64, u64)>, before: Option<(u64, u64)>| match (after, before) {
        (Some(a), Some(b)) => {
            let per = |a: u64, b: u64| format!("{:.2}", (a - b) as f64 / phases as f64);
            (per(a.0, b.0), per(a.1, b.1))
        }
        _ => ("-".into(), "-".into()),
    };
    let (invol, vol) = per_phase(after.0, before.0);
    let (user, system) = per_phase(after.1, before.1);
    println!(
        "{backend:<8} {name:<9} {:>9.1} {invol:>8} {vol:>8} {user:>9} {system:>9}",
        us / phases as f64
    );
}

fn main() {
    let p: usize = match std::env::args().nth(1).map(|a| a.parse()) {
        None => 16,
        Some(Ok(p)) if p >= 2 => p,
        Some(_) => {
            eprintln!("usage: phase_cost [p]   (p ≥ 2, default 16)");
            std::process::exit(2);
        }
    };
    let sim = SimMachine::new(MachineConfig::paper_default(p));
    let threads = ThreadMachine::new(p);
    println!("p = {p} on {} host core(s); every column is per phase\n", pool::host_cores());
    println!(
        "{:<8} {:<9} {:>9} {:>8} {:>8} {:>9} {:>9}",
        "backend", "phase", "µs", "invol", "vol", "user µs", "sys µs"
    );
    // Some 0.2–0.5 s a row at p = 16; fewer phases as p² grows.
    let scale = (16 * 16) as f64 / (p * p).max(16 * 16) as f64;
    let phases = |at_16: usize| ((at_16 as f64 * scale) as usize).max(50);
    for (name, kind, at_16) in [
        ("empty", Kind::Empty, 8000),
        ("one get", Kind::OneGet, 6000),
        ("exchange", Kind::Exchange, 3000),
    ] {
        measure("sim", &sim, name, kind, phases(at_16));
        measure("threads", &threads, name, kind, phases(4 * at_16));
    }
}
