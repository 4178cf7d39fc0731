//! Probe memory-bank contention: the Section 4 microbenchmark on the
//! simulated platforms and on this host.
//!
//! ```text
//! cargo run --release --example membank_probe
//! ```
//!
//! Shows why QSM can afford to ignore bank layout: a randomized
//! layout (Random) loses only modestly to a hand-placed ideal
//! (NoConflict), while an unmanaged hot spot (Conflict) collapses.
//!
//! The host rows are wall clock: worker threads hammer cache-line-padded
//! atomic counters standing in for banks. They move from run to run,
//! and on a host with few cores the three patterns can tie or swap.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use qsm::membank::{platform, simulate_all, Pattern};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One cache-line-padded bank.
#[repr(align(128))]
struct Bank(AtomicU64);

/// Average host ns per access when `threads` workers each perform
/// `accesses` atomic increments on the banks `pattern` picks.
fn host_ns_per_access(pattern: Pattern, threads: usize, banks: usize, accesses: usize) -> f64 {
    // Targets are drawn before the clock starts, so RNG cost stays out.
    let targets: Vec<Vec<usize>> = (0..threads)
        .map(|t| {
            let mut rng = SmallRng::seed_from_u64(0xBEEF ^ t as u64);
            (0..accesses).map(|_| pattern.target_bank(t, banks, &mut rng)).collect()
        })
        .collect();
    let cells: Vec<Bank> = (0..banks).map(|_| Bank(AtomicU64::new(0))).collect();
    let total_ns: f64 = std::thread::scope(|s| {
        let workers: Vec<_> = targets
            .iter()
            .map(|mine| {
                let cells = &cells;
                s.spawn(move || {
                    let start = Instant::now();
                    let mut sink = 0u64;
                    for &b in mine {
                        sink = sink.wrapping_add(cells[b].0.fetch_add(1, Ordering::Relaxed));
                    }
                    std::hint::black_box(sink);
                    start.elapsed().as_nanos() as f64
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("probe thread panicked")).sum()
    });
    total_ns / (threads * accesses) as f64
}

fn main() {
    println!("simulated platforms (closed-loop bank queues, avg ns/access):\n");
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>18}",
        "platform", "NoConflict", "Random", "Conflict", "Conflict/NoConf"
    );
    for m in platform::figure7_machines() {
        let results = simulate_all(&m, 20_000, 0x1998);
        let by = |p: Pattern| results.iter().find(|r| r.0 == p).unwrap().1.avg_ns;
        println!(
            "{:<28} {:>12.0} {:>12.0} {:>12.0} {:>17.2}x",
            m.name,
            by(Pattern::NoConflict),
            by(Pattern::Random),
            by(Pattern::Conflict),
            by(Pattern::Conflict) / by(Pattern::NoConflict)
        );
    }

    let threads = std::thread::available_parallelism().map(|c| c.get().min(8)).unwrap_or(4);
    println!("\nthis host ({threads} threads, padded atomic banks, avg ns/access):\n");
    let by = |p: Pattern| host_ns_per_access(p, threads, 8, 500_000);
    let (noc, rand, conf) = (by(Pattern::NoConflict), by(Pattern::Random), by(Pattern::Conflict));
    println!("{:<28} {noc:>12.1} {rand:>12.1} {conf:>12.1} {:>17.2}x", "host", conf / noc);
    println!("\n(the QSM contract: accept Random's modest cost to never hit Conflict)");
}
