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

use qsm::membank::{platform, run_all, simulate_all, NativeBank, Pattern};

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
    let native = run_all(&NativeBank { threads, banks: 8 }, 500_000);
    let by = |p: Pattern| native.iter().find(|r| r.0 == p).unwrap().1.avg_ns;
    println!(
        "{:<28} {:>12.1} {:>12.1} {:>12.1} {:>17.2}x",
        "host",
        by(Pattern::NoConflict),
        by(Pattern::Random),
        by(Pattern::Conflict),
        by(Pattern::Conflict) / by(Pattern::NoConflict)
    );
    println!("\n(the QSM contract: accept Random's modest cost to never hit Conflict)");
}
