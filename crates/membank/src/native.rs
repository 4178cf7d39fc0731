//! Native (real-hardware) variant of the microbenchmark.
//!
//! Runs the same three access patterns on the host machine: "banks"
//! are cache-line-padded atomic counters, every access is an atomic
//! read-modify-write (forcing a coherence transaction, the closest
//! portable analogue of a memory-bank visit), and each worker thread
//! hammers the banks as fast as it can. This contributes a real
//! measured data point next to the per-platform simulations.
//!
//! [`NativeBank`] is the [`BankBackend`] half: the shared loop in
//! [`crate::microbench`] pre-draws the per-thread target sequences
//! (keeping RNG cost out of the measured region, as before), and
//! this backend times the atomic accesses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::microbench::{BankBackend, Sample};

/// One cache-line-padded bank.
#[repr(align(128))]
struct Bank(AtomicU64);

/// The host machine as a [`BankBackend`]: `threads` workers hammering
/// `banks` padded atomics.
#[derive(Debug, Clone, Copy)]
pub struct NativeBank {
    /// Worker threads issuing accesses.
    pub threads: usize,
    /// Padded atomic counters standing in for banks.
    pub banks: usize,
}

impl BankBackend for NativeBank {
    fn procs(&self) -> usize {
        self.threads
    }

    fn banks(&self) -> usize {
        self.banks
    }

    fn rng_seed(&self, proc: usize) -> u64 {
        0xBEEF ^ proc as u64
    }

    fn execute(&self, targets: &[Vec<usize>]) -> Sample {
        let accesses = targets.first().map_or(0, Vec::len);
        assert!(self.threads >= 1 && self.banks >= 1 && accesses >= 1);
        let bank_cells: Vec<Bank> = (0..self.banks).map(|_| Bank(AtomicU64::new(0))).collect();
        let bank_cells = &bank_cells;

        let total_ns: f64 = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|t| {
                    let my_targets = &targets[t];
                    scope.spawn(move |_| {
                        let start = Instant::now();
                        let mut sink = 0u64;
                        for &b in my_targets {
                            sink =
                                sink.wrapping_add(bank_cells[b].0.fetch_add(1, Ordering::Relaxed));
                        }
                        std::hint::black_box(sink);
                        start.elapsed().as_nanos() as f64
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("bench thread panicked")).sum()
        })
        .expect("native membank scope panicked");

        Sample { avg_ns: total_ns / (self.threads * accesses) as f64, avg_queue_ns: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microbench::{run_all, run_pattern};
    use crate::pattern::Pattern;

    #[test]
    fn native_run_produces_positive_times() {
        let rs = run_all(&NativeBank { threads: 2, banks: 4 }, 20_000);
        assert_eq!(rs.len(), 3);
        for r in rs {
            assert!(r.1.avg_ns > 0.0, "{:?}", r);
            assert!(r.1.avg_ns < 1e7, "implausibly slow: {:?}", r);
        }
    }

    #[test]
    fn conflict_not_faster_than_noconflict_on_real_hardware() {
        // Coherence traffic on one line can only hurt — but only when
        // threads actually run in parallel. On a single-CPU host the
        // patterns are indistinguishable, so just require the runs to
        // complete with plausible timings there.
        let threads = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
        let bank = NativeBank { threads: 4, banks: 8 };
        let conflict = run_pattern(&bank, Pattern::Conflict, 200_000).avg_ns;
        let noconflict = run_pattern(&bank, Pattern::NoConflict, 200_000).avg_ns;
        if threads >= 4 {
            assert!(conflict > 0.7 * noconflict, "conflict {conflict} vs noconflict {noconflict}");
        } else {
            assert!(conflict > 0.0 && noconflict > 0.0);
        }
    }

    #[test]
    fn single_thread_patterns_roughly_equal() {
        // Without concurrency there is no contention to observe.
        let rs = run_all(&NativeBank { threads: 1, banks: 8 }, 200_000);
        let max = rs.iter().map(|r| r.1.avg_ns).fold(0.0, f64::max);
        let min = rs.iter().map(|r| r.1.avg_ns).fold(f64::INFINITY, f64::min);
        assert!(max / min < 4.0, "single-thread spread too wide: {rs:?}");
    }
}
