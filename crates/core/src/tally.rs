//! Per-thread run tallies for harness-side telemetry.
//!
//! The bench sweep executor reports per-point fault telemetry
//! (delivery retries, dropped transmissions) in its run journal
//! without threading a side channel through every figure's closure:
//! the engine's `run` entry — which returns on the thread that called
//! `Machine::run` — folds each run's totals into these thread-locals,
//! and the harness takes [`snapshot`] deltas around each sweep point
//! it executes. Calibration runs (`crate::calibrate`) bypass it.

use std::cell::Cell;

thread_local! {
    static RETRIES: Cell<u64> = const { Cell::new(0) };
    static DROPS: Cell<u64> = const { Cell::new(0) };
}

/// `(retries, dropped_msgs)` accumulated by every run completed on
/// the calling thread so far. Monotone; diff two snapshots to scope
/// a measurement.
pub fn snapshot() -> (u64, u64) {
    (RETRIES.with(|c| c.get()), DROPS.with(|c| c.get()))
}

/// Fold one run's fault totals into the calling thread's tally.
pub(crate) fn note_run(retries: u64, drops: u64) {
    RETRIES.with(|c| c.set(c.get().wrapping_add(retries)));
    DROPS.with(|c| c.set(c.get().wrapping_add(drops)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_delta_across_noted_runs() {
        let (r0, d0) = snapshot();
        note_run(3, 1);
        note_run(2, 0);
        let (r1, d1) = snapshot();
        assert_eq!((r1 - r0, d1 - d0), (5, 1));
    }
}
