//! Process-global observability hookup.
//!
//! A [`Machine`](crate::Machine) is a small configuration value;
//! threading a recorder through every machine, figure sweep, and
//! algorithm signature would ripple through the whole workspace for
//! a facility that is off in production. Instead the recorder is
//! ambient: a harness (e.g. `qsm-bench` reading `QSM_TRACE` /
//! `QSM_METRICS`) calls [`install`] once at startup, and every run
//! in the process — simulated or native — emits into it through the
//! shared engine. When nothing is installed, [`recorder`] hands out
//! disabled recorders and every record call is an inlined early
//! return — the zero-overhead default.
//!
//! Calibration never contaminates the capture of the run under study:
//! the empty `sync()` behind BSP's `L` ([`crate::EffectiveCosts::l_sync`],
//! [`crate::Machine::make_report`]) is priced on a timer of its own
//! with a disabled recorder, and the microbenchmark
//! runs of [`crate::calibrate`] enter the engine with a disabled
//! recorder instead of the ambient one. Since [`crate::calibrate`]
//! remembers its results per process, anything else would make a
//! capture depend on which figure happened to calibrate first.

use std::sync::OnceLock;

pub use qsm_obs::{ObsData, ObsLevel, Recorder, Span, SpanKind};

static RECORDER: OnceLock<Recorder> = OnceLock::new();

/// Install the process-global recorder. The first call wins and
/// returns `true`; later calls return `false` and change nothing
/// (runs already in flight hold clones of the installed recorder, so
/// swapping mid-process would tear a capture in half).
pub fn install(rec: Recorder) -> bool {
    RECORDER.set(rec).is_ok()
}

/// A handle to the installed recorder, or a disabled recorder if
/// [`install`] was never called.
pub fn recorder() -> Recorder {
    RECORDER.get().cloned().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the registry is process-global and `cargo test` runs all
    // unit tests in one process, so this file keeps to a single test
    // exercising the install-once contract end to end.
    #[test]
    fn install_once_wins_and_uninstalled_is_disabled() {
        // Before install: ambient recorder is disabled.
        assert!(!recorder().is_enabled());
        let rec = Recorder::new(ObsLevel::Metrics, 400e6);
        assert!(install(rec.clone()));
        assert!(recorder().is_enabled());
        // Second install is refused.
        assert!(!install(Recorder::new(ObsLevel::Full, 400e6)));
        assert!(!recorder().is_full());
        // Ambient handles share the installed capture.
        recorder().add("seen", 1);
        assert_eq!(rec.take().unwrap().metrics.counter("seen"), 1);
    }
}
