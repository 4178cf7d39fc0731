//! Env-gated observability activation for the bench binaries.
//!
//! Every binary calls [`ObsSink::from_env`] before running and
//! [`ObsSink::finalize`] after; with neither `QSM_TRACE` nor
//! `QSM_METRICS` set the sink installs nothing and both calls are
//! no-ops, so the default runs stay byte-identical to an
//! uninstrumented build.
//!
//! * `QSM_TRACE=path.json` — install a [`ObsLevel::Full`] recorder
//!   and write a Perfetto trace (load it at <https://ui.perfetto.dev>)
//!   to `path.json` on finalize. Intended for a single run — sweeps
//!   at `QSM_JOBS>1` interleave spans from concurrent points.
//! * `QSM_METRICS=path.json` — install a recorder (at least
//!   [`ObsLevel::Metrics`]) and write the metrics-registry dump to
//!   `path.json` on finalize. Metrics are commutative, so the dump is
//!   byte-identical for every `QSM_JOBS` value.
//!
//! An unusable path is rejected with a warning when the knobs are
//! parsed ([`mod@crate::knobs`]), not discovered at finalize time.
//!
//! The recorder is installed into the process-global slot read by
//! every [`qsm_core::Machine`] backend ([`qsm_core::obs::install`]
//! is first-call-wins), so no plumbing through figure code is
//! needed. Timestamps are in the `QSM_BACKEND`-selected backend's
//! time unit (simulated cycles or host nanoseconds).

use std::path::Path;

use qsm_core::obs::{self, ObsData, ObsLevel, Recorder};

/// The recorder a binary's runs emit into, written out when it ends.
#[derive(Debug)]
pub struct ObsSink {
    rec: Recorder,
}

impl ObsSink {
    /// Read `QSM_TRACE` / `QSM_METRICS` and install a recorder of the
    /// matching level (or none). Call once, at binary start.
    pub fn from_env() -> Self {
        let knobs = crate::knobs();
        if knobs.trace.is_some() {
            Self::install(ObsLevel::Full)
        } else if knobs.metrics.is_some() {
            Self::install(ObsLevel::Metrics)
        } else {
            Self { rec: Recorder::disabled() }
        }
    }

    /// A Full-level recorder, whatever `QSM_TRACE` / `QSM_METRICS`
    /// say; they still decide what is written. Used by `explain`, whose
    /// phase table needs the Full-level spans.
    pub fn full() -> Self {
        Self::install(ObsLevel::Full)
    }

    fn install(level: ObsLevel) -> Self {
        // Timestamps carry the backend's time unit: simulated cycles
        // at the model clock, or host nanoseconds.
        obs::install(Recorder::new(level, crate::knobs().result.backend.clock_hz()));
        // If another recorder won the install race (tests), emit into
        // the live one so finalize sees the real capture.
        Self { rec: obs::recorder() }
    }

    /// The recorder runs will emit into (disabled when inactive).
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Drain the recorder and write the requested artifacts.
    pub fn finalize(self) {
        let Some(data) = self.rec.take() else { return };
        self.write(&data);
    }

    /// Write the requested artifacts from an already-drained capture
    /// (for callers that needed the [`ObsData`] themselves).
    pub fn write(&self, data: &ObsData) {
        if let Some(path) = &crate::knobs().trace {
            emit(path, &data.to_perfetto_json(), "trace");
        }
        if let Some(path) = &crate::knobs().metrics {
            emit(path, &data.metrics_json(), "metrics");
        }
    }
}

fn emit(path: &Path, payload: &str, what: &str) {
    match std::fs::write(path, payload) {
        Ok(()) => eprintln!("[obs] {what} written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {what} to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::tests::parse;

    // The global recorder slot is first-call-wins, so the install paths
    // are covered by the integration tests and the CI smoke run; here
    // we only pin the inactive default.
    #[test]
    fn no_env_means_disabled() {
        // Neither knob is set under `cargo test`.
        if crate::knobs().trace.is_none() && crate::knobs().metrics.is_none() {
            let sink = ObsSink::from_env();
            assert!(!sink.recorder().is_enabled());
            sink.finalize(); // no-op, must not panic
        }
    }

    #[test]
    fn unusable_path_knob_is_rejected_loudly_but_once() {
        let knobs = parse(&[("QSM_TRACE", "/dev/null/out.json")]);
        assert_eq!(knobs.trace, None);
    }

    #[test]
    fn writable_path_knob_passes_the_probe() {
        let path = std::env::temp_dir().join(format!("qsm-obs-probe-{}.json", std::process::id()));
        let knobs = parse(&[("QSM_METRICS", path.to_str().unwrap())]);
        assert_eq!(knobs.metrics, Some(path.clone()));
        let _ = std::fs::remove_file(&path);
    }
}
