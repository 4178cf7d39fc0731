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
//! Unusable knob values — an unwritable or uncreatable path — are
//! rejected up front with a one-time warning naming the offending
//! value (the `parse_usize_knob` discipline), rather than silently
//! losing the capture at finalize time.
//!
//! The recorder is installed into the process-global slot read by
//! every [`qsm_core::Machine`] backend ([`qsm_core::obs::install`]
//! is first-call-wins), so no plumbing through figure code is
//! needed. Timestamps are in the `QSM_BACKEND`-selected backend's
//! time unit (simulated cycles or host nanoseconds).

use std::path::PathBuf;

use qsm_core::obs::{self, ObsData, ObsLevel, Recorder};

/// Where captured data goes when the run finishes.
#[derive(Debug)]
pub struct ObsSink {
    rec: Recorder,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
}

/// Read a path-valued knob without probing it (the journal resolves
/// the parent directory before the [`checked_path`] probe).
pub(crate) fn env_path(name: &str) -> Option<PathBuf> {
    std::env::var_os(name).filter(|v| !v.is_empty()).map(PathBuf::from)
}

/// Read a path-valued knob and probe it for writability (open for
/// appending, creating if absent). An unusable value — say a
/// directory that does not exist — warns once with the offending
/// value and disables that capture (`None`), instead of failing
/// silently at finalize time after the measurement was already spent.
/// (Once: a sweep must not repeat the warning per point, but silent
/// capture loss is worse than noise.)
pub(crate) fn checked_path(name: &'static str, what: &str) -> Option<PathBuf> {
    let path = env_path(name)?;
    match std::fs::OpenOptions::new().create(true).append(true).open(&path) {
        Ok(_) => Some(path),
        Err(e) => {
            crate::knob::warn_once(
                name,
                format_args!(
                    "ignoring unusable {name}={:?} (cannot open for writing: {e}); \
                     {what} capture disabled",
                    path.display()
                ),
            );
            None
        }
    }
}

impl ObsSink {
    /// Read `QSM_TRACE` / `QSM_METRICS` and install a recorder of the
    /// matching level (or none). Call once, at binary start.
    pub fn from_env() -> Self {
        Self::with_level(None)
    }

    /// Like [`ObsSink::from_env`] but the recorder is at least
    /// `floor`, even when no output path is requested. Used by
    /// `explain`, whose phase table needs Full-level spans regardless
    /// of whether a trace file was asked for.
    pub fn with_level(floor: Option<ObsLevel>) -> Self {
        let trace = checked_path("QSM_TRACE", "trace");
        let metrics = checked_path("QSM_METRICS", "metrics");
        let level = if trace.is_some() || floor == Some(ObsLevel::Full) {
            Some(ObsLevel::Full)
        } else if metrics.is_some() || floor.is_some() {
            Some(ObsLevel::Metrics)
        } else {
            None
        };
        let rec = match level {
            Some(level) => {
                // Timestamps carry the backend's time unit: simulated
                // cycles at the model clock, or host nanoseconds.
                let rec = Recorder::new(level, crate::backend::Backend::from_env().clock_hz());
                obs::install(rec.clone());
                // If another recorder won the install race (tests), emit
                // into the live one so finalize sees the real capture.
                obs::recorder()
            }
            None => Recorder::disabled(),
        };
        Self { rec, trace, metrics }
    }

    /// The recorder runs will emit into (disabled when inactive).
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Drop everything captured so far. Used to discard calibration
    /// runs ([`qsm_core::EffectiveCosts`] measurement executes real
    /// simulated programs) before the run of interest.
    pub fn discard(&self) {
        let _ = self.rec.take();
    }

    /// Drain the recorder and write the requested artifacts.
    pub fn finalize(self) {
        let Some(data) = self.rec.take() else { return };
        self.write(&data);
    }

    /// Write the requested artifacts from an already-drained capture
    /// (for callers that needed the [`ObsData`] themselves).
    pub fn write(&self, data: &ObsData) {
        if let Some(path) = &self.trace {
            emit(path, &data.to_perfetto_json(), "trace");
        }
        if let Some(path) = &self.metrics {
            emit(path, &data.metrics_json(), "metrics");
        }
    }
}

fn emit(path: &PathBuf, payload: &str, what: &str) {
    match std::fs::write(path, payload) {
        Ok(()) => eprintln!("[obs] {what} written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {what} to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Environment mutation is racy across in-process tests and the
    // global recorder slot is first-call-wins, so the env-driven
    // install paths are covered by the integration tests and the CI
    // smoke run; here we only pin the inactive default.
    #[test]
    fn no_env_means_disabled() {
        // Neither knob is set under `cargo test`.
        if std::env::var_os("QSM_TRACE").is_none() && std::env::var_os("QSM_METRICS").is_none() {
            let sink = ObsSink::from_env();
            assert!(!sink.recorder().is_enabled());
            sink.finalize(); // no-op, must not panic
        }
    }

    // These use dedicated env var names no other test touches, so
    // the env-mutation race above does not apply.
    #[test]
    fn unusable_path_knob_is_rejected_loudly_but_once() {
        std::env::set_var("QSM_TEST_BAD_SINK", "/nonexistent-dir/out.json");
        assert!(checked_path("QSM_TEST_BAD_SINK", "test").is_none());
        // Still rejected on re-read; the warning itself is deduped
        // via the once-per-knob registry.
        assert!(checked_path("QSM_TEST_BAD_SINK", "test").is_none());
        std::env::remove_var("QSM_TEST_BAD_SINK");
    }

    #[test]
    fn writable_path_knob_passes_the_probe() {
        let path = std::env::temp_dir().join(format!("qsm-obs-probe-{}.json", std::process::id()));
        std::env::set_var("QSM_TEST_GOOD_SINK", &path);
        assert_eq!(checked_path("QSM_TEST_GOOD_SINK", "test"), Some(path.clone()));
        std::env::remove_var("QSM_TEST_GOOD_SINK");
        let _ = std::fs::remove_file(&path);
    }
}
