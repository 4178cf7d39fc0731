//! The recorder handle runtimes emit into.
//!
//! A [`Recorder`] is a cheap clonable handle: disabled it is a `None`
//! and every record method is an inlined early return, so leaving the
//! instrumentation compiled in costs nothing on the hot path. Enabled,
//! all state sits behind a single `Mutex` that each record call locks
//! exactly once (batch variants exist for per-message streams).
//!
//! Two levels exist: [`ObsLevel::Metrics`] keeps only the commutative
//! metrics registry (byte-stable across `QSM_JOBS` interleavings);
//! [`ObsLevel::Full`] additionally captures spans, wire events, and
//! counter samples for Perfetto export — those are ordered data, so a
//! full capture of a *single* run is deterministic but interleaving
//! several concurrent runs into one recorder is only supported at
//! `Metrics` level.

use std::sync::{Arc, Mutex};

use crate::metrics::{Histogram, MetricsRegistry};
use crate::span::{CounterSample, Span, SpanKind};
use qsm_simnet::trace::TraceEvent;
use qsm_simnet::Cycles;

/// How much a [`Recorder`] captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsLevel {
    /// Counters and histograms only — commutative, safe to share
    /// across parallel sweep workers.
    Metrics,
    /// Metrics plus spans, wire events, and counter samples for trace
    /// export. Intended for a single instrumented run.
    Full,
}

/// A per-message network event tagged with the phase it occurred in.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEvent {
    /// Bulk-synchronous phase index.
    pub phase: u64,
    /// The underlying simnet trace event.
    pub ev: TraceEvent,
}

#[derive(Debug, Default)]
struct State {
    nprocs: usize,
    spans: Vec<Span>,
    wire: Vec<WireEvent>,
    counters: Vec<CounterSample>,
    metrics: MetricsRegistry,
}

#[derive(Debug)]
struct Inner {
    level: ObsLevel,
    clock_hz: f64,
    state: Mutex<State>,
}

/// Everything a recorder captured, drained via [`Recorder::take`].
#[derive(Debug)]
pub struct ObsData {
    /// Clock rate used to convert [`Cycles`] to wall units on export.
    pub clock_hz: f64,
    /// Number of simulated processors (for per-processor tracks).
    pub nprocs: usize,
    /// Captured spans, in emission order.
    pub spans: Vec<Span>,
    /// Captured per-message wire events, in emission order.
    pub wire: Vec<WireEvent>,
    /// Captured counter samples, in emission order.
    pub counters: Vec<CounterSample>,
    /// The metrics registry.
    pub metrics: MetricsRegistry,
}

/// Handle for emitting observability data. Clone freely; all clones
/// share one capture. `Recorder::disabled()` (also `Default`) records
/// nothing at zero cost.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A recorder that drops everything.
    #[inline]
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// An enabled recorder at the given level. `clock_hz` scales
    /// simulated cycles to microseconds in trace export.
    pub fn new(level: ObsLevel, clock_hz: f64) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner { level, clock_hz, state: Mutex::new(State::default()) })),
        }
    }

    /// True unless this is a disabled recorder.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True if spans/wire/counter-samples are being captured.
    #[inline]
    pub fn is_full(&self) -> bool {
        matches!(self.inner.as_deref(), Some(i) if i.level == ObsLevel::Full)
    }

    /// Record the simulated processor count (drives per-processor
    /// tracks in the export; the maximum across calls wins).
    pub fn set_nprocs(&self, p: usize) {
        if let Some(inner) = self.inner.as_deref() {
            let mut st = inner.state.lock().unwrap();
            st.nprocs = st.nprocs.max(p);
        }
    }

    /// Record a span (Full level only).
    #[inline]
    pub fn span(&self, kind: SpanKind, phase: u64, lane: u32, start: Cycles, dur: Cycles) {
        let Some(inner) = self.inner.as_deref() else { return };
        if inner.level != ObsLevel::Full {
            return;
        }
        inner.state.lock().unwrap().spans.push(Span { kind, phase, lane, start, dur });
    }

    /// Record a batch of spans under one lock (Full level only).
    pub fn spans<I: IntoIterator<Item = Span>>(&self, spans: I) {
        let Some(inner) = self.inner.as_deref() else { return };
        if inner.level != ObsLevel::Full {
            return;
        }
        inner.state.lock().unwrap().spans.extend(spans);
    }

    /// Record a counter-track sample (Full level only).
    #[inline]
    pub fn counter(&self, name: &'static str, lane: u32, ts: Cycles, value: f64) {
        let Some(inner) = self.inner.as_deref() else { return };
        if inner.level != ObsLevel::Full {
            return;
        }
        inner.state.lock().unwrap().counters.push(CounterSample { name, lane, ts, value });
    }

    /// Record a batch of network trace events for one phase under one
    /// lock (Full level only).
    pub fn wire<I: IntoIterator<Item = TraceEvent>>(&self, phase: u64, events: I) {
        let Some(inner) = self.inner.as_deref() else { return };
        if inner.level != ObsLevel::Full {
            return;
        }
        let mut st = inner.state.lock().unwrap();
        st.wire.extend(events.into_iter().map(|ev| WireEvent { phase, ev }));
    }

    /// Add `delta` to the named metrics counter.
    #[inline]
    pub fn add(&self, name: &'static str, delta: u64) {
        let Some(inner) = self.inner.as_deref() else { return };
        inner.state.lock().unwrap().metrics.add(name, delta);
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&self, name: &'static str, v: u64) {
        let Some(inner) = self.inner.as_deref() else { return };
        inner.state.lock().unwrap().metrics.observe(name, v);
    }

    /// Record a batch of histogram observations under one lock.
    pub fn observe_iter<I: IntoIterator<Item = u64>>(&self, name: &'static str, values: I) {
        let Some(inner) = self.inner.as_deref() else { return };
        let mut st = inner.state.lock().unwrap();
        for v in values {
            st.metrics.observe(name, v);
        }
    }

    /// Fold a locally accumulated histogram into the named one under
    /// one lock — what a hot loop does instead of locking per
    /// observation. Same registry state as observing each value.
    pub fn merge_histogram(&self, name: &'static str, h: &Histogram) {
        let Some(inner) = self.inner.as_deref() else { return };
        inner.state.lock().unwrap().metrics.merge_histogram(name, h);
    }

    /// Drain everything captured so far, leaving the recorder enabled
    /// and empty. `None` if the recorder is disabled.
    pub fn take(&self) -> Option<ObsData> {
        let inner = self.inner.as_deref()?;
        let mut st = inner.state.lock().unwrap();
        let st = std::mem::take(&mut *st);
        Some(ObsData {
            clock_hz: inner.clock_hz,
            nprocs: st.nprocs,
            spans: st.spans,
            wire: st.wire,
            counters: st.counters,
            metrics: st.metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsm_simnet::message::MsgKind;

    #[test]
    fn disabled_recorder_drops_everything() {
        let r = Recorder::disabled();
        r.add("n", 1);
        r.observe("h", 5);
        r.span(SpanKind::Compute, 0, 0, Cycles::ZERO, Cycles::new(1.0));
        assert!(!r.is_enabled());
        assert!(r.take().is_none());
    }

    #[test]
    fn metrics_level_ignores_spans_but_keeps_metrics() {
        let r = Recorder::new(ObsLevel::Metrics, 400e6);
        r.span(SpanKind::Compute, 0, 0, Cycles::ZERO, Cycles::new(1.0));
        r.counter("kappa", 0, Cycles::ZERO, 2.0);
        r.add("phases", 3);
        r.observe_iter("sizes", [1, 2, 3]);
        assert!(r.is_enabled() && !r.is_full());
        let data = r.take().unwrap();
        assert!(data.spans.is_empty());
        assert!(data.counters.is_empty());
        let mut want = MetricsRegistry::default();
        want.add("phases", 3);
        (1..=3).for_each(|v| want.observe("sizes", v));
        assert_eq!(data.metrics, want);
    }

    #[test]
    fn full_level_captures_spans_wire_and_counters() {
        let r = Recorder::new(ObsLevel::Full, 400e6);
        r.set_nprocs(4);
        r.span(SpanKind::PhaseComm, 1, 0, Cycles::new(10.0), Cycles::new(5.0));
        r.counter("kappa", 0, Cycles::new(15.0), 2.0);
        r.wire(
            1,
            [TraceEvent {
                depart: Cycles::new(10.0),
                arrive: Cycles::new(12.0),
                visible: Cycles::new(13.0),
                src: 0,
                dst: 1,
                bytes: 8,
                kind: MsgKind::Barrier,
            }],
        );
        let data = r.take().unwrap();
        assert_eq!(data.nprocs, 4);
        assert_eq!(data.spans.len(), 1);
        assert_eq!(data.wire.len(), 1);
        assert_eq!(data.wire[0].phase, 1);
        assert_eq!(data.counters.len(), 1);
        // take() drains: a second take sees an empty capture.
        let again = r.take().unwrap();
        assert!(again.spans.is_empty() && again.wire.is_empty());
    }

    #[test]
    fn merging_a_histogram_equals_observing_its_values() {
        let values = [0u64, 1, 7, 7, 4096, u64::MAX];
        let each = Recorder::new(ObsLevel::Metrics, 400e6);
        let mut local = Histogram::default();
        for v in values {
            each.observe("lat", v);
            local.observe(v);
        }
        let once = Recorder::new(ObsLevel::Metrics, 400e6);
        once.merge_histogram("lat", &local);
        // Nothing observed, nothing created.
        once.merge_histogram("never", &Histogram::default());
        assert_eq!(once.take().map(|d| d.metrics), each.take().map(|d| d.metrics));
        Recorder::disabled().merge_histogram("lat", &local);
    }

    #[test]
    fn clones_share_one_capture() {
        let r = Recorder::new(ObsLevel::Metrics, 400e6);
        let r2 = r.clone();
        r.add("n", 1);
        r2.add("n", 2);
        assert_eq!(r.take().unwrap().metrics.counter("n"), 3);
    }
}
