//! Spans recorded from outside the program: one around every call
//! into a layer, kept in memory and written out when the run ends.
//!
//! [`Tracer::begin`] always starts a clock, because the untraced
//! end-to-end passes need the durations too; a span is *recorded*
//! only when tracing is on, and outside the interval it times. The
//! traced run compares the wall time of traced and untraced passes
//! and reports the difference as `bench.trace_overhead_pct`.

use std::time::Instant;

use crate::adapter::json_escape;

/// One recorded interval. `parent` indexes the span that was open
/// when this one began; spans of one pass share `pass`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// A span that has begun and not yet ended.
pub struct OpenSpan {
    index: Option<usize>,
    start: Instant,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self { enabled: false, epoch, spans: Vec::new(), open: Vec::new(), pass: 0 }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new pass: spans recorded from here on carry a fresh id.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Open a span named `name` as a child of the innermost open one.
    /// The clock always starts; a span is recorded only when tracing
    /// is on.
    pub fn begin(&mut self, name: &str) -> OpenSpan {
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                pass: self.pass,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        OpenSpan { index, start: Instant::now() }
    }

    /// Close `open`, which must be the innermost open span, and return
    /// how long it was open in seconds.
    pub fn end(&mut self, open: OpenSpan) -> f64 {
        let end = Instant::now();
        if let Some(index) = open.index {
            assert_eq!(self.open.pop(), Some(index), "spans must close innermost first");
            let span = &mut self.spans[index];
            span.start_ns = (open.start - self.epoch).as_nanos() as u64;
            span.end_ns = (end - self.epoch).as_nanos() as u64;
        }
        (end - open.start).as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every recorded span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 * 1e-9).collect()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (their union, so
/// overlapping children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self time per layer, in seconds, summed over all spans and sorted
/// by layer name.
pub fn layer_self_seconds(spans: &[Span]) -> Vec<(String, f64)> {
    let mut by_layer = std::collections::BTreeMap::<String, u64>::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.layer().to_string()).or_default() += own;
    }
    by_layer.into_iter().map(|(k, ns)| (k, ns as f64 * 1e-9)).collect()
}

/// The spans as a JSON array, one object per span, `self_ns` included.
pub fn spans_json(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::from("[");
    for (i, (s, own)) in spans.iter().zip(own).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"pass\": {}, \"self_ns\": {own}}}",
            json_escape(&s.name),
            s.start_ns,
            s.end_ns,
            s.pass
        ));
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns, end_ns, parent, pass: 1 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("pass.x", 0, 100, None),
            span("core.a", 10, 40, Some(0)),
            // Overlaps core.a on 30..40: the union covers 10..60.
            span("core.b", 30, 60, Some(0)),
            span("simnet.c", 35, 45, Some(2)),
            // A grandchild never counts against the root directly.
            span("bench.d", 80, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30, 30 - 10, 10, 10]);
    }

    #[test]
    fn a_child_reaching_past_its_parent_is_clipped() {
        let spans = vec![span("a.x", 10, 20, None), span("b.y", 15, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn layers_sum_self_time_by_name_prefix() {
        let spans = vec![
            span("pass.x", 0, 1_000_000_000, None),
            span("core.a", 0, 250_000_000, Some(0)),
            span("core.b", 500_000_000, 750_000_000, Some(0)),
        ];
        assert_eq!(
            layer_self_seconds(&spans),
            vec![("core".to_string(), 0.5), ("pass".to_string(), 0.5)]
        );
    }

    #[test]
    fn tracer_nests_spans_and_times_even_when_disabled() {
        let mut t = Tracer::new(Instant::now());
        let off = t.begin("off");
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(t.end(off) >= 0.002);
        assert!(t.spans().is_empty());

        t.set_enabled(true);
        t.next_pass();
        let pass = t.begin("pass.x");
        let a = t.begin("core.a");
        t.end(a);
        let b = t.begin("core.b");
        let c = t.begin("simnet.c");
        t.end(c);
        t.end(b);
        t.end(pass);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name.as_str(), s.parent)).collect();
        assert_eq!(
            names,
            vec![("pass.x", None), ("core.a", Some(0)), ("core.b", Some(0)), ("simnet.c", Some(2))]
        );
        assert!(t.spans().iter().all(|s| s.pass == 1 && s.end_ns >= s.start_ns));
        assert_eq!(t.durations("core.a").len(), 1);
    }
}
