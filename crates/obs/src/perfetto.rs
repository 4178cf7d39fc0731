//! Export of an [`ObsData`] capture to Chrome trace-event JSON.
//!
//! The output loads in <https://ui.perfetto.dev> (or
//! `chrome://tracing`) and lays the run out as three processes:
//!
//! * **machine** (pid 0) — one row of phase compute/comm spans and one
//!   row of exchange-round spans, plus the counter tracks (κ per
//!   phase, queue depth per destination).
//! * **processors** (pid 1) — one named track per simulated
//!   processor carrying its compute / comm-busy / barrier-wait spans.
//! * **wire** (pid 2) — per-message flight spans from the simnet
//!   trace, one row per source processor, barrier legs included.
//!
//! Timestamps and durations are microseconds at the capture's
//! `clock_hz`. Every span additionally carries its duration in raw
//! simulated cycles under `args.cycles`, printed with Rust's
//! round-trip `f64` formatting — summing those back from the JSON
//! reproduces the recorded cycle counts bit-exactly (the property the
//! `measured_comm` acceptance test relies on).

use crate::recorder::ObsData;
use crate::span::SpanKind;

const PID_MACHINE: u32 = 0;
const PID_PROCS: u32 = 1;
const PID_WIRE: u32 = 2;

/// Append one complete-event ("X") span line.
#[allow(clippy::too_many_arguments)]
fn push_span(
    out: &mut Vec<String>,
    name: &str,
    ts_us: f64,
    dur_us: f64,
    pid: u32,
    tid: u32,
    phase: u64,
    cycles: f64,
) {
    out.push(format!(
        r#"{{"name":"{name}","ph":"X","ts":{ts_us},"dur":{dur_us},"pid":{pid},"tid":{tid},"args":{{"phase":{phase},"cycles":{cycles}}}}}"#,
        dur_us = dur_us.max(0.0),
    ));
}

fn push_meta(out: &mut Vec<String>, what: &str, pid: u32, tid: u32, name: &str) {
    out.push(format!(
        r#"{{"name":"{what}","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":"{name}"}}}}"#
    ));
}

impl ObsData {
    /// Render the capture as a Chrome trace-event JSON array.
    pub fn to_perfetto_json(&self) -> String {
        let us = |c: qsm_simnet::Cycles| c.to_micros(self.clock_hz);
        let mut out = Vec::new();

        push_meta(&mut out, "process_name", PID_MACHINE, 0, "machine");
        push_meta(&mut out, "process_name", PID_PROCS, 0, "processors");
        push_meta(&mut out, "process_name", PID_WIRE, 0, "wire");
        push_meta(&mut out, "thread_name", PID_MACHINE, 0, "phases");
        push_meta(&mut out, "thread_name", PID_MACHINE, 1, "exchange rounds");
        push_meta(&mut out, "thread_name", PID_MACHINE, 2, "retry rounds");
        push_meta(&mut out, "thread_name", PID_MACHINE, 3, "bank service");
        for p in 0..self.nprocs {
            push_meta(&mut out, "thread_name", PID_PROCS, p as u32, &format!("proc {p}"));
            push_meta(&mut out, "thread_name", PID_WIRE, p as u32, &format!("from proc {p}"));
        }

        for s in &self.spans {
            let (pid, tid, name) = match s.kind {
                SpanKind::PhaseCompute | SpanKind::PhaseComm => {
                    (PID_MACHINE, 0, format!("phase {} {}", s.phase, s.kind.label()))
                }
                SpanKind::ExchangeRound => {
                    (PID_MACHINE, 1, format!("phase {} round {}", s.phase, s.lane))
                }
                SpanKind::RetryRound => {
                    (PID_MACHINE, 2, format!("phase {} retry wave {}", s.phase, s.lane))
                }
                SpanKind::BankService => (PID_MACHINE, 3, format!("phase {} bank wait", s.phase)),
                SpanKind::Compute
                | SpanKind::CommBusy
                | SpanKind::BarrierWait
                | SpanKind::ServeGets
                | SpanKind::OwnerKappa
                | SpanKind::ApplyPuts
                | SpanKind::LeaderPlan
                | SpanKind::LeaderPrice => {
                    (PID_PROCS, s.lane, format!("{} p{}", s.kind.label(), s.phase))
                }
            };
            push_span(&mut out, &name, us(s.start), us(s.dur), pid, tid, s.phase, s.dur.get());
        }

        for w in &self.wire {
            let e = &w.ev;
            let name = format!("{:?} {}->{} ({}B)", e.kind, e.src, e.dst, e.bytes);
            push_span(
                &mut out,
                &name,
                us(e.depart),
                us(e.visible) - us(e.depart),
                PID_WIRE,
                e.src as u32,
                w.phase,
                (e.visible - e.depart).get(),
            );
        }

        for c in &self.counters {
            // Counter tracks are keyed by (pid, name); fold the lane
            // into the name so per-destination tracks stay separate.
            let name =
                if c.lane == 0 { c.name.to_string() } else { format!("{}/{}", c.name, c.lane) };
            out.push(format!(
                r#"{{"name":"{name}","ph":"C","ts":{ts},"pid":{PID_MACHINE},"tid":0,"args":{{"value":{v}}}}}"#,
                ts = us(c.ts),
                v = c.value,
            ));
        }

        format!("[{}]", out.join(",\n"))
    }

    /// Render the capture's metrics registry as JSON (same format as
    /// [`crate::MetricsRegistry::to_json`]).
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{ObsLevel, Recorder};
    use qsm_simnet::message::MsgKind;
    use qsm_simnet::trace::TraceEvent;
    use qsm_simnet::Cycles;

    fn sample_capture() -> ObsData {
        let r = Recorder::new(ObsLevel::Full, 400e6);
        r.set_nprocs(2);
        r.span(SpanKind::PhaseCompute, 0, 0, Cycles::ZERO, Cycles::new(800.0));
        r.span(SpanKind::PhaseComm, 0, 0, Cycles::new(800.0), Cycles::new(1234.5));
        r.span(SpanKind::Compute, 0, 1, Cycles::ZERO, Cycles::new(790.0));
        r.span(SpanKind::BarrierWait, 0, 1, Cycles::new(1600.0), Cycles::new(400.0));
        r.span(SpanKind::ExchangeRound, 0, 1, Cycles::new(900.0), Cycles::new(300.0));
        r.counter("kappa", 0, Cycles::new(2000.0), 2.0);
        r.counter("queue_depth", 1, Cycles::new(900.0), 3.0);
        r.wire(
            0,
            [TraceEvent {
                depart: Cycles::new(800.0),
                arrive: Cycles::new(1000.0),
                visible: Cycles::new(1100.0),
                src: 1,
                dst: 0,
                bytes: 64,
                kind: MsgKind::Barrier,
            }],
        );
        r.take().unwrap()
    }

    #[test]
    fn json_is_well_formed_and_has_all_tracks() {
        let j = sample_capture().to_perfetto_json();
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        // One named track per processor on the processors process.
        assert!(j.contains(r#""args":{"name":"proc 0"}"#));
        assert!(j.contains(r#""args":{"name":"proc 1"}"#));
        // Machine, processor, wire, and counter events all present.
        assert!(j.contains("phase 0 comm"));
        assert!(j.contains("barrier p0"));
        assert!(j.contains("Barrier 1->0 (64B)"));
        assert!(j.contains(r#""name":"kappa","ph":"C""#));
        assert!(j.contains(r#""name":"queue_depth/1","ph":"C""#));
    }

    #[test]
    fn span_cycles_roundtrip_exactly() {
        let j = sample_capture().to_perfetto_json();
        // The phase-comm span carries its duration in raw cycles;
        // Rust's f64 formatting round-trips, so parsing it back gives
        // the exact recorded value.
        let line = j.lines().find(|l| l.contains("phase 0 comm")).unwrap();
        let cyc = line.split("\"cycles\":").nth(1).unwrap();
        let cyc: f64 = cyc[..cyc.find('}').unwrap()].parse().unwrap();
        assert_eq!(cyc, 1234.5);
    }

    #[test]
    fn negative_durations_are_clamped() {
        let r = Recorder::new(ObsLevel::Full, 400e6);
        r.wire(
            0,
            [TraceEvent {
                // visible == depart: zero-width, not negative.
                depart: Cycles::new(100.0),
                arrive: Cycles::new(100.0),
                visible: Cycles::new(100.0),
                src: 0,
                dst: 1,
                bytes: 8,
                kind: MsgKind::Other,
            }],
        );
        let j = r.take().unwrap().to_perfetto_json();
        assert!(j.contains("\"dur\":0"));
    }
}
