//! Optional event tracing for debugging simulations.

use crate::message::MsgKind;
use crate::time::Cycles;

/// One traced network event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// When the message departed the sender NIC.
    pub depart: Cycles,
    /// When it arrived at the receiver.
    pub arrive: Cycles,
    /// When the receiving node's software could see it.
    pub visible: Cycles,
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Wire bytes.
    pub bytes: u64,
    /// Payload classification.
    pub kind: MsgKind,
}

/// A bounded in-memory trace buffer: it keeps the first `cap` events
/// and counts the rest as dropped — right when the trace is drained
/// every phase, as the simulated machine's recorder does.
#[derive(Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl Trace {
    /// Create a trace keeping at most `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        Self { events: Vec::new(), cap, dropped: 0 }
    }

    /// Record an event, honoring the capacity bound.
    pub fn record(&mut self, ev: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Consume the trace, returning retained events in recording order.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Number of events that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64) -> TraceEvent {
        TraceEvent {
            depart: Cycles::new(t),
            arrive: Cycles::new(t + 1.0),
            visible: Cycles::new(t + 2.0),
            src: 0,
            dst: 1,
            bytes: 8,
            kind: MsgKind::Other,
        }
    }

    #[test]
    fn capacity_bound_enforced() {
        let mut tr = Trace::with_capacity(2);
        tr.record(ev(1.0));
        tr.record(ev(2.0));
        tr.record(ev(3.0));
        assert_eq!(tr.dropped(), 1);
        let departs: Vec<f64> = tr.into_events().iter().map(|e| e.depart.get()).collect();
        assert_eq!(departs, vec![1.0, 2.0]);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut tr = Trace::with_capacity(0);
        tr.record(ev(1.0));
        assert_eq!(tr.dropped(), 1);
        assert!(tr.into_events().is_empty());
    }
}
