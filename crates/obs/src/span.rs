//! Typed span events and counter samples on the simulated timeline.

use qsm_simnet::Cycles;

/// What a [`Span`] measures. Machine-track kinds aggregate over the
/// whole machine; lane-track kinds carry a per-processor (or
/// per-round) `lane` index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Machine track: the phase's compute part (slowest processor),
    /// `dur` equal to `PhaseTiming.compute`.
    PhaseCompute,
    /// Machine track: the phase's communication part, `dur` equal to
    /// `PhaseTiming.comm` — by construction the per-phase comm spans
    /// of a run sum exactly to `CostReport.measured_comm`.
    PhaseComm,
    /// Processor lane: local compute of processor `lane`.
    Compute,
    /// Processor lane: processor `lane` busy inside `sync()` before
    /// entering the barrier (plan, marshal, exchange, serve).
    CommBusy,
    /// Processor lane: processor `lane` waiting between barrier entry
    /// and its release.
    BarrierWait,
    /// Exchange track: latin-square (or direct-sweep) round `lane` of
    /// the data exchange, from first injection ready to last delivery
    /// visible.
    ExchangeRound,
    /// Exchange track: retry wave `lane` of the phase's delivery
    /// protocol — resends of data messages lost to fault injection,
    /// from the earliest resend ready to the last delivery visible.
    RetryRound,
    /// Machine track: aggregate destination-bank queuing of the
    /// phase, `dur` equal to the summed bank waits of its deliveries
    /// (emitted only when a bank model is enabled).
    BankService,
    /// Processor lane: SPMD worker `lane` serving its own gets from
    /// the peers' frozen stores (between the phase's two barriers).
    ServeGets,
    /// Processor lane: SPMD worker `lane` sweeping the runs bound for
    /// its own block for κ and read/write conflicts (after serving its
    /// gets, before B2).
    OwnerKappa,
    /// Processor lane: SPMD worker `lane` applying the puts that land
    /// in its own block and retiring registrations (after B2).
    ApplyPuts,
    /// Processor lane: the SPMD leader running the driver's plan
    /// stage over the published slots — registrations checked, the
    /// workers' traffic rows merged (between B1 and B2; lane 0).
    LeaderPlan,
    /// Processor lane: the SPMD leader pricing and recording the
    /// phase after B2, overlapping the peers' next compute (lane 0).
    LeaderPrice,
}

impl SpanKind {
    /// Display name used by exports.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::PhaseCompute => "compute",
            SpanKind::PhaseComm => "comm",
            SpanKind::Compute => "compute",
            SpanKind::CommBusy => "comm",
            SpanKind::BarrierWait => "barrier",
            SpanKind::ExchangeRound => "round",
            SpanKind::RetryRound => "retry",
            SpanKind::BankService => "bank",
            SpanKind::ServeGets => "serve",
            SpanKind::OwnerKappa => "kappa",
            SpanKind::ApplyPuts => "apply",
            SpanKind::LeaderPlan => "plan",
            SpanKind::LeaderPrice => "price",
        }
    }
}

/// One recorded span. `start`/`dur` are simulated [`Cycles`]; `dur`
/// is stored explicitly (not as an end point) so that quantities
/// derived from phase timing survive export bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span type (selects the export track).
    pub kind: SpanKind,
    /// Bulk-synchronous phase index the span belongs to.
    pub phase: u64,
    /// Processor id or exchange-round index, depending on `kind`.
    pub lane: u32,
    /// Span start on the simulated clock.
    pub start: Cycles,
    /// Span duration.
    pub dur: Cycles,
}

/// One sample of a named counter track (e.g. κ per phase, queue depth
/// per destination), keyed on the simulated clock.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Counter track name.
    pub name: &'static str,
    /// Sub-track (e.g. destination processor); tracks are exported
    /// per `(name, lane)` pair.
    pub lane: u32,
    /// Sample time on the simulated clock.
    pub ts: Cycles,
    /// Sampled value.
    pub value: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(SpanKind::PhaseComm.label(), "comm");
        assert_eq!(SpanKind::BarrierWait.label(), "barrier");
        assert_eq!(SpanKind::ExchangeRound.label(), "round");
    }

    #[test]
    fn span_carries_duration_not_endpoint() {
        let s = Span {
            kind: SpanKind::PhaseComm,
            phase: 3,
            lane: 0,
            start: Cycles::new(100.0),
            dur: Cycles::new(41.5),
        };
        assert_eq!(s.dur.get(), 41.5);
    }
}
