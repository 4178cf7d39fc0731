//! The FIFO service timeline — the one queueing primitive every
//! stage of the delivery pipeline is built on.
//!
//! Each of the network's contention points (a node's send engine, its
//! receive engine, a directed fabric link, a memory bank) is the same
//! abstract resource: a single FIFO server with a *free-at* time. A
//! request that becomes ready at `r` against a server free at `f`
//! starts service at `max(r, f)` and holds the server for its busy
//! time. [`FifoTimeline`] is that resource, vectorized over a dense
//! set of servers, extracted from the per-stage `Vec<Cycles>` fields
//! the pipeline historically carried inline.
//!
//! The extraction is a pure re-expression: [`FifoTimeline::serve`]
//! performs exactly `start = ready.max(free); free = start + busy` —
//! the same float operations in the same order as the original
//! inlined arithmetic — so the batch pipeline built on it is
//! byte-identical to the pre-refactor simulator. What the primitive
//! *adds* is what an open-loop caller (the `qsm-serve` transaction
//! engine) needs and the phase-synchronous driver never did:
//!
//! * cumulative per-server **busy accounting**
//!   ([`FifoTimeline::busy_total`]), the numerator of a utilization
//!   measurement over any elapsed window;
//! * a **backlog** probe ([`FifoTimeline::backlog`]) — how far a
//!   server's committed work extends past a given now — which is the
//!   queue-depth signal admission control throttles on.

use crate::time::Cycles;

/// When one FIFO server finished serving one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceSlot {
    /// When service began (`max(ready, free)`): the request waited
    /// `start - ready` behind earlier traffic.
    pub start: Cycles,
    /// When service completed; the server is free again from here.
    pub done: Cycles,
}

/// A dense set of FIFO servers, each with a free-at time and a
/// cumulative busy total. See the module docs.
#[derive(Debug, Clone)]
pub struct FifoTimeline {
    free: Vec<Cycles>,
    busy: Vec<Cycles>,
}

impl FifoTimeline {
    /// `servers` FIFO servers, all idle at time zero.
    pub fn new(servers: usize) -> Self {
        Self { free: vec![Cycles::ZERO; servers], busy: vec![Cycles::ZERO; servers] }
    }

    /// Number of servers.
    pub(crate) fn len(&self) -> usize {
        self.free.len()
    }

    /// Return every server to idle-at-zero and zero the busy totals.
    pub fn reset(&mut self) {
        self.free.fill(Cycles::ZERO);
        self.busy.fill(Cycles::ZERO);
    }

    /// When server `s` is next free.
    #[inline]
    pub fn free_at(&self, s: usize) -> Cycles {
        self.free[s]
    }

    /// Serve one request on server `s`: service starts at
    /// `max(ready, free)`, holds the server for `busy`, and the
    /// server's busy total grows by `busy`.
    #[inline]
    pub fn serve(&mut self, s: usize, ready: Cycles, busy: Cycles) -> ServiceSlot {
        let start = ready.max(self.free[s]);
        let done = start + busy;
        self.free[s] = done;
        self.busy[s] += busy;
        ServiceSlot { start, done }
    }

    /// Cycles server `s` has spent serving since the last reset — the
    /// numerator of its utilization over any elapsed window.
    #[inline]
    pub fn busy_total(&self, s: usize) -> Cycles {
        self.busy[s]
    }

    /// How far server `s`'s committed work extends past `now` (zero
    /// when it is already idle) — the queue-depth signal admission
    /// control reads.
    #[inline]
    pub fn backlog(&self, s: usize, now: Cycles) -> Cycles {
        if self.free[s] > now {
            self.free[s] - now
        } else {
            Cycles::ZERO
        }
    }
}

#[cfg(test)]
impl FifoTimeline {
    /// Push server `s`'s free time forward to at least `t` without
    /// accruing busy time (the node-is-computing constraint).
    pub(crate) fn advance(&mut self, s: usize, t: Cycles) {
        self.free[s] = self.free[s].max(t);
    }

    /// Latest free time across all servers (zero with no servers).
    pub(crate) fn quiesce(&self) -> Cycles {
        self.free.iter().copied().fold(Cycles::ZERO, Cycles::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_is_the_fifo_recurrence() {
        let mut t = FifoTimeline::new(2);
        // Idle server: starts at ready.
        let a = t.serve(0, Cycles::new(10.0), Cycles::new(5.0));
        assert_eq!(a, ServiceSlot { start: Cycles::new(10.0), done: Cycles::new(15.0) });
        // Busy server: queues behind the previous request.
        let b = t.serve(0, Cycles::new(12.0), Cycles::new(5.0));
        assert_eq!(b.start, Cycles::new(15.0));
        assert_eq!(b.done, Cycles::new(20.0));
        // Other servers are independent.
        let c = t.serve(1, Cycles::new(12.0), Cycles::new(1.0));
        assert_eq!(c.start, Cycles::new(12.0));
        assert_eq!(t.quiesce(), Cycles::new(20.0));
    }

    #[test]
    fn busy_accrues_service_not_idle_gaps() {
        let mut t = FifoTimeline::new(1);
        t.serve(0, Cycles::new(0.0), Cycles::new(3.0));
        t.serve(0, Cycles::new(100.0), Cycles::new(7.0));
        assert_eq!(t.busy_total(0), Cycles::new(10.0));
        // advance() models blocked time, not service.
        t.advance(0, Cycles::new(500.0));
        assert_eq!(t.busy_total(0), Cycles::new(10.0));
        assert_eq!(t.free_at(0), Cycles::new(500.0));
    }

    #[test]
    fn advance_never_moves_backwards() {
        let mut t = FifoTimeline::new(1);
        t.advance(0, Cycles::new(50.0));
        t.advance(0, Cycles::new(20.0));
        assert_eq!(t.free_at(0), Cycles::new(50.0));
    }

    #[test]
    fn backlog_measures_committed_work_past_now() {
        let mut t = FifoTimeline::new(1);
        t.serve(0, Cycles::ZERO, Cycles::new(100.0));
        assert_eq!(t.backlog(0, Cycles::new(30.0)), Cycles::new(70.0));
        assert_eq!(t.backlog(0, Cycles::new(100.0)), Cycles::ZERO);
        assert_eq!(t.backlog(0, Cycles::new(500.0)), Cycles::ZERO);
    }

    #[test]
    fn reset_clears_time_and_busy() {
        let mut t = FifoTimeline::new(2);
        t.serve(1, Cycles::new(5.0), Cycles::new(5.0));
        t.reset();
        assert_eq!(t.free_at(1), Cycles::ZERO);
        assert_eq!(t.busy_total(1), Cycles::ZERO);
        assert_eq!(t.quiesce(), Cycles::ZERO);
    }

    #[test]
    fn empty_timeline_is_a_configured_off_stage() {
        let t = FifoTimeline::new(0);
        assert_eq!(t.len(), 0);
        assert_eq!(t.quiesce(), Cycles::ZERO);
    }
}
