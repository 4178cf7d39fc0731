//! Closed-loop bank-queue simulation.
//!
//! Every processor issues memory accesses back to back, as fast as
//! the machine allows (the microbenchmark "accesses global memory as
//! quickly as it can"): pay the per-access overhead, transit to the
//! target bank, queue for its FIFO service, transit back, repeat.
//! The reported metric is the average wall time per access at steady
//! state, exactly what Figure 7 plots.
//!
//! [`SimBank`] is the [`BankBackend`] half of this: the shared
//! microbenchmark loop in [`crate::microbench`] draws the per-access
//! bank targets, and this backend prices them through the
//! `qsm-simnet` destination-bank stage — the same FIFO queues the
//! full-machine simulator uses — as an adapter rather than a private
//! queue loop. Each bank is a one-bank simnet node (`procs + b` for
//! bank `b`); an access is a zero-byte message whose send overhead is
//! the issue cost, whose latency is the transit, and whose
//! [`qsm_simnet::Delivery::bank_wait`] is the access's queuing time.
//! The round-by-round transmit preserves the closed-loop issue
//! discipline, and the arithmetic maps term for term onto the old
//! loop: a one-bank node has `bank_free ≥ recv_free` at all times,
//! so service starts at `max(arrive, bank_free)` in both — Figure
//! 7's per-access times (`avg_ns` and every ratio) are bit-identical
//! to the deleted private loop. The `avg_queue_ns` *diagnostic*
//! differs by up to ~1.6% on Random: wait spent behind the node's
//! in-order message ingestion is now attributed to the NIC rather
//! than the bank (`bank_wait` starts at `max(arrive, recv_free)`,
//! the old loop's `queue` started at `arrive`). [`simulate`] /
//! [`simulate_all`] keep the original direct entry points.

use qsm_simnet::{BankModel, Cycles, Delivery, Injection, MsgKind, NetConfig, Network};

use crate::microbench::{run_pattern, BankBackend, Sample};
use crate::pattern::Pattern;
use crate::platform::BankMachine;

/// Outcome of simulating one (machine, pattern) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternResult {
    /// The pattern simulated.
    pub pattern: Pattern,
    /// Average nanoseconds per access across all processors.
    pub avg_ns: f64,
    /// Average time an access spent waiting in a bank queue.
    pub avg_queue_ns: f64,
}

/// The queue simulator as a [`BankBackend`]: a platform profile plus
/// the seed its per-processor target RNGs derive from.
#[derive(Debug, Clone, Copy)]
pub struct SimBank<'a> {
    /// The platform profile being simulated.
    pub machine: &'a BankMachine,
    /// Seed shared by the per-processor target RNGs.
    pub seed: u64,
}

impl BankBackend for SimBank<'_> {
    fn procs(&self) -> usize {
        self.machine.procs
    }

    fn banks(&self) -> usize {
        self.machine.banks
    }

    fn rng_seed(&self, proc: usize) -> u64 {
        self.seed ^ (proc as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn execute(&self, targets: &[Vec<usize>]) -> Sample {
        let m = self.machine;
        let p = m.procs;
        let accesses = targets.first().map_or(0, Vec::len);
        assert!(accesses >= 10, "too few accesses for a meaningful average");
        let warmup = accesses / 10;

        // One simnet node per processor plus one single-bank node per
        // memory bank. An access is a zero-byte message: its send
        // overhead is the per-access issue cost, the wire latency the
        // one-way transit, and the bank stage's fixed service time the
        // bank occupancy. Receive ingestion is free (zero overhead,
        // zero gap), so a message reaches its bank FIFO exactly at
        // `issue + overhead + transit` — the old loop's arrival term.
        let cfg = NetConfig {
            gap_per_byte: 0.0,
            send_overhead: m.overhead_ns,
            recv_overhead: 0.0,
            latency: m.transit_ns,
            topology: qsm_simnet::TopologyKind::Flat,
            link_gap_per_byte: None,
            faults: None,
            banks: Some(BankModel::per_message(1, m.bank_service_ns)),
        };
        let mut net = Network::new(p + m.banks, cfg);
        let transit = Cycles::new(m.transit_ns);

        let mut proc_time = vec![Cycles::ZERO; p];
        let mut msgs: Vec<Injection> = Vec::with_capacity(p);
        let mut deliveries: Vec<Delivery> = Vec::new();
        let mut order: Vec<(Cycles, usize)> = Vec::with_capacity(p);
        let mut measured_time = 0.0f64;
        let mut measured_queue = 0.0f64;
        let mut measured_count = 0u64;

        // Round-robin issue order approximates concurrent progress
        // while staying deterministic: every processor's `k`-th access
        // is transmitted (and fully served) before any `k+1`-th one,
        // as in the original closed loop. `k` walks every processor's
        // target row in lockstep, so an iterator over one row won't do.
        #[allow(clippy::needless_range_loop)]
        for k in 0..accesses {
            msgs.clear();
            for (i, t) in proc_time.iter().enumerate() {
                let bank = targets[i][k];
                msgs.push(Injection::new(i, p + bank, 0, *t, MsgKind::Other).with_bank(0));
            }
            net.transmit_into(&msgs, &mut deliveries);
            // Account in the same (arrival, processor) order the old
            // loop served accesses in, so the f64 accumulators round
            // identically.
            order.clear();
            order.extend(deliveries.iter().enumerate().map(|(i, d)| (d.arrive, i)));
            order.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
            for &(_, i) in order.iter() {
                let complete = deliveries[i].visible + transit;
                if k >= warmup {
                    measured_time += (complete - proc_time[i]).get();
                    measured_queue += deliveries[i].bank_wait.get();
                    measured_count += 1;
                }
                proc_time[i] = complete;
            }
        }

        Sample {
            avg_ns: measured_time / measured_count as f64,
            avg_queue_ns: Some(measured_queue / measured_count as f64),
        }
    }
}

/// Simulate `accesses` accesses per processor under `pattern`.
///
/// The simulation is deterministic for a given seed. A short warmup
/// (10% of the accesses) is excluded from the averages so queues
/// reach steady state first.
pub fn simulate(
    machine: &BankMachine,
    pattern: Pattern,
    accesses: usize,
    seed: u64,
) -> PatternResult {
    let s = run_pattern(&SimBank { machine, seed }, pattern, accesses);
    PatternResult {
        pattern,
        avg_ns: s.avg_ns,
        avg_queue_ns: s.avg_queue_ns.expect("simulator always observes queueing"),
    }
}

/// Simulate all three patterns on one machine (Figure 7, one panel).
pub fn simulate_all(machine: &BankMachine, accesses: usize, seed: u64) -> Vec<PatternResult> {
    Pattern::all().iter().map(|&p| simulate(machine, p, accesses, seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform as machine;

    const N: usize = 4000;

    #[test]
    fn noconflict_matches_uncontended_time() {
        let m = machine::smp_native();
        let r = simulate(&m, Pattern::NoConflict, N, 1);
        assert!(
            (r.avg_ns - m.uncontended_ns()).abs() < 1.0,
            "avg {} vs {}",
            r.avg_ns,
            m.uncontended_ns()
        );
        assert_eq!(r.avg_queue_ns, 0.0);
    }

    #[test]
    fn conflict_serializes_on_one_bank() {
        let m = machine::smp_native();
        let r = simulate(&m, Pattern::Conflict, N, 1);
        // Steady state: one access per bank_service per processor,
        // so ~procs x service per access (unless overhead dominates).
        let bound = (m.procs as f64) * m.bank_service_ns;
        assert!(r.avg_ns > 0.9 * bound.max(m.uncontended_ns()), "avg {}", r.avg_ns);
        assert!(r.avg_queue_ns > 0.0);
    }

    #[test]
    fn pattern_ordering_matches_figure7() {
        // NoConflict <= Random <= Conflict on every platform.
        for m in machine::figure7_machines() {
            let rs = simulate_all(&m, N, 7);
            let by = |p: Pattern| rs.iter().find(|r| r.pattern == p).unwrap().avg_ns;
            let (rand, conf, noc) =
                (by(Pattern::Random), by(Pattern::Conflict), by(Pattern::NoConflict));
            assert!(noc <= rand * 1.001, "{}: NoConflict {noc} > Random {rand}", m.name);
            assert!(rand <= conf * 1.001, "{}: Random {rand} > Conflict {conf}", m.name);
        }
    }

    #[test]
    fn random_is_tolerably_close_to_ideal() {
        // The paper: NoConflict beats Random by 0%..68%.
        for m in machine::figure7_machines() {
            let rs = simulate_all(&m, N, 3);
            let by = |p: Pattern| rs.iter().find(|r| r.pattern == p).unwrap().avg_ns;
            let slowdown = by(Pattern::Random) / by(Pattern::NoConflict);
            assert!((1.0..=1.9).contains(&slowdown), "{}: Random/NoConflict = {slowdown}", m.name);
        }
    }

    #[test]
    fn conflict_hurts_by_factor_two_to_several() {
        // The paper: Conflict is generally 2-4x worse than ideal on
        // hardware-limited paths; software-dominated paths compress
        // the ratio (overhead hides bank queuing).
        let m = machine::smp_native();
        let rs = simulate_all(&m, N, 5);
        let by = |p: Pattern| rs.iter().find(|r| r.pattern == p).unwrap().avg_ns;
        let ratio = by(Pattern::Conflict) / by(Pattern::NoConflict);
        assert!((2.0..=6.0).contains(&ratio), "Conflict/NoConflict = {ratio}");
    }

    #[test]
    fn conflict_matches_closed_queue_theory() {
        // Conflict is a closed queueing system: p customers cycling
        // through one server (the bank) with think time
        // overhead + 2·transit. In the server-saturated regime the
        // cycle time per customer approaches p · service.
        let m = machine::smp_native();
        let think = m.overhead_ns + 2.0 * m.transit_ns;
        let saturated = m.procs as f64 * m.bank_service_ns > think + m.bank_service_ns;
        assert!(saturated, "profile should saturate the bank for this check");
        let r = simulate(&m, Pattern::Conflict, N, 2);
        let theory = m.procs as f64 * m.bank_service_ns;
        let err = (r.avg_ns - theory).abs() / theory;
        assert!(err < 0.05, "measured {} vs closed-queue theory {theory}", r.avg_ns);
    }

    #[test]
    fn random_queue_time_matches_mdone_approximation() {
        // Random traffic at utilization ρ = service / uncontended is
        // approximately M/D/1 per bank: Wq ≈ ρ·S / (2(1−ρ)). This is
        // only an approximation (arrivals are quasi-synchronous), so
        // allow a wide band — the point is the simulator's queueing
        // is physically sensible, not off by orders of magnitude.
        let m = machine::smp_native();
        let rho = m.bank_service_ns / m.uncontended_ns();
        let wq_theory = rho * m.bank_service_ns / (2.0 * (1.0 - rho));
        let r = simulate(&m, Pattern::Random, 20_000, 3);
        assert!(
            r.avg_queue_ns > 0.2 * wq_theory && r.avg_queue_ns < 5.0 * wq_theory,
            "queue {} vs M/D/1 approx {wq_theory}",
            r.avg_queue_ns
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let m = machine::now_bsplib();
        assert_eq!(simulate(&m, Pattern::Random, 500, 9), simulate(&m, Pattern::Random, 500, 9));
    }

    #[test]
    #[should_panic]
    fn tiny_run_rejected() {
        let _ = simulate(&machine::smp_native(), Pattern::Random, 5, 0);
    }
}
