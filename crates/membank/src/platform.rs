//! Memory-system profiles for the four Section 4 platforms.
//!
//! Each [`BankMachine`] reduces a platform to the quantities the
//! bank-contention phenomenon depends on: how many processors issue
//! accesses, how many banks serve them, how long a bank is busy per
//! access, and the fixed per-access overhead and transit time of the
//! access path (hardware bus for the native SMP, a user-level
//! library for BSPlib, TCP over Ethernet for the NOW, the torus +
//! `shmem` for the T3E). The absolute numbers are order-of-magnitude
//! calibrations from the platforms' era documentation — DESIGN.md §2
//! records this substitution; what Figure 7 tests is the *relative*
//! behaviour of the three patterns, which depends on the queue
//! structure rather than the exact constants.

/// A platform reduced to its memory/interconnect queue parameters
/// (all times in nanoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct BankMachine {
    /// Display name (as in the paper's Figure 7 panels).
    pub name: &'static str,
    /// Processors issuing accesses.
    pub procs: usize,
    /// Independent memory banks.
    pub banks: usize,
    /// Time a bank is occupied serving one word access.
    pub bank_service_ns: f64,
    /// Fixed per-access cost on the issuing processor (instruction
    /// overhead, library call, protocol stack).
    pub overhead_ns: f64,
    /// One-way transit to the memory system (and the same back).
    pub transit_ns: f64,
}

/// SMP-NATIVE: 8-processor, 8-bank Sun UltraEnterprise (166 MHz),
/// hardware cache-coherent shared memory; sequential 64-byte blocks
/// interleave across banks.
pub fn smp_native() -> BankMachine {
    BankMachine {
        name: "SMP-NATIVE",
        procs: 8,
        banks: 8,
        bank_service_ns: 180.0,
        overhead_ns: 60.0,
        transit_ns: 120.0,
    }
}

/// SMP-BSPlib (level-2 optimized library) on the same hardware:
/// the access path runs through BSPlib's "high-performance" shared
/// memory functions over SYSV shared memory. The per-target work the
/// library serializes on the shared segment (bounds check + copy in
/// the coherence domain of the target line) rides on the bank, so
/// the effective bank service time is higher than native.
pub fn smp_bsplib_l2() -> BankMachine {
    BankMachine {
        name: "SMP-BSPlib (level 2)",
        procs: 8,
        banks: 8,
        bank_service_ns: 420.0,
        overhead_ns: 1200.0,
        transit_ns: 120.0,
    }
}

/// SMP-BSPlib with the less-optimized "level-1" library.
pub fn smp_bsplib_l1() -> BankMachine {
    BankMachine {
        name: "SMP-BSPlib (level 1)",
        procs: 8,
        banks: 8,
        bank_service_ns: 420.0,
        overhead_ns: 3600.0,
        transit_ns: 120.0,
    }
}

/// NOW-BSPlib: sixteen 166 MHz UltraSPARCs on 10 Mbit/s Ethernet,
/// BSPlib over TCP. A word access is a TCP round trip; the remote
/// node's protocol processing is the "bank".
pub fn now_bsplib() -> BankMachine {
    BankMachine {
        name: "NOW-BSPlib",
        procs: 16,
        banks: 16,
        bank_service_ns: 220_000.0,
        overhead_ns: 350_000.0,
        transit_ns: 450_000.0,
    }
}

/// Cray T3E: 32 nodes of a 68-node machine, DEC EV5 processors,
/// 3-D torus, `shmem` one-sided access.
pub fn cray_t3e() -> BankMachine {
    BankMachine {
        name: "Cray T3E",
        procs: 32,
        banks: 32,
        bank_service_ns: 250.0,
        overhead_ns: 350.0,
        transit_ns: 550.0,
    }
}

/// The four platforms in the paper's Figure 7 order (with both
/// BSPlib optimization levels for the SMP, as in the paper).
pub fn figure7_machines() -> Vec<BankMachine> {
    vec![smp_native(), smp_bsplib_l2(), smp_bsplib_l1(), now_bsplib(), cray_t3e()]
}

#[cfg(test)]
impl BankMachine {
    /// Uncontended round-trip time of one access: overhead + two
    /// transits + one bank service.
    pub(crate) fn uncontended_ns(&self) -> f64 {
        self.overhead_ns + 2.0 * self.transit_ns + self.bank_service_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_expected_shapes() {
        let machines = figure7_machines();
        assert_eq!(machines.len(), 5);
        for m in &machines {
            assert!(m.procs >= 1 && m.banks >= 1);
            assert!(m.bank_service_ns > 0.0);
            assert!(m.uncontended_ns() > m.bank_service_ns);
        }
    }

    #[test]
    fn software_layers_slow_the_same_hardware() {
        let native = smp_native();
        let l2 = smp_bsplib_l2();
        let l1 = smp_bsplib_l1();
        assert_eq!(native.banks, l2.banks);
        assert!(native.uncontended_ns() < l2.uncontended_ns());
        assert!(l2.uncontended_ns() < l1.uncontended_ns());
    }

    #[test]
    fn platform_speed_ordering() {
        // Native SMP fastest, T3E close, NOW orders of magnitude slower.
        let smp = smp_native().uncontended_ns();
        let t3e = cray_t3e().uncontended_ns();
        let now = now_bsplib().uncontended_ns();
        assert!(smp < t3e);
        assert!(t3e * 100.0 < now);
    }
}
