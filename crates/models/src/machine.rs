//! Machine parameter tables.
//!
//! Table 4 of the paper lists six architectures with their LogP-style
//! parameters converted to clock cycles. The rows are reproduced here
//! verbatim (values that the paper itself marks as estimates are
//! flagged with [`MachineSpec::estimated`]). The `qsm-bench`
//! `table4_nmin` binary combines these with the crossover slopes
//! measured in Figures 5 and 6 to regenerate the `n_min/p` column.

/// LogP-style description of one architecture row of Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Human-readable architecture name (as printed in the paper).
    pub name: &'static str,
    /// Processor count used in the paper's row.
    pub p: usize,
    /// Network latency in cycles.
    pub l: f64,
    /// Per-message overhead in cycles.
    pub o: f64,
    /// Gap in cycles per byte.
    pub g_per_byte: f64,
    /// True if some of this row's parameters were estimated rather
    /// than measured in the cited sources (shown parenthesized in the
    /// paper).
    pub estimated: bool,
    /// The paper's `n_min/p` entry as printed: an absolute number on
    /// the default-simulation row, `k*N` on the extrapolated rows,
    /// which carry the software-implementation factor `k`; empty for a
    /// machine the paper does not list.
    pub paper_nmin_per_p: &'static str,
}

/// The default simulated machine of Table 3/Table 4 row 1:
/// p=16, l=1600, o=400, g=3 cycles/byte, measured `n_min/p = 8000`.
pub fn default_simulation() -> MachineSpec {
    MachineSpec {
        name: "Default simulation parameters",
        p: 16,
        l: 1600.0,
        o: 400.0,
        g_per_byte: 3.0,
        estimated: false,
        paper_nmin_per_p: "8000",
    }
}

/// Berkeley NOW (Martin et al., paper ref 18).
pub fn berkeley_now() -> MachineSpec {
    MachineSpec {
        name: "Berkeley NOW",
        p: 32,
        l: 830.0,
        o: 481.0,
        g_per_byte: 4.3,
        estimated: false,
        paper_nmin_per_p: "k*4640",
    }
}

/// 300 MHz Pentium-II, TCP/IP over 100 Mb switched Ethernet.
pub fn pentium_ii_tcp() -> MachineSpec {
    MachineSpec {
        name: "300MHz Pentium-II TCP/IP, 100Mb Switched Ethernet",
        p: 32,
        l: 75_000.0,
        o: 150_000.0,
        g_per_byte: 24.0,
        estimated: true,
        paper_nmin_per_p: "k*325000",
    }
}

/// Cray T3E (Anderson et al., paper ref 2).
pub fn cray_t3e() -> MachineSpec {
    MachineSpec {
        name: "CRAY T3E",
        p: 64,
        l: 126.0,
        o: 50.0,
        g_per_byte: 1.6,
        estimated: true,
        paper_nmin_per_p: "k*1558",
    }
}

/// Intel Paragon (Culler et al., paper ref 8).
pub fn intel_paragon() -> MachineSpec {
    MachineSpec {
        name: "Intel Paragon",
        p: 64,
        l: 325.0,
        o: 90.0,
        g_per_byte: 0.35,
        estimated: true,
        paper_nmin_per_p: "k*15429",
    }
}

/// Meiko CS-2 (Culler et al., paper ref 8).
pub fn meiko_cs2() -> MachineSpec {
    MachineSpec {
        name: "Meiko CS-2",
        p: 32,
        l: 497.0,
        o: 112.0,
        g_per_byte: 1.4,
        estimated: true,
        paper_nmin_per_p: "k*5325",
    }
}

/// All Table 4 rows in paper order.
pub fn table4_machines() -> Vec<MachineSpec> {
    vec![
        default_simulation(),
        berkeley_now(),
        pentium_ii_tcp(),
        cray_t3e(),
        intel_paragon(),
        meiko_cs2(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_six_rows_in_paper_order() {
        let t = table4_machines();
        assert_eq!(t.len(), 6);
        assert_eq!(t[0].name, "Default simulation parameters");
        assert_eq!(t[3].name, "CRAY T3E");
    }

    #[test]
    fn default_row_matches_table3() {
        let m = default_simulation();
        assert_eq!(m.p, 16);
        assert_eq!(m.l, 1600.0);
        assert_eq!(m.o, 400.0);
        assert_eq!(m.g_per_byte, 3.0);
        assert_eq!(m.paper_nmin_per_p, "8000");
    }

    #[test]
    fn only_measured_rows_lack_estimate_flag() {
        let t = table4_machines();
        let measured: Vec<_> = t.iter().filter(|m| !m.estimated).map(|m| m.name).collect();
        assert_eq!(measured, vec!["Default simulation parameters", "Berkeley NOW"]);
    }

    #[test]
    fn k_coefficients_cover_extrapolated_rows() {
        for m in &table4_machines()[1..] {
            let k = m.paper_nmin_per_p.strip_prefix("k*").expect(m.name);
            assert!(k.parse::<f64>().unwrap() > 0.0, "{} coefficient must be positive", m.name);
        }
    }
}
