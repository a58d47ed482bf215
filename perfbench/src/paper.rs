//! The paper's reference values for the paper_grid cells, each with its
//! source, and the fidelity gap computed against them.
//!
//! Source paper: "Virgo: Cluster-level Matrix Unit Integration in GPUs for
//! Scalability and Energy Efficiency", ASPLOS 2025 (arXiv 2408.12073).

/// One paper-reported MAC utilization.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// The paper_grid cell the value belongs to (`volta_256`, `fa_virgo`, ...).
    pub cell: &'static str,
    /// MAC unit utilization in percent.
    pub mac_util_pct: f64,
    /// Where in the paper the value is printed.
    pub source: &'static str,
}

const TABLE3: &str = "Table 3, MAC unit utilization of the GEMM kernel";
const FIG12: &str = "Figure 12 / Section 6.2, FlashAttention-3 MAC utilization";

/// Every reference value the benchmark compares against.
pub const REFERENCES: [Reference; 10] = [
    Reference {
        cell: "volta_256",
        mac_util_pct: 25.6,
        source: TABLE3,
    },
    Reference {
        cell: "volta_512",
        mac_util_pct: 30.3,
        source: TABLE3,
    },
    Reference {
        cell: "ampere_256",
        mac_util_pct: 37.5,
        source: TABLE3,
    },
    Reference {
        cell: "ampere_512",
        mac_util_pct: 45.6,
        source: TABLE3,
    },
    Reference {
        cell: "hopper_256",
        mac_util_pct: 60.5,
        source: TABLE3,
    },
    Reference {
        cell: "hopper_512",
        mac_util_pct: 72.8,
        source: TABLE3,
    },
    Reference {
        cell: "virgo_256",
        mac_util_pct: 66.1,
        source: TABLE3,
    },
    Reference {
        cell: "virgo_512",
        mac_util_pct: 77.9,
        source: TABLE3,
    },
    Reference {
        cell: "fa_virgo",
        mac_util_pct: 65.7,
        source: FIG12,
    },
    Reference {
        cell: "fa_ampere",
        mac_util_pct: 35.1,
        source: FIG12,
    },
];

/// The paper's value for `cell`, if the paper reports one.
pub fn reference(cell: &str) -> Option<&'static Reference> {
    REFERENCES.iter().find(|r| r.cell == cell)
}

/// Mean absolute gap, in percentage points, between simulated and paper
/// MAC utilization over the `(cell, simulated %)` pairs that have a paper
/// value. `None` when no pair does.
pub fn mean_abs_gap_pp(simulated: &[(&str, f64)]) -> Option<f64> {
    let gaps: Vec<f64> = simulated
        .iter()
        .filter_map(|&(cell, pct)| reference(cell).map(|r| (pct - r.mac_util_pct).abs()))
        .collect();
    if gaps.is_empty() {
        None
    } else {
        Some(gaps.iter().sum::<f64>() / gaps.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_mean_absolute_difference() {
        // +4.4 pp and -2.5 pp average to 3.45 pp.
        let gap = mean_abs_gap_pp(&[("volta_256", 30.0), ("fa_ampere", 32.6)]).unwrap();
        assert!((gap - 3.45).abs() < 1e-9, "{gap}");
    }

    #[test]
    fn cells_without_a_reference_are_ignored() {
        assert_eq!(mean_abs_gap_pp(&[("virgo_1024x", 50.0)]), None);
        let gap = mean_abs_gap_pp(&[("virgo_256", 66.1), ("virgo_1024x", 0.0)]).unwrap();
        assert_eq!(gap, 0.0);
    }

    #[test]
    fn every_cell_has_one_reference_with_a_source() {
        for (i, r) in REFERENCES.iter().enumerate() {
            assert!(!r.source.is_empty());
            assert!(REFERENCES[i + 1..].iter().all(|o| o.cell != r.cell));
        }
    }
}
