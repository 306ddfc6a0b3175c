//! Motif coverage statistics (the per-workload characteristics of Table 2).

use std::fmt;

use plaid_dfg::Dfg;

use crate::hierarchy::HierarchicalDfg;
use crate::motif::MotifKind;

/// Per-DFG characteristics as reported in Table 2: total node count, compute
/// node count and the number of compute nodes covered by motifs, plus the mix
/// of motif kinds found.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CoverageStats {
    /// Kernel name.
    pub name: String,
    /// Total DFG nodes (compute + memory).
    pub total_nodes: usize,
    /// Compute (ALU) nodes.
    pub compute_nodes: usize,
    /// Compute nodes covered by motifs.
    pub covered_nodes: usize,
    /// Number of fan-in motifs.
    pub fan_in: usize,
    /// Number of fan-out motifs.
    pub fan_out: usize,
    /// Number of unicast motifs.
    pub unicast: usize,
    /// Always 0: pairs are not a motif kind. Kept because pinned frontier
    /// JSON carries `"pairs": 0` (ROADMAP item 6 deletes it).
    pub pairs: usize,
}

impl CoverageStats {
    /// Fraction of compute nodes covered by motifs.
    pub fn coverage_ratio(&self) -> f64 {
        if self.compute_nodes == 0 {
            0.0
        } else {
            self.covered_nodes as f64 / self.compute_nodes as f64
        }
    }

    /// Total number of motifs.
    pub fn motif_count(&self) -> usize {
        self.fan_in + self.fan_out + self.unicast
    }
}

impl fmt::Display for CoverageStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} nodes={:<3} compute={:<3} covered={:<3} (fan-in {}, fan-out {}, unicast {})",
            self.name,
            self.total_nodes,
            self.compute_nodes,
            self.covered_nodes,
            self.fan_in,
            self.fan_out,
            self.unicast
        )
    }
}

/// Computes coverage statistics for a DFG and its motif cover.
pub fn coverage(dfg: &Dfg, hdfg: &HierarchicalDfg) -> CoverageStats {
    let count_kind = |kind: MotifKind| hdfg.motifs().iter().filter(|m| m.kind == kind).count();
    CoverageStats {
        name: dfg.name().to_string(),
        total_nodes: dfg.node_count(),
        compute_nodes: dfg.compute_node_count(),
        covered_nodes: hdfg.covered_compute_nodes(),
        fan_in: count_kind(MotifKind::FanIn),
        fan_out: count_kind(MotifKind::FanOut),
        unicast: count_kind(MotifKind::Unicast),
        pairs: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identify::{identify_motifs, IdentifyOptions};
    use plaid_dfg::kernel::{AffineExpr, Expr, KernelBuilder};
    use plaid_dfg::lower::lower_kernel;
    use plaid_dfg::Op;

    #[test]
    fn coverage_counts_match_hierarchy() {
        let kernel = KernelBuilder::new("mac")
            .loop_var("i", 8)
            .array("a", 8)
            .array("b", 8)
            .array("out", 1)
            .accumulate(
                "out",
                AffineExpr::constant(0),
                Op::Add,
                Expr::binary(
                    Op::Mul,
                    Expr::load("a", AffineExpr::var(0)),
                    Expr::load("b", AffineExpr::var(0)),
                ),
            )
            .build()
            .unwrap();
        let dfg = lower_kernel(&kernel, 2).unwrap();
        let hdfg = identify_motifs(&dfg, &IdentifyOptions::default());
        let stats = coverage(&dfg, &hdfg);
        assert_eq!(stats.total_nodes, dfg.node_count());
        assert_eq!(stats.compute_nodes, dfg.compute_node_count());
        assert_eq!(stats.covered_nodes, hdfg.covered_compute_nodes());
        assert_eq!(stats.motif_count(), hdfg.motifs().len());
        assert!(stats.coverage_ratio() <= 1.0);
        let row = stats.to_string();
        assert!(row.contains("mac_u2"));
        assert!(row.contains("covered"));
    }
}
