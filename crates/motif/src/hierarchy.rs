//! The hierarchical DFG: motifs, standalone nodes and inter-motif edges.

use std::collections::HashMap;

use plaid_dfg::{Dfg, NodeId};

use crate::motif::Motif;

/// A DFG decomposed into motifs plus standalone nodes
/// (`HD = (M_HD, E_HD)` in the paper's formulation, Section 5.1).
///
/// Standalone nodes are the `H_k` helper nodes: compute nodes not covered by
/// any motif plus all memory nodes (loads/stores execute on ALSUs and are
/// never part of a motif).
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalDfg {
    motifs: Vec<Motif>,
    standalone: Vec<NodeId>,
    node_to_motif: HashMap<NodeId, usize>,
    total_nodes: usize,
    compute_nodes: usize,
}

impl HierarchicalDfg {
    /// Builds a hierarchical DFG from a motif cover.
    ///
    /// # Panics
    ///
    /// Panics if a motif is invalid in `dfg` or if two motifs share a node —
    /// both indicate a bug in the identification algorithm.
    pub fn new(dfg: &Dfg, motifs: Vec<Motif>) -> Self {
        let mut node_to_motif = HashMap::new();
        for (i, m) in motifs.iter().enumerate() {
            assert!(m.is_valid_in(dfg), "motif {i} is not valid in the DFG");
            for &n in &m.nodes {
                let prev = node_to_motif.insert(n, i);
                assert!(prev.is_none(), "node {n} is covered by two motifs");
            }
        }
        let standalone: Vec<NodeId> = dfg
            .node_ids()
            .filter(|n| !node_to_motif.contains_key(n))
            .collect();
        HierarchicalDfg {
            motifs,
            standalone,
            node_to_motif,
            total_nodes: dfg.node_count(),
            compute_nodes: dfg.compute_node_count(),
        }
    }

    /// The motif cover.
    pub fn motifs(&self) -> &[Motif] {
        &self.motifs
    }

    /// Nodes not covered by any motif (includes all memory nodes).
    pub fn standalone_nodes(&self) -> &[NodeId] {
        &self.standalone
    }

    /// Index of the motif covering `node`, if any.
    pub fn motif_of(&self, node: NodeId) -> Option<usize> {
        self.node_to_motif.get(&node).copied()
    }

    /// Number of compute nodes covered by motifs (Table 2, third column).
    pub fn covered_compute_nodes(&self) -> usize {
        self.motifs.iter().map(|m| m.nodes.len()).sum()
    }

    /// Number of compute nodes in the underlying DFG.
    pub fn compute_nodes(&self) -> usize {
        self.compute_nodes
    }

    /// Number of nodes in the underlying DFG.
    pub fn total_nodes(&self) -> usize {
        self.total_nodes
    }

    /// Fraction of compute nodes covered by motifs, in `[0, 1]`.
    pub fn coverage_ratio(&self) -> f64 {
        if self.compute_nodes == 0 {
            return 0.0;
        }
        self.covered_compute_nodes() as f64 / self.compute_nodes as f64
    }

    /// Mapping-order key: motifs first (largest first), then standalone nodes.
    /// Used by Algorithm 2's dependency-aware sort.
    pub fn unit_count(&self) -> usize {
        self.motifs.len() + self.standalone.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motif::MotifKind;
    use plaid_dfg::{AffineExpr, EdgeKind, Op, Operand};

    /// Two multiplies feeding an add (fan-in), whose result is stored; plus an
    /// unrelated shift.
    fn sample() -> (Dfg, Vec<NodeId>) {
        let mut dfg = Dfg::new("sample");
        let b = dfg.add_load("b", "b", AffineExpr::var(0));
        let a = dfg.add_load("a", "a", AffineExpr::var(0));
        let n1 = dfg.add_compute_node("n1", Op::Mul);
        let n2 = dfg.add_compute_node("n2", Op::Mul);
        let n3 = dfg.add_compute_node("n3", Op::Add);
        let sh = dfg.add_compute_node("sh", Op::Shr);
        let st = dfg.add_store("st", "c", AffineExpr::var(0));
        let st2 = dfg.add_store("st2", "k", AffineExpr::var(0));
        dfg.set_immediate(n1, 4).unwrap();
        dfg.set_immediate(n2, 2).unwrap();
        dfg.set_immediate(sh, 4).unwrap();
        dfg.add_edge(b, n1, Operand::Lhs, EdgeKind::Data).unwrap();
        dfg.add_edge(a, n2, Operand::Lhs, EdgeKind::Data).unwrap();
        dfg.add_edge(n1, n3, Operand::Lhs, EdgeKind::Data).unwrap();
        dfg.add_edge(n2, n3, Operand::Rhs, EdgeKind::Data).unwrap();
        dfg.add_edge(n3, st, Operand::Lhs, EdgeKind::Data).unwrap();
        dfg.add_edge(a, sh, Operand::Lhs, EdgeKind::Data).unwrap();
        dfg.add_edge(sh, st2, Operand::Lhs, EdgeKind::Data).unwrap();
        (dfg, vec![n1, n2, n3, sh])
    }

    #[test]
    fn hierarchy_partitions_nodes() {
        let (dfg, nodes) = sample();
        let motif = Motif::new(MotifKind::FanIn, vec![nodes[0], nodes[1], nodes[2]]);
        let hdfg = HierarchicalDfg::new(&dfg, vec![motif]);
        assert_eq!(hdfg.motifs().len(), 1);
        assert_eq!(hdfg.covered_compute_nodes(), 3);
        assert_eq!(hdfg.compute_nodes(), 4);
        // Standalone: shift node + 2 loads + 2 stores.
        assert_eq!(hdfg.standalone_nodes().len(), 5);
        assert_eq!(hdfg.motif_of(nodes[0]), Some(0));
        assert_eq!(hdfg.motif_of(nodes[3]), None);
        assert!((hdfg.coverage_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(hdfg.unit_count(), 6);
    }

    #[test]
    #[should_panic(expected = "covered by two motifs")]
    fn overlapping_motifs_panic() {
        let (dfg, nodes) = sample();
        let m1 = Motif::new(MotifKind::FanIn, vec![nodes[0], nodes[1], nodes[2]]);
        let m2 = Motif::new(MotifKind::FanIn, vec![nodes[1], nodes[0], nodes[2]]);
        let _ = HierarchicalDfg::new(&dfg, vec![m1, m2]);
    }

    #[test]
    fn empty_cover_is_all_standalone() {
        let (dfg, _) = sample();
        let hdfg = HierarchicalDfg::new(&dfg, Vec::new());
        assert_eq!(hdfg.standalone_nodes().len(), dfg.node_count());
        assert_eq!(hdfg.coverage_ratio(), 0.0);
    }
}
