//! Motif kinds and the [`Motif`] value itself.

use plaid_dfg::{Dfg, NodeId};

/// The fundamental communication patterns of Section 3.2.
///
/// Any three-node DAG can be composed from fan-in, fan-out and unicast (the
/// acyclic triangle adds one edge to a fan-in or fan-out, and is therefore not
/// fundamental). Nodes no motif covers stay standalone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MotifKind {
    /// Two producers feed a single consumer: `n1 -> n2 <- n3`.
    FanIn,
    /// A single producer feeds two consumers: `n2 <- n1 -> n3`.
    FanOut,
    /// A sequential chain: `n1 -> n2 -> n3`.
    Unicast,
}

impl MotifKind {
    /// Number of DFG nodes in a motif of any kind.
    pub const NODE_COUNT: usize = 3;

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            MotifKind::FanIn => "fan-in",
            MotifKind::FanOut => "fan-out",
            MotifKind::Unicast => "unicast",
        }
    }

    /// The three fundamental three-node motif kinds.
    pub const THREE_NODE: [MotifKind; 3] =
        [MotifKind::FanIn, MotifKind::FanOut, MotifKind::Unicast];
}

/// A motif instance: a small sub-DFG of compute nodes whose internal data
/// dependencies are routed collectively within one PCU.
///
/// Node ordering conventions (used by the schedule templates):
/// * `FanIn` — `[producer_a, producer_b, consumer]`
/// * `FanOut` — `[producer, consumer_a, consumer_b]`
/// * `Unicast` — `[first, middle, last]` of the chain
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Motif {
    /// Pattern of the motif.
    pub kind: MotifKind,
    /// Member nodes, ordered per the convention above.
    pub nodes: Vec<NodeId>,
}

impl Motif {
    /// Creates a motif after checking the node count matches the kind.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` is not [`MotifKind::NODE_COUNT`].
    pub fn new(kind: MotifKind, nodes: Vec<NodeId>) -> Self {
        assert_eq!(
            nodes.len(),
            MotifKind::NODE_COUNT,
            "motif {kind:?} requires {} nodes",
            MotifKind::NODE_COUNT
        );
        Motif { kind, nodes }
    }

    /// The internal edges `(producer, consumer)` implied by the pattern.
    pub fn internal_edges(&self) -> Vec<(NodeId, NodeId)> {
        match self.kind {
            MotifKind::FanIn => vec![
                (self.nodes[0], self.nodes[2]),
                (self.nodes[1], self.nodes[2]),
            ],
            MotifKind::FanOut => vec![
                (self.nodes[0], self.nodes[1]),
                (self.nodes[0], self.nodes[2]),
            ],
            MotifKind::Unicast => vec![
                (self.nodes[0], self.nodes[1]),
                (self.nodes[1], self.nodes[2]),
            ],
        }
    }

    /// Whether `node` belongs to this motif.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Verifies the motif against a DFG: all members must be compute nodes and
    /// every internal edge must exist as a same-iteration data edge.
    pub fn is_valid_in(&self, dfg: &Dfg) -> bool {
        if self.nodes.iter().any(|&n| !dfg.node(n).is_compute()) {
            return false;
        }
        let mut unique = self.nodes.clone();
        unique.sort_unstable();
        unique.dedup();
        if unique.len() != self.nodes.len() {
            return false;
        }
        self.internal_edges().iter().all(|&(src, dst)| {
            dfg.out_edges(src)
                .any(|e| e.dst == dst && !e.kind.is_recurrence())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_dfg::{AffineExpr, EdgeKind, Op, Operand};

    fn chain_dfg() -> (Dfg, NodeId, NodeId, NodeId) {
        let mut dfg = Dfg::new("chain");
        let ld = dfg.add_load("ld", "x", AffineExpr::var(0));
        let a = dfg.add_compute_node("a", Op::Add);
        let b = dfg.add_compute_node("b", Op::Mul);
        let c = dfg.add_compute_node("c", Op::Sub);
        dfg.set_immediate(a, 1).unwrap();
        dfg.set_immediate(b, 2).unwrap();
        dfg.set_immediate(c, 3).unwrap();
        dfg.add_edge(ld, a, Operand::Lhs, EdgeKind::Data).unwrap();
        dfg.add_edge(a, b, Operand::Lhs, EdgeKind::Data).unwrap();
        dfg.add_edge(b, c, Operand::Lhs, EdgeKind::Data).unwrap();
        (dfg, a, b, c)
    }

    #[test]
    fn kind_properties() {
        assert_eq!(MotifKind::THREE_NODE.len(), 3);
        for kind in MotifKind::THREE_NODE {
            let motif = Motif::new(kind, vec![NodeId(0), NodeId(1), NodeId(2)]);
            assert_eq!(motif.internal_edges().len(), 2);
        }
        assert_eq!(MotifKind::FanOut.label(), "fan-out");
    }

    #[test]
    fn unicast_motif_validates_against_dfg() {
        let (dfg, a, b, c) = chain_dfg();
        let motif = Motif::new(MotifKind::Unicast, vec![a, b, c]);
        assert!(motif.is_valid_in(&dfg));
        assert_eq!(motif.internal_edges(), vec![(a, b), (b, c)]);
        assert!(motif.contains(b));
    }

    #[test]
    fn wrong_direction_is_rejected() {
        let (dfg, a, b, c) = chain_dfg();
        let motif = Motif::new(MotifKind::Unicast, vec![c, b, a]);
        assert!(!motif.is_valid_in(&dfg));
    }

    #[test]
    fn memory_nodes_are_rejected() {
        let (dfg, a, b, _c) = chain_dfg();
        // Node 0 is the load.
        let motif = Motif::new(MotifKind::Unicast, vec![NodeId(0), a, b]);
        assert!(!motif.is_valid_in(&dfg));
    }

    #[test]
    fn duplicate_nodes_are_rejected() {
        let (dfg, a, b, _c) = chain_dfg();
        let motif = Motif::new(MotifKind::Unicast, vec![a, b, a]);
        assert!(!motif.is_valid_in(&dfg));
    }

    #[test]
    #[should_panic(expected = "requires")]
    fn node_count_mismatch_panics() {
        let _ = Motif::new(MotifKind::FanIn, vec![NodeId(0), NodeId(1)]);
    }
}
