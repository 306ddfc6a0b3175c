//! Algorithm 1: motif generation.
//!
//! The algorithm greedily seeds a motif cover by traversing the DFG in
//! topological order, then iteratively improves it: break a random motif,
//! shuffle the standalone nodes and regrow motifs from them, keeping the new
//! cover whenever the motif count increases. The process stops when the count
//! no longer improves (or a patience budget is exhausted), or when motifs
//! outnumber standalone nodes — the latter keeps the PCU's ALSU busy, as
//! discussed in Section 5.2.
//!
//! The search runs at one fixed configuration, this module's constants:
//! the generator's seed, the round budget and the patience. Identical DFGs
//! therefore always get identical covers. Every [`MotifKind`] has three
//! nodes, so coverage counts three-node motifs, as Table 2 does.

use std::collections::HashSet;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use plaid_dfg::{Dfg, NodeId};

use crate::hierarchy::HierarchicalDfg;
use crate::motif::{Motif, MotifKind};

/// Seed of the pseudo-random generator used by the iterative phase.
const SEED: u64 = 0xC0FF_EE00;

/// Maximum break-and-regrow rounds.
const MAX_ROUNDS: usize = 64;

/// Rounds without improvement tolerated before stopping.
const PATIENCE: usize = 8;

/// The argument [`identify_motifs`] takes; it has no settings. Kept until
/// ROADMAP item 6, because the sweep benchmark calls
/// `identify_motifs(dfg, &IdentifyOptions::default())`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct IdentifyOptions {}

/// Runs Algorithm 1 on `dfg` and returns the hierarchical DFG.
pub fn identify_motifs(dfg: &Dfg, _options: &IdentifyOptions) -> HierarchicalDfg {
    let mut rng = SmallRng::seed_from_u64(SEED);

    // Line 1: greedy initial cover in topological order.
    let order = dfg
        .topological_order()
        .unwrap_or_else(|_| dfg.node_ids().collect());
    let mut motifs = greedy_cover(dfg, &order);

    // Lines 2-7: iterative break-and-regrow refinement.
    let mut stale = 0usize;
    for _ in 0..MAX_ROUNDS {
        if stale >= PATIENCE {
            break;
        }
        let standalone_count =
            dfg.node_count() - motifs.iter().map(|m| m.nodes.len()).sum::<usize>();
        if motifs.len() > standalone_count {
            break;
        }
        let mut candidate = motifs.clone();
        if !candidate.is_empty() {
            let victim = rng.gen_range(0..candidate.len());
            candidate.swap_remove(victim);
        }
        let mut covered: HashSet<NodeId> = candidate
            .iter()
            .flat_map(|m| m.nodes.iter().copied())
            .collect();
        let mut standalone: Vec<NodeId> = dfg
            .node_ids()
            .filter(|&n| dfg.node(n).is_compute() && !covered.contains(&n))
            .collect();
        standalone.shuffle(&mut rng);
        for node in standalone {
            if covered.contains(&node) {
                continue;
            }
            if let Some(motif) = match_pattern(dfg, node, &covered) {
                for &n in &motif.nodes {
                    covered.insert(n);
                }
                candidate.push(motif);
            }
        }
        if candidate.len() > motifs.len() {
            motifs = candidate;
            stale = 0;
        } else {
            stale += 1;
        }
    }
    HierarchicalDfg::new(dfg, motifs)
}

/// Greedy seeding: walk the DFG in the given order and grab the first pattern
/// that fits each still-uncovered compute node.
fn greedy_cover(dfg: &Dfg, order: &[NodeId]) -> Vec<Motif> {
    let mut covered: HashSet<NodeId> = HashSet::new();
    let mut motifs = Vec::new();
    for &node in order {
        if covered.contains(&node) || !dfg.node(node).is_compute() {
            continue;
        }
        if let Some(motif) = match_pattern(dfg, node, &covered) {
            for &n in &motif.nodes {
                covered.insert(n);
            }
            motifs.push(motif);
        }
    }
    motifs
}

/// Uncovered compute-node data predecessors of `node`.
fn free_preds(dfg: &Dfg, node: NodeId, covered: &HashSet<NodeId>) -> Vec<NodeId> {
    let mut preds: Vec<NodeId> = dfg
        .in_edges(node)
        .filter(|e| !e.kind.is_recurrence())
        .map(|e| e.src)
        .filter(|&p| p != node && dfg.node(p).is_compute() && !covered.contains(&p))
        .collect();
    preds.sort_unstable();
    preds.dedup();
    preds
}

/// Uncovered compute-node data successors of `node`.
fn free_succs(dfg: &Dfg, node: NodeId, covered: &HashSet<NodeId>) -> Vec<NodeId> {
    let mut succs: Vec<NodeId> = dfg
        .out_edges(node)
        .filter(|e| !e.kind.is_recurrence())
        .map(|e| e.dst)
        .filter(|&s| s != node && dfg.node(s).is_compute() && !covered.contains(&s))
        .collect();
    succs.sort_unstable();
    succs.dedup();
    succs
}

/// Finds a three-node motif containing `node`, built only from uncovered
/// compute nodes, trying fan-in, fan-out and unicast in all orientations.
pub(crate) fn match_pattern(dfg: &Dfg, node: NodeId, covered: &HashSet<NodeId>) -> Option<Motif> {
    if covered.contains(&node) || !dfg.node(node).is_compute() {
        return None;
    }
    let preds = free_preds(dfg, node, covered);
    let succs = free_succs(dfg, node, covered);

    // Fan-in with `node` as the consumer.
    if preds.len() >= 2 {
        return Some(Motif::new(MotifKind::FanIn, vec![preds[0], preds[1], node]));
    }
    // Fan-out with `node` as the producer.
    if succs.len() >= 2 && succs[0] != succs[1] {
        return Some(Motif::new(
            MotifKind::FanOut,
            vec![node, succs[0], succs[1]],
        ));
    }
    // Unicast with `node` in the middle.
    if let (Some(&p), Some(&s)) = (preds.first(), succs.first()) {
        if p != s {
            return Some(Motif::new(MotifKind::Unicast, vec![p, node, s]));
        }
    }
    // Unicast with `node` at the head: node -> s -> ss.
    if let Some(&s) = succs.first() {
        let mut below = free_succs(dfg, s, covered);
        below.retain(|&x| x != node && x != s);
        if let Some(&ss) = below.first() {
            return Some(Motif::new(MotifKind::Unicast, vec![node, s, ss]));
        }
        // Fan-in with `node` as one producer: node -> s <- other.
        let mut other = free_preds(dfg, s, covered);
        other.retain(|&x| x != node && x != s);
        if let Some(&o) = other.first() {
            return Some(Motif::new(MotifKind::FanIn, vec![node, o, s]));
        }
    }
    // Unicast with `node` at the tail: pp -> p -> node.
    if let Some(&p) = preds.first() {
        let mut above = free_preds(dfg, p, covered);
        above.retain(|&x| x != node && x != p);
        if let Some(&pp) = above.first() {
            return Some(Motif::new(MotifKind::Unicast, vec![pp, p, node]));
        }
        // Fan-out with `node` as one consumer: p -> node, p -> other.
        let mut other = free_succs(dfg, p, covered);
        other.retain(|&x| x != node && x != p);
        if let Some(&o) = other.first() {
            return Some(Motif::new(MotifKind::FanOut, vec![p, node, o]));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_dfg::kernel::{AffineExpr, Expr, KernelBuilder};
    use plaid_dfg::lower::lower_kernel;
    use plaid_dfg::{EdgeKind, Op, Operand};

    /// The Figure 4 body: c = b[i]*k + a[i]*j; k = d[i] >> 4; out += c + f[j].
    fn figure4_dfg() -> Dfg {
        let kernel = KernelBuilder::new("figure4")
            .loop_var("i", 4)
            .loop_var("j", 4)
            .array("a", 4)
            .array("b", 4)
            .array("d", 4)
            .array("f", 4)
            .array("c", 16)
            .array("k", 4)
            .array("out", 4)
            .store(
                "c",
                AffineExpr::scaled_var(0, 4).add(&AffineExpr::var(1)),
                Expr::binary(
                    Op::Add,
                    Expr::binary(Op::Mul, Expr::load("b", AffineExpr::var(0)), Expr::Const(3)),
                    Expr::binary(Op::Mul, Expr::load("a", AffineExpr::var(0)), Expr::Index(1)),
                ),
            )
            .store(
                "k",
                AffineExpr::var(0),
                Expr::binary(Op::Shr, Expr::load("d", AffineExpr::var(0)), Expr::Const(4)),
            )
            .accumulate(
                "out",
                AffineExpr::var(0),
                Op::Add,
                Expr::binary(
                    Op::Add,
                    Expr::load("c", AffineExpr::scaled_var(0, 4).add(&AffineExpr::var(1))),
                    Expr::load("f", AffineExpr::var(1)),
                ),
            )
            .build()
            .unwrap();
        lower_kernel(&kernel, 1).unwrap()
    }

    #[test]
    fn identification_is_deterministic_for_a_seed() {
        let dfg = figure4_dfg();
        let a = identify_motifs(&dfg, &IdentifyOptions::default());
        let b = identify_motifs(&dfg, &IdentifyOptions::default());
        assert_eq!(a.motifs(), b.motifs());
    }

    #[test]
    fn cover_is_a_partition_of_compute_nodes() {
        let dfg = figure4_dfg();
        let hdfg = identify_motifs(&dfg, &IdentifyOptions::default());
        let mut seen = HashSet::new();
        for m in hdfg.motifs() {
            assert!(m.is_valid_in(&dfg));
            for &n in &m.nodes {
                assert!(dfg.node(n).is_compute());
                assert!(seen.insert(n), "node covered twice");
            }
        }
        assert!(hdfg.covered_compute_nodes() <= dfg.compute_node_count());
    }

    #[test]
    fn figure4_finds_at_least_one_motif() {
        let dfg = figure4_dfg();
        let hdfg = identify_motifs(&dfg, &IdentifyOptions::default());
        assert!(!hdfg.motifs().is_empty());
        // The fan-in pattern (two multiplies into an add) must be covered.
        assert!(
            hdfg.coverage_ratio() >= 0.5,
            "coverage {}",
            hdfg.coverage_ratio()
        );
    }

    #[test]
    fn straight_chain_becomes_unicast_motifs() {
        let mut dfg = Dfg::new("chain6");
        let ld = dfg.add_load("ld", "x", AffineExpr::var(0));
        let mut prev = ld;
        let mut computes = Vec::new();
        for i in 0..6 {
            let n = dfg.add_compute_node(format!("c{i}"), Op::Add);
            dfg.set_immediate(n, 1).unwrap();
            dfg.add_edge(prev, n, Operand::Lhs, EdgeKind::Data).unwrap();
            computes.push(n);
            prev = n;
        }
        let st = dfg.add_store("st", "y", AffineExpr::var(0));
        dfg.add_edge(prev, st, Operand::Lhs, EdgeKind::Data)
            .unwrap();
        let hdfg = identify_motifs(&dfg, &IdentifyOptions::default());
        assert_eq!(hdfg.covered_compute_nodes(), 6);
        assert_eq!(hdfg.motifs().len(), 2);
        assert!(hdfg.motifs().iter().all(|m| m.kind == MotifKind::Unicast));
    }

    #[test]
    fn lone_compute_nodes_stay_standalone() {
        // Two independent producer/consumer pairs cannot form a 3-node motif.
        let mut dfg = Dfg::new("pairs");
        for i in 0..2 {
            let ld = dfg.add_load(format!("ld{i}"), "x", AffineExpr::var(0));
            let a = dfg.add_compute_node(format!("a{i}"), Op::Add);
            dfg.set_immediate(a, 1).unwrap();
            let st = dfg.add_store(format!("st{i}"), "y", AffineExpr::var(0));
            dfg.add_edge(ld, a, Operand::Lhs, EdgeKind::Data).unwrap();
            dfg.add_edge(a, st, Operand::Lhs, EdgeKind::Data).unwrap();
        }
        let hdfg = identify_motifs(&dfg, &IdentifyOptions::default());
        assert_eq!(hdfg.covered_compute_nodes(), 0);
    }

    #[test]
    fn unrolled_kernels_keep_high_coverage() {
        // gemm-style reduction over the innermost loop k:
        // c[i][j] += a[i][k] * b[k][j].
        let kernel = KernelBuilder::new("gemm_like")
            .loop_var("i", 4)
            .loop_var("j", 4)
            .loop_var("k", 4)
            .array("a", 16)
            .array("b", 16)
            .array("c", 16)
            .accumulate(
                "c",
                AffineExpr::scaled_var(0, 4).add(&AffineExpr::var(1)),
                Op::Add,
                Expr::binary(
                    Op::Mul,
                    Expr::load("a", AffineExpr::scaled_var(0, 4).add(&AffineExpr::var(2))),
                    Expr::load("b", AffineExpr::scaled_var(2, 4).add(&AffineExpr::var(1))),
                ),
            )
            .build()
            .unwrap();
        let dfg = lower_kernel(&kernel, 2).unwrap();
        let hdfg = identify_motifs(&dfg, &IdentifyOptions::default());
        assert!(
            hdfg.coverage_ratio() > 0.4,
            "coverage {}",
            hdfg.coverage_ratio()
        );
    }
}
