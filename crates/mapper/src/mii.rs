//! Minimum initiation interval (MII) computation.
//!
//! `MII = max(ResMII, RecMII, CommMII)` (Section 5.1, extended with a
//! communication bound for the structured comm axis):
//!
//! * **ResMII** — resource-constrained bound: the busiest resource class
//!   (compute units or memory ports) must fit within II cycles.
//! * **RecMII** — recurrence-constrained bound: every dependency cycle through
//!   inter-iteration edges must complete within `distance × II` cycles.
//! * **CommMII** — link-bandwidth bound: every data-carrying edge occupies at
//!   least one switch slot per iteration (no fabric links functional units
//!   directly), so the aggregate per-cycle switch capacity times II must
//!   cover the data-edge count. On the as-published networks this bound is
//!   almost always 1; it starts binding on the under-provisioned
//!   (`BwClass::Half`) variants of the structured communication axis.

use std::collections::HashMap;

use plaid_arch::Architecture;
use plaid_dfg::{Dfg, NodeId};

/// Resource-constrained minimum II.
///
/// Compute nodes may execute on any compute-capable unit; memory nodes only on
/// memory-capable units.
pub fn res_mii(dfg: &Dfg, arch: &Architecture) -> u32 {
    let compute_nodes = dfg.compute_node_count() as u32;
    let memory_nodes = dfg.memory_node_count() as u32;
    let compute_units = arch.compute_unit_count() as u32;
    let memory_units = arch.memory_unit_count() as u32;
    let compute_bound = if compute_units == 0 {
        u32::MAX
    } else {
        compute_nodes.div_ceil(compute_units)
    };
    let memory_bound = if memory_nodes == 0 {
        0
    } else if memory_units == 0 {
        u32::MAX
    } else {
        memory_nodes.div_ceil(memory_units)
    };
    compute_bound.max(memory_bound).max(1)
}

/// Recurrence-constrained minimum II.
///
/// For every recurrence edge `u -> v` with iteration distance `d`, the longest
/// same-iteration dependency path from `v` back to `u` (in unit node
/// latencies) plus one must fit in `d × II` cycles.
pub fn rec_mii(dfg: &Dfg) -> u32 {
    let mut best = 1u32;
    for rec in dfg.recurrence_edges() {
        let distance = rec.kind.distance().max(1);
        let path = longest_path_latency(dfg, rec.dst, rec.src);
        if let Some(latency) = path {
            // The cycle latency includes the producing node of the recurrence
            // edge itself (unit latency per node).
            let cycle_latency = latency + 1;
            best = best.max(cycle_latency.div_ceil(distance));
        }
    }
    best
}

/// Communication-constrained minimum II.
///
/// Sound lower bound: every *distinct routed value* (a node with at least
/// one data-carrying out-edge) occupies at least one `(switch, slot)` cell
/// of the modulo occupancy table — all modelled fabrics connect functional
/// units exclusively through switches, and two different values can never
/// share a cell. Fanout edges of one value *can* share cells (occupancy is
/// per `(resource, slot, value)`), which is why the bound counts values,
/// not edges: an edge count would overestimate and make the ladder skip
/// feasible IIs. The table has `total switch capacity × II` cells, so
/// `II >= ceil(routed_values / total_capacity)`. Keys on the link structure
/// the [`plaid_arch::CommSpec`] axis provisions: halving the bandwidth
/// halves the denominator.
pub fn comm_mii(dfg: &Dfg, arch: &Architecture) -> u32 {
    let routed_values = dfg
        .node_ids()
        .filter(|&n| dfg.out_edges(n).any(|e| dfg.edge_carries_data(e)))
        .count() as u32;
    if routed_values == 0 {
        return 1;
    }
    let bandwidth: u32 = arch
        .resources()
        .iter()
        .filter(|r| !r.kind.is_func_unit())
        .map(|r| r.kind.capacity())
        .sum();
    if bandwidth == 0 {
        return u32::MAX;
    }
    routed_values.div_ceil(bandwidth).max(1)
}

/// Minimum II: `max(ResMII, RecMII, CommMII)`.
pub fn mii(dfg: &Dfg, arch: &Architecture) -> u32 {
    res_mii(dfg, arch)
        .max(rec_mii(dfg))
        .max(comm_mii(dfg, arch))
}

/// Longest path (in unit latencies, i.e. number of edges) from `from` to `to`
/// over same-iteration data edges. Returns `None` when `to` is unreachable.
/// `from == to` yields `Some(0)`.
fn longest_path_latency(dfg: &Dfg, from: NodeId, to: NodeId) -> Option<u32> {
    let order = dfg.topological_order().ok()?;
    let mut dist: HashMap<NodeId, i64> = HashMap::new();
    dist.insert(from, 0);
    for &n in &order {
        let Some(&d) = dist.get(&n) else { continue };
        for e in dfg.out_edges(n).filter(|e| !e.kind.is_recurrence()) {
            let nd = d + 1;
            let entry = dist.entry(e.dst).or_insert(i64::MIN);
            if nd > *entry {
                *entry = nd;
            }
        }
    }
    dist.get(&to).map(|&d| d as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_arch::{plaid, spatio_temporal, ArchClass, ArchParams, Provision};
    use plaid_dfg::kernel::{AffineExpr, Expr, KernelBuilder};
    use plaid_dfg::lower::lower_kernel;
    use plaid_dfg::Op;

    fn reduction_dfg(unroll: u64) -> Dfg {
        let kernel = KernelBuilder::new("dot")
            .loop_var("i", 16)
            .array("a", 16)
            .array("b", 16)
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
        lower_kernel(&kernel, unroll).unwrap()
    }

    fn streaming_dfg() -> Dfg {
        let kernel = KernelBuilder::new("axpy")
            .loop_var("i", 16)
            .array("x", 16)
            .array("y", 16)
            .store(
                "y",
                AffineExpr::var(0),
                Expr::binary(
                    Op::Add,
                    Expr::binary(Op::Mul, Expr::load("x", AffineExpr::var(0)), Expr::Const(3)),
                    Expr::load("y", AffineExpr::var(0)),
                ),
            )
            .build()
            .unwrap();
        lower_kernel(&kernel, 1).unwrap()
    }

    #[test]
    fn res_mii_is_bounded_by_memory_ports() {
        let dfg = streaming_dfg();
        let st = spatio_temporal::build(4, 4);
        // 3 memory nodes over 4 memory units, 2 compute nodes over 16 units.
        assert_eq!(res_mii(&dfg, &st), 1);
        let plaid_arch = plaid::build(2, 2);
        assert_eq!(res_mii(&dfg, &plaid_arch), 1);
    }

    #[test]
    fn res_mii_grows_with_unrolling() {
        let st = spatio_temporal::build(4, 4);
        let d1 = reduction_dfg(1);
        let d4 = reduction_dfg(4);
        assert!(res_mii(&d4, &st) >= res_mii(&d1, &st));
        // 4x unrolled dot product has 12 memory nodes over 4 ports -> >= 3.
        assert!(res_mii(&d4, &st) >= 3);
    }

    #[test]
    fn rec_mii_of_memory_carried_reduction() {
        let dfg = reduction_dfg(1);
        // Cycle: load -> add -> store -> (recurrence) load; latency 3.
        assert_eq!(rec_mii(&dfg), 3);
    }

    #[test]
    fn rec_mii_is_one_without_recurrences() {
        let dfg = streaming_dfg();
        assert_eq!(rec_mii(&dfg), 1);
    }

    #[test]
    fn mii_is_max_of_both_bounds() {
        let st = spatio_temporal::build(4, 4);
        let dfg = reduction_dfg(1);
        assert_eq!(mii(&dfg, &st), rec_mii(&dfg).max(res_mii(&dfg, &st)));
        assert!(mii(&dfg, &st) >= 3);
    }

    #[test]
    fn comm_mii_binds_only_when_bandwidth_is_starved() {
        let dfg = reduction_dfg(4);
        let st = spatio_temporal::build(4, 4);
        // The as-published 4x4 network offers 16 x 5 = 80 switch slots per
        // cycle — far more than the DFG has data edges.
        assert_eq!(comm_mii(&dfg, &st), 1);
        // A starved network (every switch down to capacity 1) must spread the
        // same values across II cycles.
        let starved = spatio_temporal::build_with(
            ArchClass::SpatioTemporal,
            &Provision {
                capacity: &|_| 1,
                ..Provision::published("starved", ArchParams::baseline(4, 4))
            },
        );
        let routed_values = dfg
            .node_ids()
            .filter(|&n| dfg.out_edges(n).any(|e| dfg.edge_carries_data(e)))
            .count() as u32;
        assert!(routed_values > 16, "unrolled reduction routes many values");
        assert_eq!(comm_mii(&dfg, &starved), routed_values.div_ceil(16));
        assert!(mii(&dfg, &starved) >= comm_mii(&dfg, &starved));
        // Fanout shares slots: the bound must count values, not edges, so it
        // never exceeds the value count even on a maximally starved fabric.
        let data_edges = dfg.edges().filter(|e| dfg.edge_carries_data(e)).count() as u32;
        assert!(routed_values <= data_edges);
    }

    #[test]
    fn rec_mii_with_register_carried_self_loop() {
        use plaid_dfg::{EdgeKind, Operand};
        let mut dfg = Dfg::new("acc");
        let ld = dfg.add_load("ld", "x", AffineExpr::var(0));
        let acc = dfg.add_compute_node("acc", Op::Add);
        dfg.add_edge(ld, acc, Operand::Lhs, EdgeKind::Data).unwrap();
        dfg.add_edge(acc, acc, Operand::Rhs, EdgeKind::Recurrence { distance: 1 })
            .unwrap();
        // Self-loop: cycle latency 1, distance 1 -> RecMII 1.
        assert_eq!(rec_mii(&dfg), 1);
        dfg.add_edge(acc, acc, Operand::Rhs, EdgeKind::Recurrence { distance: 2 })
            .unwrap();
        assert_eq!(rec_mii(&dfg), 1);
    }
}
