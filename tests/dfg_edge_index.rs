//! The `Dfg`'s per-node edge index against brute-force scans of its edge
//! list, on every registered workload and on a hand-built graph with a
//! self-loop recurrence and an ordering edge into a load.

use plaid_dfg::{AffineExpr, Dfg, DfgEdge, EdgeId, EdgeKind, Op, Operand};
use plaid_workloads::table2_workloads;

/// Edge ids selected by a scan of the whole edge list.
fn scan(dfg: &Dfg, keep: impl Fn(&DfgEdge) -> bool) -> Vec<EdgeId> {
    dfg.edges().filter(|e| keep(e)).map(|e| e.id).collect()
}

/// Compares every node's index lists and the data-edge count with the
/// scans; returns how many self-loops and ordering edges the graph has.
fn check_index(dfg: &Dfg) -> (usize, usize) {
    let name = dfg.name();
    for node in dfg.node_ids() {
        assert_eq!(dfg.ins(node), scan(dfg, |e| e.dst == node), "{name} {node}");
        assert_eq!(
            dfg.outs(node),
            scan(dfg, |e| e.src == node),
            "{name} {node}"
        );
        assert_eq!(
            dfg.incident(node),
            scan(dfg, |e| e.src == node || e.dst == node),
            "{name} {node}"
        );
    }
    let data = dfg.edges().filter(|e| dfg.edge_carries_data(e)).count();
    assert_eq!(dfg.data_edge_count(), data, "{name}");
    let self_loops = dfg.edges().filter(|e| e.src == e.dst).count();
    (self_loops, dfg.edge_count() - data)
}

/// `acc` accumulates `x[i] * 3` through a self-loop recurrence, and a
/// store to `x` is ordered before the next iteration's load of `x`.
fn hand_built() -> Dfg {
    let mut dfg = Dfg::new("self_loop_and_ordering");
    let ld = dfg.add_load("ld", "x", AffineExpr::var(0));
    let mul = dfg.add_compute_node("mul", Op::Mul);
    let acc = dfg.add_compute_node("acc", Op::Add);
    let st = dfg.add_store("st", "x", AffineExpr::var(0));
    dfg.set_immediate(mul, 3).unwrap();
    dfg.add_edge(ld, mul, Operand::Lhs, EdgeKind::Data).unwrap();
    dfg.add_edge(mul, acc, Operand::Lhs, EdgeKind::Data)
        .unwrap();
    dfg.add_edge(acc, acc, Operand::Rhs, EdgeKind::Recurrence { distance: 1 })
        .unwrap();
    dfg.add_edge(mul, st, Operand::Lhs, EdgeKind::Data).unwrap();
    dfg.add_edge(st, ld, Operand::Lhs, EdgeKind::Recurrence { distance: 1 })
        .unwrap();
    dfg.validate_structure().unwrap();
    dfg
}

#[test]
fn edge_index_matches_edge_scans() {
    let mut dfgs: Vec<Dfg> = table2_workloads()
        .iter()
        .map(|w| w.lower().unwrap_or_else(|e| panic!("{}: {e}", w.name)))
        .collect();
    dfgs.push(hand_built());
    let (mut self_loops, mut ordering) = (0, 0);
    for dfg in &dfgs {
        let (s, o) = check_index(dfg);
        self_loops += s;
        ordering += o;
    }
    assert!(self_loops > 0, "no self-loop was checked");
    assert!(ordering > 0, "no ordering edge was checked");
}
