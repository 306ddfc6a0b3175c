//! Property tests of the incremental mapper kernel: journal-based rollback
//! must leave a [`MapState`] *exactly* equal — placements, routes, occupancy
//! table and all incrementally maintained aggregates — to a snapshot taken
//! before the move, across arbitrary interleavings of rip-up, re-place,
//! re-route, commit and rollback. This is the invariant that let the move
//! loops drop their per-move full-state clone.

use proptest::prelude::*;

use plaid_arch::{plaid, spatio_temporal, Architecture};
use plaid_dfg::kernel::{AffineExpr, Expr, KernelBuilder};
use plaid_dfg::lower::lower_kernel;
use plaid_dfg::{Dfg, NodeId, Op};
use plaid_mapper::placement::{greedy_place, MapState};
use plaid_mapper::route::HardCapacityCost;

/// Deterministic xorshift so each proptest case replays exactly.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// A small family of kernels with fan-out, accumulation and stores — enough
/// structure for moves to rip up routed edges and recurrences.
fn kernel_dfg(variant: u8) -> Dfg {
    let unroll = 1u64 << (variant % 3); // 1, 2, 4 all divide the trip count
    let kernel = KernelBuilder::new("journal_mac")
        .loop_var("i", 16)
        .array("a", 64)
        .array("b", 64)
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

fn fabric(variant: u8) -> Architecture {
    match variant % 3 {
        0 => spatio_temporal::build(2, 2),
        1 => spatio_temporal::build(4, 4),
        _ => plaid::build(2, 2),
    }
}

/// Field-wise equality of the mutable mapping state (the pieces rollback
/// must restore).
fn states_equal(a: &MapState<'_>, b: &MapState<'_>) -> bool {
    a.placements == b.placements && a.routes == b.routes && a.state == b.state
}

/// One random move transaction mirroring what the SA / Plaid move loops do:
/// rip up one node, try a few re-placements, re-route its incident edges.
fn random_move(state: &mut MapState<'_>, rng: &mut XorShift) {
    let policy = HardCapacityCost;
    let node = NodeId(rng.below(state.dfg.node_count()) as u32);
    state.unplace(node);
    let candidates = state.candidate_fus(node);
    if candidates.is_empty() {
        return;
    }
    let base = state.earliest_cycle(node);
    for _ in 0..4 {
        let fu = candidates[rng.below(candidates.len())];
        let cycle = base + rng.below(state.ii as usize * 2) as u32;
        if state.can_place(node, fu, cycle) {
            state.place(node, fu, cycle);
            break;
        }
    }
    // Route whatever can be routed again (failures are part of the test —
    // partial mutations must still roll back cleanly).
    let dfg = state.dfg;
    for &e in dfg.incident(node) {
        let _ = state.route_edge(e, &policy);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rolled-back transactions restore the exact pre-move state; committed
    /// ones keep their mutations, across random interleavings.
    #[test]
    fn rollback_is_exact_inverse_of_any_move(
        seed in any::<u64>(),
        dfg_variant in 0u8..3,
        arch_variant in 0u8..3,
        moves in 1usize..24,
    ) {
        let dfg = kernel_dfg(dfg_variant);
        let arch = fabric(arch_variant);
        let ii = 4;
        let mut rng = XorShift(seed | 1);
        let mut state = MapState::new(&dfg, &arch, ii);
        // A full greedy placement when possible, otherwise whatever partial
        // state greedy left behind — rollback must work from either.
        let _ = greedy_place(&mut state, &HardCapacityCost);

        for _ in 0..moves {
            let snapshot = state.clone();
            let cost_before = state.cost();
            state.begin_txn();
            random_move(&mut state, &mut rng);
            if rng.next().is_multiple_of(2) {
                state.rollback_txn();
                prop_assert!(
                    states_equal(&state, &snapshot),
                    "rollback diverged from the pre-move snapshot"
                );
                prop_assert_eq!(state.cost(), cost_before);
                prop_assert_eq!(
                    state.state.occupied_slots(),
                    snapshot.state.occupied_slots()
                );
                prop_assert_eq!(
                    state.state.total_overuse(),
                    snapshot.state.total_overuse()
                );
            } else {
                state.commit_txn();
                // Committed moves keep a consistent state: aggregates must
                // match a from-scratch recomputation.
                let unrouted_slow = dfg
                    .edges()
                    .filter(|e| dfg.edge_carries_data(e) && !state.routes.contains_key(&e.id))
                    .count();
                prop_assert_eq!(state.unrouted_edges(), unrouted_slow);
                let hops_slow: usize = state.routes.values().map(|r| r.hops.len()).sum();
                let expected_cost = unrouted_slow as f64 * 1_000.0
                    + hops_slow as f64
                    + f64::from(state.state.total_overuse()) * 10.0;
                prop_assert_eq!(state.cost(), expected_cost);
            }
        }
    }

    /// A rollback after a *failed* move (nothing re-placed, partial routes)
    /// still restores the snapshot — the journal handles every abort path
    /// the move loops take.
    #[test]
    fn rollback_after_unplace_only_restores_snapshot(
        seed in any::<u64>(),
        arch_variant in 0u8..3,
    ) {
        let dfg = kernel_dfg(0);
        let arch = fabric(arch_variant);
        let mut state = MapState::new(&dfg, &arch, 4);
        let _ = greedy_place(&mut state, &HardCapacityCost);
        let mut rng = XorShift(seed | 1);
        let node = NodeId(rng.below(dfg.node_count()) as u32);

        let snapshot = state.clone();
        state.begin_txn();
        state.unplace(node); // rip up with no re-placement at all
        state.rollback_txn();
        prop_assert!(states_equal(&state, &snapshot));
    }
}
