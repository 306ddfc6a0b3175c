//! Property-based tests of the core invariants.

use proptest::prelude::*;

use plaid_dfg::kernel::{AffineExpr, Expr, KernelBuilder};
use plaid_dfg::lower::lower_kernel;
use plaid_dfg::{Dfg, EdgeKind, Op, Operand};
use plaid_motif::{identify_motifs, IdentifyOptions};

/// Strategy: a random layered DAG of compute nodes fed by one load, with a
/// store at the end. Layered construction guarantees acyclicity.
fn arbitrary_dfg() -> impl Strategy<Value = Dfg> {
    (2usize..18, any::<u64>()).prop_map(|(compute_nodes, seed)| {
        let mut dfg = Dfg::new(format!("random_{compute_nodes}"));
        let load = dfg.add_load("ld", "x", AffineExpr::var(0));
        let mut previous: Vec<_> = vec![load];
        let mut state = seed | 1;
        let mut next = || {
            // xorshift for reproducible pseudo-randomness inside the strategy
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let ops = [Op::Add, Op::Mul, Op::Sub, Op::Xor, Op::Min];
        let mut all_compute = Vec::new();
        for i in 0..compute_nodes {
            let op = ops[(next() % ops.len() as u64) as usize];
            let node = dfg.add_compute_node(format!("c{i}"), op);
            let lhs = previous[(next() % previous.len() as u64) as usize];
            dfg.add_edge(lhs, node, Operand::Lhs, EdgeKind::Data)
                .unwrap();
            if next() % 2 == 0 && previous.len() > 1 {
                let rhs = previous[(next() % previous.len() as u64) as usize];
                if dfg
                    .add_edge(rhs, node, Operand::Rhs, EdgeKind::Data)
                    .is_err()
                {
                    dfg.set_immediate(node, (next() % 64) as i64).unwrap();
                }
            } else {
                dfg.set_immediate(node, (next() % 64) as i64).unwrap();
            }
            previous.push(node);
            all_compute.push(node);
        }
        let store = dfg.add_store("st", "y", AffineExpr::var(0));
        dfg.add_edge(
            *previous.last().unwrap(),
            store,
            Operand::Lhs,
            EdgeKind::Data,
        )
        .unwrap();
        dfg
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Motif identification always yields a valid partition of compute nodes.
    #[test]
    fn motif_cover_is_a_valid_partition(dfg in arbitrary_dfg()) {
        prop_assert!(dfg.validate_structure().is_ok());
        let hdfg = identify_motifs(&dfg, &IdentifyOptions::default());
        let mut seen = std::collections::HashSet::new();
        for motif in hdfg.motifs() {
            prop_assert!(motif.is_valid_in(&dfg));
            for &node in &motif.nodes {
                prop_assert!(dfg.node(node).is_compute());
                prop_assert!(seen.insert(node), "node covered twice");
            }
        }
        prop_assert!(hdfg.covered_compute_nodes() <= dfg.compute_node_count());
        prop_assert_eq!(
            hdfg.covered_compute_nodes() + hdfg.standalone_nodes().len(),
            dfg.node_count()
        );
    }

    /// Topological order respects every same-iteration data edge.
    #[test]
    fn topological_order_is_consistent(dfg in arbitrary_dfg()) {
        let order = dfg.topological_order().unwrap();
        let position: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for edge in dfg.edges().filter(|e| !e.kind.is_recurrence()) {
            prop_assert!(position[&edge.src] < position[&edge.dst]);
        }
    }

    /// Affine expressions evaluate linearly under variable substitution.
    #[test]
    fn affine_substitution_is_consistent(
        coeff in -8i64..8,
        constant in -16i64..16,
        scale in 1i64..5,
        shift in 0i64..5,
        point in 0i64..10,
    ) {
        let expr = AffineExpr::scaled_var(0, coeff).offset(constant);
        let substituted = expr.substitute(0, scale, shift);
        // Evaluating the substituted expression at `point` must equal the
        // original evaluated at `scale * point + shift`.
        prop_assert_eq!(substituted.eval(&[point]), expr.eval(&[scale * point + shift]));
    }

    /// Kernel unrolling preserves total work: the unrolled DFG has `factor`
    /// times as many nodes and its iteration count shrinks by `factor`.
    #[test]
    fn unrolling_preserves_total_work(factor in prop::sample::select(vec![1u64, 2, 4])) {
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
        let base = lower_kernel(&kernel, 1).unwrap();
        let unrolled = lower_kernel(&kernel, factor).unwrap();
        prop_assert_eq!(unrolled.node_count() as u64, base.node_count() as u64 * factor);
        prop_assert_eq!(unrolled.total_iterations() * factor, base.total_iterations());
        // The operation mix is preserved (each op count scales by the factor).
        let base_hist = base.op_histogram();
        let unrolled_hist = unrolled.op_histogram();
        for (op, count) in base_hist {
            prop_assert_eq!(unrolled_hist.get(&op).copied().unwrap_or(0) as u64, count as u64 * factor);
        }
    }
}

/// Structured-communication-axis invariants: rebuilding a design point from
/// the same [`plaid_arch::CommSpec`] is deterministic (identical fabric
/// signature), and capacity / select-bit provisioning is monotone in the
/// bandwidth class.
mod comm_spec_properties {
    use super::*;
    use plaid_arch::{ArchClass, BwClass, CommSpec, DesignPoint, Topology};
    use plaid_mapper::{fabric_signature, fabric_signature_nocap};

    fn arbitrary_comm_spec() -> impl Strategy<Value = CommSpec> {
        (0u32..4, 0usize..4).prop_map(|(topo, bw)| {
            let topology = match topo {
                0 => Topology::Mesh,
                1 => Topology::Torus,
                2 => Topology::Express { stride: 2 },
                _ => Topology::Express { stride: 3 },
            };
            CommSpec::uniform(topology, BwClass::ALL[bw])
        })
    }

    fn point(class: ArchClass, comm: CommSpec) -> DesignPoint {
        // 3x5 so every generated topology (express strides up to 3) adds
        // a link the torus lacks and the points stay valid.
        DesignPoint {
            class,
            rows: 3,
            cols: 5,
            config_entries: 16,
            comm,
        }
    }

    fn total_switch_capacity(p: &DesignPoint) -> u64 {
        p.build()
            .resources()
            .iter()
            .filter(|r| !r.kind.is_func_unit())
            .map(|r| u64::from(r.kind.capacity()))
            .sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Same spec => bit-identical fabric: two independent rebuilds hash
        /// to the same full and no-capacity signatures, and the structured
        /// spec survives a JSON round trip of its design point.
        #[test]
        fn rebuild_round_trips_for_random_specs(comm in arbitrary_comm_spec()) {
            for class in [ArchClass::SpatioTemporal, ArchClass::Plaid] {
                let p = point(class, comm);
                let a = p.build();
                let b = p.build();
                prop_assert_eq!(fabric_signature(&a), fabric_signature(&b));
                prop_assert_eq!(fabric_signature_nocap(&a), fabric_signature_nocap(&b));
                prop_assert_eq!(a.name(), b.name());
                let json = serde_json::to_string(&p).unwrap();
                let back: DesignPoint = serde_json::from_str(&json).unwrap();
                prop_assert_eq!(back, p);
                // Bandwidth never changes the structure, only capacities:
                // the no-capacity signature matches the family's.
                let family = DesignPoint { comm: comm.structural_family(), ..p };
                prop_assert_eq!(
                    fabric_signature_nocap(&family.build()),
                    fabric_signature_nocap(&a)
                );
            }
        }

        /// Raising a uniform bandwidth class never lowers any switch
        /// capacity sum or the select-bit budget (monotone provisioning).
        #[test]
        fn capacity_and_bits_are_monotone_in_bw_class(
            topo in 0u32..3,
            lo in 0usize..4,
            hi in 0usize..4,
        ) {
            let topology = match topo {
                0 => Topology::Mesh,
                1 => Topology::Torus,
                _ => Topology::Express { stride: 2 },
            };
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            let lean = CommSpec::uniform(topology, BwClass::ALL[lo]);
            let rich = CommSpec::uniform(topology, BwClass::ALL[hi]);
            for class in [ArchClass::SpatioTemporal, ArchClass::Plaid] {
                let lean_point = point(class, lean);
                let rich_point = point(class, rich);
                prop_assert!(
                    total_switch_capacity(&lean_point) <= total_switch_capacity(&rich_point)
                );
                prop_assert!(
                    lean_point.params().config.communication_bits
                        <= rich_point.params().config.communication_bits
                );
            }
        }
    }
}

/// Mapping invariants on random DFGs: any mapping the SA mapper produces
/// passes the independent validator (FU exclusivity, timing, capacities).
mod mapping_properties {
    use super::*;
    use plaid_arch::spatio_temporal;
    use plaid_mapper::{Mapper, SaMapper};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn sa_mappings_validate(dfg in arbitrary_dfg()) {
            let arch = spatio_temporal::build(4, 4);
            if let Ok(mapping) = SaMapper::default().map(&dfg, &arch) {
                // `validate` puts every node on a functional unit, no two in
                // one (FU, cycle mod II) slot; with no placement beyond the
                // DFG's nodes, at most one node fills each of the FUs × II
                // issue slots.
                prop_assert!(mapping.validate(&dfg, &arch).is_ok());
                prop_assert_eq!(mapping.placements.len(), dfg.node_count());
                prop_assert!(mapping.ii >= plaid_mapper::mii(&dfg, &arch));
            }
        }
    }
}

/// Warm-start invariants: on any random DFG, a seeded `SaMapper` or
/// `PathFinderMapper` run produces a valid mapping that is never slower
/// (achieved II, hence total cycles) than the unseeded run on the same
/// point, and a seed captured on an incompatible fabric falls back to the
/// exact cold result.
mod warm_start_properties {
    use super::*;
    use plaid_arch::spatio_temporal;
    use plaid_mapper::{MapSeed, PathFinderMapper, SaMapper, SeededMapping};
    use proptest::test_runner::TestCaseError;

    /// Runs one mapper closure cold and seeded-with-its-own-seed, checking
    /// the seeded result is valid and no slower.
    fn check_self_seed(
        dfg: &Dfg,
        map: impl Fn(Option<&MapSeed>) -> Result<SeededMapping, plaid_mapper::MapError>,
    ) -> Result<(), TestCaseError> {
        let arch = spatio_temporal::build(4, 4);
        let Ok(cold) = map(None) else {
            // Nothing to compare against; infeasible DFGs are exercised by
            // the fallback property below.
            return Ok(());
        };
        let hint = MapSeed {
            seed: Some(cold.seed.clone()),
            infeasible: None,
        };
        let warm = map(Some(&hint));
        prop_assert!(warm.is_ok(), "own seed must replay");
        let warm = warm.unwrap();
        prop_assert!(warm.mapping.validate(dfg, &arch).is_ok());
        prop_assert!(warm.mapping.ii <= cold.mapping.ii);
        let iterations = dfg.total_iterations();
        prop_assert!(
            warm.mapping.total_cycles(iterations) <= cold.mapping.total_cycles(iterations)
        );
        Ok(())
    }

    /// Seeds captured on a structurally different fabric must not change
    /// the result: the mapper rejects the replay and anneals from scratch,
    /// reproducing the cold mapping exactly.
    fn check_foreign_seed_fallback(
        donor: impl Fn() -> Result<SeededMapping, plaid_mapper::MapError>,
        map: impl Fn(Option<&MapSeed>) -> Result<SeededMapping, plaid_mapper::MapError>,
    ) -> Result<(), TestCaseError> {
        let Ok(foreign) = donor() else {
            return Ok(());
        };
        let hint = MapSeed {
            seed: Some(foreign.seed),
            infeasible: None,
        };
        match (map(None), map(Some(&hint))) {
            (Ok(cold), Ok(warm)) => {
                prop_assert_eq!(warm.mapping.ii, cold.mapping.ii);
                prop_assert_eq!(warm.mapping.placements, cold.mapping.placements);
                prop_assert_eq!(warm.mapping.routes, cold.mapping.routes);
            }
            (Err(_), Err(_)) => {}
            (cold, warm) => {
                return Err(TestCaseError::fail(format!(
                    "foreign seed changed feasibility: cold ok={} warm ok={}",
                    cold.is_ok(),
                    warm.is_ok()
                )));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn seeded_sa_runs_validate_and_never_regress(dfg in arbitrary_dfg()) {
            let arch = spatio_temporal::build(4, 4);
            check_self_seed(&dfg, |hint| SaMapper::default().map_with_seed(&dfg, &arch, hint))?;
        }

        #[test]
        fn seeded_pathfinder_runs_validate_and_never_regress(dfg in arbitrary_dfg()) {
            let arch = spatio_temporal::build(4, 4);
            check_self_seed(&dfg, |hint| {
                PathFinderMapper::default().map_with_seed(&dfg, &arch, hint)
            })?;
        }

        #[test]
        fn foreign_seeds_fall_back_to_the_cold_result(dfg in arbitrary_dfg()) {
            let arch = spatio_temporal::build(4, 4);
            let small = spatio_temporal::build(3, 3);
            check_foreign_seed_fallback(
                || SaMapper::default().map_with_seed(&dfg, &small, None),
                |hint| SaMapper::default().map_with_seed(&dfg, &arch, hint),
            )?;
            check_foreign_seed_fallback(
                || PathFinderMapper::default().map_with_seed(&dfg, &small, None),
                |hint| PathFinderMapper::default().map_with_seed(&dfg, &arch, hint),
            )?;
        }
    }
}
