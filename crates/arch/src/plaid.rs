//! The Plaid architecture: a mesh of Plaid Collective Units (Figure 9).
//!
//! Each PCU groups three 16-bit ALUs and one ALSU around a *local* router
//! that collectively routes the internal dependencies of a three-node motif.
//! Adjacent ALUs are additionally connected by registered bypass paths, which
//! relieve pressure on the local router. A *global* router per PCU forms the
//! hierarchical NoC: it connects to the local router, to the ALSU (which owns
//! the scratch-pad port on edge PCUs) and to the global routers of the four
//! mesh neighbours.

use crate::architecture::{ArchBuilder, ArchClass, Architecture, Cluster, Position, Provision};
use crate::params::{ArchParams, HardwiredPattern};
use crate::resource::FuCaps;

/// Capacity of the PCU local router (the paper's 8×8 crossbar).
pub const LOCAL_ROUTER_CAPACITY: u32 = 8;
/// Capacity of the PCU global router (the paper's 7×9 crossbar).
pub const GLOBAL_ROUTER_CAPACITY: u32 = 7;
/// Number of ALUs per PCU (the three-node motif compute unit).
pub const ALUS_PER_PCU: usize = 3;

/// Per-PCU specialization plan used by [`build_with`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecializationPlan {
    /// `hardwired[tile]` fixes the motif pattern of that PCU's compute unit,
    /// replacing its local router with hardwired connections (Section 4.4).
    pub hardwired: Vec<Option<HardwiredPattern>>,
}

/// Builds a `rows × cols` PCU array as published (the paper evaluates 2×2
/// and 3×3).
///
/// # Panics
///
/// Panics if `rows` or `cols` is zero.
pub fn build(rows: u32, cols: u32) -> Architecture {
    build_with(
        &SpecializationPlan::default(),
        &Provision::published(
            format!("plaid-{rows}x{cols}"),
            ArchParams::plaid(rows, cols),
        ),
    )
}

/// Builds the PCU array `provision` describes, with the PCUs `plan`
/// hardwires.
///
/// # Panics
///
/// Panics if the array has a zero dimension or the plan lists more tiles
/// than the array has.
pub fn build_with(plan: &SpecializationPlan, provision: &Provision) -> Architecture {
    let (rows, cols) = (provision.params.rows, provision.params.cols);
    assert!(rows > 0 && cols > 0, "array dimensions must be non-zero");
    assert!(
        plan.hardwired.len() <= (rows * cols) as usize,
        "specialization plan lists more tiles than the array has"
    );
    let params = provision.params.clone();
    let mut b = ArchBuilder::new(provision.name.clone(), ArchClass::Plaid, params);

    let mut global_routers = Vec::new();
    for y in 0..rows {
        for x in 0..cols {
            let tile = b.add_tile(Position { x, y });
            let hardwired = plan.hardwired.get(tile).copied().flatten();
            let on_edge = x == 0 || y == 0 || x + 1 == cols || y + 1 == rows;

            let alus: Vec<_> = (0..ALUS_PER_PCU)
                .map(|i| b.add_func_unit(tile, format!("pcu{tile}.alu{i}"), FuCaps::ALU))
                .collect();
            let alsu_caps = if on_edge { FuCaps::ALSU } else { FuCaps::ALU };
            let alsu = b.add_func_unit(tile, format!("pcu{tile}.alsu"), alsu_caps);

            // A hardwired PCU replaces the local router by fixed connections;
            // we model this as a minimal-capacity switch (it can still carry
            // the motif's internal values, but nothing else).
            let capacity = |published| provision.switch_capacity(published);
            let local_capacity = capacity(hardwired.map_or(LOCAL_ROUTER_CAPACITY, |_| 3));
            let local = b.add_switch(tile, format!("pcu{tile}.local"), local_capacity);
            let global_capacity = capacity(GLOBAL_ROUTER_CAPACITY);
            let global = b.add_switch(tile, format!("pcu{tile}.global"), global_capacity);

            for &alu in &alus {
                b.bidirectional(alu, local, 0);
            }
            // Registered bypass paths between adjacent ALUs (left to right).
            for pair in alus.windows(2) {
                let bypass = b.add_switch(tile, format!("pcu{tile}.bypass"), capacity(1));
                b.link(pair[0], bypass, 0);
                b.link(bypass, pair[1], 1);
            }
            // Local <-> global datapath, with a one-cycle hold on each router
            // modelling the temporal buffering registers of Figure 9(c).
            b.bidirectional(local, global, 0);
            b.link(local, local, 1);
            b.link(global, global, 1);
            // The ALSU sits on the global datapath.
            b.bidirectional(alsu, global, 0);

            b.add_cluster(Cluster {
                tile,
                alus,
                alsu: Some(alsu),
                local_router: Some(local),
                global_router: global,
                hardwired,
            });
            global_routers.push(global);
        }
    }
    b.link_grid(&global_routers, rows, cols, provision.topology);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceKind;

    #[test]
    fn two_by_two_matches_four_by_four_fu_count() {
        let plaid = build(2, 2);
        assert_eq!(plaid.functional_units().count(), 16);
        assert_eq!(plaid.clusters().len(), 4);
        // All four PCUs sit on the array edge and own a scratch-pad port.
        assert_eq!(plaid.memory_unit_count(), 4);
        assert_eq!(plaid.class(), ArchClass::Plaid);
    }

    #[test]
    fn three_by_three_centre_pcu_has_no_memory_port() {
        let plaid = build(3, 3);
        assert_eq!(plaid.functional_units().count(), 36);
        // 8 edge PCUs have scratch-pad ports, the centre one does not.
        assert_eq!(plaid.memory_unit_count(), 8);
    }

    #[test]
    fn each_pcu_has_three_alus_one_alsu_and_two_routers() {
        let plaid = build(2, 2);
        for cluster in plaid.clusters() {
            assert_eq!(cluster.alus.len(), 3);
            assert!(cluster.alsu.is_some());
            assert!(cluster.local_router.is_some());
            let local = cluster.local_router.unwrap();
            assert_eq!(
                plaid.resource(local).kind,
                ResourceKind::Switch {
                    capacity: LOCAL_ROUTER_CAPACITY
                }
            );
            assert_eq!(
                plaid.resource(cluster.global_router).kind,
                ResourceKind::Switch {
                    capacity: GLOBAL_ROUTER_CAPACITY
                }
            );
        }
    }

    #[test]
    fn plaid_has_fewer_router_resources_than_the_baseline() {
        // The core claim: communication provisioning is trimmed. A 2x2 Plaid
        // has 8 routers (4 local + 4 global) versus 16 crossbars in the 4x4
        // baseline, for the same 16 functional units.
        let plaid = build(2, 2);
        let st = crate::spatio_temporal::build(4, 4);
        let plaid_routers = plaid
            .resources()
            .iter()
            .filter(|r| {
                !r.kind.is_func_unit() && (r.name.contains("local") || r.name.contains("global"))
            })
            .count();
        let st_routers = st
            .resources()
            .iter()
            .filter(|r| !r.kind.is_func_unit())
            .count();
        assert_eq!(plaid_routers, 8);
        assert_eq!(st_routers, 16);
    }

    #[test]
    fn bypass_paths_connect_adjacent_alus() {
        let plaid = build(2, 2);
        let cluster = &plaid.clusters()[0];
        // alu0 -> bypass -> alu1 and alu1 -> bypass -> alu2 exist.
        for pair in cluster.alus.windows(2) {
            let reaches = plaid.out_links(pair[0]).any(|l| {
                plaid
                    .out_links(l.to)
                    .any(|l2| l2.to == pair[1] && !plaid.resource(l.to).kind.is_func_unit())
            });
            assert!(reaches, "no bypass path between adjacent ALUs");
        }
    }

    #[test]
    fn specialization_plan_hardwires_pcus() {
        let plan = SpecializationPlan {
            hardwired: vec![
                Some(HardwiredPattern::FanIn),
                Some(HardwiredPattern::FanIn),
                Some(HardwiredPattern::Unicast),
                Some(HardwiredPattern::FanOut),
            ],
        };
        let plaid_ml = build_with(
            &plan,
            &Provision::published("plaid-hardwired-2x2", ArchParams::plaid(2, 2)),
        );
        let hardwired: Vec<_> = plaid_ml.clusters().iter().map(|c| c.hardwired).collect();
        assert_eq!(hardwired.iter().filter(|h| h.is_some()).count(), 4);
        // Hardwired PCUs have a reduced local switch capacity.
        let local = plaid_ml.clusters()[0].local_router.unwrap();
        assert_eq!(plaid_ml.resource(local).kind.capacity(), 3);
    }

    #[test]
    fn global_routers_form_a_mesh() {
        let plaid = build(2, 2);
        let globals: Vec<_> = plaid.clusters().iter().map(|c| c.global_router).collect();
        // Corner PCU global router connects to exactly 2 neighbouring globals.
        let neighbours = plaid
            .out_links(globals[0])
            .filter(|l| globals.contains(&l.to) && l.to != globals[0])
            .count();
        assert_eq!(neighbours, 2);
    }
}
