//! The baseline high-performance spatio-temporal CGRA (Figure 3).
//!
//! A `rows × cols` mesh of processing elements. Each PE couples a 16-bit ALU
//! with a crossbar router and a register file, reconfigured every cycle from
//! a 16-entry configuration memory. PEs in the first column have a port into
//! the scratch-pad memory and can execute loads and stores.

use crate::architecture::{ArchBuilder, ArchClass, Architecture, Cluster, Position, Provision};
use crate::params::ArchParams;
use crate::resource::FuCaps;

/// Capacity (simultaneous distinct values per cycle) of a PE crossbar router:
/// four mesh directions plus the ALU port.
pub const PE_ROUTER_CAPACITY: u32 = 5;

/// Builds a `rows × cols` spatio-temporal CGRA as published.
///
/// # Panics
///
/// Panics if `rows` or `cols` is zero.
pub fn build(rows: u32, cols: u32) -> Architecture {
    build_with(
        ArchClass::SpatioTemporal,
        &Provision::published(
            format!("spatio-temporal-{rows}x{cols}"),
            ArchParams::baseline(rows, cols),
        ),
    )
}

/// Builds the PE array `provision` describes, as a spatio-temporal or a
/// spatial fabric (the two classes share it).
///
/// # Panics
///
/// Panics if the array has a zero dimension or `class` is Plaid.
pub fn build_with(class: ArchClass, provision: &Provision) -> Architecture {
    let (rows, cols) = (provision.params.rows, provision.params.cols);
    assert!(rows > 0 && cols > 0, "array dimensions must be non-zero");
    assert!(
        class != ArchClass::Plaid,
        "a PE array is not a Plaid fabric"
    );
    let mut b = ArchBuilder::new(provision.name.clone(), class, provision.params.clone());

    let mut routers = Vec::new();
    for y in 0..rows {
        for x in 0..cols {
            let tile = b.add_tile(Position { x, y });
            let caps = if x == 0 { FuCaps::ALSU } else { FuCaps::ALU };
            let fu = b.add_func_unit(tile, format!("pe{tile}.fu"), caps);
            let capacity = provision.switch_capacity(PE_ROUTER_CAPACITY);
            let router = b.add_switch(tile, format!("pe{tile}.router"), capacity);
            // ALU <-> crossbar, combinational; crossbar self-loop models the
            // register file holding a value across cycles.
            b.bidirectional(fu, router, 0);
            b.link(router, router, 1);
            b.add_cluster(Cluster {
                tile,
                alus: vec![fu],
                alsu: None,
                local_router: None,
                global_router: router,
                hardwired: None,
            });
            routers.push(router);
        }
    }
    b.link_grid(&routers, rows, cols, provision.topology);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_by_four_has_sixteen_fus() {
        let arch = build(4, 4);
        assert_eq!(arch.functional_units().count(), 16);
        assert_eq!(arch.compute_unit_count(), 16);
        // One column of memory-capable PEs.
        assert_eq!(arch.memory_unit_count(), 4);
        assert_eq!(arch.clusters().len(), 16);
        assert_eq!(arch.class(), ArchClass::SpatioTemporal);
    }

    #[test]
    fn mesh_links_connect_neighbours_only() {
        let arch = build(4, 4);
        // Each router has a self-loop plus 2-4 mesh neighbours plus the FU.
        for cluster in arch.clusters() {
            let router = cluster.global_router;
            let degree = arch
                .out_links(router)
                .filter(|l| l.to != router && !arch.resource(l.to).kind.is_func_unit())
                .count();
            assert!((2..=4).contains(&degree), "router degree {degree}");
        }
    }

    #[test]
    fn corner_and_centre_distances() {
        let arch = build(4, 4);
        let fu_at = |x: u32, y: u32| arch.clusters()[(y * 4 + x) as usize].alus[0];
        assert_eq!(arch.resource_distance(fu_at(0, 0), fu_at(3, 3)), 6);
        assert_eq!(arch.resource_distance(fu_at(1, 1), fu_at(2, 1)), 1);
    }

    #[test]
    fn scaling_to_six_by_six() {
        let arch = build(6, 6);
        assert_eq!(arch.functional_units().count(), 36);
        assert_eq!(arch.memory_unit_count(), 6);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = build(0, 4);
    }
}
