//! The spatial-CGRA mapper: DFG partitioning with scratch-pad spills.
//!
//! Spatial CGRAs (SNAFU / RipTide style) fix the fabric configuration for the
//! duration of a code segment: every DFG node owns a functional unit and data
//! streams through the array. Complex kernels whose DFGs exceed the fabric
//! must be *partitioned*; intermediate values crossing a partition boundary
//! are stored to the scratch-pad by the producing partition and re-loaded by
//! the consuming one, and the partitions execute back-to-back over the full
//! iteration space (Section 6.3 of the paper, which uses a partitioning
//! script for the same purpose).
//!
//! The mapper here is an analytical model of that execution style rather than
//! a place-and-route: each partition's throughput is limited by its memory
//! accesses per iteration (the scratch-pad has a fixed number of ports), its
//! recurrences, and the fabric size. This captures exactly the effects the
//! paper attributes to the spatial baseline: kernels with simple dependencies
//! match the spatio-temporal CGRA, while partitioned kernels pay for extra
//! loads/stores and extra passes.

use std::collections::{HashMap, HashSet};

use plaid_arch::{ArchClass, Architecture};
use plaid_dfg::{Dfg, NodeId};

use crate::error::MapError;
use crate::mii::rec_mii;

/// One spatial partition of the DFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Original DFG nodes assigned to this partition.
    pub nodes: Vec<NodeId>,
    /// Spill stores emitted by this partition (values consumed downstream).
    pub spill_stores: usize,
    /// Spill loads emitted by this partition (values produced upstream).
    pub spill_loads: usize,
    /// Effective initiation interval of the partition.
    pub ii: u32,
}

/// The result of spatial mapping: an ordered list of partitions executed
/// back-to-back over the full iteration space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpatialSchedule {
    /// Kernel name.
    pub kernel: String,
    /// Architecture name.
    pub arch_name: String,
    /// Partitions in execution order.
    pub partitions: Vec<Partition>,
}

impl SpatialSchedule {
    /// Total execution cycles over `iterations` loop iterations: partitions
    /// run sequentially, each streaming the full iteration space at its own
    /// initiation interval (plus a small pipeline-fill overhead).
    pub fn total_cycles(&self, iterations: u64) -> u64 {
        self.partitions
            .iter()
            .map(|p| iterations * u64::from(p.ii) + u64::from(p.nodes.len() as u32))
            .sum()
    }
}

/// The spatial mapper. It has no settings (the partition cap is the
/// fabric's functional-unit count); outside this crate it is built with
/// `SpatialMapper::default()`.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct SpatialMapper;

impl SpatialMapper {
    /// Partitions `dfg` for spatial execution on `arch`.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::UnsupportedDfg`] if `arch` is not a spatial-class
    /// architecture or offers no memory port while the DFG needs one.
    pub fn map_spatial(&self, dfg: &Dfg, arch: &Architecture) -> Result<SpatialSchedule, MapError> {
        if arch.class() != ArchClass::Spatial {
            return Err(MapError::UnsupportedDfg(format!(
                "spatial mapper requires a spatial-class architecture, got {}",
                arch.class().label()
            )));
        }
        if dfg.memory_node_count() > 0 && arch.memory_unit_count() == 0 {
            return Err(MapError::UnsupportedDfg(
                "DFG contains memory operations but the architecture has no memory port".into(),
            ));
        }
        let fabric_nodes = arch.functional_units().count();
        let memory_ports = arch.memory_unit_count().max(1);
        let order = dfg
            .topological_order()
            .map_err(|e| MapError::UnsupportedDfg(e.to_string()))?;

        // Greedy contiguous partitioning in topological order: a partition
        // closes when adding the next node would exceed the fabric.
        let mut assignment: HashMap<NodeId, usize> = HashMap::new();
        let mut partitions: Vec<Vec<NodeId>> = vec![Vec::new()];
        for &node in &order {
            let current = partitions.len() - 1;
            if partitions[current].len() + 1 > fabric_nodes {
                partitions.push(Vec::new());
            }
            let current = partitions.len() - 1;
            partitions[current].push(node);
            assignment.insert(node, current);
        }

        // Count spills: every distinct (value, consumer-partition) pair of a
        // data-carrying edge crossing partitions needs one store upstream and
        // one load downstream.
        let mut spill_stores = vec![HashSet::new(); partitions.len()];
        let mut spill_loads = vec![HashSet::new(); partitions.len()];
        for edge in dfg.edges() {
            if !dfg.edge_carries_data(edge) {
                continue;
            }
            let src_p = assignment[&edge.src];
            let dst_p = assignment[&edge.dst];
            if src_p != dst_p {
                spill_stores[src_p].insert(edge.src);
                spill_loads[dst_p].insert((edge.src, dst_p));
            }
        }

        let global_rec = rec_mii(dfg);
        let built: Vec<Partition> = partitions
            .iter()
            .enumerate()
            .map(|(i, nodes)| {
                let memory_nodes = nodes.iter().filter(|&&n| dfg.node(n).is_memory()).count();
                let stores = spill_stores[i].len();
                let loads = spill_loads[i].len();
                let has_recurrence = dfg
                    .recurrence_edges()
                    .any(|e| assignment[&e.src] == i || assignment[&e.dst] == i);
                let mem_bound = (memory_nodes + stores + loads).div_ceil(memory_ports) as u32;
                let rec_bound = if has_recurrence { global_rec } else { 1 };
                Partition {
                    nodes: nodes.clone(),
                    spill_stores: stores,
                    spill_loads: loads,
                    ii: mem_bound.max(rec_bound).max(1),
                }
            })
            .collect();

        Ok(SpatialSchedule {
            kernel: dfg.name().to_string(),
            arch_name: arch.name().to_string(),
            partitions: built,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_arch::{spatial, spatio_temporal};
    use plaid_dfg::kernel::{AffineExpr, Expr, KernelBuilder};
    use plaid_dfg::lower::lower_kernel;
    use plaid_dfg::Op;

    fn mac_kernel(unroll: u64) -> Dfg {
        let kernel = KernelBuilder::new("mac")
            .loop_var("i", 64)
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

    #[test]
    fn small_kernel_fits_in_one_partition() {
        let dfg = mac_kernel(1);
        let arch = spatial::build(4, 4);
        let schedule = SpatialMapper::default().map_spatial(&dfg, &arch).unwrap();
        assert_eq!(schedule.partitions.len(), 1);
        assert_eq!(schedule.partitions[0].spill_loads, 0);
        assert_eq!(schedule.partitions[0].spill_stores, 0);
        assert!(schedule.partitions[0].ii >= 1);
    }

    #[test]
    fn large_unrolled_kernel_is_partitioned_with_spills() {
        let dfg = mac_kernel(8);
        let arch = spatial::build(4, 4);
        let schedule = SpatialMapper::default().map_spatial(&dfg, &arch).unwrap();
        assert!(schedule.partitions.len() > 1);
        assert!(schedule
            .partitions
            .iter()
            .any(|p| p.spill_loads + p.spill_stores > 0));
        // Partitioning costs cycles: the schedule is slower than a single
        // partition streaming at the same II.
        let single_pass = dfg.total_iterations() * u64::from(schedule.partitions[0].ii);
        assert!(schedule.total_cycles(dfg.total_iterations()) > single_pass);
    }

    #[test]
    fn rejects_non_spatial_architecture() {
        let dfg = mac_kernel(1);
        let arch = spatio_temporal::build(4, 4);
        assert!(matches!(
            SpatialMapper::default().map_spatial(&dfg, &arch),
            Err(MapError::UnsupportedDfg(_))
        ));
    }

    #[test]
    fn memory_bound_ii_reflects_port_pressure() {
        let dfg = mac_kernel(2);
        let arch = spatial::build(4, 4);
        let schedule = SpatialMapper::default().map_spatial(&dfg, &arch).unwrap();
        // 6 memory ops over 4 ports -> II >= 2 (and >= RecMII of the
        // reduction).
        assert!(schedule.partitions[0].ii >= 2);
    }

    #[test]
    fn partition_size_is_capped_by_the_fabric() {
        let dfg = mac_kernel(4);
        let arch = spatial::build(2, 3);
        assert_eq!(arch.functional_units().count(), 6);
        let schedule = SpatialMapper::default().map_spatial(&dfg, &arch).unwrap();
        assert!(schedule.partitions.iter().all(|p| p.nodes.len() <= 6));
        assert!(schedule.partitions.len() >= 3);
    }

    #[test]
    fn total_cycles_scale_with_partitions() {
        let dfg = mac_kernel(4);
        let arch = spatial::build(4, 4);
        let schedule = SpatialMapper::default().map_spatial(&dfg, &arch).unwrap();
        let iters = dfg.total_iterations();
        let manual: u64 = schedule
            .partitions
            .iter()
            .map(|p| iters * u64::from(p.ii) + p.nodes.len() as u64)
            .sum();
        assert_eq!(schedule.total_cycles(iters), manual);
    }
}
