//! Programmatic enumeration of the compute × communication provisioning
//! space.
//!
//! The paper's thesis is that CGRA efficiency comes from *aligning* compute
//! provisioning (how many functional units, how deep the spatio-temporal
//! configuration memory) with communication provisioning (how rich the
//! routing fabric is). This module turns that question into an enumerable
//! grid: a [`SpaceSpec`] names the axes, [`SpaceSpec::enumerate`] yields
//! concrete [`DesignPoint`]s, and [`DesignPoint::build`] materializes each
//! point as an [`Architecture`] the mappers and cost model can evaluate.
//!
//! Three axes are exposed:
//!
//! * **execution class** — spatio-temporal, spatial or Plaid
//!   ([`ArchClass`]);
//! * **compute** — array dimensions (PE/PCU counts) and configuration-memory
//!   depth (`config_entries`, the spatio-temporal axis that bounds the
//!   maximum initiation interval);
//! * **communication** — a [`CommSpec`]: NoC topology (mesh, torus
//!   wraparound, express links) and a bandwidth class that scales switch
//!   capacities and the communication share of the [`crate::ConfigBudget`].
//!   Its presets reproduce the earlier scalar levels bit-exactly (see
//!   [`crate::comm`]).

use serde::{Deserialize, Serialize};

use crate::architecture::{ArchClass, Architecture, Provision};
use crate::comm::CommSpec;
use crate::params::ArchParams;
use crate::plaid::{self, SpecializationPlan};
use crate::spatio_temporal;

/// One concrete point on the provisioning grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Execution-paradigm class.
    pub class: ArchClass,
    /// Tile rows (PEs for the baselines, PCUs for Plaid).
    pub rows: u32,
    /// Tile columns.
    pub cols: u32,
    /// Configuration-memory depth (bounds the maximum initiation interval).
    pub config_entries: u32,
    /// Communication provisioning (topology + bandwidth class).
    pub comm: CommSpec,
}

impl DesignPoint {
    /// Canonical label, e.g. `plaid-2x2/d16/aligned` or
    /// `plaid-2x2/d16/torus-hh`. Stable across runs — the explore cache keys
    /// include it, and legacy preset specs keep their scalar-era labels.
    pub fn label(&self) -> String {
        format!(
            "{}-{}x{}/d{}/{}",
            self.class.label(),
            self.rows,
            self.cols,
            self.config_entries,
            self.comm.label()
        )
    }

    /// Structural parameters of this point: the class defaults re-sized by
    /// the configuration depth and communication spec.
    pub fn params(&self) -> ArchParams {
        let mut p = match self.class {
            ArchClass::SpatioTemporal | ArchClass::Spatial => {
                ArchParams::baseline(self.rows, self.cols)
            }
            ArchClass::Plaid => ArchParams::plaid(self.rows, self.cols),
        };
        p.config_entries = self.config_entries;
        p.config.communication_bits = self.comm.select_bits(p.config.communication_bits);
        p
    }

    /// Number of functional units this point provisions (the compute axis).
    pub fn compute_units(&self) -> u32 {
        let per_tile = match self.class {
            ArchClass::SpatioTemporal | ArchClass::Spatial => 1,
            // Three ALUs plus the ALSU.
            ArchClass::Plaid => plaid::ALUS_PER_PCU as u32 + 1,
        };
        self.rows * self.cols * per_tile
    }

    /// Whether the point is structurally meaningful: non-zero array and
    /// configuration depth, a valid comm spec, and — for express
    /// topologies — a stride that adds a link the torus lacks. Along a
    /// dimension of size `d`, stride `s` links `x` to `x + s` wherever
    /// `x + s < d`, and that link is a torus wraparound only for `x = 0`,
    /// `s = d − 1`; so a stride adds a new link exactly when
    /// `stride + 1 < rows.max(cols)`. A longer stride would build the mesh
    /// or the torus while still paying the express select-bit overhead, so
    /// such degenerate points are rejected rather than mispriced. (A torus
    /// on a 2-wide array also degenerates to the mesh, but at *zero* extra
    /// cost — its wraparound deduplicates and it carries no bit overhead —
    /// so it stays valid.)
    pub fn is_valid(&self) -> bool {
        if self.rows == 0 || self.cols == 0 || self.config_entries == 0 || !self.comm.is_valid() {
            return false;
        }
        match self.comm.topology {
            crate::comm::Topology::Express { stride } => stride + 1 < self.rows.max(self.cols),
            _ => true,
        }
    }

    /// Materializes the point as a mapper-ready [`Architecture`] in one pass
    /// of its class builder: the bandwidth class scales every switch and the
    /// topology adds its links.
    ///
    /// # Panics
    ///
    /// Panics if the point is invalid ([`DesignPoint::is_valid`]); invalid
    /// points should be filtered before building — [`SpaceSpec::enumerate`]
    /// never yields them.
    pub fn build(&self) -> Architecture {
        assert!(self.is_valid(), "invalid design point {self:?}");
        let provision = Provision {
            name: self.label(),
            params: self.params(),
            topology: self.comm.topology,
            capacity: &|c| self.comm.bw.scale_capacity(c),
        };
        match self.class {
            ArchClass::Plaid => plaid::build_with(&SpecializationPlan::default(), &provision),
            class => spatio_temporal::build_with(class, &provision),
        }
    }
}

/// A declarative description of a provisioning subspace: the cross product of
/// the listed classes, dimensions, configuration depths and communication
/// specs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpaceSpec {
    /// Execution classes to enumerate.
    pub classes: Vec<ArchClass>,
    /// Array dimensions `(rows, cols)` to enumerate for every class.
    pub dims: Vec<(u32, u32)>,
    /// Configuration-memory depths to enumerate.
    pub config_entries: Vec<u32>,
    /// Communication specs to enumerate.
    pub comm_specs: Vec<CommSpec>,
}

impl SpaceSpec {
    /// The default exploration grid: all three classes, arrays from 2×2 up to
    /// 4×4, the paper's 16-entry configuration memory plus a shallower
    /// 8-entry variant, and the three legacy communication presets.
    pub fn default_grid() -> Self {
        SpaceSpec {
            classes: vec![
                ArchClass::SpatioTemporal,
                ArchClass::Spatial,
                ArchClass::Plaid,
            ],
            dims: vec![(2, 2), (3, 3), (4, 4)],
            config_entries: vec![8, 16],
            comm_specs: CommSpec::presets(),
        }
    }

    /// The full grid: all three classes, seven array sizes from 2×2 up to
    /// 6×6, configuration memories of 4 to 32 entries, and the three legacy
    /// communication presets (252 designs).
    pub fn full_grid() -> Self {
        SpaceSpec {
            classes: vec![
                ArchClass::SpatioTemporal,
                ArchClass::Spatial,
                ArchClass::Plaid,
            ],
            dims: vec![(2, 2), (2, 4), (3, 3), (4, 4), (3, 5), (4, 6), (6, 6)],
            config_entries: vec![4, 8, 16, 32],
            comm_specs: CommSpec::presets(),
        }
    }

    /// A minimal grid used by smoke tests and benches: one dimension per
    /// class at the published depth, the three legacy presets.
    pub fn smoke_grid() -> Self {
        SpaceSpec {
            classes: vec![ArchClass::SpatioTemporal, ArchClass::Plaid],
            dims: vec![(2, 2)],
            config_entries: vec![16],
            comm_specs: CommSpec::presets(),
        }
    }

    /// Replaces the communication axis with the cross product of the given
    /// topologies and bandwidth classes, in topology-major order.
    pub fn with_comm_grid(
        mut self,
        topologies: &[crate::comm::Topology],
        bw_classes: &[crate::comm::BwClass],
    ) -> Self {
        self.comm_specs = topologies
            .iter()
            .flat_map(|&t| bw_classes.iter().map(move |&b| CommSpec::uniform(t, b)))
            .collect();
        self
    }

    /// Number of points the spec will enumerate (before validity filtering).
    pub fn cardinality(&self) -> usize {
        self.classes.len() * self.dims.len() * self.config_entries.len() * self.comm_specs.len()
    }

    /// Enumerates the grid in a deterministic order, skipping invalid points
    /// (zero-sized arrays, zero-depth configuration memories, degenerate
    /// express strides — see [`DesignPoint::is_valid`]).
    ///
    /// **Stable-ordering contract.** The enumeration order — classes, then
    /// dimensions, then depth, then communication spec, each in the order
    /// listed in the spec — is part of this method's stable API: sweep
    /// records come back in plan order, pinned frontier fixtures assume it,
    /// and sharded sweeps rely on every host enumerating the same grid
    /// identically so that per-shard sub-plans line up across machines.
    /// (Shard *membership* itself is stronger still — it is keyed by
    /// content hashes, so it survives even a reordering — but the merged
    /// record order is plan order, i.e. this order.) Changing it is a
    /// breaking change that invalidates pinned sweep outputs.
    pub fn enumerate(&self) -> Vec<DesignPoint> {
        let mut points = Vec::with_capacity(self.cardinality());
        for &class in &self.classes {
            for &(rows, cols) in &self.dims {
                for &config_entries in &self.config_entries {
                    for &comm in &self.comm_specs {
                        let point = DesignPoint {
                            class,
                            rows,
                            cols,
                            config_entries,
                            comm,
                        };
                        if point.is_valid() {
                            points.push(point);
                        }
                    }
                }
            }
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{BwClass, Topology};
    use crate::spatial;

    #[test]
    fn default_grid_enumerates_the_full_cross_product() {
        let spec = SpaceSpec::default_grid();
        let points = spec.enumerate();
        assert_eq!(points.len(), spec.cardinality());
        assert_eq!(points.len(), 3 * 3 * 2 * 3);
        // Deterministic: a second enumeration is identical.
        assert_eq!(points, spec.enumerate());
        // All labels unique.
        let mut labels: Vec<String> = points.iter().map(DesignPoint::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), points.len());
    }

    #[test]
    fn enumeration_order_is_pinned() {
        // The stable-ordering contract of `SpaceSpec::enumerate`: axes nest
        // classes > dims > depth > comm, each in spec-listed order. Sharded
        // sweeps and pinned frontier fixtures both assume this exact
        // sequence, so a change here must be deliberate and coordinated.
        let spec = SpaceSpec {
            classes: vec![ArchClass::Plaid, ArchClass::Spatial],
            dims: vec![(3, 3), (2, 2)],
            config_entries: vec![16, 8],
            comm_specs: vec![CommSpec::RICH, CommSpec::ALIGNED],
        };
        let labels: Vec<String> = spec.enumerate().iter().map(DesignPoint::label).collect();
        assert_eq!(
            labels,
            vec![
                "plaid-3x3/d16/rich",
                "plaid-3x3/d16/aligned",
                "plaid-3x3/d8/rich",
                "plaid-3x3/d8/aligned",
                "plaid-2x2/d16/rich",
                "plaid-2x2/d16/aligned",
                "plaid-2x2/d8/rich",
                "plaid-2x2/d8/aligned",
                "spatial-3x3/d16/rich",
                "spatial-3x3/d16/aligned",
                "spatial-3x3/d8/rich",
                "spatial-3x3/d8/aligned",
                "spatial-2x2/d16/rich",
                "spatial-2x2/d16/aligned",
                "spatial-2x2/d8/rich",
                "spatial-2x2/d8/aligned",
            ]
        );
        // The default grid's endpoints are pinned too: the 216-point sweep
        // artifacts (frontier JSON, shard caches) are diffed byte-for-byte
        // in CI, so its first and last points are load-bearing.
        let default_points = SpaceSpec::default_grid().enumerate();
        assert_eq!(default_points.len(), 54);
        assert_eq!(
            default_points.first().unwrap().label(),
            "spatio-temporal-2x2/d8/lean"
        );
        assert_eq!(default_points.last().unwrap().label(), "plaid-4x4/d16/rich");
    }

    #[test]
    fn invalid_points_are_skipped() {
        let spec = SpaceSpec {
            classes: vec![ArchClass::Plaid],
            dims: vec![(0, 2), (2, 2)],
            config_entries: vec![0, 16],
            comm_specs: vec![
                CommSpec::ALIGNED,
                CommSpec::uniform(Topology::Express { stride: 1 }, BwClass::Base),
                // Degenerate: a stride-2 express on a 2x2 array builds zero
                // express links but would still pay the select-bit overhead.
                CommSpec::uniform(Topology::Express { stride: 2 }, BwClass::Base),
            ],
        };
        let points = spec.enumerate();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].rows, 2);
        assert_eq!(points[0].config_entries, 16);
        assert_eq!(points[0].comm, CommSpec::ALIGNED);
        // The same stride adds links the torus lacks on a 4-wide array.
        let wide = DesignPoint {
            class: ArchClass::Plaid,
            rows: 2,
            cols: 4,
            config_entries: 16,
            comm: CommSpec::uniform(Topology::Express { stride: 2 }, BwClass::Base),
        };
        assert!(wide.is_valid());
    }

    #[test]
    fn built_architecture_reflects_the_point() {
        let point = DesignPoint {
            class: ArchClass::SpatioTemporal,
            rows: 3,
            cols: 3,
            config_entries: 8,
            comm: CommSpec::ALIGNED,
        };
        let arch = point.build();
        assert_eq!(arch.functional_units().count(), 9);
        assert_eq!(arch.params().config_entries, 8);
        assert_eq!(arch.params().max_ii(), 8);
        assert_eq!(arch.name(), "spatio-temporal-3x3/d8/aligned");
    }

    #[test]
    fn comm_presets_scale_capacity_and_bits_monotonically() {
        let base = DesignPoint {
            class: ArchClass::Plaid,
            rows: 2,
            cols: 2,
            config_entries: 16,
            comm: CommSpec::ALIGNED,
        };
        let lean = DesignPoint {
            comm: CommSpec::LEAN,
            ..base
        };
        let rich = DesignPoint {
            comm: CommSpec::RICH,
            ..base
        };
        let bits = |p: &DesignPoint| p.params().config.communication_bits;
        assert!(bits(&lean) < bits(&base));
        assert!(bits(&base) < bits(&rich));
        // Structural capacities scale the same way.
        let total_capacity = |p: &DesignPoint| -> u32 {
            p.build()
                .resources()
                .iter()
                .map(|r| match r.kind {
                    crate::resource::ResourceKind::Switch { capacity } => capacity,
                    _ => 0,
                })
                .sum()
        };
        assert!(total_capacity(&lean) < total_capacity(&base));
        assert!(total_capacity(&base) < total_capacity(&rich));
        // Compute provisioning is independent of the communication spec.
        assert_eq!(lean.compute_units(), rich.compute_units());
        assert_eq!(base.compute_units(), 16);
    }

    #[test]
    fn torus_and_express_points_add_wraparound_links() {
        let mesh = DesignPoint {
            class: ArchClass::SpatioTemporal,
            rows: 4,
            cols: 4,
            config_entries: 16,
            comm: CommSpec::ALIGNED,
        };
        let torus = DesignPoint {
            comm: CommSpec::uniform(Topology::Torus, BwClass::Base),
            ..mesh
        };
        let express = DesignPoint {
            comm: CommSpec::uniform(Topology::Express { stride: 2 }, BwClass::Base),
            ..mesh
        };
        let mesh_arch = mesh.build();
        let torus_arch = torus.build();
        let express_arch = express.build();
        // Same resources, more links.
        assert_eq!(mesh_arch.resources().len(), torus_arch.resources().len());
        // Torus: 4 rows + 4 cols of wraparound, bidirectional.
        assert_eq!(
            torus_arch.links().len(),
            mesh_arch.links().len() + 2 * (4 + 4)
        );
        // Express stride 2: two links per row and per column, bidirectional.
        assert_eq!(
            express_arch.links().len(),
            mesh_arch.links().len() + 2 * (2 * 4 + 2 * 4)
        );
        // Labels carry the topology.
        assert_eq!(torus.label(), "spatio-temporal-4x4/d16/torus");
        assert_eq!(express.label(), "spatio-temporal-4x4/d16/xp2");
        // A torus on a 2-wide array degenerates to the mesh (wraparound
        // duplicates the neighbour link and is deduplicated).
        let small_mesh = DesignPoint {
            rows: 2,
            cols: 2,
            ..mesh
        };
        let small_torus = DesignPoint {
            rows: 2,
            cols: 2,
            ..torus
        };
        assert_eq!(
            small_mesh.build().links().len(),
            small_torus.build().links().len()
        );
    }

    /// A canonical dump of every field of `arch`, written field by field
    /// (`{:?}` output is not a format std promises to keep).
    fn dump(arch: &Architecture, out: &mut String) {
        use crate::params::HardwiredPattern;
        use crate::resource::ResourceKind;
        use std::fmt::Write;
        let id = |r: Option<crate::ResourceId>| r.map_or(-1, |r| i64::from(r.0));
        let params = serde_json::to_string(arch.params()).unwrap();
        writeln!(out, "{} {} {params}", arch.name(), arch.class().label()).unwrap();
        for r in arch.resources() {
            let kind = match r.kind {
                ResourceKind::FuncUnit(caps) => format!("fu {} {}", caps.compute, caps.memory),
                ResourceKind::Switch { capacity } => format!("sw {capacity}"),
            };
            writeln!(out, "r {} {} {kind} {}", r.id.0, r.name, r.tile).unwrap();
        }
        for l in arch.links() {
            writeln!(out, "l {} {} {}", l.from.0, l.to.0, l.latency).unwrap();
        }
        for c in arch.clusters() {
            let alus: Vec<String> = c.alus.iter().map(|a| a.0.to_string()).collect();
            let hardwired = match c.hardwired {
                None => "-",
                Some(HardwiredPattern::FanIn) => "fan-in",
                Some(HardwiredPattern::FanOut) => "fan-out",
                Some(HardwiredPattern::Unicast) => "unicast",
            };
            writeln!(
                out,
                "c {} [{}] {} {} {} {hardwired}",
                c.tile,
                alus.join(","),
                id(c.alsu),
                id(c.local_router),
                c.global_router.0
            )
            .unwrap();
        }
        for tile in 0..arch.params().tile_count() as usize {
            let p = arch.tile_position(tile);
            writeln!(out, "t {tile} {} {}", p.x, p.y).unwrap();
        }
    }

    #[test]
    fn every_fabric_is_pinned() {
        // One FNV-1a digest over the canonical dump of every fabric the
        // explorer and the figures build: the full grid, the valid
        // communication-axis points on four array sizes, the published
        // instances and both machine-learning fabrics. Resource, link and
        // cluster order feed fabric signatures, seeds and record digests,
        // so a construction refactor must leave this digest as it is.
        let mut points = SpaceSpec::full_grid().enumerate();
        points.extend(
            SpaceSpec {
                dims: vec![(2, 2), (3, 3), (4, 4), (4, 6)],
                ..SpaceSpec::full_grid()
            }
            .with_comm_grid(
                &[
                    Topology::Mesh,
                    Topology::Torus,
                    Topology::Express { stride: 2 },
                    Topology::Express { stride: 3 },
                ],
                &[
                    BwClass::Half,
                    BwClass::Base,
                    BwClass::Boost,
                    BwClass::Double,
                ],
            )
            .enumerate(),
        );
        let mut fabrics: Vec<Architecture> = points.iter().map(DesignPoint::build).collect();
        fabrics.extend([
            spatio_temporal::build(4, 4),
            spatial::build(4, 4),
            plaid::build(2, 2),
            plaid::build(3, 3),
            crate::specialize::spatio_temporal_ml(4, 4),
            crate::specialize::plaid_ml_2x2(),
        ]);
        let mut text = String::new();
        for arch in &fabrics {
            dump(arch, &mut text);
        }
        let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(fabrics.len(), 786);
        assert_eq!(digest, 0x567f_91a2_7484_c705, "fabric digest moved");
    }

    #[test]
    fn design_points_serialize_round_trip() {
        let mut points = SpaceSpec::default_grid().enumerate();
        points.push(DesignPoint {
            class: ArchClass::Plaid,
            rows: 2,
            cols: 3,
            config_entries: 8,
            comm: CommSpec::uniform(Topology::Express { stride: 2 }, BwClass::Double),
        });
        for point in points {
            let json = serde_json::to_string(&point).unwrap();
            let back: DesignPoint = serde_json::from_str(&json).unwrap();
            assert_eq!(back, point);
        }
    }
}
