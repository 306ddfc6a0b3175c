//! Analytical area / power / energy cost models.
//!
//! # Calibration
//!
//! The paper reports post-synthesis numbers from a 22 nm FDSOI flow at
//! 100 MHz; this reproduction has no silicon flow, so per-component constants
//! are calibrated once against two anchors from the paper and everything else
//! is derived structurally from the architecture description:
//!
//! * the power split of the spatio-temporal baseline (Figure 2(a): routers
//!   ~15 %, communication configuration ~29 %, compute configuration ~19 %,
//!   compute ~28 %, others ~9 %), and
//! * the area split of the 2×2 Plaid fabric (Figure 13: local routers ~9 %,
//!   global routers ~30 %, compute configuration ~24 %, communication
//!   configuration ~21 %, compute ~11 %, others ~5 %; total 33,366 µm²).
//!
//! Configuration memory is modelled as a per-tile peripheral overhead plus a
//! per-bit cost, which is what makes consolidating sixteen small PE
//! configuration memories into four PCU memories profitable — the effect the
//! paper exploits. Spatial CGRAs clock-gate their configuration memories, so
//! only a small leakage fraction of the configuration power remains.

use plaid_arch::{ArchClass, Architecture, Domain, ResourceKind};

/// Clock frequency of all modelled fabrics (Hz). The paper synthesizes at
/// 100 MHz.
pub const CLOCK_HZ: f64 = 100_000_000.0;

/// Fabric power broken down per component class, in µW.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// Local routers (Plaid) — zero for the baselines.
    pub local_routers: f64,
    /// Global routers / PE crossbars.
    pub global_routers: f64,
    /// NoC wiring beyond the mesh baseline (torus wraparound, express
    /// links), charged per tile-unit of extra wire length — zero on the
    /// published mesh fabrics.
    pub noc_wiring: f64,
    /// Communication configuration memory.
    pub comm_config: f64,
    /// Compute configuration memory.
    pub compute_config: f64,
    /// Functional units.
    pub compute: f64,
    /// Register files, clocking and miscellaneous.
    pub others: f64,
}

impl PowerBreakdown {
    /// Total fabric power in µW.
    pub fn total(&self) -> f64 {
        self.local_routers
            + self.global_routers
            + self.noc_wiring
            + self.comm_config
            + self.compute_config
            + self.compute
            + self.others
    }

    /// All router power (local + global).
    pub fn routers(&self) -> f64 {
        self.local_routers + self.global_routers
    }

    /// Fraction of the total attributable to a component value.
    pub fn share(&self, component: f64) -> f64 {
        if self.total() == 0.0 {
            0.0
        } else {
            component / self.total()
        }
    }
}

/// Fabric area broken down per component class, in µm².
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaBreakdown {
    /// Local routers (Plaid) — zero for the baselines.
    pub local_routers: f64,
    /// Global routers / PE crossbars.
    pub global_routers: f64,
    /// NoC wiring beyond the mesh baseline (torus wraparound, express
    /// links), charged per tile-unit of extra wire length — zero on the
    /// published mesh fabrics.
    pub noc_wiring: f64,
    /// Communication configuration memory.
    pub comm_config: f64,
    /// Compute configuration memory.
    pub compute_config: f64,
    /// Functional units.
    pub compute: f64,
    /// Register files, clocking and miscellaneous.
    pub others: f64,
}

impl AreaBreakdown {
    /// Total fabric area in µm².
    pub fn total(&self) -> f64 {
        self.local_routers
            + self.global_routers
            + self.noc_wiring
            + self.comm_config
            + self.compute_config
            + self.compute
            + self.others
    }

    /// All router area (local + global).
    pub fn routers(&self) -> f64 {
        self.local_routers + self.global_routers
    }

    /// Fraction of the total attributable to a component value.
    pub fn share(&self, component: f64) -> f64 {
        if self.total() == 0.0 {
            0.0
        } else {
            component / self.total()
        }
    }
}

/// Per-component constants of the cost model. Construct via
/// [`CostModel::default`] (the calibrated 22 nm-like values) unless a test
/// needs to explore sensitivity.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    // ---- power, µW ----
    /// Power of one 16-bit ALU.
    pub alu_power: f64,
    /// Power of one ALSU (ALU plus scratch-pad port and AGU).
    pub alsu_power: f64,
    /// Power of one baseline PE crossbar router.
    pub pe_crossbar_power: f64,
    /// Power of one Plaid local (8×8) router.
    pub local_router_power: f64,
    /// Power of one Plaid global (7×9) router.
    pub global_router_power: f64,
    /// Power of one registered ALU-to-ALU bypass path.
    pub bypass_power: f64,
    /// Per-tile configuration-memory peripheral power (decoder, sense amps),
    /// charged once per tile per configuration class.
    pub config_tile_power: f64,
    /// Per-bit power of communication configuration read every cycle.
    pub comm_config_bit_power: f64,
    /// Per-bit power of compute configuration read every cycle.
    pub compute_config_bit_power: f64,
    /// Fraction of configuration power remaining when the configuration
    /// memory is clock-gated (spatial CGRAs).
    pub clock_gated_fraction: f64,
    /// Miscellaneous power per tile (clock tree, registers).
    pub misc_tile_power: f64,
    /// Power per tile-unit of NoC wire length *beyond* the mesh baseline
    /// (registered repeaters on torus wraparound and express links). The
    /// mesh links themselves are already folded into the router constants
    /// the model was calibrated with, so mesh fabrics are charged nothing.
    pub noc_wire_power_per_unit: f64,
    // ---- area, µm² ----
    /// Area of one 16-bit ALU.
    pub alu_area: f64,
    /// Area of one ALSU.
    pub alsu_area: f64,
    /// Area of one baseline PE crossbar router.
    pub pe_crossbar_area: f64,
    /// Area of one Plaid local router.
    pub local_router_area: f64,
    /// Area of one Plaid global router.
    pub global_router_area: f64,
    /// Area of one bypass path.
    pub bypass_area: f64,
    /// Per-tile configuration-memory peripheral area, per configuration class.
    pub config_tile_area: f64,
    /// Per-bit configuration memory area (bit-cells).
    pub config_bit_area: f64,
    /// Miscellaneous area per tile.
    pub misc_tile_area: f64,
    /// Area per tile-unit of NoC wire length beyond the mesh baseline (wire
    /// track plus repeater; see [`CostModel::noc_wire_power_per_unit`]).
    pub noc_wire_area_per_unit: f64,
    /// Factor applied to compute datapaths of ML-pruned variants.
    pub ml_compute_scale: f64,
    /// Factor applied to hardwired local routers (Plaid-ML).
    pub hardwired_router_scale: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alu_power: 14.0,
            alsu_power: 16.8,
            pe_crossbar_power: 7.9,
            local_router_power: 3.4,
            global_router_power: 6.1,
            bypass_power: 0.15,
            config_tile_power: 9.8,
            comm_config_bit_power: 0.115,
            compute_config_bit_power: 0.17,
            clock_gated_fraction: 0.12,
            misc_tile_power: 4.7,
            noc_wire_power_per_unit: 0.8,
            alu_area: 225.0,
            alsu_area: 300.0,
            pe_crossbar_area: 610.0,
            local_router_area: 750.0,
            global_router_area: 2_480.0,
            bypass_area: 18.0,
            config_tile_area: 1_150.0,
            config_bit_area: 0.95,
            misc_tile_area: 410.0,
            noc_wire_area_per_unit: 85.0,
            ml_compute_scale: 0.78,
            hardwired_router_scale: 0.35,
        }
    }
}

/// Tile-units of NoC wire length in excess of the mesh baseline: the sum
/// over inter-tile links of `manhattan_distance − 1`. Mesh links connect
/// grid neighbours (distance 1) and contribute nothing; torus wraparound
/// links span `cols − 1` (or `rows − 1`) tiles and express links span their
/// stride, so richer topologies are charged the wire they actually add.
/// Intra-tile links (distance 0) contribute nothing.
fn extra_wire_units(arch: &Architecture) -> f64 {
    arch.links()
        .iter()
        .map(|l| f64::from(arch.resource_distance(l.from, l.to).saturating_sub(1)))
        .sum()
}

impl CostModel {
    /// Steady-state fabric power of an architecture in µW.
    ///
    /// Power is determined by the architecture (all configuration memories
    /// are read every cycle on spatio-temporal fabrics and Plaid, and
    /// clock-gated on spatial fabrics); kernels affect *energy* through their
    /// cycle count.
    pub fn fabric_power(&self, arch: &Architecture) -> PowerBreakdown {
        let mut p = PowerBreakdown::default();
        let ml = arch.params().domain == Some(Domain::MachineLearning);
        let compute_scale = if ml { self.ml_compute_scale } else { 1.0 };
        for r in arch.resources() {
            match r.kind {
                ResourceKind::FuncUnit(caps) => {
                    let base = if caps.memory {
                        self.alsu_power
                    } else {
                        self.alu_power
                    };
                    p.compute += base * compute_scale;
                }
                ResourceKind::Switch { .. } => {
                    let name = r.name.as_str();
                    if name.contains(".local") {
                        let tile_hardwired = arch
                            .clusters()
                            .get(r.tile)
                            .map(|c| c.hardwired.is_some())
                            .unwrap_or(false);
                        let scale = if tile_hardwired {
                            self.hardwired_router_scale
                        } else {
                            1.0
                        };
                        p.local_routers += self.local_router_power * scale;
                    } else if name.contains(".global") {
                        p.global_routers += self.global_router_power;
                    } else if name.contains("bypass") {
                        p.local_routers += self.bypass_power;
                    } else {
                        // Baseline PE crossbars.
                        p.global_routers += self.pe_crossbar_power;
                    }
                }
            }
        }
        let tiles = arch.params().tile_count() as f64;
        let budget = arch.params().config;
        let gate = if arch.class() == ArchClass::Spatial {
            self.clock_gated_fraction
        } else {
            1.0
        };
        p.comm_config = gate
            * tiles
            * (self.config_tile_power
                + f64::from(budget.communication_bits + budget.control_bits)
                    * self.comm_config_bit_power);
        p.compute_config = gate
            * tiles
            * (self.config_tile_power * 0.8
                + f64::from(budget.compute_bits()) * self.compute_config_bit_power);
        p.others = tiles * self.misc_tile_power;
        p.noc_wiring = extra_wire_units(arch) * self.noc_wire_power_per_unit;
        p
    }

    /// Fabric area of an architecture in µm² (excluding the scratch-pad).
    pub fn fabric_area(&self, arch: &Architecture) -> AreaBreakdown {
        let mut a = AreaBreakdown::default();
        let ml = arch.params().domain == Some(Domain::MachineLearning);
        let compute_scale = if ml { self.ml_compute_scale } else { 1.0 };
        for r in arch.resources() {
            match r.kind {
                ResourceKind::FuncUnit(caps) => {
                    let base = if caps.memory {
                        self.alsu_area
                    } else {
                        self.alu_area
                    };
                    a.compute += base * compute_scale;
                }
                ResourceKind::Switch { .. } => {
                    let name = r.name.as_str();
                    if name.contains(".local") {
                        let tile_hardwired = arch
                            .clusters()
                            .get(r.tile)
                            .map(|c| c.hardwired.is_some())
                            .unwrap_or(false);
                        let scale = if tile_hardwired {
                            self.hardwired_router_scale
                        } else {
                            1.0
                        };
                        a.local_routers += self.local_router_area * scale;
                    } else if name.contains(".global") {
                        a.global_routers += self.global_router_area;
                    } else if name.contains("bypass") {
                        a.local_routers += self.bypass_area;
                    } else {
                        a.global_routers += self.pe_crossbar_area;
                    }
                }
            }
        }
        let tiles = arch.params().tile_count() as f64;
        let budget = arch.params().config;
        let entries = f64::from(arch.params().config_entries);
        a.comm_config = tiles
            * (self.config_tile_area
                + f64::from(budget.communication_bits + budget.control_bits)
                    * entries
                    * self.config_bit_area);
        a.compute_config = tiles
            * (self.config_tile_area
                + f64::from(budget.compute_bits()) * entries * self.config_bit_area);
        a.others = tiles * self.misc_tile_area;
        a.noc_wiring = extra_wire_units(arch) * self.noc_wire_area_per_unit;
        a
    }

    /// Energy in nJ to execute `cycles` cycles on `arch` at [`CLOCK_HZ`].
    pub fn energy_nj(&self, arch: &Architecture, cycles: u64) -> f64 {
        let power_uw = self.fabric_power(arch).total();
        // nJ = µW * s * 1e3; one cycle = 1/CLOCK_HZ s.
        power_uw * (cycles as f64 / CLOCK_HZ) * 1.0e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_arch::{plaid, spatial, spatio_temporal, specialize};

    fn model() -> CostModel {
        CostModel::default()
    }

    fn assert_near(value: f64, target: f64, tolerance: f64, label: &str) {
        assert!(
            (value - target).abs() <= tolerance,
            "{label}: {value:.3} not within {tolerance} of {target}"
        );
    }

    #[test]
    fn spatio_temporal_power_split_matches_figure_2a() {
        let st = spatio_temporal::build(4, 4);
        let p = model().fabric_power(&st);
        assert_near(p.share(p.routers()), 0.15, 0.05, "router share");
        assert_near(p.share(p.comm_config), 0.29, 0.06, "comm config share");
        assert_near(
            p.share(p.compute_config),
            0.19,
            0.06,
            "compute config share",
        );
        assert_near(p.share(p.compute), 0.28, 0.06, "compute share");
        assert_near(p.share(p.others), 0.09, 0.05, "others share");
    }

    #[test]
    fn plaid_reduces_power_by_about_43_percent() {
        let st = spatio_temporal::build(4, 4);
        let pl = plaid::build(2, 2);
        let m = model();
        let ratio = m.fabric_power(&pl).total() / m.fabric_power(&st).total();
        assert_near(ratio, 0.57, 0.08, "plaid/st power ratio");
    }

    #[test]
    fn plaid_area_split_matches_figure_13() {
        let pl = plaid::build(2, 2);
        let a = model().fabric_area(&pl);
        assert_near(a.share(a.local_routers), 0.09, 0.04, "local router share");
        assert_near(a.share(a.global_routers), 0.30, 0.06, "global router share");
        assert_near(
            a.share(a.compute_config),
            0.24,
            0.06,
            "compute config share",
        );
        assert_near(a.share(a.comm_config), 0.21, 0.06, "comm config share");
        assert_near(a.share(a.compute), 0.11, 0.05, "compute share");
        assert_near(a.share(a.others), 0.05, 0.04, "others share");
    }

    #[test]
    fn plaid_fabric_area_is_close_to_the_reported_prototype() {
        let pl = plaid::build(2, 2);
        let a = model().fabric_area(&pl).total();
        // Section 7: the 2x2 prototype's fabric occupies 33,366 µm².
        assert_near(a / 33_366.0, 1.0, 0.2, "plaid fabric area vs prototype");
    }

    #[test]
    fn plaid_saves_about_46_percent_area_versus_spatio_temporal() {
        let st = spatio_temporal::build(4, 4);
        let pl = plaid::build(2, 2);
        let m = model();
        let ratio = m.fabric_area(&pl).total() / m.fabric_area(&st).total();
        assert_near(ratio, 0.54, 0.1, "plaid/st area ratio");
    }

    #[test]
    fn spatial_power_is_close_to_plaid_power() {
        let sp = spatial::build(4, 4);
        let pl = plaid::build(2, 2);
        let m = model();
        let ratio = m.fabric_power(&pl).total() / m.fabric_power(&sp).total();
        assert_near(ratio, 1.0, 0.15, "plaid/spatial power ratio");
        // And spatial keeps roughly the baseline's area.
        let st = spatio_temporal::build(4, 4);
        let area_ratio = m.fabric_area(&sp).total() / m.fabric_area(&st).total();
        assert_near(area_ratio, 1.0, 0.01, "spatial/st area ratio");
    }

    #[test]
    fn ml_specialization_reduces_both_architectures() {
        let m = model();
        let st = spatio_temporal::build(4, 4);
        let st_ml = specialize::spatio_temporal_ml(4, 4);
        assert!(m.fabric_power(&st_ml).total() < m.fabric_power(&st).total());
        assert!(m.fabric_area(&st_ml).total() < m.fabric_area(&st).total());
        let pl = plaid::build(2, 2);
        let pl_ml = specialize::plaid_ml_2x2();
        assert!(m.fabric_power(&pl_ml).total() < m.fabric_power(&pl).total());
        assert!(m.fabric_area(&pl_ml).total() < m.fabric_area(&pl).total());
        // Plaid remains more efficient than the ML-specialized baseline
        // (Section 7.3's headline comparison).
        assert!(m.fabric_power(&pl).total() < m.fabric_power(&st_ml).total());
    }

    #[test]
    fn three_by_three_plaid_scales_structurally() {
        let m = model();
        let small = plaid::build(2, 2);
        let large = plaid::build(3, 3);
        let ratio = m.fabric_area(&large).total() / m.fabric_area(&small).total();
        assert_near(ratio, 2.25, 0.2, "3x3/2x2 area ratio");
        assert!(m.fabric_power(&large).total() > m.fabric_power(&small).total());
    }

    #[test]
    fn mesh_fabrics_pay_no_topology_wiring_and_torus_does() {
        use plaid_arch::{ArchClass, BwClass, CommSpec, DesignPoint, Topology};
        let m = model();
        let point = |comm| DesignPoint {
            class: ArchClass::SpatioTemporal,
            rows: 4,
            cols: 4,
            config_entries: 16,
            comm,
        };
        let mesh = point(CommSpec::ALIGNED).build();
        let torus = point(CommSpec::uniform(Topology::Torus, BwClass::Base)).build();
        let express = point(CommSpec::uniform(
            Topology::Express { stride: 2 },
            BwClass::Base,
        ))
        .build();
        assert_eq!(m.fabric_power(&mesh).noc_wiring, 0.0);
        assert_eq!(m.fabric_area(&mesh).noc_wiring, 0.0);
        // 16 wraparound directed links, each spanning 3 tiles -> 2 extra
        // units apiece.
        let torus_power = m.fabric_power(&torus);
        assert_eq!(torus_power.noc_wiring, 32.0 * m.noc_wire_power_per_unit);
        assert!(torus_power.total() > m.fabric_power(&mesh).total());
        assert!(m.fabric_area(&torus).total() > m.fabric_area(&mesh).total());
        // Express stride 2: 32 directed links, 1 extra unit apiece.
        assert_eq!(
            m.fabric_area(&express).noc_wiring,
            32.0 * m.noc_wire_area_per_unit
        );
        // The wiring premium stays a small fraction of the fabric.
        assert!(torus_power.share(torus_power.noc_wiring) < 0.05);
    }

    #[test]
    fn energy_scales_linearly_with_cycles() {
        let m = model();
        let pl = plaid::build(2, 2);
        let e1 = m.energy_nj(&pl, 1_000);
        let e2 = m.energy_nj(&pl, 2_000);
        assert_near(e2 / e1, 2.0, 1e-9, "energy linearity");
        assert!(e1 > 0.0);
    }

    #[test]
    fn breakdown_shares_sum_to_one() {
        let m = model();
        for arch in [
            spatio_temporal::build(4, 4),
            plaid::build(2, 2),
            spatial::build(4, 4),
        ] {
            let p = m.fabric_power(&arch);
            let total_share = p.share(p.local_routers)
                + p.share(p.global_routers)
                + p.share(p.comm_config)
                + p.share(p.compute_config)
                + p.share(p.compute)
                + p.share(p.others);
            assert_near(total_share, 1.0, 1e-9, "power shares");
            let a = m.fabric_area(&arch);
            let area_share = a.share(a.routers())
                + a.share(a.comm_config)
                + a.share(a.compute_config)
                + a.share(a.compute)
                + a.share(a.others);
            assert_near(area_share, 1.0, 1e-9, "area shares");
        }
    }
}
