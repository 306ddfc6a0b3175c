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
//! The constants are fixed. Power and area share one walk over the fabric's
//! resources, priced from a table of unit costs each; a switch's role comes
//! from the cluster that owns it.
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

/// Fabric power (µW) or area (µm²) broken down per component class.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Breakdown {
    /// Local routers and bypass paths (Plaid) — zero for the baselines.
    pub local_routers: f64,
    /// Global routers / PE crossbars.
    pub global_routers: f64,
    /// NoC wiring beyond the mesh baseline (torus wraparound, express
    /// links) — zero on the published mesh fabrics.
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

impl Breakdown {
    /// Total fabric power or area.
    pub fn total(&self) -> f64 {
        self.local_routers
            + self.global_routers
            + self.noc_wiring
            + self.comm_config
            + self.compute_config
            + self.compute
            + self.others
    }

    /// All router power or area (local + global).
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

/// Cost of one instance of each fabric component: µW in [`POWER`], µm² in
/// [`AREA`].
struct UnitCosts {
    /// One 16-bit ALU.
    alu: f64,
    /// One ALSU (ALU plus scratch-pad port and AGU).
    alsu: f64,
    /// One baseline PE crossbar router.
    pe_crossbar: f64,
    /// One Plaid local (8×8) router.
    local_router: f64,
    /// One Plaid global (7×9) router.
    global_router: f64,
    /// One registered ALU-to-ALU bypass path.
    bypass: f64,
    /// Configuration-memory peripherals per tile and configuration class.
    config_tile: f64,
    /// Miscellany per tile (clock tree, registers).
    misc_tile: f64,
    /// One tile-unit of NoC wire beyond the mesh (torus wraparound, express
    /// links); the mesh links are folded into the router costs.
    noc_wire: f64,
}

/// Power of each component, in µW.
const POWER: UnitCosts = UnitCosts {
    alu: 14.0,
    alsu: 16.8,
    pe_crossbar: 7.9,
    local_router: 3.4,
    global_router: 6.1,
    bypass: 0.15,
    config_tile: 9.8,
    misc_tile: 4.7,
    noc_wire: 0.8,
};

/// Area of each component, in µm².
const AREA: UnitCosts = UnitCosts {
    alu: 225.0,
    alsu: 300.0,
    pe_crossbar: 610.0,
    local_router: 750.0,
    global_router: 2_480.0,
    bypass: 18.0,
    config_tile: 1_150.0,
    misc_tile: 410.0,
    noc_wire: 85.0,
};

/// Per-bit power of communication configuration read every cycle (µW).
const COMM_CONFIG_BIT_POWER: f64 = 0.115;
/// Per-bit power of compute configuration read every cycle (µW).
const COMPUTE_CONFIG_BIT_POWER: f64 = 0.17;
/// Per-bit configuration memory area (bit-cells, µm²).
const CONFIG_BIT_AREA: f64 = 0.95;
/// Share of configuration power left when it is clock-gated (spatial CGRAs).
const CLOCK_GATED_FRACTION: f64 = 0.12;
/// Factor applied to compute datapaths of ML-pruned variants.
const ML_COMPUTE_SCALE: f64 = 0.78;
/// Factor applied to hardwired local routers (Plaid-ML).
const HARDWIRED_ROUTER_SCALE: f64 = 0.35;

/// The calibrated 22 nm-like cost model. Its constants are fixed, so the
/// handle carries no state.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel;

/// What a switch is, as the clusters that own it say.
#[derive(Debug, Clone, Copy)]
enum SwitchRole {
    /// The only router of a baseline PE.
    PeCrossbar,
    /// The global router of a Plaid PCU.
    GlobalRouter,
    /// The local router of a Plaid PCU, hardwired on Plaid-ML (Section 4.4).
    LocalRouter { hardwired: bool },
    /// A switch no cluster names: a registered ALU-to-ALU bypass path.
    Bypass,
}

/// The role of every resource, indexed by resource id (functional units
/// read [`SwitchRole::Bypass`] and are never asked).
fn switch_roles(arch: &Architecture) -> Vec<SwitchRole> {
    let mut roles = vec![SwitchRole::Bypass; arch.resources().len()];
    for c in arch.clusters() {
        roles[c.global_router.0 as usize] = match c.local_router {
            Some(local) => {
                let hardwired = c.hardwired.is_some();
                roles[local.0 as usize] = SwitchRole::LocalRouter { hardwired };
                SwitchRole::GlobalRouter
            }
            None => SwitchRole::PeCrossbar,
        };
    }
    roles
}

/// Prices everything but configuration memory at `unit`: functional units,
/// routers and bypass paths (summed in resource order), per-tile miscellany
/// and NoC wire beyond the mesh.
fn price_components(arch: &Architecture, unit: &UnitCosts) -> Breakdown {
    let mut b = Breakdown::default();
    let ml = arch.params().domain == Some(Domain::MachineLearning);
    let compute_scale = if ml { ML_COMPUTE_SCALE } else { 1.0 };
    let roles = switch_roles(arch);
    for r in arch.resources() {
        match r.kind {
            ResourceKind::FuncUnit(caps) => {
                let base = if caps.memory { unit.alsu } else { unit.alu };
                b.compute += base * compute_scale;
            }
            ResourceKind::Switch { .. } => match roles[r.id.0 as usize] {
                SwitchRole::PeCrossbar => b.global_routers += unit.pe_crossbar,
                SwitchRole::GlobalRouter => b.global_routers += unit.global_router,
                SwitchRole::LocalRouter { hardwired: false } => {
                    b.local_routers += unit.local_router
                }
                SwitchRole::LocalRouter { hardwired: true } => {
                    b.local_routers += unit.local_router * HARDWIRED_ROUTER_SCALE;
                }
                SwitchRole::Bypass => b.local_routers += unit.bypass,
            },
        }
    }
    b.others = arch.params().tile_count() as f64 * unit.misc_tile;
    // A link adds `manhattan distance − 1` tile-units of wire beyond the
    // mesh: none between neighbours, more on torus and express links.
    let extra_wire: f64 = arch
        .links()
        .iter()
        .map(|l| f64::from(arch.resource_distance(l.from, l.to).saturating_sub(1)))
        .sum();
    b.noc_wiring = extra_wire * unit.noc_wire;
    b
}

impl CostModel {
    /// Steady-state fabric power of an architecture in µW.
    ///
    /// Configuration memories are read every cycle, except on spatial
    /// fabrics, which clock-gate them; kernels affect only *energy*.
    pub fn fabric_power(&self, arch: &Architecture) -> Breakdown {
        let mut p = price_components(arch, &POWER);
        let tiles = arch.params().tile_count() as f64;
        let budget = arch.params().config;
        let gate = if arch.class() == ArchClass::Spatial {
            CLOCK_GATED_FRACTION
        } else {
            1.0
        };
        p.comm_config = gate
            * tiles
            * (POWER.config_tile
                + f64::from(budget.communication_bits + budget.control_bits)
                    * COMM_CONFIG_BIT_POWER);
        p.compute_config = gate
            * tiles
            * (POWER.config_tile * 0.8
                + f64::from(budget.compute_bits()) * COMPUTE_CONFIG_BIT_POWER);
        p
    }

    /// Fabric area of an architecture in µm² (excluding the scratch-pad).
    pub fn fabric_area(&self, arch: &Architecture) -> Breakdown {
        let mut a = price_components(arch, &AREA);
        let tiles = arch.params().tile_count() as f64;
        let budget = arch.params().config;
        let entries = f64::from(arch.params().config_entries);
        a.comm_config = tiles
            * (AREA.config_tile
                + f64::from(budget.communication_bits + budget.control_bits)
                    * entries
                    * CONFIG_BIT_AREA);
        a.compute_config = tiles
            * (AREA.config_tile + f64::from(budget.compute_bits()) * entries * CONFIG_BIT_AREA);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_arch::{plaid, spatial, spatio_temporal, specialize};

    fn model() -> CostModel {
        CostModel
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
        assert_eq!(torus_power.noc_wiring, 32.0 * POWER.noc_wire);
        assert!(torus_power.total() > m.fabric_power(&mesh).total());
        assert!(m.fabric_area(&torus).total() > m.fabric_area(&mesh).total());
        // Express stride 2: 32 directed links, 1 extra unit apiece.
        assert_eq!(m.fabric_area(&express).noc_wiring, 32.0 * AREA.noc_wire);
        // The wiring premium stays a small fraction of the fabric.
        assert!(torus_power.share(torus_power.noc_wiring) < 0.05);
    }

    /// Every switch takes exactly one role from the clusters, and the
    /// counts follow the builders: one global router (or PE crossbar) per
    /// cluster, one local router per cluster that has one, and bypass paths
    /// only on Plaid, between adjacent ALUs. A builder that adds a new kind
    /// of switch fails here instead of being priced as a bypass path.
    #[test]
    fn every_switch_takes_exactly_one_role_from_its_cluster() {
        use plaid_arch::{BwClass, DesignPoint, SpaceSpec, Topology};
        let grid = SpaceSpec::full_grid();
        let variants = grid.clone().with_comm_grid(
            &[Topology::Torus, Topology::Express { stride: 2 }],
            &[BwClass::Base],
        );
        let points = [grid.enumerate(), variants.enumerate()].concat();
        let archs = points.iter().map(DesignPoint::build).chain([
            specialize::spatio_temporal_ml(4, 4),
            specialize::plaid_ml_2x2(),
        ]);
        for arch in archs {
            let name = arch.name();
            let clusters = arch.clusters();
            let mut named: Vec<_> = clusters
                .iter()
                .flat_map(|c| c.local_router.into_iter().chain([c.global_router]))
                .collect();
            let naming_count = named.len();
            named.sort();
            named.dedup();
            assert_eq!(named.len(), naming_count, "{name}: a switch has two roles");
            assert!(
                named
                    .iter()
                    .all(|&id| !arch.resource(id).kind.is_func_unit()),
                "{name}: a cluster names a functional unit as a router"
            );

            let roles = switch_roles(&arch);
            let (mut crossbars, mut globals, mut locals, mut hardwired, mut bypasses) =
                (0, 0, 0, 0, 0);
            for r in arch.resources().iter().filter(|r| !r.kind.is_func_unit()) {
                match roles[r.id.0 as usize] {
                    SwitchRole::PeCrossbar => crossbars += 1,
                    SwitchRole::GlobalRouter => globals += 1,
                    SwitchRole::LocalRouter { hardwired: h } => {
                        locals += 1;
                        hardwired += usize::from(h);
                    }
                    SwitchRole::Bypass => bypasses += 1,
                }
            }
            let with_local = clusters.iter().filter(|c| c.local_router.is_some()).count();
            assert_eq!(globals, with_local, "{name}: global routers");
            assert_eq!(crossbars, clusters.len() - with_local, "{name}: crossbars");
            assert_eq!(locals, with_local, "{name}: local routers");
            assert_eq!(
                hardwired,
                clusters.iter().filter(|c| c.hardwired.is_some()).count(),
                "{name}: hardwired local routers"
            );
            let expected_bypasses = if arch.class() == ArchClass::Plaid {
                clusters.len() * (plaid::ALUS_PER_PCU - 1)
            } else {
                0
            };
            assert_eq!(bypasses, expected_bypasses, "{name}: bypass paths");
        }
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

    /// Bit patterns of every breakdown field, in declaration order.
    macro_rules! field_bits {
        ($b:expr) => {
            [
                $b.local_routers,
                $b.global_routers,
                $b.noc_wiring,
                $b.comm_config,
                $b.compute_config,
                $b.compute,
                $b.others,
            ]
            .map(f64::to_bits)
        };
    }

    /// Pins the exact bits of every power and area component on the six
    /// paper fabrics and on the 4×4 spatio-temporal fabric under the torus
    /// and stride-2 express topologies, so a refactor of the cost walk that
    /// reorders a floating-point sum fails here rather than in a sweep
    /// digest.
    #[test]
    fn breakdowns_are_bit_pinned() {
        use plaid_arch::{BwClass, CommSpec, DesignPoint, Topology};
        let comm_point = |topology| {
            DesignPoint {
                class: ArchClass::SpatioTemporal,
                rows: 4,
                cols: 4,
                config_entries: 16,
                comm: CommSpec::uniform(topology, BwClass::Base),
            }
            .build()
        };
        #[rustfmt::skip]
        let pins: [(Architecture, [u64; 7], [u64; 7]); 8] = [
            (
                spatio_temporal::build(4, 4),
                [0x0000000000000000, 0x405f99999999999c, 0x0000000000000000, 0x406af5c28f5c28f6, 0x4063c28f5c28f5c3, 0x406d666666666667, 0x4052cccccccccccd],
                [0x0000000000000000, 0x40c3100000000000, 0x0000000000000000, 0x40d991999999999a, 0x40d4d1999999999a, 0x40ae780000000000, 0x40b9a00000000000],
            ),
            (
                spatial::build(4, 4),
                [0x0000000000000000, 0x405f99999999999c, 0x0000000000000000, 0x4039e1b089a02752, 0x4032f837b4a2339c, 0x406d666666666667, 0x4052cccccccccccd],
                [0x0000000000000000, 0x40c3100000000000, 0x0000000000000000, 0x40d991999999999a, 0x40d4d1999999999a, 0x40ae780000000000, 0x40b9a00000000000],
            ),
            (
                plaid::build(2, 2),
                [0x402d99999999999b, 0x4038666666666666, 0x0000000000000000, 0x40519eb851eb851f, 0x4050ae147ae147ae, 0x406d666666666667, 0x4032cccccccccccd],
                [0x40a8900000000000, 0x40c3600000000000, 0x0000000000000000, 0x40c10f3333333333, 0x40be51999999999a, 0x40ae780000000000, 0x4099a00000000000],
            ),
            (
                plaid::build(3, 3),
                [0x4040a66666666664, 0x404b733333333334, 0x0000000000000000, 0x4063d28f5c28f5c3, 0x4062c3d70a3d70a4, 0x4080733333333334, 0x4045266666666667],
                [0x40bba20000000000, 0x40d5cc0000000000, 0x0000000000000000, 0x40d3311999999999, 0x40d10de666666667, 0x40c0fe0000000000, 0x40acd40000000000],
            ),
            (
                specialize::spatio_temporal_ml(4, 4),
                [0x0000000000000000, 0x405f99999999999c, 0x0000000000000000, 0x406959999999999a, 0x4062bd70a3d70a3e, 0x4066ee978d4fdf3b, 0x4052cccccccccccd],
                [0x0000000000000000, 0x40c3100000000000, 0x0000000000000000, 0x40d7e80000000000, 0x40d41b3333333333, 0x40a7c40000000000, 0x40b9a00000000000],
            ),
            (
                specialize::plaid_ml_2x2(),
                [0x4017d70a3d70a3d8, 0x4038666666666666, 0x0000000000000000, 0x404db851eb851eb9, 0x4050ae147ae147ae, 0x4066ee978d4fdf3b, 0x4032cccccccccccd],
                [0x4092a80000000000, 0x40c3600000000000, 0x0000000000000000, 0x40bc6b3333333333, 0x40be51999999999a, 0x40a7c40000000000, 0x4099a00000000000],
            ),
            (
                comm_point(Topology::Torus),
                [0x0000000000000000, 0x405f99999999999c, 0x403999999999999a, 0x406af5c28f5c28f6, 0x4063c28f5c28f5c3, 0x406d666666666667, 0x4052cccccccccccd],
                [0x0000000000000000, 0x40c3100000000000, 0x40a5400000000000, 0x40d991999999999a, 0x40d4d1999999999a, 0x40ae780000000000, 0x40b9a00000000000],
            ),
            (
                comm_point(Topology::Express { stride: 2 }),
                [0x0000000000000000, 0x405f99999999999c, 0x403999999999999a, 0x406be147ae147ae2, 0x4063c28f5c28f5c3, 0x406d666666666667, 0x4052cccccccccccd],
                [0x0000000000000000, 0x40c3100000000000, 0x40a5400000000000, 0x40da84cccccccccc, 0x40d4d1999999999a, 0x40ae780000000000, 0x40b9a00000000000],
            ),
        ];
        let m = model();
        for (arch, power, area) in &pins {
            assert_eq!(
                field_bits!(m.fabric_power(arch)),
                *power,
                "{} power",
                arch.name()
            );
            assert_eq!(
                field_bits!(m.fabric_area(arch)),
                *area,
                "{} area",
                arch.name()
            );
        }
    }
}
