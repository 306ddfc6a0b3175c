//! The end-to-end compilation pipeline: kernel → DFG → motifs → mapping →
//! configuration → metrics.
//!
//! [`compile_workload`] is the one entry point. It compiles a
//! [`PreparedWorkload`] onto a [`PreparedFabric`] and takes an optional
//! [`MapSeed`] hint, which lets a sweep replay or floor a point's II ladder
//! without changing its result.
//!
//! The fabric-independent stages (lowering, motif identification, coverage
//! statistics) live in a [`PreparedWorkload`]. A caller compiling one
//! workload onto many fabrics prepares it once and passes it to every
//! compile.
//!
//! The workload-independent side is a [`PreparedFabric`]: the built
//! [`Architecture`] (a paper preset via [`ArchChoice::build`], or an
//! enumerated design point) plus its signatures and routing reachability,
//! each derived once however many workloads compile onto it.

use std::fmt;
use std::sync::Arc;

use plaid_arch::{plaid, spatial, spatio_temporal, specialize, Architecture};
use plaid_dfg::Dfg;
pub use plaid_mapper::{
    dfg_fingerprint, fabric_signature, fabric_signature_nocap, fnv1a64, InfeasiblePrefix, MapSeed,
    PlacementSeed, PreparedFabric, SeedOutcome, SeededMapping, WorkCounts,
};
use plaid_mapper::{
    MapError, Mapping, PathFinderMapper, PlaidMapper, SaMapper, SpatialMapper, SpatialSchedule,
};
use plaid_motif::{coverage, identify_motifs, CoverageStats, HierarchicalDfg, IdentifyOptions};
use plaid_sim::config::{generate_config, ConfigImage};
use plaid_sim::cost::CostModel;
use plaid_sim::metrics::EvalMetrics;
use plaid_workloads::Workload;

/// Architectures evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ArchChoice {
    /// 4×4 high-performance spatio-temporal CGRA.
    SpatioTemporal4x4,
    /// 4×4 energy-minimal spatial CGRA.
    Spatial4x4,
    /// 2×2 Plaid PCU array (16 functional units).
    Plaid2x2,
    /// 3×3 Plaid PCU array (36 functional units).
    Plaid3x3,
    /// Machine-learning-specialized spatio-temporal CGRA.
    SpatioTemporalMl,
    /// Machine-learning-specialized Plaid.
    PlaidMl,
}

impl ArchChoice {
    /// Builds the architecture instance.
    pub fn build(self) -> Architecture {
        match self {
            ArchChoice::SpatioTemporal4x4 => spatio_temporal::build(4, 4),
            ArchChoice::Spatial4x4 => spatial::build(4, 4),
            ArchChoice::Plaid2x2 => plaid::build(2, 2),
            ArchChoice::Plaid3x3 => plaid::build(3, 3),
            ArchChoice::SpatioTemporalMl => specialize::spatio_temporal_ml(4, 4),
            ArchChoice::PlaidMl => specialize::plaid_ml_2x2(),
        }
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            ArchChoice::SpatioTemporal4x4 => "Spatio-temporal",
            ArchChoice::Spatial4x4 => "Spatial",
            ArchChoice::Plaid2x2 => "Plaid 2x2",
            ArchChoice::Plaid3x3 => "Plaid 3x3",
            ArchChoice::SpatioTemporalMl => "ST-ML",
            ArchChoice::PlaidMl => "Plaid-ML",
        }
    }
}

/// Mappers evaluated in the paper (Figure 18) plus the spatial partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum MapperChoice {
    /// Simulated-annealing baseline.
    Sa,
    /// PathFinder negotiation baseline.
    PathFinder,
    /// The hierarchical motif-aware Plaid mapper (Algorithm 2).
    Plaid,
    /// The spatial partitioning mapper (only valid on spatial architectures).
    Spatial,
}

impl MapperChoice {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            MapperChoice::Sa => "SA",
            MapperChoice::PathFinder => "PathFinder",
            MapperChoice::Plaid => "Plaid mapper",
            MapperChoice::Spatial => "Spatial partitioner",
        }
    }

    /// Whether the mapper reads seed hints. The spatial partitioner maps
    /// without an II ladder, so it neither replays seeds nor skips rungs.
    pub fn takes_hints(self) -> bool {
        self != MapperChoice::Spatial
    }
}

/// Errors produced by the pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// Lowering the kernel failed.
    Lowering(plaid_dfg::DfgError),
    /// Mapping failed.
    Mapping(MapError),
    /// Configuration generation failed.
    Config(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Lowering(e) => write!(f, "lowering failed: {e}"),
            PipelineError::Mapping(e) => write!(f, "mapping failed: {e}"),
            PipelineError::Config(e) => write!(f, "configuration generation failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<plaid_dfg::DfgError> for PipelineError {
    fn from(e: plaid_dfg::DfgError) -> Self {
        PipelineError::Lowering(e)
    }
}

impl From<MapError> for PipelineError {
    fn from(e: MapError) -> Self {
        PipelineError::Mapping(e)
    }
}

/// The result of compiling one workload for one architecture.
#[derive(Debug, Clone)]
pub struct CompiledWorkload {
    /// Workload name.
    pub name: String,
    /// The lowered DFG, shared with the [`PreparedWorkload`] it came from.
    pub dfg: Arc<Dfg>,
    /// Motif coverage statistics (Table 2 columns).
    pub coverage: CoverageStats,
    /// The modulo-scheduled mapping (absent for spatial execution).
    pub mapping: Option<Mapping>,
    /// The spatial schedule (present only for spatial execution).
    pub spatial: Option<SpatialSchedule>,
    /// Configuration image (absent for spatial execution).
    pub config: Option<ConfigImage>,
    /// Evaluation metrics.
    pub metrics: EvalMetrics,
    /// Placement seed captured from the mapping (absent for spatial
    /// execution), reusable to seed neighbouring design points.
    pub placement_seed: Option<PlacementSeed>,
    /// How seeding contributed to this compilation.
    pub seed_outcome: SeedOutcome,
}

impl CompiledWorkload {
    /// Achieved initiation interval; for a spatial schedule, the largest
    /// partition II.
    pub fn ii(&self) -> u32 {
        self.metrics.ii
    }

    /// The serializable summary of this compilation (everything a sweep
    /// needs to keep; drops the DFG, mapping and configuration image).
    pub fn summary(&self) -> CompileSummary {
        CompileSummary {
            name: self.name.clone(),
            coverage: self.coverage.clone(),
            metrics: self.metrics.clone(),
            seed: self.placement_seed.clone(),
        }
    }
}

/// Serializable result of one pipeline run: what design-space sweeps persist
/// per (workload × architecture × mapper) point.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CompileSummary {
    /// Workload name.
    pub name: String,
    /// Motif coverage statistics (Table 2 columns).
    pub coverage: CoverageStats,
    /// Evaluation metrics (cycles, power, energy, area).
    pub metrics: EvalMetrics,
    /// Placement seed for neighbouring design points (absent for spatial
    /// execution and in records persisted before seeding existed).
    pub seed: Option<PlacementSeed>,
}

/// A workload lowered and analysed once, ready to compile onto any number
/// of fabrics: its DFG (whose fingerprint the graph memoises), the
/// hierarchical DFG of motif identification, and the coverage statistics.
/// None of it depends on the fabric.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    name: String,
    dfg: Arc<Dfg>,
    motifs: HierarchicalDfg,
    coverage: CoverageStats,
}

impl PreparedWorkload {
    /// Lowers `workload` and identifies its motifs.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Lowering`] if lowering fails.
    pub fn new(workload: &Workload) -> Result<Self, PipelineError> {
        let dfg = workload.lower()?;
        let motifs = identify_motifs(&dfg, &IdentifyOptions::default());
        let coverage = coverage(&dfg, &motifs);
        Ok(PreparedWorkload {
            name: workload.name.clone(),
            dfg: Arc::new(dfg),
            motifs,
            coverage,
        })
    }

    /// The lowered DFG.
    pub fn dfg(&self) -> &Dfg {
        &self.dfg
    }

    /// The DFG's fingerprint ([`dfg_fingerprint`]), hashed on the first
    /// call.
    pub fn fingerprint(&self) -> u64 {
        self.dfg.fingerprint()
    }

    /// The hierarchical DFG of motif identification (Algorithm 1).
    pub fn motifs(&self) -> &HierarchicalDfg {
        &self.motifs
    }

    /// Motif coverage statistics (Table 2 columns).
    pub fn coverage(&self) -> &CoverageStats {
        &self.coverage
    }
}

/// Compiles `workload` onto `fabric` with `mapper_choice` and evaluates it
/// with the default cost model. Callers holding an [`ArchChoice`] prepare
/// `choice.build()`; design-space sweeps prepare enumerated points (see
/// [`plaid_arch::enumerate::SpaceSpec`]). Many compiles may share one
/// prepared workload or fabric.
///
/// `hint` threads seed information into the mapper: a canonical seed whose
/// result provably transfers to the fabric replays exactly, and a
/// proven-infeasible ladder prefix is skipped. Either way the result is the
/// one a cold run produces. The produced [`CompiledWorkload`] carries its
/// own [`PlacementSeed`] (via [`CompiledWorkload::summary`]) so sweeps can
/// chain seeds across neighbouring design points.
///
/// Takes only `&` references and writes to a prepared workload or fabric
/// only through their thread-safe memos (the DFG's fingerprint, the
/// fabric's signatures and reachability), so many threads may compile one
/// prepared workload onto different fabrics, or different workloads onto
/// one prepared fabric, at once.
///
/// # Errors
///
/// Returns a [`PipelineError`] if mapping or configuration generation
/// fails.
pub fn compile_workload(
    workload: &PreparedWorkload,
    fabric: &PreparedFabric,
    mapper_choice: MapperChoice,
    hint: Option<&MapSeed>,
) -> Result<CompiledWorkload, PipelineError> {
    let dfg = workload.dfg();
    let iterations = dfg.total_iterations();
    let arch = fabric.arch();

    let (ii, cycles, mapping, spatial, config, placement_seed, seed_outcome) = match mapper_choice {
        MapperChoice::Spatial => {
            let schedule = SpatialMapper::default()
                .map_spatial(dfg, arch)
                .map_err(PipelineError::Mapping)?;
            let cycles = schedule.total_cycles(iterations);
            let ii = schedule.partitions.iter().map(|p| p.ii).max().unwrap_or(1);
            (
                ii,
                cycles,
                None,
                Some(schedule),
                None,
                None,
                SeedOutcome::Scratch,
            )
        }
        modulo => {
            let SeededMapping {
                mapping,
                outcome,
                seed,
            } = match modulo {
                MapperChoice::Sa => SaMapper::default().map_prepared(dfg, fabric, hint),
                MapperChoice::PathFinder => {
                    PathFinderMapper::default().map_prepared(dfg, fabric, hint)
                }
                MapperChoice::Plaid => {
                    PlaidMapper::default().map_with_motifs(dfg, workload.motifs(), fabric, hint)
                }
                MapperChoice::Spatial => unreachable!("handled above"),
            }?;
            let config = generate_config(dfg, arch, &mapping).map_err(PipelineError::Config)?;
            let cycles = mapping.total_cycles(iterations);
            (
                mapping.ii,
                cycles,
                Some(mapping),
                None,
                Some(config),
                Some(seed),
                outcome,
            )
        }
    };
    let metrics = EvalMetrics::from_cycles(
        workload.name.clone(),
        mapper_choice.label(),
        arch,
        &CostModel,
        ii,
        cycles,
    );
    Ok(CompiledWorkload {
        name: workload.name.clone(),
        dfg: Arc::clone(&workload.dfg),
        coverage: workload.coverage.clone(),
        mapping,
        spatial,
        config,
        metrics,
        placement_seed,
        seed_outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_workloads::table2_workloads;

    fn workload(name: &str) -> PreparedWorkload {
        let w = table2_workloads()
            .into_iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("workload {name} not in registry"));
        PreparedWorkload::new(&w).unwrap()
    }

    fn fabric(arch: ArchChoice) -> PreparedFabric {
        PreparedFabric::new(arch.build())
    }

    #[test]
    fn compiles_atax_on_all_three_main_architectures() {
        let w = workload("atax_u2");
        for (arch, mapper) in [
            (ArchChoice::SpatioTemporal4x4, MapperChoice::Sa),
            (ArchChoice::Spatial4x4, MapperChoice::Spatial),
            (ArchChoice::Plaid2x2, MapperChoice::Plaid),
        ] {
            let result = compile_workload(&w, &fabric(arch), mapper, None).unwrap();
            assert!(result.metrics.cycles > 0, "{:?}", arch);
            assert!(result.metrics.power_uw > 0.0);
            if mapper == MapperChoice::Spatial {
                assert!(result.spatial.is_some());
            } else {
                assert!(result.mapping.is_some());
                assert!(result.config.is_some());
            }
        }
    }

    #[test]
    fn plaid_matches_spatio_temporal_performance_on_a_simple_kernel() {
        let w = workload("dwconv");
        let st = compile_workload(
            &w,
            &fabric(ArchChoice::SpatioTemporal4x4),
            MapperChoice::Sa,
            None,
        )
        .unwrap();
        let pl =
            compile_workload(&w, &fabric(ArchChoice::Plaid2x2), MapperChoice::Plaid, None).unwrap();
        let ratio = pl.metrics.cycles as f64 / st.metrics.cycles as f64;
        assert!(ratio <= 1.5, "plaid/st cycle ratio {ratio}");
        // And Plaid consumes less power for the same work.
        assert!(pl.metrics.power_uw < st.metrics.power_uw);
    }

    #[test]
    fn coverage_statistics_accompany_every_compilation() {
        let w = workload("gemm_u2");
        let result =
            compile_workload(&w, &fabric(ArchChoice::Plaid2x2), MapperChoice::Plaid, None).unwrap();
        assert_eq!(result.coverage.total_nodes, result.dfg.node_count());
        assert!(result.coverage.covered_nodes <= result.coverage.compute_nodes);
        assert!(result.ii() >= 1);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ArchChoice::Plaid2x2.label(), "Plaid 2x2");
        assert_eq!(MapperChoice::PathFinder.label(), "PathFinder");
    }
}
