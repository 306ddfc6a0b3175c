//! The end-to-end compilation pipeline: kernel → DFG → motifs → mapping →
//! configuration → metrics.
//!
//! [`compile_workload`] is the one entry point. It compiles onto any
//! [`Architecture`] instance (a paper preset via [`ArchChoice::build`], or an
//! enumerated design point) and takes an optional [`MapSeed`] hint, which
//! lets a sweep replay or floor a point's II ladder without changing its
//! result.
//!
//! The fabric-independent stages (lowering, motif identification, coverage
//! statistics) live in a [`PreparedWorkload`]. A caller compiling one
//! workload onto many fabrics prepares it once and passes it to every
//! compile; a plain [`Workload`] is prepared for the one call.
//!
//! The workload-independent side is a [`PreparedFabric`]: the built
//! architecture plus its signatures and routing reachability, each derived
//! once however many workloads compile onto it. A plain [`Architecture`] is
//! prepared for the one call.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use plaid_arch::{plaid, spatial, spatio_temporal, specialize, Architecture};
use plaid_dfg::Dfg;
pub use plaid_mapper::{
    dfg_fingerprint, fabric_signature, fabric_signature_nocap, fnv1a64, InfeasiblePrefix, MapSeed,
    PlacementSeed, PreparedFabric, SeedOutcome, SeededMapping,
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
    /// 6×6 spatio-temporal CGRA (used in the scalability study).
    SpatioTemporal6x6,
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
            ArchChoice::SpatioTemporal6x6 => spatio_temporal::build(6, 6),
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
            ArchChoice::SpatioTemporal6x6 => "Spatio-temporal 6x6",
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

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
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

/// What [`compile_workload`] compiles: a [`PreparedWorkload`], or a
/// [`Workload`], which is prepared for the one call.
pub trait Compilable {
    /// The prepared workload, borrowed or freshly built.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Lowering`] if preparing fails.
    fn prepared(&self) -> Result<Cow<'_, PreparedWorkload>, PipelineError>;
}

impl Compilable for PreparedWorkload {
    fn prepared(&self) -> Result<Cow<'_, PreparedWorkload>, PipelineError> {
        Ok(Cow::Borrowed(self))
    }
}

impl Compilable for Workload {
    fn prepared(&self) -> Result<Cow<'_, PreparedWorkload>, PipelineError> {
        PreparedWorkload::new(self).map(Cow::Owned)
    }
}

/// What [`compile_workload`] compiles onto: a [`PreparedFabric`], or an
/// [`Architecture`], which is prepared for the one call.
pub trait Fabric {
    /// The prepared fabric, borrowed or freshly made.
    fn prepared(&self) -> Cow<'_, PreparedFabric<'_>>;
}

impl Fabric for PreparedFabric<'_> {
    fn prepared(&self) -> Cow<'_, PreparedFabric<'_>> {
        Cow::Borrowed(self)
    }
}

impl Fabric for Architecture {
    fn prepared(&self) -> Cow<'_, PreparedFabric<'_>> {
        Cow::Owned(PreparedFabric::borrowed(self))
    }
}

/// Compiles `workload` onto `fabric` with `mapper_choice` and evaluates it
/// with the default cost model. Callers holding an [`ArchChoice`] pass
/// `&choice.build()`; design-space sweeps pass enumerated points (see
/// [`plaid_arch::enumerate::SpaceSpec`]). `workload` is a
/// [`PreparedWorkload`], which many compiles share, or a [`Workload`],
/// which this call prepares. Likewise `fabric` is a [`PreparedFabric`] or
/// an [`Architecture`].
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
/// Returns a [`PipelineError`] if lowering, mapping or configuration
/// generation fails.
pub fn compile_workload<W: Compilable, F: Fabric>(
    workload: &W,
    fabric: &F,
    mapper_choice: MapperChoice,
    hint: Option<&MapSeed>,
) -> Result<CompiledWorkload, PipelineError> {
    let model = CostModel::default();
    let prepared = workload.prepared()?;
    let dfg = prepared.dfg();
    let iterations = dfg.total_iterations();
    let fabric = fabric.prepared();
    let arch = fabric.arch();

    if mapper_choice == MapperChoice::Spatial {
        let schedule = SpatialMapper::default()
            .map_spatial(dfg, arch)
            .map_err(PipelineError::Mapping)?;
        let cycles = schedule.total_cycles(iterations);
        let ii = schedule.partitions.iter().map(|p| p.ii).max().unwrap_or(1);
        let metrics = EvalMetrics::from_cycles(
            prepared.name.clone(),
            mapper_choice.label(),
            arch,
            &model,
            ii,
            cycles,
        );
        return Ok(CompiledWorkload {
            name: prepared.name.clone(),
            dfg: Arc::clone(&prepared.dfg),
            coverage: prepared.coverage.clone(),
            mapping: None,
            spatial: Some(schedule),
            config: None,
            metrics,
            placement_seed: None,
            seed_outcome: SeedOutcome::Scratch,
        });
    }

    let seeded = match mapper_choice {
        MapperChoice::Sa => SaMapper::default().map_prepared(dfg, &fabric, hint),
        MapperChoice::PathFinder => PathFinderMapper::default().map_prepared(dfg, &fabric, hint),
        MapperChoice::Plaid => {
            PlaidMapper::default().map_with_motifs(dfg, prepared.motifs(), &fabric, hint)
        }
        MapperChoice::Spatial => unreachable!("handled above"),
    }?;
    let SeededMapping {
        mapping,
        outcome,
        seed,
    } = seeded;
    let config = generate_config(dfg, arch, &mapping).map_err(PipelineError::Config)?;
    let cycles = mapping.total_cycles(iterations);
    let metrics = EvalMetrics::from_cycles(
        prepared.name.clone(),
        mapper_choice.label(),
        arch,
        &model,
        mapping.ii,
        cycles,
    );
    Ok(CompiledWorkload {
        name: prepared.name.clone(),
        dfg: Arc::clone(&prepared.dfg),
        coverage: prepared.coverage.clone(),
        mapping: Some(mapping),
        spatial: None,
        config: Some(config),
        metrics,
        placement_seed: Some(seed),
        seed_outcome: outcome,
    })
}

/// Default mapper used for an architecture in the paper's main comparison:
/// the Plaid mapper on Plaid fabrics, the better of the two generic mappers
/// on the spatio-temporal baseline, and the partitioner on spatial fabrics.
pub fn default_mapper_for(arch_choice: ArchChoice) -> MapperChoice {
    match arch_choice {
        ArchChoice::Plaid2x2 | ArchChoice::Plaid3x3 | ArchChoice::PlaidMl => MapperChoice::Plaid,
        ArchChoice::Spatial4x4 => MapperChoice::Spatial,
        _ => MapperChoice::Sa,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_workloads::table2_workloads;

    fn workload(name: &str) -> Workload {
        table2_workloads()
            .into_iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("workload {name} not in registry"))
    }

    #[test]
    fn compiles_atax_on_all_three_main_architectures() {
        let w = workload("atax_u2");
        for (arch, mapper) in [
            (ArchChoice::SpatioTemporal4x4, MapperChoice::Sa),
            (ArchChoice::Spatial4x4, MapperChoice::Spatial),
            (ArchChoice::Plaid2x2, MapperChoice::Plaid),
        ] {
            let result = compile_workload(&w, &arch.build(), mapper, None).unwrap();
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
            &ArchChoice::SpatioTemporal4x4.build(),
            MapperChoice::Sa,
            None,
        )
        .unwrap();
        let pl =
            compile_workload(&w, &ArchChoice::Plaid2x2.build(), MapperChoice::Plaid, None).unwrap();
        let ratio = pl.metrics.cycles as f64 / st.metrics.cycles as f64;
        assert!(ratio <= 1.5, "plaid/st cycle ratio {ratio}");
        // And Plaid consumes less power for the same work.
        assert!(pl.metrics.power_uw < st.metrics.power_uw);
    }

    #[test]
    fn default_mappers_match_architectures() {
        assert_eq!(
            default_mapper_for(ArchChoice::Plaid2x2),
            MapperChoice::Plaid
        );
        assert_eq!(
            default_mapper_for(ArchChoice::Spatial4x4),
            MapperChoice::Spatial
        );
        assert_eq!(
            default_mapper_for(ArchChoice::SpatioTemporal4x4),
            MapperChoice::Sa
        );
    }

    #[test]
    fn coverage_statistics_accompany_every_compilation() {
        let w = workload("gemm_u2");
        let result =
            compile_workload(&w, &ArchChoice::Plaid2x2.build(), MapperChoice::Plaid, None).unwrap();
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
