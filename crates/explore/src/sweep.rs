//! Parallel sweep execution over the provisioning grid.
//!
//! A [`SweepPlan`] is the cross product of a workload list and an enumerated
//! design space, with one mapper per point (the class default unless
//! overridden). [`run_sweep`] evaluates the plan in parallel with `rayon`,
//! consulting the [`ResultCache`] before every compilation so overlapping or
//! repeated sweeps only pay for points they have never seen. Each distinct
//! workload of a plan is lowered and analysed once, on its first cache miss,
//! and every point of it reuses that [`PreparedWorkload`]. Likewise each
//! distinct design point is built once, on its first cache miss, and every
//! point of it maps onto that [`PreparedFabric`]. The designs of one family
//! (class, array size and topology) share the fabric's routing
//! reachability, and their fabrics are dropped when the family's last point
//! completes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use plaid::pipeline::{
    compile_workload, MapperChoice, PipelineError, PreparedFabric, PreparedWorkload, SeedOutcome,
};
use plaid_arch::{ArchClass, DesignPoint, SpaceSpec};
use plaid_workloads::Workload;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::cache::{cache_key, ResultCache};
use crate::record::EvalRecord;
use crate::seed::{SeedFamily, SeedPolicy, SeedStore};

/// One evaluatable point: a workload, a provisioning design point and the
/// mapper that will place the workload onto it.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The workload to compile.
    pub workload: Workload,
    /// The architecture point to build.
    pub design: DesignPoint,
    /// The mapper to run.
    pub mapper: MapperChoice,
}

/// Default mapper for an enumerated architecture class: the motif-aware
/// mapper on Plaid fabrics, the partitioner on spatial fabrics and
/// PathFinder on the spatio-temporal baseline (the faster of the two generic
/// mappers, which matters when sweeping hundreds of points).
pub fn default_mapper_for_class(class: ArchClass) -> MapperChoice {
    match class {
        ArchClass::Plaid => MapperChoice::Plaid,
        ArchClass::Spatial => MapperChoice::Spatial,
        ArchClass::SpatioTemporal => MapperChoice::PathFinder,
    }
}

/// An ordered list of sweep points.
///
/// The order is the order of the records a sweep returns, not the order in
/// which [`run_sweep_with`] evaluates the points: it claims the points of
/// one design family together, so their prepared fabrics are dropped
/// early.
#[derive(Debug, Clone, Default)]
pub struct SweepPlan {
    /// Points in deterministic (workload-major) order.
    pub points: Vec<SweepPoint>,
}

impl SweepPlan {
    /// Crosses `workloads` with the enumerated `space`, assigning each point
    /// its class-default mapper.
    pub fn cross(workloads: &[Workload], space: &SpaceSpec) -> Self {
        let designs = space.enumerate();
        let mut points = Vec::with_capacity(workloads.len() * designs.len());
        for workload in workloads {
            for &design in &designs {
                points.push(SweepPoint {
                    workload: workload.clone(),
                    design,
                    mapper: default_mapper_for_class(design.class),
                });
            }
        }
        SweepPlan { points }
    }

    /// Number of points in the plan.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Accounting for one sweep pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepStats {
    /// Points in the plan.
    pub points: usize,
    /// Points actually compiled this pass (cache misses).
    pub compiled: usize,
    /// Points served from the cache.
    pub cache_hits: usize,
    /// Points whose compilation failed (counted within `compiled`).
    pub failures: usize,
    /// Compiled points that had a seed hint available.
    pub seeded: usize,
    /// Compiled points where seeding demonstrably skipped work: an exact
    /// replay, a floored (or fully skipped) II ladder.
    pub seed_hits: usize,
    /// Wall-clock time of the pass in milliseconds.
    pub wall_ms: u64,
}

impl SweepStats {
    /// Fraction of points served from cache.
    pub fn hit_rate(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.points as f64
        }
    }
}

/// The result of one sweep pass: per-point records (in plan order) plus
/// accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepOutcome {
    /// One record per plan point, in plan order.
    pub records: Vec<EvalRecord>,
    /// Pass accounting.
    pub stats: SweepStats,
}

/// What seeding did for one evaluated point.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SeedUse {
    /// The point compiled with a hint available.
    pub seeded: bool,
    /// The hint demonstrably skipped work: an exact replay, a floored (or
    /// fully skipped) II ladder.
    pub hit: bool,
}

/// A workload prepared on first use, shared by every point of it in one
/// sweep. Preparation fails only when lowering does, and then every point
/// records the same error.
pub(crate) type WorkloadCell = OnceLock<Result<PreparedWorkload, PipelineError>>;

/// The family of a design point: its class, array size and topology, with
/// configuration depth and bandwidth erased. The designs of one family
/// differ in switch capacities and cost parameters, never in links; it is
/// the design half of a seed super-family ([`SeedFamily::super_of`]).
pub(crate) fn design_family(design: &DesignPoint) -> DesignPoint {
    DesignPoint {
        config_entries: 0,
        comm: design.comm.structural_family(),
        ..*design
    }
}

/// The prepared fabrics of one design family. A design's fabric is built by
/// the first point of it that misses the cache and shared by the rest; each
/// later design of the family is prepared as a
/// [sibling](PreparedFabric::sibling) of the first, so the family builds
/// one routing reachability. [`Self::complete`] counts the family's points
/// down and drops its fabrics after the last, so a sweep holds only the
/// fabrics of the families it is working on.
#[derive(Debug, Default)]
pub(crate) struct FabricCell {
    fabrics: Mutex<Vec<(DesignPoint, Arc<PreparedFabric<'static>>)>>,
    /// Points of the family not yet completed.
    pending: AtomicUsize,
}

impl FabricCell {
    /// The prepared fabric of `design`, built on the design's first call.
    fn get(&self, design: &DesignPoint) -> Arc<PreparedFabric<'static>> {
        let mut fabrics = self.fabrics.lock().expect("fabric cell lock poisoned");
        if let Some((_, fabric)) = fabrics.iter().find(|(d, _)| d == design) {
            return Arc::clone(fabric);
        }
        let arch = design.build();
        let fabric = Arc::new(match fabrics.first() {
            Some((_, first)) => first.sibling(arch),
            None => PreparedFabric::new(arch),
        });
        fabrics.push((*design, Arc::clone(&fabric)));
        fabric
    }

    /// Records that one point of the family completed, hit or miss. After
    /// the last one the cell drops its fabrics.
    fn complete(&self) {
        // The count publishes nothing (the mutex guards the fabrics); it
        // only has to reach zero once, after every point's last use.
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.fabrics
                .lock()
                .expect("fabric cell lock poisoned")
                .clear();
        }
    }
}

/// Evaluates one sweep point, consulting (and populating) the cache. On a
/// miss the point's workload is prepared in `workload` and its design in
/// its family's `fabric` cell, unless an earlier point did so already.
/// With a seed store, the point also draws its hint from the store and
/// feeds its outcome back into it; without one it maps from scratch.
pub(crate) fn evaluate_point(
    point: &SweepPoint,
    workload: &WorkloadCell,
    fabric: &FabricCell,
    cache: &ResultCache,
    store: Option<&SeedStore>,
) -> (EvalRecord, SeedUse) {
    let key = cache_key(point);
    if let Some(record) = cache.lookup(&key, point) {
        // Cached successes still feed the store: their seeds warm the rest
        // of the family (this is how a persisted cache seeds a new grid),
        // and a replayed seed is re-validated on the target fabric. Cached
        // *failures* are deliberately not absorbed: an infeasibility floor
        // is trusted without re-validation, and a cache persisted by an
        // older mapper could floor points the current mapper can map.
        if let Some(store) = store {
            store.absorb_seed(point, &record);
        }
        return (record, SeedUse::default());
    }
    let fabric = fabric.get(&point.design);
    let prepared = workload
        .get_or_init(|| PreparedWorkload::new(&point.workload))
        .as_ref()
        .map_err(ToString::to_string);
    // Hints are stamped with the workload's DFG fingerprint so the mapper
    // can verify they belong to the graph it is about to place (floors are
    // keyed by workload name in the store; the mapper re-checks identity).
    let hint = match (store, &prepared) {
        (Some(store), Ok(prepared)) => store.hint_on(point, &fabric, prepared.fingerprint()),
        _ => None,
    };
    let result = prepared.and_then(|prepared| {
        compile_workload(prepared, &*fabric, point.mapper, hint.as_ref()).map_err(|e| e.to_string())
    });
    let hit = match &result {
        Ok(compiled) => matches!(
            compiled.seed_outcome,
            SeedOutcome::Replayed | SeedOutcome::Floored
        ),
        // A failure reached through a floored or fully skipped ladder also
        // saved work (a canonical sibling seed above this point's II bound
        // fast-fails the whole ladder).
        Err(_) => hint.as_ref().is_some_and(|h| {
            h.infeasible.is_some()
                || h.seed
                    .as_ref()
                    .is_some_and(|s| s.canonical && s.ii > point.design.config_entries)
        }),
    };
    let record = match result {
        Ok(compiled) => EvalRecord::succeeded(point, compiled.summary()),
        Err(e) => EvalRecord::failed(point, e),
    };
    cache.insert(key, record.clone());
    if let Some(store) = store {
        store.absorb(point, &record);
    }
    let seeded = hint.is_some();
    (record, SeedUse { seeded, hit })
}

/// One empty cell per distinct workload of the plan, and the index of each
/// plan point's cell.
fn workload_cells(plan: &SweepPlan) -> (Vec<WorkloadCell>, Vec<usize>) {
    let mut distinct: Vec<&Workload> = Vec::new();
    let cell_of = plan
        .points
        .iter()
        .map(|point| {
            // Plans are workload-major, so the latest distinct workload is
            // the likeliest match.
            distinct
                .iter()
                .rposition(|w| **w == point.workload)
                .unwrap_or_else(|| {
                    distinct.push(&point.workload);
                    distinct.len() - 1
                })
        })
        .collect();
    (
        distinct.iter().map(|_| WorkloadCell::new()).collect(),
        cell_of,
    )
}

/// One empty cell per distinct design family of the plan, numbered in order
/// of first appearance and counting the family's points, and the index of
/// each plan point's cell.
fn fabric_cells(plan: &SweepPlan) -> (Vec<FabricCell>, Vec<usize>) {
    let mut index: HashMap<DesignPoint, usize> = HashMap::new();
    let cell_of: Vec<usize> = plan
        .points
        .iter()
        .map(|point| {
            let next = index.len();
            *index.entry(design_family(&point.design)).or_insert(next)
        })
        .collect();
    let mut cells: Vec<FabricCell> = (0..index.len()).map(|_| FabricCell::default()).collect();
    for &c in &cell_of {
        *cells[c].pending.get_mut() += 1;
    }
    (cells, cell_of)
}

/// Runs the plan with the default seed policy ([`SeedPolicy::Exact`], which
/// preserves cold-run results bit-for-bit), returning records in plan order.
///
/// Seeding changes the schedule, not the results: points sharing a seed
/// super-family run sequentially (in depth order) so later points can reuse
/// earlier seeds, and only distinct groups run in parallel. A plan that is
/// one big family therefore trades per-point parallelism for seed reuse —
/// pass [`SeedPolicy::Off`] to [`run_sweep_with`] to evaluate every point
/// as its own parallel task instead.
///
/// Cache hit/miss accounting in the returned [`SweepStats`] reflects only
/// this pass (the cache's counters are reset on entry).
pub fn run_sweep(plan: &SweepPlan, cache: &ResultCache) -> SweepOutcome {
    run_sweep_with(plan, cache, SeedPolicy::Exact)
}

/// Runs the plan in parallel under an explicit seed policy.
///
/// Under [`SeedPolicy::Exact`], points are grouped by seed *super-family*
/// (workload × class × dimensions × mapper — the communication and depth
/// axes erased) and each group is evaluated in ascending depth,
/// aligned-communication-first order, so every group compiles one ladder
/// cold and derives its siblings from the cached
/// [`plaid::pipeline::PlacementSeed`]: an exact replay for depth siblings
/// (identical fabric signature), a capacity-certified replay for
/// communication siblings, and a skipped ladder prefix where a shallower
/// sibling proved its ladder infeasible. Under [`SeedPolicy::Off`] there is
/// no seed store and every point is a group of its own, so the sweep is the
/// plain cold evaluation.
///
/// Groups run in parallel: each worker claims the next unstarted group when
/// it finishes one, so a few expensive groups do not leave the other workers
/// idle. Hints never cross groups, so neither the records nor the seeding
/// counters depend on which worker ran a group, or in which order the
/// groups are claimed. Records come back in plan order.
///
/// Every distinct workload of the plan is prepared (lowered, fingerprinted
/// and motif-identified) at most once per call, by the first point of it
/// that misses the cache; a pass served wholly from the cache prepares
/// none. Every distinct design is prepared the same way (built, and its
/// signatures derived on first use), the designs of one family (class,
/// array size and topology) share one routing reachability, and their
/// [`PreparedFabric`]s are dropped when the family's last point completes,
/// hit or miss. So that a family's points complete close together, the
/// workers claim them together: under [`SeedPolicy::Off`] family-major
/// (families by first appearance, points of one family in plan order), and
/// under [`SeedPolicy::Exact`] with the groups of every workload on one
/// family, which visit the same designs, adjacent. Without that order
/// every fabric would stay alive until the sweep ends.
pub fn run_sweep_with(plan: &SweepPlan, cache: &ResultCache, policy: SeedPolicy) -> SweepOutcome {
    let start = Instant::now();
    cache.reset_counters();

    let (workloads, workload_of) = workload_cells(plan);
    let (fabrics, family_of) = fabric_cells(plan);
    let (store, groups) = match policy {
        SeedPolicy::Off => {
            let mut order: Vec<usize> = (0..plan.len()).collect();
            order.sort_by_key(|&i| family_of[i]);
            (None, order.into_iter().map(|i| vec![i]).collect())
        }
        SeedPolicy::Exact => (
            Some(SeedStore::new()),
            group_points_for_seeding(plan, &family_of),
        ),
    };
    let evaluated: Vec<Vec<(usize, EvalRecord, SeedUse)>> = groups
        .par_iter()
        .map(|group| {
            group
                .iter()
                .map(|&i| {
                    let fabric = &fabrics[family_of[i]];
                    let (record, used) = evaluate_point(
                        &plan.points[i],
                        &workloads[workload_of[i]],
                        fabric,
                        cache,
                        store.as_ref(),
                    );
                    fabric.complete();
                    (i, record, used)
                })
                .collect()
        })
        .collect();

    let mut slots: Vec<Option<EvalRecord>> = vec![None; plan.len()];
    let (mut seeded, mut seed_hits) = (0, 0);
    for (i, record, used) in evaluated.into_iter().flatten() {
        seeded += usize::from(used.seeded);
        seed_hits += usize::from(used.hit);
        slots[i] = Some(record);
    }
    let records: Vec<EvalRecord> = slots
        .into_iter()
        .map(|r| r.expect("every plan point evaluated"))
        .collect();

    let cache_hits = cache.hits() as usize;
    let failures = records.iter().filter(|r| !r.ok).count();
    SweepOutcome {
        stats: SweepStats {
            points: records.len(),
            compiled: records.len() - cache_hits,
            cache_hits,
            failures,
            seeded,
            seed_hits,
            wall_ms: start.elapsed().as_millis() as u64,
        },
        records,
    }
}

/// Groups plan indices by seed super-family for a seeded sweep, in a
/// deterministic order: the groups on one design family (whatever the
/// workload and mapper) are adjacent, ordered by `family_of`, the family
/// index of each point ([`fabric_cells`]), then by first appearance, so the
/// points of one family are claimed close together. Within a group:
/// ascending depth (the cheap shallow ladder is a prefix of every deeper
/// one), then the canonical communication scheduling order
/// ([`plaid_arch::CommSpec::order_rank`]): the as-published aligned network
/// first within a depth — its certificate transfers to both the lean and
/// rich variants when capacity never binds — then the remaining presets,
/// then structured specs by topology and bandwidth. This is the single
/// grouping used by [`run_sweep_with`] (and pinned by the stable-grouping
/// test).
fn group_points_for_seeding(plan: &SweepPlan, family_of: &[usize]) -> Vec<Vec<usize>> {
    let mut group_of: HashMap<SeedFamily, usize> = HashMap::new();
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, point) in plan.points.iter().enumerate() {
        let g = *group_of
            .entry(SeedFamily::super_of(point))
            .or_insert_with(|| {
                groups.push((family_of[i], Vec::new()));
                groups.len() - 1
            });
        groups[g].1.push(i);
    }
    groups.sort_by_key(|&(family, _)| family);
    groups
        .into_iter()
        .map(|(_, mut group)| {
            group.sort_by_key(|&i| {
                let d = &plan.points[i].design;
                (d.config_entries, d.comm.order_rank(), i)
            });
            group
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_arch::{BwClass, CommSpec, Topology};
    use plaid_workloads::find_workload;

    fn tiny_plan() -> SweepPlan {
        let spec = SpaceSpec {
            classes: vec![ArchClass::Plaid],
            dims: vec![(2, 2)],
            config_entries: vec![16],
            comm_specs: vec![CommSpec::ALIGNED, CommSpec::RICH],
        };
        SweepPlan::cross(&[find_workload("dwconv").unwrap()], &spec)
    }

    #[test]
    fn plan_is_the_cross_product_with_class_default_mappers() {
        let plan = tiny_plan();
        assert_eq!(plan.len(), 2);
        assert!(plan.points.iter().all(|p| p.mapper == MapperChoice::Plaid));
        assert_eq!(
            default_mapper_for_class(ArchClass::Spatial),
            MapperChoice::Spatial
        );
        assert_eq!(
            default_mapper_for_class(ArchClass::SpatioTemporal),
            MapperChoice::PathFinder
        );
    }

    #[test]
    fn sweep_evaluates_and_second_pass_is_fully_cached() {
        let plan = tiny_plan();
        let cache = ResultCache::new();
        let first = run_sweep(&plan, &cache);
        assert_eq!(first.stats.points, 2);
        assert_eq!(first.stats.compiled, 2);
        assert_eq!(first.stats.cache_hits, 0);
        assert!(first.records.iter().all(|r| r.ok), "dwconv maps on plaid");

        let second = run_sweep(&plan, &cache);
        assert_eq!(
            second.stats.compiled, 0,
            "no recompilation on identical sweep"
        );
        assert_eq!(second.stats.cache_hits, 2);
        assert!((second.stats.hit_rate() - 1.0).abs() < 1e-12);
        assert_eq!(second.records, first.records, "cached results identical");
    }

    /// `dwconv` with a body that reads a scalar it never defines, so
    /// lowering fails.
    fn unlowerable() -> Workload {
        let mut bad = find_workload("dwconv").unwrap();
        bad.name = "dwconv_broken".into();
        bad.kernel.body.insert(
            0,
            plaid_dfg::Stmt::Let {
                name: "t".into(),
                value: plaid_dfg::Expr::Scalar("undefined".into()),
            },
        );
        assert!(bad.lower().is_err());
        bad
    }

    #[test]
    fn a_workload_that_fails_to_lower_fails_every_point_alone() {
        let spec = SpaceSpec {
            classes: vec![ArchClass::Plaid, ArchClass::SpatioTemporal],
            dims: vec![(2, 2)],
            config_entries: vec![8, 16],
            comm_specs: vec![CommSpec::ALIGNED, CommSpec::RICH],
        };
        let good = find_workload("dwconv").unwrap();
        let bad = unlowerable();
        let mixed = SweepPlan::cross(&[good.clone(), bad.clone()], &spec);
        let alone = SweepPlan::cross(&[good], &spec);
        for policy in [SeedPolicy::Off, SeedPolicy::Exact] {
            let outcome = run_sweep_with(&mixed, &ResultCache::new(), policy);
            let reference = run_sweep_with(&alone, &ResultCache::new(), policy);
            let (good_records, bad_records) = outcome.records.split_at(alone.len());
            assert_eq!(good_records, reference.records.as_slice(), "{policy:?}");
            assert_eq!(bad_records.len(), spec.enumerate().len());
            for (record, point) in bad_records.iter().zip(&mixed.points[alone.len()..]) {
                let per_point = compile_workload(&bad, &point.design.build(), point.mapper, None)
                    .expect_err("the workload does not lower")
                    .to_string();
                assert!(per_point.starts_with("lowering failed: "), "{per_point}");
                assert!(!record.ok);
                assert_eq!(record.error.as_deref(), Some(per_point.as_str()));
            }
        }
    }

    #[test]
    fn permuting_designs_within_workload_blocks_moves_no_record() {
        // The sweep claims points by design family in order of first
        // appearance, so a plan whose designs are permuted within each
        // workload block, as the sweep benchmark's non-zero seeds make
        // them, runs in another order and prepares and drops each fabric
        // at another time. No record may change.
        let spec = SpaceSpec {
            classes: vec![
                ArchClass::SpatioTemporal,
                ArchClass::Spatial,
                ArchClass::Plaid,
            ],
            dims: vec![(2, 2)],
            config_entries: vec![8, 16],
            comm_specs: CommSpec::presets(),
        };
        let workloads = [
            find_workload("dwconv").unwrap(),
            find_workload("atax_u2").unwrap(),
        ];
        let canonical = SweepPlan::cross(&workloads, &spec);
        let mut permuted = canonical.clone();
        let block = spec.enumerate().len();
        for (b, chunk) in permuted.points.chunks_mut(block).enumerate() {
            // A different permutation per block: reverse, then rotate.
            chunk.reverse();
            chunk.rotate_left(5 * b + 1);
        }
        let designs = |plan: &SweepPlan| -> Vec<String> {
            plan.points.iter().map(|p| p.design.label()).collect()
        };
        assert_ne!(designs(&permuted)[..block], designs(&canonical)[..block]);
        assert_ne!(designs(&permuted)[block..], designs(&canonical)[block..]);
        let families = |plan: &SweepPlan| -> Vec<DesignPoint> {
            let mut seen = Vec::new();
            for point in &plan.points {
                let family = design_family(&point.design);
                if !seen.contains(&family) {
                    seen.push(family);
                }
            }
            seen
        };
        assert_ne!(
            families(&permuted),
            families(&canonical),
            "same claim order"
        );
        for policy in [SeedPolicy::Off, SeedPolicy::Exact] {
            let reference = run_sweep_with(&canonical, &ResultCache::new(), policy);
            let outcome = run_sweep_with(&permuted, &ResultCache::new(), policy);
            assert_eq!(outcome.stats.failures, reference.stats.failures);
            for (point, record) in permuted.points.iter().zip(&outcome.records) {
                let same = canonical
                    .points
                    .iter()
                    .position(|p| p.workload == point.workload && p.design == point.design)
                    .expect("the plans hold the same points");
                assert_eq!(
                    record,
                    &reference.records[same],
                    "{policy:?} {}/{}",
                    point.workload.name,
                    point.design.label()
                );
            }
        }
    }

    #[test]
    fn a_fabric_cell_shares_reach_and_drops_its_fabrics_after_the_last_point() {
        // The smoke grid has two families (spatio-temporal and Plaid 2x2),
        // each of three designs; two workloads give each family six points.
        let plan = SweepPlan::cross(
            &[
                find_workload("dwconv").unwrap(),
                find_workload("fc").unwrap(),
            ],
            &SpaceSpec::smoke_grid(),
        );
        let (cells, cell_of) = fabric_cells(&plan);
        assert_eq!(cells.len(), 2);
        let points: Vec<usize> = (0..plan.len()).filter(|&i| cell_of[i] == 0).collect();
        assert_eq!(points.len(), 6);
        let (a, b) = (plan.points[0].design, plan.points[1].design);
        assert_ne!(a, b);
        assert!(points
            .iter()
            .all(|&i| plan.points[i].design.class == a.class));
        let cell = &cells[0];
        let fabric = cell.get(&a);
        assert!(Arc::ptr_eq(&fabric, &cell.get(&a)), "built once");
        assert_eq!(fabric.arch(), &a.build());
        let sibling = cell.get(&b);
        assert_eq!(sibling.arch(), &b.build());
        assert!(Arc::ptr_eq(fabric.reach(), sibling.reach()), "one reach");
        drop((fabric, sibling));
        for _ in 1..points.len() {
            cell.complete();
        }
        assert_eq!(cell.fabrics.lock().unwrap().len(), 2, "one point pending");
        cell.complete();
        assert!(
            cell.fabrics.lock().unwrap().is_empty(),
            "dropped after the last"
        );
    }

    #[test]
    fn overlapping_sweep_only_compiles_new_points() {
        let cache = ResultCache::new();
        let _ = run_sweep(&tiny_plan(), &cache);
        // Extend the space by one comm level: only the new point compiles.
        let spec = SpaceSpec {
            classes: vec![ArchClass::Plaid],
            dims: vec![(2, 2)],
            config_entries: vec![16],
            comm_specs: CommSpec::presets(),
        };
        let bigger = SweepPlan::cross(&[find_workload("dwconv").unwrap()], &spec);
        let outcome = run_sweep(&bigger, &cache);
        assert_eq!(outcome.stats.points, 3);
        assert_eq!(outcome.stats.compiled, 1);
        assert_eq!(outcome.stats.cache_hits, 2);
    }

    #[test]
    fn seed_group_ordering_is_stable_and_canonical() {
        // The canonical comm ordering (CommSpec::order_rank) must schedule a
        // mixed preset/structured axis deterministically: depth first, then
        // aligned before lean before rich before structured specs — and the
        // grouping must be identical across repeated plan constructions.
        let spec = SpaceSpec {
            classes: vec![ArchClass::SpatioTemporal],
            dims: vec![(2, 2)],
            config_entries: vec![16, 8],
            comm_specs: vec![
                CommSpec::uniform(Topology::Torus, BwClass::Base),
                CommSpec::RICH,
                CommSpec::LEAN,
                CommSpec::ALIGNED,
            ],
        };
        let plan = SweepPlan::cross(&[find_workload("dwconv").unwrap()], &spec);
        // Exercises the production grouping (`group_points_for_seeding`,
        // the one `run_sweep_with` schedules by), not a private re-derivation.
        let order_of = |plan: &SweepPlan| -> Vec<Vec<String>> {
            group_points_for_seeding(plan, &fabric_cells(plan).1)
                .iter()
                .map(|g| g.iter().map(|&i| plan.points[i].design.label()).collect())
                .collect()
        };
        let groups = order_of(&plan);
        assert_eq!(groups, order_of(&plan), "grouping must be deterministic");
        // Torus points form their own structural family; preset points share
        // one, scheduled depth-major then aligned/lean/rich.
        assert_eq!(groups.len(), 2);
        let preset_group: &Vec<String> = groups
            .iter()
            .find(|g| g.iter().any(|l| l.ends_with("/aligned")))
            .unwrap();
        let expected: Vec<String> = [
            "d8/aligned",
            "d8/lean",
            "d8/rich",
            "d16/aligned",
            "d16/lean",
            "d16/rich",
        ]
        .iter()
        .map(|s| format!("spatio-temporal-2x2/{s}"))
        .collect();
        assert_eq!(preset_group, &expected);
        let torus_group: &Vec<String> = groups
            .iter()
            .find(|g| g.iter().any(|l| l.contains("torus")))
            .unwrap();
        assert_eq!(
            torus_group,
            &vec![
                "spatio-temporal-2x2/d8/torus".to_string(),
                "spatio-temporal-2x2/d16/torus".to_string(),
            ]
        );
    }
}
