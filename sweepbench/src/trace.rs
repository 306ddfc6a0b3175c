//! The traced run: the sweep re-driven from outside the program, with one
//! span around every call into a layer's public functions.
//!
//! It mirrors `plaid::pipeline::compile_workload_on_seeded` stage by
//! stage, and `plaid_explore::run_sweep_with`'s scheduling: the flat
//! `par_iter` over points under `SeedPolicy::Off`, and under
//! `SeedPolicy::Exact` the seed super-family groups in depth-then-comm order,
//! each group evaluated sequentially against one shared `SeedStore`. Spans
//! are kept in memory and written out once, when the run ends. The caller
//! checks that the mirror reproduces `run_sweep_with`'s records and counts,
//! so the per-layer numbers describe the program the end-to-end metrics
//! measure.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use plaid::pipeline::{
    dfg_fingerprint, CompileSummary, MapSeed, MapperChoice, PipelineError, SeedOutcome,
};
use plaid_arch::Architecture;
use plaid_dfg::Dfg;
use plaid_explore::{cache_key, EvalRecord, ResultCache, SeedFamily, SeedPolicy, SeedStore};
use plaid_explore::{SweepPlan, SweepPoint};
use plaid_mapper::{Mapping, PathFinderMapper, PlaidMapper, SaMapper, SpatialMapper};
use plaid_motif::{coverage, identify_motifs, CoverageStats, IdentifyOptions};
use plaid_sim::config::generate_config;
use plaid_sim::cost::CostModel;
use plaid_sim::metrics::EvalMetrics;
use rayon::prelude::*;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and function, e.g. `mapper.plaid.map`.
    pub name: &'static str,
    /// Plan index of the sweep point the call served (`None` for job-level
    /// calls such as cache loads).
    pub point: Option<usize>,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Start, relative to the job's epoch.
    pub start: Duration,
    /// End, relative to the job's epoch.
    pub end: Duration,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// In-memory span list for one job or one sweep point.
pub struct Recorder {
    epoch: Instant,
    point: Option<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose times are relative to `epoch`.
    pub fn new(epoch: Instant, point: Option<usize>) -> Self {
        Recorder {
            epoch,
            point,
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its id.
    pub fn enter(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            point: self.point,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn exit(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, parent);
        let out = f();
        self.exit(id);
        out
    }

    /// Appends spans recorded elsewhere, re-basing their parent ids; their
    /// root spans become children of `under`.
    fn append(&mut self, spans: Vec<Span>, under: usize) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(under, |p| p + base));
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines: id, name, point, parent, start and end in
    /// microseconds from the job's epoch.
    pub fn to_jsonl(&self) -> String {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"point\":{},\"parent\":{},\"start_us\":{},\"end_us\":{}}}",
                s.name,
                opt(s.point),
                opt(s.parent),
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        out
    }
}

/// What a compiled (cache-missing) point leaves behind for the post-run
/// checks and counts, none of which run inside a span.
#[derive(Default)]
pub struct Stages {
    /// The lowered DFG.
    pub dfg: Option<Dfg>,
    /// Motif coverage of the DFG.
    pub coverage: Option<CoverageStats>,
    /// The modulo mapping (absent for spatial schedules and failures).
    pub mapping: Option<Mapping>,
    /// How seeding contributed to the mapping.
    pub outcome: Option<SeedOutcome>,
}

/// The traced evaluation of one sweep point (its record is returned beside
/// it).
pub struct PointTrace {
    /// Plan index.
    pub index: usize,
    /// Whether the seed store offered a hint.
    pub seeded: bool,
    /// Whether seeding skipped work (replay, floored or skipped ladder).
    pub seed_hit: bool,
    /// The built fabric and compile stages, for cache misses only.
    pub compiled: Option<(Architecture, Stages)>,
    spans: Vec<Span>,
}

/// Sweeps `plan` against `cache` under `policy` (`Off` or `Exact`),
/// recording every point's spans into `rec`. Returns the records and the
/// point traces, both in plan order.
pub fn sweep(
    rec: &mut Recorder,
    plan: &SweepPlan,
    cache: &ResultCache,
    policy: SeedPolicy,
) -> (Vec<EvalRecord>, Vec<PointTrace>) {
    cache.reset_counters();
    let epoch = rec.epoch;
    let id = rec.enter("explore.sweep", None);
    let mut points: Vec<(EvalRecord, PointTrace)> = if policy == SeedPolicy::Off {
        let indices: Vec<usize> = (0..plan.len()).collect();
        indices
            .par_iter()
            .map(|&i| evaluate(i, plan, cache, None, policy, epoch))
            .collect()
    } else {
        let store = SeedStore::new();
        let groups = seed_groups(plan);
        let evaluated: Vec<Vec<(EvalRecord, PointTrace)>> = groups
            .par_iter()
            .map(|group| {
                group
                    .iter()
                    .map(|&i| evaluate(i, plan, cache, Some(&store), policy, epoch))
                    .collect()
            })
            .collect();
        let mut flat: Vec<(EvalRecord, PointTrace)> = evaluated.into_iter().flatten().collect();
        flat.sort_by_key(|(_, p)| p.index);
        flat
    };
    rec.exit(id);
    for (_, point) in &mut points {
        let spans = std::mem::take(&mut point.spans);
        rec.append(spans, id);
    }
    points.into_iter().unzip()
}

/// The seed super-family groups of `plan`, as `run_sweep_with` schedules
/// them: groups in order of first appearance, each sorted by depth, then the
/// canonical communication order, then plan index.
fn seed_groups(plan: &SweepPlan) -> Vec<Vec<usize>> {
    let mut group_of: HashMap<SeedFamily, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, point) in plan.points.iter().enumerate() {
        let g = *group_of
            .entry(SeedFamily::super_of(point))
            .or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
        groups[g].push(i);
    }
    for group in &mut groups {
        group.sort_by_key(|&i| {
            let d = &plan.points[i].design;
            (d.config_entries, d.comm.order_rank(), i)
        });
    }
    groups
}

/// One point, as `evaluate_point` (no store) or `evaluate_point_seeded`
/// (with a store) evaluates it.
fn evaluate(
    index: usize,
    plan: &SweepPlan,
    cache: &ResultCache,
    store: Option<&SeedStore>,
    policy: SeedPolicy,
    epoch: Instant,
) -> (EvalRecord, PointTrace) {
    let point = &plan.points[index];
    let mut rec = Recorder::new(epoch, Some(index));
    let root = rec.enter("explore.point", None);
    let key = cache_key(point);
    if let Some(record) = rec.time("explore.cache.lookup", Some(root), || {
        cache.lookup(&key, point)
    }) {
        if let Some(store) = store {
            rec.time("explore.seed.absorb", Some(root), || {
                store.absorb_seed(point, &record)
            });
        }
        rec.exit(root);
        let trace = PointTrace {
            index,
            seeded: false,
            seed_hit: false,
            compiled: None,
            spans: rec.spans,
        };
        return (record, trace);
    }
    let arch = rec.time("arch.build", Some(root), || point.design.build());
    let hint = store.and_then(|store| {
        rec.time("explore.seed.hint", Some(root), || {
            point
                .workload
                .lower()
                .ok()
                .and_then(|dfg| store.hint_for(point, &arch, dfg_fingerprint(&dfg), policy))
        })
    });
    let (stages, result) = compile(&mut rec, root, point, &arch, hint.as_ref());
    let seed_hit = match (&result, stages.outcome) {
        (Ok(_), outcome) => matches!(outcome, Some(SeedOutcome::Replayed | SeedOutcome::Floored)),
        (Err(_), _) => hint.as_ref().is_some_and(|h| {
            h.infeasible.is_some()
                || h.seed
                    .as_ref()
                    .is_some_and(|s| s.canonical && s.ii > point.design.config_entries)
        }),
    };
    let record = match result {
        Ok(summary) => EvalRecord::succeeded(point, summary),
        Err(e) => EvalRecord::failed(point, e.to_string()),
    };
    rec.time("explore.cache.insert", Some(root), || {
        cache.insert(key, record.clone())
    });
    if let Some(store) = store {
        rec.time("explore.seed.absorb", Some(root), || {
            store.absorb(point, &record)
        });
    }
    rec.exit(root);
    let trace = PointTrace {
        index,
        seeded: hint.is_some(),
        seed_hit,
        compiled: Some((arch, stages)),
        spans: rec.spans,
    };
    (record, trace)
}

/// `compile_workload_on_seeded`, one span per stage.
fn compile(
    rec: &mut Recorder,
    parent: usize,
    point: &SweepPoint,
    arch: &Architecture,
    hint: Option<&MapSeed>,
) -> (Stages, Result<CompileSummary, PipelineError>) {
    let id = rec.enter("pipeline.compile", Some(parent));
    let mut stages = Stages::default();
    let result = match rec.time("dfg.lower", Some(id), || point.workload.lower()) {
        Ok(dfg) => {
            let result = map_and_cost(rec, id, point, arch, hint, &dfg, &mut stages);
            stages.dfg = Some(dfg);
            result
        }
        Err(e) => Err(e.into()),
    };
    rec.exit(id);
    (stages, result)
}

fn map_and_cost(
    rec: &mut Recorder,
    id: usize,
    point: &SweepPoint,
    arch: &Architecture,
    hint: Option<&MapSeed>,
    dfg: &Dfg,
    stages: &mut Stages,
) -> Result<CompileSummary, PipelineError> {
    let name = point.workload.name.clone();
    let stats = rec.time("motif.identify", Some(id), || {
        coverage(dfg, &identify_motifs(dfg, &IdentifyOptions::default()))
    });
    stages.coverage = Some(stats.clone());
    let iterations = dfg.total_iterations();
    let (ii, cycles, seed) = if point.mapper == MapperChoice::Spatial {
        let schedule = rec.time("mapper.spatial.map", Some(id), || {
            SpatialMapper::default().map_spatial(dfg, arch)
        })?;
        let ii = schedule.partitions.iter().map(|p| p.ii).max().unwrap_or(1);
        (ii, schedule.total_cycles(iterations), None)
    } else {
        let seeded = rec.time(map_span(point.mapper), Some(id), || match point.mapper {
            MapperChoice::Sa => SaMapper::default().map_with_seed(dfg, arch, hint),
            MapperChoice::PathFinder => PathFinderMapper::default().map_with_seed(dfg, arch, hint),
            MapperChoice::Plaid => PlaidMapper::default().map_with_seed(dfg, arch, hint),
            MapperChoice::Spatial => unreachable!("spatial handled above"),
        })?;
        rec.time("sim.config", Some(id), || {
            generate_config(dfg, arch, &seeded.mapping)
        })
        .map_err(PipelineError::Config)?;
        let ii = seeded.mapping.ii;
        let cycles = seeded.mapping.total_cycles(iterations);
        stages.outcome = Some(seeded.outcome);
        stages.mapping = Some(seeded.mapping);
        (ii, cycles, Some(seeded.seed))
    };
    let metrics = rec.time("sim.cost", Some(id), || {
        EvalMetrics::from_cycles(
            name.clone(),
            point.mapper.label(),
            arch,
            &CostModel::default(),
            ii,
            cycles,
        )
    });
    Ok(CompileSummary {
        name,
        coverage: stats,
        metrics,
        seed,
    })
}

/// Span name of a modulo mapper's `map_with_seed` call.
fn map_span(mapper: MapperChoice) -> &'static str {
    match mapper {
        MapperChoice::Sa => "mapper.sa.map",
        MapperChoice::PathFinder => "mapper.pathfinder.map",
        MapperChoice::Plaid => "mapper.plaid.map",
        MapperChoice::Spatial => "mapper.spatial.map",
    }
}
