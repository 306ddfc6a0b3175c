//! Per-layer metrics of one traced job, from its spans and point traces.

use std::collections::HashMap;

use plaid::pipeline::MapperChoice;
use plaid_explore::{EvalRecord, SweepPlan};

use crate::trace::{PointTrace, Recorder, Span};
use crate::{Metric, THREADS};

/// A traced job: the spans, the sweep's records and point traces, and the
/// job-level counts the spans cannot carry.
pub struct TracedJob {
    /// Every span of the job.
    pub rec: Recorder,
    /// The sweep's records, in plan order.
    pub records: Vec<EvalRecord>,
    /// The sweep's point traces, in plan order.
    pub points: Vec<PointTrace>,
    /// Cache lookups of the sweep that hit.
    pub cache_hits: u64,
    /// Cache lookups of the sweep.
    pub cache_lookups: u64,
    /// Bytes of cache files loaded.
    pub loaded_bytes: u64,
    /// Wall seconds of the whole job.
    pub wall_s: f64,
    /// The frontier JSON the job wrote.
    pub frontier: String,
}

/// Every per-layer metric, in `BENCHMARK.json` order. `untraced_wall_s` is
/// the same job's wall time without tracing.
pub fn layer_metrics(plan: &SweepPlan, job: &TracedJob, untraced_wall_s: f64) -> Vec<Metric> {
    let spans = job.rec.spans();
    let total_ms = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + s.ms())
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut out = Vec::new();

    let (mut nodes, mut covered, mut compute) = (0usize, 0usize, 0usize);
    let (mut rungs, mut useful, mut gap, mut hops) = (0u32, 0u32, 0u32, 0usize);
    for point in &job.points {
        let Some((arch, stages)) = &point.compiled else {
            continue;
        };
        if let Some(c) = &stages.coverage {
            covered += c.covered_nodes;
            compute += c.compute_nodes;
        }
        let Some(dfg) = &stages.dfg else {
            continue;
        };
        nodes += dfg.node_count();
        if plan.points[point.index].mapper == MapperChoice::Spatial {
            continue;
        }
        // The ladder a cold run climbs: mii up to the achieved II, or up to
        // the configuration depth when no II maps.
        let mii = plaid_mapper::mii(dfg, arch);
        match &job.records[point.index].summary {
            Some(summary) => {
                let ii = summary.metrics.ii;
                rungs += ii.saturating_sub(mii) + 1;
                useful += 1;
                gap += ii.saturating_sub(mii);
            }
            None => rungs += (arch.params().max_ii() + 1).saturating_sub(mii),
        }
        hops += stages.mapping.as_ref().map_or(0, |m| m.total_route_hops());
    }

    out.push(Metric::new("dfg.lower_ms", total_ms("dfg.lower"), "ms"));
    out.push(Metric::new("dfg.nodes", nodes as f64, "count"));
    out.push(Metric::new(
        "motif.identify_ms",
        total_ms("motif.identify"),
        "ms",
    ));
    out.push(Metric::new(
        "motif.covered_share",
        ratio(covered as f64, compute as f64),
        "share",
    ));
    out.push(Metric::new("arch.build_ms", total_ms("arch.build"), "ms"));
    out.push(Metric::new("sim.config_ms", total_ms("sim.config"), "ms"));
    out.push(Metric::new("sim.cost_ms", total_ms("sim.cost"), "ms"));

    for mapper in ["plaid", "pathfinder", "spatial"] {
        let name = format!("mapper.{mapper}.map");
        out.push(Metric::new(format!("{name}_ms"), total_ms(&name), "ms"));
    }
    let mut plaid_by_workload: HashMap<&str, f64> = HashMap::new();
    for span in spans.iter().filter(|s| s.name == "mapper.plaid.map") {
        if let Some(i) = span.point {
            *plaid_by_workload
                .entry(plan.points[i].workload.name.as_str())
                .or_default() += span.ms();
        }
    }
    let mut workloads: Vec<&str> = plan
        .points
        .iter()
        .map(|p| p.workload.name.as_str())
        .collect();
    workloads.dedup();
    for workload in workloads {
        out.push(Metric::new(
            format!("mapper.plaid.{workload}.map_ms"),
            plaid_by_workload.get(workload).copied().unwrap_or(0.0),
            "ms",
        ));
    }
    let mut map_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name.starts_with("mapper.") && s.name.ends_with(".map"))
        .map(Span::ms)
        .collect();
    map_ms.sort_by(f64::total_cmp);
    out.push(Metric::new(
        "mapper.map_ms_p50",
        percentile(&map_ms, 0.50),
        "ms",
    ));
    out.push(Metric::new(
        "mapper.map_ms_p95",
        percentile(&map_ms, 0.95),
        "ms",
    ));
    out.push(Metric::new("mapper.ii_rungs", f64::from(rungs), "count"));
    out.push(Metric::new(
        "mapper.failed_rungs",
        f64::from(rungs - useful),
        "count",
    ));
    out.push(Metric::new(
        "mapper.useful_rung_ratio",
        ratio(f64::from(useful), f64::from(rungs)),
        "share",
    ));
    out.push(Metric::new("mapper.ii_gap", f64::from(gap), "count"));
    out.push(Metric::new("mapper.route_hops", hops as f64, "count"));

    // Self time: a compile span's duration minus its direct children's.
    let mut child_ms = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ms[parent] += span.ms();
        }
    }
    let self_ms: f64 = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "pipeline.compile")
        .fold(0.0, |sum, (i, s)| sum + s.ms() - child_ms[i]);
    out.push(Metric::new(
        "pipeline.compile_ms",
        total_ms("pipeline.compile"),
        "ms",
    ));
    out.push(Metric::new("pipeline.self_ms", self_ms, "ms"));

    out.push(Metric::new(
        "explore.seed.hint_ms",
        total_ms("explore.seed.hint"),
        "ms",
    ));
    let seeded = job.points.iter().filter(|p| p.seeded).count();
    let seed_hits = job.points.iter().filter(|p| p.seed_hit).count();
    out.push(Metric::new("explore.seed.seeded", seeded as f64, "count"));
    out.push(Metric::new(
        "explore.seed.seed_hits",
        seed_hits as f64,
        "count",
    ));
    out.push(Metric::new(
        "explore.sweep.parallel_efficiency",
        ratio(total_ms("explore.point"), THREADS as f64 * job.wall_s * 1e3),
        "share",
    ));

    let load_ms = total_ms("explore.cache.load");
    out.push(Metric::new("explore.cache.load_ms", load_ms, "ms"));
    out.push(Metric::new(
        "explore.cache.load_mb_per_s",
        ratio(job.loaded_bytes as f64 / MIB, load_ms / 1e3),
        "MiB/s",
    ));
    out.push(Metric::new(
        "explore.cache.save_ms",
        total_ms("explore.cache.save"),
        "ms",
    ));
    out.push(Metric::new(
        "explore.cache.hit_rate",
        ratio(job.cache_hits as f64, job.cache_lookups as f64),
        "share",
    ));
    out.push(Metric::new(
        "explore.shard.merge_ms",
        total_ms("explore.shard.merge"),
        "ms",
    ));
    out.push(Metric::new(
        "explore.pareto.frontier_ms",
        total_ms("explore.pareto.frontier"),
        "ms",
    ));
    out.push(Metric::new(
        "trace.overhead_share",
        ratio(job.wall_s - untraced_wall_s, untraced_wall_s),
        "share",
    ));
    out
}

const MIB: f64 = 1024.0 * 1024.0;

/// Nearest-rank percentile of sorted values (0 when empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
