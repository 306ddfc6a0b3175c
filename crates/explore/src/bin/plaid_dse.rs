//! `plaid-dse` — parallel design-space exploration from the command line.
//!
//! Sweeps (workload × architecture × mapper) points across the provisioning
//! grid, memoizes every evaluation in a content-addressed cache, and emits
//! the per-workload Pareto frontier over {cycles, area, energy} as JSON.
//!
//! By default the sweep runs twice — a cold pass and a warm pass — so the
//! cache behaviour is visible in one invocation: the second pass reports a
//! 100% hit rate, no mapper work and a correspondingly lower wall time.

use std::path::PathBuf;
use std::process::ExitCode;

use plaid_arch::{BwClass, SpaceSpec, Topology};
use plaid_explore::{
    run_sweep_with, shard_plan, FrontierReport, ResultCache, SeedPolicy, ShardSpec, SweepPlan,
};
use plaid_workloads::{table2_workloads, Workload};

struct Options {
    grid: SpaceSpec,
    workloads: Vec<Workload>,
    passes: u32,
    seed_policy: SeedPolicy,
    shard: Option<ShardSpec>,
    cache_path: Option<PathBuf>,
    out_path: Option<PathBuf>,
    frontier_path: Option<PathBuf>,
    quiet: bool,
}

const USAGE: &str = "\
plaid-dse — parallel design-space exploration over CGRA provisioning points

USAGE:
    plaid-dse [OPTIONS]
    plaid-dse merge <OUT_CACHE> <SHARD_CACHE>... [--frontier FILE] [--quiet]

SUBCOMMANDS:
    merge    Union shard caches into <OUT_CACHE> and emit the merged Pareto
             frontier JSON — byte-identical to a single-process sweep of the
             same points. Shard caches are disjoint by construction, so
             an input re-supplying an already-merged record identity is
             rejected (duplicated shard run / mismatched sweep
             configuration)

OPTIONS:
    --grid <default|smoke|full>   Architecture grid to enumerate [default: default]
    --topology <LIST>             Replace the grid's communication axis with
                                  the cross product of these topologies and
                                  the --bw classes. Comma-separated:
                                  mesh|torus|express[:N]|xpN, or 'all'
                                  (mesh,torus,express)
    --bw <LIST>                   Bandwidth classes for --topology crossing:
                                  half|base|boost|double (comma-separated),
                                  or 'all' [default: base]
    --dims <LIST>                 Override the grid's array dimensions,
                                  e.g. 4x4 or 2x2,3x3,4x4
    --workloads <SPEC>            Comma-separated workload names, 'all', or
                                  'repN' for every Nth registry workload
                                  [default: rep8 — 4 workloads spanning domains]
    --passes <N>                  Sweep passes over the same plan [default: 2,
                                  demonstrating cold vs. cached performance]
    --seed <off|exact>            Seed policy [default: exact — reuse
                                  placement seeds across neighbouring design
                                  points; results stay bit-identical to a
                                  cold run. off: every point maps from
                                  scratch]
    --shard <I/N>                 Evaluate only shard I of an N-way
                                  content-hash partition of the plan
                                  (0-based). Disjoint and covering across
                                  shards, stable under point reordering;
                                  combine shard caches with `plaid-dse merge`
    --cache <FILE>                Load/save the content-addressed result cache
                                  (compact JSON; an existing file is rewritten
                                  only when a pass compiles a point)
    --out <FILE>                  Write all sweep records as JSON
    --frontier <FILE>             Write the Pareto frontier as JSON
                                  [default: dse_frontier.json]
    --no-frontier-file            Skip writing the frontier JSON file
    --list                        Print the plan (workloads × grid) and exit
    --quiet                       Suppress the frontier table on stdout
    -h, --help                    Show this help
";

fn parse_grid(name: &str) -> Result<SpaceSpec, String> {
    match name {
        "default" => Ok(SpaceSpec::default_grid()),
        "smoke" => Ok(SpaceSpec::smoke_grid()),
        "full" => Ok(SpaceSpec::full_grid()),
        other => Err(format!("unknown grid `{other}` (default|smoke|full)")),
    }
}

fn parse_topologies(spec: &str) -> Result<Vec<Topology>, String> {
    if spec == "all" {
        return Ok(vec![
            Topology::Mesh,
            Topology::Torus,
            Topology::Express { stride: 2 },
        ]);
    }
    parse_list(spec, Topology::parse)
}

fn parse_bw_classes(spec: &str) -> Result<Vec<BwClass>, String> {
    if spec == "all" {
        return Ok(BwClass::ALL.to_vec());
    }
    parse_list(spec, BwClass::parse)
}

/// Parses a comma-separated list, rejecting an entry that repeats an earlier
/// one's value (`express,xp2` too): it would sweep the same points twice.
fn parse_list<T: PartialEq>(
    spec: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut values = Vec::new();
    for entry in spec.split(',') {
        let value = parse(entry)?;
        if values.contains(&value) {
            return Err(format!("`{entry}` repeats an earlier entry of `{spec}`"));
        }
        values.push(value);
    }
    Ok(values)
}

fn parse_dims(spec: &str) -> Result<Vec<(u32, u32)>, String> {
    parse_list(spec, |dim| {
        let (rows, cols) = dim
            .split_once('x')
            .ok_or_else(|| format!("bad dimensions `{dim}` (expected RxC, e.g. 4x4)"))?;
        let rows: u32 = rows.parse().map_err(|_| format!("bad rows in `{dim}`"))?;
        let cols: u32 = cols.parse().map_err(|_| format!("bad cols in `{dim}`"))?;
        if rows == 0 || cols == 0 {
            return Err(format!("dimensions must be non-zero in `{dim}`"));
        }
        Ok((rows, cols))
    })
}

fn parse_workloads(spec: &str) -> Result<Vec<Workload>, String> {
    let registry = table2_workloads();
    if spec == "all" {
        return Ok(registry);
    }
    if let Some(stride) = spec.strip_prefix("rep") {
        let n: usize = stride
            .parse()
            .map_err(|_| format!("bad stride in `{spec}`"))?;
        if n == 0 {
            return Err("stride must be positive".into());
        }
        return Ok(registry.into_iter().step_by(n).collect());
    }
    parse_list(spec, |name| {
        registry
            .iter()
            .find(|w| w.name == name)
            .cloned()
            .ok_or_else(|| format!("unknown workload `{name}` (try --list)"))
    })
}

fn parse_args(args: Vec<String>) -> Result<Option<Options>, String> {
    let mut grid = SpaceSpec::default_grid();
    let mut topologies: Option<Vec<Topology>> = None;
    let mut bw_classes: Option<Vec<BwClass>> = None;
    let mut dims: Option<Vec<(u32, u32)>> = None;
    let mut workloads = parse_workloads("rep8").expect("default workload spec is valid");
    let mut passes = 2u32;
    let mut seed_policy = SeedPolicy::Exact;
    let mut shard = None;
    let mut cache_path = None;
    let mut out_path = None;
    let mut frontier_path = Some(PathBuf::from("dse_frontier.json"));
    let mut quiet = false;
    let mut list = false;
    // The flags that shape the architecture grid, as given, for the error
    // of an empty design space.
    let mut space_flags = Vec::new();

    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        let mut space_value = |name: &str| {
            let v = value(name)?;
            space_flags.push(format!("{name} {v}"));
            Ok::<_, String>(v)
        };
        match arg.as_str() {
            "--grid" => grid = parse_grid(&space_value("--grid")?)?,
            "--topology" => topologies = Some(parse_topologies(&space_value("--topology")?)?),
            "--bw" => bw_classes = Some(parse_bw_classes(&space_value("--bw")?)?),
            "--dims" => dims = Some(parse_dims(&space_value("--dims")?)?),
            "--workloads" => workloads = parse_workloads(&value("--workloads")?)?,
            "--passes" => {
                passes = value("--passes")?
                    .parse()
                    .map_err(|_| "bad --passes value".to_string())?;
                if passes == 0 {
                    return Err("--passes must be at least 1".into());
                }
            }
            "--seed" => seed_policy = SeedPolicy::parse(&value("--seed")?)?,
            "--shard" => shard = Some(ShardSpec::parse(&value("--shard")?)?),
            "--cache" => cache_path = Some(PathBuf::from(value("--cache")?)),
            "--out" => out_path = Some(PathBuf::from(value("--out")?)),
            "--frontier" => frontier_path = Some(PathBuf::from(value("--frontier")?)),
            "--no-frontier-file" => frontier_path = None,
            "--list" => list = true,
            "--quiet" => quiet = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown option `{other}` (see --help)")),
        }
    }

    // --topology / --bw replace the grid's communication axis with the
    // cross product of the requested topologies and bandwidth
    // classes; --dims overrides the array dimensions. `--bw` without
    // `--topology` varies bandwidth on the mesh.
    if topologies.is_some() || bw_classes.is_some() {
        let topologies = topologies.unwrap_or_else(|| vec![Topology::Mesh]);
        let bw_classes = bw_classes.unwrap_or_else(|| vec![BwClass::Base]);
        grid = grid.with_comm_grid(&topologies, &bw_classes);
    }
    if let Some(dims) = dims {
        grid.dims = dims;
    }
    // A grid whose every point is invalid (say, an express stride that adds
    // no link the torus lacks on any array of the grid) would sweep nothing
    // and write an empty frontier. An empty shard of a non-empty plan is
    // still a valid run.
    if grid.enumerate().is_empty() {
        return Err(format!(
            "`{}` selects no valid architecture point (an express stride \
             plus one must be below the larger array dimension)",
            space_flags.join(" ")
        ));
    }

    let options = Options {
        grid,
        workloads,
        passes,
        seed_policy,
        shard,
        cache_path,
        out_path,
        frontier_path,
        quiet,
    };
    if list {
        let designs = options.grid.enumerate();
        println!("workloads ({}):", options.workloads.len());
        for w in &options.workloads {
            println!("  {}", w.name);
        }
        println!("architecture points ({}):", designs.len());
        for d in &designs {
            println!("  {}", d.label());
        }
        println!(
            "plan: {} x {} = {} sweep points",
            options.workloads.len(),
            designs.len(),
            options.workloads.len() * designs.len()
        );
        return Ok(None);
    }
    Ok(Some(options))
}

fn run(options: &Options) -> Result<(), String> {
    // A cache file that does not exist yet is written even when nothing
    // compiles (an empty shard still leaves its `{}`); one that does is
    // rewritten only when a pass added records to it.
    let cache_existed = options.cache_path.as_ref().is_some_and(|p| p.exists());
    let cache = match &options.cache_path {
        Some(path) => ResultCache::load(path)
            .map_err(|e| format!("cannot load cache {}: {e}", path.display()))?,
        None => ResultCache::new(),
    };
    if let Some(path) = &options.cache_path {
        if !cache.is_empty() {
            eprintln!(
                "loaded {} cached results from {}",
                cache.len(),
                path.display()
            );
        }
    }

    let full_plan = SweepPlan::cross(&options.workloads, &options.grid);
    let full_len = full_plan.len();
    let plan = match options.shard {
        Some(shard) => shard_plan(&full_plan, shard),
        None => full_plan,
    };
    match options.shard {
        Some(shard) => eprintln!(
            "sweeping shard {} — {} of {} plan points ({} workloads x {} architecture points, \
             content-hash partition) on {} threads, seeding {}",
            shard.label(),
            plan.len(),
            full_len,
            options.workloads.len(),
            options.grid.enumerate().len(),
            rayon::current_num_threads(),
            options.seed_policy.label(),
        ),
        None => eprintln!(
            "sweeping {} points ({} workloads x {} architecture points) on {} threads, seeding {}",
            plan.len(),
            options.workloads.len(),
            options.grid.enumerate().len(),
            rayon::current_num_threads(),
            options.seed_policy.label(),
        ),
    }

    let mut last_outcome = None;
    let mut compiled = 0;
    for pass in 1..=options.passes {
        let outcome = run_sweep_with(&plan, &cache, options.seed_policy);
        let s = &outcome.stats;
        compiled += s.compiled;
        eprintln!(
            "pass {pass}: {} points in {} ms — {} compiled, {} cache hits ({:.0}% hit rate), \
             {} seeded ({} seed hits), {} infeasible; {} rungs ({} failed), \
             {} repair iterations, {} route searches",
            s.points,
            s.wall_ms,
            s.compiled,
            s.cache_hits,
            s.hit_rate() * 100.0,
            s.seeded,
            s.seed_hits,
            s.failures,
            s.work.rungs,
            s.work.failed_rungs,
            s.work.repair_iterations,
            s.work.route_searches,
        );
        last_outcome = Some(outcome);
    }
    let outcome = last_outcome.expect("at least one pass");

    if let Some(path) = &options.cache_path {
        if compiled > 0 || !cache_existed {
            cache
                .save(path)
                .map_err(|e| format!("cannot save cache {}: {e}", path.display()))?;
            eprintln!("saved {} results to {}", cache.len(), path.display());
        } else {
            eprintln!(
                "cache unchanged: {} results in {}",
                cache.len(),
                path.display()
            );
        }
    }
    if let Some(path) = &options.out_path {
        let json =
            serde_json::to_string_pretty(&outcome).map_err(|e| format!("serialize sweep: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("wrote sweep records to {}", path.display());
    }

    let frontier = FrontierReport::from_records(&outcome.records);
    emit_frontier(
        &frontier,
        options.frontier_path.as_deref(),
        options.quiet,
        "",
    )
}

/// Writes the frontier JSON (when a path is given) and renders the table
/// (unless quiet) — shared by the sweep and merge paths so their output
/// stays in lockstep (the merge-verify CI job diffs the two files byte for
/// byte).
fn emit_frontier(
    frontier: &FrontierReport,
    path: Option<&std::path::Path>,
    quiet: bool,
    kind: &str,
) -> Result<(), String> {
    if let Some(path) = path {
        let json = serde_json::to_string_pretty(frontier)
            .map_err(|e| format!("serialize frontier: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "wrote {kind}Pareto frontier ({} points across {} workloads) to {}",
            frontier.frontier_size(),
            frontier.frontiers.len(),
            path.display()
        );
    }
    if !quiet {
        print!("{}", frontier.render());
    }
    Ok(())
}

/// The `merge` subcommand: unions shard caches into one cache file and
/// derives the merged Pareto frontier from its canonical record set —
/// byte-identical to the frontier a single-process sweep of the same points
/// writes, because frontier extraction is order-insensitive and the shard
/// caches partition the plan.
///
/// Correct shard caches are *disjoint* (the partition is content-addressed),
/// so an input contributing records whose identity is already present is a
/// misconfiguration — the same `--shard` run twice, a file listed twice, or
/// hosts that swept different grids — and is always rejected: a
/// last-input-wins union would silently produce a frontier over a point set
/// no single plan describes.
fn run_merge(args: Vec<String>) -> Result<(), String> {
    let mut out_cache: Option<PathBuf> = None;
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut frontier_path = Some(PathBuf::from("dse_frontier.json"));
    let mut quiet = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--frontier" => {
                frontier_path = Some(PathBuf::from(
                    args.next().ok_or("missing value for --frontier")?,
                ))
            }
            "--no-frontier-file" => frontier_path = None,
            "--quiet" => quiet = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown merge option `{other}` (see --help)"))
            }
            path if out_cache.is_none() => out_cache = Some(PathBuf::from(path)),
            path => inputs.push(PathBuf::from(path)),
        }
    }
    let out_cache = out_cache.ok_or("merge: missing <OUT_CACHE> argument (see --help)")?;
    if inputs.is_empty() {
        return Err("merge: no shard caches to merge (see --help)".into());
    }

    let merged = ResultCache::new();
    for path in &inputs {
        let shard = ResultCache::load(path)
            .map_err(|e| format!("cannot load shard cache {}: {e}", path.display()))?;
        let loaded = shard.len();
        let added = merged.union_merge(&shard);
        let overlapping = loaded - added;
        if overlapping > 0 {
            return Err(format!(
                "merge: {} contributes {overlapping} record(s) whose identity another input \
                 already supplied — shard caches are disjoint by construction, so this usually \
                 means the same shard ran twice, a file was listed twice, or the hosts swept \
                 different configurations",
                path.display()
            ));
        }
        eprintln!("merged {}: {loaded} records, {added} new", path.display());
    }
    merged
        .save(&out_cache)
        .map_err(|e| format!("cannot save merged cache {}: {e}", out_cache.display()))?;
    eprintln!(
        "saved {} merged records to {}",
        merged.len(),
        out_cache.display()
    );

    let records = merged.canonical_records();
    let frontier = FrontierReport::from_records(&records);
    emit_frontier(&frontier, frontier_path.as_deref(), quiet, "merged ")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("merge") {
        return match run_merge(args[1..].to_vec()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("plaid-dse: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match parse_args(args) {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(options)) => match run(&options) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("plaid-dse: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("plaid-dse: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_arch::CommSpec;

    fn parse(args: &str) -> Result<Option<Options>, String> {
        parse_args(args.split_whitespace().map(String::from).collect())
    }

    fn options(args: &str) -> Options {
        parse(args).unwrap().expect("a sweep, not --help or --list")
    }

    fn error(args: &str) -> String {
        parse(args).err().expect("the arguments are rejected")
    }

    #[test]
    fn repeated_list_entries_are_rejected_by_value() {
        for (args, entry, spec) in [
            ("--workloads gemm_u2,gemm_u2", "gemm_u2", "gemm_u2,gemm_u2"),
            ("--dims 2x2,3x3,2x2", "2x2", "2x2,3x3,2x2"),
            ("--topology mesh,mesh", "mesh", "mesh,mesh"),
            ("--topology express,xp2", "xp2", "express,xp2"),
            ("--topology torus --bw boost,rich", "rich", "boost,rich"),
        ] {
            assert_eq!(
                error(args),
                format!("`{entry}` repeats an earlier entry of `{spec}`"),
                "{args}"
            );
        }
        // Distinct values are not duplicates, whatever their spelling.
        let grid = options("--topology express,express:3 --bw b,boost").grid;
        assert_eq!(grid.comm_specs.len(), 4);
    }

    #[test]
    fn bandwidth_without_a_topology_crosses_with_the_mesh() {
        let grid = options("--bw half,double").grid;
        assert_eq!(
            grid.comm_specs,
            vec![
                CommSpec::uniform(Topology::Mesh, BwClass::Half),
                CommSpec::uniform(Topology::Mesh, BwClass::Double),
            ]
        );
        assert_eq!(grid.dims, SpaceSpec::default_grid().dims);
    }

    #[test]
    fn dims_override_the_grid() {
        let grid = options("--grid full --dims 4x4,2x3").grid;
        assert_eq!(grid.dims, vec![(4, 4), (2, 3)]);
        assert_eq!(grid.comm_specs, SpaceSpec::full_grid().comm_specs);
        assert_eq!(grid.config_entries, SpaceSpec::full_grid().config_entries);
    }

    #[test]
    fn an_empty_design_space_is_an_error_naming_its_flags() {
        let message = error("--topology express:3 --dims 2x2,3x3");
        assert!(
            message.starts_with("`--topology express:3 --dims 2x2,3x3` selects no valid"),
            "{message}"
        );
    }
}
