//! `sweepbench` — the provisioning sweep that `plaid-dse` runs by default,
//! measured end to end and, in a separate traced run, layer by layer.
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path sweepbench/Cargo.toml -- \
//!     --workload cold-exact --seed 0 --seconds 20 --trace 0
//! ```
//!
//! Every line of standard output names a metric with its unit; the last line
//! is one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. The exit code is 0 only when every point matches the pinned
//! reference and every self-check passes. `README.md` lists the workloads,
//! the metrics and the layer → end-to-end predictions.

mod check;
mod layers;
mod trace;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use plaid_arch::SpaceSpec;
use plaid_explore::{
    run_sweep_sharded, run_sweep_with, EvalRecord, FrontierReport, ResultCache, SeedPolicy,
    ShardSpec, SweepOutcome, SweepPlan,
};
use plaid_workloads::table2_workloads;

use check::{check_sweep, Reference, Verdict};
use layers::TracedJob;
use trace::Recorder;

/// Worker threads of every sweep; the rayon shim reads `RAYON_NUM_THREADS`.
const THREADS: usize = 2;
/// Shards of the `cached-merge` set-up.
const SHARDS: u32 = 4;
/// Set-ups of a cold workload before each timed job. Building the plan
/// takes well under a millisecond, and its speed shifts with the host's
/// state, so the samples are spread over the run; `setup_s` is their median.
const COLD_SETUPS: usize = 25;
/// Set-ups per `cached-merge` run (each one a sharded cold sweep).
const MERGE_SETUPS: usize = 2;
/// Clock ticks per second of `/proc/self/stat` (`USER_HZ`, 100 on Linux).
const CLOCK_TICKS_PER_S: f64 = 100.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bench {
    /// The default plan, cold, `SeedPolicy::Exact`: `plaid-dse` with no flags.
    ColdExact,
    /// The default plan, cold, `SeedPolicy::Off`: every ladder in full.
    ColdOff,
    /// Merge four shard caches, then re-sweep from the merged cache.
    CachedMerge,
}

impl Bench {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "cold-exact" => Ok(Bench::ColdExact),
            "cold-off" => Ok(Bench::ColdOff),
            "cached-merge" => Ok(Bench::CachedMerge),
            other => Err(format!(
                "unknown workload `{other}` (cold-exact|cold-off|cached-merge)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Bench::ColdExact => "cold-exact",
            Bench::ColdOff => "cold-off",
            Bench::CachedMerge => "cached-merge",
        }
    }

    fn policy(self) -> SeedPolicy {
        match self {
            Bench::ColdOff => SeedPolicy::Off,
            Bench::ColdExact | Bench::CachedMerge => SeedPolicy::Exact,
        }
    }
}

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    WriteReference,
}

const USAGE: &str = "usage: sweepbench --workload <cold-exact|cold-off|cached-merge> \
--seed <N> --seconds <S> --trace <0|1>\n       sweepbench --write-reference";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let (mut bench, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("missing value for {arg}"));
        match arg.as_str() {
            "--workload" => bench = Some(Bench::parse(&value()?)?),
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--write-reference" => return Ok(Command::WriteReference),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let bench = bench.ok_or(format!("missing --workload\n{USAGE}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Command::Run(Args {
        bench,
        seed,
        seconds,
        trace,
    }))
}

/// One named metric with its unit.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run prints.
#[derive(Default)]
struct Report {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    /// Metrics printed for people but left out of the JSON line, whose
    /// keys are exactly those `BENCHMARK.json` lists.
    extra: Vec<Metric>,
    /// Timed jobs (or traced pairs) the run made.
    samples: usize,
}

impl Report {
    /// Folds one checked sweep into the report.
    fn add(&mut self, verdict: Verdict) {
        self.attempted += verdict.attempted;
        self.failed += verdict.wrong;
        self.problems.extend(verdict.problems);
    }

    fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }

    fn print(&self, bench: Bench) {
        for m in self.metrics.iter().chain(&self.extra) {
            println!(
                "{:<13} {:<36} {:>14.6} {}",
                bench.name(),
                m.name,
                m.value,
                m.unit
            );
        }
        println!(
            "{:<13} {:<36} {:>14} count (of {} points checked)",
            bench.name(),
            "wrong_points",
            self.failed,
            self.attempted
        );
        println!(
            "{:<13} {:<36} {:>14} count (medians are over these)",
            bench.name(),
            "samples",
            self.samples
        );
        for problem in &self.problems {
            println!("self-check failed: {problem}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct() && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The default plan: every eighth registry workload (`rep8`) crossed with
/// `SpaceSpec::default_grid()`, which is what `plaid-dse` sweeps with no
/// flags. Seed 0 keeps that canonical order. Any other seed permutes the
/// design points within each workload's block and keeps the blocks in
/// place. The rayon shim hands each worker one contiguous chunk of the plan,
/// so a whole-plan shuffle would make `sweep_s` measure mostly how the seed
/// happened to split the six heavy Plaid families between the two threads.
fn default_plan(seed: u64) -> SweepPlan {
    let workloads: Vec<_> = table2_workloads().into_iter().step_by(8).collect();
    let mut plan = SweepPlan::cross(&workloads, &SpaceSpec::default_grid());
    if seed != 0 {
        let block = plan.len() / workloads.len();
        let mut rng = SplitMix64(seed);
        for chunk in plan.points.chunks_mut(block) {
            for i in (1..chunk.len()).rev() {
                let j = (rng.next() % (i as u64 + 1)) as usize;
                chunk.swap(i, j);
            }
        }
    }
    plan
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// User plus system CPU clock ticks of this process, over all its threads.
fn cpu_ticks() -> Result<u64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3, so
    // utime (field 14) and stime (field 15) are at offsets 11 and 12.
    let after = stat.rfind(')').ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = stat[after + 1..].split_whitespace().collect();
    let ticks = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or("malformed /proc/self/stat".to_string())
    };
    Ok(ticks(11)? + ticks(12)?)
}

/// Peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".to_string())
}

/// Whether another sample fits: always for the first, then while the
/// typical sample so far still ends within `seconds` of `start`.
fn more_time(start: Instant, samples: &[f64], seconds: f64) -> bool {
    let mut sorted = samples.to_vec();
    samples.is_empty() || start.elapsed().as_secs_f64() + median(&mut sorted) <= seconds
}

/// Runs `f`, returning its result with wall and CPU seconds.
fn measure<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64, f64), String> {
    let cpu = cpu_ticks()?;
    let start = Instant::now();
    let out = f()?;
    let wall = start.elapsed().as_secs_f64();
    let cpu = (cpu_ticks()? - cpu) as f64 / CLOCK_TICKS_PER_S;
    Ok((out, wall, cpu))
}

/// Runs the set-up `times` times, adding each one's seconds to `secs`;
/// returns the last result.
fn repeat_setup<T>(
    secs: &mut Vec<f64>,
    times: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..times {
        let start = Instant::now();
        last = Some(f()?);
        secs.push(start.elapsed().as_secs_f64());
    }
    Ok(last.expect("at least one set-up"))
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

fn write_frontier(report: &FrontierReport, path: &Path) -> Result<String, String> {
    let json = serde_json::to_string_pretty(report).map_err(|e| format!("frontier: {e}"))?;
    fs::write(path, &json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(json)
}

fn load(path: &Path) -> Result<ResultCache, String> {
    ResultCache::load(path).map_err(|e| format!("load {}: {e}", path.display()))
}

fn save(cache: &ResultCache, path: &Path) -> Result<(), String> {
    cache
        .save(path)
        .map_err(|e| format!("save {}: {e}", path.display()))
}

fn file_len(path: &Path) -> Result<u64, String> {
    fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// A sweep's outcome with the frontier JSON it wrote.
struct JobOut {
    outcome: SweepOutcome,
    frontier: String,
}

/// The timed part of a cold workload: sweep the plan against an empty cache
/// and write the frontier.
fn cold_job(plan: &SweepPlan, policy: SeedPolicy, dir: &Path) -> Result<JobOut, String> {
    let cache = ResultCache::new();
    let outcome = run_sweep_with(plan, &cache, policy);
    let frontier = write_frontier(
        &FrontierReport::from_records(&outcome.records),
        &dir.join("frontier.json"),
    )?;
    Ok(JobOut { outcome, frontier })
}

/// The `cached-merge` set-up: sweep the plan as four shards, as
/// `plaid-dse --shard I/4` does, and save each shard's cache.
fn merge_setup(seed: u64, dir: &Path) -> Result<(SweepPlan, Vec<PathBuf>), String> {
    let plan = default_plan(seed);
    let mut paths = Vec::new();
    for index in 0..SHARDS {
        let cache = ResultCache::new();
        let shard = ShardSpec {
            index,
            count: SHARDS,
        };
        run_sweep_sharded(&plan, shard, &cache, SeedPolicy::Exact);
        let path = dir.join(format!("shard-{index}.json"));
        save(&cache, &path)?;
        paths.push(path);
    }
    Ok((plan, paths))
}

/// The timed part of `cached-merge`: what `plaid-dse merge` does, then what
/// a `plaid-dse --cache` re-run does. Returns the re-run's outcome and
/// frontier, and the merge's frontier.
fn merge_job(plan: &SweepPlan, shards: &[PathBuf], dir: &Path) -> Result<(JobOut, String), String> {
    let merged = ResultCache::new();
    for path in shards {
        let shard = load(path)?;
        if merged.union_merge(&shard) != shard.len() {
            return Err(format!("{} overlaps another shard", path.display()));
        }
    }
    let records = merged.canonical_records();
    let merged_path = dir.join("merged.json");
    save(&merged, &merged_path)?;
    let merged_frontier = write_frontier(
        &FrontierReport::from_records(&records),
        &dir.join("merged-frontier.json"),
    )?;
    let reloaded = load(&merged_path)?;
    let outcome = run_sweep_with(plan, &reloaded, SeedPolicy::Exact);
    let frontier = write_frontier(
        &FrontierReport::from_records(&outcome.records),
        &dir.join("frontier.json"),
    )?;
    Ok((JobOut { outcome, frontier }, merged_frontier))
}

/// Checks one untraced job's sweep against the reference and against the
/// workload's expected count of compiled points.
fn check_job(bench: Bench, plan: &SweepPlan, job: &JobOut, reference: &Reference) -> Verdict {
    let mut verdict = check_sweep(&job.outcome.records, &job.frontier, reference);
    let stats = &job.outcome.stats;
    let expected_compiled = match bench {
        Bench::CachedMerge => 0,
        Bench::ColdExact | Bench::ColdOff => plan.len(),
    };
    if stats.points != plan.len() || stats.compiled != expected_compiled {
        verdict.problem(format!(
            "{} sweep compiled {} of {} points ({:.0}% cache hits); expected {expected_compiled}",
            bench.name(),
            stats.compiled,
            stats.points,
            stats.hit_rate() * 100.0
        ));
    }
    verdict
}

/// The end-to-end run: set up, then repeat the timed job for `seconds`.
fn run_untraced(args: &Args, dir: &Path, reference: &Reference) -> Result<Report, String> {
    let mut setups = Vec::new();
    let (plan, shards) = match args.bench {
        Bench::CachedMerge => {
            repeat_setup(&mut setups, MERGE_SETUPS, || merge_setup(args.seed, dir))?
        }
        Bench::ColdExact | Bench::ColdOff => (default_plan(args.seed), Vec::new()),
    };
    let mut report = Report::default();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let (mut infeasible, mut cycles_geomean) = (0, 0.0);
    let start = Instant::now();
    while more_time(start, &walls, args.seconds) {
        if args.bench != Bench::CachedMerge {
            repeat_setup(&mut setups, COLD_SETUPS, || Ok(default_plan(args.seed)))?;
        }
        let (job, wall, cpu) = match args.bench {
            Bench::CachedMerge => {
                let ((job, merged_frontier), wall, cpu) =
                    measure(|| merge_job(&plan, &shards, dir))?;
                if merged_frontier != job.frontier {
                    report
                        .problems
                        .push("merged frontier differs from the re-sweep's".into());
                }
                (job, wall, cpu)
            }
            Bench::ColdExact | Bench::ColdOff => {
                measure(|| cold_job(&plan, args.bench.policy(), dir))?
            }
        };
        eprintln!(
            "{} job {}: {wall:.3} s wall, {cpu:.2} s cpu",
            args.bench.name(),
            walls.len() + 1
        );
        walls.push(wall);
        cpus.push(cpu);
        let verdict = check_job(args.bench, &plan, &job, reference);
        infeasible = verdict.infeasible;
        cycles_geomean = verdict.cycles_geomean;
        report.add(verdict);
    }
    report.samples = walls.len();
    report.extra = vec![Metric::new(
        "sweep_s_max",
        walls.iter().copied().fold(0.0, f64::max),
        "s",
    )];
    eprintln!("set-up: {} samples", setups.len());
    report.metrics = vec![
        Metric::new("sweep_s", median(&mut walls), "s"),
        Metric::new("cpu_s", median(&mut cpus), "s"),
        Metric::new("setup_s", median(&mut setups), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MiB"),
        Metric::new("infeasible_points", infeasible as f64, "count"),
        Metric::new("mapped_cycles_geomean", cycles_geomean, "cycles"),
    ];
    Ok(report)
}

/// The traced run: pairs of one untraced and one traced job, repeated for
/// `seconds`. Each pair checks that the traced mirror reproduced the
/// untraced sweep; the per-layer metrics are medians over the pairs.
fn run_traced(args: &Args, dir: &Path, reference: &Reference) -> Result<Report, String> {
    let (plan, shards) = match args.bench {
        Bench::CachedMerge => merge_setup(args.seed, dir)?,
        Bench::ColdExact | Bench::ColdOff => (default_plan(args.seed), Vec::new()),
    };
    let mut report = Report::default();
    let mut pairs: Vec<Vec<Metric>> = Vec::new();
    let mut pair_walls = Vec::new();
    let mut last_trace = None;
    let start = Instant::now();
    while more_time(start, &pair_walls, args.seconds) {
        let pair_start = Instant::now();
        let untraced_job = || {
            measure(|| match args.bench {
                Bench::CachedMerge => merge_job(&plan, &shards, dir).map(|(job, _)| job),
                Bench::ColdExact | Bench::ColdOff => cold_job(&plan, args.bench.policy(), dir),
            })
        };
        // Alternate which side of the pair runs first, so that drift in the
        // machine's speed does not bias the overhead.
        let ((untraced, wall, _), traced) = if pairs.len().is_multiple_of(2) {
            let untraced = untraced_job()?;
            (untraced, traced_job(args.bench, &plan, &shards, dir)?)
        } else {
            let traced = traced_job(args.bench, &plan, &shards, dir)?;
            (untraced_job()?, traced)
        };
        pair_walls.push(pair_start.elapsed().as_secs_f64());
        let mut verdict = check_sweep(&traced.records, &traced.frontier, reference);
        compare(&untraced.outcome, &traced, &mut verdict);
        if untraced.frontier != traced.frontier {
            verdict.problem("traced frontier differs from the untraced one");
        }
        report.add(verdict);
        pairs.push(layers::layer_metrics(&plan, &traced, wall));
        last_trace = Some(traced.rec);
    }
    report.samples = pairs.len();
    let trace = last_trace.expect("at least one pair");
    let trace_path = dir
        .parent()
        .expect("run directory has a parent")
        .join(format!("trace-{}.jsonl", args.bench.name()));
    fs::write(&trace_path, trace.to_jsonl())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    report.metrics = (0..pairs[0].len())
        .map(|i| {
            let mut values: Vec<f64> = pairs.iter().map(|p| p[i].value).collect();
            Metric::new(
                pairs[0][i].name.clone(),
                median(&mut values),
                pairs[0][i].unit,
            )
        })
        .collect();
    Ok(report)
}

/// One traced job: the workload's timed part, driven by the traced mirror.
fn traced_job(
    bench: Bench,
    plan: &SweepPlan,
    shards: &[PathBuf],
    dir: &Path,
) -> Result<TracedJob, String> {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, None);
    let mut loaded_bytes = 0;
    let cache = match bench {
        Bench::CachedMerge => {
            let merged = ResultCache::new();
            for path in shards {
                loaded_bytes += file_len(path)?;
                let shard = rec.time("explore.cache.load", None, || load(path))?;
                rec.time("explore.shard.merge", None, || merged.union_merge(&shard));
            }
            let records = rec.time("explore.shard.merge", None, || merged.canonical_records());
            let merged_path = dir.join("traced-merged.json");
            rec.time("explore.cache.save", None, || save(&merged, &merged_path))?;
            traced_frontier(&mut rec, &records, &dir.join("traced-merged-frontier.json"))?;
            loaded_bytes += file_len(&merged_path)?;
            rec.time("explore.cache.load", None, || load(&merged_path))?
        }
        Bench::ColdExact | Bench::ColdOff => ResultCache::new(),
    };
    let (records, points) = trace::sweep(&mut rec, plan, &cache, bench.policy());
    let frontier = traced_frontier(&mut rec, &records, &dir.join("traced-frontier.json"))?;
    let wall_s = epoch.elapsed().as_secs_f64();
    Ok(TracedJob {
        rec,
        records,
        points,
        cache_hits: cache.hits(),
        cache_lookups: cache.hits() + cache.misses(),
        loaded_bytes,
        wall_s,
        frontier,
    })
}

fn traced_frontier(
    rec: &mut Recorder,
    records: &[EvalRecord],
    path: &Path,
) -> Result<String, String> {
    let report = rec.time("explore.pareto.frontier", None, || {
        FrontierReport::from_records(records)
    });
    rec.time("frontier.write", None, || write_frontier(&report, path))
}

/// The self-check of the traced run: the mirror's records equal
/// `run_sweep_with`'s, its counts equal `SweepStats`, and every mapping it
/// produced passes `Mapping::validate`.
fn compare(untraced: &SweepOutcome, traced: &TracedJob, verdict: &mut Verdict) {
    let differing = untraced
        .records
        .iter()
        .zip(&traced.records)
        .filter(|(a, b)| a != b)
        .count();
    if differing > 0 || untraced.records.len() != traced.records.len() {
        verdict.problem(format!(
            "traced mirror's records differ from run_sweep_with's at {differing} points"
        ));
    }
    let stats = &untraced.stats;
    let counts = [
        ("points", stats.points, traced.records.len()),
        (
            "compiled",
            stats.compiled,
            traced
                .points
                .iter()
                .filter(|p| p.compiled.is_some())
                .count(),
        ),
        ("cache_hits", stats.cache_hits, traced.cache_hits as usize),
        (
            "failures",
            stats.failures,
            traced.records.iter().filter(|r| !r.ok).count(),
        ),
        (
            "seeded",
            stats.seeded,
            traced.points.iter().filter(|p| p.seeded).count(),
        ),
        (
            "seed_hits",
            stats.seed_hits,
            traced.points.iter().filter(|p| p.seed_hit).count(),
        ),
    ];
    for (name, expected, got) in counts {
        if expected != got {
            verdict.problem(format!(
                "traced mirror counts {got} {name}, SweepStats {expected}"
            ));
        }
    }
    for point in &traced.points {
        let Some((arch, stages)) = &point.compiled else {
            continue;
        };
        if let (Some(dfg), Some(mapping)) = (&stages.dfg, &stages.mapping) {
            if let Err(e) = mapping.validate(dfg, arch) {
                verdict.wrong += 1;
                verdict.problem(format!("point {} mapping invalid: {e}", point.index));
            }
        }
    }
}

/// Regenerates `reference/`: sweeps the default plan at seed 0 under both
/// `exact` and `off`, and writes the outcome table and frontier digest only
/// when the two agree.
fn write_reference(dir: &Path) -> Result<(), String> {
    let plan = default_plan(0);
    let exact = cold_job(&plan, SeedPolicy::Exact, dir)?;
    let off = cold_job(&plan, SeedPolicy::Off, dir)?;
    let lines = |job: &JobOut| -> Vec<String> {
        job.outcome
            .records
            .iter()
            .map(check::outcome_line)
            .collect()
    };
    if lines(&exact) != lines(&off) || exact.frontier != off.frontier {
        return Err("exact and off sweeps disagree; reference not written".into());
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");
    let mut table =
        String::from("# workload\tdesign\tmapper\toutcome\tii\tcycles\tarea_um2\tenergy_nj\n");
    for line in lines(&exact) {
        table.push_str(&line);
        table.push('\n');
    }
    fs::write(root.join("outcomes.tsv"), table).map_err(|e| format!("outcomes.tsv: {e}"))?;
    fs::write(
        root.join("frontier.fnv"),
        check::frontier_line(&exact.frontier) + "\n",
    )
    .map_err(|e| format!("frontier.fnv: {e}"))?;
    println!(
        "wrote reference: {} points, {} infeasible",
        plan.len(),
        exact.outcome.stats.failures
    );
    Ok(())
}

/// A per-process scratch directory under `out/`, removed on exit.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> Result<Self, String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("run-{}", std::process::id()));
        fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(RunDir(path))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    // Before any sweep spawns a worker.
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());
    let result = parse_args(std::env::args().skip(1)).and_then(|command| {
        let dir = RunDir::create()?;
        match command {
            Command::WriteReference => write_reference(&dir.0).map(|()| None),
            Command::Run(args) => {
                let reference = Reference::pinned();
                let report = if args.trace {
                    run_traced(&args, &dir.0, &reference)?
                } else {
                    run_untraced(&args, &dir.0, &reference)?
                };
                Ok(Some((args.bench, report)))
            }
        }
    });
    match result {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some((bench, report))) => {
            report.print(bench);
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("sweepbench: {e}");
            ExitCode::from(2)
        }
    }
}
