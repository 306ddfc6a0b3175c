//! `plaid-bench` — the mapper-kernel performance regression gate, and
//! `plaid-bench figures`, which prints the paper's figures (`FIGURES.txt`).
//!
//! The gate re-measures the incremental mapper kernel's throughput (SA move
//! transactions/sec and router searches/sec on the standard 4×4 and 8×8
//! fabrics) and compares it against the committed `BENCH_mapper.json`
//! baseline, failing when any rate drops by more than the tolerance
//! (default 25% — generous enough to absorb shared-runner noise in CI,
//! tight enough to catch a real kernel regression; the CI workflow
//! documents the same number).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use plaid_bench::kernel::{measure_kernel, KernelReport};

const USAGE: &str = "\
plaid-bench — mapper-kernel throughput regression gate

USAGE:
    plaid-bench [OPTIONS]
    plaid-bench figures

Measures mapper-kernel throughput (moves/sec, routes/sec on st4x4 and
st8x8) and compares it against the committed baseline, exiting non-zero
when any rate regresses past the tolerance.

`plaid-bench figures` takes no options: it runs every experiment of the
paper's evaluation once, over all 30 workloads and the 3 DNN applications,
and prints the tables to stdout. The output is deterministic and is
committed as FIGURES.txt.

OPTIONS:
    --baseline <FILE>   Baseline JSON to gate against, resolved relative to
                        the invocation directory [default: the workspace
                        root's BENCH_mapper.json — the same file --update
                        writes, so default gate and default re-pin always
                        agree]
    --tolerance <FRAC>  Allowed fractional drop per rate before failing
                        [default: 0.25 — i.e. fail below 75% of baseline]
    --budget-ms <N>     Measurement budget per rate in milliseconds
                        [default: 400]
    --update            Measure and overwrite the baseline instead of
                        gating (use to re-pin after an intentional change)
    -h, --help          Show this help
";

/// What one invocation does.
enum Command {
    Help,
    Figures,
    Gate(Options),
}

struct Options {
    baseline: PathBuf,
    tolerance: f64,
    budget: Duration,
    update: bool,
}

fn parse_args() -> Result<Command, String> {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("figures") {
        return match args.nth(1) {
            None => Ok(Command::Figures),
            Some(arg) => Err(format!("`figures` takes no options, got `{arg}`")),
        };
    }
    // Default to the workspace-root baseline (anchored at compile time), so
    // running from a subdirectory cannot silently gate against — or
    // `--update` into — a shadow file in the wrong directory.
    let mut options = Options {
        baseline: PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_mapper.json"
        )),
        tolerance: 0.25,
        budget: Duration::from_millis(400),
        update: false,
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--baseline" => options.baseline = PathBuf::from(value("--baseline")?),
            "--tolerance" => {
                options.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|_| "bad --tolerance value".to_string())?;
                if !(0.0..1.0).contains(&options.tolerance) {
                    return Err("--tolerance must be in [0, 1)".into());
                }
            }
            "--budget-ms" => {
                let ms: u64 = value("--budget-ms")?
                    .parse()
                    .map_err(|_| "bad --budget-ms value".to_string())?;
                if ms == 0 {
                    return Err("--budget-ms must be positive".into());
                }
                options.budget = Duration::from_millis(ms);
            }
            "--update" => options.update = true,
            "-h" | "--help" => return Ok(Command::Help),
            other => return Err(format!("unknown option `{other}` (see --help)")),
        }
    }
    Ok(Command::Gate(options))
}

/// The baseline's `(fabric, metric) -> rate` entries, from the
/// `BENCH_mapper.json` layout.
fn load_baseline(path: &Path) -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let value: serde_json::Value = serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse baseline {}: {e}", path.display()))?;
    let fabrics = value
        .as_object()
        .and_then(|o| o.get("fabrics"))
        .and_then(|f| f.as_object())
        .ok_or_else(|| format!("baseline {} has no `fabrics` object", path.display()))?;
    let mut entries = Vec::new();
    for (fabric, rates) in fabrics {
        let rates = rates
            .as_object()
            .ok_or_else(|| format!("baseline fabric `{fabric}` is not an object"))?;
        for metric in ["moves_per_sec", "routes_per_sec"] {
            let rate = rates
                .get(metric)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("baseline fabric `{fabric}` is missing `{metric}`"))?;
            if !rate.is_finite() || rate <= 0.0 {
                return Err(format!(
                    "baseline `{fabric}.{metric}` is not a positive rate: {rate}"
                ));
            }
            entries.push((fabric.clone(), metric.to_string(), rate));
        }
    }
    if entries.is_empty() {
        return Err(format!("baseline {} lists no fabrics", path.display()));
    }
    Ok(entries)
}

fn fresh_rate(report: &KernelReport, fabric: &str, metric: &str) -> Option<f64> {
    let (_, rates) = report.fabrics.iter().find(|(label, _)| *label == fabric)?;
    match metric {
        "moves_per_sec" => Some(rates.moves_per_sec),
        "routes_per_sec" => Some(rates.routes_per_sec),
        _ => None,
    }
}

fn run(options: &Options) -> Result<(), String> {
    eprintln!(
        "measuring mapper kernel ({} ms per rate)...",
        options.budget.as_millis()
    );
    let report = measure_kernel(options.budget);

    if options.update {
        std::fs::write(&options.baseline, report.to_json())
            .map_err(|e| format!("cannot write baseline {}: {e}", options.baseline.display()))?;
        println!("updated baseline {}", options.baseline.display());
        return Ok(());
    }

    let baseline = load_baseline(&options.baseline)?;
    let floor_frac = 1.0 - options.tolerance;
    let mut regressions = 0usize;
    println!(
        "{:<8} {:>16} {:>12} {:>12} {:>8}  gate (>= {:.0}% of baseline)",
        "fabric",
        "metric",
        "baseline",
        "fresh",
        "ratio",
        floor_frac * 100.0
    );
    for (fabric, metric, base) in &baseline {
        let fresh = fresh_rate(&report, fabric, metric).ok_or_else(|| {
            format!("fresh measurement has no `{fabric}.{metric}` (fabric set changed?)")
        })?;
        let ratio = fresh / base;
        let ok = ratio >= floor_frac;
        if !ok {
            regressions += 1;
        }
        println!(
            "{fabric:<8} {metric:>16} {base:>12.0} {fresh:>12.0} {ratio:>7.2}x  {}",
            if ok { "ok" } else { "REGRESSED" }
        );
    }
    if regressions > 0 {
        return Err(format!(
            "{regressions} rate(s) regressed more than {:.0}% below {} — \
             if intentional, re-pin with `plaid-bench --update`",
            options.tolerance * 100.0,
            options.baseline.display()
        ));
    }
    println!(
        "mapper kernel within {:.0}% of baseline",
        options.tolerance * 100.0
    );
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|command| match command {
        Command::Help => {
            print!("{USAGE}");
            Ok(())
        }
        Command::Figures => {
            print!("{}", plaid_bench::figures());
            Ok(())
        }
        Command::Gate(options) => run(&options),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("plaid-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
