//! `plaid-bench` — prints the repository's deterministic artefacts:
//! `plaid-bench figures` the paper's figures (`FIGURES.txt`), `plaid-bench
//! counts` the mappers' exact work counts (`BENCH_sweep.json`).

use std::process::ExitCode;

const USAGE: &str = "\
plaid-bench — the paper's figures and the mappers' exact work counts

USAGE:
    plaid-bench figures
    plaid-bench counts

Neither command takes options, and both print deterministic text to stdout.

`figures` runs the paper's evaluation over all 30 workloads and the 3 DNN
applications as one parallel sweep, and prints the tables. The output is
committed as FIGURES.txt; it is the same on any thread count.

`counts` sweeps the default plan and all 30 workloads on the full grid,
under seeding off and exact, and prints the mappers' work counts (II rungs,
repair iterations, placement probes, router searches and pops, edge scans)
as JSON. The output is committed as BENCH_sweep.json. Wall times go to
stderr and are advisory.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let text = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["figures"] => plaid_bench::figures(),
        ["counts"] => plaid_bench::counts(),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    print!("{text}");
    ExitCode::SUCCESS
}
