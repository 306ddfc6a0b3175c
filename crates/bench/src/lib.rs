//! The repository's two deterministic text artefacts, each committed and
//! compared byte for byte by CI with a fresh run.
//!
//! [`figures`] renders every table of the paper's evaluation in paper order,
//! each a query over one sweep ([`evaluation`]). `plaid-bench figures`
//! prints it; the output is committed as `FIGURES.txt`, and depends neither
//! on the thread count nor on the build profile.
//!
//! [`counts`] sweeps the default plan and the whole suite's full grid under
//! both seed policies and renders the mappers' exact work counts
//! ([`WorkCounts`]). `plaid-bench counts` prints it; the output is
//! committed as `BENCH_sweep.json`. The counts depend only on the code and
//! the plans, never on the host, the thread count or the build profile, so
//! any change in the work the mappers do shows up as a diff.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::time::Instant;

use plaid::pipeline::WorkCounts;
use plaid_arch::SpaceSpec;
use plaid_explore::{run_sweep_with, ResultCache, SeedPolicy, SweepPlan};
use plaid_workloads::table2_workloads;

pub mod evaluation;

use evaluation::{area_breakdown, headline_summary, power_breakdown, Evaluation};

/// Every table and figure of the paper's evaluation, in paper order, each
/// followed by its coverage line and, where the paper states one, its
/// target.
pub fn figures() -> String {
    let evaluation = Evaluation::run();
    let comparison = evaluation.architecture_comparison();
    let sections = [
        power_breakdown(),
        evaluation.table2_characteristics().1,
        comparison.render_performance(),
        area_breakdown(),
        comparison.render_energy(),
        comparison.render_perf_per_area(),
        evaluation.dnn_comparison().1,
        evaluation.scalability(),
        evaluation.mapper_comparison().2,
        evaluation.domain_specialization().1,
        headline_summary(&comparison),
    ];
    let mut out = String::from(
        "Plaid evaluation: all 30 Table 2 workloads and the 3 DNN applications.\n\
         Regenerate with `cargo run --release -p plaid-bench --bin plaid-bench -- figures > FIGURES.txt`.\n",
    );
    for section in sections {
        out.push('\n');
        out.push_str(&section);
    }
    out
}

/// The mappers' work, as pretty JSON, over two plans: `default_plan`
/// (`plaid-dse`'s default, every eighth Table 2 workload on the default
/// grid) and `all_suite_full` (all 30 workloads on the full grid), each
/// swept once from an empty cache under seeding `off` and `exact`. Each
/// sweep's wall time goes to stderr; it is advisory and not part of the
/// output.
pub fn counts() -> String {
    let suite = table2_workloads();
    let default_plan: Vec<_> = suite.iter().step_by(8).cloned().collect();
    let plans = [
        (
            "default_plan",
            SweepPlan::cross(&default_plan, &SpaceSpec::default_grid()),
        ),
        (
            "all_suite_full",
            SweepPlan::cross(&suite, &SpaceSpec::full_grid()),
        ),
    ];
    let mut counts: BTreeMap<String, BTreeMap<String, WorkCounts>> = BTreeMap::new();
    for (name, plan) in &plans {
        for policy in [SeedPolicy::Off, SeedPolicy::Exact] {
            let start = Instant::now();
            let outcome = run_sweep_with(plan, &ResultCache::new(), policy);
            eprintln!(
                "{name} {}: {} points in {} ms",
                policy.label(),
                plan.len(),
                start.elapsed().as_millis()
            );
            counts
                .entry(name.to_string())
                .or_default()
                .insert(policy.label().to_string(), outcome.stats.work);
        }
    }
    let mut json = serde_json::to_string_pretty(&counts).expect("counts serialize");
    json.push('\n');
    json
}
