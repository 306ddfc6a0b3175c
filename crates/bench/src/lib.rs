//! The paper's evaluation as one deterministic text artefact, plus the
//! mapper-kernel throughput measurement behind the `plaid-bench` gate.
//!
//! [`figures`] runs every experiment in `plaid::experiments` once over all
//! 30 Table 2 workloads and the three DNN applications, and renders the
//! tables in paper order. `plaid-bench figures` prints it; the output is
//! committed as `FIGURES.txt` and CI compares a fresh run byte for byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;

use plaid::experiments::{self, ExperimentScope};

/// Every table and figure of the paper's evaluation, in paper order, each
/// followed by its coverage line and, where the paper states one, its
/// target.
pub fn figures() -> String {
    let scope = ExperimentScope::FULL;
    let comparison = experiments::architecture_comparison(scope);
    let sections = [
        experiments::power_breakdown(),
        experiments::table2_characteristics(scope).1,
        comparison.render_performance(),
        experiments::area_breakdown(),
        comparison.render_energy(),
        comparison.render_perf_per_area(),
        experiments::dnn_comparison().1,
        experiments::scalability(scope).2,
        experiments::mapper_comparison(scope).2,
        experiments::domain_specialization().1,
        experiments::headline_summary(&comparison),
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
