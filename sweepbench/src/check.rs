//! Correctness checks against the pinned reference of the default plan.
//!
//! `reference/outcomes.tsv` holds one line per plan point — workload, design
//! label, mapper, then `ok` with the achieved II, cycles, area (µm²) and
//! energy (nJ), or `failed` — and `reference/frontier.fnv` the FNV-1a digest
//! and length of the frontier JSON. Both were produced at seed 0 by
//! `sweepbench --write-reference`, which refuses to write them unless the
//! `exact` and `off` sweeps agree.

use std::collections::HashMap;

use plaid_explore::EvalRecord;
use plaid_workloads::find_workload;

const OUTCOMES: &str = include_str!("../reference/outcomes.tsv");
const FRONTIER: &str = include_str!("../reference/frontier.fnv");

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The `workload \t design \t mapper` identity of a record.
fn identity(record: &EvalRecord) -> String {
    format!(
        "{}\t{}\t{}",
        record.workload.name,
        record.arch,
        record.mapper.label()
    )
}

/// A record's line of the outcome table. Floats print in Rust's shortest
/// round-trip form, so equal lines mean bit-equal values.
pub fn outcome_line(record: &EvalRecord) -> String {
    let id = identity(record);
    match (&record.summary, record.ok) {
        (Some(s), true) => format!(
            "{id}\tok\t{}\t{}\t{:?}\t{:?}",
            s.metrics.ii, s.metrics.cycles, s.metrics.area_um2, s.metrics.energy_nj
        ),
        _ => format!("{id}\tfailed"),
    }
}

/// The frontier digest line written to `reference/frontier.fnv`.
pub fn frontier_line(frontier_json: &str) -> String {
    format!(
        "fnv1a64 {:016x} bytes {}",
        fnv1a64(frontier_json.as_bytes()),
        frontier_json.len()
    )
}

/// The pinned reference.
pub struct Reference {
    outcomes: HashMap<String, String>,
    frontier: String,
}

impl Reference {
    /// Parses the reference compiled into the binary.
    pub fn pinned() -> Self {
        let outcomes = OUTCOMES
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .map(|l| {
                let id: Vec<&str> = l.splitn(4, '\t').take(3).collect();
                (id.join("\t"), l.to_string())
            })
            .collect();
        Reference {
            outcomes,
            frontier: FRONTIER.trim().to_string(),
        }
    }
}

/// The result of checking one sweep's records and frontier.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Points checked.
    pub attempted: usize,
    /// Points whose outcome differs from the reference or whose mapping
    /// fails validation.
    pub wrong: usize,
    /// Points with no valid mapping.
    pub infeasible: usize,
    /// Geometric mean of cycles over mapped points.
    pub cycles_geomean: f64,
    /// Failed self-checks, in words.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Records a failed self-check.
    pub fn problem(&mut self, text: impl Into<String>) {
        self.problems.push(text.into());
    }
}

/// Checks a sweep's records (any order) and frontier JSON against the
/// reference. Every mapped modulo point's placement seed is replayed on its
/// fabric, which runs `Mapping::validate` on the mapping it describes.
pub fn check_sweep(records: &[EvalRecord], frontier_json: &str, reference: &Reference) -> Verdict {
    let mut verdict = Verdict {
        attempted: records.len(),
        ..Verdict::default()
    };
    if records.len() != reference.outcomes.len() {
        verdict.problem(format!(
            "{} records against {} reference points",
            records.len(),
            reference.outcomes.len()
        ));
    }
    let mut cycles: Vec<u64> = Vec::new();
    for record in records {
        let line = outcome_line(record);
        let matches = reference.outcomes.get(&identity(record)) == Some(&line);
        if !matches {
            verdict.wrong += 1;
            if verdict.wrong <= 3 {
                verdict.problem(format!("outcome differs from the reference: {line}"));
            }
        }
        let Some(summary) = record.summary.as_ref().filter(|_| record.ok) else {
            verdict.infeasible += 1;
            continue;
        };
        cycles.push(summary.metrics.cycles);
        if let Some(seed) = summary.seed.as_ref().filter(|_| matches) {
            let valid = find_workload(&record.workload.name)
                .and_then(|w| w.lower().ok())
                .and_then(|dfg| seed.replay(&dfg, &record.design.build()))
                .is_some_and(|mapping| mapping.ii == summary.metrics.ii);
            if !valid {
                verdict.wrong += 1;
                verdict.problem(format!("mapping fails validation: {line}"));
            }
        }
    }
    verdict.cycles_geomean = geomean(&mut cycles);
    if frontier_line(frontier_json) != reference.frontier {
        verdict.problem(format!(
            "frontier JSON differs from the reference ({} against {})",
            frontier_line(frontier_json),
            reference.frontier
        ));
    }
    verdict
}

/// Geometric mean, summed in sorted order so that it does not depend on the
/// order the records came in.
fn geomean(values: &mut [u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let log_sum: f64 = values.iter().map(|&v| (v as f64).ln()).sum();
    (log_sum / values.len() as f64).exp()
}
