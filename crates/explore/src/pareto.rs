//! Multi-objective Pareto-frontier extraction over sweep results.
//!
//! Every evaluated point carries three minimization objectives — execution
//! cycles, fabric area and fabric energy. A point *dominates* another when it
//! is no worse on every objective and strictly better on at least one; the
//! frontier is the set of non-dominated points. Frontiers are extracted per
//! workload (comparing cycles across different workloads is meaningless) and
//! returned in a deterministic order so repeated sweeps serialize
//! byte-identically.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::record::EvalRecord;

/// The three minimization objectives of the provisioning study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Objectives {
    /// Total execution cycles.
    pub cycles: u64,
    /// Fabric area in µm².
    pub area_um2: f64,
    /// Fabric energy in nJ.
    pub energy_nj: f64,
}

impl Objectives {
    /// Whether every objective is a finite number. A record with a NaN (or
    /// infinite) area or energy can never be dominated — IEEE comparisons
    /// against NaN are all false — so it would always survive onto the
    /// frontier; such records are excluded before dominance filtering.
    pub fn is_finite(&self) -> bool {
        self.area_um2.is_finite() && self.energy_nj.is_finite()
    }

    /// True when `self` is no worse than `other` on every objective and
    /// strictly better on at least one.
    pub fn dominates(&self, other: &Objectives) -> bool {
        let no_worse = self.cycles <= other.cycles
            && self.area_um2 <= other.area_um2
            && self.energy_nj <= other.energy_nj;
        let better = self.cycles < other.cycles
            || self.area_um2 < other.area_um2
            || self.energy_nj < other.energy_nj;
        no_worse && better
    }
}

/// Indices of the non-dominated points of `objectives`, in ascending index
/// order.
///
/// Duplicate objective vectors are all kept (none dominates the other), so
/// ties stay visible in reports. O(n²) pairwise filtering — sweep result
/// sets are small (hundreds to low thousands of points).
pub fn pareto_indices(objectives: &[Objectives]) -> Vec<usize> {
    (0..objectives.len())
        .filter(|&i| {
            !objectives
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && other.dominates(&objectives[i]))
        })
        .collect()
}

/// The per-workload frontier of a sweep, in serializable form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadFrontier {
    /// Workload name.
    pub workload: String,
    /// Non-dominated evaluated points, sorted by ascending cycles (ties by
    /// area, then energy, then architecture label).
    pub points: Vec<EvalRecord>,
    /// Number of evaluated (successful) points the frontier was drawn from.
    pub evaluated: usize,
}

/// A full frontier report: one frontier per workload, workloads sorted by
/// name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierReport {
    /// Per-workload frontiers.
    pub frontiers: Vec<WorkloadFrontier>,
    /// Evaluated records dropped because an objective was NaN or infinite
    /// (a non-finite objective would otherwise always survive dominance
    /// filtering and pollute the frontier).
    pub excluded_non_finite: usize,
}

impl FrontierReport {
    /// Extracts per-workload Pareto frontiers from sweep records. Failed
    /// evaluations (no metrics) are excluded before dominance filtering, as
    /// are records with non-finite objectives (counted in
    /// [`FrontierReport::excluded_non_finite`]).
    pub fn from_records(records: &[EvalRecord]) -> Self {
        let mut by_workload: BTreeMap<String, Vec<EvalRecord>> = BTreeMap::new();
        let mut excluded_non_finite = 0usize;
        for record in records {
            match record.objectives() {
                Some(obj) if obj.is_finite() => {
                    // The captured placement seed is mapper-internal state:
                    // its capacity certificate depends on how the II ladder
                    // was reached (cold vs. floored past a proven-infeasible
                    // prefix) even when the mapping itself is identical.
                    // Stripping it keeps frontier reports bit-identical
                    // across seeding policies and slims the artifact.
                    by_workload
                        .entry(record.workload.name.clone())
                        .or_default()
                        .push(record.without_seed());
                }
                Some(_) => excluded_non_finite += 1,
                None => {}
            }
        }
        let frontiers = by_workload
            .into_iter()
            .map(|(workload, mut candidates)| {
                // Deterministic input order before filtering, so ties break
                // identically across runs and thread schedules.
                candidates.sort_by(compare_records);
                let objectives: Vec<Objectives> = candidates
                    .iter()
                    .map(|r| r.objectives().expect("failed records filtered"))
                    .collect();
                let keep = pareto_indices(&objectives);
                let evaluated = candidates.len();
                let points = keep.into_iter().map(|i| candidates[i].clone()).collect();
                WorkloadFrontier {
                    workload,
                    points,
                    evaluated,
                }
            })
            .collect();
        FrontierReport {
            frontiers,
            excluded_non_finite,
        }
    }

    /// Total number of frontier points across all workloads.
    pub fn frontier_size(&self) -> usize {
        self.frontiers.iter().map(|f| f.points.len()).sum()
    }

    /// Renders the report as plain-text tables (one per workload).
    pub fn render(&self) -> String {
        use plaid::report::render_table;
        let mut out = String::new();
        for frontier in &self.frontiers {
            let rows: Vec<Vec<String>> = frontier
                .points
                .iter()
                .map(|r| {
                    let obj = r.objectives().expect("frontier points evaluated");
                    vec![
                        r.arch.clone(),
                        r.mapper.label().to_string(),
                        r.compute_units.to_string(),
                        r.design.comm.label(),
                        r.design.config_entries.to_string(),
                        obj.cycles.to_string(),
                        format!("{:.0}", obj.area_um2),
                        format!("{:.1}", obj.energy_nj),
                    ]
                })
                .collect();
            out.push_str(&render_table(
                &format!(
                    "Pareto frontier — {} ({} of {} points survive)",
                    frontier.workload,
                    frontier.points.len(),
                    frontier.evaluated
                ),
                &[
                    "arch",
                    "mapper",
                    "FUs",
                    "comm",
                    "depth",
                    "cycles",
                    "area_um2",
                    "energy_nj",
                ],
                &rows,
            ));
            out.push('\n');
        }
        out
    }
}

fn compare_records(a: &EvalRecord, b: &EvalRecord) -> std::cmp::Ordering {
    let oa = a.objectives().expect("compared records evaluated");
    let ob = b.objectives().expect("compared records evaluated");
    oa.cycles
        .cmp(&ob.cycles)
        .then(oa.area_um2.total_cmp(&ob.area_um2))
        .then(oa.energy_nj.total_cmp(&ob.energy_nj))
        .then(a.arch.cmp(&b.arch))
        .then(a.mapper.label().cmp(b.mapper.label()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(cycles: u64, area: f64, energy: f64) -> Objectives {
        Objectives {
            cycles,
            area_um2: area,
            energy_nj: energy,
        }
    }

    #[test]
    fn dominance_is_strict_and_irreflexive() {
        let a = obj(100, 10.0, 5.0);
        let b = obj(200, 20.0, 10.0);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a), "a point never dominates itself");
        // Incomparable points (trade-off): neither dominates.
        let c = obj(50, 40.0, 5.0);
        assert!(!a.dominates(&c));
        assert!(!c.dominates(&a));
    }

    #[test]
    fn single_axis_improvement_suffices() {
        let a = obj(100, 10.0, 5.0);
        let better_energy = obj(100, 10.0, 4.0);
        assert!(better_energy.dominates(&a));
    }

    #[test]
    fn frontier_contains_no_dominated_point() {
        let points = vec![
            obj(100, 10.0, 5.0),  // frontier
            obj(100, 10.0, 5.0),  // duplicate — kept (ties don't dominate)
            obj(90, 20.0, 6.0),   // frontier (fastest in its area class)
            obj(200, 20.0, 10.0), // dominated by 0
            obj(80, 5.0, 2.0),    // dominates everything
        ];
        let keep = pareto_indices(&points);
        // Point 4 dominates 0, 1, 2 and 3? It dominates 0/1/3; 2 has
        // cycles 90 > 80, area 20 > 5 — dominated too.
        assert_eq!(keep, vec![4]);
        for &i in &keep {
            for (j, other) in points.iter().enumerate() {
                if i != j {
                    assert!(
                        !other.dominates(&points[i]),
                        "frontier point {i} dominated by {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn incomparable_points_all_survive() {
        let points = vec![obj(100, 30.0, 1.0), obj(50, 60.0, 2.0), obj(25, 90.0, 0.5)];
        assert_eq!(pareto_indices(&points), vec![0, 1, 2]);
    }

    #[test]
    fn empty_input_yields_empty_frontier() {
        assert!(pareto_indices(&[]).is_empty());
        let report = FrontierReport::from_records(&[]);
        assert_eq!(report.frontier_size(), 0);
        assert_eq!(report.excluded_non_finite, 0);
        assert!(report.render().is_empty());
    }

    fn record_with_metrics(area: f64, energy: f64) -> EvalRecord {
        use plaid::pipeline::{CompileSummary, MapperChoice};
        use plaid_arch::{ArchClass, CommSpec, DesignPoint};
        use plaid_motif::CoverageStats;
        use plaid_sim::metrics::EvalMetrics;
        use plaid_workloads::{Domain, WorkloadDescriptor};
        EvalRecord {
            workload: WorkloadDescriptor {
                name: "synthetic".into(),
                domain: Domain::LinearAlgebra,
                kernel: "synthetic".into(),
                unroll: 1,
                iterations: 16,
            },
            design: DesignPoint {
                class: ArchClass::Plaid,
                rows: 2,
                cols: 2,
                config_entries: 16,
                comm: CommSpec::ALIGNED,
            },
            arch: format!("synthetic-a{area}-e{energy}"),
            mapper: MapperChoice::Plaid,
            compute_units: 16,
            ok: true,
            error: None,
            summary: Some(CompileSummary {
                name: "synthetic".into(),
                coverage: CoverageStats {
                    name: "synthetic".into(),
                    total_nodes: 1,
                    compute_nodes: 1,
                    covered_nodes: 0,
                    fan_in: 0,
                    fan_out: 0,
                    unicast: 0,
                    pairs: 0,
                },
                metrics: EvalMetrics {
                    kernel: "synthetic".into(),
                    arch: "synthetic".into(),
                    mapper: "plaid".into(),
                    ii: 1,
                    cycles: 100,
                    power_uw: 1.0,
                    energy_nj: energy,
                    area_um2: area,
                },
                seed: None,
            }),
        }
    }

    #[test]
    fn non_finite_objectives_are_excluded_with_a_count() {
        // Regression: a NaN objective is incomparable under IEEE `<=`/`<`,
        // so nothing can dominate it and it always landed on the frontier.
        let nan_area = record_with_metrics(f64::NAN, 1.0);
        let inf_energy = record_with_metrics(10.0, f64::INFINITY);
        let good = record_with_metrics(10.0, 1.0);
        let report =
            FrontierReport::from_records(&[nan_area.clone(), inf_energy.clone(), good.clone()]);
        assert_eq!(report.excluded_non_finite, 2);
        assert_eq!(report.frontier_size(), 1);
        let frontier = &report.frontiers[0];
        assert_eq!(frontier.evaluated, 1);
        assert_eq!(frontier.points[0].arch, good.arch);
        // Sanity: without the filter the NaN record would have survived.
        assert!(!nan_area.objectives().unwrap().is_finite());
        assert!(!inf_energy.objectives().unwrap().is_finite());
        assert!(good.objectives().unwrap().is_finite());
    }
}
