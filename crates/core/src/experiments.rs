//! Experiment runners: one per table / figure of the paper's evaluation.
//!
//! Every runner returns structured rows plus a plain-text rendering that
//! mirrors the corresponding table or figure series (normalized to the same
//! baseline the paper uses). Every runner also reports its [`Coverage`]:
//! the workloads missing from its table and why, printed under the table.
//! `plaid-bench figures` runs them all once and prints the committed
//! `FIGURES.txt`. A runner prepares each of its workloads and fabrics once
//! ([`PreparedWorkload`], [`PreparedFabric`]) and compiles every pair.

use plaid_arch::Architecture;
use plaid_sim::cost::CostModel;
use plaid_workloads::{dnn_applications, table2_workloads, Workload};

use crate::pipeline::{
    compile_workload, ArchChoice, CompiledWorkload, MapperChoice, PreparedFabric, PreparedWorkload,
};
use crate::report::{geomean, ratio, render_table};

/// Why an experiment left a workload out of its table (or one row's sum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DropReason {
    /// Lowering the workload to a DFG failed.
    Lowering,
    /// Compiling failed on each of these architecture/mapper pairs.
    Compile(Vec<(ArchChoice, MapperChoice)>),
    /// Left out by design, as in the paper's Figure 17: recurrence-bound
    /// (RecMII ≥ ResMII on the 2×2 array), so a larger array cannot help.
    RecurrenceBound,
}

/// A workload (or DNN layer) missing from an experiment's table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dropped {
    /// Workload or layer name.
    pub workload: String,
    /// Why it is missing.
    pub reason: DropReason,
}

/// The workloads an experiment (or one summed row of it) covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    /// Workloads the experiment set out to cover.
    pub total: usize,
    /// Those missing from its table, in registry order.
    pub dropped: Vec<Dropped>,
}

impl Coverage {
    fn over(total: usize) -> Self {
        Coverage {
            total,
            dropped: Vec::new(),
        }
    }

    fn drop_workload(&mut self, workload: &str, reason: DropReason) {
        self.dropped.push(Dropped {
            workload: workload.to_string(),
            reason,
        });
    }

    /// Prepares `workload` for its compiles. If lowering fails, records the
    /// drop and returns `None`.
    fn prepare(&mut self, workload: &Workload) -> Option<PreparedWorkload> {
        let prepared = PreparedWorkload::new(workload).ok();
        if prepared.is_none() {
            self.drop_workload(&workload.name, DropReason::Lowering);
        }
        prepared
    }

    /// Compiles `workload` for each target. If any compile fails, records
    /// the drop, naming every target that failed, and returns `None`.
    fn compile<const N: usize>(
        &mut self,
        workload: &PreparedWorkload,
        targets: [(ArchChoice, &PreparedFabric, MapperChoice); N],
    ) -> Option<[CompiledWorkload; N]> {
        let results = targets.map(|(choice, fabric, mapper)| {
            (
                choice,
                mapper,
                compile_workload(workload, fabric, mapper, None),
            )
        });
        let failed: Vec<(ArchChoice, MapperChoice)> = results
            .iter()
            .filter(|(.., result)| result.is_err())
            .map(|&(choice, mapper, _)| (choice, mapper))
            .collect();
        if !failed.is_empty() {
            self.drop_workload(workload.name(), DropReason::Compile(failed));
            return None;
        }
        Some(results.map(|(.., result)| result.expect("every target compiled")))
    }

    /// `covered/total`, e.g. `23/30`.
    fn fraction(&self) -> String {
        format!("{}/{}", self.total - self.dropped.len(), self.total)
    }

    /// The lines printed under a table: `coverage: n/m <unit>`, then the
    /// missing workloads by reason.
    fn render(&self, unit: &str) -> String {
        format!(
            "coverage: {} {unit}\n{}",
            self.fraction(),
            render_drops(&self.dropped)
        )
    }
}

/// One line for the deliberate exclusions and one for the failures, each
/// only when there are any.
fn render_drops<'a>(dropped: impl IntoIterator<Item = &'a Dropped>) -> String {
    let mut excluded = Vec::new();
    let mut failed = Vec::new();
    for d in dropped {
        match &d.reason {
            DropReason::RecurrenceBound => excluded.push(d.workload.clone()),
            DropReason::Lowering => failed.push(format!("{} (lowering)", d.workload)),
            DropReason::Compile(targets) => {
                let targets: Vec<String> = targets
                    .iter()
                    .map(|(arch, mapper)| format!("{} / {}", arch.label(), mapper.label()))
                    .collect();
                failed.push(format!("{} ({})", d.workload, targets.join(", ")));
            }
        }
    }
    let mut out = String::new();
    if !excluded.is_empty() {
        out.push_str(&format!(
            "  excluded by design, RecMII >= ResMII: {}\n",
            excluded.join(", ")
        ));
    }
    if !failed.is_empty() {
        out.push_str(&format!(
            "  dropped, failed to compile: {}\n",
            failed.join(", ")
        ));
    }
    out
}

/// The coverage of a figure whose rows each sum over the same workloads:
/// `coverage: <row> n/m, ... <unit>`, then every row's drops.
fn render_row_coverage<'a>(
    rows: impl Iterator<Item = (&'a str, &'a Coverage)> + Clone,
    unit: &str,
) -> String {
    let fractions: Vec<String> = rows
        .clone()
        .map(|(label, coverage)| format!("{label} {}", coverage.fraction()))
        .collect();
    format!(
        "coverage: {} {unit}\n{}",
        fractions.join(", "),
        render_drops(rows.flat_map(|(_, coverage)| &coverage.dropped))
    )
}

/// One row of the main performance/energy/efficiency comparison
/// (Figures 12, 14 and 15 share the same underlying runs).
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Workload name.
    pub kernel: String,
    /// Spatio-temporal baseline cycles.
    pub st_cycles: u64,
    /// Spatial baseline cycles.
    pub spatial_cycles: u64,
    /// Plaid cycles.
    pub plaid_cycles: u64,
    /// Spatio-temporal energy (nJ).
    pub st_energy: f64,
    /// Spatial energy (nJ).
    pub spatial_energy: f64,
    /// Plaid energy (nJ).
    pub plaid_energy: f64,
    /// Spatio-temporal performance per area (arbitrary units).
    pub st_perf_per_area: f64,
    /// Spatial performance per area.
    pub spatial_perf_per_area: f64,
    /// Plaid performance per area.
    pub plaid_perf_per_area: f64,
}

/// Result of the three-way comparison underlying Figures 12, 14 and 15.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonResult {
    /// Per-workload rows.
    pub rows: Vec<ComparisonRow>,
    /// The workloads with no row: at least one of the three compiles failed.
    pub coverage: Coverage,
}

impl ComparisonResult {
    /// Geometric-mean of Plaid cycles normalized to the spatio-temporal
    /// baseline (≈1.0 in the paper).
    pub fn plaid_vs_st_cycles(&self) -> f64 {
        geomean(
            self.rows
                .iter()
                .map(|r| r.plaid_cycles as f64 / r.st_cycles as f64),
        )
    }

    /// Geometric-mean of spatial cycles normalized to Plaid (≈1.4 in the
    /// paper).
    pub fn spatial_vs_plaid_cycles(&self) -> f64 {
        geomean(
            self.rows
                .iter()
                .map(|r| r.spatial_cycles as f64 / r.plaid_cycles as f64),
        )
    }

    /// Geometric-mean of Plaid energy normalized to the spatio-temporal
    /// baseline (≈0.58 in the paper).
    pub fn plaid_vs_st_energy(&self) -> f64 {
        geomean(self.rows.iter().map(|r| r.plaid_energy / r.st_energy))
    }

    /// Geometric-mean of Plaid energy normalized to the spatial baseline
    /// (≈0.72 in the paper).
    pub fn plaid_vs_spatial_energy(&self) -> f64 {
        geomean(self.rows.iter().map(|r| r.plaid_energy / r.spatial_energy))
    }

    /// Figure 12 rendering: cycles normalized to the spatio-temporal CGRA.
    pub fn render_performance(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.kernel.clone(),
                    // Normalization baseline: identically 1.00 by definition.
                    ratio(1.0),
                    ratio(r.spatial_cycles as f64 / r.st_cycles as f64),
                    ratio(r.plaid_cycles as f64 / r.st_cycles as f64),
                ]
            })
            .collect();
        let mut text = render_table(
            "Figure 12: normalized cycles (lower is better, baseline = spatio-temporal)",
            &["kernel", "spatio-temporal", "spatial", "plaid"],
            &rows,
        );
        text.push_str(&self.coverage.render("workloads"));
        text.push_str(&format!(
            "geomean: plaid/spatio-temporal = {:.2}x cycles, spatial/plaid = {:.2}x cycles (paper: ~1.0x and ~1.4x)\n",
            self.plaid_vs_st_cycles(),
            self.spatial_vs_plaid_cycles()
        ));
        text
    }

    /// Figure 14 rendering: energy normalized to the spatio-temporal CGRA.
    pub fn render_energy(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.kernel.clone(),
                    ratio(1.0),
                    ratio(r.spatial_energy / r.st_energy),
                    ratio(r.plaid_energy / r.st_energy),
                ]
            })
            .collect();
        let mut text = render_table(
            "Figure 14: normalized total energy (lower is better, baseline = spatio-temporal)",
            &["kernel", "spatio-temporal", "spatial", "plaid"],
            &rows,
        );
        text.push_str(&self.coverage.render("workloads"));
        text.push_str(&format!(
            "geomean energy: plaid/spatio-temporal = {:.2}, plaid/spatial = {:.2} (paper: 0.58 and 0.72)\n",
            self.plaid_vs_st_energy(),
            self.plaid_vs_spatial_energy()
        ));
        text
    }

    /// Figure 15 rendering: performance per area normalized to the
    /// spatio-temporal CGRA.
    pub fn render_perf_per_area(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.kernel.clone(),
                    ratio(1.0),
                    ratio(r.spatial_perf_per_area / r.st_perf_per_area),
                    ratio(r.plaid_perf_per_area / r.st_perf_per_area),
                ]
            })
            .collect();
        let mut text = render_table(
            "Figure 15: normalized performance per area (higher is better, baseline = spatio-temporal)",
            &["kernel", "spatio-temporal", "spatial", "plaid"],
            &rows,
        );
        text.push_str(&self.coverage.render("workloads"));
        text
    }
}

/// Runs the three-way architecture comparison (Figures 12, 14, 15).
pub fn architecture_comparison() -> ComparisonResult {
    let st_arch = PreparedFabric::new(ArchChoice::SpatioTemporal4x4.build());
    let spatial_arch = PreparedFabric::new(ArchChoice::Spatial4x4.build());
    let plaid_arch = PreparedFabric::new(ArchChoice::Plaid2x2.build());
    let workloads = table2_workloads();
    let mut rows = Vec::new();
    let mut coverage = Coverage::over(workloads.len());
    for workload in &workloads {
        let Some(prepared) = coverage.prepare(workload) else {
            continue;
        };
        let Some([st, sp, pl]) = coverage.compile(
            &prepared,
            [
                (ArchChoice::SpatioTemporal4x4, &st_arch, MapperChoice::Sa),
                (ArchChoice::Spatial4x4, &spatial_arch, MapperChoice::Spatial),
                (ArchChoice::Plaid2x2, &plaid_arch, MapperChoice::Plaid),
            ],
        ) else {
            continue;
        };
        rows.push(ComparisonRow {
            kernel: workload.name.clone(),
            st_cycles: st.metrics.cycles,
            spatial_cycles: sp.metrics.cycles,
            plaid_cycles: pl.metrics.cycles,
            st_energy: st.metrics.energy_nj,
            spatial_energy: sp.metrics.energy_nj,
            plaid_energy: pl.metrics.energy_nj,
            st_perf_per_area: st.metrics.perf_per_area(),
            spatial_perf_per_area: sp.metrics.perf_per_area(),
            plaid_perf_per_area: pl.metrics.perf_per_area(),
        });
    }
    ComparisonResult { rows, coverage }
}

/// Figure 2: fabric power breakdown of the spatio-temporal baseline and Plaid.
pub fn power_breakdown() -> String {
    let model = CostModel::default();
    let st = ArchChoice::SpatioTemporal4x4.build();
    let pl = ArchChoice::Plaid2x2.build();
    let rows = |arch: &Architecture| {
        let p = model.fabric_power(arch);
        vec![
            arch.name().to_string(),
            format!("{:.1}", p.total()),
            format!("{:.0}%", p.share(p.routers()) * 100.0),
            format!("{:.0}%", p.share(p.comm_config) * 100.0),
            format!("{:.0}%", p.share(p.compute_config) * 100.0),
            format!("{:.0}%", p.share(p.compute) * 100.0),
            format!("{:.0}%", p.share(p.others) * 100.0),
        ]
    };
    let reduction = 1.0 - model.fabric_power(&pl).total() / model.fabric_power(&st).total();
    let mut out = render_table(
        "Figure 2: fabric power distribution",
        &[
            "architecture",
            "total µW",
            "routers",
            "comm cfg",
            "compute cfg",
            "compute",
            "others",
        ],
        &[rows(&st), rows(&pl)],
    );
    out.push_str(&format!(
        "Plaid power reduction vs spatio-temporal: {:.1}%\n",
        reduction * 100.0
    ));
    out
}

/// Figure 13: area breakdown of the Plaid fabric.
pub fn area_breakdown() -> String {
    let model = CostModel::default();
    let pl = ArchChoice::Plaid2x2.build();
    let a = model.fabric_area(&pl);
    let rows = vec![vec![
        format!("{:.0}", a.total()),
        format!("{:.0}%", a.share(a.local_routers) * 100.0),
        format!("{:.0}%", a.share(a.global_routers) * 100.0),
        format!("{:.0}%", a.share(a.compute_config) * 100.0),
        format!("{:.0}%", a.share(a.comm_config) * 100.0),
        format!("{:.0}%", a.share(a.compute) * 100.0),
        format!("{:.0}%", a.share(a.others) * 100.0),
    ]];
    render_table(
        "Figure 13: Plaid fabric area breakdown",
        &[
            "total µm²",
            "local router",
            "global router",
            "cfg compute",
            "cfg comm",
            "compute",
            "others",
        ],
        &rows,
    )
}

/// Table 2: workload characteristics (nodes, compute nodes, motif-covered
/// nodes).
pub fn table2_characteristics() -> (Coverage, String) {
    let workloads = table2_workloads();
    let mut rows = Vec::new();
    let mut coverage = Coverage::over(workloads.len());
    for workload in &workloads {
        let Some(prepared) = coverage.prepare(workload) else {
            continue;
        };
        let stats = prepared.coverage();
        rows.push(vec![
            workload.name.clone(),
            workload.domain.label().to_string(),
            stats.total_nodes.to_string(),
            stats.compute_nodes.to_string(),
            stats.covered_nodes.to_string(),
        ]);
    }
    let mut text = render_table(
        "Table 2: workload characteristics (nodes, compute nodes, motif-covered nodes)",
        &["kernel", "domain", "nodes", "compute", "covered"],
        &rows,
    );
    text.push_str(&coverage.render("workloads"));
    (coverage, text)
}

/// One row of the mapper ablation (Figure 18).
#[derive(Debug, Clone, PartialEq)]
pub struct MapperRow {
    /// Workload name.
    pub kernel: String,
    /// Cycles with the PathFinder mapper on Plaid.
    pub pathfinder_cycles: u64,
    /// Cycles with the SA mapper on Plaid.
    pub sa_cycles: u64,
    /// Cycles with the Plaid mapper on Plaid.
    pub plaid_cycles: u64,
}

/// Figure 18: mapper comparison on the Plaid architecture. A workload is
/// dropped only when the Plaid mapper fails; the generic mappers' failures
/// are charged a bound instead.
pub fn mapper_comparison() -> (Vec<MapperRow>, Coverage, String) {
    let fabric = PreparedFabric::new(ArchChoice::Plaid2x2.build());
    let workloads = table2_workloads();
    let mut rows = Vec::new();
    let mut coverage = Coverage::over(workloads.len());
    for workload in &workloads {
        let Some(prepared) = coverage.prepare(workload) else {
            continue;
        };
        let pf = compile_workload(&prepared, &fabric, MapperChoice::PathFinder, None);
        let sa = compile_workload(&prepared, &fabric, MapperChoice::Sa, None);
        let Some([pl]) = coverage.compile(
            &prepared,
            [(ArchChoice::Plaid2x2, &fabric, MapperChoice::Plaid)],
        ) else {
            continue;
        };
        // Generic mappers may fail on the trimmed-down fabric for complex
        // DFGs — exactly the effect Figure 18 highlights. Failures are charged
        // the configuration-memory bound (the mapper gave up at max II).
        let fallback = |r: Result<CompiledWorkload, _>| match r {
            Ok(c) => c.metrics.cycles,
            Err(_) => pl.dfg.total_iterations() * u64::from(fabric.arch().params().max_ii()),
        };
        rows.push(MapperRow {
            kernel: workload.name.clone(),
            pathfinder_cycles: fallback(pf),
            sa_cycles: fallback(sa),
            plaid_cycles: pl.metrics.cycles,
        });
    }
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.clone(),
                ratio(r.pathfinder_cycles as f64 / r.plaid_cycles as f64),
                ratio(r.sa_cycles as f64 / r.plaid_cycles as f64),
                ratio(1.0),
            ]
        })
        .collect();
    let mut text = render_table(
        "Figure 18: cycles on Plaid, normalized to the Plaid mapper (lower is better)",
        &["kernel", "PathFinder", "SA", "Plaid mapper"],
        &table_rows,
    );
    text.push_str(&coverage.render("workloads"));
    let slowdown = |cycles: fn(&MapperRow) -> u64| {
        geomean(
            rows.iter()
                .map(|r| cycles(r) as f64 / r.plaid_cycles as f64),
        )
    };
    text.push_str(&format!(
        "geomean slowdown vs Plaid mapper: PathFinder {:.2}x, SA {:.2}x (paper: 1.25x and 1.28x)\n",
        slowdown(|r| r.pathfinder_cycles),
        slowdown(|r| r.sa_cycles)
    ));
    (rows, coverage, text)
}

/// One row of the scalability study (Figure 17).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalabilityRow {
    /// Workload name.
    pub kernel: String,
    /// Cycles on the 2×2 PCU array.
    pub plaid_2x2_cycles: u64,
    /// Cycles on the 3×3 PCU array.
    pub plaid_3x3_cycles: u64,
}

/// Figure 17: 2×2 versus 3×3 Plaid.
///
/// As in the paper, workloads whose performance is limited by inter-iteration
/// dependencies (RecMII ≥ ResMII on the 2×2 array) are excluded, because a
/// larger array cannot help them.
pub fn scalability() -> (Vec<ScalabilityRow>, Coverage, String) {
    let small_arch = PreparedFabric::new(ArchChoice::Plaid2x2.build());
    let large_arch = PreparedFabric::new(ArchChoice::Plaid3x3.build());
    let workloads = table2_workloads();
    let mut rows = Vec::new();
    let mut coverage = Coverage::over(workloads.len());
    for workload in &workloads {
        let Some(prepared) = coverage.prepare(workload) else {
            continue;
        };
        let res = plaid_mapper::res_mii(prepared.dfg(), small_arch.arch());
        let rec = plaid_mapper::rec_mii(prepared.dfg());
        if rec >= res {
            coverage.drop_workload(&workload.name, DropReason::RecurrenceBound);
            continue;
        }
        let Some([small, large]) = coverage.compile(
            &prepared,
            [
                (ArchChoice::Plaid2x2, &small_arch, MapperChoice::Plaid),
                (ArchChoice::Plaid3x3, &large_arch, MapperChoice::Plaid),
            ],
        ) else {
            continue;
        };
        rows.push(ScalabilityRow {
            kernel: workload.name.clone(),
            plaid_2x2_cycles: small.metrics.cycles,
            plaid_3x3_cycles: large.metrics.cycles,
        });
    }
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.clone(),
                ratio(1.0),
                ratio(r.plaid_3x3_cycles as f64 / r.plaid_2x2_cycles as f64),
            ]
        })
        .collect();
    let speedup = geomean(
        rows.iter()
            .map(|r| r.plaid_2x2_cycles as f64 / r.plaid_3x3_cycles as f64),
    );
    let mut text = render_table(
        "Figure 17: normalized cycles, 3x3 Plaid vs 2x2 Plaid (lower is better)",
        &["kernel", "2x2 (4 PCUs)", "3x3 (9 PCUs)"],
        &table_rows,
    );
    text.push_str(&coverage.render("workloads"));
    text.push_str(&format!("geomean speedup of 3x3 over 2x2: {speedup:.2}x\n"));
    (rows, coverage, text)
}

/// One row of the DNN application study (Figure 16).
#[derive(Debug, Clone, PartialEq)]
pub struct DnnRow {
    /// Application name.
    pub application: String,
    /// Total cycles on the spatial baseline.
    pub spatial_cycles: u64,
    /// Total cycles on Plaid.
    pub plaid_cycles: u64,
    /// Total energy (nJ) on the spatial baseline.
    pub spatial_energy: f64,
    /// Total energy (nJ) on Plaid.
    pub plaid_energy: f64,
    /// Performance per area on the spatial baseline.
    pub spatial_perf_per_area: f64,
    /// Performance per area on Plaid.
    pub plaid_perf_per_area: f64,
    /// The layers left out of both sums: a compile failed on either fabric.
    pub coverage: Coverage,
}

/// Figure 16: application-level comparison of the spatial baseline and Plaid
/// on the three DNN applications.
pub fn dnn_comparison() -> (Vec<DnnRow>, String) {
    let model = CostModel::default();
    let spatial_arch = PreparedFabric::new(ArchChoice::Spatial4x4.build());
    let plaid_arch = PreparedFabric::new(ArchChoice::Plaid2x2.build());
    let mut rows = Vec::new();
    for app in dnn_applications() {
        let mut spatial_cycles = 0u64;
        let mut plaid_cycles = 0u64;
        let mut coverage = Coverage::over(app.layers.len());
        for layer in &app.layers {
            let workload = Workload {
                name: layer.name.clone(),
                domain: plaid_workloads::Domain::MachineLearning,
                kernel: layer.kernel.clone(),
                unroll: layer.unroll,
            };
            let Some(prepared) = coverage.prepare(&workload) else {
                continue;
            };
            let Some([sp, pl]) = coverage.compile(
                &prepared,
                [
                    (ArchChoice::Spatial4x4, &spatial_arch, MapperChoice::Spatial),
                    (ArchChoice::Plaid2x2, &plaid_arch, MapperChoice::Plaid),
                ],
            ) else {
                continue;
            };
            spatial_cycles += sp.metrics.cycles * layer.invocations;
            plaid_cycles += pl.metrics.cycles * layer.invocations;
        }
        let spatial_energy = model.energy_nj(spatial_arch.arch(), spatial_cycles);
        let plaid_energy = model.energy_nj(plaid_arch.arch(), plaid_cycles);
        let spatial_area = model.fabric_area(spatial_arch.arch()).total();
        let plaid_area = model.fabric_area(plaid_arch.arch()).total();
        rows.push(DnnRow {
            application: app.name.clone(),
            spatial_cycles,
            plaid_cycles,
            spatial_energy,
            plaid_energy,
            spatial_perf_per_area: 1.0e9 / (spatial_cycles as f64 * spatial_area),
            plaid_perf_per_area: 1.0e9 / (plaid_cycles as f64 * plaid_area),
            coverage,
        });
    }
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.application.clone(),
                ratio(r.spatial_energy / r.plaid_energy),
                ratio(r.spatial_perf_per_area / r.plaid_perf_per_area),
            ]
        })
        .collect();
    let mut text = render_table(
        "Figure 16: spatial CGRA vs Plaid on DNN applications (normalized to Plaid)",
        &[
            "application",
            "energy (spatial/plaid)",
            "perf/area (spatial/plaid)",
        ],
        &table_rows,
    );
    text.push_str(&render_row_coverage(
        rows.iter().map(|r| (r.application.as_str(), &r.coverage)),
        "layers",
    ));
    (rows, text)
}

/// One row of the domain-specialization study (Figure 19).
#[derive(Debug, Clone, PartialEq)]
pub struct SpecializationRow {
    /// Architecture label (ST, ST-ML, Plaid, Plaid-ML).
    pub arch: String,
    /// Total cycles over the ML kernels.
    pub cycles: u64,
    /// Total energy in nJ.
    pub energy_nj: f64,
    /// Performance per area.
    pub perf_per_area: f64,
    /// The ML kernels left out of the sums: their compile failed.
    pub coverage: Coverage,
}

/// Figure 19: domain specialization comparison on the machine-learning
/// kernels (ST, ST-ML, Plaid, Plaid-ML), normalized to Plaid in the
/// rendering.
pub fn domain_specialization() -> (Vec<SpecializationRow>, String) {
    let model = CostModel::default();
    let ml_workloads: Vec<(Workload, Option<PreparedWorkload>)> = table2_workloads()
        .into_iter()
        .filter(|w| w.domain == plaid_workloads::Domain::MachineLearning)
        .map(|w| {
            let prepared = PreparedWorkload::new(&w).ok();
            (w, prepared)
        })
        .collect();
    let configs = [
        (ArchChoice::SpatioTemporal4x4, MapperChoice::Sa, "ST"),
        (ArchChoice::SpatioTemporalMl, MapperChoice::Sa, "ST-ML"),
        (ArchChoice::Plaid2x2, MapperChoice::Plaid, "Plaid"),
        (ArchChoice::PlaidMl, MapperChoice::Plaid, "Plaid-ML"),
    ];
    let mut rows = Vec::new();
    for (arch_choice, mapper, label) in configs {
        let fabric = PreparedFabric::new(arch_choice.build());
        let mut cycles = 0u64;
        let mut coverage = Coverage::over(ml_workloads.len());
        for (w, prepared) in &ml_workloads {
            let Some(prepared) = prepared else {
                coverage.drop_workload(&w.name, DropReason::Lowering);
                continue;
            };
            if let Some([c]) = coverage.compile(prepared, [(arch_choice, &fabric, mapper)]) {
                cycles += c.metrics.cycles;
            }
        }
        let energy = model.energy_nj(fabric.arch(), cycles);
        let area = model.fabric_area(fabric.arch()).total();
        rows.push(SpecializationRow {
            arch: label.to_string(),
            cycles,
            energy_nj: energy,
            perf_per_area: if cycles > 0 {
                1.0e9 / (cycles as f64 * area)
            } else {
                0.0
            },
            coverage,
        });
    }
    let plaid_row = rows.iter().find(|r| r.arch == "Plaid").cloned();
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let (e, p) = match &plaid_row {
                Some(base) => (
                    r.energy_nj / base.energy_nj,
                    r.perf_per_area / base.perf_per_area,
                ),
                None => (1.0, 1.0),
            };
            vec![r.arch.clone(), ratio(e), ratio(p)]
        })
        .collect();
    let mut text = render_table(
        "Figure 19: domain specialization on ML kernels (normalized to Plaid)",
        &["architecture", "energy", "perf/area"],
        &table_rows,
    );
    text.push_str(&render_row_coverage(
        rows.iter().map(|r| (r.arch.as_str(), &r.coverage)),
        "ML kernels",
    ));
    (rows, text)
}

/// Section 7 headline numbers: power/area/performance of Plaid versus both
/// baselines, the latter from the Figure 12/14 `comparison`.
pub fn headline_summary(comparison: &ComparisonResult) -> String {
    let model = CostModel::default();
    let st = ArchChoice::SpatioTemporal4x4.build();
    let sp = ArchChoice::Spatial4x4.build();
    let pl = ArchChoice::Plaid2x2.build();
    let power_red = 1.0 - model.fabric_power(&pl).total() / model.fabric_power(&st).total();
    let area_red_st = 1.0 - model.fabric_area(&pl).total() / model.fabric_area(&st).total();
    let area_red_sp = 1.0 - model.fabric_area(&pl).total() / model.fabric_area(&sp).total();
    let rows = vec![
        vec![
            "power reduction vs spatio-temporal".into(),
            format!("{:.0}%", power_red * 100.0),
            "43%".into(),
        ],
        vec![
            "area reduction vs spatio-temporal".into(),
            format!("{:.0}%", area_red_st * 100.0),
            "46%".into(),
        ],
        vec![
            "area reduction vs spatial".into(),
            format!("{:.0}%", area_red_sp * 100.0),
            "48%".into(),
        ],
        vec![
            "performance vs spatial".into(),
            format!("{:.2}x", comparison.spatial_vs_plaid_cycles()),
            "1.40x".into(),
        ],
        vec![
            "performance vs spatio-temporal".into(),
            format!("{:.2}x", 1.0 / comparison.plaid_vs_st_cycles()),
            "~1.0x".into(),
        ],
        vec![
            "energy vs spatio-temporal".into(),
            format!(
                "{:.0}% lower",
                (1.0 - comparison.plaid_vs_st_energy()) * 100.0
            ),
            "42% lower".into(),
        ],
        vec![
            "energy vs spatial".into(),
            format!(
                "{:.0}% lower",
                (1.0 - comparison.plaid_vs_spatial_energy()) * 100.0
            ),
            "27.7% lower".into(),
        ],
    ];
    let mut text = render_table(
        "Headline summary (measured vs paper-reported)",
        &["metric", "measured", "paper"],
        &rows,
    );
    text.push_str(&format!(
        "performance and energy over {} workloads, as in Figures 12 and 14\n",
        comparison.coverage.fraction()
    ));
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_and_area_breakdowns_render() {
        let p = power_breakdown();
        assert!(p.contains("Figure 2"));
        assert!(p.contains("plaid-2x2"));
        let a = area_breakdown();
        assert!(a.contains("Figure 13"));
    }

    #[test]
    fn table2_renders_a_row_per_workload() {
        let (coverage, t) = table2_characteristics();
        assert!(t.contains("atax_u2"));
        assert!(t.contains("covered"));
        assert!(coverage.dropped.is_empty());
        assert!(t.contains("coverage: 30/30 workloads"));
    }

    #[test]
    fn architecture_comparison_preserves_the_papers_shape() {
        let result = architecture_comparison();
        assert!(!result.rows.is_empty());
        // Plaid tracks the spatio-temporal baseline closely...
        let plaid_vs_st = result.plaid_vs_st_cycles();
        assert!(plaid_vs_st < 1.5, "plaid vs st {plaid_vs_st}");
        // ...and Plaid consumes less energy than the baseline.
        assert!(result.plaid_vs_st_energy() < 0.9);
        let text = result.render_performance();
        assert!(text.contains("Figure 12"));
        assert!(result.render_energy().contains("Figure 14"));
        assert!(result.render_perf_per_area().contains("Figure 15"));
    }

    #[test]
    fn architecture_comparison_names_every_dropped_workload() {
        let result = architecture_comparison();
        let mut covered: Vec<&str> = result.rows.iter().map(|r| r.kernel.as_str()).collect();
        covered.extend(result.coverage.dropped.iter().map(|d| d.workload.as_str()));
        covered.sort_unstable();
        let mut expected: Vec<String> = table2_workloads().into_iter().map(|w| w.name).collect();
        expected.sort_unstable();
        assert_eq!(covered, expected);
        assert_eq!(result.coverage.total, 30);
        // The Plaid mapper fails on gemver_u2, so the comparison drops it
        // and says which compile failed.
        let gemver = result
            .coverage
            .dropped
            .iter()
            .find(|d| d.workload == "gemver_u2")
            .expect("gemver_u2 is dropped");
        assert_eq!(
            gemver.reason,
            DropReason::Compile(vec![(ArchChoice::Plaid2x2, MapperChoice::Plaid)])
        );
        let text = result.render_performance();
        assert!(text.contains(&format!("coverage: {}/30 workloads", result.rows.len())));
        assert!(text.contains("gemver_u2 (Plaid 2x2 / Plaid mapper)"));
    }

    #[test]
    fn mapper_comparison_reports_every_mapper() {
        let (rows, _, text) = mapper_comparison();
        assert!(!rows.is_empty());
        assert!(text.contains("Figure 18"));
        for r in &rows {
            assert!(r.plaid_cycles > 0);
            assert!(r.sa_cycles > 0);
            assert!(r.pathfinder_cycles > 0);
        }
    }

    #[test]
    fn domain_specialization_orders_architectures() {
        let (rows, text) = domain_specialization();
        assert!(text.contains("Figure 19"));
        let find = |label: &str| rows.iter().find(|r| r.arch == label).unwrap().clone();
        let st = find("ST");
        let st_ml = find("ST-ML");
        let plaid = find("Plaid");
        let plaid_ml = find("Plaid-ML");
        // Specialization helps each family; Plaid beats the specialized
        // baseline (the paper's key claim in Section 7.3).
        assert!(st_ml.energy_nj < st.energy_nj);
        assert!(plaid_ml.energy_nj < plaid.energy_nj);
        assert!(plaid.energy_nj < st_ml.energy_nj);
        assert!(plaid.perf_per_area > st_ml.perf_per_area);
    }
}
