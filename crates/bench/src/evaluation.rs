//! The paper's evaluation as a query over one sweep: one renderer per table
//! or figure, each reading the records of a single [`run_sweep_with`] pass.
//!
//! [`Evaluation::run`] sweeps the compiles the figures read: the 30 Table 2
//! workloads on five fabric/mapper targets, plus the 3×3 Plaid array for
//! those Figure 17 shows. Each paper fabric is a grid point
//! (`{class}-{r}x{c}/d16/aligned`). The DNN layers run Table 2 kernels, and
//! ST-ML is the spatio-temporal fabric with other cost parameters, so their
//! figures re-cost those records. Only Plaid-ML, off the grid, compiles
//! directly.
//!
//! Every renderer mirrors its table or figure series (normalized to the
//! baseline the paper uses) and prints its [`Coverage`] under it: the
//! workloads missing from the table and why. [`crate::figures`] renders
//! them all into the committed `FIGURES.txt`.

use std::collections::HashMap;

use plaid::pipeline::{
    compile_workload, ArchChoice, MapperChoice, PreparedFabric, PreparedWorkload,
};
use plaid::report::{geomean, ratio, render_table};
use plaid_arch::{ArchClass, Architecture, CommSpec, DesignPoint};
use plaid_explore::{run_sweep_with, ResultCache, SeedPolicy, SweepPlan, SweepPoint};
use plaid_sim::cost::CostModel;
use plaid_sim::metrics::EvalMetrics;
use plaid_workloads::{dnn_applications, table2_workloads, DnnLayer, Domain, Workload};

/// A paper fabric and the mapper compiling onto it.
pub type Target = (ArchChoice, MapperChoice);

// The paper's fabrics under the mappers the figures evaluate them with.
const ST: Target = (ArchChoice::SpatioTemporal4x4, MapperChoice::Sa);
const SPATIAL: Target = (ArchChoice::Spatial4x4, MapperChoice::Spatial);
const PLAID: Target = (ArchChoice::Plaid2x2, MapperChoice::Plaid);
const PLAID_3X3: Target = (ArchChoice::Plaid3x3, MapperChoice::Plaid);
const PLAID_ML: Target = (ArchChoice::PlaidMl, MapperChoice::Plaid);

/// What every Table 2 workload compiles on. Figures 12, 14 and 15 read the
/// first three, Figure 16 the spatial and Plaid ones of the kernels the DNN
/// layers run, Figure 18 the three mappers on Plaid 2x2, and Figure 19 the
/// spatio-temporal and Plaid ones. Figure 17 adds [`PLAID_3X3`] for the
/// workloads a larger array can speed up ([`recurrence_bound`]).
const TABLE2_TARGETS: [Target; 5] = [
    ST,
    SPATIAL,
    PLAID,
    (ArchChoice::Plaid2x2, MapperChoice::PathFinder),
    (ArchChoice::Plaid2x2, MapperChoice::Sa),
];

/// The grid point the sweep builds for a paper fabric: its class and array
/// at configuration depth 16 with the aligned network. Panics on the
/// ML-specialized fabrics, which are not grid points.
fn design_point(arch: ArchChoice) -> DesignPoint {
    let (class, rows, cols) = match arch {
        ArchChoice::SpatioTemporal4x4 => (ArchClass::SpatioTemporal, 4, 4),
        ArchChoice::Spatial4x4 => (ArchClass::Spatial, 4, 4),
        ArchChoice::Plaid2x2 => (ArchClass::Plaid, 2, 2),
        ArchChoice::Plaid3x3 => (ArchClass::Plaid, 3, 3),
        ArchChoice::SpatioTemporalMl | ArchChoice::PlaidMl => {
            panic!("{} is not a grid point", arch.label())
        }
    };
    DesignPoint {
        class,
        rows,
        cols,
        config_entries: 16,
        comm: CommSpec::ALIGNED,
    }
}

/// Whether `workload`'s performance is limited by inter-iteration
/// dependencies on the 2×2 Plaid array (`plaid_2x2`): RecMII ≥ ResMII, so a
/// larger array cannot help it.
fn recurrence_bound(workload: &PreparedWorkload, plaid_2x2: &Architecture) -> bool {
    plaid_mapper::rec_mii(workload.dfg()) >= plaid_mapper::res_mii(workload.dfg(), plaid_2x2)
}

/// Why an experiment left a workload out of its table (or one row's sum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DropReason {
    /// Lowering the workload to a DFG failed.
    Lowering,
    /// Compiling failed on each of these architecture/mapper pairs.
    Compile(Vec<Target>),
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

    /// The value `workload` contributes to the table, or `None` after
    /// recording why it is missing.
    fn keep<T>(&mut self, workload: &str, result: Result<T, DropReason>) -> Option<T> {
        result
            .map_err(|reason| {
                self.dropped.push(Dropped {
                    workload: workload.to_string(),
                    reason,
                })
            })
            .ok()
    }

    /// `covered/total`, e.g. `23/30`.
    fn fraction(&self) -> String {
        format!("{}/{}", self.total - self.dropped.len(), self.total)
    }

    /// The lines printed under a table: `coverage: n/m <unit>`, then the
    /// missing workloads by reason.
    fn render(&self, unit: &str) -> String {
        render_coverage(&self.fraction(), unit, &self.dropped)
    }
}

/// `coverage: <fractions> <unit>`, then one line for the deliberate
/// exclusions and one for the failures, each only when there are any.
fn render_coverage<'a>(
    fractions: &str,
    unit: &str,
    dropped: impl IntoIterator<Item = &'a Dropped>,
) -> String {
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
    let mut out = format!("coverage: {fractions} {unit}\n");
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
    let dropped = rows.flat_map(|(_, coverage)| &coverage.dropped);
    render_coverage(&fractions.join(", "), unit, dropped)
}

/// One row of the main performance/energy/efficiency comparison
/// (Figures 12, 14 and 15 share the same underlying runs).
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Workload name.
    pub kernel: String,
    /// Metrics on the spatio-temporal baseline.
    pub st: EvalMetrics,
    /// Metrics on the spatial baseline.
    pub spatial: EvalMetrics,
    /// Metrics on Plaid.
    pub plaid: EvalMetrics,
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
                .map(|r| r.plaid.cycles as f64 / r.st.cycles as f64),
        )
    }

    /// Geometric-mean of spatial cycles normalized to Plaid (≈1.4 in the
    /// paper).
    pub fn spatial_vs_plaid_cycles(&self) -> f64 {
        geomean(
            self.rows
                .iter()
                .map(|r| r.spatial.cycles as f64 / r.plaid.cycles as f64),
        )
    }

    /// Geometric-mean of Plaid energy normalized to the spatio-temporal
    /// baseline (≈0.58 in the paper).
    pub fn plaid_vs_st_energy(&self) -> f64 {
        geomean(self.rows.iter().map(|r| r.plaid.energy_nj / r.st.energy_nj))
    }

    /// Geometric-mean of Plaid energy normalized to the spatial baseline
    /// (≈0.72 in the paper).
    pub fn plaid_vs_spatial_energy(&self) -> f64 {
        geomean(
            self.rows
                .iter()
                .map(|r| r.plaid.energy_nj / r.spatial.energy_nj),
        )
    }

    /// The table of `metric` normalized to the spatio-temporal CGRA, with
    /// its coverage lines.
    fn render_normalized(&self, title: &str, metric: fn(&EvalMetrics) -> f64) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let st = metric(&r.st);
                vec![
                    r.kernel.clone(),
                    // Normalization baseline: identically 1.00 by definition.
                    ratio(1.0),
                    ratio(metric(&r.spatial) / st),
                    ratio(metric(&r.plaid) / st),
                ]
            })
            .collect();
        let mut text = render_table(
            title,
            &["kernel", "spatio-temporal", "spatial", "plaid"],
            &rows,
        );
        text.push_str(&self.coverage.render("workloads"));
        text
    }

    /// Figure 12 rendering: cycles normalized to the spatio-temporal CGRA.
    pub fn render_performance(&self) -> String {
        let mut text = self.render_normalized(
            "Figure 12: normalized cycles (lower is better, baseline = spatio-temporal)",
            |m| m.cycles as f64,
        );
        text.push_str(&format!(
            "geomean: plaid/spatio-temporal = {:.2}x cycles, spatial/plaid = {:.2}x cycles (paper: ~1.0x and ~1.4x)\n",
            self.plaid_vs_st_cycles(),
            self.spatial_vs_plaid_cycles()
        ));
        text
    }

    /// Figure 14 rendering: energy normalized to the spatio-temporal CGRA.
    pub fn render_energy(&self) -> String {
        let mut text = self.render_normalized(
            "Figure 14: normalized total energy (lower is better, baseline = spatio-temporal)",
            |m| m.energy_nj,
        );
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
        self.render_normalized(
            "Figure 15: normalized performance per area (higher is better, baseline = spatio-temporal)",
            EvalMetrics::perf_per_area,
        )
    }
}

/// Figure 2: fabric power breakdown of the spatio-temporal baseline and Plaid.
pub fn power_breakdown() -> String {
    let model = CostModel;
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
    let model = CostModel;
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

/// One row of the DNN application study (Figure 16).
#[derive(Debug, Clone, PartialEq)]
pub struct DnnRow {
    /// Application name.
    pub application: String,
    /// The spatial baseline's cycles summed over the layers, costed like
    /// one compile's.
    pub spatial: EvalMetrics,
    /// The same on Plaid.
    pub plaid: EvalMetrics,
    /// The layers left out of both sums: a compile failed on either fabric.
    pub coverage: Coverage,
}

/// One row of the domain-specialization study (Figure 19).
#[derive(Debug, Clone, PartialEq)]
pub struct SpecializationRow {
    /// Architecture label (ST, ST-ML, Plaid, Plaid-ML).
    pub arch: String,
    /// The cycles summed over the ML kernels, costed on the architecture
    /// like one compile's.
    pub total: EvalMetrics,
    /// The ML kernels left out of the sum: their compile failed.
    pub coverage: Coverage,
}

/// The metrics of `cycles` summed over a row's workloads, costed on the
/// target's fabric like one compile's (an II of 0: a sum has none).
fn total(label: &str, (arch, mapper): Target, cycles: u64) -> EvalMetrics {
    EvalMetrics::from_cycles(label, mapper.label(), &arch.build(), &CostModel, 0, cycles)
}

/// Every compile the paper's figures read, and the Table 2 workloads they
/// were compiled from.
#[derive(Debug)]
pub struct Evaluation {
    /// The Table 2 workloads in registry order, each prepared (`None` where
    /// lowering failed): Table 2 reads their coverage statistics and
    /// Figure 17 their recurrence bounds.
    table2: Vec<(Workload, Option<PreparedWorkload>)>,
    /// Every compile's metrics by workload name and target, `None` where
    /// the compile failed.
    metrics: HashMap<(String, Target), Option<EvalMetrics>>,
}

impl Evaluation {
    /// Sweeps the figures' plan once, from an empty cache and with seeding
    /// off, then compiles the ML kernels on Plaid-ML.
    pub fn run() -> Self {
        let table2: Vec<(Workload, Option<PreparedWorkload>)> = table2_workloads()
            .into_iter()
            .map(|w| {
                let prepared = PreparedWorkload::new(&w).ok();
                (w, prepared)
            })
            .collect();

        let plaid_2x2 = ArchChoice::Plaid2x2.build();
        let mut targets: Vec<(&Workload, Target)> = Vec::new();
        for (workload, prepared) in &table2 {
            targets.extend(TABLE2_TARGETS.map(|target| (workload, target)));
            let scales = prepared
                .as_ref()
                .is_some_and(|p| !recurrence_bound(p, &plaid_2x2));
            if scales {
                targets.push((workload, PLAID_3X3));
            }
        }
        let points = targets
            .iter()
            .map(|&(workload, (arch, mapper))| SweepPoint {
                workload: workload.clone(),
                design: design_point(arch),
                mapper,
            })
            .collect();
        // No two points differ only in depth or communication, so exact
        // seeding would find no sibling to reuse.
        let outcome = run_sweep_with(&SweepPlan { points }, &ResultCache::new(), SeedPolicy::Off);
        let mut metrics: HashMap<(String, Target), Option<EvalMetrics>> = targets
            .iter()
            .zip(outcome.records)
            .map(|(&(workload, target), record)| {
                let compiled = record.summary.filter(|_| record.ok).map(|s| s.metrics);
                ((workload.name.clone(), target), compiled)
            })
            .collect();

        // Plaid-ML is not a grid point: these are the only compiles outside
        // the sweep.
        let plaid_ml = PreparedFabric::new(ArchChoice::PlaidMl.build());
        for (workload, prepared) in &table2 {
            if workload.domain == Domain::MachineLearning {
                let compiled = prepared
                    .as_ref()
                    .map(|p| compile_workload(p, &plaid_ml, PLAID_ML.1, None));
                let compiled = compiled.and_then(Result::ok).map(|c| c.metrics);
                metrics.insert((workload.name.clone(), PLAID_ML), compiled);
            }
        }
        Evaluation { table2, metrics }
    }

    /// The metrics of `workload` compiled on each target, or the drop
    /// naming every target whose compile failed.
    fn compiled<const N: usize>(
        &self,
        workload: &str,
        targets: [Target; N],
    ) -> Result<[&EvalMetrics; N], DropReason> {
        let metrics = |target| self.metrics[&(workload.to_string(), target)].as_ref();
        let failed: Vec<Target> = targets
            .into_iter()
            .filter(|&target| metrics(target).is_none())
            .collect();
        if !failed.is_empty() {
            return Err(DropReason::Compile(failed));
        }
        Ok(targets.map(|target| metrics(target).expect("every target compiled")))
    }

    /// The Table 2 workload that runs `layer`'s kernel at its unroll factor.
    fn layer_kernel(&self, layer: &DnnLayer) -> &str {
        let (workload, _) = self
            .table2
            .iter()
            .find(|(w, _)| w.kernel == layer.kernel && w.unroll == layer.unroll)
            .expect("every DNN layer kernel is a Table 2 workload");
        &workload.name
    }

    /// The three-way architecture comparison (Figures 12, 14, 15).
    pub fn architecture_comparison(&self) -> ComparisonResult {
        let mut rows = Vec::new();
        let mut coverage = Coverage::over(self.table2.len());
        for (workload, _) in &self.table2 {
            let compiled = self.compiled(&workload.name, [ST, SPATIAL, PLAID]);
            let Some([st, sp, pl]) = coverage.keep(&workload.name, compiled) else {
                continue;
            };
            rows.push(ComparisonRow {
                kernel: workload.name.clone(),
                st: st.clone(),
                spatial: sp.clone(),
                plaid: pl.clone(),
            });
        }
        ComparisonResult { rows, coverage }
    }

    /// Table 2: workload characteristics (nodes, compute nodes,
    /// motif-covered nodes).
    pub fn table2_characteristics(&self) -> (Coverage, String) {
        let mut rows = Vec::new();
        let mut coverage = Coverage::over(self.table2.len());
        for (workload, prepared) in &self.table2 {
            let lowered = prepared.as_ref().ok_or(DropReason::Lowering);
            let Some(prepared) = coverage.keep(&workload.name, lowered) else {
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

    /// Figure 18: mapper comparison on the Plaid architecture. A workload
    /// is dropped only when the Plaid mapper fails; the generic mappers'
    /// failures are charged a bound instead.
    pub fn mapper_comparison(&self) -> (Vec<MapperRow>, Coverage, String) {
        let mut rows = Vec::new();
        let mut coverage = Coverage::over(self.table2.len());
        for (workload, _) in &self.table2 {
            let compiled = self.compiled(&workload.name, [PLAID]);
            let Some([pl]) = coverage.keep(&workload.name, compiled) else {
                continue;
            };
            // Generic mappers may fail on the trimmed-down fabric for complex
            // DFGs — exactly the effect Figure 18 highlights. Failures are
            // charged the configuration-memory bound (the mapper gave up at
            // max II).
            let max_ii = design_point(ArchChoice::Plaid2x2).params().max_ii();
            let bound = workload.iterations() * u64::from(max_ii);
            let cycles = |mapper| {
                let compiled = self.compiled(&workload.name, [(ArchChoice::Plaid2x2, mapper)]);
                compiled.map_or(bound, |[c]| c.cycles)
            };
            rows.push(MapperRow {
                kernel: workload.name.clone(),
                pathfinder_cycles: cycles(MapperChoice::PathFinder),
                sa_cycles: cycles(MapperChoice::Sa),
                plaid_cycles: pl.cycles,
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

    /// Figure 17: 2×2 versus 3×3 Plaid.
    ///
    /// As in the paper, recurrence-bound workloads are excluded, because a
    /// larger array cannot help them.
    pub fn scalability(&self) -> String {
        let plaid_2x2 = ArchChoice::Plaid2x2.build();
        let mut table_rows = Vec::new();
        let mut speedups = Vec::new();
        let mut coverage = Coverage::over(self.table2.len());
        for (workload, prepared) in &self.table2 {
            let compiled = match prepared {
                None => Err(DropReason::Lowering),
                Some(p) if recurrence_bound(p, &plaid_2x2) => Err(DropReason::RecurrenceBound),
                Some(_) => self.compiled(&workload.name, [PLAID, PLAID_3X3]),
            };
            let Some([small, large]) = coverage.keep(&workload.name, compiled) else {
                continue;
            };
            let (small, large) = (small.cycles as f64, large.cycles as f64);
            table_rows.push(vec![
                workload.name.clone(),
                ratio(1.0),
                ratio(large / small),
            ]);
            speedups.push(small / large);
        }
        let speedup = geomean(speedups);
        let mut text = render_table(
            "Figure 17: normalized cycles, 3x3 Plaid vs 2x2 Plaid (lower is better)",
            &["kernel", "2x2 (4 PCUs)", "3x3 (9 PCUs)"],
            &table_rows,
        );
        text.push_str(&coverage.render("workloads"));
        text.push_str(&format!("geomean speedup of 3x3 over 2x2: {speedup:.2}x\n"));
        text
    }

    /// Figure 16: application-level comparison of the spatial baseline and
    /// Plaid on the three DNN applications.
    pub fn dnn_comparison(&self) -> (Vec<DnnRow>, String) {
        let mut rows = Vec::new();
        for app in dnn_applications() {
            let mut spatial_cycles = 0u64;
            let mut plaid_cycles = 0u64;
            let mut coverage = Coverage::over(app.layers.len());
            for layer in &app.layers {
                let compiled = self.compiled(self.layer_kernel(layer), [SPATIAL, PLAID]);
                let Some([sp, pl]) = coverage.keep(&layer.name, compiled) else {
                    continue;
                };
                spatial_cycles += sp.cycles * layer.invocations;
                plaid_cycles += pl.cycles * layer.invocations;
            }
            rows.push(DnnRow {
                spatial: total(&app.name, SPATIAL, spatial_cycles),
                plaid: total(&app.name, PLAID, plaid_cycles),
                application: app.name,
                coverage,
            });
        }
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.application.clone(),
                    ratio(r.spatial.energy_nj / r.plaid.energy_nj),
                    ratio(r.spatial.perf_per_area() / r.plaid.perf_per_area()),
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

    /// Figure 19: domain specialization comparison on the machine-learning
    /// kernels (ST, ST-ML, Plaid, Plaid-ML), normalized to Plaid in the
    /// rendering.
    pub fn domain_specialization(&self) -> (Vec<SpecializationRow>, String) {
        let ml_workloads: Vec<&Workload> = self
            .table2
            .iter()
            .map(|(w, _)| w)
            .filter(|w| w.domain == Domain::MachineLearning)
            .collect();
        // Each row's fabric, and the compiles it sums the cycles of. ST-ML
        // builds the spatio-temporal 4x4's fabric (only its cost parameters
        // differ), so SA maps every kernel alike on both: its row re-costs
        // the spatio-temporal compiles.
        let configs = [
            ("ST", ArchChoice::SpatioTemporal4x4, ST),
            ("ST-ML", ArchChoice::SpatioTemporalMl, ST),
            ("Plaid", ArchChoice::Plaid2x2, PLAID),
            ("Plaid-ML", ArchChoice::PlaidMl, PLAID_ML),
        ];
        let mut rows = Vec::new();
        for (label, arch_choice, target) in configs {
            let mut cycles = 0u64;
            let mut coverage = Coverage::over(ml_workloads.len());
            for w in &ml_workloads {
                if let Some([c]) = coverage.keep(&w.name, self.compiled(&w.name, [target])) {
                    cycles += c.cycles;
                }
            }
            rows.push(SpecializationRow {
                arch: label.to_string(),
                total: total(label, (arch_choice, target.1), cycles),
                coverage,
            });
        }
        let base = &rows[2];
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.arch.clone(),
                    ratio(r.total.energy_nj / base.total.energy_nj),
                    ratio(r.total.perf_per_area() / base.total.perf_per_area()),
                ]
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
}

/// Section 7 headline numbers: power/area/performance of Plaid versus both
/// baselines, the latter from the Figure 12/14 `comparison`.
pub fn headline_summary(comparison: &ComparisonResult) -> String {
    let model = CostModel;
    let st = ArchChoice::SpatioTemporal4x4.build();
    let sp = ArchChoice::Spatial4x4.build();
    let pl = ArchChoice::Plaid2x2.build();
    let power_red = 1.0 - model.fabric_power(&pl).total() / model.fabric_power(&st).total();
    let area_red_st = 1.0 - model.fabric_area(&pl).total() / model.fabric_area(&st).total();
    let area_red_sp = 1.0 - model.fabric_area(&pl).total() / model.fabric_area(&sp).total();
    let percent = |share: f64| format!("{:.0}%", share * 100.0);
    let lower = |share: f64| format!("{:.0}% lower", (1.0 - share) * 100.0);
    let rows: Vec<Vec<String>> = [
        (
            "power reduction vs spatio-temporal",
            percent(power_red),
            "43%",
        ),
        (
            "area reduction vs spatio-temporal",
            percent(area_red_st),
            "46%",
        ),
        ("area reduction vs spatial", percent(area_red_sp), "48%"),
        (
            "performance vs spatial",
            format!("{:.2}x", comparison.spatial_vs_plaid_cycles()),
            "1.40x",
        ),
        (
            "performance vs spatio-temporal",
            format!("{:.2}x", 1.0 / comparison.plaid_vs_st_cycles()),
            "~1.0x",
        ),
        (
            "energy vs spatio-temporal",
            lower(comparison.plaid_vs_st_energy()),
            "42% lower",
        ),
        (
            "energy vs spatial",
            lower(comparison.plaid_vs_spatial_energy()),
            "27.7% lower",
        ),
    ]
    .into_iter()
    .map(|(metric, measured, paper)| vec![metric.to_string(), measured, paper.to_string()])
    .collect();
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
    use std::sync::OnceLock;

    use plaid::pipeline::fabric_signature;

    use super::*;

    /// The evaluation every test reads, swept once.
    fn evaluation() -> &'static Evaluation {
        static EVALUATION: OnceLock<Evaluation> = OnceLock::new();
        EVALUATION.get_or_init(Evaluation::run)
    }

    #[test]
    fn swept_paper_fabrics_build_like_their_presets() {
        let model = CostModel;
        for (choice, label) in [
            (
                ArchChoice::SpatioTemporal4x4,
                "spatio-temporal-4x4/d16/aligned",
            ),
            (ArchChoice::Spatial4x4, "spatial-4x4/d16/aligned"),
            (ArchChoice::Plaid2x2, "plaid-2x2/d16/aligned"),
            (ArchChoice::Plaid3x3, "plaid-3x3/d16/aligned"),
        ] {
            let point = design_point(choice);
            assert_eq!(point.label(), label);
            let (preset, swept) = (choice.build(), point.build());
            assert_eq!(
                fabric_signature(&preset),
                fabric_signature(&swept),
                "{label}"
            );
            assert_eq!(preset.params().max_ii(), swept.params().max_ii(), "{label}");
            assert_eq!(
                model.fabric_power(&preset).total(),
                model.fabric_power(&swept).total(),
                "{label}"
            );
            assert_eq!(
                model.fabric_area(&preset).total(),
                model.fabric_area(&swept).total(),
                "{label}"
            );
        }
        // ST-ML re-costs the spatio-temporal compiles: same fabric, same
        // II bound.
        let st = ArchChoice::SpatioTemporal4x4.build();
        let st_ml = ArchChoice::SpatioTemporalMl.build();
        assert_eq!(fabric_signature(&st_ml), fabric_signature(&st));
        assert_eq!(st_ml.params().max_ii(), st.params().max_ii());
    }

    #[test]
    fn workload_iterations_match_the_lowered_dfg() {
        let layers = dnn_applications().into_iter().flat_map(|app| app.layers);
        for workload in table2_workloads()
            .into_iter()
            .chain(layers.map(|layer| Workload {
                name: layer.name,
                domain: Domain::MachineLearning,
                kernel: layer.kernel,
                unroll: layer.unroll,
            }))
        {
            let dfg = workload.lower().unwrap();
            assert_eq!(
                workload.iterations(),
                dfg.total_iterations(),
                "{}",
                workload.name
            );
        }
    }

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
        let (coverage, t) = evaluation().table2_characteristics();
        assert!(t.contains("atax_u2"));
        assert!(t.contains("covered"));
        assert!(coverage.dropped.is_empty());
        assert!(t.contains("coverage: 30/30 workloads"));
    }

    #[test]
    fn architecture_comparison_preserves_the_papers_shape() {
        let result = evaluation().architecture_comparison();
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
        let result = evaluation().architecture_comparison();
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
        let (rows, _, text) = evaluation().mapper_comparison();
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
        let (rows, text) = evaluation().domain_specialization();
        assert!(text.contains("Figure 19"));
        let find = |label: &str| rows.iter().find(|r| r.arch == label).unwrap().clone();
        let st = find("ST");
        let st_ml = find("ST-ML");
        let plaid = find("Plaid");
        let plaid_ml = find("Plaid-ML");
        // Specialization helps each family; Plaid beats the specialized
        // baseline (the paper's key claim in Section 7.3).
        assert!(st_ml.total.energy_nj < st.total.energy_nj);
        assert!(plaid_ml.total.energy_nj < plaid.total.energy_nj);
        assert!(plaid.total.energy_nj < st_ml.total.energy_nj);
        assert!(plaid.total.perf_per_area() > st_ml.total.perf_per_area());
    }
}
