//! Combined evaluation metrics used by every experiment.

use plaid_arch::Architecture;
use serde::{Deserialize, Serialize};

use crate::cost::{CostModel, CLOCK_HZ};

/// Evaluation record for one (kernel, architecture) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalMetrics {
    /// Kernel name.
    pub kernel: String,
    /// Architecture name.
    pub arch: String,
    /// Mapper that produced the schedule.
    pub mapper: String,
    /// Initiation interval achieved (0 for spatial schedules, which report
    /// per-partition IIs instead).
    pub ii: u32,
    /// Total execution cycles.
    pub cycles: u64,
    /// Fabric power in µW.
    pub power_uw: f64,
    /// Fabric energy in nJ.
    pub energy_nj: f64,
    /// Fabric area in µm².
    pub area_um2: f64,
}

impl EvalMetrics {
    /// Builds a metrics record from cycles and the cost model.
    pub fn from_cycles(
        kernel: impl Into<String>,
        mapper: impl Into<String>,
        arch: &Architecture,
        model: &CostModel,
        ii: u32,
        cycles: u64,
    ) -> Self {
        let power_uw = model.fabric_power(arch).total();
        EvalMetrics {
            kernel: kernel.into(),
            arch: arch.name().to_string(),
            mapper: mapper.into(),
            ii,
            cycles,
            power_uw,
            // nJ = µW * s * 1e3; one cycle = 1/CLOCK_HZ s.
            energy_nj: power_uw * (cycles as f64 / CLOCK_HZ) * 1.0e3,
            area_um2: model.fabric_area(arch).total(),
        }
    }

    /// Performance (1/cycles) per unit area, scaled for readability.
    pub fn perf_per_area(&self) -> f64 {
        if self.cycles == 0 || self.area_um2 == 0.0 {
            return 0.0;
        }
        1.0e9 / (self.cycles as f64 * self.area_um2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_arch::{plaid, spatio_temporal};

    #[test]
    fn metrics_derive_from_cost_model() {
        let model = CostModel;
        let st = spatio_temporal::build(4, 4);
        let pl = plaid::build(2, 2);
        let a = EvalMetrics::from_cycles("k", "sa", &st, &model, 3, 3000);
        let b = EvalMetrics::from_cycles("k", "plaid", &pl, &model, 3, 3000);
        assert!(a.power_uw > b.power_uw);
        assert!(a.energy_nj > b.energy_nj);
        assert!(b.perf_per_area() > a.perf_per_area());
    }

    #[test]
    fn energy_scales_linearly_with_cycles() {
        let pl = plaid::build(2, 2);
        let e1 = EvalMetrics::from_cycles("k", "plaid", &pl, &CostModel, 3, 1_000).energy_nj;
        let e2 = EvalMetrics::from_cycles("k", "plaid", &pl, &CostModel, 3, 2_000).energy_nj;
        assert!(
            (e2 / e1 - 2.0).abs() <= 1e-9,
            "energy linearity: {e1} -> {e2}"
        );
        assert!(e1 > 0.0);
    }

    #[test]
    fn zero_cycles_edge_cases() {
        let model = CostModel;
        let st = spatio_temporal::build(4, 4);
        let m = EvalMetrics::from_cycles("k", "sa", &st, &model, 1, 0);
        assert_eq!(m.perf_per_area(), 0.0);
        assert_eq!(m.energy_nj, 0.0);
    }
}
