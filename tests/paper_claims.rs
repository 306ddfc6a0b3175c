//! Shape-level checks of the paper's headline claims, with generous
//! tolerances (our substrate is an analytical model plus portable mappers,
//! not the authors' RTL flow and testbed).

use std::sync::OnceLock;

use plaid_arch::plaid as plaid_fabric;
use plaid_arch::{spatial, spatio_temporal};
use plaid_bench::evaluation::Evaluation;
use plaid_sim::cost::CostModel;

/// The paper's evaluation, swept once for every test that reads it.
fn evaluation() -> &'static Evaluation {
    static EVALUATION: OnceLock<Evaluation> = OnceLock::new();
    EVALUATION.get_or_init(Evaluation::run)
}

#[test]
fn plaid_reduces_power_and_area_versus_the_spatio_temporal_baseline() {
    let model = CostModel;
    let st = spatio_temporal::build(4, 4);
    let pl = plaid_fabric::build(2, 2);
    let power_reduction = 1.0 - model.fabric_power(&pl).total() / model.fabric_power(&st).total();
    let area_reduction = 1.0 - model.fabric_area(&pl).total() / model.fabric_area(&st).total();
    // Paper: 43% power and 46% area reduction.
    assert!(
        (0.30..=0.60).contains(&power_reduction),
        "power reduction {power_reduction}"
    );
    assert!(
        (0.30..=0.60).contains(&area_reduction),
        "area reduction {area_reduction}"
    );
}

#[test]
fn plaid_saves_area_versus_the_spatial_baseline_at_similar_power() {
    let model = CostModel;
    let sp = spatial::build(4, 4);
    let pl = plaid_fabric::build(2, 2);
    let area_reduction = 1.0 - model.fabric_area(&pl).total() / model.fabric_area(&sp).total();
    // Paper: 48% area savings with almost the same power.
    assert!(
        (0.30..=0.60).contains(&area_reduction),
        "area reduction {area_reduction}"
    );
    let power_ratio = model.fabric_power(&pl).total() / model.fabric_power(&sp).total();
    assert!(
        (0.75..=1.15).contains(&power_ratio),
        "power ratio {power_ratio}"
    );
}

#[test]
fn plaid_tracks_spatio_temporal_performance_and_beats_spatial() {
    let result = evaluation().architecture_comparison();
    assert!(result.rows.len() >= 4);
    let plaid_vs_st = result.plaid_vs_st_cycles();
    // Paper: average performance is almost the same (Plaid within a few
    // percent of the baseline); allow a wide band.
    assert!(
        plaid_vs_st <= 1.35,
        "plaid vs spatio-temporal cycles {plaid_vs_st}"
    );
    // Paper: 1.4x faster than the spatial baseline on average; require Plaid
    // to be at least as fast.
    let spatial_vs_plaid = result.spatial_vs_plaid_cycles();
    assert!(
        spatial_vs_plaid >= 1.0,
        "spatial vs plaid cycles {spatial_vs_plaid}"
    );
    // Paper: 42% energy reduction vs the spatio-temporal baseline.
    let energy = result.plaid_vs_st_energy();
    assert!(energy <= 0.85, "plaid vs spatio-temporal energy {energy}");
}

#[test]
fn domain_specialization_keeps_plaid_ahead_of_the_specialized_baseline() {
    let (rows, _) = evaluation().domain_specialization();
    let get = |label: &str| rows.iter().find(|r| r.arch == label).unwrap();
    let st_ml = get("ST-ML");
    let plaid = get("Plaid");
    let plaid_ml = get("Plaid-ML");
    // Paper: Plaid reduces energy by ~18% vs ST-ML and Plaid-ML by ~25.5%,
    // with 1.26x / 1.46x performance per area.
    assert!(plaid.total.energy_nj < st_ml.total.energy_nj);
    assert!(plaid_ml.total.energy_nj < plaid.total.energy_nj);
    assert!(plaid.total.perf_per_area() > st_ml.total.perf_per_area());
    assert!(plaid_ml.total.perf_per_area() > plaid.total.perf_per_area());
}
