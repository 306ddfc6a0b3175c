//! The mapper-kernel throughput measurement behind the `plaid-bench`
//! regression gate: an SA-style journalled move transaction and a
//! scratch-backed router search on a 4×4 and an 8×8 spatio-temporal fabric,
//! compared against the committed `BENCH_mapper.json` baseline.

use std::time::{Duration, Instant};

use plaid_arch::{spatio_temporal, Architecture};
use plaid_dfg::{Dfg, NodeId};
use plaid_mapper::placement::{greedy_place, MapState};
use plaid_mapper::route::{find_route_in, HardCapacityCost, Reach, RouteRequest, RouterScratch};
use plaid_workloads::find_workload;

/// Initiation interval the kernel operations run at.
pub const II: u32 = 4;

/// The workload every kernel measurement maps: `dwconv`, small enough to
/// perturb quickly and structured enough to exercise routing.
fn bench_dfg() -> Dfg {
    find_workload("dwconv")
        .expect("dwconv is registered")
        .lower()
        .expect("dwconv lowers")
}

/// A placed state to perturb; greedy placement may be partial on the small
/// fabric, which only makes the move mix more realistic.
fn placed_state<'a>(dfg: &'a Dfg, arch: &'a Architecture) -> MapState<'a> {
    let mut state = MapState::new(dfg, arch, II);
    let _ = greedy_place(&mut state, &HardCapacityCost);
    state
}

/// One SA-style move transaction: rip up one node, re-place it on the first
/// admitting candidate, re-route its incident edges, then roll back or
/// commit. Mirrors the `SaMapper` inner loop on the public kernel API.
fn one_move(state: &mut MapState<'_>, step: &mut u64) {
    let policy = HardCapacityCost;
    *step = step.wrapping_mul(6364136223846793005).wrapping_add(1);
    let node = NodeId((*step >> 33) as u32 % state.dfg.node_count() as u32);
    state.begin_txn();
    state.unplace(node);
    let candidates = state.candidate_fus(node);
    let base = state.earliest_cycle(node);
    let mut placed = false;
    for (i, &fu) in candidates.iter().enumerate().take(6) {
        let cycle = base + (*step >> 17) as u32 % II + i as u32 % II;
        if state.can_place(node, fu, cycle) {
            state.place(node, fu, cycle);
            placed = true;
            break;
        }
    }
    state.recycle_candidates(candidates);
    if placed {
        let dfg = state.dfg;
        for &e in dfg.incident(node) {
            let _ = state.route_edge(e, &policy);
        }
    }
    if step.is_multiple_of(2) && placed {
        state.commit_txn();
    } else {
        state.rollback_txn();
    }
}

/// One router search through the shared scratch, cycling over FU pairs and
/// budgets; returns whether a route was found (both outcomes are the hot
/// path in real mapping).
fn one_route(
    scratch: &mut RouterScratch,
    arch: &Architecture,
    reach: &Reach,
    state: &MapState<'_>,
    fus: &[plaid_arch::ResourceId],
    step: &mut u64,
) -> bool {
    *step = step.wrapping_mul(6364136223846793005).wrapping_add(1);
    let src = fus[(*step >> 33) as usize % fus.len()];
    let dst = fus[(*step >> 21) as usize % fus.len()];
    let src_cycle = (*step >> 11) as u32 % II;
    let budget = 1 + (*step >> 42) as u32 % (2 * II);
    let request = RouteRequest {
        src_fu: src,
        src_cycle,
        dst_fu: dst,
        arrival_cycle: src_cycle + budget,
        value: NodeId((*step >> 7) as u32 % state.dfg.node_count() as u32),
    };
    find_route_in(
        scratch,
        arch,
        reach,
        &state.state,
        &request,
        &HardCapacityCost,
    )
    .is_some()
}

/// Runs `op` in batches for roughly `budget`, returning operations/second
/// (after a short warm-up for allocations and caches).
fn measure_rate(mut op: impl FnMut(), budget: Duration) -> f64 {
    for _ in 0..64 {
        op();
    }
    let start = Instant::now();
    let mut iterations = 0u64;
    while start.elapsed() < budget {
        for _ in 0..256 {
            op();
        }
        iterations += 256;
    }
    iterations as f64 / start.elapsed().as_secs_f64()
}

/// Measured kernel throughput on one fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRates {
    /// Journalled SA move transactions per second.
    pub moves_per_sec: f64,
    /// Router searches per second.
    pub routes_per_sec: f64,
}

/// One full kernel measurement: per-fabric throughput, in the fixed fabric
/// order (`st4x4`, then `st8x8`) the baseline file uses.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// `(fabric label, rates)` pairs.
    pub fabrics: Vec<(&'static str, KernelRates)>,
}

impl KernelReport {
    /// Serializes the report in the exact `BENCH_mapper.json` layout.
    pub fn to_json(&self) -> String {
        let fabrics: Vec<String> = self
            .fabrics
            .iter()
            .map(|(label, rates)| {
                format!(
                    "    \"{label}\": {{ \"moves_per_sec\": {:.0}, \"routes_per_sec\": {:.0} }}",
                    rates.moves_per_sec, rates.routes_per_sec
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"mapper_kernel\",\n  \"workload\": \"dwconv\",\n  \"ii\": {II},\n  \
             \"fabrics\": {{\n{}\n  }}\n}}\n",
            fabrics.join(",\n")
        )
    }
}

/// Measures mapper-kernel throughput on the standard fabrics, spending
/// `budget` of wall time per rate (the gate defaults to 400 ms).
pub fn measure_kernel(budget: Duration) -> KernelReport {
    let dfg = bench_dfg();
    let mut fabrics = Vec::new();
    for (label, arch) in [
        ("st4x4", spatio_temporal::build(4, 4)),
        ("st8x8", spatio_temporal::build(8, 8)),
    ] {
        let mut state = placed_state(&dfg, &arch);
        let mut step = 0x5EED_u64;
        let moves_per_sec = measure_rate(|| one_move(&mut state, &mut step), budget);

        let route_state = placed_state(&dfg, &arch);
        let fus: Vec<_> = arch.functional_units().map(|r| r.id).collect();
        let mut scratch = RouterScratch::new();
        let reach = Reach::of(&arch);
        let mut step = 0x00DD_5EED_u64;
        let routes_per_sec = measure_rate(
            || {
                std::hint::black_box(one_route(
                    &mut scratch,
                    &arch,
                    &reach,
                    &route_state,
                    &fus,
                    &mut step,
                ));
            },
            budget,
        );

        fabrics.push((
            label,
            KernelRates {
                moves_per_sec,
                routes_per_sec,
            },
        ));
    }
    KernelReport { fabrics }
}
