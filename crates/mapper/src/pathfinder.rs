//! The PathFinder-style negotiation-based mapper (the paper's "PathFinder"
//! baseline, Section 6.3, adapted from McMurchie & Ebeling).
//!
//! Placement is greedy list scheduling; routing then proceeds in negotiation
//! rounds: all data edges are routed with congestion *allowed*, after which
//! the history cost of every overused resource is increased and all routes
//! are ripped up and re-routed. The process converges when no resource is
//! overused; otherwise the II is increased.

use plaid_arch::Architecture;

use plaid_dfg::{Dfg, EdgeId, NodeId};

use crate::error::MapError;
use crate::fabric::PreparedFabric;
use crate::mapping::Mapping;
use crate::placement::{greedy_place, LadderShared, MapState};
use crate::route::{HardCapacityCost, NegotiatedCost};
use crate::seed::{map_seeded, LadderSearch, MapSeed, SeededMapping};
use crate::state::CapacityCert;
use crate::Mapper;

/// Maximum negotiation rounds per II.
const MAX_ROUNDS: usize = 24;

/// The negotiation-based mapper. It runs at one fixed configuration, this
/// module's constants; outside this crate it is built with
/// `PathFinderMapper::default()`.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct PathFinderMapper;

impl PathFinderMapper {
    fn attempt_ii<'a>(
        &self,
        dfg: &'a Dfg,
        arch: &'a Architecture,
        ii: u32,
        shared: &LadderShared,
    ) -> Option<MapState<'a>> {
        let mut state = MapState::for_ladder(dfg, arch, ii, shared);
        // Placement uses the hard-capacity policy so the starting point is
        // already congestion-aware; negotiation then owns the routing.
        if !greedy_place(&mut state, &HardCapacityCost) {
            return None;
        }
        if !state.timing_ok() {
            return None;
        }
        let mut policy = NegotiatedCost::new(arch.resources().len());
        for _round in 0..MAX_ROUNDS {
            // Rip up all routes and re-route under the current history costs.
            for e in 0..dfg.edge_count() as u32 {
                state.unroute(EdgeId(e));
            }
            let unrouted = state.route_all(&policy);
            if unrouted == 0 && state.state.total_overuse() == 0 {
                return Some(state);
            }
            if unrouted > 0 {
                // Some edge has no path at all within its timing budget; no
                // amount of negotiation will fix that at this II.
                return None;
            }
            policy.accumulate_history(&state.state, arch);
        }
        None
    }
}

impl PathFinderMapper {
    /// Maps with an optional seed hint: a sound seed replays, a proven
    /// infeasible prefix raises the starting II, and the result is always
    /// the one a cold run of this point produces (see [`crate::seed`]).
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] exactly as [`Mapper::map`] does.
    pub fn map_with_seed(
        &self,
        dfg: &Dfg,
        arch: &Architecture,
        hint: Option<&MapSeed>,
    ) -> Result<SeededMapping, MapError> {
        self.map_prepared(dfg, &PreparedFabric::new(arch.clone()), hint)
    }

    /// [`Self::map_with_seed`] on a prepared fabric, whose signatures and
    /// reachability every ladder run on it shares.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] exactly as [`Mapper::map`] does.
    pub fn map_prepared(
        &self,
        dfg: &Dfg,
        fabric: &PreparedFabric,
        hint: Option<&MapSeed>,
    ) -> Result<SeededMapping, MapError> {
        map_seeded(self, dfg, fabric, hint)
    }
}

impl LadderSearch for PathFinderMapper {
    /// The same ladder state as the other mappers. Its certificate records
    /// probes but is never reported (see `certificate` below).
    type Shared = LadderShared;

    const NAME: &'static str = "pathfinder";

    const SETTINGS: u64 = 0x47d6_2018_1148_1cab;

    fn prepare(&self, _dfg: &Dfg, fabric: &PreparedFabric) -> LadderShared {
        LadderShared::of(fabric)
    }

    fn attempt(
        &self,
        shared: &LadderShared,
        dfg: &Dfg,
        arch: &Architecture,
        ii: u32,
    ) -> Option<Mapping> {
        self.attempt_ii(dfg, arch, ii, shared)
            .map(|state| state.into_mapping(self.name()))
    }

    /// Negotiation costs read switch capacities directly, so a PathFinder
    /// result never transfers across capacities.
    fn certificate(_shared: &LadderShared) -> Option<&CapacityCert> {
        None
    }
}

impl Mapper for PathFinderMapper {
    fn map(&self, dfg: &Dfg, arch: &Architecture) -> Result<Mapping, MapError> {
        self.map_with_seed(dfg, arch, None).map(|s| s.mapping)
    }

    fn name(&self) -> &'static str {
        Self::NAME
    }
}

/// Convenience used in tests and experiments: checks that all placements in a
/// mapping sit on distinct `(FU, slot)` pairs.
pub fn placements_are_exclusive(mapping: &Mapping) -> bool {
    let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    let mut nodes: Vec<(&NodeId, &crate::mapping::Placement)> = mapping.placements.iter().collect();
    nodes.sort_by_key(|(n, _)| n.0);
    for (_, p) in nodes {
        if !seen.insert((p.fu.0, p.cycle % mapping.ii)) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mii::mii;
    use plaid_arch::{plaid, spatio_temporal};
    use plaid_dfg::kernel::{AffineExpr, Expr, KernelBuilder};
    use plaid_dfg::lower::lower_kernel;
    use plaid_dfg::Op;

    fn stencil_kernel() -> Dfg {
        let kernel = KernelBuilder::new("jacobi_like")
            .loop_var("i", 16)
            .array("a", 18)
            .array("b", 16)
            .store(
                "b",
                AffineExpr::var(0),
                Expr::binary(
                    Op::Add,
                    Expr::binary(
                        Op::Add,
                        Expr::load("a", AffineExpr::var(0)),
                        Expr::load("a", AffineExpr::var(0).offset(1)),
                    ),
                    Expr::load("a", AffineExpr::var(0).offset(2)),
                ),
            )
            .build()
            .unwrap();
        lower_kernel(&kernel, 1).unwrap()
    }

    #[test]
    fn maps_stencil_on_spatio_temporal() {
        let dfg = stencil_kernel();
        let arch = spatio_temporal::build(4, 4);
        let mapping = PathFinderMapper::default().map(&dfg, &arch).unwrap();
        mapping.validate(&dfg, &arch).unwrap();
        assert!(placements_are_exclusive(&mapping));
    }

    #[test]
    fn maps_stencil_on_plaid() {
        let dfg = stencil_kernel();
        let arch = plaid::build(2, 2);
        let mapping = PathFinderMapper::default().map(&dfg, &arch).unwrap();
        mapping.validate(&dfg, &arch).unwrap();
    }

    #[test]
    fn deterministic_output() {
        let dfg = stencil_kernel();
        let arch = spatio_temporal::build(4, 4);
        let a = PathFinderMapper::default().map(&dfg, &arch).unwrap();
        let b = PathFinderMapper::default().map(&dfg, &arch).unwrap();
        assert_eq!(a.ii, b.ii);
        assert_eq!(a.routes.len(), b.routes.len());
    }

    #[test]
    fn ii_respects_lower_bound() {
        let dfg = stencil_kernel();
        let arch = spatio_temporal::build(4, 4);
        let mapping = PathFinderMapper::default().map(&dfg, &arch).unwrap();
        assert!(mapping.ii >= mii(&dfg, &arch));
    }
}
