//! Algorithm 2: the Plaid hierarchical, motif-aware mapper.
//!
//! The mapper maps the hierarchical DFG of motif identification
//! (Algorithm 1, `plaid-motif`): whole motifs are placed onto PCUs using the
//! flexible schedule templates of Section 5.2 (so their internal dependencies
//! ride the local router / bypass paths), standalone nodes are placed
//! individually, and all remaining (inter-motif) dependencies are routed over
//! the hierarchical network with Dijkstra's algorithm. When a placement gets
//! stuck the mapper rips up a random motif and retries alternative PCUs and
//! templates, occasionally accepting worse states, in the spirit of simulated
//! annealing. The II grows only when the repair budget is exhausted.
//!
//! The motifs depend only on the DFG, so a caller that maps one DFG onto
//! many fabrics identifies them once and passes them to
//! [`PlaidMapper::map_with_motifs`], together with a [`PreparedFabric`]
//! that a caller mapping many DFGs onto one fabric prepares once;
//! [`PlaidMapper::map_with_seed`] identifies the motifs and prepares the
//! fabric itself.

use std::borrow::Cow;

use rand::rngs::SmallRng;
use rand::Rng;

use plaid_arch::{ArchClass, Architecture, Cluster, HardwiredPattern};
use plaid_dfg::{Dfg, EdgeId, NodeId};
use plaid_motif::{
    identify_motifs, schedule_templates, HierarchicalDfg, IdentifyOptions, Motif, MotifKind,
    MotifSchedule,
};

use crate::error::MapError;
use crate::fabric::PreparedFabric;
use crate::mapping::{Mapping, Placement};
use crate::placement::{place_node_best_effort, sort_by_unique_key, LadderShared, MapState};
use crate::route::HardCapacityCost;
use crate::state::CapacityCert;

use crate::sa::attempt_rng;
use crate::seed::{map_seeded, LadderSearch, MapSeed, SeededMapping};
use crate::Mapper;

/// RNG seed of the repair phase (each II attempt draws from
/// `attempt_rng(SEED, ii)`).
const SEED: u64 = 0x9A1D_0002;

/// Repair attempts per II before increasing the II.
const REPAIR_ATTEMPTS: usize = 200;

/// The hierarchical motif mapper. It runs at one fixed configuration, this
/// module's constants; outside this crate it is built with
/// `PlaidMapper::default()`.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct PlaidMapper;

impl PlaidMapper {
    /// Whether `cluster` can host a motif of `kind` at all: hardwired PCUs
    /// only execute their own motif kind, and the cluster needs an ALU for
    /// every node.
    fn hosts(cluster: &Cluster, kind: MotifKind) -> bool {
        cluster.hardwired.is_none_or(|p| kind_matches(p, kind))
            && cluster.alus.len() >= MotifKind::NODE_COUNT
    }

    /// Fills `slots` with the positions `template` gives `motif`'s nodes on
    /// `cluster`, at start cycle 0. Returns `false` when the template names
    /// an ALU the cluster lacks.
    fn template_slots(
        motif: &Motif,
        cluster: &Cluster,
        template: &MotifSchedule,
        slots: &mut Vec<(NodeId, Placement)>,
    ) -> bool {
        slots.clear();
        for slot in template.slots {
            let Some(&fu) = cluster.alus.get(slot.alu) else {
                return false;
            };
            let cycle = slot.cycle;
            slots.push((motif.nodes[slot.node], Placement { fu, cycle }));
        }
        true
    }

    /// Earliest start cycle for a motif under a specific template, respecting
    /// the already-placed external producers of its nodes.
    fn motif_earliest(state: &MapState<'_>, motif: &Motif, template: &MotifSchedule) -> u32 {
        let mut earliest = 0u32;
        for slot in template.slots {
            let node = motif.nodes[slot.node];
            let node_earliest = state.earliest_cycle(node);
            earliest = earliest.max(node_earliest.saturating_sub(slot.cycle));
        }
        earliest
    }

    /// Places one motif, scanning clusters (least-loaded first), templates and
    /// start offsets. Returns `true` on success.
    ///
    /// The offsets of one (cluster, template) run from the template's
    /// earliest start over one II, less those outside the pair's
    /// [`MapState::structural_window`]: the window skips only candidates
    /// whose structural test fails, and keeps the order of the rest.
    ///
    /// `swap` randomises the scan: the cluster at that position of the
    /// order is tried first, swapping places with the first one (0 keeps
    /// the order). The repair loop draws it, so the draw is part of the
    /// key under which the loop memoises the outcome.
    fn place_motif(state: &mut MapState<'_>, motif: &Motif, swap: usize) -> bool {
        let clusters = state.arch.clusters();
        // "Map the motif to a PE with the least routing resource [usage]":
        // prefer hardwired clusters matching the kind, then least-loaded
        // ones. Each cluster's key is computed once and ends in its tile id,
        // which makes it unique.
        let mut order: Vec<((u32, u32, u32), usize)> = clusters
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let load: u32 = c
                    .alus
                    .iter()
                    .map(|&fu| state.state.resource_load(fu))
                    .sum::<u32>()
                    + c.local_router
                        .map(|r| state.state.resource_load(r))
                        .unwrap_or(0);
                let hardwired_bonus = match c.hardwired {
                    Some(p) if kind_matches(p, motif.kind) => 0u32,
                    Some(_) => 1_000,
                    None => 10,
                };
                ((hardwired_bonus, load, c.tile as u32), i)
            })
            .collect();
        sort_by_unique_key(&mut order);
        order.swap(0, swap);
        let templates = schedule_templates(motif.kind);
        debug_assert!(
            templates.iter().all(|t| t.slots.len() == motif.nodes.len()
                && (0..motif.nodes.len())
                    .all(|i| t.slots.iter().filter(|s| s.node == i).count() == 1)),
            "a {:?} template does not place each motif node once",
            motif.kind
        );
        // Incident edges of the motif's nodes, in ascending edge-id order
        // (sort + dedup reproduces the order a full edge scan would yield;
        // edges internal to the motif are seen from both endpoints and must
        // route once). Every template places each motif node exactly once,
        // so one list serves every probe. `try_place` routes those with both
        // endpoints placed: the motif-internal edges plus those to placed
        // neighbours.
        let dfg = state.dfg;
        let mut incident: Vec<EdgeId> = motif
            .nodes
            .iter()
            .flat_map(|&n| dfg.incident(n).iter().copied())
            .collect();
        incident.sort_unstable();
        incident.dedup();
        // Each (cluster, template) is one candidate shape, shifted by the
        // start cycle. Its structural window bounds the starts once, so the
        // offset scan only tries those the first-hop table leaves open.
        let mut shape = Vec::with_capacity(motif.nodes.len());
        let mut slots = Vec::with_capacity(motif.nodes.len());
        for &(_, ci) in &order {
            let cluster = &clusters[ci];
            if !Self::hosts(cluster, motif.kind) {
                continue;
            }
            for template in templates {
                if !Self::template_slots(motif, cluster, template, &mut shape) {
                    continue;
                }
                let Some((lo, hi)) = state.structural_window(&incident, &shape) else {
                    continue;
                };
                let base = Self::motif_earliest(state, motif, template);
                for start in base.max(lo)..=(base + state.ii - 1).min(hi) {
                    slots.clear();
                    slots.extend(shape.iter().map(|&(node, p)| {
                        (
                            node,
                            Placement {
                                cycle: p.cycle + start,
                                ..p
                            },
                        )
                    }));
                    if state.try_place(&slots, &incident, &HardCapacityCost) {
                        return true;
                    }
                }
            }
        }
        false
    }

    fn attempt_ii<'a>(
        &self,
        dfg: &'a Dfg,
        arch: &'a Architecture,
        hdfg: &HierarchicalDfg,
        ii: u32,
        rng: &mut SmallRng,
        shared: &LadderShared,
    ) -> Option<MapState<'a>> {
        let policy = HardCapacityCost;
        let mut state = MapState::for_ladder(dfg, arch, ii, shared);

        // Interleave standalone nodes and motifs in global topological order so
        // producers are placed before consumers whenever possible.
        let order = dfg.topological_order().ok()?;
        let mut placed_motifs = vec![false; hdfg.motifs().len()];
        for node in order {
            if state.placements.contains_key(&node) {
                continue;
            }
            match hdfg.motif_of(node) {
                Some(mi) if !placed_motifs[mi] => {
                    placed_motifs[mi] = true;
                    if !Self::place_motif(&mut state, &hdfg.motifs()[mi], 0) {
                        // Fall back to individual placement of the motif's
                        // nodes; generality is never lost (Section 3.1).
                        for &n in &hdfg.motifs()[mi].nodes {
                            if !state.placements.contains_key(&n)
                                && !place_node_best_effort(&mut state, n, &policy)
                            {
                                return self.repair(state, hdfg, rng);
                            }
                        }
                    }
                }
                Some(_) => {}
                None => {
                    if !place_node_best_effort(&mut state, node, &policy) {
                        return self.repair(state, hdfg, rng);
                    }
                }
            }
        }
        state.route_all(&policy);
        if state.is_complete() {
            return Some(state);
        }
        self.repair(state, hdfg, rng)
    }

    /// Lines 5-11 of Algorithm 2: rip up one motif (or standalone node),
    /// re-place it with randomized candidates and keep the best outcome,
    /// occasionally accepting worse states.
    ///
    /// A re-placement is a pure function of the state, the unit and the
    /// motif's cluster swap, so the loop memoises two of its outcomes per
    /// `(unit, swap)`: it failed and rolled back, or it put every node and
    /// edge it touched back as they were ([`MapState::txn_is_identity`]).
    /// Both leave the state as it was, so the memo stays current until an
    /// accepted iteration changes the state, which starts a new epoch. A
    /// memoised iteration draws the same random numbers as the full one and
    /// updates `best_cost` the same way, without ripping anything up. The
    /// capacity probes it skips would repeat, on the same state, probes
    /// already recorded, and the certificate keeps only a maximum and a
    /// minimum per resource, so it is unchanged as well.
    fn repair<'a>(
        &self,
        mut state: MapState<'a>,
        hdfg: &HierarchicalDfg,
        rng: &mut SmallRng,
    ) -> Option<MapState<'a>> {
        let policy = HardCapacityCost;
        let unit_count = hdfg.unit_count().max(1);
        let clusters = state.arch.clusters().len();
        let swaps = clusters.max(1);
        // One entry per (unit, swap), current while its stamp is `epoch`.
        let mut memo = vec![(0u32, Replacement::Failed); unit_count * swaps];
        let mut epoch = 1u32;
        let mut best_cost = state.cost();
        for _ in 0..REPAIR_ATTEMPTS {
            if state.is_complete() {
                return Some(state);
            }
            // Pick a random motif or standalone node to rip up.
            let pick = rng.gen_range(0..unit_count);
            let motif = hdfg.motifs().get(pick);
            let ripped_nodes: &[NodeId] = match motif {
                Some(motif) => &motif.nodes,
                None => {
                    let idx = pick - hdfg.motifs().len();
                    hdfg.standalone_nodes()
                        .get(idx)
                        .map(std::slice::from_ref)
                        .unwrap_or_default()
                }
            };
            if ripped_nodes.is_empty() {
                continue;
            }
            let swap = if motif.is_some() && clusters > 1 {
                rng.gen_range(0..clusters)
            } else {
                0
            };
            let key = pick * swaps + swap;
            let (stamp, known) = memo[key];
            if stamp == epoch {
                state.count(|w| w.repair_memo_skips += 1);
                if let Replacement::Identity { cost } = known {
                    if cost <= best_cost || rng.gen::<f64>() < 0.05 {
                        best_cost = cost;
                    }
                }
                continue;
            }
            // Journalled repair attempt: a failed or rejected re-placement
            // rolls back in O(deltas) instead of restoring a snapshot.
            state.count(|w| w.repair_iterations += 1);
            state.begin_txn();
            for &n in ripped_nodes {
                state.unplace(n);
            }
            // Re-place.
            let ok = match motif {
                Some(motif) => Self::place_motif(&mut state, motif, swap),
                None => ripped_nodes
                    .iter()
                    .all(|&n| place_node_best_effort(&mut state, n, &policy)),
            };
            if !ok {
                state.rollback_txn();
                memo[key] = (epoch, Replacement::Failed);
                continue;
            }
            // Re-route everything that is still missing.
            state.route_all(&policy);
            let identity = state.txn_is_identity();
            let new_cost = state.cost() + if state.timing_ok() { 0.0 } else { 500.0 };
            let accept = new_cost <= best_cost || rng.gen::<f64>() < 0.05;
            if accept {
                best_cost = new_cost;
                state.commit_txn();
            } else {
                state.rollback_txn();
            }
            if identity {
                memo[key] = (epoch, Replacement::Identity { cost: new_cost });
            } else if accept {
                epoch += 1;
            }
        }
        if state.is_complete() {
            Some(state)
        } else {
            None
        }
    }
}

/// A repair iteration's outcome that left the state as it was, memoised
/// by [`PlaidMapper::repair`].
#[derive(Debug, Clone, Copy)]
enum Replacement {
    /// The unit could not be re-placed; the iteration rolled back.
    Failed,
    /// The unit went back where it was, with every touched route; `cost` is
    /// the state's cost with the timing penalty, as the iteration scored it.
    Identity { cost: f64 },
}

/// Whether a hardwired pattern can execute a motif of the given kind.
fn kind_matches(pattern: HardwiredPattern, kind: MotifKind) -> bool {
    matches!(
        (pattern, kind),
        (HardwiredPattern::FanIn, MotifKind::FanIn)
            | (HardwiredPattern::FanOut, MotifKind::FanOut)
            | (HardwiredPattern::Unicast, MotifKind::Unicast)
    )
}

impl PlaidMapper {
    /// Maps with an optional seed hint: a sound seed replays, a proven
    /// infeasible prefix raises the starting II, and the result is always
    /// the one a cold run of this point produces (see [`crate::seed`]).
    /// Identifies the DFG's motifs, then maps through
    /// [`Self::map_with_motifs`].
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
        let motifs = identify_motifs(dfg, &IdentifyOptions::default());
        self.map_with_motifs(dfg, &motifs, &PreparedFabric::new(arch.clone()), hint)
    }

    /// [`Self::map_with_seed`] with the motifs identified by the caller, on
    /// a prepared fabric whose signatures and reachability every ladder run
    /// on it shares: `motifs` must be
    /// `identify_motifs(dfg, &IdentifyOptions::default())`. On a non-Plaid
    /// fabric every cluster has a single ALU, so the motifs are ignored and
    /// every node maps on its own; the hierarchical strategy only pays off
    /// on the PCU array, which is exactly the paper's observation in
    /// Figure 18.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] exactly as [`Mapper::map`] does.
    pub fn map_with_motifs(
        &self,
        dfg: &Dfg,
        motifs: &HierarchicalDfg,
        fabric: &PreparedFabric,
        hint: Option<&MapSeed>,
    ) -> Result<SeededMapping, MapError> {
        map_seeded(
            &MotifLadder {
                mapper: self,
                motifs,
            },
            dfg,
            fabric,
            hint,
        )
    }
}

/// The Plaid mapper's II ladder over one DFG's motifs.
pub(crate) struct MotifLadder<'m> {
    mapper: &'m PlaidMapper,
    motifs: &'m HierarchicalDfg,
}

impl<'m> LadderSearch for MotifLadder<'m> {
    const NAME: &'static str = "plaid";

    /// The hierarchy the attempts map (the caller's motifs on a Plaid
    /// fabric, none elsewhere) plus the ladder's capacity certificate and
    /// reachability.
    type Shared = (Cow<'m, HierarchicalDfg>, LadderShared);

    const SETTINGS: u64 = 0xb1ac_ba4b_8c80_ff2a;

    fn prepare(&self, dfg: &Dfg, fabric: &PreparedFabric) -> Self::Shared {
        let hdfg = if fabric.arch().class() == ArchClass::Plaid {
            Cow::Borrowed(self.motifs)
        } else {
            Cow::Owned(HierarchicalDfg::new(dfg, Vec::new()))
        };
        (hdfg, LadderShared::of(fabric))
    }

    fn attempt(
        &self,
        (hdfg, shared): &Self::Shared,
        dfg: &Dfg,
        arch: &Architecture,
        ii: u32,
    ) -> Option<Mapping> {
        let mut rng = attempt_rng(SEED, ii);
        self.mapper
            .attempt_ii(dfg, arch, hdfg, ii, &mut rng, shared)
            .map(|state| state.into_mapping(Self::NAME))
    }

    fn certificate((_, shared): &Self::Shared) -> Option<&CapacityCert> {
        Some(&shared.cert)
    }
}

impl Mapper for PlaidMapper {
    fn map(&self, dfg: &Dfg, arch: &Architecture) -> Result<Mapping, MapError> {
        self.map_with_seed(dfg, arch, None).map(|s| s.mapping)
    }

    fn name(&self) -> &'static str {
        MotifLadder::NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mii::mii;
    use plaid_arch::plaid as plaid_fabric;
    use plaid_arch::{spatio_temporal, specialize};
    use plaid_dfg::kernel::{AffineExpr, Expr, KernelBuilder};
    use plaid_dfg::lower::lower_kernel;
    use plaid_dfg::Op;

    fn gemm_like(unroll: u64) -> Dfg {
        let kernel = KernelBuilder::new("gemm_like")
            .loop_var("i", 4)
            .loop_var("j", 4)
            .loop_var("k", 8)
            .array("a", 32)
            .array("b", 32)
            .array("c", 16)
            .accumulate(
                "c",
                AffineExpr::scaled_var(0, 4).add(&AffineExpr::var(1)),
                Op::Add,
                Expr::binary(
                    Op::Mul,
                    Expr::load("a", AffineExpr::scaled_var(0, 8).add(&AffineExpr::var(2))),
                    Expr::load("b", AffineExpr::scaled_var(2, 4).add(&AffineExpr::var(1))),
                ),
            )
            .build()
            .unwrap();
        lower_kernel(&kernel, unroll).unwrap()
    }

    #[test]
    fn maps_gemm_on_plaid() {
        let dfg = gemm_like(2);
        let arch = plaid_fabric::build(2, 2);
        let mapping = PlaidMapper::default().map(&dfg, &arch).unwrap();
        mapping.validate(&dfg, &arch).unwrap();
        assert!(mapping.ii >= mii(&dfg, &arch));
    }

    #[test]
    fn motif_nodes_land_in_the_same_pcu() {
        let dfg = gemm_like(2);
        let arch = plaid_fabric::build(2, 2);
        let hdfg = identify_motifs(&dfg, &IdentifyOptions::default());
        let mapping = PlaidMapper::default().map(&dfg, &arch).unwrap();
        // At least one identified motif should have all nodes on one tile,
        // demonstrating collective execution.
        let colocated = hdfg.motifs().iter().filter(|m| {
            let tiles: Vec<usize> = m
                .nodes
                .iter()
                .map(|n| arch.resource(mapping.placements[n].fu).tile)
                .collect();
            tiles.windows(2).all(|w| w[0] == w[1])
        });
        assert!(colocated.count() >= 1);
    }

    #[test]
    fn works_on_spatio_temporal_fabric_too() {
        let dfg = gemm_like(1);
        let arch = spatio_temporal::build(4, 4);
        let mapping = PlaidMapper::default().map(&dfg, &arch).unwrap();
        mapping.validate(&dfg, &arch).unwrap();
    }

    #[test]
    fn maps_onto_domain_specialized_plaid_ml() {
        let dfg = gemm_like(2);
        let arch = specialize::plaid_ml_2x2();
        let mapping = PlaidMapper::default().map(&dfg, &arch).unwrap();
        mapping.validate(&dfg, &arch).unwrap();
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let dfg = gemm_like(2);
        let arch = plaid_fabric::build(2, 2);
        let a = PlaidMapper::default().map(&dfg, &arch).unwrap();
        let b = PlaidMapper::default().map(&dfg, &arch).unwrap();
        assert_eq!(a.ii, b.ii);
        assert_eq!(a.placements, b.placements);
    }

    #[test]
    fn hardwired_pattern_matching() {
        assert!(kind_matches(HardwiredPattern::FanIn, MotifKind::FanIn));
        assert!(!kind_matches(HardwiredPattern::FanIn, MotifKind::FanOut));
        assert!(!kind_matches(HardwiredPattern::Unicast, MotifKind::FanIn));
    }

    /// Checks the structural windows of every candidate shape `state` can
    /// try next: each motif's (cluster, template) shapes and each node's
    /// per-FU shapes, over every shift up to `horizon`. A shift outside a
    /// window must fail `structurally_open`; with `exact`, a shift inside
    /// must pass it. Returns the (inside, outside) counts.
    fn check_windows(
        state: &MapState<'_>,
        hdfg: &HierarchicalDfg,
        horizon: u32,
        exact: bool,
    ) -> (usize, usize) {
        let dfg = state.dfg;
        let (mut inside, mut outside) = (0, 0);
        let mut check = |edges: &[EdgeId], shape: &[(NodeId, Placement)]| {
            let window = state.structural_window(edges, shape);
            for shift in 0..horizon {
                let slots: Vec<(NodeId, Placement)> = shape
                    .iter()
                    .map(|&(n, p)| {
                        (
                            n,
                            Placement {
                                cycle: p.cycle + shift,
                                ..p
                            },
                        )
                    })
                    .collect();
                let open = state.structurally_open(edges, &slots);
                let within = window.is_some_and(|(lo, hi)| lo <= shift && shift <= hi);
                let at = format!("{} II {}: {slots:?}", state.arch.name(), state.ii);
                assert!(within || !open, "{at} passes outside {window:?}");
                assert!(!exact || !within || open, "{at} fails inside {window:?}");
                inside += usize::from(within);
                outside += usize::from(!within);
            }
        };
        let mut shape = Vec::new();
        for motif in hdfg.motifs() {
            if motif.nodes.iter().any(|n| state.placements.contains_key(n)) {
                continue;
            }
            let mut incident: Vec<EdgeId> = motif
                .nodes
                .iter()
                .flat_map(|&n| dfg.incident(n).iter().copied())
                .collect();
            incident.sort_unstable();
            incident.dedup();
            for cluster in state.arch.clusters() {
                if !PlaidMapper::hosts(cluster, motif.kind) {
                    continue;
                }
                for template in schedule_templates(motif.kind) {
                    if PlaidMapper::template_slots(motif, cluster, template, &mut shape) {
                        check(&incident, &shape);
                    }
                }
            }
        }
        for node in dfg.node_ids() {
            if state.placements.contains_key(&node) {
                continue;
            }
            for fu in state.arch.functional_units().map(|r| r.id) {
                check(dfg.ins(node), &[(node, Placement { fu, cycle: 0 })]);
            }
        }
        (inside, outside)
    }

    #[test]
    fn structural_windows_are_sound_and_exact() {
        // The states are the prefixes of greedy runs, as in
        // `placement`'s `closed_first_hops_reject_exactly`, plus each
        // motif and node of the full run ripped up again, so that placed
        // consumers bound windows from above. On the hand-built bypass pair
        // a budget opens through an exact hop alone, so only soundness
        // holds there.
        let lean = |base: Architecture| {
            let params = base.params().clone();
            plaid_arch::rebuild_provisioned(&base, format!("{}-lean", base.name()), params, |_| 1)
        };
        let fabrics = [
            (plaid_fabric::build(2, 2), true),
            (plaid_fabric::build(3, 3), true),
            (lean(plaid_fabric::build(2, 2)), true),
            (crate::route::tests::bypass_pair(), false),
        ];
        let (mut inside, mut outside) = (0, 0);
        for dfg in [gemm_like(2), gemm_like(4)] {
            let hdfg = identify_motifs(&dfg, &IdentifyOptions::default());
            assert!(!hdfg.motifs().is_empty());
            let order = dfg.topological_order().unwrap();
            for (arch, exact) in &fabrics {
                for ii in 1..=3 {
                    let mut state = MapState::new(&dfg, arch, ii);
                    let horizon = |state: &MapState<'_>| {
                        let last = state.placements.values().map(|p| p.cycle).max();
                        last.unwrap_or(0) + 2 * ii + 6
                    };
                    let mut count = |state: &MapState<'_>| {
                        let (i, o) = check_windows(state, &hdfg, horizon(state), *exact);
                        inside += i;
                        outside += o;
                    };
                    for &node in &order {
                        count(&state);
                        // A node that finds no slot stays unplaced.
                        place_node_best_effort(&mut state, node, &HardCapacityCost);
                    }
                    let units = hdfg
                        .motifs()
                        .iter()
                        .map(|m| m.nodes.as_slice())
                        .chain(order.iter().map(std::slice::from_ref));
                    for nodes in units {
                        state.begin_txn();
                        for &n in nodes {
                            state.unplace(n);
                        }
                        count(&state);
                        state.rollback_txn();
                    }
                }
            }
        }
        assert!(
            inside > 0 && outside > 0,
            "{inside} inside, {outside} outside"
        );
    }

    #[test]
    fn scales_to_three_by_three() {
        let dfg = gemm_like(4);
        let arch = plaid_fabric::build(3, 3);
        let mapping = PlaidMapper::default().map(&dfg, &arch).unwrap();
        mapping.validate(&dfg, &arch).unwrap();
    }
}
