//! Shared placement / incremental-routing machinery used by all mappers.
//!
//! A [`MapState`] owns the partial mapping for a fixed II: node placements,
//! edge routes and the modulo occupancy table. Mappers mutate it through
//! place/unplace and route/unroute operations and read a scalar cost that
//! combines unrouted edges, route length and congestion.
//!
//! The state is an *incremental kernel*: every mutating primitive appends
//! its inverse to a move journal while a transaction is open, so a rejected
//! annealing move is undone by replaying O(move) deltas instead of restoring
//! an O(state) snapshot ([`MapState::begin_txn`] / [`MapState::commit_txn`]
//! / [`MapState::rollback_txn`]). Aggregates the move loop reads every
//! iteration — unrouted-edge count, total hop count, total overuse — are
//! maintained by the primitives, making [`MapState::cost`] O(1), and edge
//! queries read the [`Dfg`]'s own per-node edge index ([`Dfg::incident`],
//! [`Dfg::ins`], [`Dfg::outs`]) instead of scanning the edge list.
//!
//! Placement heuristics try a candidate — one node or a whole motif at
//! given positions — through one primitive, `MapState::try_place`: check
//! the slots, test the edges it would route, place, route, and undo on
//! failure. The edge test runs twice. The structural test
//! (`MapState::structurally_open`) reads the fabric's per-FU-pair first-hop
//! table in the ladder's [`Reach`]; it rejects a candidate with a
//! structurally dead edge, whose search would fail without probing
//! occupancy, so nothing enters the capacity certificate. The occupancy
//! test (`MapState::first_hops_open`) walks the router's own first hops
//! under the heuristic's policy and rejects a candidate with an edge whose
//! every first hop is refused. While a candidate is tried, the heuristic
//! only adds placements and routes, and under hard capacity a refused first
//! hop stays refused, so that edge would fail whenever it is reached. These
//! probes go through the ordinary `hop_cost` path, so they enter the
//! certificate like the search's own. SA's fallback placement keeps
//! candidates whose edges fail to route, so it uses only the structural
//! test.
//!
//! A probe allocates nothing beyond the routes it finds. Its caller builds
//! the slots and the edge list once per placement, not once per probe: a
//! node's in-edges are the DFG's own slice, and the Plaid mapper collects
//! a motif's incident edges once per motif placement.
//! [`MapState::candidate_fus`] lends its ordered list out of a buffer the
//! state owns and computes each sort key once.

use std::sync::Arc;

use plaid_arch::{Architecture, ResourceId};
use plaid_dfg::{Dfg, DfgEdge, EdgeId, EdgeKind, NodeId};

use crate::dense::DenseMap;
use crate::fabric::PreparedFabric;
use crate::mapping::{Mapping, Placement, Route};
use crate::route::{
    commit_route, find_route_in, first_hop_open, release_route, CostPolicy, Reach, RouteRequest,
    RouterScratch,
};
use crate::state::RoutingState;

/// Cost charged for every data-carrying edge that could not be routed.
pub const UNROUTED_PENALTY: f64 = 1_000.0;

/// Search-wide state shared by every II attempt of one ladder: the
/// capacity certificate accumulating across attempts (including failed
/// ones) and the fabric's exact-time reachability. The certificate is the
/// ladder's own, made after the replay decision, so a replayed point makes
/// none. The reachability is the prepared fabric's, built by the first
/// ladder on the fabric (or on a sibling of the same topology) and shared
/// by every later one. It holds nothing of the DFG: the DFG answers its own
/// edge queries.
pub(crate) struct LadderShared {
    /// Capacity-decision accumulator for the whole ladder.
    pub cert: Arc<crate::state::CapacityCert>,
    /// Exact-time reachability of every FU of the fabric being mapped.
    pub reach: Arc<Reach>,
}

impl LadderShared {
    /// The shared state of one search on `fabric`: a fresh certificate and
    /// the fabric's reachability.
    pub fn of(fabric: &PreparedFabric<'_>) -> Self {
        LadderShared {
            cert: Arc::new(crate::state::CapacityCert::new(
                fabric.arch().resources().len(),
            )),
            reach: Arc::clone(fabric.reach()),
        }
    }
}

/// One invertible delta recorded by the move journal. Each entry stores
/// exactly what its inverse needs: removals keep the removed value (moved,
/// not copied), insertions need only the key.
#[derive(Debug, Clone)]
enum JournalOp {
    /// A node was placed; undo removes the placement and frees the slot.
    Placed(NodeId),
    /// A node was unplaced; undo restores the placement and re-occupies.
    Unplaced(NodeId, Placement),
    /// An edge was routed; undo removes the route and releases its hops.
    Routed(EdgeId),
    /// An edge was unrouted; undo re-commits the stored route.
    Unrouted(EdgeId, Route),
}

impl JournalOp {
    /// The node or edge the entry is about, as `(is_node, id)`.
    fn subject(&self) -> (bool, u32) {
        match self {
            JournalOp::Placed(n) | JournalOp::Unplaced(n, _) => (true, n.0),
            JournalOp::Routed(e) | JournalOp::Unrouted(e, _) => (false, e.0),
        }
    }
}

/// Mutable mapping state for one II attempt.
///
/// Edge queries read the DFG's own index through `dfg`. A move loop that
/// iterates a node's edges while mutating the state copies the reference
/// out first (`let dfg = state.dfg;`), which borrows nothing of the state.
#[derive(Debug, Clone)]
pub struct MapState<'a> {
    /// The DFG being mapped.
    pub dfg: &'a Dfg,
    /// The target architecture.
    pub arch: &'a Architecture,
    /// Initiation interval of this attempt.
    pub ii: u32,
    /// Modulo occupancy (functional units and switches).
    pub state: RoutingState,
    /// Current placements, indexed densely by node id.
    pub placements: DenseMap<NodeId, Placement>,
    /// Current routes of data-carrying edges, indexed densely by edge id.
    pub routes: DenseMap<EdgeId, Route>,
    /// Exact-time reachability of the fabric, built once per prepared
    /// fabric and its siblings, and shared across clones, II attempts and
    /// ladders.
    reach: Arc<Reach>,
    /// Reusable router search state (alloc-free routing on the hot path).
    scratch: RouterScratch,
    /// Inverse-delta log of the open transaction (empty outside one).
    journal: Vec<JournalOp>,
    /// Whether a transaction is open (primitives journal their inverses).
    in_txn: bool,
    /// Sum of `hops.len()` over `routes` — route length in O(1).
    total_hops: usize,
    /// The list [`Self::candidate_fus`] lends out (empty while lent).
    candidates: Vec<ResourceId>,
    /// Sort keys of [`Self::candidate_fus`], reused across calls.
    candidate_keys: Vec<(CandidateKey, ResourceId)>,
}

/// Sort key of a candidate functional unit: summed distance to the node's
/// placed neighbours, current load, then the unit's id.
type CandidateKey = (u32, u32, u32);

/// Sorts `keyed` by key alone. Each key was computed once, when `keyed` was
/// filled, where `sort_by_key` would recompute two keys per comparison.
/// Every key must end in a unique id; equal keys cannot occur, so the
/// unstable sort gives the order a stable sort by key gives.
pub(crate) fn sort_by_unique_key<K: Ord, T>(keyed: &mut [(K, T)]) {
    keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    debug_assert!(
        keyed.windows(2).all(|w| w[0].0 < w[1].0),
        "sort keys are not unique"
    );
}

impl<'a> MapState<'a> {
    /// Creates an empty state for the given II, with its own certificate
    /// and reachability.
    pub fn new(dfg: &'a Dfg, arch: &'a Architecture, ii: u32) -> Self {
        let shared = LadderShared::of(&PreparedFabric::borrowed(arch));
        Self::for_ladder(dfg, arch, ii, &shared)
    }

    /// Creates an empty state for one II attempt of a ladder: capacity
    /// decisions are recorded into the ladder's certificate, and the
    /// ladder's reachability is reused instead of re-derived.
    pub(crate) fn for_ladder(
        dfg: &'a Dfg,
        arch: &'a Architecture,
        ii: u32,
        shared: &LadderShared,
    ) -> Self {
        MapState {
            dfg,
            arch,
            ii,
            state: RoutingState::with_cert(arch, ii, Arc::clone(&shared.cert)),
            placements: DenseMap::for_universe(dfg.node_count()),
            routes: DenseMap::for_universe(dfg.edge_count()),
            reach: Arc::clone(&shared.reach),
            scratch: RouterScratch::new(),
            journal: Vec::new(),
            in_txn: false,
            total_hops: 0,
            candidates: Vec::new(),
            candidate_keys: Vec::new(),
        }
    }

    /// Opens a transaction: subsequent place/unplace/route/unroute calls
    /// journal their inverses until [`Self::commit_txn`] or
    /// [`Self::rollback_txn`] closes it. Transactions do not nest.
    pub fn begin_txn(&mut self) {
        debug_assert!(!self.in_txn, "move transactions do not nest");
        debug_assert!(self.journal.is_empty());
        self.in_txn = true;
    }

    /// Accepts the open transaction's mutations and drops the journal.
    pub fn commit_txn(&mut self) {
        debug_assert!(self.in_txn, "commit_txn without begin_txn");
        self.journal.clear();
        self.in_txn = false;
    }

    /// Rejects the open transaction: replays the journalled inverses in
    /// reverse, leaving the state exactly as it was at [`Self::begin_txn`]
    /// (placements, routes, occupancy and all maintained aggregates) in
    /// O(deltas) — the journal replaces the historical full-state snapshot
    /// (`let snapshot = state.clone()`) the move loops restored on reject.
    pub fn rollback_txn(&mut self) {
        debug_assert!(self.in_txn, "rollback_txn without begin_txn");
        while let Some(op) = self.journal.pop() {
            match op {
                JournalOp::Placed(node) => {
                    let p = self
                        .placements
                        .remove(&node)
                        .expect("journaled placement exists");
                    self.state.release(p.fu, p.cycle, node);
                }
                JournalOp::Unplaced(node, p) => {
                    self.state.occupy(p.fu, p.cycle, node);
                    self.placements.insert(node, p);
                }
                JournalOp::Routed(edge) => {
                    let route = self.routes.remove(&edge).expect("journaled route exists");
                    self.total_hops -= route.hops.len();
                    release_route(&mut self.state, &route, self.dfg.edge(edge).src);
                }
                JournalOp::Unrouted(edge, route) => {
                    commit_route(&mut self.state, &route, self.dfg.edge(edge).src);
                    self.total_hops += route.hops.len();
                    self.routes.insert(edge, route);
                }
            }
        }
        self.in_txn = false;
    }

    /// Whether the open transaction left the state as [`Self::begin_txn`]
    /// found it: every node and edge the journal touched holds the
    /// placement or route it held then. A subject's first journal entry
    /// says what that was: an `Unplaced` or `Unrouted` entry carries the old
    /// value, and a `Placed` or `Routed` entry means there was none.
    /// Occupancy and the cost aggregates follow from placements and routes,
    /// so `true` means the transaction changed nothing a search reads.
    ///
    /// Each entry is compared with the ones before it. A repair
    /// transaction's journal holds about eight entries on average, so the
    /// quadratic scan needs no per-subject table.
    pub(crate) fn txn_is_identity(&self) -> bool {
        debug_assert!(self.in_txn, "txn_is_identity without begin_txn");
        self.journal.iter().enumerate().all(|(i, op)| {
            let subject = op.subject();
            if self.journal[..i].iter().any(|e| e.subject() == subject) {
                return true;
            }
            match op {
                JournalOp::Placed(n) => !self.placements.contains_key(n),
                JournalOp::Unplaced(n, p) => self.placements.get(n) == Some(p),
                JournalOp::Routed(e) => !self.routes.contains_key(e),
                JournalOp::Unrouted(e, route) => self.routes.get(e) == Some(route),
            }
        })
    }

    /// Whether `fu` can host `node` (capability plus a free modulo slot).
    pub fn can_place(&self, node: NodeId, fu: ResourceId, cycle: u32) -> bool {
        let n = self.dfg.node(node);
        let Some(caps) = self.arch.resource(fu).fu_caps() else {
            return false;
        };
        if n.op.is_memory() && !caps.memory {
            return false;
        }
        if n.op.is_compute() && !caps.compute {
            return false;
        }
        self.state.fits(fu, cycle % self.ii, node)
    }

    /// Places `node` on `(fu, cycle)`, occupying the FU's modulo slot.
    pub fn place(&mut self, node: NodeId, fu: ResourceId, cycle: u32) {
        debug_assert!(self.can_place(node, fu, cycle));
        self.state.occupy(fu, cycle, node);
        self.placements.insert(node, Placement { fu, cycle });
        if self.in_txn {
            self.journal.push(JournalOp::Placed(node));
        }
    }

    /// Removes `node` and un-routes every edge incident to it.
    pub fn unplace(&mut self, node: NodeId) {
        if let Some(p) = self.placements.remove(&node) {
            self.state.release(p.fu, p.cycle, node);
            if self.in_txn {
                self.journal.push(JournalOp::Unplaced(node, p));
            }
        }
        let dfg = self.dfg;
        for &e in dfg.incident(node) {
            self.unroute(e);
        }
    }

    /// Removes the route of `edge` from the occupancy table, if present.
    pub fn unroute(&mut self, edge: EdgeId) {
        if let Some(route) = self.routes.remove(&edge) {
            self.total_hops -= route.hops.len();
            release_route(&mut self.state, &route, self.dfg.edge(edge).src);
            if self.in_txn {
                self.journal.push(JournalOp::Unrouted(edge, route));
            }
        }
    }

    /// Arrival cycle of an edge of `kind` whose consumer is scheduled on
    /// `dst_cycle`: recurrences arrive `distance × II` later.
    fn arrival(&self, kind: EdgeKind, dst_cycle: u32) -> u32 {
        match kind {
            EdgeKind::Data => dst_cycle,
            EdgeKind::Recurrence { distance } => dst_cycle + distance * self.ii,
        }
    }

    /// Required arrival cycle of an edge given its endpoints' placements.
    fn arrival_cycle(&self, edge: &DfgEdge) -> Option<(u32, u32)> {
        let src = self.placements.get(&edge.src)?;
        let dst = self.placements.get(&edge.dst)?;
        Some((src.cycle, self.arrival(edge.kind, dst.cycle)))
    }

    /// Where `edge`'s endpoints would sit: nodes listed in `prospective`
    /// count as placed there, every other node keeps its current placement.
    /// `None` when an endpoint is unplaced.
    fn prospective_endpoints(
        &self,
        edge: &DfgEdge,
        prospective: &[(NodeId, Placement)],
    ) -> Option<(Placement, Placement)> {
        let at = |n: NodeId| {
            prospective
                .iter()
                .find(|&&(m, _)| m == n)
                .map(|&(_, p)| p)
                .or_else(|| self.placements.get(&n).copied())
        };
        Some((at(edge.src)?, at(edge.dst)?))
    }

    /// Whether every data edge in `edges` whose endpoints would both be
    /// placed passes `open`. Endpoints resolve as in
    /// [`Self::prospective_endpoints`]; edges with an unplaced endpoint, and
    /// edges that carry no data, are skipped. Stops at the first closed
    /// edge.
    fn edges_open(
        &self,
        edges: &[EdgeId],
        prospective: &[(NodeId, Placement)],
        open: impl Fn(&RouteRequest) -> bool,
    ) -> bool {
        edges.iter().all(|&e| {
            let edge = self.dfg.edge(e);
            if !self.dfg.edge_carries_data(edge) {
                return true;
            }
            match self.prospective_endpoints(edge, prospective) {
                Some((src, dst)) => open(&self.route_request(edge, src, dst)),
                None => true,
            }
        })
    }

    /// The structural test over `edges` (see [`Self::edges_open`]): every
    /// edge has a positive timing budget and a switch path of exactly that
    /// length ([`Reach::structurally_open`]). A closed edge's search fails
    /// before its first occupancy probe, so rejecting the candidate up
    /// front gives the same result as trying it, without probing anything.
    pub(crate) fn structurally_open(
        &self,
        edges: &[EdgeId],
        prospective: &[(NodeId, Placement)],
    ) -> bool {
        self.edges_open(edges, prospective, |request| {
            self.reach.structurally_open(request)
        })
    }

    /// The occupancy test over `edges` (see [`Self::edges_open`]): every
    /// edge still has an open first hop under `policy` in the current
    /// occupancy ([`crate::route::first_hop_open`]). Under
    /// [`crate::route::HardCapacityCost`] a refused first hop stays refused
    /// while a candidate only adds placements and routes, so a closed edge
    /// fails its search whenever it is reached, and rejecting the candidate
    /// up front gives the same result as trying it, without searching any
    /// edge.
    pub(crate) fn first_hops_open(
        &self,
        edges: &[EdgeId],
        prospective: &[(NodeId, Placement)],
        policy: &impl CostPolicy,
    ) -> bool {
        self.edges_open(edges, prospective, |request| {
            first_hop_open(self.arch, &self.reach, &self.state, request, policy)
        })
    }

    /// Tries one candidate: `slots` placed at once, then every edge of
    /// `edges` whose endpoints are both placed routed in the given order.
    /// Returns `true` with the candidate placed and routed, or `false` with
    /// the state as before (apart from the certificate's probes).
    ///
    /// The steps run in this order: [`Self::can_place`] for every slot; the
    /// structural test ([`Self::structurally_open`]) over all of `edges`;
    /// the occupancy test under `policy` ([`Self::first_hops_open`]); place
    /// all slots; route; on the first failed route, unplace every slot. The
    /// two tests are separate passes so that a structurally dead candidate
    /// probes no switch, whatever order its edges come in.
    pub(crate) fn try_place(
        &mut self,
        slots: &[(NodeId, Placement)],
        edges: &[EdgeId],
        policy: &impl CostPolicy,
    ) -> bool {
        if !slots.iter().all(|&(n, p)| self.can_place(n, p.fu, p.cycle))
            || !self.structurally_open(edges, slots)
            || !self.first_hops_open(edges, slots, policy)
        {
            return false;
        }
        for &(node, p) in slots {
            self.place(node, p.fu, p.cycle);
        }
        for &e in edges {
            let edge = self.dfg.edge(e);
            if !self.placements.contains_key(&edge.src) || !self.placements.contains_key(&edge.dst)
            {
                continue;
            }
            if !self.route_edge(e, policy) {
                for &(node, _) in slots {
                    self.unplace(node);
                }
                return false;
            }
        }
        true
    }

    /// The route request of `edge` with its producer at `src` and its
    /// consumer at `dst`.
    fn route_request(&self, edge: &DfgEdge, src: Placement, dst: Placement) -> RouteRequest {
        RouteRequest {
            src_fu: src.fu,
            src_cycle: src.cycle,
            dst_fu: dst.fu,
            arrival_cycle: self.arrival(edge.kind, dst.cycle),
            value: edge.src,
        }
    }

    /// Attempts to route `edge` under `policy`. Returns `true` on success.
    /// Edges that do not carry data (ordering-only) are trivially "routed".
    pub fn route_edge(&mut self, edge: EdgeId, policy: &impl CostPolicy) -> bool {
        let e = self.dfg.edge(edge);
        if !self.dfg.edge_carries_data(e) {
            return true;
        }
        if self.routes.contains_key(&edge) {
            return true;
        }
        let (Some(&src), Some(&dst)) = (self.placements.get(&e.src), self.placements.get(&e.dst))
        else {
            return false;
        };
        let request = self.route_request(e, src, dst);
        match find_route_in(
            &mut self.scratch,
            self.arch,
            &self.reach,
            &self.state,
            &request,
            policy,
        ) {
            Some((route, _)) => {
                self.add_route(edge, route);
                true
            }
            None => false,
        }
    }

    /// Records `route` as the route of `edge`, which has none, and occupies
    /// its hops.
    fn add_route(&mut self, edge: EdgeId, route: Route) {
        commit_route(&mut self.state, &route, self.dfg.edge(edge).src);
        self.total_hops += route.hops.len();
        self.routes.insert(edge, route);
        if self.in_txn {
            self.journal.push(JournalOp::Routed(edge));
        }
    }

    /// Routes every currently unrouted data-carrying edge whose endpoints are
    /// placed; returns the number of edges that remain unrouted.
    pub fn route_all(&mut self, policy: &impl CostPolicy) -> usize {
        let mut failures = 0;
        for e in 0..self.dfg.edge_count() as u32 {
            if !self.route_edge(EdgeId(e), policy) {
                failures += 1;
            }
        }
        failures
    }

    /// Number of data-carrying edges that currently have no route.
    /// Read from the DFG's data-edge count; O(1).
    pub fn unrouted_edges(&self) -> usize {
        debug_assert!(self.routes.len() <= self.dfg.data_edge_count());
        self.dfg.data_edge_count() - self.routes.len()
    }

    /// Whether timing constraints hold for every edge whose endpoints are
    /// placed (consumer strictly after producer, recurrences shifted by
    /// `distance × II`).
    pub fn timing_ok(&self) -> bool {
        self.dfg.edges().all(|e| match self.arrival_cycle(e) {
            Some((src_cycle, arrival)) => arrival > src_cycle,
            None => true,
        })
    }

    /// Scalar quality: lower is better. Unrouted edges dominate, then total
    /// hop count, then congestion pressure. All three terms are maintained
    /// incrementally, so this is O(1).
    pub fn cost(&self) -> f64 {
        let unrouted = self.unrouted_edges() as f64;
        let congestion = f64::from(self.state.total_overuse());
        unrouted * UNROUTED_PENALTY + self.total_hops as f64 + congestion * 10.0
    }

    /// Whether the state is a complete, legal mapping.
    pub fn is_complete(&self) -> bool {
        self.placements.len() == self.dfg.node_count()
            && self.unrouted_edges() == 0
            && self.state.total_overuse() == 0
            && self.timing_ok()
    }

    /// Earliest schedule cycle of `node` respecting its placed same-iteration
    /// predecessors (0 if none are placed).
    pub fn earliest_cycle(&self, node: NodeId) -> u32 {
        self.dfg
            .in_edges(node)
            .filter(|e| !e.kind.is_recurrence())
            .filter_map(|e| self.placements.get(&e.src).map(|p| p.cycle + 1))
            .max()
            .unwrap_or(0)
    }

    /// Candidate functional units for `node`, cheapest tiles first: units are
    /// sorted by summed distance to the node's placed neighbours, then by
    /// current load, then by id.
    ///
    /// The list is lent out of a buffer the state owns. Hand it back with
    /// [`Self::recycle_candidates`] and the next call allocates nothing; a
    /// caller that drops it instead only costs the next call an allocation.
    pub fn candidate_fus(&mut self, node: NodeId) -> Vec<ResourceId> {
        let dfg = self.dfg;
        let mut fus = std::mem::take(&mut self.candidates);
        let mut keyed = std::mem::take(&mut self.candidate_keys);
        // The lent buffer first holds the placed neighbours' positions.
        fus.clear();
        fus.extend(
            dfg.in_edges(node)
                .map(|e| e.src)
                .chain(dfg.out_edges(node).map(|e| e.dst))
                .filter_map(|n| self.placements.get(&n).map(|p| p.fu)),
        );
        keyed.clear();
        let needs_memory = dfg.node(node).op.is_memory();
        keyed.extend(self.arch.units_supporting(needs_memory).iter().map(|&fu| {
            let distance: u32 = fus
                .iter()
                .map(|&other| self.arch.resource_distance(fu, other))
                .sum();
            ((distance, self.state.resource_load(fu), fu.0), fu)
        }));
        sort_by_unique_key(&mut keyed);
        fus.clear();
        fus.extend(keyed.iter().map(|&(_, fu)| fu));
        self.candidate_keys = keyed;
        fus
    }

    /// Takes back a list [`Self::candidate_fus`] lent out, so that the next
    /// call reuses its allocation.
    pub fn recycle_candidates(&mut self, fus: Vec<ResourceId>) {
        self.candidates = fus;
    }

    /// Converts the state into an immutable [`Mapping`].
    pub fn into_mapping(self, mapper_name: &str) -> Mapping {
        Mapping {
            arch_name: self.arch.name().to_string(),
            mapper_name: mapper_name.to_string(),
            ii: self.ii,
            placements: self.placements.into_entries().collect(),
            routes: self.routes.into_entries().collect(),
        }
    }
}

/// Greedy list scheduling: place nodes in topological order, each at its
/// earliest feasible cycle on the best candidate FU, routing incident input
/// edges immediately. Returns `false` if any node could not be placed.
pub fn greedy_place(state: &mut MapState<'_>, policy: &impl CostPolicy) -> bool {
    let order = match state.dfg.topological_order() {
        Ok(o) => o,
        Err(_) => return false,
    };
    for node in order {
        if !place_node_best_effort(state, node, policy) {
            return false;
        }
    }
    true
}

/// Places one node at its earliest feasible cycle (searching two IIs of
/// offsets) on the cheapest FU that admits routing of its incoming data edges.
pub fn place_node_best_effort(
    state: &mut MapState<'_>,
    node: NodeId,
    policy: &impl CostPolicy,
) -> bool {
    let base = state.earliest_cycle(node);
    let candidates = state.candidate_fus(node);
    let dfg = state.dfg;
    let placed = (base..base + state.ii * 2).any(|cycle| {
        // Route the incoming data edges from already-placed producers.
        candidates
            .iter()
            .any(|&fu| state.try_place(&[(node, Placement { fu, cycle })], dfg.ins(node), policy))
    });
    state.recycle_candidates(candidates);
    placed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::HardCapacityCost;
    use plaid_arch::spatio_temporal;
    use plaid_dfg::kernel::{AffineExpr, Expr, KernelBuilder};
    use plaid_dfg::lower::{lower_kernel, LoweringOptions};
    use plaid_dfg::Op;

    fn small_dfg() -> Dfg {
        let kernel = KernelBuilder::new("axpy")
            .loop_var("i", 8)
            .array("x", 8)
            .array("y", 8)
            .store(
                "y",
                AffineExpr::var(0),
                Expr::binary(
                    Op::Add,
                    Expr::binary(Op::Mul, Expr::load("x", AffineExpr::var(0)), Expr::Const(3)),
                    Expr::load("y", AffineExpr::var(0)),
                ),
            )
            .build()
            .unwrap();
        lower_kernel(&kernel, &LoweringOptions::default()).unwrap()
    }

    #[test]
    fn greedy_placement_completes_simple_kernels() {
        let dfg = small_dfg();
        let arch = spatio_temporal::build(4, 4);
        let mut state = MapState::new(&dfg, &arch, 2);
        assert!(greedy_place(&mut state, &HardCapacityCost));
        assert_eq!(state.placements.len(), dfg.node_count());
        assert_eq!(state.unrouted_edges(), 0);
        assert!(state.is_complete());
        assert!(state.cost() < UNROUTED_PENALTY);
    }

    #[test]
    fn unplace_releases_fu_and_routes() {
        let dfg = small_dfg();
        let arch = spatio_temporal::build(4, 4);
        let mut state = MapState::new(&dfg, &arch, 2);
        assert!(greedy_place(&mut state, &HardCapacityCost));
        let some_node = dfg.node_ids().next().unwrap();
        let before = state.state.occupied_slots();
        state.unplace(some_node);
        assert!(state.state.occupied_slots() < before);
        assert!(!state.is_complete());
    }

    #[test]
    fn earliest_cycle_respects_predecessors() {
        let dfg = small_dfg();
        let arch = spatio_temporal::build(4, 4);
        let mut state = MapState::new(&dfg, &arch, 2);
        assert!(greedy_place(&mut state, &HardCapacityCost));
        for edge in dfg.edges().filter(|e| !e.kind.is_recurrence()) {
            let src = state.placements[&edge.src].cycle;
            let dst = state.placements[&edge.dst].cycle;
            assert!(dst > src, "edge {} scheduled backwards", edge.id);
        }
    }

    #[test]
    fn dead_edges_never_route() {
        // Every placement pair the structural test (`structurally_open`)
        // rejects must also fail to route once placed; pairs it accepts are
        // left to the search.
        let dfg = small_dfg();
        let arch = spatio_temporal::build(4, 4);
        let edge = dfg
            .edges()
            .find(|e| dfg.edge_carries_data(e))
            .expect("a data edge");
        let fus: Vec<ResourceId> = arch.functional_units().map(|r| r.id).collect();
        let mut dead = 0;
        for &src_fu in &fus {
            for &dst_fu in &fus {
                for dst_cycle in 0..3 {
                    let mut state = MapState::new(&dfg, &arch, 2);
                    let src = Placement {
                        fu: src_fu,
                        cycle: 1,
                    };
                    let dst = Placement {
                        fu: dst_fu,
                        cycle: dst_cycle,
                    };
                    // Unplaced endpoints are skipped.
                    assert!(state.structurally_open(&[edge.id], &[(edge.src, src)]));
                    if state.structurally_open(&[edge.id], &[(edge.src, src), (edge.dst, dst)]) {
                        continue;
                    }
                    dead += 1;
                    if !state.can_place(edge.src, src.fu, src.cycle) {
                        continue;
                    }
                    state.place(edge.src, src.fu, src.cycle);
                    // The placed producer now stands in for the prospective one.
                    assert!(!state.structurally_open(&[edge.id], &[(edge.dst, dst)]));
                    if state.can_place(edge.dst, dst.fu, dst.cycle) {
                        state.place(edge.dst, dst.fu, dst.cycle);
                        assert!(!state.route_edge(edge.id, &HardCapacityCost));
                    }
                }
            }
        }
        assert!(dead > 0);
    }

    /// A DFG whose loads fan out to several consumers (`x[i]` to both
    /// operands of one multiply), with a recurrence through the
    /// accumulation into `y`.
    fn fan_out_dfg() -> Dfg {
        let x = || Expr::load("x", AffineExpr::var(0));
        let y = || Expr::load("y", AffineExpr::var(0));
        let kernel = KernelBuilder::new("fan_out")
            .loop_var("i", 8)
            .array("x", 8)
            .array("y", 8)
            .array("z", 8)
            .store(
                "z",
                AffineExpr::var(0),
                Expr::binary(
                    Op::Add,
                    Expr::binary(
                        Op::Add,
                        Expr::binary(Op::Mul, x(), x()),
                        Expr::binary(Op::Mul, x(), Expr::Const(3)),
                    ),
                    Expr::binary(
                        Op::Mul,
                        Expr::binary(Op::Sub, x(), y()),
                        Expr::binary(Op::Add, y(), Expr::Const(5)),
                    ),
                ),
            )
            .accumulate("y", AffineExpr::var(0), Op::Add, x())
            .build()
            .unwrap();
        lower_kernel(&kernel, &LoweringOptions::unrolled(2)).unwrap()
    }

    #[test]
    fn closed_first_hops_reject_exactly() {
        // Every candidate `first_hops_open` rejects must also fail once
        // placed with its in-edges routed in order, as
        // `place_node_best_effort` would try it: a refused first hop stays
        // refused while a candidate only adds placements and routes. The
        // states are the prefixes of greedy runs on capacity-1 fabrics, so
        // later nodes, recurrence producers and nodes that found no slot
        // are unplaced. Fan-out leaves a producer's value in full switch
        // cells, where it still fits.
        let dfg = fan_out_dfg();
        assert!(dfg.node_ids().any(|n| dfg.outs(n).len() >= 3));
        assert!(dfg.edges().any(|e| e.kind.is_recurrence()));
        let order = dfg.topological_order().unwrap();
        let lean = |base: Architecture| {
            let params = base.params().clone();
            plaid_arch::rebuild_provisioned(&base, format!("{}-lean", base.name()), params, |_| 1)
        };
        let mut rejected = 0;
        for arch in [
            lean(plaid_arch::plaid::build(2, 2)),
            lean(spatio_temporal::build(4, 4)),
        ] {
            for ii in 1..=3 {
                let mut state = MapState::new(&dfg, &arch, ii);
                for &node in &order {
                    let base = state.earliest_cycle(node);
                    for cycle in base..base + 2 * ii {
                        for fu in state.candidate_fus(node) {
                            let at = [(node, Placement { fu, cycle })];
                            if !state.can_place(node, fu, cycle)
                                || !state.structurally_open(dfg.ins(node), &at)
                                || state.first_hops_open(dfg.ins(node), &at, &HardCapacityCost)
                            {
                                continue;
                            }
                            rejected += 1;
                            state.begin_txn();
                            state.place(node, fu, cycle);
                            let routed = dfg.ins(node).iter().all(|&e| {
                                !state.placements.contains_key(&dfg.edge(e).src)
                                    || state.route_edge(e, &HardCapacityCost)
                            });
                            state.rollback_txn();
                            assert!(
                                !routed,
                                "{} II {ii}: rejected {node} at {fu}@{cycle} routes",
                                arch.name()
                            );
                        }
                    }
                    // A node that finds no slot stays unplaced.
                    place_node_best_effort(&mut state, node, &HardCapacityCost);
                }
            }
        }
        assert!(rejected > 0);
    }

    #[test]
    fn failed_candidates_leave_the_state_as_it_was() {
        // `try_place` either places and routes the whole candidate or
        // leaves placements, routes and occupancy as it found them. The
        // states are the prefixes of greedy runs on a capacity-1 fabric,
        // where many candidates fail.
        let dfg = fan_out_dfg();
        let order = dfg.topological_order().unwrap();
        let base = plaid_arch::plaid::build(2, 2);
        let params = base.params().clone();
        let arch = plaid_arch::rebuild_provisioned(&base, "plaid-lean", params, |_| 1);
        let (mut placed, mut failed) = (0, 0);
        for ii in 1..=3 {
            let mut state = MapState::new(&dfg, &arch, ii);
            for &node in &order {
                let base = state.earliest_cycle(node);
                for cycle in base..base + 2 * ii {
                    for fu in state.candidate_fus(node) {
                        let before = (
                            state.placements.clone(),
                            state.routes.clone(),
                            state.state.clone(),
                        );
                        let at = [(node, Placement { fu, cycle })];
                        state.begin_txn();
                        if state.try_place(&at, dfg.ins(node), &HardCapacityCost) {
                            placed += 1;
                            assert_eq!(state.placements.get(&node), Some(&at[0].1));
                            assert!(dfg.ins(node).iter().all(|&e| {
                                let edge = dfg.edge(e);
                                !dfg.edge_carries_data(edge)
                                    || !state.placements.contains_key(&edge.src)
                                    || state.routes.contains_key(&e)
                            }));
                        } else {
                            failed += 1;
                            assert_eq!(state.placements, before.0);
                            assert_eq!(state.routes, before.1);
                            assert_eq!(state.state, before.2);
                        }
                        state.rollback_txn();
                    }
                }
                place_node_best_effort(&mut state, node, &HardCapacityCost);
            }
        }
        assert!(placed > 0 && failed > 0);
    }

    #[test]
    fn candidate_fus_filter_memory_capability() {
        let dfg = small_dfg();
        let arch = spatio_temporal::build(4, 4);
        let mut state = MapState::new(&dfg, &arch, 2);
        let load = dfg.memory_nodes().next().unwrap().id;
        let candidates = state.candidate_fus(load);
        assert_eq!(candidates.len(), 4);
        assert!(candidates
            .iter()
            .all(|&fu| arch.resource(fu).fu_caps().unwrap().memory));
    }

    #[test]
    fn into_mapping_round_trips_and_validates() {
        let dfg = small_dfg();
        let arch = spatio_temporal::build(4, 4);
        let mut state = MapState::new(&dfg, &arch, 2);
        assert!(greedy_place(&mut state, &HardCapacityCost));
        let mapping = state.into_mapping("greedy");
        assert!(mapping.validate(&dfg, &arch).is_ok());
        assert_eq!(mapping.ii, 2);
    }

    #[test]
    fn cost_aggregates_match_recomputation() {
        let dfg = small_dfg();
        let arch = spatio_temporal::build(4, 4);
        let mut state = MapState::new(&dfg, &arch, 2);
        assert!(greedy_place(&mut state, &HardCapacityCost));
        // Recompute the cost terms the slow way and compare with the
        // incrementally maintained aggregates.
        let unrouted_slow = dfg
            .edges()
            .filter(|e| dfg.edge_carries_data(e) && !state.routes.contains_key(&e.id))
            .count();
        let hops_slow: usize = state.routes.values().map(|r| r.hops.len()).sum();
        assert_eq!(state.unrouted_edges(), unrouted_slow);
        assert_eq!(
            state.cost(),
            unrouted_slow as f64 * UNROUTED_PENALTY
                + hops_slow as f64
                + f64::from(state.state.total_overuse()) * 10.0
        );
    }

    #[test]
    fn rollback_restores_the_pre_move_state() {
        let dfg = small_dfg();
        let arch = spatio_temporal::build(4, 4);
        let mut state = MapState::new(&dfg, &arch, 2);
        assert!(greedy_place(&mut state, &HardCapacityCost));
        let placements_before = state.placements.clone();
        let routes_before = state.routes.clone();
        let occupancy_before = state.state.clone();
        let cost_before = state.cost();

        let node = dfg.node_ids().nth(2).unwrap();
        state.begin_txn();
        state.unplace(node);
        assert_ne!(state.placements.len(), placements_before.len());
        state.rollback_txn();

        assert_eq!(state.placements, placements_before);
        assert_eq!(state.routes, routes_before);
        assert_eq!(state.state, occupancy_before);
        assert_eq!(state.cost(), cost_before);
        assert!(state.is_complete());
    }

    #[test]
    fn commit_keeps_the_mutations() {
        let dfg = small_dfg();
        let arch = spatio_temporal::build(4, 4);
        let mut state = MapState::new(&dfg, &arch, 2);
        assert!(greedy_place(&mut state, &HardCapacityCost));
        let node = dfg.node_ids().nth(2).unwrap();
        state.begin_txn();
        state.unplace(node);
        let len_mid = state.placements.len();
        state.commit_txn();
        assert_eq!(state.placements.len(), len_mid);
        assert!(!state.placements.contains_key(&node));
    }

    #[test]
    fn identity_needs_every_touched_node_and_edge_as_it_was() {
        let dfg = small_dfg();
        let arch = spatio_temporal::build(4, 4);
        let mut state = MapState::new(&dfg, &arch, 2);
        assert!(greedy_place(&mut state, &HardCapacityCost));
        let edge = dfg
            .edges()
            .find(|e| dfg.edge_carries_data(e))
            .expect("a data edge");
        let node = edge.dst;
        let at = state.placements[&node];

        // An empty transaction changes nothing.
        state.begin_txn();
        assert!(state.txn_is_identity());
        state.rollback_txn();

        // Re-place the node where it is and commit: its edges take the
        // routes a search from this state finds.
        state.begin_txn();
        state.unplace(node);
        state.place(node, at.fu, at.cycle);
        state.route_all(&HardCapacityCost);
        state.commit_txn();
        assert!(state.is_complete());
        let before = (state.placements.clone(), state.routes.clone());

        // The same position and the same routes: identity.
        state.begin_txn();
        state.unplace(node);
        state.place(node, at.fu, at.cycle);
        state.route_all(&HardCapacityCost);
        assert_eq!((&state.placements, &state.routes), (&before.0, &before.1));
        assert!(state.txn_is_identity());
        state.rollback_txn();

        // Another FU, or the same modulo slot an II later: not identity.
        let elsewhere = state
            .candidate_fus(node)
            .into_iter()
            .find(|&fu| fu != at.fu && state.can_place(node, fu, at.cycle))
            .expect("another free candidate");
        for (fu, cycle) in [(elsewhere, at.cycle), (at.fu, at.cycle + state.ii)] {
            state.begin_txn();
            state.unplace(node);
            assert!(state.can_place(node, fu, cycle));
            state.place(node, fu, cycle);
            state.route_all(&HardCapacityCost);
            assert!(!state.txn_is_identity(), "{node} moved to {fu}@{cycle}");
            state.rollback_txn();
        }

        // The same route back: identity; one hop moved by a cycle: not.
        let route = state.routes[&edge.id].clone();
        let mut moved = route.clone();
        moved.hops.last_mut().expect("a routed hop").cycle += 1;
        for (replacement, identity) in [(route, true), (moved, false)] {
            state.begin_txn();
            state.unroute(edge.id);
            state.add_route(edge.id, replacement);
            assert_eq!(state.txn_is_identity(), identity);
            state.rollback_txn();
        }

        // A node that was unplaced when the transaction began, then placed:
        // its rip-up journals nothing, so only its `Placed` entry tells.
        state.begin_txn();
        state.unplace(node);
        state.commit_txn();
        state.begin_txn();
        state.unplace(node);
        state.place(node, at.fu, at.cycle);
        assert!(!state.txn_is_identity());
        state.rollback_txn();
        // Placed and unplaced again within the transaction: identity.
        state.begin_txn();
        state.place(node, at.fu, at.cycle);
        state.unplace(node);
        assert!(state.txn_is_identity());
        state.rollback_txn();
    }

    #[test]
    fn identity_agrees_with_comparing_whole_states() {
        // Random rip-ups and re-placements on a capacity-1 fabric, where
        // many candidates fail half-way: the journal check answers what a
        // comparison of the placement and route tables answers.
        use rand::{Rng, SeedableRng};
        let dfg = fan_out_dfg();
        let base = plaid_arch::plaid::build(2, 2);
        let params = base.params().clone();
        let arch = plaid_arch::rebuild_provisioned(&base, "plaid-lean", params, |_| 1);
        let nodes: Vec<NodeId> = dfg.node_ids().collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let (mut same, mut changed) = (0, 0);
        for ii in 2..=4 {
            let mut state = MapState::new(&dfg, &arch, ii);
            greedy_place(&mut state, &HardCapacityCost);
            for _ in 0..300 {
                let before = (state.placements.clone(), state.routes.clone());
                state.begin_txn();
                let ripped = nodes[rng.gen_range(0..nodes.len())];
                state.unplace(ripped);
                place_node_best_effort(&mut state, ripped, &HardCapacityCost);
                state.route_all(&HardCapacityCost);
                let identity = (&state.placements, &state.routes) == (&before.0, &before.1);
                assert_eq!(state.txn_is_identity(), identity);
                if identity {
                    same += 1;
                } else {
                    changed += 1;
                }
                if rng.gen::<f64>() < 0.5 {
                    state.commit_txn();
                } else {
                    state.rollback_txn();
                }
            }
        }
        assert!(
            same > 0 && changed > 0,
            "{same} identities, {changed} changes"
        );
    }
}
