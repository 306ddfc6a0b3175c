//! Dijkstra-based routing over the time-extended (modulo) resource graph.
//!
//! A route delivers the value produced by a node placed at `(src_fu, t_src)`
//! to a consumer placed at `(dst_fu, t_dst)` (with `t_dst` already shifted by
//! `distance × II` for recurrence edges). The route must take *exactly*
//! `t_dst − t_src` cycles: a value arriving an II too late would belong to the
//! wrong iteration. Waiting is expressed physically, by looping on a
//! register/hold resource (the self-links the architectures provide).
//!
//! The search itself is allocation-free on the hot path: a reusable
//! [`RouterScratch`] owns the distance/parent tables (epoch-stamped, so
//! clearing between searches is a counter bump, not a memset) and the
//! priority queue. It prunes search cells that cannot reach the consumer in
//! exactly the remaining cycles, reading a [`Reach`]: two latencies per
//! switch and destination FU, computed once per fabric. The mappers route
//! thousands of edges per second through [`find_route_in`], with the scratch
//! owned by their `MapState` and the `Reach` shared by every attempt of one
//! II ladder.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use plaid_arch::{Architecture, ResourceId};
use plaid_dfg::NodeId;

use crate::mapping::{Route, RouteHop};
use crate::state::RoutingState;

/// A routing request for one edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRequest {
    /// Producer functional unit.
    pub src_fu: ResourceId,
    /// Producer schedule cycle.
    pub src_cycle: u32,
    /// Consumer functional unit.
    pub dst_fu: ResourceId,
    /// Absolute arrival cycle (consumer cycle, plus `distance × II` for
    /// recurrence edges).
    pub arrival_cycle: u32,
    /// The value being routed (the producer node id); identical values share
    /// switch capacity.
    pub value: NodeId,
}

impl RouteRequest {
    /// Cycles the route must take, or `None` when the value would have to
    /// arrive no later than it leaves (no route exists).
    fn budget(&self) -> Option<u32> {
        self.arrival_cycle
            .checked_sub(self.src_cycle)
            .filter(|&b| b > 0)
    }
}

/// Per-hop cost policy.
pub trait CostPolicy {
    /// Cost of occupying `(resource, slot)` with `value`, or `None` if the
    /// resource may not be used (hard capacity). Finite costs only: the
    /// router rejects non-finite hop costs at insertion (a NaN would corrupt
    /// the priority-queue ordering).
    fn hop_cost(
        &self,
        state: &RoutingState,
        resource: ResourceId,
        slot: u32,
        value: NodeId,
    ) -> Option<f64>;
}

/// Hard-capacity cost policy used by the SA and Plaid mappers: a congested
/// resource is forbidden, otherwise cost grows mildly with its load so the
/// router naturally spreads traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct HardCapacityCost;

impl CostPolicy for HardCapacityCost {
    fn hop_cost(
        &self,
        state: &RoutingState,
        resource: ResourceId,
        slot: u32,
        value: NodeId,
    ) -> Option<f64> {
        let (fits, usage) = state.admission(resource, slot, value);
        if !fits {
            return None;
        }
        Some(1.0 + 0.2 * f64::from(usage))
    }
}

/// Unit cost policy that admits every hop and never reads occupancy.
///
/// Under it [`first_hop_open`] is the structural test: `false` means the
/// timing budget is not positive or no switch path of exactly that many
/// cycles leaves the producer's FU for the consumer's, so every search of
/// the request returns `None` before its first occupancy probe. The
/// placement layer runs this test before the occupancy one, so a
/// structurally dead candidate records nothing in the capacity certificate.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AnyHop;

impl CostPolicy for AnyHop {
    fn hop_cost(
        &self,
        _state: &RoutingState,
        _resource: ResourceId,
        _slot: u32,
        _value: NodeId,
    ) -> Option<f64> {
        Some(1.0)
    }
}

/// Negotiated-congestion cost policy (PathFinder): overuse is permitted but
/// increasingly expensive, steered by per-resource history costs.
#[derive(Debug, Clone)]
pub struct NegotiatedCost {
    /// History cost per resource, grown after each routing iteration.
    pub history: Vec<f64>,
    /// Weight of present congestion.
    pub present_factor: f64,
}

impl NegotiatedCost {
    /// Creates a policy with zero history for `resource_count` resources.
    pub fn new(resource_count: usize) -> Self {
        NegotiatedCost {
            history: vec![0.0; resource_count],
            present_factor: 2.0,
        }
    }

    /// Increases the history cost of every currently overused resource.
    ///
    /// Resources with no overuse anywhere in the II are skipped via the
    /// incrementally maintained [`RoutingState::resource_overuse`] counter,
    /// so a negotiation round costs O(overused slots), not
    /// O(resources × II) — only the congested fraction of the fabric is
    /// scanned slot-by-slot.
    pub fn accumulate_history(&mut self, state: &RoutingState, arch: &Architecture) {
        for r in arch.resources() {
            if state.resource_overuse(r.id) == 0 {
                continue;
            }
            for slot in 0..state.ii() {
                if state.overuse(r.id, slot) > 0 {
                    self.history[r.id.0 as usize] += 1.0;
                }
            }
        }
    }
}

impl CostPolicy for NegotiatedCost {
    fn hop_cost(
        &self,
        state: &RoutingState,
        resource: ResourceId,
        slot: u32,
        value: NodeId,
    ) -> Option<f64> {
        let (fits, usage) = state.admission(resource, slot, value);
        let capacity = state.capacity(resource);
        let present = if fits {
            f64::from(usage) * 0.2
        } else {
            self.present_factor * f64::from(usage + 1 - capacity)
        };
        Some(1.0 + present + self.history[resource.0 as usize])
    }
}

#[derive(Debug, Clone, PartialEq)]
struct QueueEntry {
    cost: f64,
    resource: u32,
    elapsed: u32,
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost. Entries are guaranteed finite at insertion
        // (`finite_or_reject` below), so `total_cmp` agrees with the IEEE
        // partial order here while staying total for safety.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.resource.cmp(&self.resource))
            .then_with(|| other.elapsed.cmp(&self.elapsed))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Rejects non-finite hop costs before they can enter the priority queue: a
/// NaN compares `Equal` to everything under a naive partial comparison and
/// silently corrupts heap order. A non-finite hop is treated like an
/// unusable one, in every build profile.
#[inline]
fn finite_or_reject(cost: f64) -> Option<f64> {
    cost.is_finite().then_some(cost)
}

/// Sentinel for "no parent" in the dense predecessor table (no resource has
/// id `u32::MAX`).
const NO_PARENT: (u32, u32) = (u32::MAX, u32::MAX);

/// Reusable search state of [`find_route_in`]: dense per-`(resource,
/// elapsed)` best-cost and parent tables and the priority queue.
///
/// Tables are epoch-stamped: a cell is live only when its stamp matches the
/// current epoch, so starting a new search is one counter increment and the
/// tables are never re-initialised (they only grow, to the largest
/// `resources × (budget + 1)` seen). One scratch serves any number of
/// sequential searches over any architectures.
#[derive(Debug, Clone, Default)]
pub struct RouterScratch {
    epoch: u32,
    stamp: Vec<u32>,
    best: Vec<f64>,
    parent: Vec<(u32, u32)>,
    heap: BinaryHeap<QueueEntry>,
}

impl RouterScratch {
    /// Creates an empty scratch; tables grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new search over `cells` table entries.
    fn begin(&mut self, cells: usize) {
        if self.stamp.len() < cells {
            self.stamp.resize(cells, 0);
            self.best.resize(cells, f64::INFINITY);
            self.parent.resize(cells, NO_PARENT);
        }
        self.heap.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale stamps could collide with the new epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Best cost recorded for `idx` in the current search.
    #[inline]
    fn best(&self, idx: usize) -> f64 {
        if self.stamp[idx] == self.epoch {
            self.best[idx]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn set(&mut self, idx: usize, cost: f64, parent: (u32, u32)) {
        self.stamp[idx] = self.epoch;
        self.best[idx] = cost;
        self.parent[idx] = parent;
    }

    #[inline]
    fn parent(&self, idx: usize) -> (u32, u32) {
        debug_assert_eq!(self.stamp[idx], self.epoch);
        self.parent[idx]
    }
}

/// Latency standing for "no such path".
const NEVER: u32 = u32::MAX;

/// Exact-time reachability of one destination FU: `alive(r, t)` answers
/// "does a switch-only path of *exactly* `t` cycles exist from switch `r`
/// into the destination?". A Dijkstra cell `(r, elapsed)` with
/// `!alive(r, budget - elapsed)` can never complete a route — and every
/// cell it expands into is equally dead — so the search skips it without
/// probing occupancy. Pruning dead cells is exactly behaviour-preserving:
/// they never trigger the finish check, and their expansions only ever
/// update other dead cells, so the live computation (pop order, costs,
/// tie-breaks, the returned route) is untouched.
///
/// Two latencies per switch answer every `t`: `alive(r, t) = t >=
/// at_least || t == exactly`. `exactly` is the latency of `r`'s direct
/// link into the destination. `at_least` is the shortest latency of a path
/// into the destination after which the value can wait. For a switch that
/// [holds](Architecture::holds) it is its own shortest latency; for any
/// other switch it is the minimum, over its switch successors, of link
/// latency plus the successor's `at_least`. This is exact:
///
/// * A holding switch pads its shortest path with waits at itself.
/// * A non-holding switch only links into holding switches, an invariant
///   of [`Architecture::assert_consistent`].
#[derive(Debug, Clone, Default)]
struct ReachTable {
    /// `(at_least, exactly)` per resource, indexed by resource id.
    lat: Vec<(u32, u32)>,
}

impl ReachTable {
    #[inline]
    fn alive(&self, resource: u32, t: u32) -> bool {
        let (at_least, exactly) = self.lat[resource as usize];
        t >= at_least || t == exactly
    }

    /// Relaxes switch→switch links backwards from the destination's direct
    /// predecessors until no `at_least` shrinks.
    fn build(arch: &Architecture, dst: ResourceId) -> Self {
        let mut lat = vec![(NEVER, NEVER); arch.resources().len()];
        let mut work = Vec::new();
        // Links into an FU leave switches only (FU→FU links are rejected).
        for link in arch.in_links(dst) {
            let entry = &mut lat[link.from.0 as usize];
            entry.1 = link.latency;
            if arch.holds(link.from) {
                entry.0 = link.latency;
                work.push(link.from);
            }
        }
        while let Some(to) = work.pop() {
            let via = lat[to.0 as usize].0;
            for link in arch.in_links(to) {
                if arch.resource(link.from).kind.is_func_unit() {
                    continue;
                }
                let entry = &mut lat[link.from.0 as usize];
                if link.latency + via < entry.0 {
                    entry.0 = link.latency + via;
                    work.push(link.from);
                }
            }
        }
        ReachTable { lat }
    }
}

/// Exact-time reachability of every functional unit of one fabric: for each
/// destination FU, two latencies per switch that tell whether the switch
/// reaches the FU in exactly `t` cycles. Built once per fabric and shared
/// by every search on it.
#[derive(Debug, Clone)]
pub struct Reach {
    /// One table per resource id; switches, which are never destinations,
    /// hold empty tables.
    tables: Vec<ReachTable>,
}

impl Reach {
    /// Computes the reachability of every functional unit of `arch`.
    pub fn of(arch: &Architecture) -> Self {
        let mut tables = vec![ReachTable::default(); arch.resources().len()];
        for fu in arch.functional_units() {
            tables[fu.id.0 as usize] = ReachTable::build(arch, fu.id);
        }
        Reach { tables }
    }

    /// The table of destination `dst`, which must be a functional unit of
    /// the fabric this was built for.
    fn table(&self, arch: &Architecture, dst: ResourceId) -> &ReachTable {
        debug_assert_eq!(self.tables.len(), arch.resources().len(), "another fabric");
        &self.tables[dst.0 as usize]
    }
}

/// Finds the cheapest route satisfying `request` using a caller-owned
/// [`RouterScratch`], or `None` if no route exists under the given cost
/// policy. `reach` must have been built for `arch` ([`Reach::of`]).
///
/// The returned route contains only intermediate switch hops; both functional
/// units are excluded. The route's cost (sum of hop costs) is returned
/// alongside it. Apart from the returned `Route`'s hop vector, the search
/// performs no heap allocation once the scratch has warmed up.
pub fn find_route_in(
    scratch: &mut RouterScratch,
    arch: &Architecture,
    reach: &Reach,
    state: &RoutingState,
    request: &RouteRequest,
    policy: &impl CostPolicy,
) -> Option<(Route, f64)> {
    let budget = request.budget()?;
    let n = arch.resources().len();
    let width = (budget + 1) as usize;
    let index = |r: u32, e: u32| r as usize * width + e as usize;
    // Cells from which the destination is unreachable in exactly the
    // remaining cycles are dead: skip them before probing occupancy. See
    // [`ReachTable`] for why this cannot change the returned route.
    let reach = reach.table(arch, request.dst_fu);
    scratch.begin(n * width);

    // Seed: leave the source FU along each open first hop.
    for (to, elapsed, cost) in first_hops(arch, state, request, policy, reach, budget) {
        let idx = index(to.0, elapsed);
        if cost < scratch.best(idx) {
            scratch.set(idx, cost, NO_PARENT);
            scratch.heap.push(QueueEntry {
                cost,
                resource: to.0,
                elapsed,
            });
        }
    }

    while let Some(entry) = scratch.heap.pop() {
        let idx = index(entry.resource, entry.elapsed);
        if entry.cost > scratch.best(idx) {
            continue;
        }
        let here = ResourceId(entry.resource);
        // Try to finish: a link into the destination FU landing exactly on the
        // arrival cycle.
        if let Some(link) = arch.out_links(here).find(|l| l.to == request.dst_fu) {
            if entry.elapsed + link.latency == budget {
                // Reconstruct the hop chain.
                let mut hops = Vec::new();
                let mut cursor = (entry.resource, entry.elapsed);
                while cursor != NO_PARENT {
                    let (r, e) = cursor;
                    hops.push(RouteHop {
                        resource: ResourceId(r),
                        cycle: request.src_cycle + e,
                    });
                    cursor = scratch.parent(index(r, e));
                }
                hops.reverse();
                return Some((Route { hops }, entry.cost));
            }
        }
        // Expand.
        for link in arch.out_links(here) {
            if arch.resource(link.to).kind.is_func_unit() {
                continue;
            }
            let elapsed = entry.elapsed + link.latency;
            if elapsed > budget || !reach.alive(link.to.0, budget - elapsed) {
                continue;
            }
            let slot = state.slot(request.src_cycle + elapsed);
            let Some(hop_cost) = policy
                .hop_cost(state, link.to, slot, request.value)
                .and_then(finite_or_reject)
            else {
                continue;
            };
            // Zero-latency self-loops cannot exist (links are deduplicated and
            // holds have latency 1), so progress is guaranteed; still, avoid
            // re-visiting the same (resource, elapsed) at higher cost.
            let cost = entry.cost + hop_cost;
            let nidx = index(link.to.0, elapsed);
            if cost < scratch.best(nidx) {
                scratch.set(nidx, cost, (entry.resource, entry.elapsed));
                scratch.heap.push(QueueEntry {
                    cost,
                    resource: link.to.0,
                    elapsed,
                });
            }
        }
    }
    None
}

/// The open first hops of `request`'s route, in link order: each switch
/// leaving the producer's FU that is alive for the budget in `reach` and
/// that `policy` admits, with its elapsed cycles and hop cost. This is the
/// one definition of a first hop: the search seeds from it and
/// [`first_hop_open`] asks whether it is empty. The iterator is lazy, so
/// each hop's occupancy is probed, and recorded in the capacity
/// certificate, only when the iterator reaches it.
fn first_hops<'a>(
    arch: &'a Architecture,
    state: &'a RoutingState,
    request: &'a RouteRequest,
    policy: &'a impl CostPolicy,
    reach: &'a ReachTable,
    budget: u32,
) -> impl Iterator<Item = (ResourceId, u32, f64)> + 'a {
    arch.out_links(request.src_fu).filter_map(move |link| {
        // A route may only end at the destination FU, and entering it is
        // handled at pop time in the search; other FUs are not usable as
        // vias.
        if arch.resource(link.to).kind.is_func_unit() {
            return None;
        }
        let elapsed = link.latency;
        if elapsed > budget || !reach.alive(link.to.0, budget - elapsed) {
            return None;
        }
        let slot = state.slot(request.src_cycle + elapsed);
        let cost = policy
            .hop_cost(state, link.to, slot, request.value)
            .and_then(finite_or_reject)?;
        Some((link.to, elapsed, cost))
    })
}

/// Whether `request` has at least one open first hop (see [`first_hops`]).
/// `false` means [`find_route_in`] would return `None` after probing
/// exactly the first hops probed here. Under [`AnyHop`] this is the
/// structural test, which probes nothing.
///
/// Under [`HardCapacityCost`] a `false` answer also holds for every later
/// state that only adds placements and routes. A switch cell that refuses
/// the value is at capacity without it. Adding FU placements does not touch
/// it, and a route could only bring the value into the cell by being
/// admitted there first. Placement heuristics use this to reject a
/// candidate before searching any of its edges.
pub(crate) fn first_hop_open(
    arch: &Architecture,
    reach: &Reach,
    state: &RoutingState,
    request: &RouteRequest,
    policy: &impl CostPolicy,
) -> bool {
    let Some(budget) = request.budget() else {
        return false;
    };
    let reach = reach.table(arch, request.dst_fu);
    first_hops(arch, state, request, policy, reach, budget)
        .next()
        .is_some()
}

/// Commits a route to the occupancy table.
pub fn commit_route(state: &mut RoutingState, route: &Route, value: NodeId) {
    for hop in &route.hops {
        state.occupy(hop.resource, hop.cycle, value);
    }
}

/// Removes a previously committed route from the occupancy table.
pub fn release_route(state: &mut RoutingState, route: &Route, value: NodeId) {
    for hop in &route.hops {
        state.release(hop.resource, hop.cycle, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_arch::{plaid, spatio_temporal};

    #[test]
    fn routes_between_neighbouring_pes() {
        let arch = spatio_temporal::build(2, 2);
        let state = RoutingState::new(&arch, 2);
        let fu0 = arch.clusters()[0].alus[0];
        let fu1 = arch.clusters()[1].alus[0];
        let request = RouteRequest {
            src_fu: fu0,
            src_cycle: 0,
            dst_fu: fu1,
            arrival_cycle: 1,
            value: NodeId(0),
        };
        let (route, cost) = find_route_in(
            &mut RouterScratch::new(),
            &arch,
            &Reach::of(&arch),
            &state,
            &request,
            &HardCapacityCost,
        )
        .unwrap();
        // fu0 -> router0 (0 cycles) -> router1 (1 cycle) -> fu1 (0 cycles).
        assert_eq!(route.hops.len(), 2);
        assert!(cost > 0.0);
        assert_eq!(route.hops.last().unwrap().cycle, 1);
    }

    #[test]
    fn same_pe_dependency_waits_in_the_register() {
        let arch = spatio_temporal::build(2, 2);
        let state = RoutingState::new(&arch, 4);
        let fu0 = arch.clusters()[0].alus[0];
        let request = RouteRequest {
            src_fu: fu0,
            src_cycle: 0,
            dst_fu: fu0,
            arrival_cycle: 3,
            value: NodeId(0),
        };
        let (route, _) = find_route_in(
            &mut RouterScratch::new(),
            &arch,
            &Reach::of(&arch),
            &state,
            &request,
            &HardCapacityCost,
        )
        .unwrap();
        // The value enters the router at cycle 0 and loops in its hold until it
        // is consumed at cycle 3, occupying the router in cycles 0 through 3.
        assert_eq!(route.hops.len(), 4);
        assert!(route
            .hops
            .iter()
            .all(|h| h.resource == arch.clusters()[0].global_router));
    }

    #[test]
    fn arrival_before_departure_is_rejected() {
        let arch = spatio_temporal::build(2, 2);
        let state = RoutingState::new(&arch, 2);
        let fu0 = arch.clusters()[0].alus[0];
        let request = RouteRequest {
            src_fu: fu0,
            src_cycle: 5,
            dst_fu: fu0,
            arrival_cycle: 5,
            value: NodeId(0),
        };
        assert!(find_route_in(
            &mut RouterScratch::new(),
            &arch,
            &Reach::of(&arch),
            &state,
            &request,
            &HardCapacityCost
        )
        .is_none());
    }

    #[test]
    fn congestion_blocks_hard_capacity_routing() {
        let arch = spatio_temporal::build(2, 2);
        let mut state = RoutingState::new(&arch, 1);
        let fu0 = arch.clusters()[0].alus[0];
        let fu1 = arch.clusters()[1].alus[0];
        let router1 = arch.clusters()[1].global_router;
        // Saturate the destination router in every slot with foreign values.
        for v in 100..(100 + state.capacity(router1)) {
            state.occupy(router1, 0, NodeId(v));
        }
        let request = RouteRequest {
            src_fu: fu0,
            src_cycle: 0,
            dst_fu: fu1,
            arrival_cycle: 1,
            value: NodeId(0),
        };
        assert!(find_route_in(
            &mut RouterScratch::new(),
            &arch,
            &Reach::of(&arch),
            &state,
            &request,
            &HardCapacityCost
        )
        .is_none());
    }

    #[test]
    fn negotiated_cost_allows_overuse() {
        let arch = spatio_temporal::build(2, 2);
        let mut state = RoutingState::new(&arch, 1);
        let fu0 = arch.clusters()[0].alus[0];
        let fu1 = arch.clusters()[1].alus[0];
        let router1 = arch.clusters()[1].global_router;
        for v in 100..(100 + state.capacity(router1)) {
            state.occupy(router1, 0, NodeId(v));
        }
        let request = RouteRequest {
            src_fu: fu0,
            src_cycle: 0,
            dst_fu: fu1,
            arrival_cycle: 1,
            value: NodeId(0),
        };
        let policy = NegotiatedCost::new(arch.resources().len());
        let (route, cost) = find_route_in(
            &mut RouterScratch::new(),
            &arch,
            &Reach::of(&arch),
            &state,
            &request,
            &policy,
        )
        .unwrap();
        assert!(!route.hops.is_empty());
        assert!(cost > 1.0);
    }

    #[test]
    fn plaid_intra_pcu_route_uses_local_resources() {
        let arch = plaid::build(2, 2);
        let state = RoutingState::new(&arch, 2);
        let cluster = &arch.clusters()[0];
        let request = RouteRequest {
            src_fu: cluster.alus[0],
            src_cycle: 0,
            dst_fu: cluster.alus[1],
            arrival_cycle: 1,
            value: NodeId(0),
        };
        let (route, _) = find_route_in(
            &mut RouterScratch::new(),
            &arch,
            &Reach::of(&arch),
            &state,
            &request,
            &HardCapacityCost,
        )
        .unwrap();
        // Either the bypass path or the local router, but never the global
        // mesh, carries an intra-PCU dependency with slack 1.
        assert!(route
            .hops
            .iter()
            .all(|h| arch.resource(h.resource).tile == cluster.tile));
        assert!(route.hops.len() <= 2);
    }

    #[test]
    fn plaid_inter_pcu_route_crosses_the_global_mesh() {
        let arch = plaid::build(2, 2);
        let state = RoutingState::new(&arch, 4);
        let src = &arch.clusters()[0];
        let dst = &arch.clusters()[3];
        let request = RouteRequest {
            src_fu: src.alus[0],
            src_cycle: 0,
            dst_fu: dst.alus[2],
            arrival_cycle: 2,
            value: NodeId(0),
        };
        let (route, _) = find_route_in(
            &mut RouterScratch::new(),
            &arch,
            &Reach::of(&arch),
            &state,
            &request,
            &HardCapacityCost,
        )
        .unwrap();
        let crosses_global = route
            .hops
            .iter()
            .filter(|h| arch.resource(h.resource).name.contains("global"))
            .count();
        assert!(crosses_global >= 2, "expected at least two global hops");
    }

    #[test]
    fn route_commit_and_release_round_trip() {
        let arch = spatio_temporal::build(2, 2);
        let mut state = RoutingState::new(&arch, 2);
        let fu0 = arch.clusters()[0].alus[0];
        let fu1 = arch.clusters()[1].alus[0];
        let request = RouteRequest {
            src_fu: fu0,
            src_cycle: 0,
            dst_fu: fu1,
            arrival_cycle: 1,
            value: NodeId(7),
        };
        let (route, _) = find_route_in(
            &mut RouterScratch::new(),
            &arch,
            &Reach::of(&arch),
            &state,
            &request,
            &HardCapacityCost,
        )
        .unwrap();
        commit_route(&mut state, &route, NodeId(7));
        assert!(state.occupied_slots() > 0);
        release_route(&mut state, &route, NodeId(7));
        assert_eq!(state.occupied_slots(), 0);
    }

    #[test]
    fn reused_scratch_reproduces_fresh_scratch_routes() {
        // The same scratch must give bit-identical answers across many
        // searches of different budgets, architectures and congestion
        // levels — the epoch stamps must fully isolate searches.
        let archs = [spatio_temporal::build(2, 2), plaid::build(2, 2)];
        let mut scratch = RouterScratch::new();
        for arch in &archs {
            let reach = Reach::of(arch);
            let mut state = RoutingState::new(arch, 4);
            let fus: Vec<ResourceId> = arch.functional_units().map(|r| r.id).collect();
            for (i, &src) in fus.iter().enumerate() {
                let dst = fus[(i * 7 + 3) % fus.len()];
                for budget in 1..5u32 {
                    let request = RouteRequest {
                        src_fu: src,
                        src_cycle: i as u32,
                        dst_fu: dst,
                        arrival_cycle: i as u32 + budget,
                        value: NodeId(i as u32),
                    };
                    let fresh = find_route_in(
                        &mut RouterScratch::new(),
                        arch,
                        &reach,
                        &state,
                        &request,
                        &HardCapacityCost,
                    );
                    let reused = find_route_in(
                        &mut scratch,
                        arch,
                        &reach,
                        &state,
                        &request,
                        &HardCapacityCost,
                    );
                    assert_eq!(fresh, reused, "scratch reuse changed a route");
                    if let Some((route, _)) = fresh {
                        // Mutate congestion so later searches see fresh state.
                        commit_route(&mut state, &route, NodeId(i as u32));
                    }
                }
            }
        }
    }

    #[test]
    fn structurally_dead_requests_fail_without_probing_occupancy() {
        // The premise of pruning placement candidates before routing: when
        // `first_hop_open` under `AnyHop` says an edge is dead, the search
        // returns `None` and records nothing in the capacity certificate, so
        // skipping it changes neither the result nor any later decision.
        use crate::state::CapacityCert;
        use std::sync::Arc;
        let ii = 2;
        for arch in [spatio_temporal::build(4, 4), plaid::build(2, 2)] {
            let cert = Arc::new(CapacityCert::new(arch.resources().len()));
            let mut state = RoutingState::with_cert(&arch, ii, Arc::clone(&cert));
            // Congest every third switch to capacity in slot 0.
            for r in arch.resources().iter().filter(|r| !r.kind.is_func_unit()) {
                if r.id.0 % 3 == 0 {
                    for v in 0..state.capacity(r.id) {
                        state.occupy(r.id, 0, NodeId(1_000 + v));
                    }
                }
            }
            let fus: Vec<ResourceId> = arch.functional_units().map(|r| r.id).collect();
            let reach = Reach::of(&arch);
            let mut scratch = RouterScratch::new();
            let (mut dead, mut dead_nonzero, mut live) = (0, 0, 0);
            for &src in &fus {
                for &dst in &fus {
                    for budget in 0..=3 * ii {
                        let request = RouteRequest {
                            src_fu: src,
                            src_cycle: 1,
                            dst_fu: dst,
                            arrival_cycle: 1 + budget,
                            value: NodeId(src.0),
                        };
                        let (need, ceil) = (cert.need(), cert.ceil());
                        let open = first_hop_open(&arch, &reach, &state, &request, &AnyHop);
                        assert_eq!(cert.need(), need, "{}: AnyHop probed", arch.name());
                        assert_eq!(cert.ceil(), ceil, "{}: AnyHop probed", arch.name());
                        if open {
                            live += 1;
                            continue;
                        }
                        dead += 1;
                        if budget > 0 {
                            dead_nonzero += 1;
                        }
                        assert_eq!(
                            find_route_in(
                                &mut scratch,
                                &arch,
                                &reach,
                                &state,
                                &request,
                                &HardCapacityCost
                            ),
                            None,
                            "{}: dead request {request:?} routed",
                            arch.name()
                        );
                        assert_eq!(cert.need(), need, "{}: dead search probed", arch.name());
                        assert_eq!(cert.ceil(), ceil, "{}: dead search probed", arch.name());
                    }
                }
            }
            assert!(dead_nonzero > 0 && dead > dead_nonzero, "{}", arch.name());
            assert!(live > 0, "{}", arch.name());
        }
    }

    #[test]
    fn closed_first_hop_means_no_route() {
        // The premise of the placement pre-check: when `first_hop_open`
        // finds no open first hop, the search returns `None`, and it
        // probes exactly the hops the check probed, so the certificate
        // does not change.
        use crate::state::CapacityCert;
        use std::sync::Arc;
        let ii = 2;
        let present = NodeId(1_000);
        for arch in [spatio_temporal::build(4, 4), plaid::build(2, 2)] {
            let cert = Arc::new(CapacityCert::new(arch.resources().len()));
            let mut state = RoutingState::with_cert(&arch, ii, Arc::clone(&cert));
            // Fill every third switch to capacity in slot 0 with foreign
            // values, `present` among them.
            for r in arch.resources().iter().filter(|r| !r.kind.is_func_unit()) {
                if r.id.0 % 3 == 0 {
                    for v in 0..state.capacity(r.id) {
                        state.occupy(r.id, 0, NodeId(present.0 + v));
                    }
                }
            }
            let fus: Vec<ResourceId> = arch.functional_units().map(|r| r.id).collect();
            let reach = Reach::of(&arch);
            let mut scratch = RouterScratch::new();
            let (mut open, mut closed_by_occupancy) = (0, 0);
            for &src in &fus {
                for &dst in &fus {
                    for budget in 0..=3 * ii {
                        for src_cycle in 0..ii {
                            // `present` fits wherever it already sits; a
                            // fresh value does not.
                            for value in [present, NodeId(src.0)] {
                                let request = RouteRequest {
                                    src_fu: src,
                                    src_cycle,
                                    dst_fu: dst,
                                    arrival_cycle: src_cycle + budget,
                                    value,
                                };
                                if first_hop_open(
                                    &arch,
                                    &reach,
                                    &state,
                                    &request,
                                    &HardCapacityCost,
                                ) {
                                    open += 1;
                                    continue;
                                }
                                if first_hop_open(&arch, &reach, &state, &request, &AnyHop) {
                                    closed_by_occupancy += 1;
                                }
                                let (need, ceil) = (cert.need(), cert.ceil());
                                assert_eq!(
                                    find_route_in(
                                        &mut scratch,
                                        &arch,
                                        &reach,
                                        &state,
                                        &request,
                                        &HardCapacityCost
                                    ),
                                    None,
                                    "{}: closed request {request:?} routed",
                                    arch.name()
                                );
                                assert_eq!(cert.need(), need, "{}", arch.name());
                                assert_eq!(cert.ceil(), ceil, "{}", arch.name());
                            }
                        }
                    }
                }
            }
            assert!(open > 0 && closed_by_occupancy > 0, "{}", arch.name());
        }
    }

    #[test]
    fn nan_hop_costs_are_rejected_not_propagated() {
        /// A policy that reports NaN for every switch in slot 0 and a valid
        /// cost elsewhere: routes through slot 0 must be avoided entirely
        /// rather than corrupting the heap order.
        struct NanInSlotZero;
        impl CostPolicy for NanInSlotZero {
            fn hop_cost(
                &self,
                _state: &RoutingState,
                _resource: ResourceId,
                slot: u32,
                _value: NodeId,
            ) -> Option<f64> {
                Some(if slot == 0 { f64::NAN } else { 1.0 })
            }
        }
        let arch = spatio_temporal::build(2, 2);
        let state = RoutingState::new(&arch, 4);
        let fu0 = arch.clusters()[0].alus[0];
        let fu1 = arch.clusters()[1].alus[0];
        // Budget 1 from cycle 3: the hop on the arrival cycle lands on slot
        // 0 (cycle 4 mod 4) and must be rejected -> no route.
        let request = RouteRequest {
            src_fu: fu0,
            src_cycle: 3,
            dst_fu: fu1,
            arrival_cycle: 4,
            value: NodeId(0),
        };
        let mut scratch = RouterScratch::new();
        let reach = Reach::of(&arch);
        // Control: with finite costs the same window routes, so only the
        // NaN can make the assertion below hold.
        assert!(
            find_route_in(
                &mut scratch,
                &arch,
                &reach,
                &state,
                &request,
                &HardCapacityCost
            )
            .is_some(),
            "the 3 -> 4 window routes under finite costs"
        );
        assert_eq!(
            find_route_in(
                &mut scratch,
                &arch,
                &reach,
                &state,
                &request,
                &NanInSlotZero
            ),
            None,
            "NaN hops are filtered"
        );
        // A window that avoids slot 0 still routes: the route's first hop
        // sits on the source cycle and its last on the arrival cycle, so
        // cycles 1..=3 keep every hop clear of slot 0.
        let request = RouteRequest {
            src_fu: fu0,
            src_cycle: 1,
            dst_fu: fu1,
            arrival_cycle: 3,
            value: NodeId(0),
        };
        let (route, _) = find_route_in(
            &mut scratch,
            &arch,
            &reach,
            &state,
            &request,
            &NanInSlotZero,
        )
        .expect("clean-slot route exists");
        assert!(route.hops.iter().all(|h| h.cycle % 4 != 0));
    }

    /// The layered exact-time table the two latencies replaced:
    /// `live[r * width + t]` says whether a switch-only path of exactly `t`
    /// cycles leads from switch `r` into `dst`, built one `t` at a time.
    fn layered_reference(arch: &Architecture, dst: ResourceId, width: usize) -> Vec<bool> {
        let n = arch.resources().len();
        let mut live = vec![false; n * width];
        for t in 0..width as u32 {
            // Zero-latency switch-to-switch links propagate within a layer,
            // so iterate each layer to a fixpoint.
            loop {
                let mut changed = false;
                for r in 0..n as u32 {
                    let idx = r as usize * width + t as usize;
                    if live[idx] || arch.resource(ResourceId(r)).kind.is_func_unit() {
                        continue;
                    }
                    let reaches = arch.out_links(ResourceId(r)).any(|link| {
                        if link.latency > t {
                            return false;
                        }
                        if link.to == dst {
                            // Arriving early at the destination FU is not a
                            // finish, and FUs are not vias.
                            return link.latency == t;
                        }
                        !arch.resource(link.to).kind.is_func_unit()
                            && live[link.to.0 as usize * width + (t - link.latency) as usize]
                    });
                    if reaches {
                        live[idx] = true;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        live
    }

    /// The named fabrics, every class over the full grid's dimensions (plus
    /// 1x1 and 1x3) under the presets, and the topology × bandwidth grid on
    /// the small dimensions.
    fn fabric_zoo() -> Vec<Architecture> {
        use plaid_arch::{spatial, specialize};
        use plaid_arch::{ArchClass, BwClass, CommSpec, DesignPoint, Topology};
        let mut archs = vec![
            plaid::build(2, 2),
            plaid::build(3, 3),
            spatio_temporal::build(4, 4),
            spatio_temporal::build(6, 6),
            spatio_temporal::build(8, 8),
            spatial::build(4, 4),
            specialize::spatio_temporal_ml(4, 4),
            specialize::plaid_ml_2x2(),
        ];
        let classes = [
            ArchClass::SpatioTemporal,
            ArchClass::Spatial,
            ArchClass::Plaid,
        ];
        let full_dims = [
            (1, 1),
            (1, 3),
            (2, 2),
            (2, 4),
            (3, 3),
            (4, 4),
            (3, 5),
            (4, 6),
            (6, 6),
        ];
        let topologies = [
            Topology::Mesh,
            Topology::Torus,
            Topology::Express { stride: 2 },
            Topology::Express { stride: 3 },
        ];
        let grid = topologies
            .iter()
            .flat_map(|&t| BwClass::ALL.map(|bw| CommSpec::uniform(t, bw)));
        let specs = full_dims
            .iter()
            .flat_map(|&dims| CommSpec::presets().into_iter().map(move |c| (dims, c)))
            .chain(grid.flat_map(|c| full_dims[..6].iter().map(move |&dims| (dims, c))));
        for ((rows, cols), comm) in specs {
            for class in classes {
                let point = DesignPoint {
                    class,
                    rows,
                    cols,
                    config_entries: 16,
                    comm,
                };
                if point.is_valid() {
                    archs.push(point.build());
                }
            }
        }
        archs
    }

    #[test]
    fn two_latencies_match_the_layered_reachability_table() {
        const HORIZON: usize = 40;
        let width = HORIZON + 1;
        let mut cells = 0usize;
        for arch in fabric_zoo() {
            let reach = Reach::of(&arch);
            for dst in arch.functional_units().map(|r| r.id) {
                let reference = layered_reference(&arch, dst, width);
                let table = reach.table(&arch, dst);
                for (idx, &live) in reference.iter().enumerate() {
                    let (r, t) = ((idx / width) as u32, (idx % width) as u32);
                    assert_eq!(
                        table.alive(r, t),
                        live,
                        "{}: {} into {dst} in {t} cycles",
                        arch.name(),
                        arch.resource(ResourceId(r)).name
                    );
                }
                cells += reference.len();
            }
        }
        assert!(cells > 1_000_000, "{cells} cells compared");
    }
}
