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
//! [`RouterScratch`] owns one table of search cells (epoch-stamped, so
//! clearing between searches is a counter bump, not a memset), the modulo
//! slot of every elapsed cycle and the priority queue. A cell holds its best
//! cost, its parent and the cost policy's answer for it, so the search
//! probes each cell's occupancy once however many predecessors reach it.
//! The queue holds plain integers: an order-preserving image of the cost
//! followed by `resource << 32 | elapsed`, which pops in cost order and
//! breaks ties by resource, then elapsed.
//!
//! The search prunes cells that cannot reach the consumer in exactly the
//! remaining cycles, reading a [`Reach`]: two latencies per switch and
//! destination FU, computed once per fabric. The mappers route
//! thousands of edges per second through [`find_route_in`], with the scratch
//! owned by their `MapState` and the `Reach` owned by the
//! [`PreparedFabric`](crate::PreparedFabric): built by the first ladder on a
//! fabric, or on a sibling of the same topology, and shared by every
//! attempt of every ladder on them.

use std::cmp::Reverse;
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
///
/// The answer must depend only on the arguments: [`find_route_in`] asks once
/// per search cell and reuses the answer for every predecessor of the cell.
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

/// Rejects non-finite hop costs before they can enter the priority queue: a
/// NaN has no place in the cost order and would corrupt every comparison
/// with it. A non-finite hop is treated like an unusable one, in every build
/// profile.
#[inline]
fn finite_or_reject(cost: f64) -> Option<f64> {
    cost.is_finite().then_some(cost)
}

/// The order-preserving `u64` image of a cost: `cost_key(a).cmp(&cost_key(b))`
/// equals `a.total_cmp(&b)`. Flipping the sign bit of a non-negative float
/// and every bit of a negative one turns the IEEE layout into an unsigned
/// integer order.
#[inline]
fn cost_key(cost: f64) -> u64 {
    let bits = cost.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The cost whose [`cost_key`] is `key`.
#[inline]
fn key_cost(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// A queue entry of the search: cell `(resource, elapsed)` reached at
/// `cost`, as one integer. The cost's key fills the high 64 bits and
/// `resource << 32 | elapsed` the low ones, so integer order is cost first
/// (in [`f64::total_cmp`] order), then resource, then elapsed.
#[inline]
fn queue_key(cost: f64, resource: u32, elapsed: u32) -> u128 {
    u128::from(cost_key(cost)) << 64 | u128::from(resource) << 32 | u128::from(elapsed)
}

/// The `(cost, resource, elapsed)` of a [`queue_key`].
#[inline]
fn queue_entry(key: u128) -> (f64, u32, u32) {
    (key_cost((key >> 64) as u64), (key >> 32) as u32, key as u32)
}

/// Sentinel for "no parent" in the cell table, which [`RouterScratch::begin`]
/// keeps below `u32::MAX` cells.
const NO_PARENT: u32 = u32::MAX;

/// The hop cost the cell table caches for a cell its policy refuses. Every
/// admitted hop cost is finite ([`finite_or_reject`]).
const REFUSED: f64 = f64::INFINITY;

/// One `(resource, elapsed)` cell of the search. The other fields hold for
/// the current search only when `stamp` is its epoch.
#[derive(Debug, Clone, Copy)]
struct SearchCell {
    /// Epoch of the last search that probed the cell.
    stamp: u32,
    /// Table index of the cell the best cost came from, or `NO_PARENT` for
    /// a first hop.
    parent: u32,
    /// The policy's hop cost of the cell, or `REFUSED`.
    hop: f64,
    /// Lowest cost the search has reached the cell at (infinite when it has
    /// only probed it).
    best: f64,
}

impl SearchCell {
    /// A cell first reached in search `epoch`, whose hop the policy
    /// answered with `hop`.
    #[inline]
    fn probed(epoch: u32, hop: Option<f64>) -> Self {
        SearchCell {
            stamp: epoch,
            parent: NO_PARENT,
            hop: hop.unwrap_or(REFUSED),
            best: f64::INFINITY,
        }
    }
}

/// Reusable search state of [`find_route_in`]: one table of search cells,
/// indexed `resource * (budget + 1) + elapsed`, the modulo slot of every
/// elapsed cycle, and the priority queue.
///
/// Each cell holds its best cost, its parent and the policy's hop cost for
/// it. It is stamped with the epoch of the search that first reached it,
/// and its fields count only when the stamp is the current epoch, so
/// starting a new search is one counter increment and the table
/// is never re-initialised (it only grows, to the largest
/// `resources × (budget + 1)` seen). When the epoch wraps, every stamp is
/// reset, which forgets the cached hop costs along with the best costs. One
/// scratch serves any number of sequential searches over any architectures.
#[derive(Debug, Clone, Default)]
pub struct RouterScratch {
    epoch: u32,
    cells: Vec<SearchCell>,
    /// `slots[elapsed]` is the modulo slot of `src_cycle + elapsed`.
    slots: Vec<u32>,
    /// Min-queue of [`queue_key`]s.
    heap: BinaryHeap<Reverse<u128>>,
    /// Searches run through this scratch (`WorkCounts::route_searches`).
    pub(crate) searches: u64,
    /// Cells those searches popped (`WorkCounts::route_pops`).
    pub(crate) pops: u64,
}

impl RouterScratch {
    /// Creates an empty scratch; tables grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// This scratch with its epoch set to `epoch`, so that tests can cross
    /// the wrap without running four billion searches.
    #[cfg(test)]
    pub(crate) fn starting_at(mut self, epoch: u32) -> Self {
        self.epoch = epoch;
        self
    }

    /// Starts a new search over `cells` table entries whose route leaves at
    /// `src_cycle` and takes `budget` cycles.
    fn begin(&mut self, cells: usize, state: &RoutingState, src_cycle: u32, budget: u32) {
        assert!(cells < NO_PARENT as usize, "{cells} search cells");
        if self.cells.len() < cells {
            self.cells.resize(cells, SearchCell::probed(0, None));
        }
        self.heap.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale stamps could collide with the new epoch.
            for cell in &mut self.cells {
                cell.stamp = 0;
            }
            self.epoch = 1;
        }
        self.slots.clear();
        let mut slot = state.slot(src_cycle);
        for _ in 0..=budget {
            self.slots.push(slot);
            slot += 1;
            if slot == state.ii() {
                slot = 0;
            }
        }
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

    /// Latency of `resource`'s direct link into the destination, or
    /// `NEVER` when it has none.
    #[inline]
    fn exactly(&self, resource: u32) -> u32 {
        self.lat[resource as usize].1
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

/// The structural first-hop test of one (source FU, destination FU) pair,
/// for every budget: a route of `budget` cycles can leave the source for
/// the destination when `budget >= always`, or when bit `budget` of `exact`
/// is set.
///
/// Each first hop is a switch `s` entered `latency` cycles after the
/// producer. From there `s` reaches the destination in `at_least(s)` cycles
/// or any number more, and in `exactly(s)` cycles ([`ReachTable`]). So the
/// hop opens every budget from `latency + at_least(s)` on, plus the one
/// budget `latency + exactly(s)`. `always` is the smallest of the former
/// over the source's first hops; `exact` holds the latter below it. Budget
/// 0 never routes, and callers reject it first ([`RouteRequest::budget`]).
#[derive(Debug, Clone, Copy)]
struct FirstHops {
    always: u32,
    exact: u64,
}

impl FirstHops {
    #[inline]
    fn open(self, budget: u32) -> bool {
        budget >= self.always || (budget < u64::BITS && self.exact >> budget & 1 == 1)
    }

    /// The smallest positive budget that [`Self::open`] admits, or `NEVER`.
    #[inline]
    fn min_open(self) -> u32 {
        let positive = self.exact & !1;
        let lowest_exact = if positive == 0 {
            NEVER
        } else {
            positive.trailing_zeros()
        };
        self.always.max(1).min(lowest_exact)
    }
}

/// Exact-time reachability of every functional unit of one fabric: for each
/// destination FU, two latencies per switch that tell whether the switch
/// reaches the FU in exactly `t` cycles. Built once per fabric and shared
/// by every search on it.
///
/// It also keeps what every search would otherwise re-derive from the
/// fabric's links: each resource's switch successors in link order, and
/// the structural first-hop test of every FU pair (`FirstHops`).
#[derive(Debug, Clone)]
pub struct Reach {
    /// One table per resource id; switches, which are never destinations,
    /// hold empty tables.
    tables: Vec<ReachTable>,
    /// `successors[starts[r]..starts[r + 1]]` are the `(switch, latency)`
    /// out-links of resource `r`, in link order. A route's vias are
    /// switches, so links into FUs are left out.
    starts: Vec<u32>,
    successors: Vec<(u32, u32)>,
    /// Position of each FU among the fabric's FUs, by resource id (`NEVER`
    /// for switches).
    fu_index: Vec<u32>,
    /// Number of functional units.
    fus: usize,
    /// The first-hop test of every FU pair, indexed `src * fus + dst` by
    /// `fu_index`.
    pairs: Vec<FirstHops>,
}

impl Reach {
    /// Computes the reachability of every functional unit of `arch`.
    ///
    /// # Panics
    ///
    /// Panics if a first hop reaches some destination in an exact number
    /// of cycles, below every budget it always reaches, that does not fit a
    /// 64-bit mask. The fabrics' link latencies are 0 or 1, so exact budgets
    /// stay below 3.
    pub fn of(arch: &Architecture) -> Self {
        let n = arch.resources().len();
        let mut tables = vec![ReachTable::default(); n];
        let mut starts = Vec::with_capacity(n + 1);
        let mut successors = Vec::new();
        let mut fu_index = vec![NEVER; n];
        let mut fus = Vec::new();
        for r in arch.resources() {
            starts.push(successors.len() as u32);
            successors.extend(
                arch.out_links(r.id)
                    .filter(|l| !arch.resource(l.to).kind.is_func_unit())
                    .map(|l| (l.to.0, l.latency)),
            );
            if r.kind.is_func_unit() {
                fu_index[r.id.0 as usize] = fus.len() as u32;
                fus.push(r.id);
                tables[r.id.0 as usize] = ReachTable::build(arch, r.id);
            }
        }
        starts.push(successors.len() as u32);
        let mut reach = Reach {
            tables,
            starts,
            successors,
            fu_index,
            fus: fus.len(),
            pairs: Vec::with_capacity(fus.len() * fus.len()),
        };
        for &src in &fus {
            for &dst in &fus {
                let pair = reach.first_hops_of(src, dst);
                reach.pairs.push(pair);
            }
        }
        reach
    }

    /// Derives the [`FirstHops`] of `src` into `dst` from `dst`'s table.
    fn first_hops_of(&self, src: ResourceId, dst: ResourceId) -> FirstHops {
        let table = &self.tables[dst.0 as usize];
        let hops = self.successors(src.0);
        let always = hops
            .iter()
            .map(|&(to, latency)| latency.saturating_add(table.lat[to as usize].0))
            .min()
            .unwrap_or(NEVER);
        let mut exact = 0u64;
        for &(to, latency) in hops {
            let exactly = table.exactly(to);
            let budget = latency.saturating_add(exactly);
            if exactly == NEVER || budget >= always {
                continue;
            }
            assert!(
                budget < u64::BITS,
                "a first hop reaches {dst} in exactly {budget} cycles"
            );
            exact |= 1 << budget;
        }
        FirstHops { always, exact }
    }

    /// The table of destination `dst`, which must be a functional unit of
    /// the fabric this was built for.
    fn table(&self, arch: &Architecture, dst: ResourceId) -> &ReachTable {
        debug_assert_eq!(self.tables.len(), arch.resources().len(), "another fabric");
        &self.tables[dst.0 as usize]
    }

    /// The `(switch, latency)` out-links of `resource`, in link order.
    #[inline]
    fn successors(&self, resource: u32) -> &[(u32, u32)] {
        let r = resource as usize;
        &self.successors[self.starts[r] as usize..self.starts[r + 1] as usize]
    }

    /// The structural test of `request`: whether its budget is positive and
    /// a switch path of exactly that many cycles leaves the producer's FU
    /// for the consumer's. `false` means every search of the request returns
    /// `None` before its first occupancy probe. It reads one table entry and
    /// probes nothing, so the placement layer runs it before the occupancy
    /// test and a structurally dead candidate records nothing in the
    /// capacity certificate.
    pub(crate) fn structurally_open(&self, request: &RouteRequest) -> bool {
        let Some(budget) = request.budget() else {
            return false;
        };
        self.pair(request.src_fu, request.dst_fu).open(budget)
    }

    /// The smallest positive budget of a route from `src_fu` to `dst_fu`
    /// that passes [`Self::structurally_open`], or `None` when none does.
    /// Every budget below it fails the test. When the pair opens no budget
    /// through an exact hop alone (on every shipped fabric; the test
    /// `first_hop_table_matches_the_link_scan` checks this), every budget
    /// from it on passes, so the admissible budgets are exactly a
    /// half-line; otherwise the half-line is a superset of them.
    pub(crate) fn min_open_budget(&self, src_fu: ResourceId, dst_fu: ResourceId) -> Option<u32> {
        Some(self.pair(src_fu, dst_fu).min_open()).filter(|&b| b != NEVER)
    }

    /// The first-hop test of the FU pair `(src_fu, dst_fu)`.
    #[inline]
    fn pair(&self, src_fu: ResourceId, dst_fu: ResourceId) -> FirstHops {
        let src = self.fu_index[src_fu.0 as usize] as usize;
        let dst = self.fu_index[dst_fu.0 as usize] as usize;
        self.pairs[src * self.fus + dst]
    }
}

/// Finds the cheapest route satisfying `request` using a caller-owned
/// [`RouterScratch`], or `None` if no route exists under the given cost
/// policy. `reach` must have been built for `arch` ([`Reach::of`]).
///
/// The returned route contains only intermediate switch hops; both functional
/// units are excluded. The route's cost (sum of hop costs) is returned
/// alongside it. Apart from the returned `Route`'s hop vector, which is
/// allocated at the route's length, the search performs no heap allocation
/// once the scratch has warmed up.
///
/// The search is Dijkstra over `(resource, elapsed)` cells. Its queue pops
/// the cheapest cell first and breaks ties by the lower resource id, then
/// the fewer elapsed cycles, so equal-cost routes resolve the same way on
/// every run. It asks `policy` for a cell's hop cost once, when the search
/// first reaches the cell, and reuses the answer for every later
/// predecessor. That changes nothing: the occupancy cannot change during a
/// search, a cell's hop cost does not depend on the predecessor, and a
/// repeated probe would only repeat its record in the
/// [`CapacityCert`](crate::state::CapacityCert), which keeps a maximum and a
/// minimum per resource.
pub fn find_route_in(
    scratch: &mut RouterScratch,
    arch: &Architecture,
    reach: &Reach,
    state: &RoutingState,
    request: &RouteRequest,
    policy: &impl CostPolicy,
) -> Option<(Route, f64)> {
    scratch.searches += 1;
    let budget = request.budget()?;
    let n = arch.resources().len();
    let width = (budget + 1) as usize;
    let index = |r: u32, e: u32| r as usize * width + e as usize;
    // Cells from which the destination is unreachable in exactly the
    // remaining cycles are dead: skip them before probing occupancy. See
    // [`ReachTable`] for why this cannot change the returned route.
    let table = reach.table(arch, request.dst_fu);
    scratch.begin(n * width, state, request.src_cycle, budget);
    let RouterScratch {
        epoch,
        cells,
        slots,
        heap,
        pops,
        ..
    } = scratch;
    let epoch = *epoch;

    // Seed: leave the source FU along each open first hop.
    for (to, elapsed, hop) in first_hops(reach, state, request, policy, table, budget) {
        let cell = &mut cells[index(to, elapsed)];
        if cell.stamp != epoch {
            *cell = SearchCell::probed(epoch, hop);
        }
        if let Some(cost) = hop.filter(|&cost| cost < cell.best) {
            cell.best = cost;
            cell.parent = NO_PARENT;
            heap.push(Reverse(queue_key(cost, to, elapsed)));
        }
    }

    while let Some(Reverse(key)) = heap.pop() {
        *pops += 1;
        let (cost, resource, elapsed) = queue_entry(key);
        let idx = index(resource, elapsed);
        if cost > cells[idx].best {
            continue;
        }
        // Try to finish: the link into the destination FU, whose latency
        // the table stores, lands exactly on the arrival cycle. Queued
        // cells never overrun the budget.
        if table.exactly(resource) == budget - elapsed {
            return Some((rebuild(cells, idx, width, request.src_cycle), cost));
        }
        // Expand.
        for &(to, latency) in reach.successors(resource) {
            let next = elapsed + latency;
            if next > budget || !table.alive(to, budget - next) {
                continue;
            }
            let cell = &mut cells[index(to, next)];
            if cell.stamp != epoch {
                let hop = policy
                    .hop_cost(state, ResourceId(to), slots[next as usize], request.value)
                    .and_then(finite_or_reject);
                *cell = SearchCell::probed(epoch, hop);
            }
            if cell.hop == REFUSED {
                continue;
            }
            // Zero-latency self-loops cannot exist (links are deduplicated and
            // holds have latency 1), so progress is guaranteed; still, avoid
            // re-visiting the same (resource, elapsed) at higher cost.
            let next_cost = cost + cell.hop;
            if next_cost < cell.best {
                cell.best = next_cost;
                cell.parent = idx as u32;
                heap.push(Reverse(queue_key(next_cost, to, next)));
            }
        }
    }
    None
}

/// The route ending at cell `last`, rebuilt from the parent chain into a
/// vector of exactly its length, first hop first.
fn rebuild(cells: &[SearchCell], last: usize, width: usize, src_cycle: u32) -> Route {
    let chain = |from: usize| {
        std::iter::successors(Some(from), |&idx| {
            Some(cells[idx].parent)
                .filter(|&p| p != NO_PARENT)
                .map(|p| p as usize)
        })
    };
    let mut hops = vec![
        RouteHop {
            resource: ResourceId(0),
            cycle: 0,
        };
        chain(last).count()
    ];
    for (hop, idx) in hops.iter_mut().rev().zip(chain(last)) {
        *hop = RouteHop {
            resource: ResourceId((idx / width) as u32),
            cycle: src_cycle + (idx % width) as u32,
        };
    }
    Route { hops }
}

/// The first hops of `request`'s route, in link order: each switch leaving
/// the producer's FU that is alive for the budget in `table`, with its
/// elapsed cycles and its hop cost under `policy` (`None` where the policy
/// refuses it). This is the one definition of a first hop: the search seeds
/// from it and [`first_hop_open`] asks whether any of them is admitted. The
/// iterator is lazy, so each hop's occupancy is probed, and recorded in the
/// capacity certificate, only when the iterator reaches it.
fn first_hops<'a>(
    reach: &'a Reach,
    state: &'a RoutingState,
    request: &'a RouteRequest,
    policy: &'a impl CostPolicy,
    table: &'a ReachTable,
    budget: u32,
) -> impl Iterator<Item = (u32, u32, Option<f64>)> + 'a {
    // A route may only end at the destination FU, and entering it is
    // handled at pop time in the search; the successor lists hold no FUs.
    reach
        .successors(request.src_fu.0)
        .iter()
        .filter(move |&&(to, elapsed)| elapsed <= budget && table.alive(to, budget - elapsed))
        .map(move |&(to, elapsed)| {
            let slot = state.slot(request.src_cycle + elapsed);
            let cost = policy
                .hop_cost(state, ResourceId(to), slot, request.value)
                .and_then(finite_or_reject);
            (to, elapsed, cost)
        })
}

/// Whether `request` has at least one open first hop under `policy` (see
/// [`first_hops`]). `false` means [`find_route_in`] would return `None`
/// after probing exactly the first hops probed here.
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
    let table = reach.table(arch, request.dst_fu);
    first_hops(reach, state, request, policy, table, budget).any(|(_, _, cost)| cost.is_some())
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
pub(crate) mod tests {
    use super::*;
    use plaid_arch::plaid::SpecializationPlan;
    use plaid_arch::{plaid, spatio_temporal, ArchParams, Provision};

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
        // `Reach::structurally_open` says an edge is dead, the search
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
                        let open = reach.structurally_open(&request);
                        assert_eq!(cert.need(), need, "{}: the table probed", arch.name());
                        assert_eq!(cert.ceil(), ceil, "{}: the table probed", arch.name());
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
                                if reach.structurally_open(&request) {
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

    /// The structural test as a scan of the producer's links, which
    /// [`Reach::structurally_open`]'s per-pair table replaced: some switch
    /// leaving the source FU, entered within the budget, is alive for the
    /// rest of it.
    fn scanned_open(arch: &Architecture, reach: &Reach, request: &RouteRequest) -> bool {
        let Some(budget) = request.budget() else {
            return false;
        };
        let table = reach.table(arch, request.dst_fu);
        arch.out_links(request.src_fu).any(|link| {
            !arch.resource(link.to).kind.is_func_unit()
                && link.latency <= budget
                && table.alive(link.to.0, budget - link.latency)
        })
    }

    /// The Plaid 2×2 fabric with every switch cut to capacity 1.
    pub(crate) fn lean_plaid_2x2() -> Architecture {
        let provision = Provision {
            capacity: &|_| 1,
            ..Provision::published("plaid-2x2-lean", ArchParams::plaid(2, 2))
        };
        plaid::build_with(&SpecializationPlan::default(), &provision)
    }

    /// Two FUs joined by a non-holding bypass (one cycle) and by a mesh
    /// path through two holding routers (two cycles or more), so the bypass
    /// opens a budget below the always-open one. The shipped fabrics' first
    /// hops never do: their always-open budget already covers every exact
    /// one.
    pub(crate) fn bypass_pair() -> Architecture {
        use plaid_arch::architecture::ArchBuilder;
        use plaid_arch::{ArchClass, ArchParams, FuCaps, Position};
        let mut b = ArchBuilder::new(
            "bypass-pair",
            ArchClass::SpatioTemporal,
            ArchParams::baseline(1, 2),
        );
        let t0 = b.add_tile(Position { x: 0, y: 0 });
        let t1 = b.add_tile(Position { x: 1, y: 0 });
        let fu0 = b.add_func_unit(t0, "fu0", FuCaps::ALSU);
        let fu1 = b.add_func_unit(t1, "fu1", FuCaps::ALSU);
        let bypass = b.add_switch(t0, "bypass", 1);
        let r0 = b.add_switch(t0, "r0", 2);
        let r1 = b.add_switch(t1, "r1", 2);
        b.link(fu0, bypass, 0);
        b.link(bypass, fu1, 1);
        b.link(fu0, r0, 0);
        b.bidirectional(r0, r1, 1);
        b.link(r0, r0, 1);
        b.link(r1, r1, 1);
        b.link(r1, fu1, 1);
        b.link(fu1, r1, 0);
        b.link(r0, fu0, 0);
        b.build()
    }

    #[test]
    fn first_hop_table_matches_the_link_scan() {
        use plaid_arch::{specialize, BwClass, SpaceSpec, Topology};
        let grid = SpaceSpec::default_grid();
        let topologies = grid.clone().with_comm_grid(
            &[
                Topology::Torus,
                Topology::Express { stride: 2 },
                Topology::Express { stride: 3 },
            ],
            &[BwClass::Base],
        );
        let archs = grid
            .enumerate()
            .into_iter()
            .chain(topologies.enumerate())
            .map(|point| point.build())
            .chain([specialize::plaid_ml_2x2(), bypass_pair()]);
        let (mut checked, mut open, mut exact_only) = (0usize, 0usize, 0usize);
        for arch in archs {
            let reach = Reach::of(&arch);
            let fus: Vec<ResourceId> = arch.functional_units().map(|r| r.id).collect();
            let horizon = 2 * arch.params().max_ii() + 4;
            for &src in &fus {
                for &dst in &fus {
                    let pair = reach.pairs[reach.fu_index[src.0 as usize] as usize * reach.fus
                        + reach.fu_index[dst.0 as usize] as usize];
                    // Every exact budget a first hop offers below the
                    // always-open one has its bit.
                    let table = reach.table(&arch, dst);
                    for &(to, latency) in reach.successors(src.0) {
                        let budget = latency.saturating_add(table.exactly(to));
                        if budget < pair.always {
                            assert!(budget < u64::BITS, "{}: {budget}", arch.name());
                            assert_eq!(pair.exact >> budget & 1, 1, "{}", arch.name());
                        }
                    }
                    // Only the hand-built pair opens a budget through an
                    // exact hop alone.
                    assert!(pair.exact == 0 || arch.name() == "bypass-pair");
                    let min = reach.min_open_budget(src, dst);
                    for budget in 0..=horizon {
                        let request = RouteRequest {
                            src_fu: src,
                            src_cycle: 3,
                            dst_fu: dst,
                            arrival_cycle: 3 + budget,
                            value: NodeId(0),
                        };
                        let scanned = scanned_open(&arch, &reach, &request);
                        assert_eq!(
                            reach.structurally_open(&request),
                            scanned,
                            "{}: {src} -> {dst} in {budget} cycles",
                            arch.name()
                        );
                        // No budget below the pair's minimum opens; without
                        // exact-only budgets, every budget from it on does.
                        let above = min.is_some_and(|m| budget >= m);
                        assert!(above || !scanned, "{}: {budget}", arch.name());
                        if pair.exact == 0 {
                            assert_eq!(above, scanned, "{}: {budget}", arch.name());
                        }
                        checked += 1;
                        open += usize::from(scanned);
                        exact_only += usize::from(scanned && budget < pair.always);
                    }
                }
            }
        }
        assert!(open > 0 && open < checked, "{open} of {checked} open");
        assert!(exact_only > 0, "no budget opens through an exact hop alone");
    }

    /// The search as it stood before the cell table, kept verbatim as the
    /// oracle of [`find_route_in`]: a `QueueEntry` heap ordered by
    /// `total_cmp`, parallel `stamp`/`best`/`parent` tables, a `hop_cost`
    /// probe on every expansion and a reversed route.
    mod reference {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        use plaid_arch::{Architecture, ResourceId};

        use super::super::{finite_or_reject, CostPolicy, Reach, ReachTable, RouteRequest};
        use crate::mapping::{Route, RouteHop};
        use crate::state::RoutingState;

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

        /// Sentinel for "no parent" in the dense predecessor table (no resource has
        /// id `u32::MAX`).
        const NO_PARENT: (u32, u32) = (u32::MAX, u32::MAX);

        #[derive(Debug, Clone, Default)]
        pub(super) struct RouterScratch {
            epoch: u32,
            stamp: Vec<u32>,
            best: Vec<f64>,
            parent: Vec<(u32, u32)>,
            heap: BinaryHeap<QueueEntry>,
        }

        impl RouterScratch {
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

        pub(super) fn find_route_in(
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
            let table = reach.table(arch, request.dst_fu);
            scratch.begin(n * width);

            // Seed: leave the source FU along each open first hop.
            for (to, elapsed, cost) in first_hops(reach, state, request, policy, table, budget) {
                let idx = index(to, elapsed);
                if cost < scratch.best(idx) {
                    scratch.set(idx, cost, NO_PARENT);
                    scratch.heap.push(QueueEntry {
                        cost,
                        resource: to,
                        elapsed,
                    });
                }
            }

            while let Some(entry) = scratch.heap.pop() {
                let idx = index(entry.resource, entry.elapsed);
                if entry.cost > scratch.best(idx) {
                    continue;
                }
                // Try to finish: the link into the destination FU, whose latency
                // the table stores, lands exactly on the arrival cycle. Queued
                // cells never overrun the budget.
                if table.exactly(entry.resource) == budget - entry.elapsed {
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
                // Expand.
                for &(to, latency) in reach.successors(entry.resource) {
                    let elapsed = entry.elapsed + latency;
                    if elapsed > budget || !table.alive(to, budget - elapsed) {
                        continue;
                    }
                    let slot = state.slot(request.src_cycle + elapsed);
                    let Some(hop_cost) = policy
                        .hop_cost(state, ResourceId(to), slot, request.value)
                        .and_then(finite_or_reject)
                    else {
                        continue;
                    };
                    // Zero-latency self-loops cannot exist (links are deduplicated and
                    // holds have latency 1), so progress is guaranteed; still, avoid
                    // re-visiting the same (resource, elapsed) at higher cost.
                    let cost = entry.cost + hop_cost;
                    let nidx = index(to, elapsed);
                    if cost < scratch.best(nidx) {
                        scratch.set(nidx, cost, (entry.resource, entry.elapsed));
                        scratch.heap.push(QueueEntry {
                            cost,
                            resource: to,
                            elapsed,
                        });
                    }
                }
            }
            None
        }

        fn first_hops<'a>(
            reach: &'a Reach,
            state: &'a RoutingState,
            request: &'a RouteRequest,
            policy: &'a impl CostPolicy,
            table: &'a ReachTable,
            budget: u32,
        ) -> impl Iterator<Item = (u32, u32, f64)> + 'a {
            // A route may only end at the destination FU, and entering it is
            // handled at pop time in the search; the successor lists hold no FUs.
            reach
                .successors(request.src_fu.0)
                .iter()
                .filter_map(move |&(to, elapsed)| {
                    if elapsed > budget || !table.alive(to, budget - elapsed) {
                        return None;
                    }
                    let slot = state.slot(request.src_cycle + elapsed);
                    let cost = policy
                        .hop_cost(state, ResourceId(to), slot, request.value)
                        .and_then(finite_or_reject)?;
                    Some((to, elapsed, cost))
                })
        }
    }

    /// A policy that counts its `hop_cost` calls.
    struct Counted<'p, P> {
        policy: &'p P,
        calls: std::cell::Cell<u64>,
    }

    impl<'p, P: CostPolicy> Counted<'p, P> {
        fn new(policy: &'p P) -> Self {
            Counted {
                policy,
                calls: std::cell::Cell::new(0),
            }
        }
    }

    impl<P: CostPolicy> CostPolicy for Counted<'_, P> {
        fn hop_cost(
            &self,
            state: &RoutingState,
            resource: ResourceId,
            slot: u32,
            value: NodeId,
        ) -> Option<f64> {
            self.calls.set(self.calls.get() + 1);
            self.policy.hop_cost(state, resource, slot, value)
        }
    }

    /// SplitMix64: the tests' deterministic random stream.
    fn next(rng: &mut u64) -> u64 {
        *rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Values the random occupancies draw from; requests route one of them,
    /// so a request sometimes finds its own value already in a cell.
    const VALUES: u32 = 6;

    /// Random `(resource, cycle, value)` occupancy of the switches of
    /// `arch` at `ii`: about a third of the switch slots hold between one
    /// value and one more than the switch's capacity.
    fn random_occupancy(
        arch: &Architecture,
        ii: u32,
        rng: &mut u64,
    ) -> Vec<(ResourceId, u32, NodeId)> {
        let mut ops = Vec::new();
        for r in arch.resources().iter().filter(|r| !r.kind.is_func_unit()) {
            for slot in 0..ii {
                if !next(rng).is_multiple_of(3) {
                    continue;
                }
                let values = 1 + next(rng) % u64::from(r.kind.capacity() + 1);
                for _ in 0..values {
                    ops.push((r.id, slot, NodeId((next(rng) % u64::from(VALUES)) as u32)));
                }
            }
        }
        ops
    }

    /// `request` through the kernel on `states[0]` and through the
    /// reference on `states[1]` under `policy`: each side's route with its
    /// cost bits, and its `hop_cost` call count.
    fn both<P: CostPolicy>(
        policy: &P,
        (scratch, reference_scratch): (&mut RouterScratch, &mut reference::RouterScratch),
        (arch, reach): (&Architecture, &Reach),
        states: &[RoutingState; 2],
        request: &RouteRequest,
    ) -> [(Option<(Route, u64)>, u64); 2] {
        let bits = |r: Option<(Route, f64)>| r.map(|(route, cost)| (route, cost.to_bits()));
        let counted = [Counted::new(policy), Counted::new(policy)];
        let got = find_route_in(scratch, arch, reach, &states[0], request, &counted[0]);
        let want = reference::find_route_in(
            reference_scratch,
            arch,
            reach,
            &states[1],
            request,
            &counted[1],
        );
        [
            (bits(got), counted[0].calls.get()),
            (bits(want), counted[1].calls.get()),
        ]
    }

    #[test]
    fn kernel_matches_the_reference_search() {
        // Every fabric of the zoo, at a random II with a random partial
        // occupancy, under the hard-capacity and the negotiated policy
        // (with random history): the kernel and the reference, each on
        // its own certificate, must return the same route at the same
        // cost bits and record the same certificate, and the kernel must
        // never probe more often than the reference.
        use crate::state::CapacityCert;
        use std::sync::Arc;
        let mut rng = 22;
        let (mut searches, mut routed) = (0usize, 0usize);
        let (mut probes, mut reference_probes, mut fewer) = (0u64, 0u64, 0usize);
        for arch in fabric_zoo() {
            let reach = Reach::of(&arch);
            let n = arch.resources().len();
            let fus: Vec<ResourceId> = arch.functional_units().map(|r| r.id).collect();
            for negotiated in [false, true] {
                let ii = 1 + (next(&mut rng) % 5) as u32;
                let certs = [(); 2].map(|_| Arc::new(CapacityCert::new(n)));
                let mut states = certs
                    .each_ref()
                    .map(|cert| RoutingState::with_cert(&arch, ii, Arc::clone(cert)));
                for (r, cycle, value) in random_occupancy(&arch, ii, &mut rng) {
                    states.iter_mut().for_each(|s| s.occupy(r, cycle, value));
                }
                let mut history = NegotiatedCost::new(n);
                for h in &mut history.history {
                    *h = (next(&mut rng) % 4) as f64 * 0.5;
                }
                let (mut scratch, mut reference_scratch) =
                    (RouterScratch::new(), reference::RouterScratch::default());
                for _ in 0..6 {
                    let src = fus[next(&mut rng) as usize % fus.len()];
                    let dst = fus[next(&mut rng) as usize % fus.len()];
                    let src_cycle = (next(&mut rng) % u64::from(2 * ii)) as u32;
                    let value = NodeId((next(&mut rng) % u64::from(VALUES)) as u32);
                    for budget in 0..=2 * ii + 4 {
                        let request = RouteRequest {
                            src_fu: src,
                            src_cycle,
                            dst_fu: dst,
                            arrival_cycle: src_cycle + budget,
                            value,
                        };
                        let (scratches, fabric) =
                            ((&mut scratch, &mut reference_scratch), (&arch, &reach));
                        let [(got, calls), (want, reference_calls)] = if negotiated {
                            both(&history, scratches, fabric, &states, &request)
                        } else {
                            both(&HardCapacityCost, scratches, fabric, &states, &request)
                        };
                        routed += usize::from(want.is_some());
                        assert_eq!(got, want, "{}: {request:?}", arch.name());
                        assert!(calls <= reference_calls, "{}: {request:?}", arch.name());
                        fewer += usize::from(calls < reference_calls);
                        probes += calls;
                        reference_probes += reference_calls;
                        searches += 1;
                    }
                    assert_eq!(certs[0].need(), certs[1].need(), "{}", arch.name());
                    assert_eq!(certs[0].ceil(), certs[1].ceil(), "{}", arch.name());
                }
            }
        }
        assert!(
            routed > searches / 4 && routed < searches,
            "{routed} of {searches} routed"
        );
        assert!(
            fewer > 0 && probes < reference_probes,
            "{probes} of {reference_probes} probes"
        );
    }

    #[test]
    fn searches_across_the_epoch_wrap_match_fresh_scratches() {
        // The wrap resets every cell's stamp, which guards the cached hop
        // cost as well as the best cost. A scratch that searched at low
        // epochs and then wraps meets its own stale stamps again at epochs
        // 1, 2, ...; a stale cell must not pass for probed or reached.
        let arch = plaid::build(2, 2);
        let reach = Reach::of(&arch);
        let ii = 3;
        let mut rng = 7;
        let mut before = RoutingState::new(&arch, ii);
        let mut after = RoutingState::new(&arch, ii);
        for (state, ops) in [&mut before, &mut after]
            .into_iter()
            .map(|s| (s, random_occupancy(&arch, ii, &mut rng)))
        {
            for (r, cycle, value) in ops {
                state.occupy(r, cycle, value);
            }
        }
        let fus: Vec<ResourceId> = arch.functional_units().map(|r| r.id).collect();
        let requests: Vec<RouteRequest> = (0..24)
            .map(|i| {
                let src_cycle = (next(&mut rng) % u64::from(ii)) as u32;
                RouteRequest {
                    src_fu: fus[next(&mut rng) as usize % fus.len()],
                    src_cycle,
                    dst_fu: fus[next(&mut rng) as usize % fus.len()],
                    arrival_cycle: src_cycle + 1 + i % (2 * ii + 3),
                    value: NodeId((next(&mut rng) % u64::from(VALUES)) as u32),
                }
            })
            .collect();
        let search = |scratch: &mut RouterScratch, state: &RoutingState, request| {
            let policy = Counted::new(&HardCapacityCost);
            let found = find_route_in(scratch, &arch, &reach, state, request, &policy);
            (found, policy.calls.get())
        };
        // A fresh scratch just below the wrap crosses it on its fourth
        // search.
        let mut scratch = RouterScratch::new().starting_at(u32::MAX - 3);
        for request in &requests {
            let fresh = search(&mut RouterScratch::new(), &after, request);
            assert_eq!(search(&mut scratch, &after, request), fresh, "{request:?}");
        }
        assert_eq!(scratch.epoch, requests.len() as u32 - 3);
        // A scratch warmed at epochs 1..=24 on other occupancies, moved to
        // the last epoch before the wrap: its first search wraps, and its
        // later ones reuse the epochs of the warm-up.
        let mut scratch = RouterScratch::new();
        for request in &requests {
            search(&mut scratch, &before, request);
        }
        let later_epochs = 1..requests.len() as u32;
        assert!(
            scratch
                .cells
                .iter()
                .any(|c| later_epochs.contains(&c.stamp)),
            "no warm-up stamp lies on a later epoch"
        );
        let mut scratch = scratch.starting_at(u32::MAX);
        for request in &requests {
            let fresh = search(&mut RouterScratch::new(), &after, request);
            assert_eq!(search(&mut scratch, &after, request), fresh, "{request:?}");
            if scratch.epoch == 1 {
                assert!(
                    scratch.cells.iter().all(|c| c.stamp <= 1),
                    "the wrap left stale stamps"
                );
            }
        }
        assert_eq!(scratch.epoch, later_epochs.end);
    }
}
