//! Modulo routing-resource occupancy (the mutable part of the MRRG).
//!
//! The Modulo Routing Resource Graph of Section 5.1 is the architecture's
//! routing-resource graph extended over II cycles, with wrap-around. The
//! static part (resources and links) lives in `plaid-arch`; this module holds
//! the dynamic part: which value occupies which resource in which modulo slot.
//!
//! Two routes carrying the *same* value (the same producer node) may share a
//! resource slot — that is exactly how a fan-out reuses wires — so occupancy
//! is tracked per `(resource, slot, value)` with reference counts.
//!
//! Storage is a dense `resource × slot` table (flat index `r * ii + slot`)
//! whose cells are small inline value sets: the common case (a handful of
//! distinct values per switch slot) never allocates, `usage`/`fits` are a
//! single indexed load, and aggregate queries (`total_overuse`,
//! `resource_load`, `occupied_slots`) read counters maintained incrementally
//! by `occupy`/`release` instead of rescanning the table.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use plaid_arch::{Architecture, ResourceId};
use plaid_dfg::NodeId;

/// A monotone record of every switch-capacity decision a mapping search
/// made.
///
/// `fits` is the *only* way the hard-capacity mappers observe switch
/// capacities, so the search's entire decision sequence is a pure function
/// of `(dfg, fabric-without-capacities, ii)` *plus* the answers `fits`
/// returned. For each resource the certificate tracks:
///
/// * `need` — the largest occupancy an *admitted* query saw, plus one: any
///   capacity `>= need` answers those queries identically (true);
/// * `ceil` — the smallest occupancy a *refused* query saw: any capacity
///   `<= ceil` answers those queries identically (false).
///
/// A completed search therefore reproduces bit-for-bit on any fabric that is
/// identical up to switch capacities `c` with `need <= c <= ceil` — the
/// soundness basis for transferring mapping results across communication
/// provisioning levels.
///
/// The certificate is shared (`Arc`) across state clones: mappers snapshot
/// and roll back states freely, but a rolled-back branch still *consulted*
/// capacities, so its observations must survive the rollback.
///
/// Functional-unit occupancy is never recorded: slot probes go through
/// `RoutingState::fu_fits`, so every unit's entry stays the open window
/// `(0, u32::MAX)`. A unit's capacity is 1 on every fabric (a functional
/// unit's kind carries no capacity), so no transfer decision ever reads
/// those entries, and recording them would only tie the certificate to how
/// many candidate slots a heuristic happened to probe.
///
/// Only the probes a search actually makes are recorded. Placement
/// candidates rejected as structurally dead (`MapState::try_place`'s
/// structural test, one read of the ladder's per-FU-pair first-hop table)
/// probe no switch, and the placement heuristics skip most of them before
/// trying them at all (`MapState::structural_window`), so neither pruning
/// nor skipping them records anything. The occupancy pre-check (the
/// router's first hops under the heuristic's policy) probes through the
/// same `hop_cost` path as the route search, so its probes are recorded
/// like any other. It runs as a second pass after the structural one, so a
/// candidate it rejects records only the first hops it probed, up to the
/// first edge found closed, and no search.
///
/// A search may also skip work whose probes it has already recorded: the
/// Plaid repair loop skips a re-placement it has already run on the same
/// state. Repeating a probe can only repeat its answer, and `need` and
/// `ceil` are a maximum and a minimum, so the skip leaves them as they are.
#[derive(Debug, Default)]
pub struct CapacityCert {
    need: Vec<AtomicU32>,
    ceil: Vec<AtomicU32>,
}

impl CapacityCert {
    /// An empty certificate for `resource_count` resources.
    pub fn new(resource_count: usize) -> Self {
        CapacityCert {
            need: (0..resource_count).map(|_| AtomicU32::new(0)).collect(),
            ceil: (0..resource_count)
                .map(|_| AtomicU32::new(u32::MAX))
                .collect(),
        }
    }

    fn admit(&self, resource: u32, occupancy_plus_one: u32) {
        // Plain load first: the monotone bounds converge after a handful of
        // queries, after which the hot `fits` path skips the RMW entirely.
        let need = &self.need[resource as usize];
        if need.load(Ordering::Relaxed) < occupancy_plus_one {
            need.fetch_max(occupancy_plus_one, Ordering::Relaxed);
        }
    }

    fn block(&self, resource: u32, occupancy: u32) {
        let ceil = &self.ceil[resource as usize];
        if ceil.load(Ordering::Relaxed) > occupancy {
            ceil.fetch_min(occupancy, Ordering::Relaxed);
        }
    }

    /// Per-resource minimum capacities the recorded decisions require.
    pub fn need(&self) -> Vec<u32> {
        self.need
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }

    /// Per-resource maximum capacities the recorded decisions allow.
    pub fn ceil(&self) -> Vec<u32> {
        self.ceil
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }
}

/// Distinct `(value, refcount)` pairs held inline per slot before spilling to
/// a heap vector. Four covers every slot the workload suite produces on the
/// default grids (switch capacities are small); congested negotiation rounds
/// spill gracefully.
const INLINE_VALUES: usize = 4;

/// Occupancy of one `(resource, slot)` cell: a refcounted small-set of the
/// distinct values present. Membership and counts are all the mappers ask
/// for, so entry order within a cell is insignificant (and `PartialEq`
/// compares as a set).
#[derive(Debug, Clone, Default)]
struct SlotOcc {
    inline: [(u32, u32); INLINE_VALUES],
    inline_len: u8,
    spill: Vec<(u32, u32)>,
}

impl SlotOcc {
    fn distinct(&self) -> u32 {
        u32::from(self.inline_len) + self.spill.len() as u32
    }

    fn contains(&self, value: u32) -> bool {
        self.inline[..usize::from(self.inline_len)]
            .iter()
            .chain(self.spill.iter())
            .any(|&(v, _)| v == value)
    }

    /// Adds one reference of `value`; returns `true` when the value is new
    /// to the cell (the distinct count grew).
    fn add(&mut self, value: u32) -> bool {
        for entry in self.inline[..usize::from(self.inline_len)]
            .iter_mut()
            .chain(self.spill.iter_mut())
        {
            if entry.0 == value {
                entry.1 += 1;
                return false;
            }
        }
        if usize::from(self.inline_len) < INLINE_VALUES {
            self.inline[usize::from(self.inline_len)] = (value, 1);
            self.inline_len += 1;
        } else {
            self.spill.push((value, 1));
        }
        true
    }

    /// Drops one reference of `value`; returns `true` when its last
    /// reference was released (the distinct count shrank). Unknown values
    /// are a no-op, which keeps undo paths in the mappers simple.
    fn remove(&mut self, value: u32) -> bool {
        let inline_len = usize::from(self.inline_len);
        for i in 0..inline_len {
            if self.inline[i].0 == value {
                self.inline[i].1 -= 1;
                if self.inline[i].1 > 0 {
                    return false;
                }
                // Backfill the hole from the spill first (keeping the cell
                // compact), otherwise from the inline tail.
                if let Some(moved) = self.spill.pop() {
                    self.inline[i] = moved;
                } else {
                    self.inline[i] = self.inline[inline_len - 1];
                    self.inline_len -= 1;
                }
                return true;
            }
        }
        for i in 0..self.spill.len() {
            if self.spill[i].0 == value {
                self.spill[i].1 -= 1;
                if self.spill[i].1 > 0 {
                    return false;
                }
                self.spill.swap_remove(i);
                return true;
            }
        }
        false
    }

    /// Set equality over `(value, refcount)` pairs, ignoring storage order.
    fn same_values(&self, other: &SlotOcc) -> bool {
        if self.distinct() != other.distinct() {
            return false;
        }
        self.inline[..usize::from(self.inline_len)]
            .iter()
            .chain(self.spill.iter())
            .all(|&(v, c)| {
                other.inline[..usize::from(other.inline_len)]
                    .iter()
                    .chain(other.spill.iter())
                    .any(|&(ov, oc)| ov == v && oc == c)
            })
    }
}

/// Per-(resource, modulo-slot) occupancy with value sharing.
#[derive(Debug, Clone)]
pub struct RoutingState {
    ii: u32,
    capacities: Vec<u32>,
    /// Dense cell table, indexed `resource * ii + slot`.
    slots: Vec<SlotOcc>,
    /// Per-resource total occupancy across the II (sum of distinct counts).
    load: Vec<u32>,
    /// Per-resource total overuse across the II.
    over: Vec<u32>,
    /// Sum of `over` — `total_overuse()` in O(1).
    total_over: u32,
    /// Number of cells with at least one value — `occupied_slots()` in O(1).
    occupied: u32,
    cert: Arc<CapacityCert>,
}

/// Equality ignores the capacity certificate (it is telemetry about the
/// search, not part of the mapping state) and cell storage order (occupancy
/// is a multiset per cell, and undo paths may repack cells).
impl PartialEq for RoutingState {
    fn eq(&self, other: &Self) -> bool {
        self.ii == other.ii
            && self.capacities == other.capacities
            && self.slots.len() == other.slots.len()
            && self
                .slots
                .iter()
                .zip(other.slots.iter())
                .all(|(a, b)| a.same_values(b))
    }
}

impl RoutingState {
    /// Creates an empty occupancy table for `arch` at initiation interval `ii`.
    ///
    /// # Panics
    ///
    /// Panics if `ii` is zero.
    pub fn new(arch: &Architecture, ii: u32) -> Self {
        Self::with_cert(
            arch,
            ii,
            Arc::new(CapacityCert::new(arch.resources().len())),
        )
    }

    /// Like [`RoutingState::new`], but records capacity decisions into an
    /// externally owned certificate — mappers pass one accumulator across
    /// every II attempt of a ladder so the certificate covers the whole run.
    ///
    /// # Panics
    ///
    /// Panics if `ii` is zero.
    pub fn with_cert(arch: &Architecture, ii: u32, cert: Arc<CapacityCert>) -> Self {
        assert!(ii > 0, "initiation interval must be positive");
        let n = arch.resources().len();
        RoutingState {
            ii,
            capacities: arch.resources().iter().map(|r| r.kind.capacity()).collect(),
            slots: vec![SlotOcc::default(); n * ii as usize],
            load: vec![0; n],
            over: vec![0; n],
            total_over: 0,
            occupied: 0,
            cert,
        }
    }

    /// The initiation interval this state was built for.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Modulo slot of an absolute cycle.
    pub fn slot(&self, cycle: u32) -> u32 {
        cycle % self.ii
    }

    #[inline]
    fn index(&self, resource: u32, slot: u32) -> usize {
        resource as usize * self.ii as usize + slot as usize
    }

    /// Number of distinct values occupying `(resource, slot)`.
    pub fn usage(&self, resource: ResourceId, slot: u32) -> u32 {
        self.slots[self.index(resource.0, slot)].distinct()
    }

    /// Amount by which `(resource, slot)` exceeds its capacity.
    pub fn overuse(&self, resource: ResourceId, slot: u32) -> u32 {
        self.usage(resource, slot)
            .saturating_sub(self.capacities[resource.0 as usize])
    }

    /// Total overuse across all occupied slots (0 for a legal configuration).
    /// Maintained incrementally; O(1).
    pub fn total_overuse(&self) -> u32 {
        self.total_over
    }

    /// Total overuse of all slots belonging to `resource`. Maintained
    /// incrementally; O(1). Lets PathFinder's history accumulation skip
    /// uncongested resources without scanning their slots.
    pub fn resource_overuse(&self, resource: ResourceId) -> u32 {
        self.over[resource.0 as usize]
    }

    /// Whether `value` could occupy `(resource, slot)` without exceeding the
    /// capacity (values already present occupy no additional space).
    ///
    /// Every capacity-consulting answer is recorded in the shared
    /// [`CapacityCert`]; answers that do not depend on the capacity (the
    /// value is already present) are not.
    pub fn fits(&self, resource: ResourceId, slot: u32, value: NodeId) -> bool {
        self.admission(resource, slot, value).0
    }

    /// [`RoutingState::fits`] for a functional unit, recording nothing in
    /// the [`CapacityCert`]: a functional unit's capacity is 1 on every
    /// fabric, so its answers carry nothing a certificate could transfer
    /// (see [`CapacityCert`]).
    pub(crate) fn fu_fits(&self, fu: ResourceId, slot: u32, value: NodeId) -> bool {
        let cell = &self.slots[self.index(fu.0, slot)];
        cell.distinct() < self.capacities[fu.0 as usize] || cell.contains(value.0)
    }

    /// Fused `fits` + `usage` probe for the routing hot path: one cell
    /// lookup yields both the admission answer (recorded in the shared
    /// [`CapacityCert`] exactly as [`RoutingState::fits`] records it) and
    /// the current distinct-value count of the slot.
    pub fn admission(&self, resource: ResourceId, slot: u32, value: NodeId) -> (bool, u32) {
        let cap = self.capacities[resource.0 as usize];
        let cell = &self.slots[self.index(resource.0, slot)];
        let occupancy = cell.distinct();
        if cell.contains(value.0) {
            return (true, occupancy);
        }
        if occupancy < cap {
            self.cert.admit(resource.0, occupancy + 1);
            (true, occupancy)
        } else {
            self.cert.block(resource.0, occupancy);
            (false, occupancy)
        }
    }

    /// Occupies `(resource, cycle mod II)` with `value`.
    pub fn occupy(&mut self, resource: ResourceId, cycle: u32, value: NodeId) {
        let slot = self.slot(cycle);
        let idx = self.index(resource.0, slot);
        let cap = self.capacities[resource.0 as usize];
        let cell = &mut self.slots[idx];
        if cell.add(value.0) {
            let distinct = cell.distinct();
            if distinct == 1 {
                self.occupied += 1;
            }
            if distinct > cap {
                self.over[resource.0 as usize] += 1;
                self.total_over += 1;
            }
            self.load[resource.0 as usize] += 1;
        }
    }

    /// Releases one reference of `value` on `(resource, cycle mod II)`.
    ///
    /// Releasing a value that is not present is a no-op, which keeps undo
    /// paths in the mappers simple.
    pub fn release(&mut self, resource: ResourceId, cycle: u32, value: NodeId) {
        let slot = self.slot(cycle);
        let idx = self.index(resource.0, slot);
        let cap = self.capacities[resource.0 as usize];
        let cell = &mut self.slots[idx];
        let before = cell.distinct();
        if cell.remove(value.0) {
            if before > cap {
                self.over[resource.0 as usize] -= 1;
                self.total_over -= 1;
            }
            if before == 1 {
                self.occupied -= 1;
            }
            self.load[resource.0 as usize] -= 1;
        }
    }

    /// Per-resource capacity.
    pub fn capacity(&self, resource: ResourceId) -> u32 {
        self.capacities[resource.0 as usize]
    }

    /// Number of occupied `(resource, slot)` pairs — a cheap congestion
    /// proxy. Maintained incrementally; O(1).
    pub fn occupied_slots(&self) -> usize {
        self.occupied as usize
    }

    /// Total occupancy of all slots belonging to `resource` across the II.
    /// Maintained incrementally; O(1).
    pub fn resource_load(&self, resource: ResourceId) -> u32 {
        self.load[resource.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_arch::spatio_temporal;

    fn state() -> RoutingState {
        RoutingState::new(&spatio_temporal::build(2, 2), 4)
    }

    #[test]
    fn occupy_and_release_round_trip() {
        let mut s = state();
        let r = ResourceId(1);
        assert_eq!(s.usage(r, 1), 0);
        s.occupy(r, 1, NodeId(7));
        s.occupy(r, 5, NodeId(7)); // same slot (5 mod 4 == 1), same value
        assert_eq!(s.usage(r, 1), 1);
        s.release(r, 1, NodeId(7));
        assert_eq!(s.usage(r, 1), 1, "second reference still held");
        s.release(r, 5, NodeId(7));
        assert_eq!(s.usage(r, 1), 0);
    }

    #[test]
    fn same_value_shares_capacity() {
        let mut s = state();
        // Resource 0 is a functional unit with capacity 1.
        let fu = ResourceId(0);
        s.occupy(fu, 0, NodeId(3));
        assert!(s.fits(fu, 0, NodeId(3)), "same value always fits");
        assert!(
            !s.fits(fu, 0, NodeId(4)),
            "different value exceeds capacity"
        );
    }

    #[test]
    fn overuse_counts_excess_values() {
        let mut s = state();
        let fu = ResourceId(0);
        s.occupy(fu, 2, NodeId(1));
        s.occupy(fu, 2, NodeId(2));
        s.occupy(fu, 2, NodeId(3));
        assert_eq!(s.usage(fu, 2), 3);
        assert_eq!(s.overuse(fu, 2), 2);
        assert_eq!(s.total_overuse(), 2);
        assert_eq!(s.resource_overuse(fu), 2);
        s.release(fu, 2, NodeId(2));
        assert_eq!(s.total_overuse(), 1);
        s.release(fu, 2, NodeId(1));
        s.release(fu, 2, NodeId(3));
        assert_eq!(s.total_overuse(), 0);
        assert_eq!(s.resource_overuse(fu), 0);
    }

    #[test]
    fn release_of_absent_value_is_noop() {
        let mut s = state();
        s.release(ResourceId(2), 0, NodeId(9));
        assert_eq!(s.usage(ResourceId(2), 0), 0);
        assert_eq!(s.occupied_slots(), 0);
    }

    #[test]
    fn resource_load_sums_slots() {
        let mut s = state();
        let r = ResourceId(1);
        s.occupy(r, 0, NodeId(1));
        s.occupy(r, 1, NodeId(2));
        s.occupy(r, 2, NodeId(3));
        assert_eq!(s.resource_load(r), 3);
        assert_eq!(s.occupied_slots(), 3);
    }

    #[test]
    fn spill_beyond_inline_capacity_round_trips() {
        let mut s = state();
        let r = ResourceId(1);
        let many = (INLINE_VALUES as u32 + 3) * 2;
        for v in 0..many {
            s.occupy(r, 0, NodeId(v));
        }
        assert_eq!(s.usage(r, 0), many);
        for v in 0..many {
            assert!(s.fits(r, 0, NodeId(v)), "present value always fits");
        }
        // Release in an order that exercises both inline and spill removal.
        for v in (0..many).rev().chain(std::iter::empty()) {
            s.release(r, 0, NodeId(v));
        }
        assert_eq!(s.usage(r, 0), 0);
        assert_eq!(s.occupied_slots(), 0);
        assert_eq!(s.resource_load(r), 0);
    }

    #[test]
    fn equality_ignores_cell_storage_order() {
        let mut a = state();
        let mut b = state();
        let r = ResourceId(1);
        for v in [1u32, 2, 3] {
            a.occupy(r, 0, NodeId(v));
        }
        for v in [3u32, 1, 2] {
            b.occupy(r, 0, NodeId(v));
        }
        assert_eq!(a, b);
        b.release(r, 0, NodeId(2));
        assert_ne!(a, b);
        b.occupy(r, 0, NodeId(2));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ii_panics() {
        let _ = RoutingState::new(&spatio_temporal::build(2, 2), 0);
    }
}
