//! Cross-point seed management for seeded sweeps.
//!
//! A [`SeedStore`] indexes the [`PlacementSeed`]s captured by successful
//! compilations (and the infeasibility proofs implied by failed ones) by
//! workload and design-point *family* — the axes that determine fabric
//! structure: execution class, array dimensions, communication level and
//! mapper. Before a sweep point compiles, [`SeedStore::hint_on`] retrieves
//! the nearest cached neighbour under a provisioning distance metric and
//! packages it as the [`MapSeed`] hint the mappers consume.
//!
//! Hints are only ever provably result-preserving: seeds that transfer to
//! the target fabric (depth siblings with an identical signature, or
//! communication siblings inside a seed's capacity certificate) and
//! infeasibility prefixes from the same family. Seeded sweeps therefore stay
//! bit-identical to cold runs while skipping most of the mapping work.
//! [`SeedPolicy::Off`] turns the store off altogether.

use std::collections::HashMap;
use std::sync::RwLock;

use plaid::pipeline::{InfeasiblePrefix, MapSeed, MapperChoice, PlacementSeed, PreparedFabric};
use plaid_arch::DesignPoint;
use serde::{Deserialize, Serialize};

use crate::record::EvalRecord;
use crate::sweep::{design_family, SweepPoint};

/// How a sweep uses cached seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedPolicy {
    /// Never consult the seed store; every point maps from scratch.
    Off,
    /// Result-preserving reuse only: sweep results are bit-identical to a
    /// cold run.
    Exact,
}

impl SeedPolicy {
    /// Parses a CLI-style policy name.
    ///
    /// # Errors
    ///
    /// Returns the unknown name.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "off" => Ok(SeedPolicy::Off),
            "exact" => Ok(SeedPolicy::Exact),
            other => Err(format!("unknown seed policy `{other}` (off|exact)")),
        }
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            SeedPolicy::Off => "off",
            SeedPolicy::Exact => "exact",
        }
    }
}

/// The family of a sweep point: everything that determines fabric structure
/// (and therefore seed compatibility) except configuration-memory depth.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SeedFamily {
    /// Workload name.
    pub workload: String,
    /// Design point with the depth axis erased.
    pub family: DesignPoint,
    /// Mapper evaluating the point.
    pub mapper: MapperChoice,
}

impl SeedFamily {
    /// The family of a sweep point.
    pub fn of(point: &SweepPoint) -> Self {
        SeedFamily {
            workload: point.workload.name.clone(),
            family: DesignPoint {
                config_entries: 0,
                ..point.design
            },
            mapper: point.mapper,
        }
    }

    /// The *super-family* of a sweep point: the communication *bandwidth*
    /// erased as well (via [`plaid_arch::CommSpec::structural_family`],
    /// which keeps the topology — a torus fabric's links differ from a
    /// mesh's, so their mappings never transfer). Points in one super-family
    /// share everything but configuration depth and switch capacities —
    /// exactly the set a capacity-certified seed can hope to transfer
    /// across. All three legacy presets collapse to the aligned spec, as
    /// under the scalar encoding.
    pub fn super_of(point: &SweepPoint) -> Self {
        SeedFamily {
            workload: point.workload.name.clone(),
            family: design_family(&point.design),
            mapper: point.mapper,
        }
    }
}

/// Distance between two design points under the provisioning metric used for
/// nearest-neighbour seed retrieval: array dimensions dominate, then the
/// communication spec, then configuration depth. Points of different
/// execution classes are infinitely far apart (their mappings do not
/// translate).
///
/// The communication component is the canonical
/// [`plaid_arch::CommSpec::distance`] metric: bandwidth-magnitude
/// proximity (one preset step = 2 units, so on the legacy presets this
/// reproduces the scalar-era metric exactly — `aligned` is nearer to
/// `rich` than `lean` is) plus a large constant for a topology mismatch
/// (mappings do not translate across link structures). Note this is deliberately *not* the
/// scheduling order [`plaid_arch::CommSpec::order_rank`] that
/// `run_sweep_with` groups by: aligned-first is the right evaluation
/// order, but it is not a proximity scale.
pub fn provisioning_distance(a: &DesignPoint, b: &DesignPoint) -> u32 {
    if a.class != b.class {
        return u32::MAX;
    }
    let dims = (a.rows * a.cols).abs_diff(b.rows * b.cols);
    let comm = a.comm.distance(b.comm);
    let depth = depth_steps(a.config_entries).abs_diff(depth_steps(b.config_entries));
    dims.saturating_mul(16)
        .saturating_add(comm.saturating_mul(2))
        .saturating_add(depth)
}

fn depth_steps(entries: u32) -> u32 {
    if entries == 0 {
        0
    } else {
        entries.ilog2()
    }
}

#[derive(Debug, Default)]
struct StoreInner {
    /// Successful seeds per super-family, tagged with the design point they
    /// were captured on.
    seeds: HashMap<SeedFamily, Vec<(DesignPoint, PlacementSeed)>>,
    /// Highest configuration depth (== II bound) proved infeasible per
    /// (comm-specific) family.
    infeasible: HashMap<SeedFamily, u32>,
}

/// Thread-safe store of placement seeds and infeasibility proofs gathered
/// during a sweep (including from cache hits, so persisted caches seed new
/// grids for free).
#[derive(Debug, Default)]
pub struct SeedStore {
    inner: RwLock<StoreInner>,
}

impl SeedStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs the outcome of one point evaluated *this run*: a successful
    /// record's seed becomes retrievable for its super-family; a
    /// no-valid-mapping failure proves the (comm-specific) family's ladder
    /// infeasible through the point's II bound.
    pub fn absorb(&self, point: &SweepPoint, record: &EvalRecord) {
        if self.absorb_seed(point, record) {
            return;
        }
        if !record.ok
            && record
                .error
                .as_deref()
                .is_some_and(|e| e.contains("no valid mapping"))
        {
            // The ladder failed for every II up to the configuration depth.
            let mut inner = self.inner.write().expect("seed store lock poisoned");
            let entry = inner.infeasible.entry(SeedFamily::of(point)).or_insert(0);
            *entry = (*entry).max(point.design.config_entries);
        }
    }

    /// Absorbs only a successful record's seed, ignoring failures. This is
    /// the safe entry point for records served from a *persisted* cache: a
    /// replayed seed is re-validated against the target fabric before use,
    /// but an infeasibility floor is trusted as a proof — and a cache file
    /// written by an older mapper could wrongly floor points the current
    /// mapper maps. Returns whether a seed was stored.
    pub fn absorb_seed(&self, point: &SweepPoint, record: &EvalRecord) -> bool {
        let Some(seed) = record.summary.as_ref().and_then(|s| s.seed.clone()) else {
            return false;
        };
        let mut inner = self.inner.write().expect("seed store lock poisoned");
        let entries = inner.seeds.entry(SeedFamily::super_of(point)).or_default();
        match entries.iter_mut().find(|(d, _)| *d == point.design) {
            Some(slot) => slot.1 = seed,
            None => entries.push((point.design, seed)),
        }
        true
    }

    /// Builds the seed hint for a point about to compile on `arch`, or
    /// `None` when the store has nothing useful (or the policy is `Off`).
    /// This is [`Self::hint_on`] on a fabric prepared for the call.
    pub fn hint_for(
        &self,
        point: &SweepPoint,
        arch: &plaid_arch::Architecture,
        dfg: u64,
        policy: SeedPolicy,
    ) -> Option<MapSeed> {
        if policy == SeedPolicy::Off {
            return None;
        }
        self.hint_on(point, &PreparedFabric::new(arch.clone()), dfg)
    }

    /// Builds the seed hint for a point about to compile on `fabric`, or
    /// `None` when the store has nothing useful. It reads the fabric's
    /// memoised signatures, which the mapper's ladder planner then reuses.
    ///
    /// Only provably transferable seeds are offered — same fabric signature
    /// (depth siblings) or a capacity certificate admitting this fabric's
    /// switch capacities (communication siblings) — nearest first under the
    /// provisioning distance.
    pub fn hint_on(
        &self,
        point: &SweepPoint,
        fabric: &PreparedFabric,
        dfg: u64,
    ) -> Option<MapSeed> {
        let nocap = fabric.signature_nocap();
        let capacities = fabric.capacities();
        let fabric = fabric.signature();
        let inner = self.inner.read().expect("seed store lock poisoned");
        // The filter mirrors what the mappers' ladder planner accepts: only
        // canonical seeds replay (seeds from cache files may not be), so a
        // nearer non-canonical seed must not shadow a replayable sibling.
        let seed = inner
            .seeds
            .get(&SeedFamily::super_of(point))
            .and_then(|entries| {
                entries
                    .iter()
                    .filter(|(_, s)| s.canonical && s.transfers_to(fabric, nocap, capacities))
                    .min_by_key(|(d, _)| provisioning_distance(d, &point.design))
                    .map(|(_, s)| s.clone())
            });
        let infeasible = inner
            .infeasible
            .get(&SeedFamily::of(point))
            .map(|&through_ii| InfeasiblePrefix {
                dfg,
                fabric,
                through_ii,
            });
        if seed.is_none() && infeasible.is_none() {
            return None;
        }
        Some(MapSeed { seed, infeasible })
    }

    /// Number of stored seeds across all families.
    pub fn seed_count(&self) -> usize {
        self.inner
            .read()
            .expect("seed store lock poisoned")
            .seeds
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Number of families with a proven-infeasible ladder prefix.
    pub fn infeasible_count(&self) -> usize {
        self.inner
            .read()
            .expect("seed store lock poisoned")
            .infeasible
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_arch::{ArchClass, CommSpec};
    use plaid_workloads::find_workload;

    fn fp(point: &SweepPoint) -> u64 {
        plaid::pipeline::dfg_fingerprint(&point.workload.lower().unwrap())
    }

    fn point(depth: u32, comm: CommSpec) -> SweepPoint {
        SweepPoint {
            workload: find_workload("dwconv").unwrap(),
            design: DesignPoint {
                class: ArchClass::SpatioTemporal,
                rows: 2,
                cols: 2,
                config_entries: depth,
                comm,
            },
            mapper: MapperChoice::PathFinder,
        }
    }

    #[test]
    fn distance_orders_axes_dims_then_comm_then_depth() {
        let base = point(16, CommSpec::ALIGNED).design;
        let depth_only = DesignPoint {
            config_entries: 8,
            ..base
        };
        let comm_only = DesignPoint {
            comm: CommSpec::RICH,
            ..base
        };
        let dims_only = DesignPoint {
            rows: 3,
            cols: 3,
            ..base
        };
        let d_depth = provisioning_distance(&base, &depth_only);
        let d_comm = provisioning_distance(&base, &comm_only);
        let d_dims = provisioning_distance(&base, &dims_only);
        assert!(d_depth < d_comm, "{d_depth} < {d_comm}");
        assert!(d_comm < d_dims, "{d_comm} < {d_dims}");
        assert_eq!(provisioning_distance(&base, &base), 0);
        let other_class = DesignPoint {
            class: ArchClass::Plaid,
            ..base
        };
        assert_eq!(provisioning_distance(&base, &other_class), u32::MAX);
    }

    #[test]
    fn store_absorbs_successes_and_serves_depth_sibling_hints() {
        let store = SeedStore::new();
        let p16 = point(16, CommSpec::ALIGNED);
        let (record, _) = crate::sweep::evaluate_point(
            &p16,
            &Default::default(),
            &Default::default(),
            &crate::cache::ResultCache::new(),
            None,
        );
        assert!(record.ok, "dwconv maps on the 2x2 baseline");
        store.absorb(&p16, &record);
        assert_eq!(store.seed_count(), 1);

        // The 8-deep sibling retrieves the seed under Exact (identical
        // fabric signature — depth does not change structure).
        let p8 = point(8, CommSpec::ALIGNED);
        let arch8 = p8.design.build();
        let hint = store
            .hint_for(&p8, &arch8, fp(&p8), SeedPolicy::Exact)
            .expect("same family");
        assert!(hint.seed.is_some());
        // Off never serves hints.
        assert!(store
            .hint_for(&p8, &arch8, fp(&p8), SeedPolicy::Off)
            .is_none());
        // The lean sibling gets nothing: a PathFinder seed carries no
        // capacity certificate, so it only transfers on an identical fabric.
        let lean = point(8, CommSpec::LEAN);
        let lean_arch = lean.design.build();
        assert!(store
            .hint_for(&lean, &lean_arch, fp(&lean), SeedPolicy::Exact)
            .is_none());
    }

    #[test]
    fn only_off_and_exact_parse() {
        assert_eq!(SeedPolicy::parse("off"), Ok(SeedPolicy::Off));
        assert_eq!(SeedPolicy::parse("exact"), Ok(SeedPolicy::Exact));
        let err = SeedPolicy::parse("aggressive").unwrap_err();
        assert!(err.contains("aggressive"), "{err}");
        assert!(err.contains("off") && err.contains("exact"), "{err}");
    }

    #[test]
    fn capacity_certified_seeds_cross_communication_levels() {
        // Compile the aligned point cold, then check its seed is offered to
        // the rich sibling under Exact — the PathFinder baseline's seeds
        // carry no capacity certificate, so this only holds when the fabric
        // signatures match; a certified plaid/SA seed transfers. Use the
        // plaid mapper (certified) on a plaid fabric.
        let workload = find_workload("dwconv").unwrap();
        let mk = |comm: CommSpec| SweepPoint {
            workload: workload.clone(),
            design: DesignPoint {
                class: ArchClass::Plaid,
                rows: 2,
                cols: 2,
                config_entries: 16,
                comm,
            },
            mapper: MapperChoice::Plaid,
        };
        let store = SeedStore::new();
        let aligned = mk(CommSpec::ALIGNED);
        let (record, _) = crate::sweep::evaluate_point(
            &aligned,
            &Default::default(),
            &Default::default(),
            &crate::cache::ResultCache::new(),
            None,
        );
        assert!(record.ok, "dwconv maps on plaid 2x2");
        store.absorb(&aligned, &record);
        let rich = mk(CommSpec::RICH);
        let rich_arch = rich.design.build();
        if let Some(hint) = store.hint_for(&rich, &rich_arch, fp(&rich), SeedPolicy::Exact) {
            // Transfer is only offered when the certificate admits the rich
            // capacities; if offered, the mapper will replay it soundly.
            let seed = hint.seed.expect("exact hints carry sound seeds");
            assert!(seed.canonical);
            assert!(!seed.cap_need.is_empty(), "plaid seeds are certified");
        }
    }

    #[test]
    fn topology_survives_super_family_erasure() {
        use plaid_arch::{BwClass, Topology};
        // Bandwidth is erased (all presets group together, as under the
        // scalar encoding) but topology is not: a torus fabric's links
        // differ from a mesh's, so their seeds must never share a family.
        let mk = |comm: CommSpec| SweepPoint {
            workload: find_workload("dwconv").unwrap(),
            design: DesignPoint {
                class: ArchClass::SpatioTemporal,
                rows: 3,
                cols: 3,
                config_entries: 16,
                comm,
            },
            mapper: MapperChoice::PathFinder,
        };
        let lean = mk(CommSpec::LEAN);
        let rich = mk(CommSpec::RICH);
        let torus_half = mk(CommSpec::uniform(Topology::Torus, BwClass::Half));
        let torus_base = mk(CommSpec::uniform(Topology::Torus, BwClass::Base));
        assert_eq!(SeedFamily::super_of(&lean), SeedFamily::super_of(&rich));
        assert_eq!(
            SeedFamily::super_of(&torus_half),
            SeedFamily::super_of(&torus_base)
        );
        assert_ne!(
            SeedFamily::super_of(&lean),
            SeedFamily::super_of(&torus_base),
            "mesh and torus grouped together"
        );
        // The distance metric agrees: cross-topology specs are far apart,
        // same-topology bandwidth siblings are near.
        let near = provisioning_distance(&torus_half.design, &torus_base.design);
        let far = provisioning_distance(&lean.design, &torus_base.design);
        assert!(near < far, "{near} < {far}");
        // And the mapper-facing fabric signatures differ across topologies
        // even with capacities erased, so no seed can transfer.
        let mesh_arch = lean.design.build();
        let torus_arch = torus_base.design.build();
        assert_ne!(
            plaid::pipeline::fabric_signature_nocap(&mesh_arch),
            plaid::pipeline::fabric_signature_nocap(&torus_arch)
        );
    }

    #[test]
    fn infeasible_failures_raise_the_family_floor() {
        let store = SeedStore::new();
        let p8 = point(8, CommSpec::LEAN);
        let record = EvalRecord::failed(
            &p8,
            "mapping failed: no valid mapping of x onto y up to II=8",
        );
        store.absorb(&p8, &record);
        assert_eq!(store.infeasible_count(), 1);
        let p16 = point(16, CommSpec::LEAN);
        let arch16 = p16.design.build();
        let hint = store
            .hint_for(&p16, &arch16, fp(&p16), SeedPolicy::Exact)
            .expect("floor transfers within the family");
        assert_eq!(hint.infeasible.map(|i| i.through_ii), Some(8));
        // The floor is comm-specific: the aligned sibling gets nothing.
        let aligned = point(16, CommSpec::ALIGNED);
        let aligned_arch = aligned.design.build();
        assert!(store
            .hint_for(&aligned, &aligned_arch, fp(&aligned), SeedPolicy::Exact)
            .is_none());
        // Non-ladder failures (e.g. unsupported DFG) do not prove anything.
        let other = EvalRecord::failed(&p8, "mapping failed: DFG not supported");
        let fresh = SeedStore::new();
        fresh.absorb(&p8, &other);
        assert_eq!(fresh.infeasible_count(), 0);
    }

    #[test]
    fn persisted_cache_records_never_raise_floors() {
        // Records served from a persisted cache go through `absorb_seed`,
        // which must ignore failures: a cache written by an older mapper
        // could otherwise floor points the current mapper maps.
        let store = SeedStore::new();
        let p8 = point(8, CommSpec::LEAN);
        let stale = EvalRecord::failed(
            &p8,
            "mapping failed: no valid mapping of x onto y up to II=8",
        );
        assert!(!store.absorb_seed(&p8, &stale));
        assert_eq!(store.infeasible_count(), 0);
        let p16 = point(16, CommSpec::LEAN);
        let arch16 = p16.design.build();
        assert!(store
            .hint_for(&p16, &arch16, fp(&p16), SeedPolicy::Exact)
            .is_none());
    }
}
