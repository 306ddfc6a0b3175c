//! Placement seeds: serializable mapping snapshots that let a mapper skip
//! work already done for a structurally related design point.
//!
//! A [`PlacementSeed`] captures the full solution of one successful mapping —
//! placements, routes and the achieved II — together with a *fabric
//! signature*: a content hash of everything in the architecture that the
//! mapping search can observe (resources, capabilities, switch capacities,
//! links, latencies, clusters). Crucially the signature excludes
//! configuration-memory depth, which bounds the II ladder but never changes
//! the routing structure, so design points that differ only in depth share a
//! signature.
//!
//! One reuse tier follows from that: **exact replay**. When the seed's
//! signature (or capacity certificate), mapper and settings stamp match
//! the target and every per-II attempt is a pure function of
//! `(dfg, fabric, ii)` (the mappers reseed their RNG per II), the target's
//! ladder provably reproduces the seed's result. The seed is re-validated
//! on the target fabric and returned directly; sweep results are
//! bit-identical to a cold run.
//!
//! A seed's capacity certificate ([`CapacityCert`]) records only the
//! capacity probes its ladder actually made. Candidates the placement layer
//! prunes as structurally dead probe no switch: `MapState::try_place` tests
//! every edge of a candidate for a structural first hop before it probes
//! any switch occupancy. So the certificates of a pruning ladder are looser
//! than or equal to those of one that tried them: they admit at least the
//! same capacity windows, and remain sound because the search decided only
//! on recorded answers. Seeds persisted with tighter certificates describe
//! the same mappings and still replay, so no cache key changed when pruning
//! arrived.
//!
//! An [`InfeasiblePrefix`] transfers the complementary fact: a ladder that
//! failed through II `k` on the same fabric structure proves every `ii <= k`
//! infeasible, so a deeper configuration memory can start its ladder at
//! `k + 1`.
//!
//! Both are applied by one ladder driver shared by the SA, PathFinder and
//! Plaid mappers; each mapper supplies only its per-II attempt and its
//! settings stamp (`LadderSearch`).
//!
//! The mappers' settings (RNG seeds, move and repair budgets, annealing
//! schedule) are module constants, so one `u64` per mapper names them: the
//! `LadderSearch::SETTINGS` stamp, stored in [`PlacementSeed::options`].
//! The stamps are pinned literals, so seeds persisted by one build replay
//! in the next; a change to a mapper's search that can change its mappings
//! must bump its stamp.

use serde::{Deserialize, Serialize};

use plaid_arch::{Architecture, ResourceId, ResourceKind};
use plaid_dfg::fnv::Fnv;
use plaid_dfg::{Dfg, EdgeId, NodeId};

use crate::error::MapError;
use crate::fabric::PreparedFabric;
use crate::mapping::{Mapping, Placement, Route, RouteHop};
use crate::state::CapacityCert;

pub use plaid_dfg::fnv::fnv1a64;

/// Content hash of everything the mapping search can observe about a fabric:
/// execution class, resources (kind, capabilities, switch capacity, tile),
/// links (endpoints, latency) and clusters. Parameters that only feed the
/// cost model — configuration depth, bit budgets — are deliberately
/// excluded, so design points differing only in configuration-memory depth
/// share a signature and can exchange mapping results soundly.
pub fn fabric_signature(arch: &Architecture) -> u64 {
    signature(arch, true)
}

/// Like [`fabric_signature`], but with switch capacities erased: two fabrics
/// share a no-capacity signature when they are identical up to communication
/// provisioning (switch capacities). Together with a
/// [`crate::state::CapacityCert`], this is what makes mapping results
/// transferable across communication levels.
pub fn fabric_signature_nocap(arch: &Architecture) -> u64 {
    signature(arch, false)
}

/// Content hash of the DFG a seed or infeasibility proof was derived on:
/// node operations (with immediates) and edge topology. A mapping result or
/// ladder proof is only meaningful for the exact graph it was computed on,
/// so the mappers' shared ladder planner (`plan_ladder`) ignores hints whose
/// DFG fingerprint does not match the
/// graph being mapped — a caller passing a hint captured from a different
/// workload gets a scratch run, never a spurious fast-fail.
///
/// This is [`Dfg::fingerprint`], which the graph memoises: a graph shared
/// by many ladders is hashed once.
pub fn dfg_fingerprint(dfg: &Dfg) -> u64 {
    dfg.fingerprint()
}

fn signature(arch: &Architecture, with_capacities: bool) -> u64 {
    let mut h = Fnv::new();
    h.bytes(arch.class().label().as_bytes());
    for r in arch.resources() {
        h.word(u64::from(r.id.0));
        h.word(r.tile as u64);
        match r.kind {
            ResourceKind::FuncUnit(caps) => {
                h.word(1);
                h.word(u64::from(caps.compute));
                h.word(u64::from(caps.memory));
            }
            ResourceKind::Switch { capacity } => {
                h.word(2);
                h.word(if with_capacities {
                    u64::from(capacity)
                } else {
                    0
                });
            }
        }
    }
    for l in arch.links() {
        h.word(u64::from(l.from.0));
        h.word(u64::from(l.to.0));
        h.word(u64::from(l.latency));
    }
    for c in arch.clusters() {
        h.word(c.tile as u64);
        for &fu in &c.alus {
            h.word(u64::from(fu.0));
        }
        h.word(c.local_router.map(|r| u64::from(r.0) + 1).unwrap_or(0));
    }
    h.finish()
}

/// One seeded node placement (IDs are raw `u32`s so the seed serializes with
/// no dependency on the DFG/arch types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedPlacement {
    /// DFG node id.
    pub node: u32,
    /// Functional-unit resource id on the source fabric.
    pub fu: u32,
    /// Absolute schedule cycle.
    pub cycle: u32,
}

/// One hop of a seeded route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedHop {
    /// Switch resource id on the source fabric.
    pub resource: u32,
    /// Absolute cycle the value occupies the switch.
    pub cycle: u32,
}

/// The seeded route of one data-carrying edge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedRoute {
    /// DFG edge id.
    pub edge: u32,
    /// Intermediate hops in traversal order.
    pub hops: Vec<SeedHop>,
}

/// A serializable snapshot of one successful mapping, reusable as a seed
/// for related design points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementSeed {
    /// Name of the mapper that produced the mapping (`Mapper::name`).
    pub mapper: String,
    /// Settings stamp of the mapper that produced the mapping (its
    /// `LadderSearch::SETTINGS`); a seed replays only for a mapper with the
    /// same stamp.
    pub options: u64,
    /// Fingerprint of the DFG the mapping places (see [`dfg_fingerprint`]).
    pub dfg: u64,
    /// Fabric signature of the source architecture.
    pub fabric: u64,
    /// Achieved initiation interval.
    pub ii: u32,
    /// Whether the mapping is the canonical (scratch-equivalent) result for
    /// its design point. Every capture is canonical; only canonical seeds
    /// replay, which guards against seeds loaded from cache files.
    pub canonical: bool,
    /// Fabric signature with switch capacities erased (see
    /// [`fabric_signature_nocap`]).
    pub fabric_nocap: u64,
    /// Per-resource minimum switch capacities under which the ladder run
    /// that produced this seed reproduces bit-for-bit (empty when the run is
    /// not capacity-transferable — e.g. PathFinder, whose negotiation costs
    /// read capacities directly, or a floored ladder whose skipped prefix
    /// was proved on this fabric only).
    pub cap_need: Vec<u32>,
    /// Per-resource maximum switch capacities for the same guarantee
    /// (`u32::MAX` when no query was ever refused at that resource).
    pub cap_ceil: Vec<u32>,
    /// Node placements, sorted by node id.
    pub placements: Vec<SeedPlacement>,
    /// Edge routes, sorted by edge id.
    pub routes: Vec<SeedRoute>,
}

impl PlacementSeed {
    /// Captures a seed from a finished mapping on the architecture it was
    /// produced for, without a capacity certificate (the seed replays only
    /// on fabrics with an identical full signature).
    pub fn capture(dfg: &Dfg, mapping: &Mapping, arch: &Architecture, options: u64) -> Self {
        Self::capture_with_cert(dfg, mapping, arch, options, None)
    }

    /// Captures a seed carrying the capacity certificate of the ladder run
    /// that produced the mapping, making it transferable to fabrics that
    /// differ only in switch capacities within the certified bounds.
    pub fn capture_with_cert(
        dfg: &Dfg,
        mapping: &Mapping,
        arch: &Architecture,
        options: u64,
        cert: Option<&CapacityCert>,
    ) -> Self {
        let window = cert.map(|c| (c.need(), c.ceil())).unwrap_or_default();
        let fabric = PreparedFabric::borrowed(arch);
        Self::snapshot(mapping, &SeedContext::of(dfg, &fabric), options, window)
    }

    /// The seed of `mapping` on the graph and fabric `ctx` hashes, with the
    /// capacity window `(cap_need, cap_ceil)` (both empty: no certificate).
    fn snapshot(
        mapping: &Mapping,
        ctx: &SeedContext,
        options: u64,
        (cap_need, cap_ceil): (Vec<u32>, Vec<u32>),
    ) -> Self {
        let mut placements: Vec<SeedPlacement> = mapping
            .placements
            .iter()
            .map(|(&node, p)| SeedPlacement {
                node: node.0,
                fu: p.fu.0,
                cycle: p.cycle,
            })
            .collect();
        placements.sort_by_key(|p| p.node);
        let mut routes: Vec<SeedRoute> = mapping
            .routes
            .iter()
            .map(|(&edge, route)| SeedRoute {
                edge: edge.0,
                hops: route
                    .hops
                    .iter()
                    .map(|h| SeedHop {
                        resource: h.resource.0,
                        cycle: h.cycle,
                    })
                    .collect(),
            })
            .collect();
        routes.sort_by_key(|r| r.edge);
        PlacementSeed {
            mapper: mapping.mapper_name.clone(),
            options,
            dfg: ctx.dfg,
            fabric: ctx.fabric,
            ii: mapping.ii,
            canonical: true,
            fabric_nocap: ctx.nocap,
            cap_need,
            cap_ceil,
            placements,
            routes,
        }
    }

    /// Whether the ladder run behind this seed provably reproduces on a
    /// fabric with no-capacity signature `nocap` and the given per-resource
    /// capacities: either the full signature matches outright, or every
    /// capacity lies inside the certified `[need, ceil]` window.
    pub fn transfers_to(&self, fabric: u64, nocap: u64, capacities: &[u32]) -> bool {
        if self.fabric == fabric {
            return true;
        }
        self.fabric_nocap == nocap
            && !self.cap_need.is_empty()
            && self.cap_need.len() == capacities.len()
            && self.cap_ceil.len() == capacities.len()
            && capacities
                .iter()
                .zip(self.cap_need.iter().zip(&self.cap_ceil))
                .all(|(&cap, (&need, &ceil))| need <= cap && cap <= ceil)
    }

    /// Reconstructs the seed as a [`Mapping`] on `arch` and validates it
    /// against `dfg`. Returns `None` when the seed does not describe a legal
    /// mapping of this DFG on this fabric (corruption, workload mismatch).
    pub fn replay(&self, dfg: &Dfg, arch: &Architecture) -> Option<Mapping> {
        if self.ii == 0 {
            return None;
        }
        let mapping = Mapping {
            arch_name: arch.name().to_string(),
            mapper_name: self.mapper.clone(),
            ii: self.ii,
            placements: self
                .placements
                .iter()
                .map(|p| {
                    (
                        NodeId(p.node),
                        Placement {
                            fu: ResourceId(p.fu),
                            cycle: p.cycle,
                        },
                    )
                })
                .collect(),
            routes: self
                .routes
                .iter()
                .map(|r| {
                    (
                        EdgeId(r.edge),
                        Route {
                            hops: r
                                .hops
                                .iter()
                                .map(|h| RouteHop {
                                    resource: ResourceId(h.resource),
                                    cycle: h.cycle,
                                })
                                .collect(),
                        },
                    )
                })
                .collect(),
        };
        // Ids must exist before `validate` may index into the DFG/arch.
        let node_ok = self
            .placements
            .iter()
            .all(|p| p.node < dfg.node_count() as u32);
        let res_ok = self
            .placements
            .iter()
            .all(|p| (p.fu as usize) < arch.resources().len())
            && self
                .routes
                .iter()
                .flat_map(|r| r.hops.iter())
                .all(|h| (h.resource as usize) < arch.resources().len());
        let edge_ok = self
            .routes
            .iter()
            .all(|r| (r.edge as usize) < dfg.edge_count());
        if !(node_ok && res_ok && edge_ok) {
            return None;
        }
        mapping.validate(dfg, arch).ok().map(|()| mapping)
    }
}

/// A proof that every II up to `through_ii` is infeasible for a given fabric
/// structure, transferred from a failed ladder on a design point with a
/// shallower configuration memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InfeasiblePrefix {
    /// Fingerprint of the DFG the failure was proved on (see
    /// [`dfg_fingerprint`]).
    pub dfg: u64,
    /// Fabric signature the failure was proved on.
    pub fabric: u64,
    /// Highest II proved infeasible.
    pub through_ii: u32,
}

/// The hint threaded through `compile_workload` into the mappers: an
/// optional placement seed plus an optional infeasibility proof.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MapSeed {
    /// Placement seed from the nearest cached design point.
    pub seed: Option<PlacementSeed>,
    /// Ladder prefix proved infeasible on this fabric structure.
    pub infeasible: Option<InfeasiblePrefix>,
}

/// How a seeded mapping run arrived at its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedOutcome {
    /// No seed information was used; the full ladder ran from scratch.
    Scratch,
    /// The ladder start was raised past a proven-infeasible prefix.
    Floored,
    /// The seed re-validated on the target fabric and was returned directly.
    Replayed,
}

/// A mapping plus the provenance of how seeding contributed to it.
#[derive(Debug, Clone)]
pub struct SeededMapping {
    /// The produced mapping.
    pub mapping: Mapping,
    /// How the seed was used.
    pub outcome: SeedOutcome,
    /// Snapshot of `mapping` for seeding neighbouring design points.
    pub seed: PlacementSeed,
}

/// The ladder decision derived from a hint before any II attempt runs.
#[derive(Debug)]
pub(crate) enum LadderPlan<'a> {
    /// The hint proves no II within `max_ii` can succeed.
    Infeasible,
    /// The seed replays exactly; no search needed.
    Replay(&'a PlacementSeed),
    /// Run the ladder from `start` (>= mii); `floored` when a proven
    /// infeasible prefix raised it.
    Ladder { start: u32, floored: bool },
}

/// Everything about the target fabric a ladder plan needs to decide seed
/// eligibility, read from the DFG's and the prepared fabric's memoised
/// hashes. The ladder's seed capture reuses them.
#[derive(Debug)]
pub(crate) struct SeedContext<'f> {
    pub dfg: u64,
    pub fabric: u64,
    pub nocap: u64,
    pub capacities: &'f [u32],
}

impl<'f> SeedContext<'f> {
    pub fn of(dfg: &Dfg, fabric: &'f PreparedFabric<'_>) -> Self {
        SeedContext {
            dfg: dfg_fingerprint(dfg),
            fabric: fabric.signature(),
            nocap: fabric.signature_nocap(),
            capacities: fabric.capacities(),
        }
    }
}

/// Derives the ladder plan for a mapper from an optional hint.
///
/// Soundness: every tier first requires the hint's DFG fingerprint to match
/// the graph being mapped — results and proofs do not translate across
/// workloads, and a mismatched hint is ignored rather than trusted. `Replay`
/// is only produced for a canonical seed of the same
/// mapper and options whose run provably reproduces on the target fabric —
/// identical full signature, or identical no-capacity signature with every
/// switch capacity inside the seed's certified window. The raised ladder
/// `start` requires an infeasibility proof anchored to the target's full
/// signature. Seeded runs therefore reproduce cold results bit-for-bit; a
/// hint that proves nothing leaves the ladder untouched.
pub(crate) fn plan_ladder<'a>(
    hint: Option<&'a MapSeed>,
    ctx: &SeedContext,
    mapper: &str,
    options: u64,
    mii: u32,
    max_ii: u32,
) -> LadderPlan<'a> {
    let mut start = mii;
    let mut floored = false;
    let Some(hint) = hint else {
        return LadderPlan::Ladder { start, floored };
    };
    if let Some(prefix) = &hint.infeasible {
        if prefix.dfg == ctx.dfg && prefix.fabric == ctx.fabric && prefix.through_ii >= start {
            if prefix.through_ii >= max_ii {
                return LadderPlan::Infeasible;
            }
            start = prefix.through_ii + 1;
            floored = true;
        }
    }
    if let Some(seed) = &hint.seed {
        let sound = seed.canonical
            && seed.dfg == ctx.dfg
            && seed.mapper == mapper
            && seed.options == options
            && seed.transfers_to(ctx.fabric, ctx.nocap, ctx.capacities);
        if sound {
            if seed.ii <= max_ii {
                return LadderPlan::Replay(seed);
            }
            // A canonical transferable result above this point's II bound
            // proves the bounded ladder fails (its attempts are a prefix of
            // the ladder that produced the seed).
            return LadderPlan::Infeasible;
        }
    }
    LadderPlan::Ladder { start, floored }
}

/// The mapper-specific half of a seeded II ladder. [`map_seeded`] owns the
/// rest — the hint, the replay decision, the II bounds and the seed capture
/// — so a mapper supplies only its settings stamp and its per-II attempt.
pub(crate) trait LadderSearch {
    /// The mapper's name (its `Mapper::name`), recorded in every mapping
    /// and seed the ladder produces; a seed replays only for a search with
    /// the same name.
    const NAME: &'static str;

    /// Search-wide state shared by every attempt of one ladder. It is built
    /// after the replay decision, so a replayed point pays for none of it
    /// (nor for the fabric's [`Reach`](crate::route::Reach), which the
    /// prepared fabric builds on the first ladder that asks for it).
    type Shared;

    /// Seed-compatibility stamp of the search's fixed settings, recorded
    /// in every captured seed's [`PlacementSeed::options`]; a seed replays
    /// only for a search with the same stamp. Bump it whenever a change to
    /// the search (its constants or its algorithm) can change the mapping
    /// a ladder produces, so seeds persisted by older builds stop replaying.
    const SETTINGS: u64;

    /// Builds the ladder's shared state on `fabric`.
    fn prepare(&self, dfg: &Dfg, fabric: &PreparedFabric<'_>) -> Self::Shared;

    /// One attempt at `ii`: a complete mapping, or `None` to climb the
    /// ladder. Each attempt must be a pure function of `(dfg, fabric, ii)`
    /// (stochastic searches draw from `attempt_rng(seed, ii)`), which is what
    /// makes replayed seeds and skipped prefixes result-preserving.
    fn attempt(
        &self,
        shared: &Self::Shared,
        dfg: &Dfg,
        arch: &Architecture,
        ii: u32,
    ) -> Option<Mapping>;

    /// The capacity certificate the ladder's attempts accumulated, when the
    /// search's results transfer across switch capacities.
    fn certificate(shared: &Self::Shared) -> Option<&CapacityCert>;
}

/// Runs `search`'s II ladder on `fabric` under an optional hint: replays a
/// sound seed, skips a proven-infeasible prefix, and otherwise climbs from
/// `mii` to the II bound, capturing the seed of the first attempt that
/// succeeds. The fabric's signatures and reachability come from `fabric`,
/// which derives each once however many ladders run on it.
pub(crate) fn map_seeded<S: LadderSearch>(
    search: &S,
    dfg: &Dfg,
    fabric: &PreparedFabric<'_>,
    hint: Option<&MapSeed>,
) -> Result<SeededMapping, MapError> {
    let arch = fabric.arch();
    if dfg.memory_node_count() > 0 && arch.memory_unit_count() == 0 {
        return Err(MapError::UnsupportedDfg(
            "DFG contains memory operations but the architecture has no memory-capable unit".into(),
        ));
    }
    let ctx = SeedContext::of(dfg, fabric);
    let options = S::SETTINGS;
    let mii = crate::mii::mii(dfg, arch);
    let max_ii = arch.params().max_ii();
    let infeasible = || MapError::NoValidMapping {
        kernel: dfg.name().to_string(),
        arch: arch.name().to_string(),
        max_ii,
    };
    let (start, floored) = match plan_ladder(hint, &ctx, S::NAME, options, mii, max_ii) {
        LadderPlan::Infeasible => return Err(infeasible()),
        LadderPlan::Replay(seed) => match seed.replay(dfg, arch) {
            Some(mapping) => {
                // The replay inherits the source's certificate verbatim: the
                // original ladder's decision proof holds for any further
                // fabric inside the same bounds. The full-fabric signature
                // is re-anchored to the replay target.
                let window = (seed.cap_need.clone(), seed.cap_ceil.clone());
                return Ok(SeededMapping {
                    seed: PlacementSeed::snapshot(&mapping, &ctx, options, window),
                    mapping,
                    outcome: SeedOutcome::Replayed,
                });
            }
            // Corrupt or mismatched seed: fall back to the unfloored
            // ladder, which is always sound.
            None => (mii, false),
        },
        LadderPlan::Ladder { start, floored } => (start, floored),
    };
    let shared = search.prepare(dfg, fabric);
    for ii in start..=max_ii {
        let Some(mapping) = search.attempt(&shared, dfg, arch, ii) else {
            continue;
        };
        mapping.validate(dfg, arch)?;
        // Floored results are canonical (the skipped prefix was proved
        // infeasible on this fabric) but not transferable: the certificate
        // does not cover the skipped attempts.
        let (outcome, cert) = if floored {
            (SeedOutcome::Floored, None)
        } else {
            (SeedOutcome::Scratch, S::certificate(&shared))
        };
        let window = cert.map(|c| (c.need(), c.ceil())).unwrap_or_default();
        return Ok(SeededMapping {
            seed: PlacementSeed::snapshot(&mapping, &ctx, options, window),
            mapping,
            outcome,
        });
    }
    Err(infeasible())
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_arch::{plaid, spatio_temporal};
    use plaid_dfg::kernel::{AffineExpr, Expr, KernelBuilder};
    use plaid_dfg::lower::{lower_kernel, LoweringOptions};
    use plaid_dfg::Op;

    use crate::pathfinder::PathFinderMapper;
    use crate::Mapper;

    fn small_dfg() -> Dfg {
        let kernel = KernelBuilder::new("axpy")
            .loop_var("i", 16)
            .array("x", 16)
            .array("y", 16)
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
    fn signature_is_stable_and_structure_sensitive() {
        let a = spatio_temporal::build(4, 4);
        let b = spatio_temporal::build(4, 4);
        assert_eq!(fabric_signature(&a), fabric_signature(&b));
        let smaller = spatio_temporal::build(3, 3);
        assert_ne!(fabric_signature(&a), fabric_signature(&smaller));
        let other_class = plaid::build(2, 2);
        assert_ne!(fabric_signature(&a), fabric_signature(&other_class));
    }

    #[test]
    fn signature_ignores_configuration_depth() {
        use plaid_arch::rebuild_provisioned;
        let base = spatio_temporal::build(4, 4);
        let mut params = base.params().clone();
        params.config_entries = 4;
        let shallow = rebuild_provisioned(&base, "shallow", params, |c| c);
        assert_eq!(fabric_signature(&base), fabric_signature(&shallow));
    }

    #[test]
    fn signature_tracks_switch_capacity() {
        use plaid_arch::rebuild_provisioned;
        let base = spatio_temporal::build(4, 4);
        let richer = rebuild_provisioned(&base, "rich", base.params().clone(), |c| c + 1);
        assert_ne!(fabric_signature(&base), fabric_signature(&richer));
    }

    /// Whether a hint carrying only `seed` replays for `mapper` under
    /// options `options` when mapping `dfg` on `arch`. A seed that does not
    /// replay must leave the ladder untouched: unfloored, starting at `mii`.
    fn replays(
        seed: &PlacementSeed,
        dfg: &Dfg,
        arch: &Architecture,
        mapper: &str,
        options: u64,
    ) -> bool {
        let hint = MapSeed {
            seed: Some(seed.clone()),
            infeasible: None,
        };
        let fabric = PreparedFabric::borrowed(arch);
        let ctx = SeedContext::of(dfg, &fabric);
        let mii = crate::mii::mii(dfg, arch);
        match plan_ladder(
            Some(&hint),
            &ctx,
            mapper,
            options,
            mii,
            arch.params().max_ii(),
        ) {
            LadderPlan::Replay(_) => true,
            LadderPlan::Ladder { start, floored } => {
                assert_eq!((start, floored), (mii, false), "ladder moved");
                false
            }
            LadderPlan::Infeasible => panic!("a seed below the II bound proved infeasibility"),
        }
    }

    #[test]
    fn capture_replay_round_trip() {
        let dfg = small_dfg();
        let arch = spatio_temporal::build(4, 4);
        let mapping = PathFinderMapper::default().map(&dfg, &arch).unwrap();
        let seed = PlacementSeed::capture(&dfg, &mapping, &arch, 7);
        assert_eq!(seed.ii, mapping.ii);
        assert!(seed.canonical, "every capture is canonical");
        assert!(replays(&seed, &dfg, &arch, "pathfinder", 7));
        let replayed = seed.replay(&dfg, &arch).expect("seed replays");
        assert_eq!(replayed.ii, mapping.ii);
        assert_eq!(replayed.placements, mapping.placements);
        assert_eq!(replayed.routes, mapping.routes);
    }

    #[test]
    fn replay_rejects_wrong_fabric_mapper_options_and_dfg() {
        let dfg = small_dfg();
        let arch = spatio_temporal::build(4, 4);
        let mapping = PathFinderMapper::default().map(&dfg, &arch).unwrap();
        let seed = PlacementSeed::capture(&dfg, &mapping, &arch, 7);
        let other = spatio_temporal::build(3, 3);
        assert!(!replays(&seed, &dfg, &other, "pathfinder", 7));
        assert!(!replays(&seed, &dfg, &arch, "sa", 7));
        assert!(!replays(&seed, &dfg, &arch, "pathfinder", 8));
        let mut foreign_dfg = seed.clone();
        foreign_dfg.dfg ^= 1;
        assert!(!replays(&foreign_dfg, &dfg, &arch, "pathfinder", 7));
        // Validation also refuses to materialize the seed on the wrong
        // fabric (resource ids out of range or links missing).
        assert!(seed.replay(&dfg, &other).is_none());
    }

    #[test]
    fn non_canonical_seeds_never_replay() {
        // Captures are always canonical, but seeds also arrive from cache
        // files on disk, so the flag is still checked.
        let dfg = small_dfg();
        let arch = spatio_temporal::build(4, 4);
        let mapping = PathFinderMapper::default().map(&dfg, &arch).unwrap();
        let mut seed = PlacementSeed::capture(&dfg, &mapping, &arch, 7);
        seed.canonical = false;
        assert!(!replays(&seed, &dfg, &arch, "pathfinder", 7));
    }

    #[test]
    fn ladder_plan_floors_and_fast_fails() {
        let ctx = |fabric: u64| SeedContext {
            dfg: 7,
            fabric,
            nocap: 0,
            capacities: &[],
        };
        let fabric = 42u64;
        let hint = MapSeed {
            seed: None,
            infeasible: Some(InfeasiblePrefix {
                dfg: 7,
                fabric,
                through_ii: 8,
            }),
        };
        match plan_ladder(Some(&hint), &ctx(fabric), "sa", 0, 2, 16) {
            LadderPlan::Ladder { start, floored, .. } => {
                assert_eq!(start, 9);
                assert!(floored);
            }
            other => panic!("expected floored ladder, got {other:?}"),
        }
        assert!(matches!(
            plan_ladder(Some(&hint), &ctx(fabric), "sa", 0, 2, 8),
            LadderPlan::Infeasible
        ));
        // A prefix proved on a different fabric is ignored.
        match plan_ladder(Some(&hint), &ctx(fabric + 1), "sa", 0, 2, 8) {
            LadderPlan::Ladder { start, floored, .. } => {
                assert_eq!(start, 2);
                assert!(!floored);
            }
            other => panic!("expected untouched ladder, got {other:?}"),
        }
        // A prefix proved on a different DFG is ignored too: proofs do not
        // translate across workloads, even on the same fabric.
        let other_dfg = SeedContext {
            dfg: 8,
            fabric,
            nocap: 0,
            capacities: &[],
        };
        match plan_ladder(Some(&hint), &other_dfg, "sa", 0, 2, 8) {
            LadderPlan::Ladder { start, floored, .. } => {
                assert_eq!(start, 2);
                assert!(!floored);
            }
            other => panic!("expected untouched ladder, got {other:?}"),
        }
    }

    #[test]
    fn capacity_certificates_gate_cross_capacity_transfer() {
        use crate::state::CapacityCert;
        let dfg = small_dfg();
        let arch = spatio_temporal::build(4, 4);
        let mapping = PathFinderMapper::default().map(&dfg, &arch).unwrap();
        let n = arch.resources().len();
        let cert = CapacityCert::new(n);
        let seed = PlacementSeed::capture_with_cert(&dfg, &mapping, &arch, 1, Some(&cert));
        let nocap = fabric_signature_nocap(&arch);
        // Same full signature always transfers.
        assert!(seed.transfers_to(fabric_signature(&arch), nocap, &vec![4; n]));
        // Untouched cert (need 0, ceil MAX): every capacity vector of the
        // right length inside the window transfers.
        assert!(seed.transfers_to(0, nocap, &vec![1; n]));
        // Wrong no-capacity signature never transfers.
        assert!(!seed.transfers_to(0, nocap ^ 1, &vec![1; n]));
        // A seed without a certificate only transfers on exact signature.
        let bare = PlacementSeed::capture(&dfg, &mapping, &arch, 1);
        assert!(bare.transfers_to(fabric_signature(&arch), nocap, &vec![4; n]));
        assert!(!bare.transfers_to(0, nocap, &vec![4; n]));
    }

    #[test]
    fn plaid_certificates_transfer_only_to_fabrics_that_reproduce() {
        // Certificates record only the capacity probes the search made, and
        // pruned candidates probe nothing. Whatever the certificate accepts
        // must therefore still map cold to the very same result.
        use crate::plaid::PlaidMapper;
        use plaid_arch::rebuild_provisioned;
        let dfg = small_dfg();
        let base = plaid::build(2, 2);
        let source = PlaidMapper::default()
            .map_with_seed(&dfg, &base, None)
            .unwrap();
        assert_eq!(source.outcome, SeedOutcome::Scratch);
        let seed = &source.seed;
        assert!(!seed.cap_need.is_empty(), "the Plaid ladder is certified");
        let (mut transferred, mut refused) = (0, 0);
        for capacity in 1..=8 {
            let fabric = rebuild_provisioned(
                &base,
                format!("cap{capacity}"),
                base.params().clone(),
                |_| capacity,
            );
            let capacities: Vec<u32> = fabric
                .resources()
                .iter()
                .map(|r| r.kind.capacity())
                .collect();
            let signature = fabric_signature(&fabric);
            if !seed.transfers_to(signature, fabric_signature_nocap(&fabric), &capacities) {
                refused += 1;
                continue;
            }
            if signature != seed.fabric {
                transferred += 1;
            }
            let cold = PlaidMapper::default().map(&dfg, &fabric).unwrap();
            assert_eq!(cold.ii, source.mapping.ii, "capacity {capacity}");
            assert_eq!(
                cold.placements, source.mapping.placements,
                "capacity {capacity}"
            );
            assert_eq!(cold.routes, source.mapping.routes, "capacity {capacity}");
        }
        assert!(
            transferred > 0,
            "no differently provisioned fabric was accepted"
        );
        assert!(refused > 0, "the certificate bounds nothing");
    }

    #[test]
    fn settings_fingerprints_are_pinned() {
        use crate::plaid::{MotifLadder, PlaidMapper};
        use crate::sa::SaMapper;
        // The stamps persist in seeds on disk: changing one silently
        // invalidates every stored seed of that mapper, so it must only
        // change on purpose (see `LadderSearch::SETTINGS`).
        assert_eq!(SaMapper::SETTINGS, 0x40d7_f36d_778a_9cf7);
        assert_eq!(PathFinderMapper::SETTINGS, 0x47d6_2018_1148_1cab);
        assert_eq!(MotifLadder::SETTINGS, 0x7122_4eac_58eb_f14d);
        let dfg = small_dfg();
        let st = spatio_temporal::build(4, 4);
        let pcu = plaid::build(2, 2);
        let sa = SaMapper::default().map_with_seed(&dfg, &st, None).unwrap();
        assert_eq!(sa.seed.options, SaMapper::SETTINGS);
        let pf = PathFinderMapper::default()
            .map_with_seed(&dfg, &st, None)
            .unwrap();
        assert_eq!(pf.seed.options, PathFinderMapper::SETTINGS);
        let pl = PlaidMapper::default()
            .map_with_seed(&dfg, &pcu, None)
            .unwrap();
        assert_eq!(pl.seed.options, MotifLadder::SETTINGS);
    }

    #[test]
    fn seed_json_round_trip() {
        let dfg = small_dfg();
        let arch = spatio_temporal::build(4, 4);
        let mapping = PathFinderMapper::default().map(&dfg, &arch).unwrap();
        let seed = PlacementSeed::capture(&dfg, &mapping, &arch, 1);
        let json = serde_json::to_string(&seed).unwrap();
        let back: PlacementSeed = serde_json::from_str(&json).unwrap();
        assert_eq!(back, seed);
    }
}
