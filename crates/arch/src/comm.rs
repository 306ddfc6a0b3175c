//! The communication axis: NoC topology variants and bandwidth classes.
//!
//! Historically the communication axis was a single 3-valued scalar that
//! scaled every switch capacity and every router select bit uniformly. That
//! cannot express NoC topology variants (torus wraparound, express links)
//! or bandwidths beyond the three levels. [`CommSpec`] is the enumerable
//! axis, two fields:
//!
//! * [`Topology`] — the inter-tile link structure: the published mesh, a
//!   torus (wraparound links closing every row and column), or express
//!   links (additional links skipping `stride` tiles along rows and
//!   columns);
//! * [`BwClass`] — the bandwidth class that scales every switch capacity
//!   and the router select-bit budget in the [`crate::ConfigBudget`].
//!
//! # The presets
//!
//! The three scalar levels survive as the preset constants
//! [`CommSpec::LEAN`], [`CommSpec::ALIGNED`] and [`CommSpec::RICH`]:
//!
//! | preset    | topology | bandwidth |
//! |-----------|----------|-----------|
//! | `LEAN`    | mesh     | half      |
//! | `ALIGNED` | mesh     | base      |
//! | `RICH`    | mesh     | boost     |
//!
//! A preset scales every switch with the same formula the scalar level
//! used, adds no links, and keeps the scalar label (`lean` / `aligned` /
//! `rich`) and serialized form (`"Lean"` / `"Aligned"` / `"Rich"`), so
//! design points, cache keys, fabric signatures and frontier JSON produced
//! under the scalar encoding are byte-for-byte unchanged. Other specs
//! serialize as an object and label themselves `{topology}` or
//! `{topology}-{c}{c}` (see [`CommSpec::label`]), so no two distinct specs
//! can alias one cache key or one fabric.

use serde::{Deserialize, Serialize};

/// A bandwidth class: the multiplier applied to switch capacities and to
/// router select bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BwClass {
    /// Half the published bandwidth (never below 1).
    Half,
    /// The as-published bandwidth.
    Base,
    /// ~1.5× the published bandwidth.
    Boost,
    /// Twice the published bandwidth.
    Double,
}

impl BwClass {
    /// All classes, in ascending bandwidth order.
    pub const ALL: [BwClass; 4] = [
        BwClass::Half,
        BwClass::Base,
        BwClass::Boost,
        BwClass::Double,
    ];

    /// Ordinal in ascending-bandwidth order (`Half` = 0 … `Double` = 3).
    pub fn rank(self) -> u32 {
        match self {
            BwClass::Half => 0,
            BwClass::Base => 1,
            BwClass::Boost => 2,
            BwClass::Double => 3,
        }
    }

    /// Full label used in structured serialization and CLI parsing.
    pub fn label(self) -> &'static str {
        match self {
            BwClass::Half => "half",
            BwClass::Base => "base",
            BwClass::Boost => "boost",
            BwClass::Double => "double",
        }
    }

    /// One-character code used in design-point labels (`h`/`b`/`r`/`d`;
    /// `Boost` keeps the legacy `r`ich mnemonic).
    pub fn code(self) -> char {
        match self {
            BwClass::Half => 'h',
            BwClass::Base => 'b',
            BwClass::Boost => 'r',
            BwClass::Double => 'd',
        }
    }

    /// Parses a CLI-style class name (full label or one-character code).
    ///
    /// # Errors
    ///
    /// Returns the unknown name.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "half" | "h" => Ok(BwClass::Half),
            "base" | "b" => Ok(BwClass::Base),
            "boost" | "rich" | "r" => Ok(BwClass::Boost),
            "double" | "d" => Ok(BwClass::Double),
            other => Err(format!(
                "unknown bandwidth class `{other}` (half|base|boost|double)"
            )),
        }
    }

    /// Scales a switch capacity or a select-bit budget. Identical to the
    /// scalar levels' formulas for the preset classes, so the presets are
    /// bit-exact; monotone non-decreasing in [`BwClass::rank`].
    pub fn scale_capacity(self, capacity: u32) -> u32 {
        match self {
            BwClass::Half => (capacity / 2).max(1),
            BwClass::Base => capacity,
            BwClass::Boost => capacity + capacity.div_ceil(2),
            BwClass::Double => capacity * 2,
        }
    }
}

/// Inter-tile link structure of the NoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Topology {
    /// The published 2D mesh (links between grid neighbours only).
    Mesh,
    /// Mesh plus wraparound links closing every row and every column.
    Torus,
    /// Mesh plus express links skipping `stride` tiles along every row and
    /// column (`stride >= 2`; a stride of 1 is the mesh itself).
    Express {
        /// Tiles an express link skips (>= 2).
        stride: u32,
    },
}

impl Topology {
    /// Label used in design-point names, structured serialization and CLI
    /// parsing: `mesh`, `torus`, `xp{stride}`.
    pub fn label(self) -> String {
        match self {
            Topology::Mesh => "mesh".into(),
            Topology::Torus => "torus".into(),
            Topology::Express { stride } => format!("xp{stride}"),
        }
    }

    /// Deterministic ordinal used for canonical ordering: mesh first, then
    /// torus, then express topologies by stride.
    pub fn rank(self) -> u32 {
        match self {
            Topology::Mesh => 0,
            Topology::Torus => 1,
            Topology::Express { stride } => 2u32.saturating_add(stride),
        }
    }

    /// Extra router select bits a tile pays for this topology's additional
    /// ports. Mesh and torus routers keep the published 4-neighbour port
    /// count (a torus only ever *completes* the four directions at the array
    /// edge); express routers gain one input and one output port per axis,
    /// encoded as four extra select bits.
    pub fn select_bit_overhead(self) -> u32 {
        match self {
            Topology::Mesh | Topology::Torus => 0,
            Topology::Express { .. } => 4,
        }
    }

    /// Whether the topology is structurally valid (express strides below 2
    /// degenerate to the mesh and are rejected at enumeration).
    pub fn is_valid(self) -> bool {
        match self {
            Topology::Mesh | Topology::Torus => true,
            Topology::Express { stride } => stride >= 2,
        }
    }

    /// Parses a CLI-style topology name (`mesh`, `torus`, `express`,
    /// `express:N`, `xpN`).
    ///
    /// # Errors
    ///
    /// Returns the unknown name or a bad stride.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "mesh" => return Ok(Topology::Mesh),
            "torus" => return Ok(Topology::Torus),
            "express" => return Ok(Topology::Express { stride: 2 }),
            _ => {}
        }
        let stride = name
            .strip_prefix("express:")
            .or_else(|| name.strip_prefix("xp"));
        if let Some(s) = stride {
            let stride: u32 = s
                .parse()
                .map_err(|_| format!("bad express stride in `{name}`"))?;
            if stride < 2 {
                return Err(format!("express stride must be >= 2 (got {stride})"));
            }
            return Ok(Topology::Express { stride });
        }
        Err(format!(
            "unknown topology `{name}` (mesh|torus|express[:N]|xpN)"
        ))
    }
}

/// A communication provisioning point: NoC topology and one bandwidth class
/// for every switch.
///
/// The scalar levels survive as the preset constants [`CommSpec::LEAN`],
/// [`CommSpec::ALIGNED`] and [`CommSpec::RICH`] (see the [module
/// docs](self) for the exact table). Presets label and serialize exactly as
/// the scalar levels did, so every artifact keyed on the old encoding —
/// design-point labels, cache keys, fabric signatures, frontier JSON — is
/// unchanged for them, while any other spec carries its topology and class
/// into all of those channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommSpec {
    /// Inter-tile link structure.
    pub topology: Topology,
    /// Bandwidth class of every switch.
    pub bw: BwClass,
}

impl CommSpec {
    /// The `Lean` preset (mesh, half bandwidth): half the switch capacities
    /// and router select bits, an under-provisioned network that saves power
    /// but congests.
    pub const LEAN: CommSpec = CommSpec::uniform(Topology::Mesh, BwClass::Half);
    /// The `Aligned` preset (the as-published network).
    pub const ALIGNED: CommSpec = CommSpec::uniform(Topology::Mesh, BwClass::Base);
    /// The `Rich` preset (mesh, ~1.5× bandwidth): an over-provisioned network
    /// that routes easily but pays for selects it rarely uses (the Figure 2
    /// pathology).
    pub const RICH: CommSpec = CommSpec::uniform(Topology::Mesh, BwClass::Boost);

    /// The three presets, in lean-to-rich order.
    pub fn presets() -> Vec<CommSpec> {
        vec![CommSpec::LEAN, CommSpec::ALIGNED, CommSpec::RICH]
    }

    /// A spec with the given topology and bandwidth class.
    pub const fn uniform(topology: Topology, bw: BwClass) -> Self {
        CommSpec { topology, bw }
    }

    /// Whether the spec is structurally valid (see [`Topology::is_valid`]).
    pub fn is_valid(self) -> bool {
        self.topology.is_valid()
    }

    /// Report label. Presets keep their scalar names (`lean` / `aligned` /
    /// `rich`); other specs read `{topology}` at `Base` bandwidth and
    /// `{topology}-{c}{c}` otherwise, `c` the class's [`BwClass::code`]
    /// (doubled, as when the axis carried one class per link group), e.g.
    /// `torus`, `torus-hh`, `xp2-rr`.
    pub fn label(&self) -> String {
        match *self {
            CommSpec::LEAN => return "lean".to_string(),
            CommSpec::ALIGNED => return "aligned".to_string(),
            CommSpec::RICH => return "rich".to_string(),
            _ => {}
        }
        let mut out = self.topology.label();
        if self.bw != BwClass::Base {
            let code = self.bw.code();
            out.extend(['-', code, code]);
        }
        out
    }

    /// The per-tile router select-bit budget under this spec, from the
    /// published budget `base`: the bandwidth class scales it like a switch
    /// capacity (bit-exact with the scalar levels), and express topologies
    /// add [`Topology::select_bit_overhead`] for their extra ports.
    pub fn select_bits(self, base: u32) -> u32 {
        self.bw.scale_capacity(base) + self.topology.select_bit_overhead()
    }

    /// Canonical *scheduling* order of the communication axis, used by
    /// sweep grouping (`run_sweep_with` evaluates each seed family in this
    /// order). Its metric counterpart — "how far apart are two specs" — is
    /// [`CommSpec::distance`]; the two are deliberately different: the best
    /// spec to evaluate *first* (aligned, whose capacity certificates
    /// transfer furthest) is not in the middle of the proximity scale.
    ///
    /// The as-published `Aligned` preset comes first (its capacity
    /// certificates transfer to both the lean and rich variants when
    /// capacity never binds), then `Lean`, then `Rich` — the historical
    /// schedule. Other specs follow, ordered by topology rank, then
    /// bandwidth, so grouping is total and deterministic for any mix of
    /// specs.
    pub fn order_rank(self) -> u32 {
        match self {
            CommSpec::ALIGNED => 0,
            CommSpec::LEAN => 1,
            CommSpec::RICH => 2,
            // 36 = 32 + 4: the weights of the two link groups the axis once
            // ranked separately, kept so the ranks do not move.
            _ => 3u32
                .saturating_add(self.topology.rank().saturating_mul(256))
                .saturating_add(self.bw.rank() * 36),
        }
    }

    /// Canonical *proximity* of two communication specs, used by the
    /// seed-store provisioning distance: how different the fabrics (and
    /// hence their good placements) are expected to be.
    ///
    /// Bandwidth proximity is twice the [`BwClass::rank`] difference, which
    /// on the presets makes `aligned` nearer to `rich` than `lean` is,
    /// matching the scalar-era metric exactly (one preset step = 2 units).
    /// A topology mismatch adds a large constant (the link structures
    /// differ, so mappings do not translate).
    pub fn distance(self, other: CommSpec) -> u32 {
        let bw = 2 * self.bw.rank().abs_diff(other.bw.rank());
        let topology = if self.topology == other.topology {
            0
        } else {
            24
        };
        bw + topology
    }

    /// The structural family of this spec: bandwidth erased, topology kept.
    /// Two specs share a family exactly when their fabrics are identical up
    /// to switch capacities — the set across which a capacity-certified
    /// placement seed can hope to transfer. All three presets collapse to
    /// [`CommSpec::ALIGNED`].
    pub fn structural_family(self) -> CommSpec {
        CommSpec::uniform(self.topology, BwClass::Base)
    }
}

// Hand-written serde: presets must keep the scalar encoding
// (`"Lean"` / `"Aligned"` / `"Rich"`) byte-for-byte so design points,
// persisted caches and frontier JSON from before the refactor stay valid
// and unchanged; other specs serialize as an object in the encoding of the
// once per-link-group axis (both groups at the spec's class, proportional
// select bits), so their cache keys do not move either.
impl Serialize for CommSpec {
    fn serialize(&self, s: &mut serde::Serializer) {
        let preset = match *self {
            CommSpec::LEAN => Some("Lean"),
            CommSpec::ALIGNED => Some("Aligned"),
            CommSpec::RICH => Some("Rich"),
            _ => None,
        };
        if let Some(name) = preset {
            return s.str(name);
        }
        // Keys in sorted order, like every object the shim writes.
        s.begin_object();
        s.field("global_bw", self.bw.label());
        s.field("local_bw", self.bw.label());
        s.field("select", "proportional");
        s.field("topology", &self.topology.label());
        s.end_object();
    }
}

impl Deserialize for CommSpec {
    fn deserialize(d: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        match d.peek() {
            Some(b'"') => {
                return match &*d.str()? {
                    "Lean" => Ok(CommSpec::LEAN),
                    "Aligned" => Ok(CommSpec::ALIGNED),
                    "Rich" => Ok(CommSpec::RICH),
                    other => Err(serde::Error::custom(format!(
                        "unknown CommSpec preset `{other}`"
                    ))),
                }
            }
            Some(b'{') => {}
            _ => return Err(d.expected("CommSpec string or object")),
        }
        let [mut topology, mut local, mut global, mut select] = [None, None, None, None];
        d.begin_object()?;
        while let Some(key) = d.next_key()? {
            let slot = match &*key {
                "topology" => &mut topology,
                "local_bw" => &mut local,
                "global_bw" => &mut global,
                "select" => &mut select,
                _ => {
                    d.skip()?;
                    continue;
                }
            };
            *slot = Some(d.str()?);
        }
        let field = |slot: Option<_>, name: &str| {
            slot.ok_or_else(|| serde::Error::missing_field("CommSpec", name))
        };
        let topology =
            Topology::parse(&field(topology, "topology")?).map_err(serde::Error::custom)?;
        let local = BwClass::parse(&field(local, "local_bw")?).map_err(serde::Error::custom)?;
        let global = BwClass::parse(&field(global, "global_bw")?).map_err(serde::Error::custom)?;
        if local != global {
            return Err(serde::Error::custom(format!(
                "CommSpec `local_bw` ({}) differs from `global_bw` ({}): \
                 one bandwidth class covers every switch",
                local.label(),
                global.label()
            )));
        }
        let select = field(select, "select")?;
        if select != "proportional" {
            return Err(serde::Error::custom(format!(
                "CommSpec `select` must be `proportional` (got `{select}`)"
            )));
        }
        Ok(CommSpec::uniform(topology, global))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_keep_the_scalar_scaling() {
        let presets = [
            (CommSpec::LEAN, BwClass::Half, "lean"),
            (CommSpec::ALIGNED, BwClass::Base, "aligned"),
            (CommSpec::RICH, BwClass::Boost, "rich"),
        ];
        assert_eq!(
            CommSpec::presets(),
            presets.iter().map(|p| p.0).collect::<Vec<_>>()
        );
        for (spec, bw, label) in presets {
            assert_eq!(spec, CommSpec::uniform(Topology::Mesh, bw));
            assert_eq!(spec.label(), label);
            for bits in [1u32, 23, 37, 44] {
                assert_eq!(spec.select_bits(bits), bw.scale_capacity(bits));
            }
        }
    }

    #[test]
    fn preset_serialization_matches_the_scalar_encoding() {
        for (spec, json) in [
            (CommSpec::LEAN, r#""Lean""#),
            (CommSpec::ALIGNED, r#""Aligned""#),
            (CommSpec::RICH, r#""Rich""#),
        ] {
            assert_eq!(
                serde_json::to_string(&spec).unwrap(),
                json,
                "preset JSON changed"
            );
            let back: CommSpec = serde_json::from_str(json).unwrap();
            assert_eq!(back, spec);
        }
        assert!(serde_json::from_str::<CommSpec>(r#""Medium""#).is_err());
    }

    #[test]
    fn structured_specs_round_trip_through_json() {
        let specs = [
            CommSpec::uniform(Topology::Torus, BwClass::Base),
            CommSpec::uniform(Topology::Express { stride: 3 }, BwClass::Double),
            CommSpec::uniform(Topology::Mesh, BwClass::Double),
        ];
        for spec in specs {
            let json = serde_json::to_string(&spec).unwrap();
            assert!(
                json.contains("topology"),
                "structured form expected: {json}"
            );
            let back: CommSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn reads_both_the_string_and_the_object_form() {
        let preset: CommSpec = serde_json::from_str(r#""Rich""#).unwrap();
        assert_eq!(preset, CommSpec::RICH);
        let text = r#"{"select": "proportional", "topology": "torus", "note": [1, {}],
                       "local_bw": "half", "global_bw": "half"}"#;
        let spec: CommSpec = serde_json::from_str(text).unwrap();
        assert_eq!(spec, CommSpec::uniform(Topology::Torus, BwClass::Half));
        let err = serde_json::from_str::<CommSpec>(r#"{"topology": "torus"}"#).unwrap_err();
        assert!(err.to_string().contains("local_bw"), "{err}");
        assert!(serde_json::from_str::<CommSpec>("3").is_err());
    }

    #[test]
    fn split_bandwidths_and_fixed_selects_are_rejected_by_name() {
        let split = r#"{"global_bw": "boost", "local_bw": "half",
                        "select": "proportional", "topology": "torus"}"#;
        let err = serde_json::from_str::<CommSpec>(split).unwrap_err();
        assert!(err.to_string().contains("local_bw"), "{err}");
        let fixed = r#"{"global_bw": "base", "local_bw": "base",
                        "select": "fixed", "topology": "torus"}"#;
        let err = serde_json::from_str::<CommSpec>(fixed).unwrap_err();
        assert!(err.to_string().contains("select"), "{err}");
        let err = serde_json::from_str::<CommSpec>(
            r#"{"global_bw": "base", "local_bw": "base", "topology": "torus"}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("select"), "{err}");
    }

    #[test]
    fn labels_are_unique_across_a_mixed_axis() {
        let mut specs = CommSpec::presets();
        specs.push(CommSpec::uniform(Topology::Torus, BwClass::Base));
        specs.push(CommSpec::uniform(Topology::Torus, BwClass::Half));
        specs.push(CommSpec::uniform(
            Topology::Express { stride: 2 },
            BwClass::Base,
        ));
        specs.push(CommSpec::uniform(
            Topology::Express { stride: 3 },
            BwClass::Base,
        ));
        specs.push(CommSpec::uniform(Topology::Mesh, BwClass::Double));
        let mut labels: Vec<String> = specs.iter().map(CommSpec::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), specs.len(), "labels collide: {labels:?}");
    }

    #[test]
    fn order_rank_keeps_the_historical_preset_schedule() {
        assert_eq!(CommSpec::ALIGNED.order_rank(), 0);
        assert_eq!(CommSpec::LEAN.order_rank(), 1);
        assert_eq!(CommSpec::RICH.order_rank(), 2);
        // Structured specs follow the presets and order deterministically.
        let torus = CommSpec::uniform(Topology::Torus, BwClass::Base);
        let express = CommSpec::uniform(Topology::Express { stride: 2 }, BwClass::Base);
        assert!(torus.order_rank() > CommSpec::RICH.order_rank());
        assert!(express.order_rank() > torus.order_rank());
        let mut ranks: Vec<u32> = [
            CommSpec::ALIGNED,
            CommSpec::LEAN,
            CommSpec::RICH,
            torus,
            express,
            CommSpec::uniform(Topology::Torus, BwClass::Double),
        ]
        .iter()
        .map(|s| s.order_rank())
        .collect();
        let len = ranks.len();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), len, "order ranks collide");
    }

    #[test]
    fn distance_is_a_bandwidth_proximity_metric() {
        // On the presets, one step = 2 units — the scalar-era metric:
        // aligned is *nearer* to rich than lean is (the scheduling order
        // aligned < lean < rich must not leak into proximity).
        assert_eq!(CommSpec::ALIGNED.distance(CommSpec::ALIGNED), 0);
        assert_eq!(CommSpec::LEAN.distance(CommSpec::ALIGNED), 2);
        assert_eq!(CommSpec::ALIGNED.distance(CommSpec::RICH), 2);
        assert_eq!(CommSpec::LEAN.distance(CommSpec::RICH), 4);
        assert!(
            CommSpec::ALIGNED.distance(CommSpec::RICH) < CommSpec::LEAN.distance(CommSpec::RICH)
        );
        // Symmetric.
        assert_eq!(
            CommSpec::LEAN.distance(CommSpec::RICH),
            CommSpec::RICH.distance(CommSpec::LEAN)
        );
        // A topology mismatch dominates any bandwidth difference.
        let torus = CommSpec::uniform(Topology::Torus, BwClass::Base);
        assert!(CommSpec::ALIGNED.distance(torus) > CommSpec::LEAN.distance(CommSpec::RICH));
        // Same-topology bandwidth siblings stay near across topologies.
        let torus_half = CommSpec::uniform(Topology::Torus, BwClass::Half);
        assert_eq!(torus.distance(torus_half), 2);
    }

    #[test]
    fn bandwidth_scaling_is_monotone_in_class_rank() {
        for window in BwClass::ALL.windows(2) {
            let (lo, hi) = (window[0], window[1]);
            assert!(lo.rank() < hi.rank());
            for value in [1u32, 2, 5, 7, 23, 44] {
                assert!(lo.scale_capacity(value) <= hi.scale_capacity(value));
            }
        }
        // Never scales to zero.
        assert_eq!(BwClass::Half.scale_capacity(1), 1);
    }

    #[test]
    fn express_ports_cost_extra_select_bits() {
        let express = CommSpec::uniform(Topology::Express { stride: 2 }, BwClass::Base);
        assert_eq!(express.select_bits(44), 44 + 4);
        let torus = CommSpec::uniform(Topology::Torus, BwClass::Double);
        assert_eq!(torus.select_bits(44), 88);
    }

    #[test]
    fn structural_family_erases_bandwidth_but_keeps_topology() {
        for spec in CommSpec::presets() {
            assert_eq!(spec.structural_family(), CommSpec::ALIGNED);
        }
        let torus_lean = CommSpec::uniform(Topology::Torus, BwClass::Half);
        let torus_rich = CommSpec::uniform(Topology::Torus, BwClass::Boost);
        assert_eq!(
            torus_lean.structural_family(),
            torus_rich.structural_family()
        );
        assert_ne!(
            torus_lean.structural_family(),
            CommSpec::ALIGNED,
            "topology must survive family erasure"
        );
    }

    #[test]
    fn parsing_accepts_cli_spellings() {
        assert_eq!(Topology::parse("mesh").unwrap(), Topology::Mesh);
        assert_eq!(Topology::parse("torus").unwrap(), Topology::Torus);
        assert_eq!(
            Topology::parse("express").unwrap(),
            Topology::Express { stride: 2 }
        );
        assert_eq!(
            Topology::parse("express:4").unwrap(),
            Topology::Express { stride: 4 }
        );
        assert_eq!(
            Topology::parse("xp3").unwrap(),
            Topology::Express { stride: 3 }
        );
        assert!(Topology::parse("xp1").is_err());
        assert!(Topology::parse("ring").is_err());
        assert_eq!(BwClass::parse("boost").unwrap(), BwClass::Boost);
        assert_eq!(BwClass::parse("h").unwrap(), BwClass::Half);
        assert!(BwClass::parse("mega").is_err());
        assert!(!Topology::Express { stride: 1 }.is_valid());
        assert!(Topology::Express { stride: 2 }.is_valid());
    }
}
