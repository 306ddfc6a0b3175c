//! The structured communication axis: per-link-group bandwidth classes,
//! NoC topology variants and select-bit policies.
//!
//! Historically the communication axis was a single 3-valued scalar that
//! scaled every switch capacity and every router select bit uniformly. That
//! cannot express BandMap-style per-link bandwidth allocation (different
//! provisioning for the intra-tile network and the global mesh) or NoC
//! topology variants (torus wraparound, express links). [`CommSpec`] is the
//! enumerable axis:
//!
//! * [`Topology`] — the inter-tile link structure: the published mesh, a
//!   torus (wraparound links closing every row and column), or express
//!   links (additional links skipping `stride` tiles along rows and
//!   columns);
//! * [`LinkBw`] — one [`BwClass`] per link-direction *group*: the local
//!   group (intra-tile switches: Plaid local routers and ALU bypass paths)
//!   and the global group (the per-tile router that faces the mesh —
//!   Plaid global routers and baseline PE crossbars);
//! * [`SelectPolicy`] — whether the router select-bit budget in the
//!   [`crate::ConfigBudget`] tracks the provisioned bandwidth
//!   (`Proportional`, the historical behaviour) or stays at the published
//!   budget (`Fixed`).
//!
//! # The presets
//!
//! The three scalar levels survive as the preset constants
//! [`CommSpec::LEAN`], [`CommSpec::ALIGNED`] and [`CommSpec::RICH`]:
//!
//! | preset    | topology | local bw | global bw | select policy  |
//! |-----------|----------|----------|-----------|----------------|
//! | `LEAN`    | mesh     | half     | half      | proportional   |
//! | `ALIGNED` | mesh     | base     | base      | proportional   |
//! | `RICH`    | mesh     | boost    | boost     | proportional   |
//!
//! A preset scales every switch with the same formula the scalar level
//! used, adds no links, and keeps the scalar label (`lean` / `aligned` /
//! `rich`) and serialized form (`"Lean"` / `"Aligned"` / `"Rich"`), so
//! design points, cache keys, fabric signatures and frontier JSON produced
//! under the scalar encoding are byte-for-byte unchanged. Non-preset specs
//! serialize as a structured object and label themselves by topology and
//! bandwidth codes, so no two distinct specs can alias one cache key or one
//! fabric.

use serde::{Deserialize, Serialize};

/// A per-link-group bandwidth class: the multiplier applied to switch
/// capacities (and, under [`SelectPolicy::Proportional`], to router select
/// bits) of the links in that group.
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

    /// Scales a switch capacity. Identical to the scalar levels' formulas for
    /// the preset classes, so the presets are bit-exact; monotone
    /// non-decreasing in [`BwClass::rank`].
    pub fn scale_capacity(self, capacity: u32) -> u32 {
        match self {
            BwClass::Half => (capacity / 2).max(1),
            BwClass::Base => capacity,
            BwClass::Boost => capacity + capacity.div_ceil(2),
            BwClass::Double => capacity * 2,
        }
    }

    /// Scales a select-bit budget; same formulas as [`Self::scale_capacity`].
    pub fn scale_bits(self, bits: u32) -> u32 {
        self.scale_capacity(bits)
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

/// Select-bit policy: how the communication configuration budget follows the
/// provisioned bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SelectPolicy {
    /// Select bits scale with the bandwidth classes (the historical
    /// behaviour of the scalar levels): leaner networks also spend fewer
    /// configuration bits per cycle.
    Proportional,
    /// Select bits stay at the published budget regardless of bandwidth —
    /// models a fixed encoding that cannot shrink with the datapath.
    Fixed,
}

impl SelectPolicy {
    /// Label used in structured serialization.
    pub fn label(self) -> &'static str {
        match self {
            SelectPolicy::Proportional => "proportional",
            SelectPolicy::Fixed => "fixed",
        }
    }

    /// Parses a serialized policy label.
    ///
    /// # Errors
    ///
    /// Returns the unknown name.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "proportional" => Ok(SelectPolicy::Proportional),
            "fixed" => Ok(SelectPolicy::Fixed),
            other => Err(format!(
                "unknown select policy `{other}` (proportional|fixed)"
            )),
        }
    }
}

/// A link-direction group: which part of the fabric a switch serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkGroup {
    /// Intra-tile switches: Plaid local routers and ALU bypass paths.
    Local,
    /// The per-tile mesh-facing router: Plaid global routers and baseline PE
    /// crossbars.
    Global,
}

/// One bandwidth class per link-direction group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkBw {
    /// Bandwidth class of the local (intra-tile) group.
    pub local: BwClass,
    /// Bandwidth class of the global (inter-tile) group.
    pub global: BwClass,
}

impl LinkBw {
    /// The as-published allocation (`Base` on both groups).
    pub const BASE: LinkBw = LinkBw {
        local: BwClass::Base,
        global: BwClass::Base,
    };

    /// The same class on both groups (what the presets use).
    pub fn uniform(class: BwClass) -> Self {
        LinkBw {
            local: class,
            global: class,
        }
    }

    /// The class of one group.
    pub fn class(self, group: LinkGroup) -> BwClass {
        match group {
            LinkGroup::Local => self.local,
            LinkGroup::Global => self.global,
        }
    }
}

/// A structured communication provisioning point: topology, per-link-group
/// bandwidth and select-bit policy.
///
/// The scalar levels survive as the preset constants [`CommSpec::LEAN`],
/// [`CommSpec::ALIGNED`] and [`CommSpec::RICH`] (see the [module
/// docs](self) for the exact table). Presets label and serialize exactly as
/// the scalar levels did, so every artifact keyed on the old encoding —
/// design-point labels, cache keys, fabric signatures, frontier JSON — is
/// unchanged for them, while any non-preset spec carries its full structure
/// into all of those channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommSpec {
    /// Inter-tile link structure.
    pub topology: Topology,
    /// Bandwidth class per link-direction group.
    pub link_bw: LinkBw,
    /// How select bits follow bandwidth.
    pub select_policy: SelectPolicy,
}

impl CommSpec {
    /// The `Lean` preset (mesh, half bandwidth everywhere): half the switch
    /// capacities and router select bits, an under-provisioned network that
    /// saves power but congests.
    pub const LEAN: CommSpec = CommSpec {
        topology: Topology::Mesh,
        link_bw: LinkBw {
            local: BwClass::Half,
            global: BwClass::Half,
        },
        select_policy: SelectPolicy::Proportional,
    };
    /// The `Aligned` preset (the as-published network).
    pub const ALIGNED: CommSpec = CommSpec {
        topology: Topology::Mesh,
        link_bw: LinkBw::BASE,
        select_policy: SelectPolicy::Proportional,
    };
    /// The `Rich` preset (mesh, ~1.5× bandwidth everywhere): an
    /// over-provisioned network that routes easily but pays for selects it
    /// rarely uses (the Figure 2 pathology).
    pub const RICH: CommSpec = CommSpec {
        topology: Topology::Mesh,
        link_bw: LinkBw {
            local: BwClass::Boost,
            global: BwClass::Boost,
        },
        select_policy: SelectPolicy::Proportional,
    };

    /// The three presets, in lean-to-rich order.
    pub fn presets() -> Vec<CommSpec> {
        vec![CommSpec::LEAN, CommSpec::ALIGNED, CommSpec::RICH]
    }

    /// A spec with the given topology, one bandwidth class on both groups
    /// and proportional select bits.
    pub fn uniform(topology: Topology, bw: BwClass) -> Self {
        CommSpec {
            topology,
            link_bw: LinkBw::uniform(bw),
            select_policy: SelectPolicy::Proportional,
        }
    }

    /// Whether the spec is structurally valid (see [`Topology::is_valid`]).
    pub fn is_valid(self) -> bool {
        self.topology.is_valid()
    }

    /// Report label. Presets keep their scalar names (`lean` / `aligned` /
    /// `rich`); structured specs read `{topology}[-{local}{global}][-fix]`,
    /// e.g. `torus`, `xp2-hr`, `torus-bb-fix` — with the bandwidth segment
    /// present whenever the allocation is not `Base`/`Base` (one-character
    /// [`BwClass::code`]s, local then global).
    pub fn label(&self) -> String {
        match *self {
            CommSpec::LEAN => return "lean".to_string(),
            CommSpec::ALIGNED => return "aligned".to_string(),
            CommSpec::RICH => return "rich".to_string(),
            _ => {}
        }
        let mut out = self.topology.label();
        if self.link_bw != LinkBw::BASE {
            out.push('-');
            out.push(self.link_bw.local.code());
            out.push(self.link_bw.global.code());
        }
        if self.select_policy == SelectPolicy::Fixed {
            out.push_str("-fix");
        }
        out
    }

    /// Scales the published capacity of a switch in `group`.
    pub fn scale_capacity(self, group: LinkGroup, capacity: u32) -> u32 {
        self.link_bw.class(group).scale_capacity(capacity).max(1)
    }

    /// The per-tile router select-bit budget under this spec, from the
    /// published budget `base`.
    ///
    /// Under [`SelectPolicy::Proportional`] a uniform allocation applies the
    /// class's legacy formula directly (bit-exact with the scalar levels); a
    /// split allocation charges each group its own class over half the
    /// budget. [`SelectPolicy::Fixed`] keeps `base`. Express topologies add
    /// [`Topology::select_bit_overhead`] on top for their extra ports.
    pub fn select_bits(self, base: u32) -> u32 {
        let scaled = match self.select_policy {
            SelectPolicy::Fixed => base,
            SelectPolicy::Proportional => {
                if self.link_bw.local == self.link_bw.global {
                    self.link_bw.local.scale_bits(base)
                } else {
                    let local_share = base / 2;
                    let global_share = base - local_share;
                    self.link_bw.local.scale_bits(local_share)
                        + self.link_bw.global.scale_bits(global_share)
                }
            }
        };
        scaled + self.topology.select_bit_overhead()
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
    /// schedule. Structured specs follow, ordered by topology rank, then
    /// local and global bandwidth, then select policy, so grouping is total
    /// and deterministic for any mix of specs.
    pub fn order_rank(self) -> u32 {
        if self == CommSpec::ALIGNED {
            return 0;
        }
        if self == CommSpec::LEAN {
            return 1;
        }
        if self == CommSpec::RICH {
            return 2;
        }
        3u32.saturating_add(self.topology.rank().saturating_mul(256))
            .saturating_add(self.link_bw.local.rank() * 32)
            .saturating_add(self.link_bw.global.rank() * 4)
            .saturating_add(match self.select_policy {
                SelectPolicy::Proportional => 0,
                SelectPolicy::Fixed => 1,
            })
    }

    /// Canonical *proximity* of two communication specs, used by the
    /// seed-store provisioning distance: how different the fabrics (and
    /// hence their good placements) are expected to be.
    ///
    /// Bandwidth proximity is the summed *per-group* [`BwClass::rank`]
    /// difference — each group compared on its own, so an asymmetric
    /// half/boost allocation is never distance 0 from the uniform base
    /// allocation — which on the uniform presets makes `aligned` nearer to
    /// `rich` than `lean` is, matching the scalar-era metric exactly (one
    /// preset step = 2 units). A topology mismatch adds a large constant
    /// (the link structures differ, so mappings do not translate) and a
    /// select-policy mismatch a small one (cost-only difference).
    pub fn distance(self, other: CommSpec) -> u32 {
        let group = |a: BwClass, b: BwClass| a.rank().abs_diff(b.rank());
        let bw = group(self.link_bw.local, other.link_bw.local)
            + group(self.link_bw.global, other.link_bw.global);
        let topology = if self.topology == other.topology {
            0
        } else {
            24
        };
        let select = u32::from(self.select_policy != other.select_policy);
        bw.saturating_add(topology).saturating_add(select)
    }

    /// The structural family of this spec: bandwidth and select policy
    /// erased, topology kept. Two specs share a family exactly when their
    /// fabrics are identical up to switch capacities — the set across which
    /// a capacity-certified placement seed can hope to transfer. All three
    /// presets collapse to [`CommSpec::ALIGNED`].
    pub fn structural_family(self) -> CommSpec {
        CommSpec {
            topology: self.topology,
            link_bw: LinkBw::BASE,
            select_policy: SelectPolicy::Proportional,
        }
    }
}

// Hand-written serde: presets must keep the scalar encoding
// (`"Lean"` / `"Aligned"` / `"Rich"`) byte-for-byte so design points,
// persisted caches and frontier JSON from before the refactor stay valid
// and unchanged; structured specs serialize as a labelled object.
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
        s.field("global_bw", self.link_bw.global.label());
        s.field("local_bw", self.link_bw.local.label());
        s.field("select", self.select_policy.label());
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
        let select_policy =
            SelectPolicy::parse(&field(select, "select")?).map_err(serde::Error::custom)?;
        Ok(CommSpec {
            topology,
            link_bw: LinkBw { local, global },
            select_policy,
        })
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
            for capacity in [1u32, 2, 5, 7, 8] {
                assert_eq!(
                    spec.scale_capacity(LinkGroup::Local, capacity),
                    bw.scale_capacity(capacity)
                );
                assert_eq!(
                    spec.scale_capacity(LinkGroup::Global, capacity),
                    bw.scale_capacity(capacity)
                );
            }
            for bits in [1u32, 23, 37, 44] {
                assert_eq!(spec.select_bits(bits), bw.scale_bits(bits));
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
            CommSpec {
                topology: Topology::Torus,
                link_bw: LinkBw {
                    local: BwClass::Half,
                    global: BwClass::Boost,
                },
                select_policy: SelectPolicy::Fixed,
            },
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
        let text = r#"{"select": "fixed", "topology": "torus", "note": [1, {}],
                       "local_bw": "half", "global_bw": "boost"}"#;
        let spec: CommSpec = serde_json::from_str(text).unwrap();
        assert_eq!(
            spec,
            CommSpec {
                topology: Topology::Torus,
                link_bw: LinkBw {
                    local: BwClass::Half,
                    global: BwClass::Boost,
                },
                select_policy: SelectPolicy::Fixed,
            }
        );
        let err = serde_json::from_str::<CommSpec>(r#"{"topology": "torus"}"#).unwrap_err();
        assert!(err.to_string().contains("local_bw"), "{err}");
        assert!(serde_json::from_str::<CommSpec>("3").is_err());
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
        specs.push(CommSpec {
            topology: Topology::Torus,
            link_bw: LinkBw::BASE,
            select_policy: SelectPolicy::Fixed,
        });
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
            CommSpec {
                topology: Topology::Torus,
                link_bw: LinkBw::BASE,
                select_policy: SelectPolicy::Fixed,
            },
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
        // Per-group comparison: an asymmetric half/boost allocation is NOT
        // distance 0 from the uniform base one (their rank *sums* tie).
        let skewed = CommSpec {
            topology: Topology::Mesh,
            link_bw: LinkBw {
                local: BwClass::Half,
                global: BwClass::Boost,
            },
            select_policy: SelectPolicy::Proportional,
        };
        assert_eq!(CommSpec::ALIGNED.distance(skewed), 2);
        let mirrored = CommSpec {
            link_bw: LinkBw {
                local: BwClass::Boost,
                global: BwClass::Half,
            },
            ..skewed
        };
        assert_eq!(skewed.distance(mirrored), 4);
    }

    #[test]
    fn bandwidth_scaling_is_monotone_in_class_rank() {
        for window in BwClass::ALL.windows(2) {
            let (lo, hi) = (window[0], window[1]);
            assert!(lo.rank() < hi.rank());
            for value in [1u32, 2, 5, 7, 23, 44] {
                assert!(lo.scale_capacity(value) <= hi.scale_capacity(value));
                assert!(lo.scale_bits(value) <= hi.scale_bits(value));
            }
        }
        // Never scales to zero.
        assert_eq!(BwClass::Half.scale_capacity(1), 1);
    }

    #[test]
    fn split_allocations_price_each_group() {
        let asymmetric = CommSpec {
            topology: Topology::Mesh,
            link_bw: LinkBw {
                local: BwClass::Half,
                global: BwClass::Double,
            },
            select_policy: SelectPolicy::Proportional,
        };
        let bits = asymmetric.select_bits(44);
        // Between the uniform extremes.
        assert!(bits > CommSpec::LEAN.select_bits(44));
        assert!(bits < CommSpec::uniform(Topology::Mesh, BwClass::Double).select_bits(44));
        // Fixed policy pins the budget regardless of bandwidth.
        let fixed = CommSpec {
            select_policy: SelectPolicy::Fixed,
            ..asymmetric
        };
        assert_eq!(fixed.select_bits(44), 44);
        // Express ports cost extra selects.
        let express = CommSpec::uniform(Topology::Express { stride: 2 }, BwClass::Base);
        assert_eq!(express.select_bits(44), 44 + 4);
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
