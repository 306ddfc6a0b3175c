//! The [`Architecture`] type: a routing-resource-graph description of a CGRA.

use std::collections::HashMap;

use crate::params::{ArchParams, HardwiredPattern};
use crate::resource::{FuCaps, Link, Resource, ResourceId, ResourceKind};

/// Broad class of CGRA execution paradigm.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum ArchClass {
    /// Per-cycle reconfigurable PE array (ADRES/HyCUBE style).
    SpatioTemporal,
    /// Fixed configuration per DFG partition (SNAFU/RipTide style).
    Spatial,
    /// The paper's hierarchical PCU array.
    Plaid,
}

impl ArchClass {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ArchClass::SpatioTemporal => "spatio-temporal",
            ArchClass::Spatial => "spatial",
            ArchClass::Plaid => "plaid",
        }
    }
}

/// Physical position of a tile (PE or PCU) on the die, in tile units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Position {
    /// Column index.
    pub x: u32,
    /// Row index.
    pub y: u32,
}

impl Position {
    /// Manhattan distance to another tile.
    pub fn manhattan(self, other: Position) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

/// A group of functional units sharing local interconnect.
///
/// For Plaid a cluster is one PCU (three ALUs + one ALSU + local and global
/// routers). For the baseline CGRAs each PE forms a degenerate cluster with a
/// single ALU and its crossbar router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// Tile index of the cluster.
    pub tile: usize,
    /// ALU resources, ordered left to right (bypass paths connect neighbours).
    pub alus: Vec<ResourceId>,
    /// The ALSU (memory-capable functional unit), if the cluster has one.
    pub alsu: Option<ResourceId>,
    /// Local (intra-cluster) router, if any.
    pub local_router: Option<ResourceId>,
    /// Global router connecting the cluster to the mesh.
    pub global_router: ResourceId,
    /// Hardwired motif pattern for domain-specialized PCUs (Section 4.4).
    pub hardwired: Option<HardwiredPattern>,
}

impl Cluster {
    /// All functional units of the cluster.
    pub fn func_units(&self) -> Vec<ResourceId> {
        let mut fus = self.alus.clone();
        if let Some(alsu) = self.alsu {
            fus.push(alsu);
        }
        fus
    }
}

/// A complete CGRA instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Architecture {
    name: String,
    class: ArchClass,
    params: ArchParams,
    resources: Vec<Resource>,
    links: Vec<Link>,
    clusters: Vec<Cluster>,
    tile_positions: Vec<Position>,
    out_adjacency: Vec<Vec<usize>>,
    in_adjacency: Vec<Vec<usize>>,
    /// Compute-capable functional units, ascending by id.
    compute_units: Vec<ResourceId>,
    /// Memory-capable functional units, ascending by id.
    memory_units: Vec<ResourceId>,
}

impl Architecture {
    /// Architecture name, e.g. `"plaid-2x2"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Execution-paradigm class.
    pub fn class(&self) -> ArchClass {
        self.class
    }

    /// Structural and sizing parameters.
    pub fn params(&self) -> &ArchParams {
        &self.params
    }

    /// All routing resources.
    pub fn resources(&self) -> &[Resource] {
        &self.resources
    }

    /// Resource by id.
    pub fn resource(&self, id: ResourceId) -> &Resource {
        &self.resources[id.0 as usize]
    }

    /// All directed links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Clusters (PCUs, or single-PE clusters for the baselines).
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Position of a tile.
    pub fn tile_position(&self, tile: usize) -> Position {
        self.tile_positions[tile]
    }

    /// Position of the tile owning a resource.
    pub fn resource_position(&self, id: ResourceId) -> Position {
        self.tile_position(self.resource(id).tile)
    }

    /// Manhattan distance, in tiles, between the tiles owning two resources.
    pub fn resource_distance(&self, a: ResourceId, b: ResourceId) -> u32 {
        self.resource_position(a)
            .manhattan(self.resource_position(b))
    }

    /// Iterator over all functional units.
    pub fn functional_units(&self) -> impl Iterator<Item = &Resource> {
        self.resources.iter().filter(|r| r.kind.is_func_unit())
    }

    /// Number of functional units capable of compute operations.
    pub fn compute_unit_count(&self) -> usize {
        self.compute_units.len()
    }

    /// Number of functional units capable of memory operations.
    pub fn memory_unit_count(&self) -> usize {
        self.memory_units.len()
    }

    /// Functional units able to execute a node with the given requirements,
    /// ascending by id. Both lists are built once, with the fabric.
    pub fn units_supporting(&self, needs_memory: bool) -> &[ResourceId] {
        if needs_memory {
            &self.memory_units
        } else {
            &self.compute_units
        }
    }

    /// Links leaving `id`.
    pub fn out_links(&self, id: ResourceId) -> impl Iterator<Item = &Link> {
        self.out_adjacency[id.0 as usize]
            .iter()
            .map(move |&i| &self.links[i])
    }

    /// Links arriving at `id`.
    pub fn in_links(&self, id: ResourceId) -> impl Iterator<Item = &Link> {
        self.in_adjacency[id.0 as usize]
            .iter()
            .map(move |&i| &self.links[i])
    }

    /// Whether `id` can hold a value across cycles: it has a one-cycle
    /// self-link.
    pub fn holds(&self, id: ResourceId) -> bool {
        self.out_links(id).any(|l| l.to == id && l.latency == 1)
    }

    /// Checks internal consistency: link endpoints exist, no link joins two
    /// functional units (values travel between units through switches only,
    /// which the router's first-hop and reachability tables rely on), every
    /// switch a switch links into [`holds`](Self::holds) (so a route can
    /// wait at any switch after its first, which the router's reachability
    /// latencies rely on), every functional unit has at least one incoming
    /// and one outgoing link, every cluster references valid resources, and
    /// capacities are non-zero.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on the first violated invariant;
    /// builders call this before returning, so a panic indicates a bug in an
    /// architecture builder rather than user error.
    pub fn assert_consistent(&self) {
        for link in &self.links {
            assert!(
                (link.from.0 as usize) < self.resources.len(),
                "link source {} out of range",
                link.from
            );
            assert!(
                (link.to.0 as usize) < self.resources.len(),
                "link destination {} out of range",
                link.to
            );
            assert!(
                !(self.resource(link.from).kind.is_func_unit()
                    && self.resource(link.to).kind.is_func_unit()),
                "link {} -> {} joins two functional units",
                link.from,
                link.to
            );
            assert!(
                self.resource(link.from).kind.is_func_unit()
                    || self.resource(link.to).kind.is_func_unit()
                    || self.holds(link.to),
                "switch {} links into switch {}, which has no one-cycle self-link",
                link.from,
                link.to
            );
        }
        for r in &self.resources {
            assert!(
                r.kind.capacity() > 0,
                "resource {} has zero capacity",
                r.name
            );
            if r.kind.is_func_unit() {
                assert!(
                    self.out_links(r.id).next().is_some(),
                    "functional unit {} has no outgoing link",
                    r.name
                );
                assert!(
                    self.in_links(r.id).next().is_some(),
                    "functional unit {} has no incoming link",
                    r.name
                );
            }
        }
        for c in &self.clusters {
            for fu in c.func_units() {
                assert!(
                    self.resource(fu).kind.is_func_unit(),
                    "cluster {} lists non-FU resource {}",
                    c.tile,
                    fu
                );
            }
            assert!(
                c.tile < self.tile_positions.len(),
                "cluster tile out of range"
            );
        }
    }
}

/// Clones an architecture under a new name and parameters, passing every
/// switch capacity through `scale_capacity`.
///
/// This is the shared mechanism behind domain specialization
/// ([`crate::specialize`]) and communication re-provisioning
/// ([`crate::enumerate`]): the fabric topology is preserved while the sizing
/// knobs change. Rebuilding goes through [`ArchBuilder`] so the consistency
/// checks re-run; resource ids are preserved because the original builder
/// allocated them densely. For re-provisioning under a communication spec
/// (torus/express topology links) see [`rebuild_with_comm`].
pub fn rebuild_provisioned(
    arch: &Architecture,
    name: impl Into<String>,
    params: ArchParams,
    scale_capacity: impl Fn(u32) -> u32,
) -> Architecture {
    rebuild_scaled(arch, name, params, scale_capacity).build()
}

/// Clones an architecture under a [`crate::comm::CommSpec`]: every switch
/// capacity is scaled by the spec's bandwidth class, and the spec's
/// [`crate::comm::Topology`] contributes its extra inter-tile links
/// (torus wraparound closing every row and column, or express links skipping
/// `stride` tiles) between cluster global routers, registered at one cycle
/// like the mesh links they augment.
///
/// For the legacy preset specs (mesh topology) this is bit-identical to
/// [`rebuild_provisioned`] with the scalar scaling closure: the same
/// capacities in the same resource order, no extra links.
pub fn rebuild_with_comm(
    arch: &Architecture,
    name: impl Into<String>,
    params: ArchParams,
    spec: &crate::comm::CommSpec,
) -> Architecture {
    use crate::comm::Topology;
    let mut b = rebuild_scaled(arch, name, params, |c| spec.bw.scale_capacity(c));
    // Topology links run between cluster global routers, addressed by grid
    // position. Appended after the copied links so preset (mesh) rebuilds
    // keep the exact legacy link order; the builder deduplicates, so a
    // wraparound that coincides with an existing mesh link (2-wide arrays)
    // adds nothing.
    let router_at: HashMap<(u32, u32), ResourceId> = arch
        .clusters()
        .iter()
        .map(|c| {
            let p = arch.tile_position(c.tile);
            ((p.x, p.y), c.global_router)
        })
        .collect();
    let cols = arch
        .tile_positions
        .iter()
        .map(|p| p.x + 1)
        .max()
        .unwrap_or(0);
    let rows = arch
        .tile_positions
        .iter()
        .map(|p| p.y + 1)
        .max()
        .unwrap_or(0);
    let mut connect = |a: (u32, u32), z: (u32, u32)| {
        if let (Some(&from), Some(&to)) = (router_at.get(&a), router_at.get(&z)) {
            if from != to {
                b.bidirectional(from, to, 1);
            }
        }
    };
    match spec.topology {
        Topology::Mesh => {}
        Topology::Torus => {
            for y in 0..rows {
                connect((0, y), (cols.saturating_sub(1), y));
            }
            for x in 0..cols {
                connect((x, 0), (x, rows.saturating_sub(1)));
            }
        }
        Topology::Express { stride } => {
            for y in 0..rows {
                for x in 0..cols.saturating_sub(stride) {
                    connect((x, y), (x + stride, y));
                }
            }
            for x in 0..cols {
                for y in 0..rows.saturating_sub(stride) {
                    connect((x, y), (x, y + stride));
                }
            }
        }
    }
    b.build()
}

/// Shared clone loop of [`rebuild_provisioned`] and [`rebuild_with_comm`]:
/// copies tiles, resources (switch capacities through `scale_capacity`,
/// clamped to 1), links and clusters into a fresh builder, which the caller
/// finalizes (optionally after adding topology links).
fn rebuild_scaled(
    arch: &Architecture,
    name: impl Into<String>,
    params: ArchParams,
    scale_capacity: impl Fn(u32) -> u32,
) -> ArchBuilder {
    let mut b = ArchBuilder::new(name, arch.class(), params);
    for tile in 0..arch.tile_positions.len() {
        let _ = b.add_tile(arch.tile_position(tile));
    }
    for r in arch.resources() {
        match r.kind {
            crate::resource::ResourceKind::FuncUnit(caps) => {
                b.add_func_unit(r.tile, r.name.clone(), caps);
            }
            crate::resource::ResourceKind::Switch { capacity } => {
                b.add_switch(r.tile, r.name.clone(), scale_capacity(capacity).max(1));
            }
        }
    }
    for l in arch.links() {
        b.link(l.from, l.to, l.latency);
    }
    for c in arch.clusters() {
        b.add_cluster(c.clone());
    }
    b
}

/// Incremental builder used by the architecture constructors in this crate.
#[derive(Debug, Default)]
pub struct ArchBuilder {
    name: String,
    class: Option<ArchClass>,
    params: Option<ArchParams>,
    resources: Vec<Resource>,
    links: Vec<Link>,
    clusters: Vec<Cluster>,
    tile_positions: Vec<Position>,
    link_keys: HashMap<(u32, u32), usize>,
}

impl ArchBuilder {
    /// Starts a new architecture description.
    pub fn new(name: impl Into<String>, class: ArchClass, params: ArchParams) -> Self {
        ArchBuilder {
            name: name.into(),
            class: Some(class),
            params: Some(params),
            ..Default::default()
        }
    }

    /// Registers a tile at a grid position and returns its index.
    pub fn add_tile(&mut self, position: Position) -> usize {
        self.tile_positions.push(position);
        self.tile_positions.len() - 1
    }

    /// Adds a functional unit to a tile.
    pub fn add_func_unit(
        &mut self,
        tile: usize,
        name: impl Into<String>,
        caps: FuCaps,
    ) -> ResourceId {
        self.add_resource(tile, name, ResourceKind::FuncUnit(caps))
    }

    /// Adds a switch to a tile.
    pub fn add_switch(
        &mut self,
        tile: usize,
        name: impl Into<String>,
        capacity: u32,
    ) -> ResourceId {
        self.add_resource(tile, name, ResourceKind::Switch { capacity })
    }

    fn add_resource(
        &mut self,
        tile: usize,
        name: impl Into<String>,
        kind: ResourceKind,
    ) -> ResourceId {
        let id = ResourceId(self.resources.len() as u32);
        self.resources.push(Resource {
            id,
            name: name.into(),
            kind,
            tile,
        });
        id
    }

    /// Adds a directed link (idempotent: duplicate links are ignored).
    pub fn link(&mut self, from: ResourceId, to: ResourceId, latency: u32) {
        if self.link_keys.contains_key(&(from.0, to.0)) {
            return;
        }
        self.link_keys.insert((from.0, to.0), self.links.len());
        self.links.push(Link { from, to, latency });
    }

    /// Adds a pair of directed links in both directions.
    pub fn bidirectional(&mut self, a: ResourceId, b: ResourceId, latency: u32) {
        self.link(a, b, latency);
        self.link(b, a, latency);
    }

    /// Registers a cluster.
    pub fn add_cluster(&mut self, cluster: Cluster) {
        self.clusters.push(cluster);
    }

    /// Finalizes the architecture, computing adjacency tables and checking
    /// consistency.
    pub fn build(self) -> Architecture {
        let mut out_adjacency = vec![Vec::new(); self.resources.len()];
        let mut in_adjacency = vec![Vec::new(); self.resources.len()];
        for (i, link) in self.links.iter().enumerate() {
            out_adjacency[link.from.0 as usize].push(i);
            in_adjacency[link.to.0 as usize].push(i);
        }
        let units = |capable: fn(FuCaps) -> bool| {
            self.resources
                .iter()
                .filter(|r| r.fu_caps().is_some_and(capable))
                .map(|r| r.id)
                .collect()
        };
        let compute_units = units(|c| c.compute);
        let memory_units = units(|c| c.memory);
        let arch = Architecture {
            name: self.name,
            class: self.class.expect("class set in ArchBuilder::new"),
            params: self.params.expect("params set in ArchBuilder::new"),
            resources: self.resources,
            links: self.links,
            clusters: self.clusters,
            tile_positions: self.tile_positions,
            out_adjacency,
            in_adjacency,
            compute_units,
            memory_units,
        };
        arch.assert_consistent();
        arch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ArchParams;

    fn tiny_arch() -> Architecture {
        let mut b = ArchBuilder::new(
            "tiny",
            ArchClass::SpatioTemporal,
            ArchParams::baseline(1, 2),
        );
        let t0 = b.add_tile(Position { x: 0, y: 0 });
        let t1 = b.add_tile(Position { x: 1, y: 0 });
        let fu0 = b.add_func_unit(t0, "pe0.fu", FuCaps::ALSU);
        let r0 = b.add_switch(t0, "pe0.router", 4);
        let fu1 = b.add_func_unit(t1, "pe1.fu", FuCaps::ALU);
        let r1 = b.add_switch(t1, "pe1.router", 4);
        b.bidirectional(fu0, r0, 0);
        b.bidirectional(fu1, r1, 0);
        b.bidirectional(r0, r1, 1);
        b.link(r0, r0, 1);
        b.link(r1, r1, 1);
        b.add_cluster(Cluster {
            tile: t0,
            alus: vec![fu0],
            alsu: None,
            local_router: None,
            global_router: r0,
            hardwired: None,
        });
        b.add_cluster(Cluster {
            tile: t1,
            alus: vec![fu1],
            alsu: None,
            local_router: None,
            global_router: r1,
            hardwired: None,
        });
        b.build()
    }

    #[test]
    fn builder_produces_consistent_architecture() {
        let arch = tiny_arch();
        assert_eq!(arch.resources().len(), 4);
        assert_eq!(arch.functional_units().count(), 2);
        assert_eq!(arch.clusters().len(), 2);
    }

    #[test]
    fn capability_queries() {
        let arch = tiny_arch();
        assert_eq!(arch.compute_unit_count(), 2);
        assert_eq!(arch.memory_unit_count(), 1);
        assert_eq!(arch.units_supporting(true), &[ResourceId(0)]);
        assert_eq!(
            arch.units_supporting(false),
            &[ResourceId(0), ResourceId(2)]
        );
    }

    #[test]
    fn adjacency_and_distance() {
        let arch = tiny_arch();
        let fu0 = ResourceId(0);
        let r0 = ResourceId(1);
        let fu1 = ResourceId(2);
        assert!(arch.out_links(fu0).any(|l| l.to == r0));
        assert!(arch.in_links(fu0).any(|l| l.from == r0));
        assert_eq!(arch.resource_distance(fu0, fu1), 1);
        assert_eq!(arch.resource_distance(fu0, fu0), 0);
    }

    #[test]
    fn duplicate_links_are_ignored() {
        let mut b = ArchBuilder::new("dup", ArchClass::SpatioTemporal, ArchParams::baseline(1, 1));
        let t0 = b.add_tile(Position { x: 0, y: 0 });
        let fu = b.add_func_unit(t0, "fu", FuCaps::ALSU);
        let r = b.add_switch(t0, "router", 2);
        b.bidirectional(fu, r, 0);
        b.link(fu, r, 0);
        b.link(fu, r, 0);
        b.add_cluster(Cluster {
            tile: t0,
            alus: vec![fu],
            alsu: None,
            local_router: None,
            global_router: r,
            hardwired: None,
        });
        let arch = b.build();
        assert_eq!(arch.links().len(), 2);
    }

    #[test]
    #[should_panic(expected = "joins two functional units")]
    fn links_between_functional_units_are_rejected() {
        let mut b = ArchBuilder::new(
            "fu2fu",
            ArchClass::SpatioTemporal,
            ArchParams::baseline(1, 1),
        );
        let t0 = b.add_tile(Position { x: 0, y: 0 });
        let fu0 = b.add_func_unit(t0, "fu0", FuCaps::ALSU);
        let fu1 = b.add_func_unit(t0, "fu1", FuCaps::ALU);
        let r = b.add_switch(t0, "router", 2);
        b.bidirectional(fu0, r, 0);
        b.bidirectional(fu1, r, 0);
        b.link(fu0, fu1, 1);
        b.add_cluster(Cluster {
            tile: t0,
            alus: vec![fu0, fu1],
            alsu: None,
            local_router: None,
            global_router: r,
            hardwired: None,
        });
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "has no one-cycle self-link")]
    fn switch_links_into_switches_without_a_hold_are_rejected() {
        let mut b = ArchBuilder::new("nohold", ArchClass::Plaid, ArchParams::baseline(1, 1));
        let t0 = b.add_tile(Position { x: 0, y: 0 });
        let fu = b.add_func_unit(t0, "fu", FuCaps::ALSU);
        let router = b.add_switch(t0, "router", 2);
        let bypass = b.add_switch(t0, "bypass", 1);
        b.bidirectional(fu, router, 0);
        b.link(router, router, 1);
        b.link(bypass, fu, 0);
        // The router feeds the bypass, which cannot hold the value.
        b.link(router, bypass, 1);
        b.add_cluster(Cluster {
            tile: t0,
            alus: vec![fu],
            alsu: None,
            local_router: None,
            global_router: router,
            hardwired: None,
        });
        let _ = b.build();
    }

    #[test]
    fn manhattan_distance() {
        let a = Position { x: 0, y: 0 };
        let b = Position { x: 3, y: 2 };
        assert_eq!(a.manhattan(b), 5);
        assert_eq!(b.manhattan(a), 5);
    }

    #[test]
    fn class_labels() {
        assert_eq!(ArchClass::SpatioTemporal.label(), "spatio-temporal");
        assert_eq!(ArchClass::Spatial.label(), "spatial");
        assert_eq!(ArchClass::Plaid.label(), "plaid");
    }
}
