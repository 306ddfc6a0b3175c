//! Configuration bitstream accounting (Section 4.3).
//!
//! A statically scheduled CGRA is programmed by per-tile configuration
//! memories holding one entry per modulo slot. This module derives, from a
//! mapping, how many entries each tile needs and how many bits each entry
//! carries, and flags when a mapping exceeds the configuration-memory depth.

use std::collections::HashMap;

use plaid_arch::Architecture;
use plaid_dfg::Dfg;
use plaid_mapper::Mapping;

/// Configuration of one tile (PE or PCU).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileConfig {
    /// Tile index.
    pub tile: usize,
    /// Number of modulo slots in which this tile executes at least one
    /// operation or forwards at least one value.
    pub active_slots: u32,
    /// Operations issued by this tile across one II.
    pub operations: u32,
    /// Route-hops passing through this tile's switches across one II.
    pub route_occupancy: u32,
}

/// The whole-fabric configuration image derived from a mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigImage {
    /// Per-tile configuration summaries.
    pub tiles: Vec<TileConfig>,
    /// Entries required per tile (equal to the mapping's II).
    pub entries: u32,
    /// Bits per entry per tile (from the architecture's configuration budget).
    pub bits_per_entry: u32,
}

impl ConfigImage {
    /// Total configuration bits the fabric must store for this mapping.
    pub fn total_bits(&self) -> u64 {
        u64::from(self.entries) * u64::from(self.bits_per_entry) * self.tiles.len() as u64
    }

    /// Fraction of configuration entries that drive at least one operation or
    /// route (a measure of how much of the programmability is actually used).
    pub fn entry_utilization(&self) -> f64 {
        if self.tiles.is_empty() || self.entries == 0 {
            return 0.0;
        }
        let active: u32 = self.tiles.iter().map(|t| t.active_slots).sum();
        f64::from(active) / (self.tiles.len() as f64 * f64::from(self.entries))
    }
}

/// Derives the configuration image of a mapping.
///
/// # Errors
///
/// Returns an error message if the mapping's II exceeds the architecture's
/// configuration-memory depth.
pub fn generate_config(
    dfg: &Dfg,
    arch: &Architecture,
    mapping: &Mapping,
) -> Result<ConfigImage, String> {
    if mapping.ii > arch.params().config_entries {
        return Err(format!(
            "mapping II {} exceeds configuration memory depth {}",
            mapping.ii,
            arch.params().config_entries
        ));
    }
    let tile_count = arch.params().tile_count() as usize;
    let mut ops = vec![0u32; tile_count];
    let mut occupancy = vec![0u32; tile_count];
    let mut active: Vec<HashMap<u32, ()>> = vec![HashMap::new(); tile_count];
    for (node, placement) in &mapping.placements {
        let tile = arch.resource(placement.fu).tile;
        ops[tile] += 1;
        active[tile].insert(placement.cycle % mapping.ii, ());
        let _ = dfg.node(*node);
    }
    for route in mapping.routes.values() {
        for hop in &route.hops {
            let tile = arch.resource(hop.resource).tile;
            occupancy[tile] += 1;
            active[tile].insert(hop.cycle % mapping.ii, ());
        }
    }
    let tiles = (0..tile_count)
        .map(|tile| TileConfig {
            tile,
            active_slots: active[tile].len() as u32,
            operations: ops[tile],
            route_occupancy: occupancy[tile],
        })
        .collect();
    Ok(ConfigImage {
        tiles,
        entries: mapping.ii,
        bits_per_entry: arch.params().config.total_bits(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_arch::{plaid, spatio_temporal};
    use plaid_dfg::kernel::{AffineExpr, Expr, KernelBuilder};
    use plaid_dfg::lower::lower_kernel;
    use plaid_dfg::Op;
    use plaid_mapper::{Mapper, SaMapper};

    fn mapped_example(arch: &Architecture) -> (Dfg, Mapping) {
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
        let dfg = lower_kernel(&kernel, 1).unwrap();
        let mapping = SaMapper::default().map(&dfg, arch).unwrap();
        (dfg, mapping)
    }

    #[test]
    fn config_image_counts_operations() {
        let arch = spatio_temporal::build(4, 4);
        let (dfg, mapping) = mapped_example(&arch);
        let image = generate_config(&dfg, &arch, &mapping).unwrap();
        let total_ops: u32 = image.tiles.iter().map(|t| t.operations).sum();
        assert_eq!(total_ops as usize, dfg.node_count());
        assert_eq!(image.entries, mapping.ii);
        assert_eq!(image.bits_per_entry, 44);
        assert!(image.entry_utilization() > 0.0);
        assert!(image.entry_utilization() <= 1.0);
    }

    #[test]
    fn plaid_config_entry_is_120_bits() {
        let arch = plaid::build(2, 2);
        let (dfg, mapping) = mapped_example(&arch);
        let image = generate_config(&dfg, &arch, &mapping).unwrap();
        assert_eq!(image.bits_per_entry, 120);
        assert_eq!(image.tiles.len(), 4);
        assert_eq!(image.total_bits(), u64::from(mapping.ii) * 120 * 4);
    }

    #[test]
    fn excessive_ii_is_rejected() {
        let arch = spatio_temporal::build(4, 4);
        let (dfg, mut mapping) = mapped_example(&arch);
        mapping.ii = arch.params().config_entries + 1;
        assert!(generate_config(&dfg, &arch, &mapping).is_err());
    }
}
