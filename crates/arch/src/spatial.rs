//! The baseline energy-minimal spatial CGRA (Section 6.3).
//!
//! Structurally the fabric matches the spatio-temporal baseline (same PE
//! array, same mesh, same scratch-pad configuration); the difference is the
//! execution paradigm: a DFG (or DFG partition) is mapped fully spatially with
//! a fixed configuration, so each functional unit executes a single operation
//! for the duration of a partition and the configuration memory is
//! clock-gated. Complex kernels must be partitioned into several spatial
//! sub-DFGs, with intermediate values spilled to the scratch-pad (handled by
//! the spatial mapper in `plaid-mapper`).

use crate::architecture::{ArchClass, Architecture, Provision};
use crate::params::ArchParams;
use crate::spatio_temporal::build_with;

/// Builds a `rows × cols` spatial CGRA as published.
///
/// # Panics
///
/// Panics if `rows` or `cols` is zero.
pub fn build(rows: u32, cols: u32) -> Architecture {
    build_with(
        ArchClass::Spatial,
        &Provision::published(
            format!("spatial-{rows}x{cols}"),
            ArchParams::baseline(rows, cols),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_matches_spatio_temporal_fabric() {
        let sp = build(4, 4);
        let st = crate::spatio_temporal::build(4, 4);
        assert_eq!(sp.functional_units().count(), st.functional_units().count());
        assert_eq!(sp.links().len(), st.links().len());
        assert_eq!(sp.class(), ArchClass::Spatial);
        assert_eq!(sp.name(), "spatial-4x4");
    }
}
