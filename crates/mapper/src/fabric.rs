//! A fabric prepared once and shared by every mapping run on it.
//!
//! What an II ladder needs of its fabric does not depend on the DFG: the
//! built [`Architecture`], the fabric's signatures and switch capacities
//! (which seeds are keyed and certified by, see [`crate::seed`]) and its
//! exact-time reachability ([`Reach`]). A [`PreparedFabric`] derives each of
//! them at most once, on first use, and every ladder run on it shares them.
//! A sweep that maps many workloads onto one design point prepares the
//! design once. The mapper entry points that take a plain `&Architecture`
//! prepare a one-off fabric from a clone of it.
//!
//! The reachability reads only the fabric's topology: which resources are
//! functional units, and the links. Design points that differ only in
//! configuration depth and bandwidth differ in switch capacities and cost
//! parameters, never in topology, so a fabric prepared as the
//! [sibling](PreparedFabric::sibling) of another shares its reachability.
//!
//! Only the capacity certificate stays per ladder: it records the probes of
//! one ladder's search.

use std::sync::{Arc, OnceLock};

use plaid_arch::Architecture;

use crate::route::Reach;
use crate::seed::{fabric_signature, fabric_signature_nocap};

/// An [`Architecture`] plus what every mapping run on it derives from it,
/// each derived lazily and at most once.
///
/// It is `Sync`: many threads may map onto one prepared fabric at once.
#[derive(Debug, Clone)]
pub struct PreparedFabric {
    arch: Architecture,
    signatures: OnceLock<Signatures>,
    /// Shared with this fabric's siblings of the same topology.
    reach: Arc<OnceLock<Arc<Reach>>>,
}

/// The fabric's two signatures and per-resource switch capacities.
#[derive(Debug, Clone)]
struct Signatures {
    full: u64,
    nocap: u64,
    capacities: Vec<u32>,
}

impl PreparedFabric {
    /// Prepares `arch`.
    pub fn new(arch: Architecture) -> Self {
        PreparedFabric {
            arch,
            signatures: OnceLock::new(),
            reach: Arc::default(),
        }
    }

    /// Prepares `arch` next to this fabric. When the two have the same
    /// topology (the same resources apart from switch capacities, and the
    /// same links), as design points that differ only in configuration
    /// depth and bandwidth do, they share one reachability, built once for
    /// both. Otherwise the new fabric builds its own.
    pub fn sibling(&self, arch: Architecture) -> PreparedFabric {
        let reach = if same_topology(&self.arch, &arch) {
            Arc::clone(&self.reach)
        } else {
            Arc::default()
        };
        PreparedFabric {
            arch,
            signatures: OnceLock::new(),
            reach,
        }
    }

    /// The architecture.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    fn signatures(&self) -> &Signatures {
        self.signatures.get_or_init(|| Signatures {
            full: fabric_signature(&self.arch),
            nocap: fabric_signature_nocap(&self.arch),
            capacities: self
                .arch
                .resources()
                .iter()
                .map(|r| r.kind.capacity())
                .collect(),
        })
    }

    /// The fabric's [`fabric_signature`], hashed on the first call of this
    /// or the next two methods.
    pub fn signature(&self) -> u64 {
        self.signatures().full
    }

    /// The fabric's [`fabric_signature_nocap`].
    pub fn signature_nocap(&self) -> u64 {
        self.signatures().nocap
    }

    /// Every resource's switch capacity, by resource id.
    pub fn capacities(&self) -> &[u32] {
        &self.signatures().capacities
    }

    /// The fabric's exact-time reachability, built on the first call on
    /// this fabric or a sibling that shares it.
    pub fn reach(&self) -> &Arc<Reach> {
        self.reach.get_or_init(|| Arc::new(Reach::of(&self.arch)))
    }
}

/// Whether [`Reach::of`] gives `a` and `b` the same table: it reads which
/// resources are functional units, and the links.
fn same_topology(a: &Architecture, b: &Architecture) -> bool {
    a.links() == b.links()
        && a.resources().len() == b.resources().len()
        && a.resources()
            .iter()
            .zip(b.resources())
            .all(|(x, y)| x.kind.is_func_unit() == y.kind.is_func_unit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_arch::{plaid, rebuild_provisioned, spatio_temporal, SpaceSpec};

    #[test]
    fn derived_parts_match_the_free_functions_and_are_built_once() {
        let arch = plaid::build(2, 2);
        let fabric = PreparedFabric::new(arch.clone());
        assert_eq!(fabric.signature(), fabric_signature(&arch));
        assert_eq!(fabric.signature_nocap(), fabric_signature_nocap(&arch));
        let capacities: Vec<u32> = arch.resources().iter().map(|r| r.kind.capacity()).collect();
        assert_eq!(fabric.capacities(), capacities.as_slice());
        assert!(Arc::ptr_eq(fabric.reach(), fabric.reach()));
        let richer = rebuild_provisioned(&arch, "rich", arch.params().clone(), |c| c + 1);
        let owned = PreparedFabric::new(richer.clone());
        assert_eq!(owned.arch(), &richer);
        assert_ne!(owned.signature(), fabric.signature());
        assert_eq!(owned.signature_nocap(), fabric.signature_nocap());
    }

    #[test]
    fn siblings_share_reachability_only_with_the_same_topology() {
        // Every design of the first's class and size shares its table, and
        // any design that shares it has the same table. (Spatial and
        // spatio-temporal arrays of one size have the same links.)
        let grid = SpaceSpec::default_grid().enumerate();
        let first = PreparedFabric::new(grid[0].build());
        let table = format!("{:?}", Reach::of(first.arch()));
        for design in &grid {
            let arch = design.build();
            let shared = Arc::ptr_eq(&first.sibling(arch.clone()).reach, &first.reach);
            if shared {
                assert_eq!(
                    format!("{:?}", Reach::of(&arch)),
                    table,
                    "{}",
                    design.label()
                );
            }
            if design.class == grid[0].class && (design.rows, design.cols) == (2, 2) {
                assert!(shared, "{}", design.label());
            }
            if (design.rows, design.cols) != (2, 2) {
                assert!(!shared, "{}", design.label());
            }
        }
        // A sibling's shared table is the one its own architecture gives.
        let a = spatio_temporal::build(3, 3);
        let lean = rebuild_provisioned(&a, "lean", a.params().clone(), |_| 1);
        let prepared = PreparedFabric::new(a.clone());
        let sibling = prepared.sibling(lean.clone());
        assert!(Arc::ptr_eq(sibling.reach(), prepared.reach()));
        assert_eq!(
            format!("{:?}", sibling.reach()),
            format!("{:?}", Reach::of(&lean))
        );
    }
}
