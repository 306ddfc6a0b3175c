//! Modulo-scheduling mappers for CGRAs.
//!
//! This crate implements the compiler back end of the reproduction: given a
//! DFG (from `plaid-dfg`) and an architecture (from `plaid-arch`), a mapper
//! produces a [`Mapping`]: a placement of every node on a functional unit and
//! schedule cycle, plus a route through the routing-resource graph for every
//! data-carrying edge, valid under modulo resource constraints for some
//! initiation interval (II).
//!
//! Mappers provided (matching the paper's Section 6.3 / Figure 18):
//!
//! * [`sa`] — a generic simulated-annealing mapper (the "SA" baseline).
//! * [`pathfinder`] — a negotiation-based router in the spirit of PathFinder
//!   (the "PathFinder" baseline).
//! * [`plaid`] — Algorithm 2: the hierarchical, motif-aware Plaid mapper.
//! * [`spatial`] — the spatial-CGRA mapper, which partitions complex DFGs and
//!   spills intermediate values to the scratch-pad.
//!
//! Every mapper runs at one fixed configuration (module constants), and the
//! stochastic ones draw from fixed seeds, so mapping is fully deterministic.
//!
//! # Example
//!
//! ```
//! use plaid_dfg::kernel::{AffineExpr, Expr, KernelBuilder};
//! use plaid_dfg::lower::{lower_kernel, LoweringOptions};
//! use plaid_dfg::Op;
//! use plaid_arch::spatio_temporal;
//! use plaid_mapper::sa::SaMapper;
//! use plaid_mapper::Mapper;
//!
//! let kernel = KernelBuilder::new("axpy")
//!     .loop_var("i", 16)
//!     .array("x", 16)
//!     .array("y", 16)
//!     .store("y", AffineExpr::var(0), Expr::binary(
//!         Op::Add,
//!         Expr::binary(Op::Mul, Expr::load("x", AffineExpr::var(0)), Expr::Const(3)),
//!         Expr::load("y", AffineExpr::var(0)),
//!     ))
//!     .build().unwrap();
//! let dfg = lower_kernel(&kernel, &LoweringOptions::default()).unwrap();
//! let arch = spatio_temporal::build(4, 4);
//! let mapping = SaMapper::default().map(&dfg, &arch).unwrap();
//! assert!(mapping.validate(&dfg, &arch).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod error;
pub mod fabric;
pub mod mapping;
pub mod mii;
pub mod pathfinder;
pub mod placement;
pub mod plaid;
pub mod route;
pub mod sa;
pub mod seed;
pub mod spatial;
pub mod state;

pub use error::MapError;
pub use fabric::PreparedFabric;
pub use mapping::{Mapping, Placement, Route, RouteHop};
pub use mii::{comm_mii, mii, rec_mii, res_mii};
pub use pathfinder::PathFinderMapper;
pub use plaid::PlaidMapper;
pub use sa::SaMapper;
pub use seed::{
    dfg_fingerprint, fabric_signature, fabric_signature_nocap, fnv1a64, InfeasiblePrefix, MapSeed,
    PlacementSeed, SeedOutcome, SeededMapping,
};
pub use spatial::{SpatialMapper, SpatialSchedule};
pub use state::CapacityCert;

use plaid_arch::Architecture;
use plaid_dfg::Dfg;

/// Common interface of all modulo-scheduling mappers.
pub trait Mapper {
    /// Maps `dfg` onto `arch`, returning a valid mapping or an error if no
    /// valid mapping was found within the configuration-memory bound.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] if the DFG cannot be mapped (e.g. it needs more
    /// memory units than the architecture offers, or no II up to the
    /// configuration-memory depth admits a valid schedule).
    fn map(&self, dfg: &Dfg, arch: &Architecture) -> Result<Mapping, MapError>;

    /// Human-readable mapper name used in reports.
    fn name(&self) -> &'static str;
}
