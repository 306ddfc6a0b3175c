//! CGRA architecture models for the Plaid reproduction.
//!
//! Every architecture evaluated in the paper is expressed as a *routing
//! resource graph*: functional units (ALUs and ALSUs) and switches (routers,
//! register holds, bypass wires) connected by latency-annotated links. The
//! mappers in `plaid-mapper` operate exclusively on this representation, so
//! the comparison between the spatio-temporal baseline, the spatial baseline
//! and Plaid isolates the architectural differences the paper studies.
//!
//! Provided architectures:
//!
//! * [`spatio_temporal`] — the high-performance baseline: a `rows × cols`
//!   mesh of PEs, each with an ALU, a crossbar router and per-cycle
//!   reconfiguration (Figure 3 of the paper).
//! * [`spatial`] — the energy-minimal baseline: same fabric, but mapped with
//!   a fixed configuration per DFG partition (Section 6.3).
//! * [`plaid`] — the proposed architecture: a mesh of Plaid Collective Units
//!   (PCUs), each with three ALUs, one ALSU, a local router, ALU-to-ALU
//!   bypass paths and a global router forming the hierarchical NoC
//!   (Figure 9).
//! * [`specialize`] — domain-specialized variants (ST-ML and Plaid-ML,
//!   Section 4.4 / 7.3).
//!
//! Every fabric is built once, by its class builder's `build_with`, from a
//! [`Provision`]: a name, [`ArchParams`] (which size the array), a NoC
//! [`Topology`] and switch capacities; `build(rows, cols)` is as published.
//!
//! Beyond the fixed instances, [`enumerate`] exposes the provisioning space
//! itself: [`SpaceSpec`] enumerates (class × dimensions × configuration
//! depth × communication spec) grids and [`DesignPoint::build`] materializes
//! any point as a mapper-ready [`Architecture`] — the substrate of the
//! `plaid-explore` design-space exploration engine. The communication axis
//! is the [`CommSpec`] of [`comm`]: NoC topology (mesh, torus, express
//! links) and a bandwidth class, whose presets reproduce the earlier scalar
//! levels bit-exactly.
//!
//! # Example
//!
//! ```
//! use plaid_arch::{plaid, spatio_temporal};
//!
//! let st = spatio_temporal::build(4, 4);
//! let pl = plaid::build(2, 2);
//! // A 2x2 Plaid has the same number of functional units as a 4x4 CGRA.
//! assert_eq!(st.functional_units().count(), pl.functional_units().count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod architecture;
pub mod comm;
pub mod enumerate;
pub mod params;
pub mod plaid;
pub mod resource;
pub mod spatial;
pub mod spatio_temporal;
pub mod specialize;

pub use architecture::{ArchClass, Architecture, Cluster, Position, Provision};
pub use comm::{BwClass, CommSpec, Topology};
pub use enumerate::{DesignPoint, SpaceSpec};
pub use params::{ArchParams, ConfigBudget, Domain, HardwiredPattern};
pub use resource::{FuCaps, Link, Resource, ResourceId, ResourceKind};
