//! Configuration encoding, execution engine and cost models.
//!
//! This crate plays the role of the paper's RTL synthesis flow (Cadence Genus
//! at 22 nm) and of the Morpher cycle-accurate simulator:
//!
//! * [`cost`] — analytical area / power / energy models built from fixed
//!   per-component constants. The constants are calibrated once so that the
//!   spatio-temporal baseline reproduces the power split of Figure 2(a) and
//!   Plaid reproduces the area split of Figure 13; every other number
//!   (spatial baseline, ML-specialized variants, 3×3 scaling) then follows
//!   from the architecture's structural composition.
//! * [`config`] — configuration bitstream accounting: how many bits per tile
//!   and per entry a mapping actually needs (Section 4.3).
//! * [`engine`] — executes a mapping over the full iteration space, checking
//!   functional equivalence against the DFG reference interpreter and
//!   reporting cycle counts.
//! * [`metrics`] — the combined evaluation record (cycles, power, energy,
//!   area, performance per area) used by every experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod engine;
pub mod metrics;

pub use config::{ConfigImage, TileConfig};
pub use cost::{Breakdown, CostModel};
pub use engine::{execute_mapping, ExecutionReport};
pub use metrics::EvalMetrics;
