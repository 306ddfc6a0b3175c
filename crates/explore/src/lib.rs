//! Design-space exploration for aligned compute/communication provisioning.
//!
//! The paper argues that CGRA efficiency is a *provisioning alignment*
//! problem: a fabric wastes energy when its communication resources (routers,
//! configuration select bits) outrun its compute, and wastes performance when
//! they fall short. Answering "which provisioning is right for this workload
//! mix?" requires sweeping the design space — exactly what this crate does:
//!
//! 1. [`plaid_arch::enumerate::SpaceSpec`] enumerates architecture points
//!    across the compute axis (array dimensions, configuration-memory depth)
//!    and the communication axis ([`plaid_arch::CommSpec`]: topology ×
//!    bandwidth class, whose presets reproduce the earlier scalar levels
//!    bit-exactly);
//! 2. [`sweep::SweepPlan`] crosses those points with workloads and
//!    [`sweep::run_sweep`] evaluates them in parallel through the
//!    `plaid::pipeline`, memoizing every result in a content-addressed
//!    [`cache::ResultCache`] so repeated and overlapping sweeps are
//!    near-free;
//! 3. [`pareto::FrontierReport`] extracts the per-workload Pareto frontier
//!    over {cycles, area, energy} and serializes it to JSON;
//! 4. [`shard`] scales a sweep *out*: [`shard::shard_plan`] splits a plan
//!    across processes or hosts by the cache's own content hashes (stable
//!    under reordering, so uncoordinated hosts agree), and
//!    [`cache::ResultCache::union_merge`] +
//!    [`cache::ResultCache::canonical_records`] reassemble the shard caches
//!    into the single-process record set, whose frontier is byte-identical
//!    (`plaid-dse --shard I/N` / `plaid-dse merge`).
//!
//! The `plaid-dse` binary drives all three stages from the command line; the
//! `provisioning_frontier` example reproduces the paper's aligned-versus-
//! misaligned comparison as a frontier table.
//!
//! # Example
//!
//! ```
//! use plaid_arch::{ArchClass, CommSpec, SpaceSpec};
//! use plaid_explore::{run_sweep, FrontierReport, ResultCache, SweepPlan};
//! use plaid_workloads::find_workload;
//!
//! let spec = SpaceSpec {
//!     classes: vec![ArchClass::Plaid],
//!     dims: vec![(2, 2)],
//!     config_entries: vec![16],
//!     comm_specs: vec![CommSpec::ALIGNED],
//! };
//! let plan = SweepPlan::cross(&[find_workload("dwconv").unwrap()], &spec);
//! let cache = ResultCache::new();
//! let outcome = run_sweep(&plan, &cache);
//! let frontier = FrontierReport::from_records(&outcome.records);
//! assert_eq!(frontier.frontiers.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod pareto;
pub mod record;
pub mod seed;
pub mod shard;
pub mod sweep;

pub use cache::{cache_key, cache_key_hash, ResultCache};
pub use pareto::{pareto_indices, FrontierReport, Objectives, WorkloadFrontier};
pub use record::EvalRecord;
pub use seed::{provisioning_distance, SeedFamily, SeedPolicy, SeedStore};
pub use shard::{run_sweep_sharded, shard_plan, ShardSpec};
pub use sweep::{
    default_mapper_for_class, run_sweep, run_sweep_with, SweepOutcome, SweepPlan, SweepPoint,
    SweepStats,
};
