//! End-to-end Plaid compilation and evaluation pipeline.
//!
//! This crate ties the substrates together into the public API a user of the
//! reproduction works with:
//!
//! * [`pipeline`] — compile a kernel (or a Table 2 workload) onto any of the
//!   modelled architectures with any of the mappers, obtaining a validated
//!   mapping, a configuration image and evaluation metrics.
//! * [`report`] — plain-text table rendering used by `plaid-bench` and the
//!   examples to print the same rows the paper reports.
//!
//! # Quickstart
//!
//! ```
//! use plaid::pipeline::{
//!     compile_workload, ArchChoice, MapperChoice, PreparedFabric, PreparedWorkload,
//! };
//! use plaid_workloads::table2_workloads;
//!
//! let workload = PreparedWorkload::new(&table2_workloads()[0]).unwrap(); // atax_u2
//! let fabric = PreparedFabric::new(ArchChoice::Plaid2x2.build());
//! let result = compile_workload(&workload, &fabric, MapperChoice::Plaid, None).unwrap();
//! assert!(result.metrics.cycles > 0);
//! assert!(result.mapping.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pipeline;
pub mod report;

pub use pipeline::{
    compile_workload, ArchChoice, CompileSummary, CompiledWorkload, MapperChoice, PipelineError,
    PreparedWorkload,
};
