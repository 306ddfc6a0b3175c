//! Dataflow-graph (DFG) intermediate representation for the Plaid CGRA
//! reproduction.
//!
//! This crate provides the program-side substrate of the Plaid toolchain:
//!
//! * [`op`] — the operation set supported by CGRA functional units
//!   (16-bit ALU operations plus loads and stores handled by the ALSU).
//! * [`graph`] — the [`Dfg`] itself: nodes, data edges, inter-iteration
//!   (recurrence) edges, validation, and structural queries answered in
//!   `O(degree)` from a per-node edge index the graph keeps as edges are
//!   added.
//! * [`kernel`] — a small loop-nest kernel IR standing in for the paper's
//!   annotated C kernels, with affine array accesses and reductions.
//! * [`lower`] — DFG generation from the kernel IR, including loop unrolling.
//! * [`interp`] — reference interpreters for both the kernel IR and the DFG,
//!   used to functionally verify mappings produced further up the stack.
//! * [`fnv`] — the stable content hash behind [`Dfg::fingerprint`].
//!
//! # Example
//!
//! ```
//! use plaid_dfg::graph::{Dfg, EdgeKind, Operand};
//! use plaid_dfg::op::Op;
//!
//! // Build the highlighted sub-DFG of Figure 4 in the paper by hand:
//! // n1 = b[i] * k, n2 = a[i] * j, n3 = n1 + n2.
//! let mut dfg = Dfg::new("figure4");
//! let b = dfg.add_load("b_i", "b", plaid_dfg::AffineExpr::var(0));
//! let a = dfg.add_load("a_i", "a", plaid_dfg::AffineExpr::var(0));
//! let n1 = dfg.add_compute_node("n1", Op::Mul);
//! let n2 = dfg.add_compute_node("n2", Op::Mul);
//! let n3 = dfg.add_compute_node("n3", Op::Add);
//! dfg.set_immediate(n1, 4).unwrap(); // * k
//! dfg.set_immediate(n2, 2).unwrap(); // * j
//! dfg.add_edge(b, n1, Operand::Lhs, EdgeKind::Data).unwrap();
//! dfg.add_edge(a, n2, Operand::Lhs, EdgeKind::Data).unwrap();
//! dfg.add_edge(n1, n3, Operand::Lhs, EdgeKind::Data).unwrap();
//! dfg.add_edge(n2, n3, Operand::Rhs, EdgeKind::Data).unwrap();
//! assert_eq!(dfg.node_count(), 5);
//! assert!(dfg.validate_structure().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fnv;
pub mod graph;
pub mod interp;
pub mod kernel;
pub mod lower;
pub mod op;

pub use error::DfgError;
pub use graph::{Dfg, DfgEdge, DfgNode, EdgeId, EdgeKind, NodeId, Operand};
pub use kernel::{AffineExpr, ArrayDecl, Expr, Kernel, KernelBuilder, LoopVar, Stmt};
pub use lower::lower_kernel;
pub use op::{Op, OpClass};
