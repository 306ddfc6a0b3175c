//! Structural motif identification and hierarchical DFG construction.
//!
//! The paper's central insight is that dataflow graphs decompose into small,
//! recurring communication patterns — *motifs* — whose internal dependencies
//! can be routed collectively by one lightweight local router instead of
//! several powerful per-PE crossbars (Section 3). This crate provides:
//!
//! * [`motif`] — the three fundamental three-node motifs (fan-in, fan-out,
//!   unicast).
//! * [`identify`] — Algorithm 1: greedy seeding followed by iterative
//!   break-and-regrow refinement of the motif cover, at one fixed seed and
//!   round budget.
//! * [`hierarchy`] — the hierarchical DFG: motifs, standalone nodes and the
//!   inter-motif edges that the global network must carry.
//! * [`schedule`] — the flexible per-motif schedule templates of Section 5.2.
//! * [`stats`] — coverage statistics (the motif-covered node counts of
//!   Table 2).
//!
//! # Example
//!
//! ```
//! use plaid_dfg::{Dfg, EdgeKind, Op, Operand};
//! use plaid_motif::identify::{identify_motifs, IdentifyOptions};
//!
//! // n1 -> n3 <- n2 : a fan-in motif.
//! let mut dfg = Dfg::new("fan_in");
//! let ld = dfg.add_load("ld", "x", plaid_dfg::AffineExpr::var(0));
//! let n1 = dfg.add_compute_node("n1", Op::Mul);
//! let n2 = dfg.add_compute_node("n2", Op::Mul);
//! let n3 = dfg.add_compute_node("n3", Op::Add);
//! dfg.set_immediate(n1, 2).unwrap();
//! dfg.set_immediate(n2, 3).unwrap();
//! dfg.add_edge(ld, n1, Operand::Lhs, EdgeKind::Data).unwrap();
//! dfg.add_edge(ld, n2, Operand::Lhs, EdgeKind::Data).unwrap();
//! dfg.add_edge(n1, n3, Operand::Lhs, EdgeKind::Data).unwrap();
//! dfg.add_edge(n2, n3, Operand::Rhs, EdgeKind::Data).unwrap();
//!
//! let hdfg = identify_motifs(&dfg, &IdentifyOptions::default());
//! assert_eq!(hdfg.motifs().len(), 1);
//! assert_eq!(hdfg.covered_compute_nodes(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hierarchy;
pub mod identify;
pub mod motif;
pub mod schedule;
pub mod stats;

pub use hierarchy::HierarchicalDfg;
pub use identify::{identify_motifs, IdentifyOptions};
pub use motif::{Motif, MotifKind};
pub use schedule::{schedule_templates, MotifSchedule, ScheduleSlot};
pub use stats::{coverage, CoverageStats};
