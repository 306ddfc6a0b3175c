//! DFG generation from the kernel IR.
//!
//! Lowering performs the job of the paper's "DFG gen" stage (Figure 1): each
//! innermost-loop body statement becomes a tree of load, compute and store
//! nodes, scalar temporaries become ordinary data edges, loop-index values
//! become loads from implicit iterator streams, and reductions become
//! load-op-store chains with an inter-iteration recurrence edge between the
//! store and the next iteration's load.
//!
//! Within one body, repeated loads of the same `array[index]` share one load
//! node (simple CSE, as the Morpher front end does), and a load of a
//! location the body already stored to is forwarded from the stored value.
//! The only setting is the unroll factor of the innermost loop.

use std::collections::HashMap;

use crate::error::DfgError;
use crate::graph::{Dfg, EdgeKind, IterationDim, NodeId, Operand};
use crate::kernel::{Expr, Kernel, Stmt};
use crate::op::Op;

/// Name prefix of the implicit arrays that deliver loop-index values as data.
pub const ITERATOR_ARRAY_PREFIX: &str = "__iter_";

/// Lowers a kernel into a dataflow graph, after unrolling its innermost
/// loop `unroll` times (1 lowers it as written).
///
/// # Errors
///
/// Returns an error if the kernel fails validation, the unroll factor is
/// invalid, or an internal graph-construction invariant is violated (the
/// latter indicates a bug in the lowering itself).
pub fn lower_kernel(kernel: &Kernel, unroll: u64) -> Result<Dfg, DfgError> {
    kernel.validate()?;
    let kernel = kernel.unroll_innermost(unroll)?;
    let mut ctx = LoweringContext {
        dfg: Dfg::new(kernel.name.clone()),
        scalars: HashMap::new(),
        loads: HashMap::new(),
        forwarded: HashMap::new(),
        stored_arrays: Vec::new(),
        acc_loads: Vec::new(),
        last_store: HashMap::new(),
        kernel: &kernel,
    };
    for stmt in &kernel.body {
        ctx.lower_stmt(stmt)?;
    }
    // Reductions: the first load of an accumulator array in the body observes
    // the *last* store to that array from the previous iteration.
    let acc_loads = std::mem::take(&mut ctx.acc_loads);
    for (array, load) in acc_loads {
        if let Some(&store) = ctx.last_store.get(&array) {
            ctx.dfg.add_edge(
                store,
                load,
                Operand::Lhs,
                EdgeKind::Recurrence { distance: 1 },
            )?;
        }
    }
    ctx.dfg.set_iteration_space(
        kernel
            .loops
            .iter()
            .map(|l| IterationDim {
                name: l.name.clone(),
                trip_count: l.trip_count,
            })
            .collect(),
    );
    ctx.dfg.validate_structure()?;
    Ok(ctx.dfg)
}

struct LoweringContext<'k> {
    dfg: Dfg,
    /// Scalar temporary name -> node producing its value.
    scalars: HashMap<String, NodeId>,
    /// (array, index signature) -> load node, for load reuse.
    loads: HashMap<(String, String), NodeId>,
    /// (array, index signature) -> node holding the most recently stored value
    /// within this body (store-to-load forwarding).
    forwarded: HashMap<(String, String), NodeId>,
    /// Arrays stored to earlier in this body.
    stored_arrays: Vec<String>,
    /// Reduction loads that need a recurrence edge from the body's final store.
    acc_loads: Vec<(String, NodeId)>,
    /// array name -> most recent store node (for reduction recurrences).
    last_store: HashMap<String, NodeId>,
    kernel: &'k Kernel,
}

impl LoweringContext<'_> {
    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), DfgError> {
        match stmt {
            Stmt::Let { name, value } => {
                let node = self.lower_expr(value)?;
                self.scalars.insert(name.clone(), node);
                Ok(())
            }
            Stmt::Store {
                array,
                index,
                value,
            } => {
                let value_node = self.lower_expr(value)?;
                let store = self
                    .dfg
                    .add_store(format!("st_{array}"), array.clone(), index.clone());
                self.dfg
                    .add_edge(value_node, store, Operand::Lhs, EdgeKind::Data)?;
                self.record_store(array, index, value_node, store);
                Ok(())
            }
            Stmt::Accumulate {
                array,
                index,
                op,
                value,
            } => {
                // out[idx] = out[idx] <op> value, carried through memory.
                // If an earlier statement in this body already stored to the
                // same location, forward its value instead of re-loading it.
                let signature = (array.clone(), format!("{:?}", index));
                let old_value = if let Some(&fwd) = self.forwarded.get(&signature) {
                    fwd
                } else {
                    let load =
                        self.dfg
                            .add_load(format!("ld_{array}_acc"), array.clone(), index.clone());
                    // If the body already stored to this array (at a possibly
                    // aliasing address), order the load after that store.
                    if let Some(&prev_store) = self.last_store.get(array.as_str()) {
                        self.dfg
                            .add_edge(prev_store, load, Operand::Lhs, EdgeKind::Data)?;
                    }
                    self.acc_loads.push((array.clone(), load));
                    load
                };
                let value_node = self.lower_expr(value)?;
                let combine = self.dfg.add_compute_node(format!("{op}_{array}_acc"), *op);
                self.dfg
                    .add_edge(old_value, combine, Operand::Lhs, EdgeKind::Data)?;
                self.dfg
                    .add_edge(value_node, combine, Operand::Rhs, EdgeKind::Data)?;
                let store =
                    self.dfg
                        .add_store(format!("st_{array}_acc"), array.clone(), index.clone());
                self.dfg
                    .add_edge(combine, store, Operand::Lhs, EdgeKind::Data)?;
                self.record_store(array, index, combine, store);
                Ok(())
            }
        }
    }

    /// Records the effects of a store on the forwarding / reuse caches.
    fn record_store(
        &mut self,
        array: &str,
        index: &crate::kernel::AffineExpr,
        value_node: NodeId,
        store: NodeId,
    ) {
        let signature = (array.to_string(), format!("{:?}", index));
        self.last_store.insert(array.to_string(), store);
        // Later loads of the same location observe the stored value directly.
        self.forwarded.retain(|(a, _), _| a != array);
        self.forwarded.insert(signature, value_node);
        // Cached loads of this array are stale.
        self.loads.retain(|(a, _), _| a != array);
        if !self.stored_arrays.iter().any(|a| a == array) {
            self.stored_arrays.push(array.to_string());
        }
    }

    fn lower_expr(&mut self, expr: &Expr) -> Result<NodeId, DfgError> {
        match expr {
            Expr::Load { array, index } => {
                let signature = format!("{:?}", index);
                let key = (array.clone(), signature);
                if let Some(&node) = self.forwarded.get(&key) {
                    return Ok(node);
                }
                if let Some(&node) = self.loads.get(&key) {
                    return Ok(node);
                }
                let node = self
                    .dfg
                    .add_load(format!("ld_{array}"), array.clone(), index.clone());
                // Order the load after any earlier store to the same array in
                // this body (conservative intra-iteration memory ordering).
                if self.stored_arrays.iter().any(|a| a == array) {
                    if let Some(&prev_store) = self.last_store.get(array.as_str()) {
                        self.dfg
                            .add_edge(prev_store, node, Operand::Lhs, EdgeKind::Data)?;
                    }
                }
                self.loads.insert(key, node);
                Ok(node)
            }
            Expr::Scalar(name) => self.scalars.get(name).copied().ok_or_else(|| {
                DfgError::InvalidKernel(format!("scalar {name} used before definition"))
            }),
            Expr::Index(var) => {
                let loop_name = &self.kernel.loops[*var].name;
                let array = format!("{ITERATOR_ARRAY_PREFIX}{loop_name}");
                let index = crate::kernel::AffineExpr::var(*var);
                let key = (array.clone(), format!("{:?}", index));
                if let Some(&node) = self.loads.get(&key) {
                    return Ok(node);
                }
                let node = self
                    .dfg
                    .add_load(format!("ld_{loop_name}"), array.clone(), index);
                self.loads.insert(key, node);
                Ok(node)
            }
            Expr::Const(value) => {
                // Constants are normally folded into the consumer's immediate
                // field (see the Binary case). A standalone constant becomes a
                // constant-generator node: a compute node with no data inputs
                // whose output is its immediate.
                let node = self.dfg.add_compute_node(format!("const_{value}"), Op::Add);
                self.dfg.set_immediate(node, *value)?;
                Ok(node)
            }
            Expr::Unary(op, a) => {
                let a_node = self.lower_expr(a)?;
                let node = self.dfg.add_compute_node(op.mnemonic().to_string(), *op);
                self.dfg
                    .add_edge(a_node, node, Operand::Lhs, EdgeKind::Data)?;
                Ok(node)
            }
            Expr::Binary(op, a, b) => {
                // Fold a constant right operand into the immediate field, as
                // the PCU configuration word's 8-bit constant does.
                if let Expr::Const(value) = **b {
                    let a_node = self.lower_expr(a)?;
                    let node = self.dfg.add_compute_node(op.mnemonic().to_string(), *op);
                    self.dfg
                        .add_edge(a_node, node, Operand::Lhs, EdgeKind::Data)?;
                    self.dfg.set_immediate(node, value)?;
                    return Ok(node);
                }
                if let Expr::Const(value) = **a {
                    if op.is_commutative() {
                        let b_node = self.lower_expr(b)?;
                        let node = self.dfg.add_compute_node(op.mnemonic().to_string(), *op);
                        self.dfg
                            .add_edge(b_node, node, Operand::Lhs, EdgeKind::Data)?;
                        self.dfg.set_immediate(node, value)?;
                        return Ok(node);
                    }
                }
                let a_node = self.lower_expr(a)?;
                let b_node = self.lower_expr(b)?;
                let node = self.dfg.add_compute_node(op.mnemonic().to_string(), *op);
                self.dfg
                    .add_edge(a_node, node, Operand::Lhs, EdgeKind::Data)?;
                self.dfg
                    .add_edge(b_node, node, Operand::Rhs, EdgeKind::Data)?;
                Ok(node)
            }
        }
    }
}

/// Returns true when `array` is one of the implicit iterator streams created
/// for [`Expr::Index`] operands.
pub fn is_iterator_array(array: &str) -> bool {
    array.starts_with(ITERATOR_ARRAY_PREFIX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{AffineExpr, KernelBuilder};

    fn axpy() -> Kernel {
        KernelBuilder::new("axpy")
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
            .unwrap()
    }

    fn dot_product() -> Kernel {
        KernelBuilder::new("dot")
            .loop_var("i", 8)
            .array("a", 8)
            .array("b", 8)
            .array("out", 1)
            .accumulate(
                "out",
                AffineExpr::constant(0),
                Op::Add,
                Expr::binary(
                    Op::Mul,
                    Expr::load("a", AffineExpr::var(0)),
                    Expr::load("b", AffineExpr::var(0)),
                ),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn axpy_lowering_shape() {
        let dfg = lower_kernel(&axpy(), 1).unwrap();
        // loads: x[i], y[i]; computes: mul (imm 3), add; store y[i].
        assert_eq!(dfg.memory_node_count(), 3);
        assert_eq!(dfg.compute_node_count(), 2);
        assert!(dfg.validate_structure().is_ok());
        assert_eq!(dfg.total_iterations(), 8);
    }

    #[test]
    fn constant_folds_into_immediate() {
        let dfg = lower_kernel(&axpy(), 1).unwrap();
        let mul = dfg.nodes().find(|n| n.op == Op::Mul).unwrap();
        assert_eq!(mul.immediate, Some(3));
    }

    #[test]
    fn accumulate_creates_recurrence() {
        let dfg = lower_kernel(&dot_product(), 1).unwrap();
        assert_eq!(dfg.recurrence_edges().count(), 1);
        let rec = dfg.recurrence_edges().next().unwrap();
        assert_eq!(dfg.node(rec.src).op, Op::Store);
        assert_eq!(dfg.node(rec.dst).op, Op::Load);
        assert_eq!(rec.kind.distance(), 1);
    }

    #[test]
    fn unrolling_scales_node_count() {
        let base = lower_kernel(&axpy(), 1).unwrap();
        let unrolled = lower_kernel(&axpy(), 2).unwrap();
        assert_eq!(unrolled.node_count(), 2 * base.node_count());
        assert_eq!(unrolled.total_iterations(), base.total_iterations() / 2);
        assert_eq!(unrolled.name(), "axpy_u2");
    }

    #[test]
    fn load_reuse_deduplicates_identical_accesses() {
        let kernel = KernelBuilder::new("square")
            .loop_var("i", 4)
            .array("x", 4)
            .array("y", 4)
            .store(
                "y",
                AffineExpr::var(0),
                Expr::binary(
                    Op::Mul,
                    Expr::load("x", AffineExpr::var(0)),
                    Expr::load("x", AffineExpr::var(0)),
                ),
            )
            .build()
            .unwrap();
        let reused = lower_kernel(&kernel, 1).unwrap();
        assert_eq!(reused.memory_node_count(), 2);
    }

    #[test]
    fn store_to_load_forwarding_within_body() {
        let kernel = KernelBuilder::new("rmw")
            .loop_var("i", 4)
            .array("x", 4)
            .store(
                "x",
                AffineExpr::var(0),
                Expr::binary(Op::Add, Expr::load("x", AffineExpr::var(0)), Expr::Const(1)),
            )
            .store(
                "x",
                AffineExpr::var(0),
                Expr::binary(Op::Add, Expr::load("x", AffineExpr::var(0)), Expr::Const(1)),
            )
            .build()
            .unwrap();
        let dfg = lower_kernel(&kernel, 1).unwrap();
        // The second statement's load is forwarded from the first store, so
        // only a single load node exists, and both stores remain.
        assert_eq!(dfg.nodes().filter(|n| n.op == Op::Load).count(), 1);
        assert_eq!(dfg.nodes().filter(|n| n.op == Op::Store).count(), 2);
    }

    #[test]
    fn aliasing_load_after_store_is_ordered() {
        // Stencil-like body: x[i] = x[i] + 1; y[i] = x[i+1] * 2.
        // The load of x[i+1] must be ordered after the store to x[i].
        let kernel = KernelBuilder::new("alias")
            .loop_var("i", 4)
            .array("x", 8)
            .array("y", 4)
            .store(
                "x",
                AffineExpr::var(0),
                Expr::binary(Op::Add, Expr::load("x", AffineExpr::var(0)), Expr::Const(1)),
            )
            .store(
                "y",
                AffineExpr::var(0),
                Expr::binary(
                    Op::Mul,
                    Expr::load("x", AffineExpr::var(0).offset(1)),
                    Expr::Const(2),
                ),
            )
            .build()
            .unwrap();
        let dfg = lower_kernel(&kernel, 1).unwrap();
        let store_x = dfg
            .nodes()
            .find(|n| n.op == Op::Store && n.access.as_ref().unwrap().array == "x")
            .unwrap()
            .id;
        let ordered_load = dfg
            .nodes()
            .find(|n| {
                n.op == Op::Load
                    && n.access.as_ref().unwrap().array == "x"
                    && dfg.in_edges(n.id).count() > 0
            })
            .expect("aliasing load should carry an ordering edge")
            .id;
        assert!(dfg
            .in_edges(ordered_load)
            .any(|e| e.src == store_x && !dfg.edge_carries_data(e)));
    }

    #[test]
    fn index_operand_becomes_iterator_load() {
        let kernel = KernelBuilder::new("scale_by_index")
            .loop_var("i", 4)
            .array("x", 4)
            .array("y", 4)
            .store(
                "y",
                AffineExpr::var(0),
                Expr::binary(Op::Mul, Expr::load("x", AffineExpr::var(0)), Expr::Index(0)),
            )
            .build()
            .unwrap();
        let dfg = lower_kernel(&kernel, 1).unwrap();
        assert!(dfg.memory_nodes().any(|n| n
            .access
            .as_ref()
            .is_some_and(|a| is_iterator_array(&a.array))));
    }

    #[test]
    fn scalar_let_is_shared_between_statements() {
        let kernel = KernelBuilder::new("shared_temp")
            .loop_var("i", 4)
            .array("x", 4)
            .array("y", 4)
            .array("z", 4)
            .let_scalar(
                "t",
                Expr::binary(Op::Add, Expr::load("x", AffineExpr::var(0)), Expr::Const(1)),
            )
            .store("y", AffineExpr::var(0), Expr::Scalar("t".into()))
            .store("z", AffineExpr::var(0), Expr::Scalar("t".into()))
            .build()
            .unwrap();
        let dfg = lower_kernel(&kernel, 1).unwrap();
        // Only one add node feeds both stores.
        assert_eq!(dfg.nodes().filter(|n| n.op == Op::Add).count(), 1);
        let add = dfg.nodes().find(|n| n.op == Op::Add).unwrap().id;
        let data_outs = dfg.out_edges(add).filter(|e| !e.kind.is_recurrence());
        assert_eq!(data_outs.count(), 2);
    }
}
