//! Reference interpreters for kernels and DFGs.
//!
//! Two independent executable semantics are provided:
//!
//! * [`run_kernel`] executes the loop-nest IR directly (the "golden" model),
//! * [`run_dfg`] executes a lowered DFG iteration by iteration, honouring
//!   recurrence registers and memory-carried reductions.
//!
//! Agreement between the two validates the lowering; further up the stack the
//! cycle-level simulator in `plaid-sim` is validated against [`run_dfg`].

use std::collections::HashMap;

use crate::error::DfgError;
use crate::graph::{Dfg, EdgeKind, NodeId, Operand};
use crate::kernel::{Expr, Kernel, Stmt};
use crate::lower::is_iterator_array;
use crate::op::Op;

/// Contents of the scratch-pad memory: one `Vec<i64>` (16-bit values stored
/// widened) per named array.
///
/// Array addresses wrap modulo the array length, mirroring the aliasing
/// behaviour of a small scratch-pad; this keeps randomly generated kernels
/// (property tests) well-defined without bounds panics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryImage {
    arrays: HashMap<String, Vec<i64>>,
}

impl MemoryImage {
    /// Creates an empty memory image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a memory image with every array of `kernel` allocated and
    /// filled by `fill(array_name, element_index)`.
    pub fn for_kernel(kernel: &Kernel, mut fill: impl FnMut(&str, usize) -> i64) -> Self {
        let mut image = MemoryImage::new();
        for decl in &kernel.arrays {
            let data = (0..decl.len).map(|i| fill(&decl.name, i)).collect();
            image.arrays.insert(decl.name.clone(), data);
        }
        image
    }

    /// Allocates (or replaces) an array.
    pub fn insert(&mut self, name: impl Into<String>, data: Vec<i64>) {
        self.arrays.insert(name.into(), data);
    }

    /// Returns an array's contents, if present.
    pub fn array(&self, name: &str) -> Option<&[i64]> {
        self.arrays.get(name).map(|v| v.as_slice())
    }

    fn wrap_index(len: usize, index: i64) -> usize {
        let len = len as i64;
        (((index % len) + len) % len) as usize
    }

    /// Reads `array[index]` (wrapping), returning 0 for unknown arrays.
    pub fn read(&self, array: &str, index: i64) -> i64 {
        match self.arrays.get(array) {
            Some(data) if !data.is_empty() => data[Self::wrap_index(data.len(), index)],
            _ => 0,
        }
    }

    /// Writes `array[index] = value` (wrapping). Writes to unknown arrays
    /// allocate a single-element array so kernels never fail on stores.
    pub fn write(&mut self, array: &str, index: i64, value: i64) {
        let data = self
            .arrays
            .entry(array.to_string())
            .or_insert_with(|| vec![0]);
        if data.is_empty() {
            data.push(0);
        }
        let i = Self::wrap_index(data.len(), index);
        data[i] = value;
    }
}

fn wrap16(v: i64) -> i64 {
    (v as i16) as i64
}

/// Executes the kernel IR directly over `memory` (the golden reference).
///
/// # Errors
///
/// Returns [`DfgError::Interpretation`] if a scalar temporary is read before
/// being defined (which [`Kernel::validate`] would also have rejected).
pub fn run_kernel(kernel: &Kernel, memory: &mut MemoryImage) -> Result<(), DfgError> {
    let mut indices = vec![0i64; kernel.loops.len()];
    let total = kernel.total_iterations();
    for _ in 0..total {
        let mut scalars: HashMap<&str, i64> = HashMap::new();
        for stmt in &kernel.body {
            match stmt {
                Stmt::Let { name, value } => {
                    let v = eval_expr(value, &indices, &scalars, memory)?;
                    scalars.insert(name.as_str(), v);
                }
                Stmt::Store {
                    array,
                    index,
                    value,
                } => {
                    let v = eval_expr(value, &indices, &scalars, memory)?;
                    memory.write(array, index.eval(&indices), wrap16(v));
                }
                Stmt::Accumulate {
                    array,
                    index,
                    op,
                    value,
                } => {
                    let addr = index.eval(&indices);
                    let old = memory.read(array, addr);
                    let v = eval_expr(value, &indices, &scalars, memory)?;
                    memory.write(array, addr, op.eval(old, v));
                }
            }
        }
        advance(&mut indices, &kernel.loops);
    }
    Ok(())
}

fn advance(indices: &mut [i64], loops: &[crate::kernel::LoopVar]) {
    for dim in (0..indices.len()).rev() {
        indices[dim] += 1;
        if (indices[dim] as u64) < loops[dim].trip_count {
            return;
        }
        indices[dim] = 0;
    }
}

fn eval_expr(
    expr: &Expr,
    indices: &[i64],
    scalars: &HashMap<&str, i64>,
    memory: &MemoryImage,
) -> Result<i64, DfgError> {
    let v = match expr {
        Expr::Load { array, index } => memory.read(array, index.eval(indices)),
        Expr::Scalar(name) => *scalars
            .get(name.as_str())
            .ok_or_else(|| DfgError::Interpretation(format!("scalar {name} undefined")))?,
        Expr::Index(var) => indices.get(*var).copied().unwrap_or(0),
        Expr::Const(c) => *c,
        Expr::Unary(op, a) => op.eval(eval_expr(a, indices, scalars, memory)?, 0),
        Expr::Binary(op, a, b) => op.eval(
            eval_expr(a, indices, scalars, memory)?,
            eval_expr(b, indices, scalars, memory)?,
        ),
    };
    Ok(wrap16(v))
}

/// Executes a lowered DFG over its full iteration space.
///
/// Semantics:
/// * nodes are evaluated in topological order of same-iteration data edges;
/// * loads read the scratch-pad (iterator streams return the loop index);
/// * recurrence edges into compute nodes deliver the value produced
///   `distance` iterations earlier (0 before that);
/// * recurrence edges into memory nodes are ordering-only;
/// * a compute node with an immediate and no inputs outputs its immediate.
///
/// # Errors
///
/// Returns an error if the DFG is structurally invalid.
pub fn run_dfg(dfg: &Dfg, memory: &mut MemoryImage) -> Result<(), DfgError> {
    dfg.validate_structure()?;
    let order = dfg.topological_order()?;
    let loops: Vec<(String, u64)> = dfg
        .iteration_space()
        .iter()
        .map(|d| (d.name.clone(), d.trip_count))
        .collect();
    let mut indices = vec![0i64; loops.len()];
    let total = dfg.total_iterations();

    // Recurrence pipelines: edge id -> FIFO of pending values.
    let mut pipelines: HashMap<u32, Vec<i64>> = HashMap::new();
    for e in dfg.recurrence_edges() {
        if dfg.node(e.dst).is_compute() {
            pipelines.insert(e.id.0, vec![0; e.kind.distance() as usize]);
        }
    }

    for _ in 0..total {
        let mut values: HashMap<NodeId, i64> = HashMap::new();
        for &id in &order {
            let node = dfg.node(id);
            let value = match node.op {
                Op::Load => {
                    let access = node.access.as_ref().ok_or_else(|| {
                        DfgError::Interpretation(format!("load {id} lacks a memory access"))
                    })?;
                    let addr = access.index.eval(&indices);
                    if is_iterator_array(&access.array) {
                        wrap16(addr)
                    } else {
                        memory.read(&access.array, addr)
                    }
                }
                Op::Store => {
                    let access = node.access.as_ref().ok_or_else(|| {
                        DfgError::Interpretation(format!("store {id} lacks a memory access"))
                    })?;
                    let input = operand_value(dfg, id, Operand::Lhs, &values, &pipelines)
                        .ok_or_else(|| {
                            DfgError::Interpretation(format!("store {id} has no value operand"))
                        })?;
                    memory.write(&access.array, access.index.eval(&indices), wrap16(input));
                    wrap16(input)
                }
                op => {
                    let has_inputs = dfg.in_edges(id).next().is_some();
                    if let (false, Some(imm)) = (has_inputs, node.immediate) {
                        wrap16(imm)
                    } else {
                        let lhs = operand_value(dfg, id, Operand::Lhs, &values, &pipelines).ok_or(
                            DfgError::MissingOperand {
                                node: id.0,
                                operand: "lhs",
                            },
                        )?;
                        let rhs = if op.arity() == 2 {
                            operand_value(dfg, id, Operand::Rhs, &values, &pipelines)
                                .or(node.immediate)
                                .ok_or(DfgError::MissingOperand {
                                    node: id.0,
                                    operand: "rhs",
                                })?
                        } else {
                            0
                        };
                        op.eval(lhs, rhs)
                    }
                }
            };
            values.insert(id, value);
        }
        // Shift recurrence pipelines with this iteration's produced values.
        for e in dfg.recurrence_edges() {
            if let Some(pipe) = pipelines.get_mut(&e.id.0) {
                pipe.push(values.get(&e.src).copied().unwrap_or(0));
                pipe.remove(0);
            }
        }
        advance_named(&mut indices, &loops);
    }
    Ok(())
}

fn advance_named(indices: &mut [i64], loops: &[(String, u64)]) {
    for dim in (0..indices.len()).rev() {
        indices[dim] += 1;
        if (indices[dim] as u64) < loops[dim].1 {
            return;
        }
        indices[dim] = 0;
    }
}

fn operand_value(
    dfg: &Dfg,
    node: NodeId,
    operand: Operand,
    values: &HashMap<NodeId, i64>,
    pipelines: &HashMap<u32, Vec<i64>>,
) -> Option<i64> {
    // Same-iteration data edge takes precedence; otherwise a recurrence edge
    // delivers the value from `distance` iterations ago.
    for e in dfg.in_edges(node) {
        if e.operand != operand {
            continue;
        }
        match e.kind {
            EdgeKind::Data => return values.get(&e.src).copied(),
            EdgeKind::Recurrence { .. } => {
                if let Some(pipe) = pipelines.get(&e.id.0) {
                    return pipe.first().copied();
                }
            }
        }
    }
    None
}

/// Runs both interpreters from the same initial memory image and reports
/// whether every array matches afterwards.
///
/// Returns the pair of final images `(kernel_result, dfg_result)` on mismatch
/// inside the error string for debugging.
///
/// # Errors
///
/// Propagates interpretation errors and reports mismatching arrays.
pub fn check_lowering_equivalence(
    kernel: &Kernel,
    dfg: &Dfg,
    initial: &MemoryImage,
) -> Result<(), DfgError> {
    let mut golden = initial.clone();
    run_kernel(kernel, &mut golden)?;
    let mut mapped = initial.clone();
    run_dfg(dfg, &mut mapped)?;
    for decl in &kernel.arrays {
        let a = golden.array(&decl.name).unwrap_or(&[]);
        let b = mapped.array(&decl.name).unwrap_or(&[]);
        if a != b {
            return Err(DfgError::Interpretation(format!(
                "array {} differs between kernel and DFG execution: {:?} vs {:?}",
                decl.name, a, b
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{AffineExpr, KernelBuilder};
    use crate::lower::lower_kernel;

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

    fn dot() -> Kernel {
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

    fn seeded_memory(kernel: &Kernel) -> MemoryImage {
        MemoryImage::for_kernel(kernel, |name, i| {
            (name.len() as i64 * 7 + i as i64 * 3) % 23
        })
    }

    #[test]
    fn kernel_interpreter_computes_axpy() {
        let k = axpy();
        let mut mem = MemoryImage::for_kernel(&k, |name, i| match name {
            "x" => i as i64,
            _ => 100 + i as i64,
        });
        run_kernel(&k, &mut mem).unwrap();
        let y = mem.array("y").unwrap();
        for (i, &v) in y.iter().enumerate() {
            assert_eq!(v, 3 * i as i64 + 100 + i as i64);
        }
    }

    #[test]
    fn dfg_matches_kernel_for_axpy() {
        let k = axpy();
        let dfg = lower_kernel(&k, 1).unwrap();
        check_lowering_equivalence(&k, &dfg, &seeded_memory(&k)).unwrap();
    }

    #[test]
    fn dfg_matches_kernel_for_reduction() {
        let k = dot();
        let dfg = lower_kernel(&k, 1).unwrap();
        check_lowering_equivalence(&k, &dfg, &seeded_memory(&k)).unwrap();
    }

    #[test]
    fn dfg_matches_kernel_after_unrolling() {
        let k = dot();
        for factor in [2, 4] {
            let dfg = lower_kernel(&k, factor).unwrap();
            check_lowering_equivalence(&k, &dfg, &seeded_memory(&k)).unwrap();
        }
    }

    #[test]
    fn memory_wraps_addresses() {
        let mut mem = MemoryImage::new();
        mem.insert("x", vec![1, 2, 3, 4]);
        assert_eq!(mem.read("x", 5), 2);
        assert_eq!(mem.read("x", -1), 4);
        mem.write("x", 6, 9);
        assert_eq!(mem.read("x", 2), 9);
    }

    #[test]
    fn unknown_array_reads_zero() {
        let mem = MemoryImage::new();
        assert_eq!(mem.read("nope", 3), 0);
    }

    #[test]
    fn iterator_loads_return_loop_index() {
        let kernel = KernelBuilder::new("iota")
            .loop_var("i", 5)
            .array("y", 5)
            .store("y", AffineExpr::var(0), Expr::Index(0))
            .build()
            .unwrap();
        let dfg = lower_kernel(&kernel, 1).unwrap();
        let mut mem = MemoryImage::for_kernel(&kernel, |_, _| 0);
        run_dfg(&dfg, &mut mem).unwrap();
        assert_eq!(mem.array("y").unwrap(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn two_dimensional_kernel_equivalence() {
        let kernel = KernelBuilder::new("outer_product")
            .loop_var("i", 4)
            .loop_var("j", 4)
            .array("a", 4)
            .array("b", 4)
            .array("c", 16)
            .store(
                "c",
                AffineExpr::scaled_var(0, 4).add(&AffineExpr::var(1)),
                Expr::binary(
                    Op::Mul,
                    Expr::load("a", AffineExpr::var(0)),
                    Expr::load("b", AffineExpr::var(1)),
                ),
            )
            .build()
            .unwrap();
        let dfg = lower_kernel(&kernel, 1).unwrap();
        check_lowering_equivalence(&kernel, &dfg, &seeded_memory(&kernel)).unwrap();
    }

    #[test]
    fn register_carried_recurrence_in_dfg() {
        // Hand-built accumulator: acc_t = acc_{t-1} + x[i], stored each
        // iteration; after 4 iterations of x = [1,2,3,4] the store sequence is
        // 1, 3, 6, 10.
        let mut dfg = Dfg::new("acc");
        let ld = dfg.add_load("ld", "x", AffineExpr::var(0));
        let acc = dfg.add_compute_node("acc", Op::Add);
        dfg.add_edge(ld, acc, Operand::Lhs, EdgeKind::Data).unwrap();
        dfg.add_edge(acc, acc, Operand::Rhs, EdgeKind::Recurrence { distance: 1 })
            .unwrap();
        let st = dfg.add_store("st", "out", AffineExpr::var(0));
        dfg.add_edge(acc, st, Operand::Lhs, EdgeKind::Data).unwrap();
        dfg.set_iteration_space(vec![crate::graph::IterationDim {
            name: "i".into(),
            trip_count: 4,
        }]);
        let mut mem = MemoryImage::new();
        mem.insert("x", vec![1, 2, 3, 4]);
        mem.insert("out", vec![0; 4]);
        run_dfg(&dfg, &mut mem).unwrap();
        assert_eq!(mem.array("out").unwrap(), &[1, 3, 6, 10]);
    }
}
