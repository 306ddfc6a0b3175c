//! The dataflow graph (DFG) data structure.
//!
//! A [`Dfg`] is a directed graph whose nodes are 16-bit operations
//! ([`crate::op::Op`]) and whose edges are data dependencies. Edges within the
//! same loop iteration are [`EdgeKind::Data`]; dependencies that cross
//! iteration boundaries (recurrences, e.g. accumulations) carry an explicit
//! iteration distance via [`EdgeKind::Recurrence`]. The same-iteration
//! subgraph is always acyclic.
//!
//! The graph also records the iteration space of the loop nest it was
//! generated from, which the downstream simulator uses to compute total cycle
//! counts from the initiation interval (II).
//!
//! Every node keeps an index of the edges that touch it, maintained as edges
//! are added, so "which edges touch node n" costs `O(degree)` rather than a
//! scan of the edge list. Edges are append-only, so each list ascends by edge
//! id: the order a scan of [`Dfg::edges`] filtered to the node would yield.
//!
//! [`Dfg::fingerprint`] is computed once and memoised. Every `&mut` method
//! clears the memo (the node adders through [`Dfg::add_node`]), and
//! equality ignores it.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::OnceLock;

use crate::error::DfgError;
use crate::fnv::Fnv;
use crate::kernel::AffineExpr;
use crate::op::Op;

/// Identifier of a node within a [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of an edge within a [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Which operand slot of the destination node an edge drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Left / first operand.
    Lhs,
    /// Right / second operand.
    Rhs,
}

impl Operand {
    /// Human-readable name used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            Operand::Lhs => "lhs",
            Operand::Rhs => "rhs",
        }
    }
}

/// Kind of data dependency carried by an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Same-iteration data dependency.
    Data,
    /// Inter-iteration dependency carried `distance` iterations forward.
    Recurrence {
        /// Number of iterations between producer and consumer (≥ 1).
        distance: u32,
    },
}

impl EdgeKind {
    /// Iteration distance of the dependency (0 for same-iteration edges).
    pub fn distance(self) -> u32 {
        match self {
            EdgeKind::Data => 0,
            EdgeKind::Recurrence { distance } => distance,
        }
    }

    /// Whether the dependency crosses loop iterations.
    pub fn is_recurrence(self) -> bool {
        matches!(self, EdgeKind::Recurrence { .. })
    }
}

/// Description of a scratch-pad memory access attached to a load or store node.
///
/// Addresses are affine functions of the loop indices; keeping them on the
/// node (rather than materialising address-arithmetic nodes) matches the node
/// counts the paper reports in Table 2, where loads/stores are single nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemAccess {
    /// Name of the array in the scratch-pad memory.
    pub array: String,
    /// Affine index expression over the loop iteration variables.
    pub index: AffineExpr,
}

/// A node of the dataflow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfgNode {
    /// Identifier of this node.
    pub id: NodeId,
    /// Human-readable label (unique labels are not required).
    pub name: String,
    /// Operation executed by the node.
    pub op: Op,
    /// Optional immediate operand (the paper's 8-bit constants); when present
    /// it supplies the `Rhs` operand of a binary operation.
    pub immediate: Option<i64>,
    /// Memory access descriptor for `Load`/`Store` nodes.
    pub access: Option<MemAccess>,
}

impl DfgNode {
    /// Whether this node executes on an ALU.
    pub fn is_compute(&self) -> bool {
        self.op.is_compute()
    }

    /// Whether this node accesses the scratch-pad memory.
    pub fn is_memory(&self) -> bool {
        self.op.is_memory()
    }
}

/// An edge of the dataflow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfgEdge {
    /// Identifier of this edge.
    pub id: EdgeId,
    /// Producer node.
    pub src: NodeId,
    /// Consumer node.
    pub dst: NodeId,
    /// Operand slot of the consumer driven by this edge.
    pub operand: Operand,
    /// Same-iteration or recurrence dependency.
    pub kind: EdgeKind,
}

/// One dimension of the iteration space of the loop nest a DFG came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationDim {
    /// Loop variable name.
    pub name: String,
    /// Trip count of the loop.
    pub trip_count: u64,
}

/// A dataflow graph: the unit of mapping in the Plaid toolchain.
#[derive(Debug, Clone)]
pub struct Dfg {
    name: String,
    nodes: Vec<DfgNode>,
    edges: Vec<DfgEdge>,
    /// Per-node edge index: arriving, leaving and touching edges, each
    /// ascending by edge id. A self-loop is in both `ins` and `outs` of its
    /// node but listed once in `incident`.
    ins: Vec<Vec<EdgeId>>,
    outs: Vec<Vec<EdgeId>>,
    incident: Vec<Vec<EdgeId>>,
    /// Number of edges for which [`Dfg::edge_carries_data`] holds, counted as
    /// edges are added.
    data_edges: usize,
    iteration_space: Vec<IterationDim>,
    /// Memo of [`Dfg::fingerprint`]; cleared by every `&mut` method.
    fingerprint: OnceLock<u64>,
}

/// Content equality: the fingerprint memo is a cache, not content.
impl PartialEq for Dfg {
    fn eq(&self, other: &Self) -> bool {
        let Dfg {
            name,
            nodes,
            edges,
            ins,
            outs,
            incident,
            data_edges,
            iteration_space,
            fingerprint: _,
        } = self;
        *name == other.name
            && *nodes == other.nodes
            && *edges == other.edges
            && *ins == other.ins
            && *outs == other.outs
            && *incident == other.incident
            && *data_edges == other.data_edges
            && *iteration_space == other.iteration_space
    }
}

impl Dfg {
    /// Creates an empty DFG with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Dfg {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            ins: Vec::new(),
            outs: Vec::new(),
            incident: Vec::new(),
            data_edges: 0,
            iteration_space: Vec::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// Name of the kernel this DFG represents.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Iteration space (outermost loop first) of the originating loop nest.
    pub fn iteration_space(&self) -> &[IterationDim] {
        &self.iteration_space
    }

    /// Sets the iteration space of the originating loop nest.
    pub fn set_iteration_space(&mut self, dims: Vec<IterationDim>) {
        self.fingerprint.take();
        self.iteration_space = dims;
    }

    /// Total number of loop iterations executed by the kernel
    /// (product of trip counts; 1 for an empty iteration space).
    pub fn total_iterations(&self) -> u64 {
        self.iteration_space
            .iter()
            .map(|d| d.trip_count.max(1))
            .product::<u64>()
            .max(1)
    }

    /// Adds a node with an arbitrary operation and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, op: Op) -> NodeId {
        self.fingerprint.take();
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(DfgNode {
            id,
            name: name.into(),
            op,
            immediate: None,
            access: None,
        });
        self.ins.push(Vec::new());
        self.outs.push(Vec::new());
        self.incident.push(Vec::new());
        id
    }

    /// Adds a compute (ALU) node.
    ///
    /// # Panics
    ///
    /// Panics if `op` is a memory operation; use [`Dfg::add_load`] or
    /// [`Dfg::add_store`] for those.
    pub fn add_compute_node(&mut self, name: impl Into<String>, op: Op) -> NodeId {
        assert!(
            op.is_compute(),
            "use add_load/add_store for memory operations"
        );
        self.add_node(name, op)
    }

    /// Adds a load node reading `array[index]`.
    pub fn add_load(
        &mut self,
        name: impl Into<String>,
        array: impl Into<String>,
        index: AffineExpr,
    ) -> NodeId {
        let id = self.add_node(name, Op::Load);
        self.nodes[id.0 as usize].access = Some(MemAccess {
            array: array.into(),
            index,
        });
        id
    }

    /// Adds a store node writing `array[index]`.
    pub fn add_store(
        &mut self,
        name: impl Into<String>,
        array: impl Into<String>,
        index: AffineExpr,
    ) -> NodeId {
        let id = self.add_node(name, Op::Store);
        self.nodes[id.0 as usize].access = Some(MemAccess {
            array: array.into(),
            index,
        });
        id
    }

    /// Attaches an immediate (constant) operand to a node.
    ///
    /// The immediate supplies the `Rhs` slot of binary operations, mirroring
    /// the 8-bit constant fields in the PCU configuration word.
    pub fn set_immediate(&mut self, node: NodeId, value: i64) -> Result<(), DfgError> {
        self.fingerprint.take();
        let n = self
            .nodes
            .get_mut(node.0 as usize)
            .ok_or(DfgError::UnknownNode(node.0))?;
        n.immediate = Some(value);
        Ok(())
    }

    /// Adds a dependency edge and returns its id.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint does not exist, if the operand slot
    /// is already driven by another same-iteration data edge, or if the
    /// destination operation cannot accept the operand.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        operand: Operand,
        kind: EdgeKind,
    ) -> Result<EdgeId, DfgError> {
        self.fingerprint.take();
        if src.0 as usize >= self.nodes.len() {
            return Err(DfgError::UnknownNode(src.0));
        }
        if dst.0 as usize >= self.nodes.len() {
            return Err(DfgError::UnknownNode(dst.0));
        }
        let dst_node = &self.nodes[dst.0 as usize];
        let arity = dst_node.op.arity();
        // Edges into loads (which take no data operands) and recurrence edges
        // into memory nodes are pure ordering constraints — e.g. a store
        // followed by a potentially aliasing load within the body, or the
        // store -> load dependency of a memory-carried reduction. They do not
        // drive an operand and bypass arity/conflict checks.
        let is_ordering =
            dst_node.op == Op::Load || (kind.is_recurrence() && dst_node.op.is_memory());
        if !is_ordering {
            if arity == 0 {
                return Err(DfgError::InvalidOperand {
                    node: dst.0,
                    reason: format!("operation {} takes no data operands", dst_node.op),
                });
            }
            if arity == 1 && operand == Operand::Rhs {
                return Err(DfgError::InvalidOperand {
                    node: dst.0,
                    reason: format!(
                        "operation {} is unary; only the lhs operand exists",
                        dst_node.op
                    ),
                });
            }
            if kind == EdgeKind::Data
                && self
                    .in_edges(dst)
                    .any(|e| e.operand == operand && e.kind == EdgeKind::Data)
            {
                return Err(DfgError::OperandConflict {
                    node: dst.0,
                    operand: operand.name(),
                });
            }
        }
        let id = EdgeId(self.edges.len() as u32);
        let edge = DfgEdge {
            id,
            src,
            dst,
            operand,
            kind,
        };
        // Exact for the graph's lifetime: whether an edge carries data depends
        // only on its kind and its destination's op, and a node's op never
        // changes after `add_node`.
        if self.edge_carries_data(&edge) {
            self.data_edges += 1;
        }
        self.edges.push(edge);
        self.outs[src.0 as usize].push(id);
        self.ins[dst.0 as usize].push(id);
        self.incident[src.0 as usize].push(id);
        if dst != src {
            self.incident[dst.0 as usize].push(id);
        }
        Ok(id)
    }

    /// Number of nodes in the graph.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges in the graph.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of ALU (compute) nodes.
    pub fn compute_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_compute()).count()
    }

    /// Number of load/store nodes.
    pub fn memory_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_memory()).count()
    }

    /// Returns the node with the given id.
    pub fn node(&self, id: NodeId) -> &DfgNode {
        &self.nodes[id.0 as usize]
    }

    /// Returns the edge with the given id.
    pub fn edge(&self, id: EdgeId) -> &DfgEdge {
        &self.edges[id.0 as usize]
    }

    /// Iterator over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &DfgNode> {
        self.nodes.iter()
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all edges.
    pub fn edges(&self) -> impl Iterator<Item = &DfgEdge> {
        self.edges.iter()
    }

    /// Iterator over the compute (ALU) nodes.
    pub fn compute_nodes(&self) -> impl Iterator<Item = &DfgNode> {
        self.nodes.iter().filter(|n| n.is_compute())
    }

    /// Iterator over the memory (load/store) nodes.
    pub fn memory_nodes(&self) -> impl Iterator<Item = &DfgNode> {
        self.nodes.iter().filter(|n| n.is_memory())
    }

    /// Ids of the edges arriving at `node`, ascending.
    pub fn ins(&self, node: NodeId) -> &[EdgeId] {
        &self.ins[node.0 as usize]
    }

    /// Ids of the edges leaving `node`, ascending.
    pub fn outs(&self, node: NodeId) -> &[EdgeId] {
        &self.outs[node.0 as usize]
    }

    /// Ids of the edges touching `node` at either endpoint, ascending, with a
    /// self-loop listed once.
    pub fn incident(&self, node: NodeId) -> &[EdgeId] {
        &self.incident[node.0 as usize]
    }

    /// Number of edges that transport a value between functional units (see
    /// [`Dfg::edge_carries_data`]).
    pub fn data_edge_count(&self) -> usize {
        self.data_edges
    }

    /// Edges arriving at `node` (both data and recurrence), ascending by id.
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = &DfgEdge> {
        self.ins(node).iter().map(|&e| self.edge(e))
    }

    /// Edges leaving `node` (both data and recurrence), ascending by id.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = &DfgEdge> {
        self.outs(node).iter().map(|&e| self.edge(e))
    }

    /// Recurrence (inter-iteration) edges of the graph.
    pub fn recurrence_edges(&self) -> impl Iterator<Item = &DfgEdge> {
        self.edges.iter().filter(|e| e.kind.is_recurrence())
    }

    /// Topological order of the nodes considering only same-iteration edges.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::DataCycle`] if the same-iteration subgraph contains
    /// a cycle.
    pub fn topological_order(&self) -> Result<Vec<NodeId>, DfgError> {
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            if !e.kind.is_recurrence() {
                indegree[e.dst.0 as usize] += 1;
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            let node = NodeId(i as u32);
            order.push(node);
            for e in self.out_edges(node).filter(|e| !e.kind.is_recurrence()) {
                let d = e.dst.0 as usize;
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    queue.push_back(d);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(DfgError::DataCycle)
        }
    }

    /// Checks structural invariants of the graph.
    ///
    /// Verified properties:
    /// * every binary compute node has both operands driven (by a data or
    ///   recurrence edge, or by the node's immediate),
    /// * no operand slot is driven by two same-iteration data edges
    ///   (enforced on construction, re-checked here),
    /// * stores have their value operand driven,
    /// * the same-iteration subgraph is acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate_structure(&self) -> Result<(), DfgError> {
        self.topological_order()?;
        for node in &self.nodes {
            let arity = node.op.arity();
            if arity == 0 {
                continue;
            }
            // Constant-generator nodes: a compute node with an immediate and no
            // incoming edges outputs its immediate directly.
            if node.immediate.is_some() && self.in_edges(node.id).next().is_none() {
                continue;
            }
            // Ordering edges (recurrence into a memory node) do not drive
            // operands and must not count towards driven-ness.
            let drives = |e: &&DfgEdge| !(e.kind.is_recurrence() && node.op.is_memory());
            let lhs_driven = self
                .in_edges(node.id)
                .filter(drives)
                .any(|e| e.operand == Operand::Lhs);
            let rhs_driven = self
                .in_edges(node.id)
                .filter(drives)
                .any(|e| e.operand == Operand::Rhs)
                || node.immediate.is_some();
            if !lhs_driven {
                return Err(DfgError::MissingOperand {
                    node: node.id.0,
                    operand: "lhs",
                });
            }
            if arity == 2 && !rhs_driven {
                return Err(DfgError::MissingOperand {
                    node: node.id.0,
                    operand: "rhs",
                });
            }
            let mut data_lhs = 0;
            let mut data_rhs = 0;
            for e in self.in_edges(node.id).filter(|e| e.kind == EdgeKind::Data) {
                match e.operand {
                    Operand::Lhs => data_lhs += 1,
                    Operand::Rhs => data_rhs += 1,
                }
            }
            if data_lhs > 1 {
                return Err(DfgError::OperandConflict {
                    node: node.id.0,
                    operand: "lhs",
                });
            }
            if data_rhs > 1 {
                return Err(DfgError::OperandConflict {
                    node: node.id.0,
                    operand: "rhs",
                });
            }
        }
        Ok(())
    }

    /// Whether an edge transports an actual value between functional units.
    ///
    /// Ordering-only edges (any edge into a load, or a recurrence edge into a
    /// memory node) constrain the schedule but occupy no routing resources.
    pub fn edge_carries_data(&self, edge: &DfgEdge) -> bool {
        let dst = self.node(edge.dst);
        if dst.op == Op::Load {
            return false;
        }
        !(edge.kind.is_recurrence() && dst.op.is_memory())
    }

    /// Content hash of what a mapping of the graph depends on: node
    /// operations (with immediates) and edge topology. Names and the
    /// iteration space do not enter it. Computed on the first call and
    /// memoised until the next `&mut` call.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.hash_content())
    }

    fn hash_content(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.node_count() as u64);
        h.word(self.edge_count() as u64);
        for node in &self.nodes {
            h.word(u64::from(node.id.0));
            h.bytes(format!("{:?}", node.op).as_bytes());
            match node.immediate {
                Some(imm) => {
                    h.word(1);
                    h.word(imm as u64);
                }
                None => h.word(0),
            }
        }
        for edge in &self.edges {
            h.word(u64::from(edge.id.0));
            h.word(u64::from(edge.src.0));
            h.word(u64::from(edge.dst.0));
            h.bytes(format!("{:?}/{:?}", edge.operand, edge.kind).as_bytes());
        }
        h.finish()
    }

    /// Multiset of operations in the graph, useful for unrolling tests.
    pub fn op_histogram(&self) -> HashMap<Op, usize> {
        let mut hist = HashMap::new();
        for n in &self.nodes {
            *hist.entry(n.op).or_insert(0) += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::AffineExpr;

    fn diamond() -> (Dfg, NodeId, NodeId, NodeId, NodeId) {
        let mut dfg = Dfg::new("diamond");
        let a = dfg.add_compute_node("a", Op::Add);
        let b = dfg.add_compute_node("b", Op::Mul);
        let c = dfg.add_compute_node("c", Op::Sub);
        let d = dfg.add_compute_node("d", Op::Add);
        dfg.set_immediate(a, 1).unwrap();
        dfg.set_immediate(a, 1).unwrap();
        // a feeds b and c; b and c feed d.
        dfg.add_edge(a, b, Operand::Lhs, EdgeKind::Data).unwrap();
        dfg.add_edge(a, c, Operand::Lhs, EdgeKind::Data).unwrap();
        dfg.set_immediate(b, 2).unwrap();
        dfg.set_immediate(c, 3).unwrap();
        dfg.add_edge(b, d, Operand::Lhs, EdgeKind::Data).unwrap();
        dfg.add_edge(c, d, Operand::Rhs, EdgeKind::Data).unwrap();
        // a's lhs comes from a load.
        let ld = dfg.add_load("ld", "x", AffineExpr::constant(0));
        dfg.add_edge(ld, a, Operand::Lhs, EdgeKind::Data).unwrap();
        (dfg, a, b, c, d)
    }

    #[test]
    fn every_mutator_clears_the_fingerprint_memo() {
        let (mut dfg, a, b, ..) = diamond();
        let sink = dfg.add_compute_node("sink", Op::Add);
        let mutators: [&dyn Fn(&mut Dfg); 7] = [
            &|g| {
                g.set_iteration_space(vec![IterationDim {
                    name: "i".into(),
                    trip_count: 4,
                }])
            },
            &|g| {
                g.add_node("n", Op::Add);
            },
            &|g| {
                g.add_compute_node("c", Op::Mul);
            },
            &|g| {
                g.add_load("ld2", "y", AffineExpr::constant(1));
            },
            &|g| {
                g.add_store("st", "y", AffineExpr::constant(2));
            },
            &|g| g.set_immediate(a, 7).unwrap(),
            &|g| {
                g.add_edge(b, sink, Operand::Lhs, EdgeKind::Data).unwrap();
            },
        ];
        for mutate in mutators {
            let before = dfg.fingerprint();
            assert_eq!(dfg.fingerprint.get(), Some(&before));
            mutate(&mut dfg);
            assert_eq!(dfg.fingerprint.get(), None, "a mutator left the memo set");
            assert_eq!(dfg.fingerprint(), dfg.hash_content());
        }
    }

    #[test]
    fn equality_ignores_the_fingerprint_memo() {
        let (dfg, ..) = diamond();
        let unhashed = dfg.clone();
        let fingerprint = dfg.fingerprint();
        assert_eq!(dfg, unhashed);
        assert_eq!(unhashed.fingerprint(), fingerprint);
    }

    #[test]
    fn build_and_count() {
        let (dfg, ..) = diamond();
        assert_eq!(dfg.node_count(), 5);
        assert_eq!(dfg.edge_count(), 5);
        assert_eq!(dfg.compute_node_count(), 4);
        assert_eq!(dfg.memory_node_count(), 1);
    }

    #[test]
    fn operand_conflict_rejected() {
        let mut dfg = Dfg::new("conflict");
        let a = dfg.add_compute_node("a", Op::Not);
        let b = dfg.add_compute_node("b", Op::Not);
        let c = dfg.add_compute_node("c", Op::Not);
        dfg.add_edge(a, c, Operand::Lhs, EdgeKind::Data).unwrap();
        let err = dfg
            .add_edge(b, c, Operand::Lhs, EdgeKind::Data)
            .unwrap_err();
        assert!(matches!(err, DfgError::OperandConflict { .. }));
    }

    #[test]
    fn unary_rhs_rejected() {
        let mut dfg = Dfg::new("unary");
        let a = dfg.add_compute_node("a", Op::Not);
        let b = dfg.add_compute_node("b", Op::Not);
        let err = dfg
            .add_edge(a, b, Operand::Rhs, EdgeKind::Data)
            .unwrap_err();
        assert!(matches!(err, DfgError::InvalidOperand { .. }));
    }

    #[test]
    fn edges_into_loads_are_ordering_only() {
        let mut dfg = Dfg::new("load");
        let a = dfg.add_compute_node("a", Op::Not);
        let ld = dfg.add_load("ld", "x", AffineExpr::constant(0));
        let e = dfg.add_edge(a, ld, Operand::Lhs, EdgeKind::Data).unwrap();
        assert!(!dfg.edge_carries_data(dfg.edge(e)));
        // Ordering edges still participate in the topological order.
        let order = dfg.topological_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|&n| n == id).unwrap();
        assert!(pos(a) < pos(ld));
    }

    #[test]
    fn data_edges_between_compute_nodes_carry_data() {
        let mut dfg = Dfg::new("carry");
        let a = dfg.add_compute_node("a", Op::Not);
        let b = dfg.add_compute_node("b", Op::Not);
        let e = dfg.add_edge(a, b, Operand::Lhs, EdgeKind::Data).unwrap();
        assert!(dfg.edge_carries_data(dfg.edge(e)));
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let (dfg, a, b, c, d) = diamond();
        let order = dfg.topological_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|&n| n == id).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(d));
        assert!(pos(c) < pos(d));
    }

    #[test]
    fn validate_detects_missing_operand() {
        let mut dfg = Dfg::new("missing");
        let _a = dfg.add_compute_node("a", Op::Add);
        let err = dfg.validate_structure().unwrap_err();
        assert!(matches!(err, DfgError::MissingOperand { .. }));
    }

    #[test]
    fn recurrence_edges_do_not_create_data_cycles() {
        let mut dfg = Dfg::new("acc");
        let acc = dfg.add_compute_node("acc", Op::Add);
        let ld = dfg.add_load("ld", "x", AffineExpr::constant(0));
        dfg.add_edge(ld, acc, Operand::Lhs, EdgeKind::Data).unwrap();
        dfg.add_edge(acc, acc, Operand::Rhs, EdgeKind::Recurrence { distance: 1 })
            .unwrap();
        assert!(dfg.validate_structure().is_ok());
        assert_eq!(dfg.recurrence_edges().count(), 1);
    }

    #[test]
    fn total_iterations_defaults_to_one() {
        let (mut dfg, ..) = diamond();
        assert_eq!(dfg.total_iterations(), 1);
        dfg.set_iteration_space(vec![
            IterationDim {
                name: "i".into(),
                trip_count: 4,
            },
            IterationDim {
                name: "j".into(),
                trip_count: 8,
            },
        ]);
        assert_eq!(dfg.total_iterations(), 32);
    }

    /// A load feeding a chain whose last node carries a self-loop recurrence.
    fn with_self_loop() -> Dfg {
        let mut dfg = Dfg::new("adj");
        let ld = dfg.add_load("ld", "x", AffineExpr::var(0));
        let a = dfg.add_compute_node("a", Op::Add);
        let b = dfg.add_compute_node("b", Op::Mul);
        dfg.set_immediate(a, 1).unwrap();
        dfg.set_immediate(b, 2).unwrap();
        dfg.add_edge(ld, a, Operand::Lhs, EdgeKind::Data).unwrap();
        dfg.add_edge(a, b, Operand::Lhs, EdgeKind::Data).unwrap();
        dfg.add_edge(b, b, Operand::Rhs, EdgeKind::Recurrence { distance: 1 })
            .unwrap();
        dfg
    }

    /// Reference for the edge index: edge ids selected by a scan of the
    /// whole edge list.
    fn scan(dfg: &Dfg, keep: impl Fn(&DfgEdge) -> bool) -> Vec<EdgeId> {
        dfg.edges().filter(|e| keep(e)).map(|e| e.id).collect()
    }

    #[test]
    fn edge_index_matches_linear_scans_on_every_node() {
        for dfg in [with_self_loop(), diamond().0] {
            for node in dfg.node_ids() {
                assert_eq!(dfg.ins(node), scan(&dfg, |e| e.dst == node));
                assert_eq!(dfg.outs(node), scan(&dfg, |e| e.src == node));
                assert_eq!(
                    dfg.incident(node),
                    scan(&dfg, |e| e.src == node || e.dst == node)
                );
            }
        }
    }

    #[test]
    fn self_loop_listed_once_in_incident() {
        let dfg = with_self_loop();
        let b = NodeId(2);
        assert_eq!(dfg.incident(b).len(), 2); // a->b plus the self recurrence
        assert_eq!(dfg.ins(b).len(), 2);
        assert_eq!(dfg.outs(b).len(), 1);
    }

    #[test]
    fn counts_data_carrying_edges() {
        let mut dfg = with_self_loop();
        let expect = dfg.edges().filter(|e| dfg.edge_carries_data(e)).count();
        assert_eq!(dfg.data_edge_count(), expect);
        // An ordering edge into a load is an edge but carries no data.
        let (a, ld) = (NodeId(1), NodeId(0));
        dfg.add_edge(a, ld, Operand::Lhs, EdgeKind::Recurrence { distance: 1 })
            .unwrap();
        assert_eq!(dfg.edge_count(), 4);
        assert_eq!(dfg.data_edge_count(), expect);
    }

    #[test]
    fn op_histogram_counts_operations() {
        let (dfg, ..) = diamond();
        let hist = dfg.op_histogram();
        assert_eq!(hist[&Op::Add], 2);
        assert_eq!(hist[&Op::Mul], 1);
        assert_eq!(hist[&Op::Load], 1);
    }
}
