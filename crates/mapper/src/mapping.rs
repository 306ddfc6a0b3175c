//! The [`Mapping`] result type and its validator.

use std::collections::HashMap;

use plaid_arch::{Architecture, ResourceId};
use plaid_dfg::{Dfg, EdgeId, EdgeKind, NodeId};

use crate::error::MapError;
use crate::state::RoutingState;

/// Placement of one DFG node: the functional unit it executes on and its
/// absolute schedule cycle (the modulo slot is `cycle % II`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Functional unit executing the node.
    pub fu: ResourceId,
    /// Absolute schedule cycle.
    pub cycle: u32,
}

/// One intermediate hop of a route: a switch resource visited at an absolute
/// cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteHop {
    /// Switch resource.
    pub resource: ResourceId,
    /// Absolute cycle at which the value occupies the switch.
    pub cycle: u32,
}

/// The route of one data-carrying edge: the ordered intermediate switches
/// between the producer FU and the consumer FU (endpoints excluded).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Route {
    /// Intermediate hops in traversal order.
    pub hops: Vec<RouteHop>,
}

impl Route {
    /// Number of switch hops.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether the route has no intermediate hops (impossible for valid routes
    /// on the modelled fabrics, but kept for completeness).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }
}

/// A complete modulo-scheduled mapping of a DFG onto an architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    /// Architecture name the mapping targets.
    pub arch_name: String,
    /// Name of the mapper that produced this mapping.
    pub mapper_name: String,
    /// Initiation interval.
    pub ii: u32,
    /// Node placements.
    pub placements: HashMap<NodeId, Placement>,
    /// Routes of data-carrying edges.
    pub routes: HashMap<EdgeId, Route>,
}

impl Mapping {
    /// Schedule length: one past the latest scheduled cycle (the pipeline
    /// depth of one iteration).
    pub fn schedule_length(&self) -> u32 {
        self.placements
            .values()
            .map(|p| p.cycle + 1)
            .max()
            .unwrap_or(0)
    }

    /// Total execution cycles for `iterations` loop iterations under modulo
    /// scheduling: a new iteration starts every II cycles and the last one
    /// drains the pipeline.
    pub fn total_cycles(&self, iterations: u64) -> u64 {
        if iterations == 0 {
            return 0;
        }
        (iterations - 1) * u64::from(self.ii) + u64::from(self.schedule_length())
    }

    /// Total number of switch hops across all routes (a proxy for routing
    /// energy / wire activity).
    pub fn total_route_hops(&self) -> usize {
        self.routes.values().map(Route::len).sum()
    }

    /// Checks that the mapping is valid for `dfg` on `arch`.
    ///
    /// Verified properties:
    /// 1. every DFG node is placed on a functional unit that supports it;
    /// 2. no two nodes share a functional unit in the same modulo slot;
    /// 3. every dependency is satisfied in time (consumers execute at least
    ///    one cycle after producers, recurrence edges shifted by
    ///    `distance × II`);
    /// 4. every data-carrying edge has a route whose hops follow existing
    ///    links with the correct latencies and arrive exactly at the
    ///    consumer's cycle;
    /// 5. switch capacities are respected in every modulo slot (identical
    ///    values share).
    ///
    /// # Errors
    ///
    /// Returns [`MapError::InvalidMapping`] describing the first violation.
    pub fn validate(&self, dfg: &Dfg, arch: &Architecture) -> Result<(), MapError> {
        let fail = |msg: String| Err(MapError::InvalidMapping(msg));
        // 1. Placement completeness and capability.
        for node in dfg.nodes() {
            let Some(p) = self.placements.get(&node.id) else {
                return fail(format!("node {} is not placed", node.id));
            };
            let res = arch.resource(p.fu);
            let Some(caps) = res.fu_caps() else {
                return fail(format!("node {} placed on non-FU {}", node.id, res.name));
            };
            if node.op.is_memory() && !caps.memory {
                return fail(format!(
                    "memory node {} placed on non-memory FU {}",
                    node.id, res.name
                ));
            }
            if node.op.is_compute() && !caps.compute {
                return fail(format!(
                    "compute node {} placed on non-compute FU {}",
                    node.id, res.name
                ));
            }
        }
        // 2. FU exclusivity per modulo slot.
        let mut fu_slots: HashMap<(u32, u32), NodeId> = HashMap::new();
        for (&node, p) in &self.placements {
            let key = (p.fu.0, p.cycle % self.ii);
            if let Some(&other) = fu_slots.get(&key) {
                if other != node {
                    return fail(format!(
                        "nodes {other} and {node} share FU {} in modulo slot {}",
                        arch.resource(p.fu).name,
                        p.cycle % self.ii
                    ));
                }
            }
            fu_slots.insert(key, node);
        }
        // 3-4. Dependency timing and route structure.
        let mut state = RoutingState::new(arch, self.ii);
        for edge in dfg.edges() {
            let src = self.placements[&edge.src];
            let dst = self.placements[&edge.dst];
            let arrival_target = match edge.kind {
                EdgeKind::Data => dst.cycle,
                EdgeKind::Recurrence { distance } => dst.cycle + distance * self.ii,
            };
            if arrival_target < src.cycle + 1 {
                return fail(format!(
                    "edge {} violates timing: producer at {}, consumer at {}",
                    edge.id, src.cycle, arrival_target
                ));
            }
            if !dfg.edge_carries_data(edge) {
                continue;
            }
            let Some(route) = self.routes.get(&edge.id) else {
                return fail(format!("data edge {} has no route", edge.id));
            };
            // Walk the route checking link existence and latency consistency.
            let mut prev_res = src.fu;
            let mut prev_cycle = src.cycle;
            for hop in &route.hops {
                let Some(link) = arch.out_links(prev_res).find(|l| l.to == hop.resource) else {
                    return fail(format!(
                        "route of edge {} uses missing link {} -> {}",
                        edge.id,
                        arch.resource(prev_res).name,
                        arch.resource(hop.resource).name
                    ));
                };
                if prev_cycle + link.latency != hop.cycle {
                    return fail(format!(
                        "route of edge {} has inconsistent timing at {}",
                        edge.id,
                        arch.resource(hop.resource).name
                    ));
                }
                if arch.resource(hop.resource).kind.is_func_unit() {
                    return fail(format!(
                        "route of edge {} passes through functional unit {}",
                        edge.id,
                        arch.resource(hop.resource).name
                    ));
                }
                state.occupy(hop.resource, hop.cycle, edge.src);
                prev_res = hop.resource;
                prev_cycle = hop.cycle;
            }
            let Some(last_link) = arch.out_links(prev_res).find(|l| l.to == dst.fu) else {
                return fail(format!(
                    "route of edge {} does not terminate at the consumer FU",
                    edge.id
                ));
            };
            if prev_cycle + last_link.latency != arrival_target {
                return fail(format!(
                    "route of edge {} arrives at {} but consumer executes at {}",
                    edge.id,
                    prev_cycle + last_link.latency,
                    arrival_target
                ));
            }
        }
        // 5. Switch capacities.
        for r in arch.resources() {
            for slot in 0..self.ii {
                if state.usage(r.id, slot) > r.kind.capacity() {
                    return fail(format!(
                        "switch {} over capacity in modulo slot {slot}",
                        r.name
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_length_and_cycles() {
        let mut placements = HashMap::new();
        placements.insert(
            NodeId(0),
            Placement {
                fu: ResourceId(0),
                cycle: 0,
            },
        );
        placements.insert(
            NodeId(1),
            Placement {
                fu: ResourceId(2),
                cycle: 3,
            },
        );
        let m = Mapping {
            arch_name: "test".into(),
            mapper_name: "manual".into(),
            ii: 2,
            placements,
            routes: HashMap::new(),
        };
        assert_eq!(m.schedule_length(), 4);
        assert_eq!(m.total_cycles(1), 4);
        assert_eq!(m.total_cycles(10), 9 * 2 + 4);
        assert_eq!(m.total_cycles(0), 0);
    }

    #[test]
    fn route_len_and_hops() {
        let route = Route {
            hops: vec![
                RouteHop {
                    resource: ResourceId(1),
                    cycle: 1,
                },
                RouteHop {
                    resource: ResourceId(3),
                    cycle: 2,
                },
            ],
        };
        assert_eq!(route.len(), 2);
        assert!(!route.is_empty());
        assert!(Route::default().is_empty());
    }
}
