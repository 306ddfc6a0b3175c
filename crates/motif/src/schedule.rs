//! Flexible motif schedule templates (Section 5.2).
//!
//! A schedule template assigns each node of a motif to one of the three ALUs
//! of a PCU and to a cycle offset relative to the motif's start cycle. The
//! paper shows that allowing "reversed" and "stretched" templates (rather
//! than a strict left-to-right order) noticeably improves utilization of the
//! motif compute unit (Figure 11).

use crate::motif::MotifKind;

/// Placement of one motif node on the PCU's ALU row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduleSlot {
    /// Index of the node within [`crate::Motif::nodes`].
    pub node: usize,
    /// ALU index within the PCU (0 = leftmost, 2 = rightmost).
    pub alu: usize,
    /// Cycle offset relative to the motif's start cycle.
    pub cycle: u32,
}

/// A complete schedule template for one motif.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MotifSchedule {
    /// One slot per motif node.
    pub slots: &'static [ScheduleSlot],
}

/// Shorthand for the template tables below: motif node `node` on ALU `alu`
/// at offset `cycle`.
const fn slot(node: usize, alu: usize, cycle: u32) -> ScheduleSlot {
    ScheduleSlot { node, alu, cycle }
}

/// Shorthand for the template tables below.
const fn template(slots: &'static [ScheduleSlot]) -> MotifSchedule {
    MotifSchedule { slots }
}

impl MotifSchedule {
    /// Latest cycle offset used by the template.
    pub fn span(&self) -> u32 {
        self.slots.iter().map(|s| s.cycle).max().unwrap_or(0)
    }

    /// Slot of a given motif-node index.
    pub fn slot_of(&self, node: usize) -> Option<ScheduleSlot> {
        self.slots.iter().copied().find(|s| s.node == node)
    }

    /// Checks that every internal dependency of `kind` is satisfied: each
    /// consumer is scheduled at least one cycle after its producer, and no two
    /// nodes share an ALU in the same cycle.
    pub fn respects_dependencies(&self, kind: MotifKind) -> bool {
        let dep_pairs: Vec<(usize, usize)> = match kind {
            MotifKind::FanIn => vec![(0, 2), (1, 2)],
            MotifKind::FanOut => vec![(0, 1), (0, 2)],
            MotifKind::Unicast => vec![(0, 1), (1, 2)],
        };
        for (producer, consumer) in dep_pairs {
            let (Some(p), Some(c)) = (self.slot_of(producer), self.slot_of(consumer)) else {
                return false;
            };
            if c.cycle <= p.cycle {
                return false;
            }
        }
        for (i, a) in self.slots.iter().enumerate() {
            for b in &self.slots[i + 1..] {
                if a.alu == b.alu && a.cycle == b.cycle {
                    return false;
                }
            }
        }
        true
    }

    /// Whether the template uses the registered ALU-to-ALU bypass path for the
    /// internal edge `producer -> consumer` (adjacent ALUs, left to right, one
    /// cycle apart).
    pub fn uses_bypass(&self, producer: usize, consumer: usize) -> bool {
        match (self.slot_of(producer), self.slot_of(consumer)) {
            (Some(p), Some(c)) => c.alu == p.alu + 1 && c.cycle == p.cycle + 1,
            _ => false,
        }
    }
}

static FAN_OUT: [MotifSchedule; 6] = [
    // Producer first, both consumers the next cycle.
    template(&[slot(0, 0, 0), slot(1, 1, 1), slot(2, 2, 1)]),
    template(&[slot(0, 0, 0), slot(1, 1, 1), slot(2, 2, 2)]),
    template(&[slot(0, 0, 0), slot(1, 1, 2), slot(2, 2, 1)]),
    // Reversed ALU order (producer on the rightmost ALU).
    template(&[slot(0, 2, 0), slot(1, 1, 1), slot(2, 0, 1)]),
    template(&[slot(0, 2, 0), slot(1, 1, 1), slot(2, 0, 2)]),
    template(&[slot(0, 2, 0), slot(1, 1, 2), slot(2, 0, 1)]),
];

static FAN_IN: [MotifSchedule; 5] = [
    // Both producers in the same cycle, consumer the next cycle.
    template(&[slot(0, 0, 0), slot(1, 1, 0), slot(2, 2, 1)]),
    template(&[slot(0, 1, 0), slot(1, 2, 0), slot(2, 0, 1)]),
    template(&[slot(0, 0, 0), slot(1, 2, 0), slot(2, 1, 1)]),
    // Staggered producers.
    template(&[slot(0, 0, 0), slot(1, 1, 1), slot(2, 2, 2)]),
    template(&[slot(0, 2, 0), slot(1, 1, 1), slot(2, 0, 2)]),
];

static UNICAST: [MotifSchedule; 4] = [
    // Left-to-right pipeline (uses both bypass paths).
    template(&[slot(0, 0, 0), slot(1, 1, 1), slot(2, 2, 2)]),
    // Reversed order (no bypass, local router carries the edges).
    template(&[slot(0, 2, 0), slot(1, 1, 1), slot(2, 0, 2)]),
    // Folded variants freeing one ALU for another motif.
    template(&[slot(0, 0, 0), slot(1, 1, 1), slot(2, 0, 2)]),
    template(&[slot(0, 1, 0), slot(1, 2, 1), slot(2, 1, 2)]),
];

/// Returns the schedule templates for a motif kind, in preference order
/// (templates that finish earlier and use bypass paths come first). The
/// tables are static, so a mapper probing them allocates nothing.
pub fn schedule_templates(kind: MotifKind) -> &'static [MotifSchedule] {
    match kind {
        MotifKind::FanOut => &FAN_OUT,
        MotifKind::FanIn => &FAN_IN,
        MotifKind::Unicast => &UNICAST,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_template_respects_dependencies() {
        for kind in MotifKind::THREE_NODE {
            let templates = schedule_templates(kind);
            assert!(!templates.is_empty());
            for (i, t) in templates.iter().enumerate() {
                assert!(
                    t.respects_dependencies(kind),
                    "{kind:?} template {i} violates a dependency"
                );
                assert_eq!(t.slots.len(), MotifKind::NODE_COUNT);
            }
        }
    }

    #[test]
    fn every_template_places_each_motif_node_once() {
        // A mapper derives a motif's incident edges from its nodes once per
        // placement and reuses them for every template; that is exact only
        // because every template places the same node set, each node once.
        for kind in MotifKind::THREE_NODE {
            for (i, t) in schedule_templates(kind).iter().enumerate() {
                let mut nodes: Vec<usize> = t.slots.iter().map(|s| s.node).collect();
                nodes.sort_unstable();
                assert_eq!(
                    nodes,
                    (0..MotifKind::NODE_COUNT).collect::<Vec<_>>(),
                    "{kind:?} template {i} does not place each node once"
                );
            }
        }
    }

    #[test]
    fn fan_out_has_six_templates_like_the_paper() {
        assert_eq!(schedule_templates(MotifKind::FanOut).len(), 6);
    }

    #[test]
    fn templates_fit_within_three_alus() {
        for kind in MotifKind::THREE_NODE {
            for t in schedule_templates(kind) {
                assert!(t.slots.iter().all(|s| s.alu < 3));
            }
        }
    }

    #[test]
    fn unicast_primary_template_uses_bypass_paths() {
        let t = &schedule_templates(MotifKind::Unicast)[0];
        assert!(t.uses_bypass(0, 1));
        assert!(t.uses_bypass(1, 2));
        assert_eq!(t.span(), 2);
    }

    #[test]
    fn reversed_unicast_does_not_use_bypass() {
        let t = &schedule_templates(MotifKind::Unicast)[1];
        assert!(!t.uses_bypass(0, 1));
        assert!(!t.uses_bypass(1, 2));
        assert!(t.respects_dependencies(MotifKind::Unicast));
    }

    #[test]
    fn span_and_slot_queries() {
        let t = &schedule_templates(MotifKind::FanIn)[0];
        assert_eq!(t.span(), 1);
        assert_eq!(t.slot_of(2).unwrap().alu, 2);
        assert!(t.slot_of(5).is_none());
    }

    #[test]
    fn same_alu_same_cycle_is_rejected() {
        const BAD: MotifSchedule = template(&[slot(0, 0, 0), slot(1, 0, 0), slot(2, 1, 1)]);
        let bad = BAD;
        assert!(!bad.respects_dependencies(MotifKind::FanIn));
    }
}
