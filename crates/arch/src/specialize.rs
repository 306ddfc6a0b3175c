//! Domain-specialized architecture variants (Sections 4.4 and 7.3).
//!
//! * **ST-ML** — the spatio-temporal baseline pruned for the machine-learning
//!   domain: the function set and constant width of each PE are reduced,
//!   which shrinks the configuration word and the compute datapath (REVAMP
//!   style). The fabric topology is unchanged.
//! * **Plaid-ML** — Plaid with the local router of every PCU replaced by
//!   hardwired motif connections chosen to cover the machine-learning DFGs:
//!   two fan-in PCUs, one unicast PCU and one fan-out PCU for the 2×2 array,
//!   exactly as described in Section 7.3.

use crate::architecture::{ArchClass, Architecture, Provision};
use crate::params::{ArchParams, ConfigBudget, Domain, HardwiredPattern};
use crate::plaid::{self, SpecializationPlan};
use crate::spatio_temporal;

/// Builds the machine-learning-optimized spatio-temporal CGRA (ST-ML).
///
/// # Panics
///
/// Panics if `rows` or `cols` is zero.
pub fn spatio_temporal_ml(rows: u32, cols: u32) -> Architecture {
    // The ML kernels use a small operation subset (mul, add, shift), so
    // opcode and constant fields shrink and the crossbar control is pruned
    // to the directions the domain actually uses.
    let mut params = ArchParams::baseline(rows, cols);
    params.domain = Some(Domain::MachineLearning);
    params.config = ConfigBudget {
        compute_op_bits: 3,
        compute_const_bits: 6,
        communication_bits: 5 * 3 + 2 * 2 + 4,
        control_bits: 2,
    };
    spatio_temporal::build_with(
        ArchClass::SpatioTemporal,
        &Provision::published("spatio-temporal-ml", params),
    )
}

/// Builds the machine-learning-optimized Plaid (Plaid-ML) on a 2×2 PCU array:
/// two hardwired fan-in PCUs, one unicast PCU and one fan-out PCU.
pub fn plaid_ml_2x2() -> Architecture {
    let plan = SpecializationPlan {
        hardwired: vec![
            Some(HardwiredPattern::FanIn),
            Some(HardwiredPattern::FanIn),
            Some(HardwiredPattern::Unicast),
            Some(HardwiredPattern::FanOut),
        ],
    };
    let mut params = ArchParams::plaid(2, 2);
    params.domain = Some(Domain::MachineLearning);
    // Hardwiring removes the local-router select fields from the PCU
    // configuration word.
    params.config.communication_bits = 7 * 4 + 8;
    plaid::build_with(&plan, &Provision::published("plaid-ml-2x2", params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn st_ml_shrinks_the_configuration_word() {
        let st = spatio_temporal::build(4, 4);
        let st_ml = spatio_temporal_ml(4, 4);
        assert!(st_ml.params().config.total_bits() < st.params().config.total_bits());
        assert_eq!(
            st_ml.functional_units().count(),
            st.functional_units().count()
        );
        assert_eq!(st_ml.params().domain, Some(Domain::MachineLearning));
    }

    #[test]
    fn plaid_ml_hardwires_the_motif_mix_from_the_paper() {
        let arch = plaid_ml_2x2();
        let patterns: Vec<_> = arch.clusters().iter().filter_map(|c| c.hardwired).collect();
        assert_eq!(patterns.len(), 4);
        assert_eq!(
            patterns
                .iter()
                .filter(|p| **p == HardwiredPattern::FanIn)
                .count(),
            2
        );
        assert_eq!(
            patterns
                .iter()
                .filter(|p| **p == HardwiredPattern::Unicast)
                .count(),
            1
        );
        assert_eq!(
            patterns
                .iter()
                .filter(|p| **p == HardwiredPattern::FanOut)
                .count(),
            1
        );
    }

    #[test]
    fn plaid_ml_has_a_smaller_config_word_than_plaid() {
        let plaid = crate::plaid::build(2, 2);
        let plaid_ml = plaid_ml_2x2();
        assert!(plaid_ml.params().config.total_bits() < plaid.params().config.total_bits());
        assert_eq!(
            plaid_ml.functional_units().count(),
            plaid.functional_units().count()
        );
    }

    #[test]
    fn hardwiring_preserves_fabric_structure() {
        let plaid = crate::plaid::build(2, 2);
        let plaid_ml = plaid_ml_2x2();
        assert_eq!(plaid.resources().len(), plaid_ml.resources().len());
        assert_eq!(plaid.links().len(), plaid_ml.links().len());
    }
}
