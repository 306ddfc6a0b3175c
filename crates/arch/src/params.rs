//! Structural and sizing parameters of an architecture instance.
//!
//! These parameters feed two consumers: the mappers (array dimensions,
//! configuration-memory depth, which bounds the maximum initiation interval)
//! and the cost model in `plaid-sim` (configuration bit budgets, scratch-pad
//! sizing, domain specialization).

use serde::{Deserialize, Serialize};

/// Application domain used for domain-specialized variants (Section 4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    /// TinyML-style machine learning kernels (conv / dwconv / fc).
    MachineLearning,
}

/// Motif pattern hardwired into a specialized PCU (Plaid-ML, Section 4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HardwiredPattern {
    /// Two producers feeding one consumer.
    FanIn,
    /// One producer feeding two consumers.
    FanOut,
    /// A three-node sequential chain.
    Unicast,
}

/// Per-tile, per-entry configuration bit budget.
///
/// The split between compute and communication configuration drives the
/// power/area breakdowns of Figure 2 and Figure 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigBudget {
    /// Operation-select bits for all functional units of the tile.
    pub compute_op_bits: u32,
    /// Immediate-constant bits for all functional units of the tile.
    pub compute_const_bits: u32,
    /// Router / multiplexer select bits (communication configuration).
    pub communication_bits: u32,
    /// Predication and miscellaneous control bits.
    pub control_bits: u32,
}

impl ConfigBudget {
    /// Total configuration bits per tile per configuration entry.
    pub fn total_bits(&self) -> u32 {
        self.compute_op_bits + self.compute_const_bits + self.communication_bits + self.control_bits
    }

    /// Bits attributed to compute configuration (op selects + constants).
    pub fn compute_bits(&self) -> u32 {
        self.compute_op_bits + self.compute_const_bits
    }

    /// Configuration budget of a baseline spatio-temporal PE: one ALU
    /// (4-bit opcode, 8-bit constant), a 5-output crossbar router selecting
    /// among 6 inputs, two operand multiplexers and register/predication
    /// control.
    pub fn spatio_temporal_pe() -> Self {
        ConfigBudget {
            compute_op_bits: 4,
            compute_const_bits: 8,
            communication_bits: 5 * 3 + 2 * 3 + 8,
            control_bits: 3,
        }
    }

    /// Configuration budget of a Plaid PCU: three ALUs (4-bit opcode and
    /// 8-bit constant each), one ALSU, plus local (8×8) and global (7×9)
    /// router selects. Totals 120 bits, matching Section 4.3.
    pub fn plaid_pcu() -> Self {
        ConfigBudget {
            // Three ALU opcodes plus the ALSU opcode/address-mode field.
            compute_op_bits: 3 * 4 + 8,
            // Three 8-bit ALU constants plus the ALSU offset constant.
            compute_const_bits: 3 * 8 + 8,
            // Local 8x8 router selects plus global 7x9 router selects.
            communication_bits: 8 * 3 + 7 * 4 + 8,
            control_bits: 8,
        }
    }
}

/// Structural parameters of an architecture instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchParams {
    /// Tile rows (PE rows for the baselines, PCU rows for Plaid).
    pub rows: u32,
    /// Tile columns.
    pub cols: u32,
    /// Configuration-memory depth per tile (paper: 16 entries). This bounds
    /// the maximum initiation interval the mapper may use.
    pub config_entries: u32,
    /// Per-tile, per-entry configuration bit budget.
    pub config: ConfigBudget,
    /// Number of scratch-pad banks.
    pub spm_banks: u32,
    /// Capacity of each scratch-pad bank in KiB.
    pub spm_bank_kib: u32,
    /// Datapath width in bits.
    pub data_width: u32,
    /// Domain specialization, if any.
    pub domain: Option<Domain>,
}

impl ArchParams {
    /// Parameters of a baseline (spatio-temporal or spatial) PE array with the
    /// paper's memory configuration: four 4 KiB banks and 16 config entries.
    pub fn baseline(rows: u32, cols: u32) -> Self {
        ArchParams {
            rows,
            cols,
            config_entries: 16,
            config: ConfigBudget::spatio_temporal_pe(),
            spm_banks: 4,
            spm_bank_kib: 4,
            data_width: 16,
            domain: None,
        }
    }

    /// Parameters of a Plaid PCU array with the paper's memory configuration.
    pub fn plaid(rows: u32, cols: u32) -> Self {
        ArchParams {
            rows,
            cols,
            config_entries: 16,
            config: ConfigBudget::plaid_pcu(),
            spm_banks: 4,
            spm_bank_kib: 4,
            data_width: 16,
            domain: None,
        }
    }

    /// Number of tiles in the array.
    pub fn tile_count(&self) -> u32 {
        self.rows * self.cols
    }

    /// Total configuration bits per cycle across the fabric.
    pub fn fabric_config_bits(&self) -> u32 {
        self.tile_count() * self.config.total_bits()
    }

    /// Maximum initiation interval supported by the configuration memory.
    pub fn max_ii(&self) -> u32 {
        self.config_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plaid_pcu_config_entry_is_120_bits() {
        // Section 4.3: "Each instruction, or configuration entry, comprises a
        // total of 120 bits".
        assert_eq!(ConfigBudget::plaid_pcu().total_bits(), 120);
    }

    #[test]
    fn plaid_routers_consume_about_half_the_encoding() {
        // Section 4.3: "The routers alone consume about half of these
        // encoding bits".
        let b = ConfigBudget::plaid_pcu();
        let frac = f64::from(b.communication_bits) / f64::from(b.total_bits());
        assert!(
            (0.4..=0.6).contains(&frac),
            "router share {frac} not near half"
        );
    }

    #[test]
    fn spatio_temporal_pe_budget_is_dominated_by_communication() {
        let b = ConfigBudget::spatio_temporal_pe();
        assert!(b.communication_bits > b.compute_bits());
        assert_eq!(b.total_bits(), 44);
    }

    #[test]
    fn fabric_budgets_favour_plaid() {
        // A 2x2 Plaid (16 FUs) needs fewer configuration bits per cycle than
        // a 4x4 spatio-temporal CGRA (16 FUs).
        let st = ArchParams::baseline(4, 4);
        let plaid = ArchParams::plaid(2, 2);
        assert!(plaid.fabric_config_bits() < st.fabric_config_bits());
        assert_eq!(st.max_ii(), 16);
    }
}
