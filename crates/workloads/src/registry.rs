//! The workload registry: the 30 DFG variants of Table 2.

use plaid_dfg::kernel::Kernel;
use plaid_dfg::lower::lower_kernel;
use plaid_dfg::{Dfg, DfgError};

use crate::kernels;

/// Application domain of a workload (the three groups of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Domain {
    /// PolyBench linear-algebra kernels.
    LinearAlgebra,
    /// TinyML machine-learning kernels.
    MachineLearning,
    /// PolyBench image-processing kernels.
    Image,
}

impl Domain {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Domain::LinearAlgebra => "linear-algebra",
            Domain::MachineLearning => "machine-learning",
            Domain::Image => "image",
        }
    }
}

/// One evaluated workload: a kernel plus an unroll factor.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Display name, matching the paper's naming (e.g. `atax_u2`).
    pub name: String,
    /// Domain group.
    pub domain: Domain,
    /// The rolled kernel.
    pub kernel: Kernel,
    /// Unroll factor applied to the innermost loop.
    pub unroll: u64,
}

impl Workload {
    fn new(domain: Domain, kernel: Kernel, unroll: u64) -> Self {
        let name = if unroll > 1 {
            format!("{}_u{}", kernel.name, unroll)
        } else {
            kernel.name.clone()
        };
        Workload {
            name,
            domain,
            kernel,
            unroll,
        }
    }

    /// Lowers the workload to a DFG (applying the unroll factor).
    ///
    /// # Errors
    ///
    /// Propagates lowering errors (none are expected for registry workloads).
    pub fn lower(&self) -> Result<Dfg, DfgError> {
        lower_kernel(&self.kernel, self.unroll)
    }

    /// Total loop iterations of the (unrolled) kernel.
    pub fn iterations(&self) -> u64 {
        self.kernel.total_iterations() / self.unroll.max(1)
    }

    /// The serializable descriptor of this workload.
    pub fn descriptor(&self) -> WorkloadDescriptor {
        WorkloadDescriptor {
            name: self.name.clone(),
            domain: self.domain,
            kernel: self.kernel.name.clone(),
            unroll: self.unroll,
            iterations: self.iterations(),
        }
    }
}

/// Serializable identity of a workload: everything needed to name a sweep
/// point and re-resolve the workload from the registry, without embedding the
/// kernel IR itself.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadDescriptor {
    /// Display name, e.g. `atax_u2`.
    pub name: String,
    /// Domain group.
    pub domain: Domain,
    /// Rolled kernel name, e.g. `atax`.
    pub kernel: String,
    /// Unroll factor applied to the innermost loop.
    pub unroll: u64,
    /// Total loop iterations of the (unrolled) kernel.
    pub iterations: u64,
}

/// Resolves a registry workload by display name (e.g. `gemm_u4`).
pub fn find_workload(name: &str) -> Option<Workload> {
    table2_workloads().into_iter().find(|w| w.name == name)
}

/// The 30 workloads of Table 2: the first six PolyBench linear-algebra
/// kernels at unroll factors 2 and 4, five TinyML kernels, and the PolyBench
/// image kernels at their respective unroll factors.
pub fn table2_workloads() -> Vec<Workload> {
    use Domain::*;
    let mut out = Vec::new();
    // Linear algebra: unroll 2 and 4.
    for unroll in [2u64, 4] {
        out.push(Workload::new(LinearAlgebra, kernels::atax(), unroll));
        out.push(Workload::new(LinearAlgebra, kernels::bicg(), unroll));
        out.push(Workload::new(LinearAlgebra, kernels::doitgen(), unroll));
        out.push(Workload::new(LinearAlgebra, kernels::gemm(), unroll));
        out.push(Workload::new(LinearAlgebra, kernels::gemver(), unroll));
        out.push(Workload::new(LinearAlgebra, kernels::gesummv(), unroll));
    }
    // Machine learning.
    out.push(Workload::new(MachineLearning, kernels::conv2x2(), 1));
    out.push(Workload::new(MachineLearning, kernels::conv3x3(), 1));
    out.push(Workload::new(MachineLearning, kernels::dwconv(), 1));
    out.push(Workload::new(MachineLearning, kernels::dwconv(), 5));
    out.push(Workload::new(MachineLearning, kernels::fc(), 1));
    // Image.
    for unroll in [2u64, 4] {
        out.push(Workload::new(Image, kernels::cholesky(), unroll));
        out.push(Workload::new(Image, kernels::durbin(), unroll));
        out.push(Workload::new(Image, kernels::fdtd(), unroll));
        out.push(Workload::new(Image, kernels::gramschmidt(), unroll));
    }
    out.push(Workload::new(Image, kernels::jacobi(), 1));
    out.push(Workload::new(Image, kernels::jacobi(), 2));
    out.push(Workload::new(Image, kernels::jacobi(), 4));
    out.push(Workload::new(Image, kernels::seidel(), 1));
    out.push(Workload::new(Image, kernels::seidel(), 2));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_thirty_workloads_with_unique_names() {
        let workloads = table2_workloads();
        assert_eq!(workloads.len(), 30);
        let mut names: Vec<&str> = workloads.iter().map(|w| w.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 30, "duplicate workload names");
    }

    #[test]
    fn every_workload_lowers_to_a_valid_dfg() {
        for w in table2_workloads() {
            let dfg = w.lower().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            dfg.validate_structure().unwrap();
            assert!(dfg.node_count() >= 5, "{} too small", w.name);
            assert!(w.iterations() > 0);
            if w.unroll > 1 {
                assert!(w.name.ends_with(&format!("_u{}", w.unroll)));
            }
        }
    }

    #[test]
    fn domain_split_matches_the_paper() {
        let workloads = table2_workloads();
        let count = |d: Domain| workloads.iter().filter(|w| w.domain == d).count();
        assert_eq!(count(Domain::LinearAlgebra), 12);
        assert_eq!(count(Domain::MachineLearning), 5);
        assert_eq!(count(Domain::Image), 13);
        assert_eq!(Domain::Image.label(), "image");
    }

    #[test]
    fn unrolling_grows_dfg_size() {
        let workloads = table2_workloads();
        let atax2 = workloads.iter().find(|w| w.name == "atax_u2").unwrap();
        let atax4 = workloads.iter().find(|w| w.name == "atax_u4").unwrap();
        assert!(atax4.lower().unwrap().node_count() > atax2.lower().unwrap().node_count());
    }
}
