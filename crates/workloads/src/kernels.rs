//! Kernel definitions in the loop-nest IR.
//!
//! Each function returns the *rolled* kernel; unrolling is applied by the
//! registry (the `_u2` / `_u4` variants of Table 2) via
//! [`plaid_dfg::Kernel::unroll_innermost`] during lowering.

use plaid_dfg::kernel::{AffineExpr, Expr, Kernel, KernelBuilder};
use plaid_dfg::Op;

const N: u64 = 8;

fn av(v: usize) -> AffineExpr {
    AffineExpr::var(v)
}

fn idx2(outer: usize, inner: usize, stride: i64) -> AffineExpr {
    AffineExpr::scaled_var(outer, stride).add(&AffineExpr::var(inner))
}

/// `atax`: matrix transpose times matrix-vector product.
/// Inner loop: `tmp[i] += A[i][j] * x[j]; y[j] += A[i][j] * tmp[i]`.
pub fn atax() -> Kernel {
    KernelBuilder::new("atax")
        .loop_var("i", N)
        .loop_var("j", N)
        .array("A", (N * N) as usize)
        .array("x", N as usize)
        .array("y", N as usize)
        .array("tmp", N as usize)
        .accumulate(
            "tmp",
            av(0),
            Op::Add,
            Expr::binary(
                Op::Mul,
                Expr::load("A", idx2(0, 1, N as i64)),
                Expr::load("x", av(1)),
            ),
        )
        .accumulate(
            "y",
            av(1),
            Op::Add,
            Expr::binary(
                Op::Mul,
                Expr::load("A", idx2(0, 1, N as i64)),
                Expr::load("tmp", av(0)),
            ),
        )
        .build()
        .expect("atax kernel is well-formed")
}

/// `bicg`: BiCG sub-kernel of BiCGStab.
/// Inner loop: `s[j] += r[i] * A[i][j]; q[i] += A[i][j] * p[j]`.
pub fn bicg() -> Kernel {
    KernelBuilder::new("bicg")
        .loop_var("i", N)
        .loop_var("j", N)
        .array("A", (N * N) as usize)
        .array("r", N as usize)
        .array("p", N as usize)
        .array("s", N as usize)
        .array("q", N as usize)
        .accumulate(
            "s",
            av(1),
            Op::Add,
            Expr::binary(
                Op::Mul,
                Expr::load("r", av(0)),
                Expr::load("A", idx2(0, 1, N as i64)),
            ),
        )
        .accumulate(
            "q",
            av(0),
            Op::Add,
            Expr::binary(
                Op::Mul,
                Expr::load("A", idx2(0, 1, N as i64)),
                Expr::load("p", av(1)),
            ),
        )
        .build()
        .expect("bicg kernel is well-formed")
}

/// `doitgen`: multi-resolution analysis kernel.
/// Inner loop: `sum[p] += A[r][q][s] * C4[s][p]`.
pub fn doitgen() -> Kernel {
    KernelBuilder::new("doitgen")
        .loop_var("q", N)
        .loop_var("p", N)
        .loop_var("s", N)
        .array("A", (N * N) as usize)
        .array("C4", (N * N) as usize)
        .array("sum", N as usize)
        .accumulate(
            "sum",
            av(1),
            Op::Add,
            Expr::binary(
                Op::Mul,
                Expr::load("A", idx2(0, 2, N as i64)),
                Expr::load("C4", idx2(2, 1, N as i64)),
            ),
        )
        .store(
            "sum",
            av(1),
            Expr::binary(Op::Max, Expr::load("sum", av(1)), Expr::Const(0)),
        )
        .build()
        .expect("doitgen kernel is well-formed")
}

/// `gemm`: general matrix multiply `C[i][j] += alpha * A[i][k] * B[k][j]`.
pub fn gemm() -> Kernel {
    KernelBuilder::new("gemm")
        .loop_var("i", N)
        .loop_var("j", N)
        .loop_var("k", N)
        .array("A", (N * N) as usize)
        .array("B", (N * N) as usize)
        .array("C", (N * N) as usize)
        .accumulate(
            "C",
            idx2(0, 1, N as i64),
            Op::Add,
            Expr::binary(
                Op::Mul,
                Expr::binary(
                    Op::Mul,
                    Expr::load("A", idx2(0, 2, N as i64)),
                    Expr::Const(3),
                ),
                Expr::load("B", idx2(2, 1, N as i64)),
            ),
        )
        .build()
        .expect("gemm kernel is well-formed")
}

/// `gemver`: vector multiplication and matrix addition.
/// Inner loop: `A[i][j] += u1[i]*v1[j] + u2[i]*v2[j]; x[i] += beta*A[j][i]*y[j]`.
pub fn gemver() -> Kernel {
    KernelBuilder::new("gemver")
        .loop_var("i", N)
        .loop_var("j", N)
        .array("A", (N * N) as usize)
        .array("u1", N as usize)
        .array("v1", N as usize)
        .array("u2", N as usize)
        .array("v2", N as usize)
        .array("x", N as usize)
        .array("y", N as usize)
        .accumulate(
            "A",
            idx2(0, 1, N as i64),
            Op::Add,
            Expr::binary(
                Op::Add,
                Expr::binary(Op::Mul, Expr::load("u1", av(0)), Expr::load("v1", av(1))),
                Expr::binary(Op::Mul, Expr::load("u2", av(0)), Expr::load("v2", av(1))),
            ),
        )
        .accumulate(
            "x",
            av(0),
            Op::Add,
            Expr::binary(
                Op::Mul,
                Expr::binary(
                    Op::Mul,
                    Expr::load("A", idx2(1, 0, N as i64)),
                    Expr::Const(2),
                ),
                Expr::load("y", av(1)),
            ),
        )
        .build()
        .expect("gemver kernel is well-formed")
}

/// `gesummv`: scalar, vector and matrix multiplication.
/// Inner loop: `tmp[i] += A[i][j]*x[j]; y[i] += B[i][j]*x[j]`.
pub fn gesummv() -> Kernel {
    KernelBuilder::new("gesumm")
        .loop_var("i", N)
        .loop_var("j", N)
        .array("A", (N * N) as usize)
        .array("B", (N * N) as usize)
        .array("x", N as usize)
        .array("tmp", N as usize)
        .array("y", N as usize)
        .accumulate(
            "tmp",
            av(0),
            Op::Add,
            Expr::binary(
                Op::Mul,
                Expr::load("A", idx2(0, 1, N as i64)),
                Expr::load("x", av(1)),
            ),
        )
        .accumulate(
            "y",
            av(0),
            Op::Add,
            Expr::binary(
                Op::Mul,
                Expr::load("B", idx2(0, 1, N as i64)),
                Expr::load("x", av(1)),
            ),
        )
        .build()
        .expect("gesummv kernel is well-formed")
}

/// `conv2x2`: 2×2 convolution over a feature map (TinyML).
pub fn conv2x2() -> Kernel {
    conv("conv2x2", 2)
}

/// `conv3x3`: 3×3 convolution over a feature map (TinyML).
pub fn conv3x3() -> Kernel {
    conv("conv3x3", 3)
}

fn conv(name: &str, k: i64) -> Kernel {
    let width = N as i64 + k;
    let mut sum: Option<Expr> = None;
    for dy in 0..k {
        for dx in 0..k {
            let input = Expr::load(
                "in",
                AffineExpr::scaled_var(0, width)
                    .add(&AffineExpr::var(1))
                    .offset(dy * width + dx),
            );
            let weight = Expr::load("w", AffineExpr::constant(dy * k + dx));
            let term = Expr::binary(Op::Mul, input, weight);
            sum = Some(match sum {
                Some(acc) => Expr::binary(Op::Add, acc, term),
                None => term,
            });
        }
    }
    KernelBuilder::new(name)
        .loop_var("y", N)
        .loop_var("x", N)
        .array("in", ((N as i64 + k) * (N as i64 + k)) as usize)
        .array("w", (k * k) as usize)
        .array("out", (N * N) as usize)
        .store("out", idx2(0, 1, N as i64), sum.expect("k > 0"))
        .build()
        .expect("conv kernel is well-formed")
}

/// `dwconv`: depth-wise convolution (TinyML), one tap per iteration.
/// Inner loop: `out[i] += in[i + k] * w[k]`.
pub fn dwconv() -> Kernel {
    KernelBuilder::new("dwconv")
        .loop_var("i", N)
        .loop_var("k", 5)
        .array("in", (N + 5) as usize)
        .array("w", 5)
        .array("out", N as usize)
        .accumulate(
            "out",
            av(0),
            Op::Add,
            Expr::binary(
                Op::Mul,
                Expr::load("in", AffineExpr::var(0).add(&AffineExpr::var(1))),
                Expr::load("w", av(1)),
            ),
        )
        .build()
        .expect("dwconv kernel is well-formed")
}

/// `fc`: fully connected layer with ReLU (TinyML).
/// Inner loop: `acc[i] += w[i][j]*x[j]; out[i] = max(acc[i] >> 4, 0)`.
pub fn fc() -> Kernel {
    KernelBuilder::new("fc")
        .loop_var("i", N)
        .loop_var("j", N)
        .array("w", (N * N) as usize)
        .array("x", N as usize)
        .array("acc", N as usize)
        .array("out", N as usize)
        .accumulate(
            "acc",
            av(0),
            Op::Add,
            Expr::binary(
                Op::Mul,
                Expr::load("w", idx2(0, 1, N as i64)),
                Expr::load("x", av(1)),
            ),
        )
        .store(
            "out",
            av(0),
            Expr::binary(
                Op::Max,
                Expr::binary(Op::Shr, Expr::load("acc", av(0)), Expr::Const(4)),
                Expr::Const(0),
            ),
        )
        .build()
        .expect("fc kernel is well-formed")
}

/// `cholesky`: Cholesky decomposition inner update
/// `A[i][j] -= A[i][k] * A[j][k]`.
pub fn cholesky() -> Kernel {
    KernelBuilder::new("cholesky")
        .loop_var("j", N)
        .loop_var("k", N)
        .array("A", (N * N) as usize)
        .array("L", (N * N) as usize)
        .accumulate(
            "A",
            idx2(0, 0, 0).add(&AffineExpr::var(0)),
            Op::Sub,
            Expr::binary(
                Op::Mul,
                Expr::load("L", idx2(0, 1, N as i64)),
                Expr::load("L", idx2(0, 1, N as i64).offset(1)),
            ),
        )
        .build()
        .expect("cholesky kernel is well-formed")
}

/// `durbin`: Toeplitz solver inner update
/// `sum[0] += r[k] * y[k]; y[k] = y[k] + alpha * z[k]`.
pub fn durbin() -> Kernel {
    KernelBuilder::new("durbin")
        .loop_var("i", N)
        .loop_var("k", N)
        .array("r", N as usize)
        .array("y", N as usize)
        .array("z", N as usize)
        .array("sum", 1)
        .accumulate(
            "sum",
            AffineExpr::constant(0),
            Op::Add,
            Expr::binary(Op::Mul, Expr::load("r", av(1)), Expr::load("y", av(1))),
        )
        .store(
            "y",
            av(1),
            Expr::binary(
                Op::Add,
                Expr::load("y", av(1)),
                Expr::binary(Op::Mul, Expr::load("z", av(1)), Expr::Const(3)),
            ),
        )
        .build()
        .expect("durbin kernel is well-formed")
}

/// `fdtd`: 2-D finite-difference time-domain update
/// `ey[i][j] -= c*(hz[i][j] - hz[i-1][j]); ex[i][j] -= c*(hz[i][j] - hz[i][j-1])`.
pub fn fdtd() -> Kernel {
    let n = N as i64;
    KernelBuilder::new("fdtd")
        .loop_var("i", N)
        .loop_var("j", N)
        .array("hz", ((N + 1) * (N + 1)) as usize)
        .array("ey", (N * N) as usize)
        .array("ex", (N * N) as usize)
        .accumulate(
            "ey",
            idx2(0, 1, n),
            Op::Sub,
            Expr::binary(
                Op::Mul,
                Expr::binary(
                    Op::Sub,
                    Expr::load("hz", idx2(0, 1, n + 1).offset(n + 1)),
                    Expr::load("hz", idx2(0, 1, n + 1)),
                ),
                Expr::Const(2),
            ),
        )
        .accumulate(
            "ex",
            idx2(0, 1, n),
            Op::Sub,
            Expr::binary(
                Op::Mul,
                Expr::binary(
                    Op::Sub,
                    Expr::load("hz", idx2(0, 1, n + 1).offset(1)),
                    Expr::load("hz", idx2(0, 1, n + 1)),
                ),
                Expr::Const(2),
            ),
        )
        .build()
        .expect("fdtd kernel is well-formed")
}

/// `gramschmidt`: modified Gram-Schmidt inner update
/// `R[k][j] += Q[i][k] * A[i][j]`.
pub fn gramschmidt() -> Kernel {
    KernelBuilder::new("gramsc")
        .loop_var("i", N)
        .loop_var("j", N)
        .array("Q", (N * N) as usize)
        .array("A", (N * N) as usize)
        .array("R", (N * N) as usize)
        .accumulate(
            "R",
            av(1),
            Op::Add,
            Expr::binary(
                Op::Mul,
                Expr::load("Q", idx2(0, 0, 0).add(&AffineExpr::var(0))),
                Expr::load("A", idx2(0, 1, N as i64)),
            ),
        )
        .build()
        .expect("gramschmidt kernel is well-formed")
}

/// `jacobi`: 1-D Jacobi stencil `B[i] = (A[i] + A[i+1] + A[i+2]) * c`.
pub fn jacobi() -> Kernel {
    KernelBuilder::new("jacobi")
        .loop_var("t", 2)
        .loop_var("i", N)
        .array("A", (N + 2) as usize)
        .array("B", N as usize)
        .store(
            "B",
            av(1),
            Expr::binary(
                Op::Mul,
                Expr::binary(
                    Op::Add,
                    Expr::binary(
                        Op::Add,
                        Expr::load("A", av(1)),
                        Expr::load("A", AffineExpr::var(1).offset(1)),
                    ),
                    Expr::load("A", AffineExpr::var(1).offset(2)),
                ),
                Expr::Const(2),
            ),
        )
        .build()
        .expect("jacobi kernel is well-formed")
}

/// `seidel`: 2-D Gauss-Seidel stencil over a single array.
pub fn seidel() -> Kernel {
    let n = N as i64 + 2;
    KernelBuilder::new("seidel")
        .loop_var("i", N)
        .loop_var("j", N)
        .array("A", ((N + 2) * (N + 2)) as usize)
        .store(
            "A",
            idx2(0, 1, n).offset(n + 1),
            Expr::binary(
                Op::Shr,
                Expr::binary(
                    Op::Add,
                    Expr::binary(
                        Op::Add,
                        Expr::binary(
                            Op::Add,
                            Expr::load("A", idx2(0, 1, n)),
                            Expr::load("A", idx2(0, 1, n).offset(n)),
                        ),
                        Expr::binary(
                            Op::Add,
                            Expr::load("A", idx2(0, 1, n).offset(n + 1)),
                            Expr::load("A", idx2(0, 1, n).offset(n + 2)),
                        ),
                    ),
                    Expr::load("A", idx2(0, 1, n).offset(2 * n + 1)),
                ),
                Expr::Const(2),
            ),
        )
        .build()
        .expect("seidel kernel is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid_dfg::interp::{check_lowering_equivalence, MemoryImage};
    use plaid_dfg::lower::lower_kernel;

    fn all_kernels() -> Vec<Kernel> {
        vec![
            atax(),
            bicg(),
            doitgen(),
            gemm(),
            gemver(),
            gesummv(),
            conv2x2(),
            conv3x3(),
            dwconv(),
            fc(),
            cholesky(),
            durbin(),
            fdtd(),
            gramschmidt(),
            jacobi(),
            seidel(),
        ]
    }

    #[test]
    fn all_kernels_validate_and_lower() {
        for kernel in all_kernels() {
            kernel
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
            let dfg = lower_kernel(&kernel, 1).unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
            assert!(dfg.node_count() >= 5, "{} suspiciously small", kernel.name);
            assert!(dfg.compute_node_count() >= 1);
            dfg.validate_structure().unwrap();
        }
    }

    #[test]
    fn lowering_matches_reference_interpretation() {
        for kernel in all_kernels() {
            let dfg = lower_kernel(&kernel, 1).unwrap();
            let memory = MemoryImage::for_kernel(&kernel, |name, i| {
                (name.len() as i64 * 5 + i as i64 * 3) % 17 + 1
            });
            check_lowering_equivalence(&kernel, &dfg, &memory)
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        }
    }

    #[test]
    fn unrolled_variants_also_match_reference() {
        for kernel in [atax(), gemm(), dwconv(), jacobi()] {
            for factor in [2u64, 4] {
                if kernel.loops.last().unwrap().trip_count % factor != 0 {
                    continue;
                }
                let dfg = lower_kernel(&kernel, factor).unwrap();
                let memory = MemoryImage::for_kernel(&kernel, |_, i| (i as i64 % 13) + 1);
                check_lowering_equivalence(&kernel, &dfg, &memory)
                    .unwrap_or_else(|e| panic!("{}_u{factor}: {e}", kernel.name));
            }
        }
    }

    #[test]
    fn conv_kernels_scale_with_window_size() {
        let small = lower_kernel(&conv2x2(), 1).unwrap();
        let large = lower_kernel(&conv3x3(), 1).unwrap();
        assert!(large.node_count() > small.node_count());
        assert!(large.compute_node_count() > small.compute_node_count());
    }

    #[test]
    fn ml_kernel_characteristics_are_in_the_papers_ballpark() {
        // Table 2: conv2x2 has ~20 nodes / ~12 compute; conv3x3 ~37 / ~26;
        // dwconv is tiny (~7 nodes / ~3 compute). Allow generous bands: the
        // exact front-end differs, the structure should not.
        let c22 = lower_kernel(&conv2x2(), 1).unwrap();
        assert!(
            (12..=26).contains(&c22.node_count()),
            "conv2x2 {} nodes",
            c22.node_count()
        );
        let c33 = lower_kernel(&conv3x3(), 1).unwrap();
        assert!(
            (26..=48).contains(&c33.node_count()),
            "conv3x3 {} nodes",
            c33.node_count()
        );
        let dw = lower_kernel(&dwconv(), 1).unwrap();
        assert!(
            (5..=10).contains(&dw.node_count()),
            "dwconv {} nodes",
            dw.node_count()
        );
    }
}
