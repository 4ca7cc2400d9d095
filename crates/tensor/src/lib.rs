//! # af-tensor — tensor kernels and a reverse-mode tape for AnalogFold
//!
//! A zero-dependency f64 tensor engine sized for the 3DGNN workload:
//!
//! - [`kernels`] — cache-blocked matmul built from `mul_add` chains, its two
//!   backward forms, and fused `linear`/activation kernels
//!   ([`matmul_bias_relu`](kernels::matmul_bias_relu) and friends);
//! - [`exp`] — a deterministic vectorized `exp`/sigmoid/SiLU (AVX2 with a
//!   bit-identical scalar fallback) that removes the libm bottleneck from
//!   activation- and RBF-heavy replays;
//! - [`csr`] — [`CsrIndex`]: per-relation batched row `gather` /
//!   `scatter_add` with a stable grouping;
//! - [`tape`] — [`Tape`]/[`Var`]: a record-once / replay-many reverse-mode
//!   tape whose forward+backward replays are allocation-free, so one tape
//!   serves every L-BFGS iteration of a relaxation or every sample of a
//!   training epoch.
//!
//! ## Determinism and parity contract
//!
//! Two tiers:
//!
//! **Algebraic kernels** (matmul, gather/scatter, sums, add/mul/…) preserve
//! the **per-output-element accumulation order** of the scalar oracle
//! (`af_nn::Graph`): ascending-`k` dot products, stable ascending-edge
//! scatter sums, ascending-row column sums. On hosts without FMA they are
//! bit-identical to the oracle; when the `fma` target feature is on or the
//! runtime AVX2+FMA dispatch engages ([`kernels::fma_active`]), the matmul
//! family fuses the multiply-add rounding step and matches within `1e-9`.
//!
//! **Transcendentals** (exp, SiLU, sigmoid, RBF) run on the [`exp`] module's
//! polynomial exp — accurate to ≲1e-13 relative against libm, so
//! end-to-end predictions/gradients match the oracle within the documented
//! `≤1e-9` envelope rather than bitwise.
//!
//! Crucially, the fast path is **deterministic in itself**: the AVX2 lanes
//! and the scalar fallback evaluate the identical rounding sequence, so
//! replays are bit-identical across runs, thread counts, and machines.
//! Thread-count invariance is structural: kernels are sequential per
//! tensor, and callers parallelize only across independent tapes.

#![warn(missing_docs)]

pub mod csr;
pub mod exp;
pub mod kernels;
pub mod tape;

pub use csr::CsrIndex;
pub use exp::{fast_exp, fast_sigmoid, vexp_inplace, vsigmoid, vsilu};
pub use kernels::{
    act_backward_aux_inplace, act_backward_inplace, act_forward, act_forward_aux, add_bias_inplace,
    colsum_acc, fma_active, fmadd, linear_forward, linear_forward_aux, matmul, matmul_a_bt_acc,
    matmul_at_b_acc, matmul_bias_relu, Act,
};
pub use tape::{CsrRef, Tape, Var};
