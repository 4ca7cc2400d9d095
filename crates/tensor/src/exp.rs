//! Deterministic vectorized exponentials.
//!
//! The forward/backward replay of a compiled GNN program is dominated by
//! `exp` calls — every SiLU activation and every RBF edge feature pays one.
//! libm's `exp` is correctly rounded but scalar and ~11 ns/call on the
//! machines we target; at ~10⁵ calls per evaluation that is the entire
//! throughput budget. This module supplies a polynomial `exp` that is
//!
//! * **accurate to ≲1e-13 relative error** over the full finite range —
//!   comfortably inside the crate's documented ≤1e-9 end-to-end parity
//!   envelope against the scalar oracle (which keeps using libm);
//! * **deterministic across machines and code paths**: the AVX2 lanes and
//!   the scalar fallback evaluate the *same* IEEE-754 expression DAG —
//!   separate multiplies and adds only (never FMA, even on FMA hardware),
//!   correctly-rounded divides, and compare+blend clamps — so a value
//!   computed on an AVX2 host is bit-identical to the same value computed
//!   by the scalar fallback elsewhere. Rust never contracts `a * b + c`
//!   into an FMA on its own, so this holds under any `target-feature` set.
//!
//! # Algorithm
//!
//! Standard range reduction: `x = n·ln2 + r` with `|r| ≤ ln2/2`, where `n`
//! is recovered branch-free via the Shift trick (add `1.5·2⁵²`, read the
//! mantissa bits), and `ln2` is split Cephes-style (`LN2_HI` exact in 32
//! bits) so `r` is computed without cancellation error. `e^r` is a
//! degree-13 Taylor polynomial evaluated in Estrin form (short dependency
//! chains — the scalar fallback pipelines well too), and `2ⁿ` lands by
//! direct exponent injection (the `-80` cut below keeps `n` inside the
//! normal range, so a single scaling step never overflows).
//!
//! # Contract deviations from libm
//!
//! Inputs above `709` saturate at `exp(709) ≈ 8.2e307` instead of
//! overflowing to `+∞`, and inputs below `-80` return **exactly `+0.0`**
//! (an absolute deviation of at most `exp(-80) ≈ 1.8e-35` — thirty orders
//! of magnitude under the parity envelope). The hard zero is deliberate:
//! RBF tails otherwise emit values that, multiplied by small gradients in
//! backward, litter the replay with subnormals whose hardware assist
//! penalty (~100 cycles each) costs more than the exp itself. Zeros keep
//! every downstream product on the fast path. NaN propagates.

/// Inputs below this return exactly `+0.0` (see the module docs).
const EXP_CUT: f64 = -80.0;
/// Upper input clamp: above this `exp` overflows.
const EXP_HI: f64 = 709.0;
const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// High part of ln2, exact in the upper mantissa bits (Cephes split).
const LN2_HI: f64 = 6.931_457_519_531_25e-1;
/// Low part: `ln2 - LN2_HI`.
const LN2_LO: f64 = 1.428_606_820_309_417_2e-6;
/// `1.5 · 2⁵²` — adding this forces rounding to an integer in the mantissa.
const SHIFT: f64 = 6_755_399_441_055_744.0;
const MANT_MASK: u64 = 0x000F_FFFF_FFFF_FFFF;

// Taylor coefficients 1/i! for e^r, degree 13.
const C2: f64 = 0.5;
const C3: f64 = 1.0 / 6.0;
const C4: f64 = 1.0 / 24.0;
const C5: f64 = 1.0 / 120.0;
const C6: f64 = 1.0 / 720.0;
const C7: f64 = 1.0 / 5_040.0;
const C8: f64 = 1.0 / 40_320.0;
const C9: f64 = 1.0 / 362_880.0;
const C10: f64 = 1.0 / 3_628_800.0;
const C11: f64 = 1.0 / 39_916_800.0;
const C12: f64 = 1.0 / 479_001_600.0;
const C13: f64 = 1.0 / 6_227_020_800.0;

/// Scalar reference path. Every arithmetic step here has a 1:1 AVX2
/// counterpart in `avx2`; keep the two in lockstep (the
/// `avx2_matches_scalar_bitwise` test enforces it).
#[inline(always)]
pub fn fast_exp(x: f64) -> f64 {
    // Clamp via compares that are false for NaN, so NaN falls through
    // untouched — mirrors the SIMD cmp+blend exactly.
    let xc = if x < EXP_CUT { EXP_CUT } else { x };
    let xc = if xc > EXP_HI { EXP_HI } else { xc };
    let k = xc * LOG2_E + SHIFT;
    let n = (k.to_bits() & MANT_MASK) as i64 - (1i64 << 51);
    let kk = k - SHIFT;
    let r = (xc - kk * LN2_HI) - kk * LN2_LO;
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let q1 = C2 + r * C3;
    let q2 = C4 + r * C5;
    let q3 = C6 + r * C7;
    let q4 = C8 + r * C9;
    let q5 = C10 + r * C11;
    let q6 = C12 + r * C13;
    let e0 = (1.0 + r) + r2 * q1;
    let e1 = q2 + r2 * q3;
    let e2 = (q4 + r2 * q5) + r4 * q6;
    let p = (e0 + r4 * e1) + r8 * e2;
    // Single-step 2ⁿ injection: with the −80 cut, n ∈ [−116, 1023] and both
    // the scale and `p·s` stay comfortably inside the normal range
    // (`p ≤ √2`, so `p·2¹⁰²³ < f64::MAX`).
    let s = f64::from_bits(((n + 1023) as u64) << 52);
    let y = p * s;
    // The underflow-to-zero described in the module docs; false for NaN,
    // which therefore rides through in `y`.
    if x < EXP_CUT {
        0.0
    } else {
        y
    }
}

/// Scalar logistic sigmoid on the deterministic [`fast_exp`].
///
/// The argument is `0.0 - x`, not `-x`: the two differ only at `x = +0.0`
/// (where `fast_exp` returns exactly 1 for either zero) and for NaN, which
/// the subtraction passes through with its sign. A NaN input therefore
/// yields the same NaN, and SiLU's `x · sigmoid(x)` multiplies two
/// identical NaNs, so its bits do not depend on the operand order the
/// compiler picks.
#[inline(always)]
pub fn fast_sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + fast_exp(0.0 - x))
}

#[cfg(target_arch = "x86_64")]
fn have_avx2() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// Runtime AVX2+FMA availability, cached; gates the fused matmul dispatch
/// in [`crate::kernels`].
#[cfg(target_arch = "x86_64")]
pub(crate) fn have_avx2_fma() -> bool {
    use std::sync::OnceLock;
    static AVX2FMA: OnceLock<bool> = OnceLock::new();
    *AVX2FMA.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// Four-lane mirror of [`fast_exp`]. Only separate `mul`/`add` — no FMA
    /// intrinsics ever, so lanes round exactly like the scalar expression.
    #[inline(always)]
    unsafe fn exp4(x: __m256d) -> __m256d {
        let vcut = _mm256_set1_pd(EXP_CUT);
        let vhi = _mm256_set1_pd(EXP_HI);
        // cmp+blend keeps NaN lanes untouched, like the scalar branches.
        let m_cut = _mm256_cmp_pd(x, vcut, _CMP_LT_OQ);
        let xc = _mm256_blendv_pd(x, vcut, m_cut);
        let m_hi = _mm256_cmp_pd(xc, vhi, _CMP_GT_OQ);
        let xc = _mm256_blendv_pd(xc, vhi, m_hi);

        let shift = _mm256_set1_pd(SHIFT);
        let k = _mm256_add_pd(_mm256_mul_pd(xc, _mm256_set1_pd(LOG2_E)), shift);
        let kbits = _mm256_castpd_si256(k);
        let mant = _mm256_and_si256(kbits, _mm256_set1_epi64x(MANT_MASK as i64));
        let n = _mm256_sub_epi64(mant, _mm256_set1_epi64x(1i64 << 51));
        let kk = _mm256_sub_pd(k, shift);
        let r = _mm256_sub_pd(
            _mm256_sub_pd(xc, _mm256_mul_pd(kk, _mm256_set1_pd(LN2_HI))),
            _mm256_mul_pd(kk, _mm256_set1_pd(LN2_LO)),
        );

        let r2 = _mm256_mul_pd(r, r);
        let r4 = _mm256_mul_pd(r2, r2);
        let r8 = _mm256_mul_pd(r4, r4);
        let c = |v: f64| _mm256_set1_pd(v);
        let q1 = _mm256_add_pd(c(C2), _mm256_mul_pd(r, c(C3)));
        let q2 = _mm256_add_pd(c(C4), _mm256_mul_pd(r, c(C5)));
        let q3 = _mm256_add_pd(c(C6), _mm256_mul_pd(r, c(C7)));
        let q4 = _mm256_add_pd(c(C8), _mm256_mul_pd(r, c(C9)));
        let q5 = _mm256_add_pd(c(C10), _mm256_mul_pd(r, c(C11)));
        let q6 = _mm256_add_pd(c(C12), _mm256_mul_pd(r, c(C13)));
        let e0 = _mm256_add_pd(_mm256_add_pd(c(1.0), r), _mm256_mul_pd(r2, q1));
        let e1 = _mm256_add_pd(q2, _mm256_mul_pd(r2, q3));
        let e2 = _mm256_add_pd(
            _mm256_add_pd(q4, _mm256_mul_pd(r2, q5)),
            _mm256_mul_pd(r4, q6),
        );
        let p = _mm256_add_pd(
            _mm256_add_pd(e0, _mm256_mul_pd(r4, e1)),
            _mm256_mul_pd(r8, e2),
        );

        // Single-step 2ⁿ injection (see the scalar path). NaN lanes produce
        // garbage n, but the NaN in `p` propagates through the multiply
        // regardless, matching scalar.
        let bias = _mm256_set1_epi64x(1023);
        let s = _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_add_epi64(n, bias), 52));
        let y = _mm256_mul_pd(p, s);
        // Underflow-to-zero below the cut; the mask is false for NaN lanes.
        _mm256_andnot_pd(m_cut, y)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn vexp_inplace(buf: &mut [f64]) {
        let len = buf.len();
        let ptr = buf.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= len {
            let x = _mm256_loadu_pd(ptr.add(i));
            _mm256_storeu_pd(ptr.add(i), exp4(x));
            i += 4;
        }
        for v in &mut buf[i..] {
            *v = fast_exp(*v);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn vsigmoid(out: &mut [f64], x: &[f64]) {
        let len = x.len();
        let one = _mm256_set1_pd(1.0);
        let zero = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= len {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            // `0.0 - x`, as in the scalar `fast_sigmoid`.
            let e = exp4(_mm256_sub_pd(zero, xv));
            let s = _mm256_div_pd(one, _mm256_add_pd(one, e));
            _mm256_storeu_pd(out.as_mut_ptr().add(i), s);
            i += 4;
        }
        while i < len {
            out[i] = fast_sigmoid(x[i]);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn vsilu(out: &mut [f64], sig: &mut [f64], pre: &[f64]) {
        let len = pre.len();
        let one = _mm256_set1_pd(1.0);
        let zero = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= len {
            let xv = _mm256_loadu_pd(pre.as_ptr().add(i));
            let e = exp4(_mm256_sub_pd(zero, xv));
            let s = _mm256_div_pd(one, _mm256_add_pd(one, e));
            _mm256_storeu_pd(sig.as_mut_ptr().add(i), s);
            _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_mul_pd(xv, s));
            i += 4;
        }
        while i < len {
            let s = fast_sigmoid(pre[i]);
            sig[i] = s;
            out[i] = pre[i] * s;
            i += 1;
        }
    }
}

/// `buf[i] = fast_exp(buf[i])` for every element, vectorized where the host
/// supports AVX2, with a bit-identical scalar fallback elsewhere.
pub fn vexp_inplace(buf: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if have_avx2() {
        // SAFETY: have_avx2 gates on runtime AVX2 detection.
        unsafe { avx2::vexp_inplace(buf) };
        return;
    }
    for v in buf.iter_mut() {
        *v = fast_exp(*v);
    }
}

/// `out[i] = sigmoid(x[i])` on the deterministic exp.
///
/// # Panics
///
/// Debug-asserts matching lengths.
pub fn vsigmoid(out: &mut [f64], x: &[f64]) {
    debug_assert_eq!(out.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    if have_avx2() {
        // SAFETY: have_avx2 gates on runtime AVX2 detection.
        unsafe { avx2::vsigmoid(out, x) };
        return;
    }
    for (o, &v) in out.iter_mut().zip(x) {
        *o = fast_sigmoid(v);
    }
}

/// Fused SiLU forward: `sig[i] = sigmoid(pre[i])`, `out[i] = pre[i]·sig[i]`.
///
/// The sigmoid lands in a caller-owned buffer so backward can reuse it
/// instead of recomputing an exp per element (see
/// [`act_backward_aux_inplace`](crate::kernels::act_backward_aux_inplace)).
///
/// # Panics
///
/// Debug-asserts matching lengths.
pub fn vsilu(out: &mut [f64], sig: &mut [f64], pre: &[f64]) {
    debug_assert_eq!(out.len(), pre.len());
    debug_assert_eq!(sig.len(), pre.len());
    #[cfg(target_arch = "x86_64")]
    if have_avx2() {
        // SAFETY: have_avx2 gates on runtime AVX2 detection.
        unsafe { avx2::vsilu(out, sig, pre) };
        return;
    }
    for ((o, s), &v) in out.iter_mut().zip(sig.iter_mut()).zip(pre) {
        let sv = fast_sigmoid(v);
        *s = sv;
        *o = v * sv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random doubles in [-scale, scale).
    fn lcg_doubles(n: usize, seed: u64, scale: f64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * scale
            })
            .collect()
    }

    #[test]
    fn accuracy_vs_libm() {
        let mut worst = 0.0f64;
        for &scale in &[1.0f64, 8.0, 40.0, 200.0, 700.0] {
            for x in lcg_doubles(20_000, 0x9e3779b97f4a7c15 ^ scale.to_bits(), scale) {
                if !(EXP_CUT..=EXP_HI).contains(&x) {
                    continue;
                }
                let got = fast_exp(x);
                let want = x.exp();
                if want.is_normal() {
                    worst = worst.max(((got - want) / want).abs());
                }
            }
        }
        assert!(worst < 5e-13, "max rel err {worst:.3e}");
    }

    #[test]
    fn avx2_matches_scalar_bitwise() {
        // Covers every remainder length and a value range spanning
        // subnormal results through near-overflow, plus the clamp edges.
        for len in 1..=13usize {
            let mut xs = lcg_doubles(len, 0xfeed ^ len as u64, 750.0);
            if len > 4 {
                xs[0] = EXP_CUT;
                xs[1] = EXP_HI;
                xs[2] = 0.0;
                xs[3] = -0.0;
                xs[4] = f64::NAN;
            }
            let mut buf = xs.clone();
            vexp_inplace(&mut buf);
            for (i, (&got, &x)) in buf.iter().zip(&xs).enumerate() {
                let want = fast_exp(x);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "exp lane {i} of {len}: x={x}"
                );
            }
            let mut sig = vec![f64::NAN; len];
            vsigmoid(&mut sig, &xs);
            let mut out = vec![f64::NAN; len];
            let mut sig2 = vec![f64::NAN; len];
            vsilu(&mut out, &mut sig2, &xs);
            for i in 0..len {
                let want = fast_sigmoid(xs[i]);
                assert_eq!(
                    sig[i].to_bits(),
                    want.to_bits(),
                    "sigmoid lane {i} of {len}"
                );
                assert_eq!(
                    sig2[i].to_bits(),
                    want.to_bits(),
                    "silu sig lane {i} of {len}"
                );
                let wo = xs[i] * want;
                assert_eq!(out[i].to_bits(), wo.to_bits(), "silu out lane {i} of {len}");
            }
        }
    }

    #[test]
    fn edge_cases() {
        assert_eq!(fast_exp(0.0).to_bits(), 1.0f64.to_bits());
        assert!(fast_exp(f64::NAN).is_nan());
        // Saturation above, exact zero below — never ±inf and never a
        // subnormal that would poison downstream products.
        let hi = fast_exp(1.0e308);
        assert!(hi.is_finite() && hi > 1.0e307);
        assert_eq!(fast_exp(f64::INFINITY).to_bits(), hi.to_bits());
        assert_eq!(fast_exp(-1.0e308).to_bits(), 0.0f64.to_bits());
        assert_eq!(fast_exp(f64::NEG_INFINITY).to_bits(), 0.0f64.to_bits());
        // The cut boundary itself still evaluates; just past it is zero.
        assert!(fast_exp(EXP_CUT) > 0.0);
        assert_eq!(fast_exp(EXP_CUT - 1.0e-9), 0.0);
        // Sigmoid saturates cleanly at both rails.
        assert!((fast_sigmoid(40.0) - 1.0).abs() < 1e-12);
        assert!(fast_sigmoid(-40.0) < 1e-12);
        assert!((fast_sigmoid(0.0) - 0.5).abs() < 1e-15);
    }
}
