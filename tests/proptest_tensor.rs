//! Property-based parity suite for the `af-tensor` core: on random shapes,
//! index lists, and op compositions, the tensor kernels and the reverse-mode
//! tape must reproduce the scalar autograd oracle (`af_nn::Graph`) within
//! 1e-9 — and bit-for-bit on hosts where the FMA matmul dispatch is off and
//! the composition avoids the polynomial exp (see `af_tensor`'s parity
//! contract).

use std::sync::Arc;

use analogfold_suite::nn::{Graph, Tensor};
use analogfold_suite::tensor::{
    colsum_acc, fma_active, matmul, matmul_a_bt_acc, matmul_at_b_acc, matmul_bias_relu, Act,
    CsrIndex, Tape,
};
use proptest::prelude::*;

/// Oracle parity check for algebraic results: bit-equal when the kernels run
/// unfused, ≤1e-9 when the FMA dispatch is active (the fused chains round
/// once where the oracle's mul-then-add rounds twice).
fn assert_parity(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if fma_active() {
            assert!(
                (g - w).abs() <= 1e-9,
                "{what}[{i}]: {g} vs oracle {w} (|Δ| = {:e})",
                (g - w).abs()
            );
        } else {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}[{i}]: {g} vs oracle {w} must be bit-identical without FMA"
            );
        }
    }
}

/// Oracle parity check for results routed through the polynomial exp
/// (RBF/sigmoid/SiLU): ≲1e-13 relative per exp compounds to well under the
/// crate's documented ≤1e-9 envelope on these small graphs.
fn assert_parity_exp(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-9 * (1.0 + w.abs()),
            "{what}[{i}]: {g} vs oracle {w} (|Δ| = {:e})",
            (g - w).abs()
        );
    }
}

/// One nontrivial composition of tensor/tape ops over a 3×2 input. The same
/// `op_mix` builds the identical graph in both engines; several mixes use a
/// value twice so gradients *accumulate* into already-populated buffers —
/// the case where a wrong summation order diverges from the oracle by ULPs.
const ROWS: usize = 3;
const COLS: usize = 2;
const GATHER_A: [usize; 4] = [1, 0, 2, 1];
const GATHER_B: [usize; 4] = [2, 2, 0, 1];
const SCATTER_TO: [usize; 4] = [0, 1, 1, 0];
const W_DATA: [f64; 6] = [0.4, -0.9, 0.25, 1.1, 0.3, -0.55];

/// Oracle evaluation: returns (loss, grad_x, grad_w-if-any).
fn oracle_eval(op_mix: u8, data: &[f64], gamma: f64) -> (f64, Vec<f64>, Option<Vec<f64>>) {
    let mut g = Graph::new();
    let x = g.param(Tensor::from_vec(data.to_vec(), ROWS, COLS));
    let mut w_node = None;
    let y = match op_mix % 6 {
        0 => {
            // Linear + relu: x·W through a tracked weight.
            let w = g.param(Tensor::from_vec(W_DATA.to_vec(), COLS, 3));
            w_node = Some(w);
            let mm = g.matmul(x, w);
            let r = g.relu(mm);
            g.sum(r)
        }
        1 => {
            // x gathered twice → its gradient receives two accumulated
            // contributions through the grouped backward walk.
            let ga = g.gather(x, &GATHER_A);
            let gb = g.gather(x, &GATHER_B);
            let s = g.add(ga, gb);
            let sq = g.square(s);
            g.sum(sq)
        }
        2 => {
            // Distance → RBF chain, the edge-feature path of the 3DGNN.
            let sq = g.square(x);
            let sc = g.sum_cols(sq);
            let d = g.sqrt(sc);
            let r = g.rbf(d, gamma, &[0.0, 0.8, 1.6, 2.4]);
            g.sum(r)
        }
        3 => {
            // Shared weight used by two matmuls: both dW and dX accumulate
            // into buffers that already hold the other consumer's terms.
            let w = g.param(Tensor::from_vec(W_DATA.to_vec(), COLS, 3));
            w_node = Some(w);
            let y1 = g.matmul(x, w);
            let y2 = g.matmul(x, w);
            let s = g.add(y1, y2);
            let m = g.mul(s, s);
            g.sum(m)
        }
        4 => {
            // Message-passing shape: gather → scatter-add → sigmoid.
            let ga = g.gather(x, &GATHER_A);
            let sc = g.scatter_add(ga, &SCATTER_TO, 2);
            let sg = g.sigmoid(sc);
            g.sum(sg)
        }
        _ => {
            // The VAE's reparameterization shape: exp(x/2) ⊙ x, so x's
            // gradient accumulates through both the exp and the product.
            let h = g.scale(x, 0.5);
            let e = g.exp(h);
            let m = g.mul(e, x);
            g.sum(m)
        }
    };
    g.backward(y);
    let gw = w_node.map(|w| g.grad(w).data().to_vec());
    (g.value(y).get(0, 0), g.grad(x).data().to_vec(), gw)
}

/// Tape evaluation of the same composition; reusable for replay checks.
fn tape_build(
    op_mix: u8,
    gamma: f64,
) -> (
    Tape,
    analogfold_suite::tensor::Var,
    Vec<analogfold_suite::tensor::Var>,
) {
    let mut t = Tape::new();
    let x = t.input(ROWS, COLS);
    let mut wanted = vec![x];
    let loss = match op_mix % 6 {
        0 => {
            let w = t.leaf(&W_DATA, COLS, 3);
            wanted.push(w);
            let mm = t.matmul(x, w);
            let r = t.activation(mm, Act::Relu);
            t.sum(r)
        }
        1 => {
            let ca = t.register_csr(Arc::new(CsrIndex::new(&GATHER_A, ROWS)));
            let cb = t.register_csr(Arc::new(CsrIndex::new(&GATHER_B, ROWS)));
            let ga = t.gather(x, ca);
            let gb = t.gather(x, cb);
            let s = t.add(ga, gb);
            let sq = t.square(s);
            t.sum(sq)
        }
        2 => {
            let sq = t.square(x);
            let sc = t.sum_cols(sq);
            let d = t.sqrt(sc);
            let r = t.rbf(d, gamma, &[0.0, 0.8, 1.6, 2.4]);
            t.sum(r)
        }
        3 => {
            let w = t.leaf(&W_DATA, COLS, 3);
            wanted.push(w);
            let y1 = t.matmul(x, w);
            let y2 = t.matmul(x, w);
            let s = t.add(y1, y2);
            let m = t.mul(s, s);
            t.sum(m)
        }
        4 => {
            let ca = t.register_csr(Arc::new(CsrIndex::new(&GATHER_A, ROWS)));
            let cs = t.register_csr(Arc::new(CsrIndex::new(&SCATTER_TO, 2)));
            let ga = t.gather(x, ca);
            let sc = t.scatter_add(ga, cs);
            let sg = t.activation(sc, Act::Sigmoid);
            t.sum(sg)
        }
        _ => {
            let h = t.scale(x, 0.5);
            let e = t.exp(h);
            let m = t.mul(e, x);
            t.sum(m)
        }
    };
    t.seal(Some(loss), &wanted);
    (t, loss, wanted)
}

fn tape_eval(
    t: &mut Tape,
    loss: analogfold_suite::tensor::Var,
    wanted: &[analogfold_suite::tensor::Var],
    data: &[f64],
) -> (f64, Vec<Vec<f64>>) {
    t.set_value(wanted[0], data);
    t.forward();
    t.backward();
    (
        t.value(loss)[0],
        wanted.iter().map(|&v| t.grad(v).to_vec()).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_matches_oracle_tensor(
        m in 1usize..7, k in 1usize..7, n in 1usize..7,
        a in prop::collection::vec(-2.0f64..2.0, 49),
        b in prop::collection::vec(-2.0f64..2.0, 49),
    ) {
        let a = &a[..m * k];
        let b = &b[..k * n];
        let mut out = vec![f64::NAN; m * n];
        matmul(&mut out, a, b, m, k, n);
        let want = Tensor::from_vec(a.to_vec(), m, k)
            .matmul(&Tensor::from_vec(b.to_vec(), k, n));
        assert_parity(&out, want.data(), "matmul");
    }

    #[test]
    fn fused_linear_matches_oracle_graph_nodes(
        m in 1usize..6, k in 1usize..6, n in 1usize..6,
        x in prop::collection::vec(-2.0f64..2.0, 36),
        w in prop::collection::vec(-1.5f64..1.5, 36),
        bias in prop::collection::vec(-1.0f64..1.0, 6),
    ) {
        let x = &x[..m * k];
        let w = &w[..k * n];
        let bias = &bias[..n];
        let mut out = vec![f64::NAN; m * n];
        let mut pre = vec![f64::NAN; m * n];
        matmul_bias_relu(&mut out, &mut pre, x, w, bias, m, k, n);

        let mut g = Graph::new();
        let xn = g.input(Tensor::from_vec(x.to_vec(), m, k));
        let wn = g.input(Tensor::from_vec(w.to_vec(), k, n));
        let bn = g.input(Tensor::from_vec(bias.to_vec(), 1, n));
        let mm = g.matmul(xn, wn);
        let ab = g.add_bias(mm, bn);
        let r = g.relu(ab);
        assert_parity(&pre, g.value(ab).data(), "fused linear pre-activation");
        assert_parity(&out, g.value(r).data(), "fused linear output");
    }

    #[test]
    fn backward_matmul_kernels_accumulate_like_oracle(
        m in 1usize..6, k in 1usize..6, n in 1usize..6,
        a in prop::collection::vec(-2.0f64..2.0, 36),
        b in prop::collection::vec(-2.0f64..2.0, 36),
        grad in prop::collection::vec(-2.0f64..2.0, 36),
        seed in prop::collection::vec(-1.0f64..1.0, 36),
    ) {
        let a = &a[..m * k];
        let b = &b[..k * n];
        let grad = &grad[..m * n];
        // Destinations start non-zero: the kernels must build each element's
        // full dot product locally and add it exactly once, like the oracle's
        // materialize-then-accumulate, or the sums associate differently.
        let mut ga = seed[..m * k].to_vec();
        let mut gb = seed[..k * n].to_vec();
        let mut tmp = Vec::new();
        matmul_a_bt_acc(&mut ga, grad, b, m, n, k, &mut tmp);
        matmul_at_b_acc(&mut gb, a, grad, m, k, n, &mut tmp);

        let gt = Tensor::from_vec(grad.to_vec(), m, n);
        let want_ga = gt.matmul(&Tensor::from_vec(b.to_vec(), k, n).transpose());
        let want_gb = Tensor::from_vec(a.to_vec(), m, k).transpose().matmul(&gt);
        let exp_ga: Vec<f64> = seed[..m * k].iter().zip(want_ga.data()).map(|(s, v)| s + v).collect();
        let exp_gb: Vec<f64> = seed[..k * n].iter().zip(want_gb.data()).map(|(s, v)| s + v).collect();
        assert_parity(&ga, &exp_ga, "matmul backward dA");
        assert_parity(&gb, &exp_gb, "matmul backward dB");

        let mut gbias = seed[..n].to_vec();
        colsum_acc(&mut gbias, grad, m, n);
        let mut exp_bias = seed[..n].to_vec();
        for (c, e) in exp_bias.iter_mut().enumerate() {
            let mut acc = 0.0;
            for r in 0..m {
                acc += grad[r * n + c];
            }
            *e += acc;
        }
        assert_parity(&gbias, &exp_bias, "bias column sums");
    }

    #[test]
    fn gather_scatter_match_scalar_loops(
        n_rows in 1usize..6, cols in 1usize..5,
        raw_idx in prop::collection::vec(0usize..1_000, 0..10),
        x in prop::collection::vec(-3.0f64..3.0, 30),
        gout in prop::collection::vec(-3.0f64..3.0, 50),
        seed in prop::collection::vec(-1.0f64..1.0, 30),
    ) {
        let idx: Vec<usize> = raw_idx.iter().map(|&i| i % n_rows).collect();
        let e = idx.len();
        let csr = CsrIndex::new(&idx, n_rows);
        let x = &x[..n_rows * cols];

        // Gather forward: pure row copies.
        let mut gathered = vec![f64::NAN; e * cols];
        csr.gather_rows(&mut gathered, x, cols);
        for (ei, &i) in idx.iter().enumerate() {
            for c in 0..cols {
                assert_eq!(gathered[ei * cols + c].to_bits(), x[i * cols + c].to_bits());
            }
        }

        // Scatter-add forward: ascending-edge accumulation per target row.
        let msgs = &gout[..e * cols];
        let mut scattered = vec![f64::NAN; n_rows * cols];
        csr.scatter_add_rows(&mut scattered, msgs, cols);
        let mut want = vec![0.0; n_rows * cols];
        for (ei, &i) in idx.iter().enumerate() {
            for c in 0..cols {
                want[i * cols + c] += msgs[ei * cols + c];
            }
        }
        assert_parity(&scattered, &want, "scatter_add forward");

        // Gather backward into a pre-populated gradient, vs the oracle's
        // build-full-gradient-then-accumulate-once scheme.
        let mut gx = seed[..n_rows * cols].to_vec();
        csr.gather_backward_acc(&mut gx, msgs, cols);
        let mut full = vec![0.0; n_rows * cols];
        for (ei, &i) in idx.iter().enumerate() {
            for c in 0..cols {
                full[i * cols + c] += msgs[ei * cols + c];
            }
        }
        let exp: Vec<f64> = seed[..n_rows * cols].iter().zip(&full).map(|(s, v)| s + v).collect();
        assert_parity(&gx, &exp, "gather backward");

        // Scatter backward: row copies from the upstream gradient.
        let up = &gout[..n_rows * cols];
        let mut gmsgs = vec![0.0; e * cols];
        csr.scatter_backward_acc(&mut gmsgs, up, cols);
        for (ei, &i) in idx.iter().enumerate() {
            for c in 0..cols {
                assert_eq!(gmsgs[ei * cols + c].to_bits(), up[i * cols + c].to_bits());
            }
        }
    }

    #[test]
    fn tape_gradients_match_oracle_graph(
        op_mix in 0u8..6,
        data in prop::collection::vec(-1.5f64..1.5, 6),
        gamma in 0.5f64..3.0,
    ) {
        let (want_loss, want_gx, want_gw) = oracle_eval(op_mix, &data, gamma);
        let (mut t, loss, wanted) = tape_build(op_mix, gamma);
        let (got_loss, grads) = tape_eval(&mut t, loss, &wanted, &data);
        // Mixes 2 (RBF), 4 (sigmoid) and 5 (exp) route through the
        // polynomial exp, which deliberately differs from the oracle's libm
        // by ≲1e-13; the purely algebraic mixes hold the strict
        // (bitwise-without-FMA) contract.
        let check: fn(&[f64], &[f64], &str) = if matches!(op_mix % 6, 2 | 4 | 5) {
            assert_parity_exp
        } else {
            assert_parity
        };
        check(&[got_loss], &[want_loss], "loss");
        check(&grads[0], &want_gx, "grad x");
        if let Some(gw) = want_gw {
            check(&grads[1], &gw, "grad w");
        }
    }

    #[test]
    fn tape_replay_is_bit_identical(
        op_mix in 0u8..6,
        data in prop::collection::vec(-1.5f64..1.5, 6),
        other in prop::collection::vec(-1.5f64..1.5, 6),
    ) {
        // One sealed tape replayed across different inputs must give the
        // same bits when it returns to an input it has seen before — the
        // contract that lets one tape serve a whole relaxation descent.
        let (mut t, loss, wanted) = tape_build(op_mix, 1.25);
        let first = tape_eval(&mut t, loss, &wanted, &data);
        let _ = tape_eval(&mut t, loss, &wanted, &other);
        let again = tape_eval(&mut t, loss, &wanted, &data);
        assert_eq!(first.0.to_bits(), again.0.to_bits(), "loss drifted on replay");
        for (a, b) in first.1.iter().zip(&again.1) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "gradient drifted on replay");
            }
        }
    }
}
