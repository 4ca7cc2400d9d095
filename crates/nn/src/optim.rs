//! Optimizers: [`Adam`] over a [`Graph`], [`TapeAdam`] over an `af_tensor`
//! tape, and a standalone [`lbfgs_minimize`] used by the potential-relaxation
//! stage.

use crate::{Graph, NodeId, Tensor};

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical floor.
    pub eps: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// Adam optimizer over a fixed set of graph parameters.
#[derive(Debug)]
pub struct Adam {
    cfg: AdamConfig,
    params: Vec<NodeId>,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u64,
}

impl Adam {
    /// Creates an optimizer for `params` (node ids from `bind`).
    pub fn new(params: Vec<NodeId>, cfg: AdamConfig, graph: &Graph) -> Self {
        let m = params
            .iter()
            .map(|&p| {
                let (r, c) = graph.value(p).shape();
                Tensor::zeros(r, c)
            })
            .collect::<Vec<_>>();
        let v = m.clone();
        Self {
            cfg,
            params,
            m,
            v,
            t: 0,
        }
    }

    /// Applies one update using the gradients currently stored in the graph.
    ///
    /// Parameters with no gradient (unreached by the loss) are skipped.
    pub fn step(&mut self, graph: &mut Graph) {
        self.t += 1;
        let b1t = 1.0 - self.cfg.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.cfg.beta2.powi(self.t as i32);
        for (i, &p) in self.params.iter().enumerate() {
            let Some(grad) = graph.try_grad(p).cloned() else {
                continue;
            };
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((mi, vi), gi) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(grad.data())
            {
                *mi = self.cfg.beta1 * *mi + (1.0 - self.cfg.beta1) * gi;
                *vi = self.cfg.beta2 * *vi + (1.0 - self.cfg.beta2) * gi * gi;
            }
            let data = graph.param_data_mut(p);
            for ((x, mi), vi) in data.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
                let mhat = mi / b1t;
                let vhat = vi / b2t;
                *x -= self.cfg.lr * mhat / (vhat.sqrt() + self.cfg.eps);
            }
        }
    }
}

/// Adam over `af_tensor` tape leaves — same update math as [`Adam`], so a
/// tape-trained model matches the graph-trained oracle bit for bit.
#[derive(Debug)]
pub struct TapeAdam {
    cfg: AdamConfig,
    params: Vec<af_tensor::Var>,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
    t: u64,
}

impl TapeAdam {
    /// Creates an optimizer for `params` (leaf vars from `bind_tape`).
    pub fn new(params: Vec<af_tensor::Var>, cfg: AdamConfig, tape: &af_tensor::Tape) -> Self {
        let m = params
            .iter()
            .map(|&p| {
                let (r, c) = tape.shape(p);
                vec![0.0; r * c]
            })
            .collect::<Vec<_>>();
        let v = m.clone();
        Self {
            cfg,
            params,
            m,
            v,
            t: 0,
        }
    }

    /// Applies one update using the gradients currently stored in the tape.
    ///
    /// Parameters with no gradient buffer (outside the sealed mask) are
    /// skipped, mirroring [`Adam::step`]'s unreached-parameter skip.
    pub fn step(&mut self, tape: &mut af_tensor::Tape) {
        self.t += 1;
        let b1t = 1.0 - self.cfg.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.cfg.beta2.powi(self.t as i32);
        for (i, &p) in self.params.iter().enumerate() {
            let Some((data, grad)) = tape.value_and_grad_mut(p) else {
                continue;
            };
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((mi, vi), gi) in m.iter_mut().zip(v.iter_mut()).zip(grad) {
                *mi = self.cfg.beta1 * *mi + (1.0 - self.cfg.beta1) * gi;
                *vi = self.cfg.beta2 * *vi + (1.0 - self.cfg.beta2) * gi * gi;
            }
            for ((x, mi), vi) in data.iter_mut().zip(m.iter()).zip(v.iter()) {
                let mhat = mi / b1t;
                let vhat = vi / b2t;
                *x -= self.cfg.lr * mhat / (vhat.sqrt() + self.cfg.eps);
            }
        }
    }
}

/// Result of [`lbfgs_minimize`].
#[derive(Debug, Clone)]
pub struct LbfgsResult {
    /// Final point.
    pub x: Vec<f64>,
    /// Final objective value.
    pub f: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the gradient-norm tolerance was reached.
    pub converged: bool,
}

/// Minimizes `f` by L-BFGS with two-loop recursion and Armijo backtracking.
///
/// `eval` must return `(f(x), ∇f(x))`. This is the relaxation optimizer of
/// the paper ("we can minimize V(C) using a gradient descent algorithm, such
/// as L-BFGS").
///
/// # Panics
///
/// Panics if the gradient length differs from `x0`.
pub fn lbfgs_minimize(
    mut eval: impl FnMut(&[f64]) -> (f64, Vec<f64>),
    x0: &[f64],
    max_iters: usize,
    memory: usize,
    grad_tol: f64,
) -> LbfgsResult {
    let n = x0.len();
    let mut x = x0.to_vec();
    let (mut fx, mut g) = eval(&x);
    assert_eq!(g.len(), n, "gradient length mismatch");

    let mut s_hist: Vec<Vec<f64>> = Vec::new();
    let mut y_hist: Vec<Vec<f64>> = Vec::new();
    let mut rho: Vec<f64> = Vec::new();

    let mut iterations = 0;
    let mut converged = norm(&g) <= grad_tol;

    while iterations < max_iters && !converged {
        iterations += 1;
        // Two-loop recursion for direction d = -H·g.
        let mut q = g.clone();
        let k = s_hist.len();
        let mut alpha = vec![0.0; k];
        for i in (0..k).rev() {
            alpha[i] = rho[i] * dot(&s_hist[i], &q);
            axpy(&mut q, -alpha[i], &y_hist[i]);
        }
        let gamma = if k > 0 {
            dot(&s_hist[k - 1], &y_hist[k - 1]) / dot(&y_hist[k - 1], &y_hist[k - 1]).max(1e-300)
        } else {
            1.0
        };
        for qi in q.iter_mut() {
            *qi *= gamma;
        }
        for i in 0..k {
            let beta = rho[i] * dot(&y_hist[i], &q);
            axpy(&mut q, alpha[i] - beta, &s_hist[i]);
        }
        let mut d: Vec<f64> = q.iter().map(|v| -v).collect();
        // Ensure descent; fall back to steepest descent otherwise.
        if dot(&d, &g) >= 0.0 {
            d = g.iter().map(|v| -v).collect();
        }

        // Weak-Wolfe line search (bracketing): Armijo on sufficient decrease
        // plus a curvature condition so s·y > 0 and the memory stays useful.
        let gd = dot(&g, &d);
        let (c1, c2) = (1e-4, 0.9);
        let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
        let mut step = 1.0;
        let mut accepted = None;
        for _ in 0..50 {
            let xn: Vec<f64> = x.iter().zip(&d).map(|(xi, di)| xi + step * di).collect();
            let (fn_, gn) = eval(&xn);
            if !fn_.is_finite() || fn_ > fx + c1 * step * gd {
                hi = step; // too long
            } else if dot(&gn, &d) < c2 * gd {
                lo = step; // too short (curvature unmet)
                accepted.get_or_insert((xn.clone(), fn_, gn.clone()));
            } else {
                accepted = Some((xn, fn_, gn));
                break;
            }
            step = if hi.is_finite() {
                0.5 * (lo + hi)
            } else {
                2.0 * step
            };
            if step < 1e-16 {
                break;
            }
        }
        let Some((xn, fn_, gn)) = accepted else {
            break; // no acceptable step — stationary enough
        };
        let s: Vec<f64> = xn.iter().zip(&x).map(|(a, b)| a - b).collect();
        let y: Vec<f64> = gn.iter().zip(&g).map(|(a, b)| a - b).collect();
        let sy = dot(&s, &y);
        if sy > 1e-12 {
            s_hist.push(s);
            y_hist.push(y);
            rho.push(1.0 / sy);
            if s_hist.len() > memory {
                s_hist.remove(0);
                y_hist.remove(0);
                rho.remove(0);
            }
        }
        x = xn;
        fx = fn_;
        g = gn;
        converged = norm(&g) <= grad_tol;
    }

    LbfgsResult {
        x,
        f: fx,
        iterations,
        converged,
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Mlp};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn adam_minimizes_quadratic() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![5.0, -3.0], 1, 2));
        let mut opt = Adam::new(
            vec![x],
            AdamConfig {
                lr: 0.1,
                ..AdamConfig::default()
            },
            &g,
        );
        for _ in 0..300 {
            g.reset();
            let sq = g.square(x);
            let loss = g.sum(sq);
            g.backward(loss);
            opt.step(&mut g);
        }
        assert!(g.value(x).norm() < 1e-2);
    }

    #[test]
    fn lbfgs_rosenbrock() {
        let eval = |x: &[f64]| {
            let (a, b) = (x[0], x[1]);
            let f = (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2);
            let g = vec![
                -2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                200.0 * (b - a * a),
            ];
            (f, g)
        };
        let res = lbfgs_minimize(eval, &[-1.2, 1.0], 200, 10, 1e-8);
        assert!(res.f < 1e-8, "f = {}", res.f);
        assert!((res.x[0] - 1.0).abs() < 1e-3);
        assert!((res.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn lbfgs_quadratic_converges_fast() {
        let eval = |x: &[f64]| {
            let f: f64 = x
                .iter()
                .enumerate()
                .map(|(i, v)| (i + 1) as f64 * v * v)
                .sum();
            let g: Vec<f64> = x
                .iter()
                .enumerate()
                .map(|(i, v)| 2.0 * (i + 1) as f64 * v)
                .collect();
            (f, g)
        };
        let res = lbfgs_minimize(eval, &[1.0; 8], 100, 10, 1e-10);
        assert!(res.converged);
        assert!(res.iterations < 50);
        assert!(res.f < 1e-12);
    }

    #[test]
    fn lbfgs_through_graph() {
        // minimize a tiny MLP's output w.r.t. its *input* — the relaxation
        // pattern AnalogFold uses.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, &mut rng);
        let eval = |x: &[f64]| {
            let mut g = Graph::new();
            let input = g.param(Tensor::from_vec(x.to_vec(), 1, 2));
            let bound = mlp.bind_frozen(&mut g);
            let y = bound.forward(&mut g, input);
            let sq = g.square(y);
            let loss = g.sum(sq);
            g.backward(loss);
            (g.value(loss).get(0, 0), g.grad(input).data().to_vec())
        };
        let (f0, _) = eval(&[0.9, -0.7]);
        let res = lbfgs_minimize(eval, &[0.9, -0.7], 60, 8, 1e-10);
        assert!(res.f <= f0, "relaxation must not increase the objective");
    }
}
