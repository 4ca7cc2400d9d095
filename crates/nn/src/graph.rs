//! Eager tape-based reverse-mode automatic differentiation: the scalar
//! reference engine the `af_tensor` tape is tested against.
//!
//! Values are computed as ops are recorded; [`Graph::backward`] walks the
//! tape in reverse accumulating gradients. Leaves created with
//! [`Graph::param`] persist across [`Graph::reset`] so optimizers can update
//! them in place between iterations.

use crate::Tensor;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// Operations recorded on the tape.
#[derive(Debug, Clone)]
enum Op {
    /// Leaf (parameter or transient input).
    Leaf,
    /// Matrix product `a × b`.
    MatMul(NodeId, NodeId),
    /// Elementwise sum.
    Add(NodeId, NodeId),
    /// Elementwise difference.
    Sub(NodeId, NodeId),
    /// Elementwise product.
    Mul(NodeId, NodeId),
    /// Adds a `1 × n` bias row to every row of an `m × n` input.
    AddBias(NodeId, NodeId),
    /// Scalar multiple.
    Scale(NodeId, f64),
    /// `max(x, 0)`.
    Relu(NodeId),
    /// `x · sigmoid(x)`.
    Silu(NodeId),
    /// Hyperbolic tangent.
    Tanh(NodeId),
    /// Logistic sigmoid.
    Sigmoid(NodeId),
    /// Natural exponent.
    Exp(NodeId),
    /// Elementwise square.
    Square(NodeId),
    /// Elementwise square root (clamped at `eps` for stability).
    Sqrt(NodeId),
    /// Sum of all elements → `1 × 1`.
    Sum(NodeId),
    /// Row-wise sum: `m × n` → `m × 1`.
    SumCols(NodeId),
    /// Row gather: output row `i` = input row `idx[i]`.
    Gather(NodeId, Vec<usize>),
    /// Row scatter-add into `out_rows` rows: out[idx[i]] += in[i]. The row
    /// count is kept for debugging/Display even though backward re-derives
    /// shapes from the input node.
    ScatterAdd(NodeId, Vec<usize>, #[allow(dead_code)] usize),
    /// Radial-basis expansion of an `m × 1` input into `m × K`:
    /// `ψ_k(d) = exp(-γ (d - μ_k)²)`.
    Rbf(NodeId, f64, Vec<f64>),
}

struct Node {
    op: Op,
    value: Tensor,
    grad: Option<Tensor>,
}

/// Autodiff graph. See the [crate docs](crate) for an end-to-end example.
pub struct Graph {
    nodes: Vec<Node>,
    n_persistent: usize,
    frozen_prefix: bool,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            n_persistent: 0,
            frozen_prefix: false,
        }
    }

    /// Declares a persistent leaf (parameter). Must be called before any
    /// non-param node is created.
    ///
    /// # Panics
    ///
    /// Panics if ops or inputs were already recorded.
    pub fn param(&mut self, t: Tensor) -> NodeId {
        assert!(
            !self.frozen_prefix,
            "params must be declared before inputs/ops"
        );
        let id = self.push(Op::Leaf, t);
        self.n_persistent = self.nodes.len();
        id
    }

    /// Declares a transient leaf, cleared by [`Graph::reset`].
    pub fn input(&mut self, t: Tensor) -> NodeId {
        self.frozen_prefix = true;
        self.push(Op::Leaf, t)
    }

    /// Drops all transient nodes, keeping parameters (and their values).
    pub fn reset(&mut self) {
        self.nodes.truncate(self.n_persistent);
        for n in &mut self.nodes {
            n.grad = None;
        }
        self.frozen_prefix = false;
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// Gradient of the last [`Graph::backward`] loss w.r.t. this node.
    ///
    /// # Panics
    ///
    /// Panics if backward has not been run or the node is unreachable from
    /// the loss.
    pub fn grad(&self, id: NodeId) -> &Tensor {
        self.nodes[id.0]
            .grad
            .as_ref()
            .expect("no gradient: run backward() over a graph reaching this node")
    }

    /// Gradient if one was computed.
    pub fn try_grad(&self, id: NodeId) -> Option<&Tensor> {
        self.nodes[id.0].grad.as_ref()
    }

    /// Mutable access to a parameter's value (for optimizer updates).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a persistent parameter.
    pub fn param_data_mut(&mut self, id: NodeId) -> &mut Tensor {
        assert!(id.0 < self.n_persistent, "node {} is not a parameter", id.0);
        &mut self.nodes[id.0].value
    }

    fn push(&mut self, op: Op, value: Tensor) -> NodeId {
        self.nodes.push(Node {
            op,
            value,
            grad: None,
        });
        NodeId(self.nodes.len() - 1)
    }

    fn op(&mut self, op: Op, value: Tensor) -> NodeId {
        self.frozen_prefix = true;
        self.push(op, value)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        self.op(Op::MatMul(a, b), v)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip(self.value(b), |x, y| x + y);
        self.op(Op::Add(a, b), v)
    }

    /// Elementwise difference `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip(self.value(b), |x, y| x - y);
        self.op(Op::Sub(a, b), v)
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip(self.value(b), |x, y| x * y);
        self.op(Op::Mul(a, b), v)
    }

    /// Adds a `1 × n` bias row to each row of `x` (`m × n`).
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible.
    pub fn add_bias(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let (m, n) = self.value(x).shape();
        let (br, bc) = self.value(bias).shape();
        assert_eq!((br, bc), (1, n), "bias must be 1x{n}, got {br}x{bc}");
        let mut out = self.value(x).clone();
        for r in 0..m {
            for c in 0..n {
                let v = out.get(r, c) + self.value(bias).get(0, c);
                out.set(r, c, v);
            }
        }
        self.op(Op::AddBias(x, bias), out)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, x: NodeId, k: f64) -> NodeId {
        let v = self.value(x).map(|a| a * k);
        self.op(Op::Scale(x, k), v)
    }

    /// ReLU activation.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(|a| a.max(0.0));
        self.op(Op::Relu(x), v)
    }

    /// SiLU (swish) activation.
    pub fn silu(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(|a| a * sigmoid(a));
        self.op(Op::Silu(x), v)
    }

    /// Tanh activation.
    pub fn tanh(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(f64::tanh);
        self.op(Op::Tanh(x), v)
    }

    /// Sigmoid activation.
    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(sigmoid);
        self.op(Op::Sigmoid(x), v)
    }

    /// Elementwise `exp`.
    pub fn exp(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(f64::exp);
        self.op(Op::Exp(x), v)
    }

    /// Elementwise square.
    pub fn square(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(|a| a * a);
        self.op(Op::Square(x), v)
    }

    /// Elementwise square root, clamped at `1e-12`.
    pub fn sqrt(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(|a| a.max(1e-12).sqrt());
        self.op(Op::Sqrt(x), v)
    }

    /// Sum of all elements (`1 × 1` output).
    pub fn sum(&mut self, x: NodeId) -> NodeId {
        let v = Tensor::from_vec(vec![self.value(x).sum()], 1, 1);
        self.op(Op::Sum(x), v)
    }

    /// Row-wise sum: `m × n` → `m × 1`.
    pub fn sum_cols(&mut self, x: NodeId) -> NodeId {
        let t = self.value(x);
        let (m, _) = t.shape();
        let data: Vec<f64> = (0..m).map(|r| t.row(r).iter().sum()).collect();
        self.op(Op::SumCols(x), Tensor::from_vec(data, m, 1))
    }

    /// Gathers rows: output row `i` equals input row `idx[i]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather(&mut self, x: NodeId, idx: &[usize]) -> NodeId {
        let t = self.value(x);
        let (m, n) = t.shape();
        let mut data = Vec::with_capacity(idx.len() * n);
        for &i in idx {
            assert!(i < m, "gather index {i} out of {m} rows");
            data.extend_from_slice(t.row(i));
        }
        let v = Tensor::from_vec(data, idx.len(), n);
        self.op(Op::Gather(x, idx.to_vec()), v)
    }

    /// Scatter-add: sums input row `i` into output row `idx[i]` of an
    /// `out_rows × n` zero tensor.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len()` differs from the input row count or an index is
    /// out of range.
    pub fn scatter_add(&mut self, x: NodeId, idx: &[usize], out_rows: usize) -> NodeId {
        let t = self.value(x);
        let (m, n) = t.shape();
        assert_eq!(idx.len(), m, "one index per input row");
        let mut out = Tensor::zeros(out_rows, n);
        for (r, &i) in idx.iter().enumerate() {
            assert!(i < out_rows, "scatter index {i} out of {out_rows} rows");
            for c in 0..n {
                let v = out.get(i, c) + t.get(r, c);
                out.set(i, c, v);
            }
        }
        self.op(Op::ScatterAdd(x, idx.to_vec(), out_rows), out)
    }

    /// Radial-basis expansion `ψ_k(d) = exp(-γ (d - μ_k)²)` of an `m × 1`
    /// input into `m × K` (SchNet-style distance featurization).
    ///
    /// # Panics
    ///
    /// Panics if the input is not a column vector or `mus` is empty.
    pub fn rbf(&mut self, x: NodeId, gamma: f64, mus: &[f64]) -> NodeId {
        let t = self.value(x);
        let (m, n) = t.shape();
        assert_eq!(n, 1, "rbf expects an m×1 input");
        assert!(!mus.is_empty(), "rbf needs at least one center");
        let mut data = Vec::with_capacity(m * mus.len());
        for r in 0..m {
            let d = t.get(r, 0);
            for &mu in mus {
                data.push((-gamma * (d - mu) * (d - mu)).exp());
            }
        }
        let v = Tensor::from_vec(data, m, mus.len());
        self.op(Op::Rbf(x, gamma, mus.to_vec()), v)
    }

    /// Mean-squared-error loss between `x` and `target` (`1 × 1` output).
    pub fn mse(&mut self, x: NodeId, target: NodeId) -> NodeId {
        let d = self.sub(x, target);
        let sq = self.square(d);
        let s = self.sum(sq);
        let n = self.value(x).len() as f64;
        self.scale(s, 1.0 / n)
    }

    /// Runs reverse-mode accumulation from `loss` (must be `1 × 1`).
    ///
    /// # Panics
    ///
    /// Panics if the loss is not scalar.
    pub fn backward(&mut self, loss: NodeId) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward needs a scalar loss"
        );
        // Observability: wall time per reverse sweep, recorded only while a
        // sink is installed; the clock never influences the gradients.
        let obs_t0 = af_obs::enabled().then(std::time::Instant::now);
        for n in &mut self.nodes {
            n.grad = None;
        }
        self.nodes[loss.0].grad = Some(Tensor::ones(1, 1));
        for i in (0..=loss.0).rev() {
            let Some(grad) = self.nodes[i].grad.clone() else {
                continue;
            };
            let op = self.nodes[i].op.clone();
            match op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let ga = grad.matmul(&self.nodes[b.0].value.transpose());
                    let gb = self.nodes[a.0].value.transpose().matmul(&grad);
                    self.accumulate(a, ga);
                    self.accumulate(b, gb);
                }
                Op::Add(a, b) => {
                    self.accumulate(a, grad.clone());
                    self.accumulate(b, grad);
                }
                Op::Sub(a, b) => {
                    self.accumulate(a, grad.clone());
                    self.accumulate(b, grad.map(|x| -x));
                }
                Op::Mul(a, b) => {
                    let ga = grad.zip(&self.nodes[b.0].value, |g, y| g * y);
                    let gb = grad.zip(&self.nodes[a.0].value, |g, x| g * x);
                    self.accumulate(a, ga);
                    self.accumulate(b, gb);
                }
                Op::AddBias(x, bias) => {
                    let (m, n) = grad.shape();
                    let mut gb = Tensor::zeros(1, n);
                    for r in 0..m {
                        for c in 0..n {
                            let v = gb.get(0, c) + grad.get(r, c);
                            gb.set(0, c, v);
                        }
                    }
                    self.accumulate(x, grad);
                    self.accumulate(bias, gb);
                }
                Op::Scale(x, k) => self.accumulate(x, grad.map(|g| g * k)),
                Op::Relu(x) => {
                    let g = grad.zip(&self.nodes[x.0].value, |g, v| if v > 0.0 { g } else { 0.0 });
                    self.accumulate(x, g);
                }
                Op::Silu(x) => {
                    let g = grad.zip(&self.nodes[x.0].value, |g, v| {
                        let s = sigmoid(v);
                        g * (s + v * s * (1.0 - s))
                    });
                    self.accumulate(x, g);
                }
                Op::Tanh(x) => {
                    let g = grad.zip(&self.nodes[i].value, |g, y| g * (1.0 - y * y));
                    self.accumulate(x, g);
                }
                Op::Sigmoid(x) => {
                    let g = grad.zip(&self.nodes[i].value, |g, y| g * y * (1.0 - y));
                    self.accumulate(x, g);
                }
                Op::Exp(x) => {
                    let g = grad.zip(&self.nodes[i].value, |g, y| g * y);
                    self.accumulate(x, g);
                }
                Op::Square(x) => {
                    let g = grad.zip(&self.nodes[x.0].value, |g, v| 2.0 * g * v);
                    self.accumulate(x, g);
                }
                Op::Sqrt(x) => {
                    let g = grad.zip(&self.nodes[i].value, |g, y| g / (2.0 * y.max(1e-12)));
                    self.accumulate(x, g);
                }
                Op::Sum(x) => {
                    let g0 = grad.get(0, 0);
                    let (m, n) = self.nodes[x.0].value.shape();
                    self.accumulate(x, Tensor::full(m, n, g0));
                }
                Op::SumCols(x) => {
                    let (m, n) = self.nodes[x.0].value.shape();
                    let mut g = Tensor::zeros(m, n);
                    for r in 0..m {
                        for c in 0..n {
                            g.set(r, c, grad.get(r, 0));
                        }
                    }
                    self.accumulate(x, g);
                }
                Op::Gather(x, idx) => {
                    let (m, n) = self.nodes[x.0].value.shape();
                    let mut g = Tensor::zeros(m, n);
                    for (r, &i2) in idx.iter().enumerate() {
                        for c in 0..n {
                            let v = g.get(i2, c) + grad.get(r, c);
                            g.set(i2, c, v);
                        }
                    }
                    self.accumulate(x, g);
                }
                Op::ScatterAdd(x, idx, _) => {
                    let (m, n) = self.nodes[x.0].value.shape();
                    let mut g = Tensor::zeros(m, n);
                    for (r, &i2) in idx.iter().enumerate() {
                        for c in 0..n {
                            g.set(r, c, grad.get(i2, c));
                        }
                    }
                    self.accumulate(x, g);
                }
                Op::Rbf(x, gamma, mus) => {
                    let (m, _) = self.nodes[x.0].value.shape();
                    let mut g = Tensor::zeros(m, 1);
                    for r in 0..m {
                        let d = self.nodes[x.0].value.get(r, 0);
                        let mut acc = 0.0;
                        for (k, &mu) in mus.iter().enumerate() {
                            let y = self.nodes[i].value.get(r, k);
                            acc += grad.get(r, k) * y * (-2.0 * gamma * (d - mu));
                        }
                        g.set(r, 0, acc);
                    }
                    self.accumulate(x, g);
                }
            }
        }
        if let Some(t0) = obs_t0 {
            af_obs::hist("nn.backward_us", t0.elapsed().as_secs_f64() * 1e6);
        }
    }

    fn accumulate(&mut self, id: NodeId, g: Tensor) {
        match &mut self.nodes[id.0].grad {
            Some(existing) => {
                *existing = existing.zip(&g, |a, b| a + b);
            }
            slot => *slot = Some(g),
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numeric gradient check helper: builds `f` twice per perturbed input.
    fn check_grad(
        build: impl Fn(&mut Graph, NodeId) -> NodeId,
        x0: Vec<f64>,
        rows: usize,
        cols: usize,
    ) {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(x0.clone(), rows, cols));
        let loss = build(&mut g, x);
        g.backward(loss);
        let analytic = g.grad(x).clone();
        let eps = 1e-6;
        for i in 0..x0.len() {
            let mut plus = x0.clone();
            plus[i] += eps;
            let mut minus = x0.clone();
            minus[i] -= eps;
            let f = |v: Vec<f64>| {
                let mut g2 = Graph::new();
                let x2 = g2.param(Tensor::from_vec(v, rows, cols));
                let l = build(&mut g2, x2);
                g2.value(l).get(0, 0)
            };
            let numeric = (f(plus) - f(minus)) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() < 1e-4 * (1.0 + numeric.abs()),
                "grad[{i}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn grad_square_sum() {
        check_grad(
            |g, x| {
                let s = g.square(x);
                g.sum(s)
            },
            vec![1.0, -2.0, 0.5],
            1,
            3,
        );
    }

    #[test]
    fn grad_matmul() {
        check_grad(
            |g, x| {
                let w = g.input(Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.1, 0.9, -0.4], 3, 2));
                let y = g.matmul(x, w);
                let s = g.square(y);
                g.sum(s)
            },
            vec![0.5, -1.0, 2.0],
            1,
            3,
        );
    }

    #[test]
    fn grad_activations() {
        for act in ["relu", "silu", "tanh", "sigmoid", "exp"] {
            let a = act.to_string();
            check_grad(
                move |g, x| {
                    let y = match a.as_str() {
                        "relu" => g.relu(x),
                        "silu" => g.silu(x),
                        "tanh" => g.tanh(x),
                        "sigmoid" => g.sigmoid(x),
                        _ => g.exp(x),
                    };
                    g.sum(y)
                },
                vec![0.7, -0.3, 1.5, 0.01],
                2,
                2,
            );
        }
    }

    #[test]
    fn grad_sqrt() {
        check_grad(
            |g, x| {
                let s = g.sqrt(x);
                g.sum(s)
            },
            vec![0.5, 1.5, 3.0],
            1,
            3,
        );
    }

    #[test]
    fn grad_mul_sub_bias() {
        check_grad(
            |g, x| {
                let b = g.input(Tensor::from_vec(vec![0.1, -0.2], 1, 2));
                let y = g.add_bias(x, b);
                let z = g.mul(y, y);
                let w = g.sub(z, y);
                g.sum(w)
            },
            vec![1.0, 2.0, 3.0, 4.0],
            2,
            2,
        );
    }

    #[test]
    fn grad_gather_scatter() {
        check_grad(
            |g, x| {
                let gathered = g.gather(x, &[0, 2, 2, 1]);
                let scattered = g.scatter_add(gathered, &[1, 0, 1, 1], 2);
                let s = g.square(scattered);
                g.sum(s)
            },
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            3,
            2,
        );
    }

    #[test]
    fn grad_rbf() {
        check_grad(
            |g, x| {
                let r = g.rbf(x, 2.0, &[0.0, 1.0, 2.0]);
                let s = g.sum(r);
                g.square(s)
            },
            vec![0.3, 1.7],
            2,
            1,
        );
    }

    #[test]
    fn grad_scale_sumcols() {
        check_grad(
            |g, x| {
                let y = g.scale(x, 2.0);
                let sc = g.sum_cols(y);
                let sq = g.square(sc);
                g.sum(sq)
            },
            vec![1.0, -1.0, 2.0, 0.5],
            2,
            2,
        );
    }

    #[test]
    fn mse_matches_manual() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0, 2.0], 1, 2));
        let t = g.input(Tensor::from_vec(vec![0.0, 4.0], 1, 2));
        let l = g.mse(x, t);
        assert!((g.value(l).get(0, 0) - (1.0 + 4.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn reset_keeps_params() {
        let mut g = Graph::new();
        let p = g.param(Tensor::from_vec(vec![5.0], 1, 1));
        let x = g.input(Tensor::from_vec(vec![1.0], 1, 1));
        let _ = g.add(p, x);
        assert_eq!(g.len(), 3);
        g.reset();
        assert_eq!(g.len(), 1);
        assert_eq!(g.value(p).get(0, 0), 5.0);
        g.param_data_mut(p).data_mut()[0] = 7.0;
        assert_eq!(g.value(p).get(0, 0), 7.0);
    }

    #[test]
    #[should_panic(expected = "params must be declared before")]
    fn late_param_panics() {
        let mut g = Graph::new();
        let _ = g.input(Tensor::zeros(1, 1));
        let _ = g.param(Tensor::zeros(1, 1));
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn vector_loss_panics() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(2, 2));
        g.backward(x);
    }

    #[test]
    #[should_panic(expected = "gather index")]
    fn gather_out_of_range_panics() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(2, 2));
        let _ = g.gather(x, &[0, 5]);
    }

    #[test]
    #[should_panic(expected = "scatter index")]
    fn scatter_out_of_range_panics() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(2, 2));
        let _ = g.scatter_add(x, &[0, 9], 3);
    }

    #[test]
    #[should_panic(expected = "one index per input row")]
    fn scatter_wrong_index_count_panics() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(3, 2));
        let _ = g.scatter_add(x, &[0], 3);
    }

    #[test]
    #[should_panic(expected = "rbf expects")]
    fn rbf_rejects_matrix_input() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(2, 2));
        let _ = g.rbf(x, 1.0, &[0.0]);
    }

    #[test]
    fn grad_accumulates_over_reuse() {
        // f(x) = x*x + x  ->  f' = 2x + 1
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![3.0], 1, 1));
        let sq = g.mul(x, x);
        let y = g.add(sq, x);
        let l = g.sum(y);
        g.backward(l);
        assert!((g.grad(x).get(0, 0) - 7.0).abs() < 1e-12);
    }
}
