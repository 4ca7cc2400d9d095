//! Parameterized layers: [`Linear`] and [`Mlp`].
//!
//! Layers own their weight tensors; before use they must be *bound* to an
//! `af_tensor` [`Tape`] with [`Linear::bind_tape`] / [`Mlp::bind_tape`],
//! which declares the weights as leaves and returns a bound handle usable
//! inside forward passes. After training, [`Linear::sync_from_tape`] copies
//! the updated values back into the layer for serialization. The
//! [`Graph`] bindings ([`Linear::bind`], [`Linear::bind_frozen`],
//! [`Linear::sync_from`]) serve the scalar reference engine in tests.

use af_tensor::{Act, Tape, Var};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::{Graph, NodeId, Tensor};

/// Activation functions supported by [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Sigmoid-weighted linear unit (swish) — the SchNet-family default.
    Silu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// No activation.
    Identity,
}

impl Activation {
    /// Applies the activation inside a graph.
    pub fn apply(self, g: &mut Graph, x: NodeId) -> NodeId {
        match self {
            Activation::Relu => g.relu(x),
            Activation::Silu => g.silu(x),
            Activation::Tanh => g.tanh(x),
            Activation::Sigmoid => g.sigmoid(x),
            Activation::Identity => x,
        }
    }

    /// The equivalent `af_tensor` kernel activation.
    pub fn as_act(self) -> Act {
        match self {
            Activation::Relu => Act::Relu,
            Activation::Silu => Act::Silu,
            Activation::Tanh => Act::Tanh,
            Activation::Sigmoid => Act::Sigmoid,
            Activation::Identity => Act::Identity,
        }
    }
}

/// A dense layer `y = x·W + b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    w: Tensor,
    b: Tensor,
}

/// Graph-bound handle of a [`Linear`] layer.
#[derive(Debug, Clone, Copy)]
pub struct BoundLinear {
    /// Parameter node of the weights.
    pub w: NodeId,
    /// Parameter node of the bias.
    pub b: NodeId,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    pub fn new(inputs: usize, outputs: usize, rng: &mut ChaCha8Rng) -> Self {
        assert!(inputs > 0 && outputs > 0, "degenerate layer");
        let scale = (6.0 / (inputs + outputs) as f64).sqrt();
        Self {
            w: Tensor::uniform(inputs, outputs, scale, rng),
            b: Tensor::zeros(1, outputs),
        }
    }

    /// Input width.
    pub fn inputs(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn outputs(&self) -> usize {
        self.w.cols()
    }

    /// Registers the weights as graph parameters.
    pub fn bind(&self, g: &mut Graph) -> BoundLinear {
        BoundLinear {
            w: g.param(self.w.clone()),
            b: g.param(self.b.clone()),
        }
    }

    /// Registers the weights as *transient inputs* (frozen): gradients may
    /// flow through them but they are cleared by `Graph::reset` and never
    /// updated. Used when optimizing a graph input with fixed weights.
    pub fn bind_frozen(&self, g: &mut Graph) -> BoundLinear {
        BoundLinear {
            w: g.input(self.w.clone()),
            b: g.input(self.b.clone()),
        }
    }

    /// Copies current parameter values out of the graph back into the layer.
    pub fn sync_from(&mut self, g: &Graph, bound: BoundLinear) {
        self.w = g.value(bound.w).clone();
        self.b = g.value(bound.b).clone();
    }

    /// Declares the weights as tape leaves. Whether they are trainable is
    /// decided later by listing them in `Tape::seal`'s wanted set — the tape
    /// analogue of the `bind` / `bind_frozen` split.
    pub fn bind_tape(&self, t: &mut Tape) -> TapeLinear {
        TapeLinear {
            w: t.leaf(self.w.data(), self.w.rows(), self.w.cols()),
            b: t.leaf(self.b.data(), 1, self.b.cols()),
        }
    }

    /// Copies current leaf values out of the tape back into the layer.
    pub fn sync_from_tape(&mut self, t: &Tape, bound: TapeLinear) {
        self.w = Tensor::from_vec(t.value(bound.w).to_vec(), self.w.rows(), self.w.cols());
        self.b = Tensor::from_vec(t.value(bound.b).to_vec(), 1, self.b.cols());
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

impl BoundLinear {
    /// Forward pass `x·W + b`.
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let xw = g.matmul(x, self.w);
        g.add_bias(xw, self.b)
    }

    /// Parameter node ids, for optimizers.
    pub fn params(&self) -> Vec<NodeId> {
        vec![self.w, self.b]
    }
}

/// Tape-bound handle of a [`Linear`] layer (the `af_tensor` fast path).
#[derive(Debug, Clone, Copy)]
pub struct TapeLinear {
    /// Weight leaf (`inputs × outputs`).
    pub w: Var,
    /// Bias leaf (`1 × outputs`).
    pub b: Var,
}

impl TapeLinear {
    /// Records the fused layer `act(x·W + b)` on the tape.
    pub fn forward(&self, t: &mut Tape, x: Var, act: Act) -> Var {
        t.linear(x, self.w, self.b, act)
    }

    /// Parameter vars in oracle order (`[w, b]`), for optimizers.
    pub fn params(&self) -> Vec<Var> {
        vec![self.w, self.b]
    }
}

/// A multi-layer perceptron with a uniform hidden activation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

/// Graph-bound handle of an [`Mlp`].
#[derive(Debug, Clone)]
pub struct BoundMlp {
    layers: Vec<BoundLinear>,
    activation: Activation,
}

impl Mlp {
    /// Creates an MLP with the given layer widths, e.g. `[8, 32, 32, 5]`.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two widths.
    pub fn new(widths: &[usize], activation: Activation, rng: &mut ChaCha8Rng) -> Self {
        assert!(
            widths.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Self { layers, activation }
    }

    /// Registers all weights as graph parameters.
    pub fn bind(&self, g: &mut Graph) -> BoundMlp {
        BoundMlp {
            layers: self.layers.iter().map(|l| l.bind(g)).collect(),
            activation: self.activation,
        }
    }

    /// Registers all weights as frozen transient inputs (see
    /// [`Linear::bind_frozen`]).
    pub fn bind_frozen(&self, g: &mut Graph) -> BoundMlp {
        BoundMlp {
            layers: self.layers.iter().map(|l| l.bind_frozen(g)).collect(),
            activation: self.activation,
        }
    }

    /// Copies parameter values from the graph back into the MLP.
    pub fn sync_from(&mut self, g: &Graph, bound: &BoundMlp) {
        for (layer, b) in self.layers.iter_mut().zip(&bound.layers) {
            layer.sync_from(g, *b);
        }
    }

    /// Declares all weights as tape leaves (see [`Linear::bind_tape`]).
    pub fn bind_tape(&self, t: &mut Tape) -> TapeMlp {
        TapeMlp {
            layers: self.layers.iter().map(|l| l.bind_tape(t)).collect(),
            activation: self.activation.as_act(),
        }
    }

    /// Copies leaf values from the tape back into the MLP.
    pub fn sync_from_tape(&mut self, t: &Tape, bound: &TapeMlp) {
        for (layer, b) in self.layers.iter_mut().zip(&bound.layers) {
            layer.sync_from_tape(t, *b);
        }
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// Input width.
    pub fn inputs(&self) -> usize {
        self.layers.first().map(Linear::inputs).unwrap_or(0)
    }

    /// Output width.
    pub fn outputs(&self) -> usize {
        self.layers.last().map(Linear::outputs).unwrap_or(0)
    }
}

impl BoundMlp {
    /// Forward pass: activation after every layer except the last.
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let obs_t0 = af_obs::enabled().then(std::time::Instant::now);
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(g, h);
            if i != last {
                h = self.activation.apply(g, h);
            }
        }
        if let Some(t0) = obs_t0 {
            af_obs::hist("nn.forward_us", t0.elapsed().as_secs_f64() * 1e6);
        }
        h
    }

    /// All parameter node ids.
    pub fn params(&self) -> Vec<NodeId> {
        self.layers.iter().flat_map(BoundLinear::params).collect()
    }
}

/// Tape-bound handle of an [`Mlp`] (the `af_tensor` fast path).
#[derive(Debug, Clone)]
pub struct TapeMlp {
    layers: Vec<TapeLinear>,
    activation: Act,
}

impl TapeMlp {
    /// Records the forward pass: each layer as one fused linear kernel, with
    /// the hidden activation folded in everywhere except the last layer.
    pub fn forward(&self, t: &mut Tape, x: Var) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i != last {
                self.activation
            } else {
                Act::Identity
            };
            h = layer.forward(t, h, act);
        }
        h
    }

    /// All parameter vars, in the oracle's `[w, b]`-per-layer order.
    pub fn params(&self) -> Vec<Var> {
        self.layers.iter().flat_map(TapeLinear::params).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn linear_shapes() {
        let mut r = rng();
        let l = Linear::new(4, 3, &mut r);
        assert_eq!(l.inputs(), 4);
        assert_eq!(l.outputs(), 3);
        assert_eq!(l.param_count(), 15);
        let mut g = Graph::new();
        let b = l.bind(&mut g);
        let x = g.input(Tensor::ones(2, 4));
        let y = b.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (2, 3));
    }

    #[test]
    fn mlp_forward_and_training_reduces_loss() {
        let mut r = rng();
        let mlp = Mlp::new(&[2, 16, 1], Activation::Tanh, &mut r);
        let mut g = Graph::new();
        let bound = mlp.bind(&mut g);
        let params = bound.params();

        // learn XOR-ish continuous target y = x0*x1
        let xs: Vec<(f64, f64)> = vec![(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5, 0.5)];
        let loss_of = |g: &mut Graph, bound: &BoundMlp| {
            let x = g.input(Tensor::from_vec(
                xs.iter().flat_map(|&(a, b)| [a, b]).collect(),
                xs.len(),
                2,
            ));
            let t = g.input(Tensor::from_vec(
                xs.iter().map(|&(a, b)| a * b).collect(),
                xs.len(),
                1,
            ));
            let y = bound.forward(g, x);
            g.mse(y, t)
        };
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..300 {
            g.reset();
            let l = loss_of(&mut g, &bound);
            g.backward(l);
            last = g.value(l).get(0, 0);
            first.get_or_insert(last);
            let grads: Vec<Tensor> = params.iter().map(|&p| g.grad(p).clone()).collect();
            for (&p, gr) in params.iter().zip(&grads) {
                let v = g.param_data_mut(p);
                for (a, b) in v.data_mut().iter_mut().zip(gr.data()) {
                    *a -= 0.2 * b;
                }
            }
        }
        let first = first.unwrap();
        assert!(
            last < first * 0.1,
            "loss {first} -> {last} did not drop 10x"
        );
    }

    #[test]
    fn sync_roundtrip() {
        let mut r = rng();
        let mut mlp = Mlp::new(&[3, 4, 2], Activation::Silu, &mut r);
        let mut g = Graph::new();
        let bound = mlp.bind(&mut g);
        // tweak a parameter inside the graph
        g.param_data_mut(bound.layers[0].w).data_mut()[0] = 99.0;
        mlp.sync_from(&g, &bound);
        let mut g2 = Graph::new();
        let bound2 = mlp.bind(&mut g2);
        assert_eq!(g2.value(bound2.layers[0].w).data()[0], 99.0);
    }

    #[test]
    fn activation_apply() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![-1.0, 1.0], 1, 2));
        let y = Activation::Relu.apply(&mut g, x);
        assert_eq!(g.value(y).data(), &[0.0, 1.0]);
        let id = Activation::Identity.apply(&mut g, x);
        assert_eq!(id, x);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_needs_two_widths() {
        let _ = Mlp::new(&[3], Activation::Relu, &mut rng());
    }

    #[test]
    fn deterministic_init() {
        let a = Mlp::new(&[2, 3], Activation::Relu, &mut rng());
        let b = Mlp::new(&[2, 3], Activation::Relu, &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn tape_mlp_matches_graph_mlp_bitwise() {
        let mut r = rng();
        let mut mlp_g = Mlp::new(&[3, 8, 2], Activation::Silu, &mut r);
        let mut mlp_t = mlp_g.clone();
        let xv = [0.4, -1.1, 0.9, 2.0, 0.0, -0.3];
        let tv = [0.5, -0.5, 1.5, 0.25];

        // Scalar oracle: graph forward + mse backward + one Adam step.
        let mut g = Graph::new();
        let bound = mlp_g.bind(&mut g);
        let mut adam = crate::Adam::new(bound.params(), crate::AdamConfig::default(), &g);
        let x = g.input(Tensor::from_vec(xv.to_vec(), 2, 3));
        let t_node = g.input(Tensor::from_vec(tv.to_vec(), 2, 2));
        let y = bound.forward(&mut g, x);
        let loss = g.mse(y, t_node);
        g.backward(loss);
        adam.step(&mut g);
        mlp_g.sync_from(&g, &bound);

        // Tape fast path: same topology, same data.
        let mut t = Tape::new();
        let xt = t.input(2, 3);
        let tt = t.input(2, 2);
        let bt = mlp_t.bind_tape(&mut t);
        let yt = bt.forward(&mut t, xt);
        let lt = t.mse(yt, tt);
        t.seal(Some(lt), &bt.params());
        let mut tadam = crate::TapeAdam::new(bt.params(), crate::AdamConfig::default(), &t);
        t.set_value(xt, &xv);
        t.set_value(tt, &tv);
        t.forward();
        t.backward();
        tadam.step(&mut t);
        mlp_t.sync_from_tape(&t, &bt);

        // Each engine is bit-deterministic on its own, but tape and graph
        // are *different code paths*: the compiler may vectorize one and
        // not the other, shifting the last bits of a dot product. Pin the
        // cross-engine agreement to a few ULP instead of exact bits.
        let ulp = |a: f64, b: f64| {
            (a.to_bits() as i64)
                .wrapping_sub(b.to_bits() as i64)
                .unsigned_abs()
        };
        for (a, b) in t.value(yt).iter().zip(g.value(y).data()) {
            assert!(ulp(*a, *b) <= 64, "forward diverged: {a:?} vs {b:?}");
        }
        assert!(
            ulp(t.value(lt)[0], g.value(loss).get(0, 0)) <= 64,
            "loss diverged"
        );
        for (lg, lt_) in mlp_g.layers.iter().zip(&mlp_t.layers) {
            for (a, b) in lg.w.data().iter().zip(lt_.w.data()) {
                assert!(
                    ulp(*a, *b) <= 1024,
                    "post-Adam weights diverged: {a:?} vs {b:?}"
                );
            }
            for (a, b) in lg.b.data().iter().zip(lt_.b.data()) {
                assert!(
                    ulp(*a, *b) <= 1024,
                    "post-Adam biases diverged: {a:?} vs {b:?}"
                );
            }
        }
    }
}
