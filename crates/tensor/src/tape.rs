//! A record-once / replay-many reverse-mode tape.
//!
//! [`Tape`] differs from an eager autodiff graph in lifetime: the program is
//! recorded **once** (shapes validated, every value / gradient / scratch
//! buffer allocated up front), then [`forward`](Tape::forward) and
//! [`backward`](Tape::backward) replay it any number of times with **zero
//! allocations**. Callers mutate leaf values in place ([`Tape::set_value`],
//! [`Tape::value_mut`]) between replays — exactly the shape of a potential
//! relaxation (hundreds of L-BFGS evaluations over one fixed program) or a
//! training loop (thousands of samples over one fixed topology).
//!
//! [`seal`](Tape::seal) fixes the loss and the wanted leaves and computes a
//! static `needs_grad` mask: backward only visits nodes that both feed the
//! loss and depend on a wanted leaf, so e.g. relaxing guidance under frozen
//! weights skips every `dW` matmul for free.
//!
//! Forward replays are **incremental**: the tape tracks which leaves were
//! mutated since the last replay and recomputes only their downstream cone.
//! Because every kernel is deterministic, a node whose inputs are untouched
//! still holds the bit-identical value from the previous replay, so the skip
//! is a pure no-op numerically. A relaxation that mutates only the guidance
//! leaf therefore skips the node encoders and every other guidance-
//! independent subgraph on all replays after the first.
//!
//! Every op mirrors the scalar oracle (`af_nn::Graph`) formula-for-formula
//! and reduction-order-for-reduction-order; see the crate docs for the
//! bit-exactness contract.

use std::sync::Arc;

use crate::csr::CsrIndex;
use crate::kernels::{self, Act};

/// Handle to a tape node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(u32);

/// Handle to a registered [`CsrIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrRef(u32);

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    Matmul {
        a: Var,
        b: Var,
    },
    /// Fused `act(x·W + b)`; the pre-activation lives in the node's scratch.
    Linear {
        x: Var,
        w: Var,
        b: Var,
        act: Act,
    },
    Activation {
        x: Var,
        act: Act,
    },
    Add {
        a: Var,
        b: Var,
    },
    Sub {
        a: Var,
        b: Var,
    },
    Mul {
        a: Var,
        b: Var,
    },
    Scale {
        x: Var,
        k: f64,
    },
    Square {
        x: Var,
    },
    /// Elementwise exp on the deterministic polynomial [`crate::exp`].
    Exp {
        x: Var,
    },
    /// Elementwise square root, clamped at `1e-12` like the oracle.
    Sqrt {
        x: Var,
    },
    Sum {
        x: Var,
    },
    SumCols {
        x: Var,
    },
    /// Column-wise sum `m×n → 1×n` (the oracle's `ones(1,m) × x`).
    SumRows {
        x: Var,
    },
    Gather {
        x: Var,
        csr: CsrRef,
    },
    ScatterAdd {
        x: Var,
        csr: CsrRef,
    },
    Rbf {
        x: Var,
        gamma: f64,
        mus: Arc<Vec<f64>>,
    },
}

/// Reverse-mode tape; see the [module docs](self).
pub struct Tape {
    ops: Vec<Op>,
    shapes: Vec<(usize, usize)>,
    vals: Vec<Vec<f64>>,
    grads: Vec<Vec<f64>>,
    /// Per-node scratch: the pre-activation of `Linear` nodes (overwritten
    /// with the pre-activation gradient during backward), empty elsewhere.
    scratch: Vec<Vec<f64>>,
    /// Per-node forward-state capture: the sigmoid of SiLU nodes, written
    /// by `forward` and read by `backward` so no exp is recomputed there.
    /// Empty for every other op.
    auxs: Vec<Vec<f64>>,
    csrs: Vec<Arc<CsrIndex>>,
    /// Static gradient mask computed by `seal`.
    mask: Vec<bool>,
    loss: Option<Var>,
    sealed: bool,
    /// Shared scratch for the backward matmul kernels; grown on first
    /// backward, allocation-free afterwards.
    bwd_tmp: Vec<f64>,
    /// Per-node "recompute on this forward" flags (incremental replay).
    needs: Vec<bool>,
    /// Leaves mutated since the last forward.
    dirty_leaves: Vec<u32>,
    /// `Linear` nodes whose pre-activation scratch was overwritten by the
    /// last backward. They are recomputed on the next forward — but since
    /// the recomputation is bit-identical, their dependents stay asleep.
    clobbered: Vec<u32>,
    /// Node count covered by the previous forward; nodes recorded since
    /// (`needs` born `true`) always compute on their first replay.
    fwd_len: usize,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self {
            ops: Vec::new(),
            shapes: Vec::new(),
            vals: Vec::new(),
            grads: Vec::new(),
            scratch: Vec::new(),
            auxs: Vec::new(),
            csrs: Vec::new(),
            mask: Vec::new(),
            loss: None,
            sealed: false,
            bwd_tmp: Vec::new(),
            needs: Vec::new(),
            dirty_leaves: Vec::new(),
            clobbered: Vec::new(),
            fwd_len: 0,
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    fn push(&mut self, op: Op, rows: usize, cols: usize) -> Var {
        assert!(!self.sealed, "tape is sealed; record before seal()");
        self.ops.push(op);
        self.shapes.push((rows, cols));
        self.vals.push(vec![0.0; rows * cols]);
        self.grads.push(Vec::new());
        self.scratch.push(Vec::new());
        self.auxs.push(Vec::new());
        self.needs.push(true);
        Var(self.ops.len() as u32 - 1)
    }

    /// Declares a zero-initialized leaf whose value is set per replay.
    pub fn input(&mut self, rows: usize, cols: usize) -> Var {
        self.push(Op::Leaf, rows, cols)
    }

    /// Declares a leaf with an initial value (weights, graph constants).
    pub fn leaf(&mut self, data: &[f64], rows: usize, cols: usize) -> Var {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        let v = self.push(Op::Leaf, rows, cols);
        self.vals[v.0 as usize].copy_from_slice(data);
        v
    }

    /// Registers a relation index for `gather`/`scatter_add`.
    pub fn register_csr(&mut self, csr: Arc<CsrIndex>) -> CsrRef {
        self.csrs.push(csr);
        CsrRef(self.csrs.len() as u32 - 1)
    }

    /// `(rows, cols)` of a node.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.shapes[v.0 as usize]
    }

    /// Value buffer of a node.
    pub fn value(&self, v: Var) -> &[f64] {
        &self.vals[v.0 as usize]
    }

    /// Mutable value buffer of a **leaf** (for optimizer updates).
    ///
    /// # Panics
    ///
    /// Panics on non-leaf nodes — interior values are overwritten by
    /// `forward` and must not be aliased as state.
    pub fn value_mut(&mut self, v: Var) -> &mut [f64] {
        assert!(
            matches!(self.ops[v.0 as usize], Op::Leaf),
            "value_mut is for leaves"
        );
        self.dirty_leaves.push(v.0);
        &mut self.vals[v.0 as usize]
    }

    /// Copies `data` into a leaf's value buffer.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or non-leaf nodes.
    pub fn set_value(&mut self, v: Var, data: &[f64]) {
        let buf = self.value_mut(v);
        assert_eq!(buf.len(), data.len(), "set_value length mismatch");
        buf.copy_from_slice(data);
    }

    /// Gradient buffer of a node (zeros until `backward` runs).
    ///
    /// # Panics
    ///
    /// Panics if the node is outside the sealed gradient mask.
    pub fn grad(&self, v: Var) -> &[f64] {
        let g = &self.grads[v.0 as usize];
        assert!(
            !g.is_empty() || self.shapes[v.0 as usize].0 * self.shapes[v.0 as usize].1 == 0,
            "node {} has no gradient: not on a loss→wanted path",
            v.0
        );
        g
    }

    /// Gradient buffer of a node, or `None` if the node is outside the
    /// sealed gradient mask (optimizers skip such parameters).
    pub fn try_grad(&self, v: Var) -> Option<&[f64]> {
        let g = &self.grads[v.0 as usize];
        (!g.is_empty()).then_some(g.as_slice())
    }

    /// Mutable value and shared gradient of a **leaf**, for in-place
    /// optimizer updates; `None` if the leaf has no gradient buffer.
    ///
    /// # Panics
    ///
    /// Panics on non-leaf nodes.
    pub fn value_and_grad_mut(&mut self, v: Var) -> Option<(&mut [f64], &[f64])> {
        let i = v.0 as usize;
        assert!(
            matches!(self.ops[i], Op::Leaf),
            "value_and_grad_mut is for leaves"
        );
        let g = &self.grads[i];
        if g.is_empty() {
            return None;
        }
        self.dirty_leaves.push(v.0);
        Some((self.vals[i].as_mut_slice(), g.as_slice()))
    }

    fn binary_shape(&self, a: Var, b: Var, what: &str) -> (usize, usize) {
        let sa = self.shape(a);
        assert_eq!(sa, self.shape(b), "{what} shape mismatch");
        sa
    }

    /// Matrix product `a × b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (m, k) = self.shape(a);
        let (k2, n) = self.shape(b);
        assert_eq!(k, k2, "matmul {m}x{k} × {k2}x{n}");
        self.push(Op::Matmul { a, b }, m, n)
    }

    /// Fused dense layer `act(x·W + b)`.
    pub fn linear(&mut self, x: Var, w: Var, b: Var, act: Act) -> Var {
        let (m, k) = self.shape(x);
        let (k2, n) = self.shape(w);
        assert_eq!(k, k2, "linear {m}x{k} × {k2}x{n}");
        assert_eq!(self.shape(b), (1, n), "bias must be 1x{n}");
        let v = self.push(Op::Linear { x, w, b, act }, m, n);
        self.scratch[v.0 as usize] = vec![0.0; m * n];
        if act == Act::Silu {
            self.auxs[v.0 as usize] = vec![0.0; m * n];
        }
        v
    }

    /// Standalone activation.
    pub fn activation(&mut self, x: Var, act: Act) -> Var {
        let (m, n) = self.shape(x);
        let v = self.push(Op::Activation { x, act }, m, n);
        if act == Act::Silu {
            self.auxs[v.0 as usize] = vec![0.0; m * n];
        }
        v
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (m, n) = self.binary_shape(a, b, "add");
        self.push(Op::Add { a, b }, m, n)
    }

    /// Elementwise difference `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (m, n) = self.binary_shape(a, b, "sub");
        self.push(Op::Sub { a, b }, m, n)
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (m, n) = self.binary_shape(a, b, "mul");
        self.push(Op::Mul { a, b }, m, n)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, x: Var, k: f64) -> Var {
        let (m, n) = self.shape(x);
        self.push(Op::Scale { x, k }, m, n)
    }

    /// Elementwise square.
    pub fn square(&mut self, x: Var) -> Var {
        let (m, n) = self.shape(x);
        self.push(Op::Square { x }, m, n)
    }

    /// Elementwise `exp` (the [`crate::exp`] polynomial; see the crate
    /// docs for its accuracy against libm).
    pub fn exp(&mut self, x: Var) -> Var {
        let (m, n) = self.shape(x);
        self.push(Op::Exp { x }, m, n)
    }

    /// Elementwise square root, clamped at `1e-12`.
    pub fn sqrt(&mut self, x: Var) -> Var {
        let (m, n) = self.shape(x);
        self.push(Op::Sqrt { x }, m, n)
    }

    /// Sum of all elements → `1×1`.
    pub fn sum(&mut self, x: Var) -> Var {
        self.push(Op::Sum { x }, 1, 1)
    }

    /// Row-wise sum `m×n → m×1`.
    pub fn sum_cols(&mut self, x: Var) -> Var {
        let (m, _) = self.shape(x);
        self.push(Op::SumCols { x }, m, 1)
    }

    /// Column-wise sum `m×n → 1×n` (replaces the oracle's `ones × x`).
    pub fn sum_rows(&mut self, x: Var) -> Var {
        let (_, n) = self.shape(x);
        self.push(Op::SumRows { x }, 1, n)
    }

    /// Batched row gather through a registered relation.
    ///
    /// # Panics
    ///
    /// Panics if the relation's row count mismatches `x`.
    pub fn gather(&mut self, x: Var, csr: CsrRef) -> Var {
        let (m, n) = self.shape(x);
        let c = &self.csrs[csr.0 as usize];
        assert_eq!(c.n_rows(), m, "gather relation covers {} rows", c.n_rows());
        let e = c.len();
        self.push(Op::Gather { x, csr }, e, n)
    }

    /// Batched row scatter-add through a registered relation; the output has
    /// the relation's row count.
    ///
    /// # Panics
    ///
    /// Panics if the relation's edge count mismatches `x`'s rows.
    pub fn scatter_add(&mut self, x: Var, csr: CsrRef) -> Var {
        let (m, n) = self.shape(x);
        let c = &self.csrs[csr.0 as usize];
        assert_eq!(c.len(), m, "one index per input row");
        let rows = c.n_rows();
        self.push(Op::ScatterAdd { x, csr }, rows, n)
    }

    /// Radial-basis expansion `ψ_k(d) = exp(-γ (d - μ_k)²)`, `m×1 → m×K`.
    ///
    /// # Panics
    ///
    /// Panics unless `x` is a column vector and `mus` is non-empty.
    pub fn rbf(&mut self, x: Var, gamma: f64, mus: &[f64]) -> Var {
        let (m, n) = self.shape(x);
        assert_eq!(n, 1, "rbf expects an m×1 input");
        assert!(!mus.is_empty(), "rbf needs at least one center");
        let k = mus.len();
        self.push(
            Op::Rbf {
                x,
                gamma,
                mus: Arc::new(mus.to_vec()),
            },
            m,
            k,
        )
    }

    /// Mean-squared error between `x` and `target` → `1×1`.
    pub fn mse(&mut self, x: Var, target: Var) -> Var {
        let d = self.sub(x, target);
        let sq = self.square(d);
        let s = self.sum(sq);
        let (m, n) = self.shape(x);
        self.scale(s, 1.0 / (m * n) as f64)
    }

    fn op_inputs(op: &Op) -> [Option<Var>; 3] {
        match *op {
            Op::Leaf => [None, None, None],
            Op::Matmul { a, b } | Op::Add { a, b } | Op::Sub { a, b } | Op::Mul { a, b } => {
                [Some(a), Some(b), None]
            }
            Op::Linear { x, w, b, .. } => [Some(x), Some(w), Some(b)],
            Op::Activation { x, .. }
            | Op::Scale { x, .. }
            | Op::Square { x }
            | Op::Exp { x }
            | Op::Sqrt { x }
            | Op::Sum { x }
            | Op::SumCols { x }
            | Op::SumRows { x }
            | Op::Gather { x, .. }
            | Op::ScatterAdd { x, .. }
            | Op::Rbf { x, .. } => [Some(x), None, None],
        }
    }

    /// Fixes the program: `loss` (scalar, optional for forward-only tapes)
    /// and the leaves whose gradients the caller will read. Gradient buffers
    /// are allocated only for nodes on some loss→wanted path; backward skips
    /// everything else.
    ///
    /// # Panics
    ///
    /// Panics if called twice, or if `loss` is not scalar.
    pub fn seal(&mut self, loss: Option<Var>, wanted: &[Var]) {
        assert!(!self.sealed, "tape already sealed");
        self.sealed = true;
        self.loss = loss;
        let Some(loss) = loss else {
            self.mask = vec![false; self.ops.len()];
            return;
        };
        assert_eq!(self.shape(loss), (1, 1), "backward needs a scalar loss");
        // `depends[n]`: n's value depends on a wanted leaf.
        let mut depends = vec![false; self.ops.len()];
        for &w in wanted {
            depends[w.0 as usize] = true;
        }
        for i in 0..self.ops.len() {
            if depends[i] {
                continue;
            }
            depends[i] = Self::op_inputs(&self.ops[i])
                .into_iter()
                .flatten()
                .any(|v| depends[v.0 as usize]);
        }
        // `used[n]`: the loss depends on n's value.
        let mut used = vec![false; self.ops.len()];
        used[loss.0 as usize] = true;
        for i in (0..=loss.0 as usize).rev() {
            if !used[i] {
                continue;
            }
            for v in Self::op_inputs(&self.ops[i]).into_iter().flatten() {
                used[v.0 as usize] = true;
            }
        }
        self.mask = depends.iter().zip(&used).map(|(&d, &u)| d && u).collect();
        for (i, &m) in self.mask.iter().enumerate() {
            if m {
                let (r, c) = self.shapes[i];
                self.grads[i] = vec![0.0; r * c];
            }
        }
    }

    /// Seeds the per-node recompute flags for this replay: everything on the
    /// first forward; afterwards the downstream cone of the mutated leaves,
    /// plus (without waking dependents) any `Linear` node whose scratch the
    /// last backward clobbered.
    fn plan_forward(&mut self) {
        // Nodes past `fwd_len` were recorded after the last replay and keep
        // their born-`true` flags; everything older starts asleep.
        self.needs[..self.fwd_len]
            .iter_mut()
            .for_each(|b| *b = false);
        for &l in &self.dirty_leaves {
            self.needs[l as usize] = true;
        }
        for i in 0..self.ops.len() {
            if self.needs[i] {
                continue;
            }
            self.needs[i] = Self::op_inputs(&self.ops[i])
                .into_iter()
                .flatten()
                .any(|v| self.needs[v.0 as usize]);
        }
        // Clobbered nodes recompute bit-identically, so their dependents
        // stay asleep: OR in after the propagation pass.
        for &c in &self.clobbered {
            self.needs[c as usize] = true;
        }
        self.fwd_len = self.ops.len();
        self.dirty_leaves.clear();
        self.clobbered.clear();
    }

    /// Replays the forward pass over the current leaf values. Incremental:
    /// only nodes downstream of leaves mutated since the previous replay are
    /// recomputed (see the module docs) — skipped nodes keep their
    /// bit-identical prior values.
    pub fn forward(&mut self) {
        self.plan_forward();
        let ops = &self.ops;
        let shapes = &self.shapes;
        let csrs = &self.csrs;
        let needs = &self.needs;
        let vals = &mut self.vals;
        let scratch = &mut self.scratch;
        let auxs = &mut self.auxs;
        for i in 0..ops.len() {
            if !needs[i] {
                continue;
            }
            let (rows, cols) = shapes[i];
            let (prev, rest) = vals.split_at_mut(i);
            let out = &mut rest[0];
            match &ops[i] {
                Op::Leaf => {}
                Op::Matmul { a, b } => {
                    let (m, k) = shapes[a.0 as usize];
                    kernels::matmul(out, &prev[a.0 as usize], &prev[b.0 as usize], m, k, cols);
                }
                Op::Linear { x, w, b, act } => {
                    let (m, k) = shapes[x.0 as usize];
                    kernels::linear_forward_aux(
                        out,
                        &mut scratch[i],
                        &mut auxs[i],
                        &prev[x.0 as usize],
                        &prev[w.0 as usize],
                        &prev[b.0 as usize],
                        *act,
                        m,
                        k,
                        cols,
                    );
                }
                Op::Activation { x, act } => {
                    kernels::act_forward_aux(out, &mut auxs[i], &prev[x.0 as usize], *act);
                }
                Op::Add { a, b } => {
                    for ((o, &x), &y) in out
                        .iter_mut()
                        .zip(&prev[a.0 as usize])
                        .zip(&prev[b.0 as usize])
                    {
                        *o = x + y;
                    }
                }
                Op::Sub { a, b } => {
                    for ((o, &x), &y) in out
                        .iter_mut()
                        .zip(&prev[a.0 as usize])
                        .zip(&prev[b.0 as usize])
                    {
                        *o = x - y;
                    }
                }
                Op::Mul { a, b } => {
                    for ((o, &x), &y) in out
                        .iter_mut()
                        .zip(&prev[a.0 as usize])
                        .zip(&prev[b.0 as usize])
                    {
                        *o = x * y;
                    }
                }
                Op::Scale { x, k } => {
                    for (o, &v) in out.iter_mut().zip(&prev[x.0 as usize]) {
                        *o = v * k;
                    }
                }
                Op::Square { x } => {
                    for (o, &v) in out.iter_mut().zip(&prev[x.0 as usize]) {
                        *o = v * v;
                    }
                }
                Op::Exp { x } => {
                    out.copy_from_slice(&prev[x.0 as usize]);
                    crate::exp::vexp_inplace(out);
                }
                Op::Sqrt { x } => {
                    for (o, &v) in out.iter_mut().zip(&prev[x.0 as usize]) {
                        *o = v.max(1e-12).sqrt();
                    }
                }
                Op::Sum { x } => {
                    out[0] = prev[x.0 as usize].iter().sum();
                }
                Op::SumCols { x } => {
                    let (_, n) = shapes[x.0 as usize];
                    let xv = &prev[x.0 as usize];
                    for (r, o) in out.iter_mut().enumerate() {
                        *o = xv[r * n..(r + 1) * n].iter().sum();
                    }
                }
                Op::SumRows { x } => {
                    let (m, n) = shapes[x.0 as usize];
                    let xv = &prev[x.0 as usize];
                    out.fill(0.0);
                    for r in 0..m {
                        for (o, &v) in out.iter_mut().zip(&xv[r * n..(r + 1) * n]) {
                            *o += v;
                        }
                    }
                }
                Op::Gather { x, csr } => {
                    csrs[csr.0 as usize].gather_rows(out, &prev[x.0 as usize], cols);
                }
                Op::ScatterAdd { x, csr } => {
                    csrs[csr.0 as usize].scatter_add_rows(out, &prev[x.0 as usize], cols);
                }
                Op::Rbf { x, gamma, mus } => {
                    // Fill the (always non-positive) arguments, then one
                    // batched exp sweep over the whole rows×centers block.
                    let xv = &prev[x.0 as usize];
                    let gamma = *gamma;
                    for r in 0..rows {
                        let d = xv[r];
                        for (o, &mu) in out[r * cols..(r + 1) * cols].iter_mut().zip(mus.iter()) {
                            *o = -gamma * (d - mu) * (d - mu);
                        }
                    }
                    crate::exp::vexp_inplace(out);
                }
            }
        }
    }

    /// Replays the backward pass from the sealed loss, accumulating
    /// gradients for all masked nodes. Must follow a `forward`.
    ///
    /// # Panics
    ///
    /// Panics if the tape was sealed without a loss.
    pub fn backward(&mut self) {
        assert!(self.sealed, "seal() the tape before backward()");
        let loss = self.loss.expect("tape sealed without a loss");
        for (i, &m) in self.mask.iter().enumerate() {
            if m {
                self.grads[i].fill(0.0);
            }
        }
        if !self.mask[loss.0 as usize] {
            // The loss does not depend on any wanted leaf: all gradients are
            // (correctly) zero.
            return;
        }
        self.grads[loss.0 as usize][0] = 1.0;

        let ops = &self.ops;
        let shapes = &self.shapes;
        let csrs = &self.csrs;
        let mask = &self.mask;
        let vals = &self.vals;
        let grads = &mut self.grads;
        let scratch = &mut self.scratch;
        let auxs = &self.auxs;
        let tmp = &mut self.bwd_tmp;
        let clobbered = &mut self.clobbered;
        for i in (0..=loss.0 as usize).rev() {
            if !mask[i] {
                continue;
            }
            let (rows, cols) = shapes[i];
            let (gprev, grest) = grads.split_at_mut(i);
            let gout: &[f64] = &grest[0];
            match &ops[i] {
                Op::Leaf => {}
                Op::Matmul { a, b } => {
                    let (m, k) = shapes[a.0 as usize];
                    let n = cols;
                    if mask[a.0 as usize] {
                        kernels::matmul_a_bt_acc(
                            &mut gprev[a.0 as usize],
                            gout,
                            &vals[b.0 as usize],
                            m,
                            n,
                            k,
                            tmp,
                        );
                    }
                    if mask[b.0 as usize] {
                        kernels::matmul_at_b_acc(
                            &mut gprev[b.0 as usize],
                            &vals[a.0 as usize],
                            gout,
                            m,
                            k,
                            n,
                            tmp,
                        );
                    }
                }
                Op::Linear { x, w, b, act } => {
                    let (m, k) = shapes[x.0 as usize];
                    let n = cols;
                    // dpre = gout ⊙ act'(pre), overwriting the scratch; the
                    // node is flagged so the next forward rewrites it. The
                    // forward's aux capture (SiLU sigmoid) keeps this
                    // exp-free.
                    let pre = &mut scratch[i];
                    kernels::act_backward_aux_inplace(pre, &auxs[i], &vals[i], gout, *act);
                    clobbered.push(i as u32);
                    let dpre: &[f64] = pre;
                    if mask[x.0 as usize] {
                        kernels::matmul_a_bt_acc(
                            &mut gprev[x.0 as usize],
                            dpre,
                            &vals[w.0 as usize],
                            m,
                            n,
                            k,
                            tmp,
                        );
                    }
                    if mask[w.0 as usize] {
                        kernels::matmul_at_b_acc(
                            &mut gprev[w.0 as usize],
                            &vals[x.0 as usize],
                            dpre,
                            m,
                            k,
                            n,
                            tmp,
                        );
                    }
                    if mask[b.0 as usize] {
                        kernels::colsum_acc(&mut gprev[b.0 as usize], dpre, m, n);
                    }
                }
                Op::Activation { x, act } => {
                    if mask[x.0 as usize] {
                        let gx = &mut gprev[x.0 as usize];
                        let xv = &vals[x.0 as usize];
                        let yv = &vals[i];
                        match act {
                            Act::Identity => {
                                for (o, &g) in gx.iter_mut().zip(gout) {
                                    *o += g;
                                }
                            }
                            Act::Relu => {
                                for ((o, &v), &g) in gx.iter_mut().zip(xv).zip(gout) {
                                    *o += if v > 0.0 { g } else { 0.0 };
                                }
                            }
                            Act::Silu => {
                                // s cached by forward; y = v·s, so
                                // y·(1-s) == v·s·(1-s) bit-for-bit.
                                let sv = &auxs[i];
                                for (((o, &s), &y), &g) in gx.iter_mut().zip(sv).zip(yv).zip(gout) {
                                    *o += g * (s + y * (1.0 - s));
                                }
                            }
                            Act::Tanh => {
                                for ((o, &y), &g) in gx.iter_mut().zip(yv).zip(gout) {
                                    *o += g * (1.0 - y * y);
                                }
                            }
                            Act::Sigmoid => {
                                for ((o, &y), &g) in gx.iter_mut().zip(yv).zip(gout) {
                                    *o += g * y * (1.0 - y);
                                }
                            }
                        }
                    }
                }
                Op::Add { a, b } => {
                    for v in [a, b] {
                        if mask[v.0 as usize] {
                            for (o, &g) in gprev[v.0 as usize].iter_mut().zip(gout) {
                                *o += g;
                            }
                        }
                    }
                }
                Op::Sub { a, b } => {
                    if mask[a.0 as usize] {
                        for (o, &g) in gprev[a.0 as usize].iter_mut().zip(gout) {
                            *o += g;
                        }
                    }
                    if mask[b.0 as usize] {
                        for (o, &g) in gprev[b.0 as usize].iter_mut().zip(gout) {
                            *o += -g;
                        }
                    }
                }
                Op::Mul { a, b } => {
                    if mask[a.0 as usize] {
                        let bv = &vals[b.0 as usize];
                        for ((o, &g), &y) in gprev[a.0 as usize].iter_mut().zip(gout).zip(bv) {
                            *o += g * y;
                        }
                    }
                    if mask[b.0 as usize] {
                        let av = &vals[a.0 as usize];
                        for ((o, &g), &x) in gprev[b.0 as usize].iter_mut().zip(gout).zip(av) {
                            *o += g * x;
                        }
                    }
                }
                Op::Scale { x, k } => {
                    if mask[x.0 as usize] {
                        for (o, &g) in gprev[x.0 as usize].iter_mut().zip(gout) {
                            *o += g * k;
                        }
                    }
                }
                Op::Square { x } => {
                    if mask[x.0 as usize] {
                        let xv = &vals[x.0 as usize];
                        for ((o, &g), &v) in gprev[x.0 as usize].iter_mut().zip(gout).zip(xv) {
                            *o += 2.0 * g * v;
                        }
                    }
                }
                Op::Exp { x } => {
                    if mask[x.0 as usize] {
                        let yv = &vals[i];
                        for ((o, &g), &y) in gprev[x.0 as usize].iter_mut().zip(gout).zip(yv) {
                            *o += g * y;
                        }
                    }
                }
                Op::Sqrt { x } => {
                    if mask[x.0 as usize] {
                        let yv = &vals[i];
                        for ((o, &g), &y) in gprev[x.0 as usize].iter_mut().zip(gout).zip(yv) {
                            *o += g / (2.0 * y.max(1e-12));
                        }
                    }
                }
                Op::Sum { x } => {
                    if mask[x.0 as usize] {
                        let g0 = gout[0];
                        for o in gprev[x.0 as usize].iter_mut() {
                            *o += g0;
                        }
                    }
                }
                Op::SumCols { x } => {
                    if mask[x.0 as usize] {
                        let (_, n) = shapes[x.0 as usize];
                        let gx = &mut gprev[x.0 as usize];
                        for (r, &g) in gout.iter().enumerate() {
                            for o in gx[r * n..(r + 1) * n].iter_mut() {
                                *o += g;
                            }
                        }
                    }
                }
                Op::SumRows { x } => {
                    if mask[x.0 as usize] {
                        let (m, n) = shapes[x.0 as usize];
                        let gx = &mut gprev[x.0 as usize];
                        for r in 0..m {
                            for (o, &g) in gx[r * n..(r + 1) * n].iter_mut().zip(gout) {
                                *o += g;
                            }
                        }
                    }
                }
                Op::Gather { x, csr } => {
                    if mask[x.0 as usize] {
                        csrs[csr.0 as usize].gather_backward_acc(
                            &mut gprev[x.0 as usize],
                            gout,
                            cols,
                        );
                    }
                }
                Op::ScatterAdd { x, csr } => {
                    if mask[x.0 as usize] {
                        csrs[csr.0 as usize].scatter_backward_acc(
                            &mut gprev[x.0 as usize],
                            gout,
                            cols,
                        );
                    }
                }
                Op::Rbf { x, gamma, mus } => {
                    if mask[x.0 as usize] {
                        let xv = &vals[x.0 as usize];
                        let yv = &vals[i];
                        let gamma = *gamma;
                        let gx = &mut gprev[x.0 as usize];
                        for r in 0..rows {
                            let d = xv[r];
                            let mut acc = 0.0;
                            for (c, &mu) in mus.iter().enumerate() {
                                let y = yv[r * cols + c];
                                acc += gout[r * cols + c] * y * (-2.0 * gamma * (d - mu));
                            }
                            gx[r] += acc;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_backward_quadratic() {
        // f(x) = sum((x·W)²), checked against hand math on a 1×2 case.
        let mut t = Tape::new();
        let x = t.input(1, 2);
        let w = t.leaf(&[1.0, 0.0, 0.0, 2.0], 2, 2);
        let y = t.matmul(x, w);
        let sq = t.square(y);
        let loss = t.sum(sq);
        t.seal(Some(loss), &[x]);
        t.set_value(x, &[3.0, 4.0]);
        t.forward();
        // y = [3, 8]; loss = 9 + 64
        assert_eq!(t.value(loss), &[73.0]);
        t.backward();
        // d/dx = 2*y·Wᵀ = [2*3*1, 2*8*2]
        assert_eq!(t.grad(x), &[6.0, 32.0]);
    }

    #[test]
    fn replay_reuses_buffers_bit_identically() {
        let mut t = Tape::new();
        let x = t.input(2, 1);
        let sq = t.square(x);
        let s = t.sum(sq);
        t.seal(Some(s), &[x]);
        let run = |t: &mut Tape, v: &[f64]| {
            t.set_value(x, v);
            t.forward();
            t.backward();
            (t.value(s)[0], t.grad(x).to_vec())
        };
        let a1 = run(&mut t, &[1.5, -2.0]);
        let _other = run(&mut t, &[9.0, 9.0]);
        let a2 = run(&mut t, &[1.5, -2.0]);
        assert_eq!(a1.0.to_bits(), a2.0.to_bits());
        assert_eq!(a1.1, a2.1);
    }

    #[test]
    fn grad_accumulates_over_reuse() {
        // f(x) = x*x + x → f' = 2x + 1
        let mut t = Tape::new();
        let x = t.input(1, 1);
        let sq = t.mul(x, x);
        let y = t.add(sq, x);
        let l = t.sum(y);
        t.seal(Some(l), &[x]);
        t.set_value(x, &[3.0]);
        t.forward();
        t.backward();
        assert_eq!(t.grad(x), &[7.0]);
    }

    #[test]
    fn mask_prunes_unwanted_branches() {
        // loss = sum(x·W); wanted = [x] only → W gets no gradient buffer,
        // but x's gradient is complete.
        let mut t = Tape::new();
        let x = t.input(1, 2);
        let w = t.leaf(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let y = t.matmul(x, w);
        let l = t.sum(y);
        t.seal(Some(l), &[x]);
        t.set_value(x, &[1.0, 1.0]);
        t.forward();
        t.backward();
        assert_eq!(t.grad(x), &[3.0, 7.0]);
        assert!(t.grads[w.0 as usize].is_empty());
    }

    #[test]
    fn gather_scatter_through_tape() {
        let mut t = Tape::new();
        let x = t.input(3, 2);
        let g_csr = t.register_csr(Arc::new(CsrIndex::new(&[0, 2, 2, 1], 3)));
        let s_csr = t.register_csr(Arc::new(CsrIndex::new(&[1, 0, 1, 1], 2)));
        let gathered = t.gather(x, g_csr);
        let scattered = t.scatter_add(gathered, s_csr);
        let sq = t.square(scattered);
        let l = t.sum(sq);
        t.seal(Some(l), &[x]);
        t.set_value(x, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        t.forward();
        // gathered = rows 0,2,2,1 → scatter [1,0,1,1]:
        // out0 = row2 = [5,6]; out1 = row0+row2+row1 = [1+5+3, 2+6+4]
        assert_eq!(t.value(scattered), &[5.0, 6.0, 9.0, 12.0]);
        t.backward();
        // matches the oracle's grad_gather_scatter test topology
        let g = t.grad(x).to_vec();
        assert_eq!(g.len(), 6);
        // finite-difference spot check on x[0]
        let f = |v0: f64| {
            let rows = [[v0, 2.0], [3.0, 4.0], [5.0, 6.0]];
            let gath = [rows[0], rows[2], rows[2], rows[1]];
            let mut out = [[0.0; 2]; 2];
            for (r, &d) in [1usize, 0, 1, 1].iter().enumerate() {
                out[d][0] += gath[r][0];
                out[d][1] += gath[r][1];
            }
            out.iter().flatten().map(|v| v * v).sum::<f64>()
        };
        let eps = 1e-6;
        let num = (f(1.0 + eps) - f(1.0 - eps)) / (2.0 * eps);
        assert!((g[0] - num).abs() < 1e-5, "{} vs {num}", g[0]);
    }

    #[test]
    fn linear_matches_separate_ops() {
        let mut fused = Tape::new();
        let x1 = fused.input(3, 2);
        let w1 = fused.leaf(&[0.3, -0.7, 1.2, 0.1], 2, 2);
        let b1 = fused.leaf(&[0.05, -0.4], 1, 2);
        let y1 = fused.linear(x1, w1, b1, Act::Silu);
        let l1 = fused.sum(y1);
        fused.seal(Some(l1), &[x1, w1, b1]);

        let mut split = Tape::new();
        let x2 = split.input(3, 2);
        let w2 = split.leaf(&[0.3, -0.7, 1.2, 0.1], 2, 2);
        let _b2 = split.leaf(&[0.05, -0.4], 1, 2);
        let mm = split.matmul(x2, w2);
        // add_bias as broadcast add through explicit rows: emulate with
        // linear(identity) − no; use matmul+manual bias via sum path is not
        // available, so compare against a hand loop instead.
        let act = split.activation(mm, Act::Identity);
        let _ = act;

        let xv = [0.5, -1.0, 2.0, 0.25, -0.5, 1.5];
        fused.set_value(x1, &xv);
        fused.forward();
        fused.backward();

        // Hand-computed oracle: pre = x·W + b, y = silu(pre), l = Σy.
        let w = [0.3, -0.7, 1.2, 0.1];
        let b = [0.05, -0.4];
        let sig = |v: f64| 1.0 / (1.0 + (-v).exp());
        let mut want_l = 0.0;
        let mut want_gx = [0.0; 6];
        for r in 0..3 {
            for c in 0..2 {
                let pre = xv[r * 2] * w[c] + xv[r * 2 + 1] * w[2 + c] + b[c];
                let s = sig(pre);
                want_l += pre * s;
                let dpre = s + pre * s * (1.0 - s);
                want_gx[r * 2] += dpre * w[c];
                want_gx[r * 2 + 1] += dpre * w[2 + c];
            }
        }
        assert!((fused.value(l1)[0] - want_l).abs() < 1e-12);
        for (g, w2) in fused.grad(x1).iter().zip(&want_gx) {
            assert!((g - w2).abs() < 1e-12);
        }
    }

    #[test]
    fn rbf_and_sqrt_chain_matches_finite_difference() {
        let mut t = Tape::new();
        let x = t.input(2, 3);
        let sq = t.square(x);
        let ss = t.sum_cols(sq);
        let d = t.sqrt(ss);
        let r = t.rbf(d, 2.0, &[0.0, 0.5, 1.0]);
        let l = t.sum(r);
        t.seal(Some(l), &[x]);
        let eval = |t: &mut Tape, v: &[f64]| {
            t.set_value(x, v);
            t.forward();
            t.value(l)[0]
        };
        let x0 = [0.3, -0.6, 0.9, 1.2, 0.1, -0.4];
        t.set_value(x, &x0);
        t.forward();
        t.backward();
        let g = t.grad(x).to_vec();
        let eps = 1e-6;
        for i in 0..6 {
            let mut p = x0;
            p[i] += eps;
            let mut m = x0;
            m[i] -= eps;
            let num = (eval(&mut t, &p) - eval(&mut t, &m)) / (2.0 * eps);
            assert!(
                (g[i] - num).abs() < 1e-5 * (1.0 + num.abs()),
                "grad[{i}] {} vs {num}",
                g[i]
            );
        }
    }

    #[test]
    fn sum_rows_matches_ones_matmul() {
        let mut t = Tape::new();
        let x = t.input(3, 2);
        let s = t.sum_rows(x);
        let sq = t.square(s);
        let l = t.sum(sq);
        t.seal(Some(l), &[x]);
        t.set_value(x, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        t.forward();
        assert_eq!(t.value(s), &[9.0, 12.0]);
        t.backward();
        // dl/dx[r][c] = 2 * s[c]
        assert_eq!(t.grad(x), &[18.0, 24.0, 18.0, 24.0, 18.0, 24.0]);
    }

    #[test]
    #[should_panic(expected = "sealed")]
    fn recording_after_seal_panics() {
        let mut t = Tape::new();
        let x = t.input(1, 1);
        t.seal(None, &[]);
        let _ = t.square(x);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn non_scalar_loss_panics() {
        let mut t = Tape::new();
        let x = t.input(2, 2);
        t.seal(Some(x), &[x]);
    }
}
