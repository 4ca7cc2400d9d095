#![warn(missing_docs)]
//! Pure-Rust neural-network substrate for the AnalogFold reproduction.
//!
//! The paper trains its 3DGNN with torch; this workspace implements the
//! required subset from scratch:
//!
//! * [`Tensor`] — dense row-major 2-D tensors,
//! * [`Linear`] / [`Mlp`] — parameterized layers with seeded Xavier init,
//!   bound onto an `af_tensor` [`Tape`](af_tensor::Tape) with `bind_tape`,
//! * [`TapeAdam`] and [`lbfgs_minimize`] — training and relaxation
//!   optimizers (the paper relaxes routing guidance with L-BFGS),
//! * [`Vae`] — the small VAE used to reproduce the GeniusRoute baseline,
//!   trained and evaluated on the tape.
//!
//! The `af_tensor` tape is the only autograd engine production code runs
//! on. [`Graph`] — an eager reverse-mode autodiff graph — together with the
//! Graph-bound layers ([`Linear::bind`], [`Mlp::bind_frozen`], …) and
//! [`Adam`] is the scalar reference the tape is tested against, op for op
//! and model for model.
//!
//! Gradients flow to *any* leaf declared with [`Graph::param`] (or listed
//! in `Tape::seal`), which is what lets AnalogFold run gradient descent on
//! its guidance inputs rather than on weights only.
//!
//! # Examples
//!
//! Minimize `(x - 3)²` by gradient descent on a leaf:
//!
//! ```
//! use af_nn::{Graph, Tensor};
//!
//! let mut g = Graph::new();
//! let x = g.param(Tensor::from_vec(vec![0.0], 1, 1));
//! for _ in 0..200 {
//!     g.reset();
//!     let t = g.input(Tensor::from_vec(vec![3.0], 1, 1));
//!     let d = g.sub(x, t);
//!     let sq = g.square(d);
//!     let loss = g.sum(sq);
//!     g.backward(loss);
//!     let step = 0.1 * g.grad(x).data()[0];
//!     g.param_data_mut(x).data_mut()[0] -= step;
//! }
//! assert!((g.value(x).data()[0] - 3.0).abs() < 1e-3);
//! ```

mod graph;
mod layers;
mod optim;
mod tensor;
mod vae;

pub use graph::{Graph, NodeId};
pub use layers::{Activation, BoundLinear, BoundMlp, Linear, Mlp, TapeLinear, TapeMlp};
pub use optim::{lbfgs_minimize, Adam, AdamConfig, LbfgsResult, TapeAdam};
pub use tensor::Tensor;
pub use vae::{Vae, VaeConfig};
