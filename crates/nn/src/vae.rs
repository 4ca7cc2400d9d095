//! Variational autoencoder — the generative model behind the GeniusRoute
//! baseline (Zhu et al., ICCAD'19), which guides routing with 2-D probability
//! maps decoded from a latent space trained on existing routed patterns.

use af_tensor::{Act, Tape, Var};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::{Activation, AdamConfig, Mlp, TapeAdam, Tensor};

/// VAE hyper-parameters.
#[derive(Debug, Clone)]
pub struct VaeConfig {
    /// Flattened input dimension (raster width × height).
    pub input_dim: usize,
    /// Hidden layer width.
    pub hidden: usize,
    /// Latent dimension.
    pub latent: usize,
    /// Weight of the KL term.
    pub beta: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// RNG seed for init and reparameterization noise.
    pub seed: u64,
}

impl Default for VaeConfig {
    fn default() -> Self {
        Self {
            input_dim: 64,
            hidden: 64,
            latent: 8,
            beta: 1e-3,
            lr: 3e-3,
            seed: 17,
        }
    }
}

/// A small MLP VAE over flattened rasters.
///
/// # Examples
///
/// ```
/// use af_nn::{Tensor, Vae, VaeConfig};
///
/// let cfg = VaeConfig { input_dim: 16, hidden: 32, latent: 4, ..VaeConfig::default() };
/// let mut vae = Vae::new(cfg);
/// let data = vec![Tensor::from_vec(vec![0.8; 16], 1, 16); 4];
/// let losses = vae.train(&data, 50);
/// assert!(losses.last().unwrap() < &losses[0]);
/// let out = vae.reconstruct(&data[0]);
/// assert_eq!(out.shape(), (1, 16));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Vae {
    cfg_input_dim: usize,
    cfg_latent: usize,
    beta: f64,
    lr: f64,
    seed: u64,
    encoder: Mlp,
    mu_head: Mlp,
    logvar_head: Mlp,
    decoder: Mlp,
}

impl Vae {
    /// Creates a VAE with seeded initialization.
    pub fn new(cfg: VaeConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let encoder = Mlp::new(&[cfg.input_dim, cfg.hidden], Activation::Silu, &mut rng);
        let mu_head = Mlp::new(&[cfg.hidden, cfg.latent], Activation::Identity, &mut rng);
        let logvar_head = Mlp::new(&[cfg.hidden, cfg.latent], Activation::Identity, &mut rng);
        let decoder = Mlp::new(
            &[cfg.latent, cfg.hidden, cfg.input_dim],
            Activation::Silu,
            &mut rng,
        );
        Self {
            cfg_input_dim: cfg.input_dim,
            cfg_latent: cfg.latent,
            beta: cfg.beta,
            lr: cfg.lr,
            seed: cfg.seed,
            encoder,
            mu_head,
            logvar_head,
            decoder,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.cfg_input_dim
    }

    /// Trains on `1 × input_dim` samples for `epochs` full passes; returns
    /// the per-epoch mean loss.
    ///
    /// The loss program is compiled onto one tape and replayed per sample;
    /// each step draws the reparameterization noise into an input leaf.
    ///
    /// # Panics
    ///
    /// Panics if a sample has the wrong shape or `data` is empty.
    pub fn train(&mut self, data: &[Tensor], epochs: usize) -> Vec<f64> {
        assert!(!data.is_empty(), "no training data");
        for d in data {
            assert_eq!(d.shape(), (1, self.cfg_input_dim), "bad sample shape");
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x5eed);
        let mut t = Tape::new();
        let x = t.input(1, self.cfg_input_dim);
        let eps = t.input(1, self.cfg_latent);
        let enc = self.encoder.bind_tape(&mut t);
        let mu_h = self.mu_head.bind_tape(&mut t);
        let lv_h = self.logvar_head.bind_tape(&mut t);
        let dec = self.decoder.bind_tape(&mut t);
        let h = enc.forward(&mut t, x);
        let h = t.activation(h, Act::Silu);
        let mu = mu_h.forward(&mut t, h);
        let logvar = lv_h.forward(&mut t, h);
        // z = mu + eps * exp(0.5 logvar)
        let half_lv = t.scale(logvar, 0.5);
        let std = t.exp(half_lv);
        let noise = t.mul(eps, std);
        let z = t.add(mu, noise);
        let logits = dec.forward(&mut t, z);
        let recon = t.activation(logits, Act::Sigmoid);
        let rec_loss = t.mse(recon, x);
        // KL(q || N(0,1)) = -0.5 Σ (1 + logvar - mu² - exp(logvar))
        let mu2 = t.square(mu);
        let elv = t.exp(logvar);
        let inner = t.sub(logvar, mu2);
        let inner = t.sub(inner, elv);
        let ssum = t.sum(inner);
        let kl_core = t.scale(ssum, -0.5);
        let kl = t.scale(kl_core, self.beta);
        let loss = t.add(rec_loss, kl);
        let params: Vec<Var> = enc
            .params()
            .into_iter()
            .chain(mu_h.params())
            .chain(lv_h.params())
            .chain(dec.params())
            .collect();
        t.seal(Some(loss), &params);
        let mut opt = TapeAdam::new(
            params,
            AdamConfig {
                lr: self.lr,
                ..AdamConfig::default()
            },
            &t,
        );
        let latent_bias = -0.5 * self.cfg_latent as f64;
        let mut losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut epoch_loss = 0.0;
            for sample in data {
                t.set_value(x, sample.data());
                t.set_value(eps, Tensor::randn(1, self.cfg_latent, &mut rng).data());
                t.forward();
                t.backward();
                epoch_loss += t.value(loss)[0] + self.beta * latent_bias;
                opt.step(&mut t);
            }
            losses.push(epoch_loss / data.len() as f64);
        }
        self.encoder.sync_from_tape(&t, &enc);
        self.mu_head.sync_from_tape(&t, &mu_h);
        self.logvar_head.sync_from_tape(&t, &lv_h);
        self.decoder.sync_from_tape(&t, &dec);
        losses
    }

    /// Deterministic reconstruction (decodes the posterior mean).
    ///
    /// # Panics
    ///
    /// Panics on a wrong input shape.
    pub fn reconstruct(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape(), (1, self.cfg_input_dim), "bad input shape");
        let mut t = Tape::new();
        let xin = t.leaf(x.data(), 1, self.cfg_input_dim);
        let enc = self.encoder.bind_tape(&mut t);
        let mu_h = self.mu_head.bind_tape(&mut t);
        let dec = self.decoder.bind_tape(&mut t);
        let h = enc.forward(&mut t, xin);
        let h = t.activation(h, Act::Silu);
        let mu = mu_h.forward(&mut t, h);
        let logits = dec.forward(&mut t, mu);
        let out = t.activation(logits, Act::Sigmoid);
        t.seal(None, &[]);
        t.forward();
        Tensor::from_vec(t.value(out).to_vec(), 1, self.cfg_input_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adam, Graph};

    fn patterned_data(n: usize, dim: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| {
                let data: Vec<f64> = (0..dim)
                    .map(|j| if (i + j) % 2 == 0 { 0.9 } else { 0.1 })
                    .collect();
                Tensor::from_vec(data, 1, dim)
            })
            .collect()
    }

    #[test]
    fn training_reduces_loss() {
        let cfg = VaeConfig {
            input_dim: 16,
            hidden: 32,
            latent: 4,
            ..VaeConfig::default()
        };
        let mut vae = Vae::new(cfg);
        let data = patterned_data(6, 16);
        let losses = vae.train(&data, 80);
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.8),
            "{} -> {}",
            losses[0],
            losses.last().unwrap()
        );
    }

    #[test]
    fn reconstruction_in_unit_range() {
        let cfg = VaeConfig {
            input_dim: 8,
            hidden: 16,
            latent: 2,
            ..VaeConfig::default()
        };
        let mut vae = Vae::new(cfg);
        let data = patterned_data(4, 8);
        vae.train(&data, 30);
        let out = vae.reconstruct(&data[0]);
        assert!(out.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    /// The scalar-`Graph` training loop the tape replaced, kept verbatim
    /// (shape checks aside) as the reference for [`Vae::train`].
    fn train_reference(vae: &mut Vae, data: &[Tensor], epochs: usize) -> Vec<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(vae.seed ^ 0x5eed);
        let mut g = Graph::new();
        let enc = vae.encoder.bind(&mut g);
        let mu_h = vae.mu_head.bind(&mut g);
        let lv_h = vae.logvar_head.bind(&mut g);
        let dec = vae.decoder.bind(&mut g);
        let params: Vec<_> = enc
            .params()
            .into_iter()
            .chain(mu_h.params())
            .chain(lv_h.params())
            .chain(dec.params())
            .collect();
        let mut opt = Adam::new(
            params,
            AdamConfig {
                lr: vae.lr,
                ..AdamConfig::default()
            },
            &g,
        );
        let mut losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut epoch_loss = 0.0;
            for sample in data {
                g.reset();
                let x = g.input(sample.clone());
                let h = enc.forward(&mut g, x);
                let h = Activation::Silu.apply(&mut g, h);
                let mu = mu_h.forward(&mut g, h);
                let logvar = lv_h.forward(&mut g, h);
                // z = mu + eps * exp(0.5 logvar)
                let eps = g.input(Tensor::randn(1, vae.cfg_latent, &mut rng));
                let half_lv = g.scale(logvar, 0.5);
                let std = g.exp(half_lv);
                let noise = g.mul(eps, std);
                let z = g.add(mu, noise);
                let logits = dec.forward(&mut g, z);
                let recon = g.sigmoid(logits);
                let rec_loss = g.mse(recon, x);
                // KL(q || N(0,1)) = -0.5 Σ (1 + logvar - mu² - exp(logvar))
                let mu2 = g.square(mu);
                let elv = g.exp(logvar);
                let inner = g.sub(logvar, mu2);
                let inner = g.sub(inner, elv);
                let ssum = g.sum(inner);
                let kl_core = g.scale(ssum, -0.5);
                let latent_bias = -0.5 * vae.cfg_latent as f64;
                let kl = g.scale(kl_core, vae.beta);
                let loss = g.add(rec_loss, kl);
                g.backward(loss);
                opt.step(&mut g);
                epoch_loss += g.value(loss).get(0, 0) + vae.beta * latent_bias;
            }
            losses.push(epoch_loss / data.len() as f64);
        }
        vae.encoder.sync_from(&g, &enc);
        vae.mu_head.sync_from(&g, &mu_h);
        vae.logvar_head.sync_from(&g, &lv_h);
        vae.decoder.sync_from(&g, &dec);
        losses
    }

    #[test]
    fn training_matches_graph_reference() {
        // A training run compounds per-step deviations through Adam, so it
        // gets the same 1e-8 relative band as the 3DGNN's training parity.
        fn close(a: f64, b: f64, what: &str) {
            assert!(
                (a - b).abs() <= 1e-8 * (1.0 + b.abs()),
                "{what} diverged: {a} vs {b} (|Δ| = {:e})",
                (a - b).abs()
            );
        }
        let cfg = VaeConfig {
            input_dim: 16,
            hidden: 32,
            latent: 4,
            ..VaeConfig::default()
        };
        let data = patterned_data(6, 16);
        let mut tape = Vae::new(cfg.clone());
        let mut reference = Vae::new(cfg);
        let got = tape.train(&data, 10);
        let want = train_reference(&mut reference, &data, 10);
        for (a, b) in got.iter().zip(&want) {
            close(*a, *b, "epoch loss");
        }
        for x in &data {
            let (a, b) = (tape.reconstruct(x), reference.reconstruct(x));
            for (a, b) in a.data().iter().zip(b.data()) {
                close(*a, *b, "trained reconstruction");
            }
        }
    }

    #[test]
    fn reconstruct_matches_graph_forward() {
        // The scalar `Graph` forward of the posterior-mean decode, built
        // from the same trained weights, is the reference for the tape.
        let mut vae = Vae::new(VaeConfig {
            input_dim: 16,
            hidden: 32,
            latent: 4,
            ..VaeConfig::default()
        });
        let data = patterned_data(6, 16);
        vae.train(&data, 20);
        for x in &data {
            let got = vae.reconstruct(x);
            let mut g = Graph::new();
            let enc = vae.encoder.bind_frozen(&mut g);
            let mu_h = vae.mu_head.bind_frozen(&mut g);
            let dec = vae.decoder.bind_frozen(&mut g);
            let xin = g.input(x.clone());
            let h = enc.forward(&mut g, xin);
            let h = Activation::Silu.apply(&mut g, h);
            let mu = mu_h.forward(&mut g, h);
            let logits = dec.forward(&mut g, mu);
            let want = g.sigmoid(logits);
            assert_eq!(got.shape(), g.value(want).shape());
            for (a, b) in got.data().iter().zip(g.value(want).data()) {
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                    "reconstruction diverged: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad sample shape")]
    fn rejects_wrong_shape() {
        let mut vae = Vae::new(VaeConfig {
            input_dim: 8,
            hidden: 16,
            latent: 2,
            ..VaeConfig::default()
        });
        vae.train(&[Tensor::zeros(1, 9)], 1);
    }
}
