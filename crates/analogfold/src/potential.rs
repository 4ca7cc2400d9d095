//! Routing-performance potential modeling and pool-assisted relaxation
//! (paper §4.3).
//!
//! The potential is `V(C) = w_FoM · f_θ(G_H, C) + g(C)` (Eq. 7) with the
//! interior-point barrier of Eq. (8):
//!
//! `g(C_i) = −r Σ_j ( log C_i[j] + log(c_max − C_i[j]) )`
//!
//! Relaxation minimizes `V` with L-BFGS from many random initializations; a
//! pool of the `N_pool` lowest-potential guidance sets is maintained, and
//! once full, a fraction `p_relax` of subsequent restarts is seeded from
//! pool members with added noise. The top `N_derive` results are returned.
//!
//! Restarts execute on the [`afrt`] worker pool in *rounds* of `N_pool`
//! restarts each. The pool snapshot that noisy restarts draw from is only
//! refreshed at round boundaries, and every restart derives its RNG from
//! `afrt::split_seed(cfg.seed, restart_index)` — so results are a function
//! of the config alone and are bit-identical for any worker count.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use af_nn::lbfgs_minimize;

use crate::gnn::{GnnProgram, GraphTensors, ThreeDGnn};
use crate::hetero::HeteroGraph;

/// The default [`Potential::weights`]. Relaxation minimizes this FoM and
/// the flow ranks simulated guidance by it.
pub(crate) const FOM_WEIGHTS: [f64; 5] = [1.0, -1.0, -1.0, -1.0, 1.0];

/// The potential function `V(C)`.
pub struct Potential<'a> {
    gnn: &'a ThreeDGnn,
    tensors: std::sync::Arc<GraphTensors>,
    /// FoM weights on the normalized metric predictions
    /// `[offset, cmrr, bandwidth, gain, noise]`; positive = minimize,
    /// negative = maximize. Defaults to equal weighting, which the paper
    /// found best.
    pub weights: [f64; 5],
    /// Barrier strength `r`.
    pub barrier_r: f64,
    c_min: f64,
    c_max: f64,
}

impl<'a> Potential<'a> {
    /// Builds the potential for one graph and trained model.
    pub fn new(gnn: &'a ThreeDGnn, graph: &HeteroGraph) -> Self {
        let (c_min, c_max) = gnn.guidance_bounds();
        Self {
            gnn,
            tensors: gnn.tensors(graph),
            weights: FOM_WEIGHTS,
            barrier_r: 1e-3,
            c_min,
            c_max,
        }
    }

    /// Dimension of the flattened guidance vector.
    pub fn dim(&self) -> usize {
        self.tensors.guidance_len()
    }

    /// Feasible guidance bounds.
    pub fn bounds(&self) -> (f64, f64) {
        (self.c_min, self.c_max)
    }

    /// Evaluates `V(C)` and `∇V(C)`.
    ///
    /// Outside the feasible region the barrier returns `+∞` with a gradient
    /// pointing back inside.
    ///
    /// Each call compiles a fresh surrogate program; the relaxation loops
    /// hold one [`evaluator`](Self::evaluator), which compiles once and
    /// replays the same tape for every L-BFGS iteration.
    pub fn value_and_grad(&self, c: &[f64]) -> (f64, Vec<f64>) {
        self.evaluator().value_and_grad(c)
    }

    /// Builds a reusable evaluator: the surrogate forward+backward program is
    /// compiled once, and every subsequent [`PotentialEval::value_and_grad`]
    /// call replays the same tape in place — no per-iteration allocation or
    /// graph construction.
    pub fn evaluator(&self) -> PotentialEval<'_, 'a> {
        PotentialEval {
            potential: self,
            program: GnnProgram::compile_fom(self.gnn, &self.tensors, &self.weights),
        }
    }

    /// Adds the interior-point barrier term to a surrogate evaluation.
    fn apply_barrier(&self, fom: f64, mut grad: Vec<f64>, c: &[f64]) -> (f64, Vec<f64>) {
        let mut v = fom;
        for (i, &x) in c.iter().enumerate() {
            let lo = x - self.c_min;
            let hi = self.c_max - x;
            if lo <= 0.0 || hi <= 0.0 {
                return (f64::INFINITY, c.iter().map(|&x| x.signum()).collect());
            }
            v -= self.barrier_r * (lo.ln() + hi.ln());
            grad[i] += self.barrier_r * (1.0 / hi - 1.0 / lo);
        }
        (v, grad)
    }

    /// Clamps a vector strictly inside the feasible region.
    pub fn project(&self, c: &mut [f64]) {
        let eps = (self.c_max - self.c_min) * 1e-3;
        for x in c.iter_mut() {
            *x = x.clamp(self.c_min + eps, self.c_max - eps);
        }
    }
}

/// A reusable `V(C)` evaluator holding one compiled surrogate program.
///
/// Built by [`Potential::evaluator`]. The forward+backward tape is recorded
/// once; every [`value_and_grad`](Self::value_and_grad) call replays it over
/// the same buffers, which is what makes the L-BFGS inner loop of
/// [`relax_seeded`] allocation-free per iteration.
pub struct PotentialEval<'p, 'a> {
    potential: &'p Potential<'a>,
    program: GnnProgram,
}

impl PotentialEval<'_, '_> {
    /// Evaluates `V(C)` and `∇V(C)` by replaying the compiled tape.
    pub fn value_and_grad(&mut self, c: &[f64]) -> (f64, Vec<f64>) {
        // Chaos hook: inject a non-finite evaluation. Disarmed cost is one
        // relaxed atomic load — this is the relaxation hot path.
        if af_fault::enabled() && af_fault::should_fail("relax.value_grad").is_some() {
            return (f64::NAN, vec![0.0; c.len()]);
        }
        let (fom, grad) = self.program.fom_and_grad(c);
        self.potential.apply_barrier(fom, grad, c)
    }

    /// The underlying potential.
    pub fn potential(&self) -> &Potential<'_> {
        self.potential
    }
}

/// Pool-assisted relaxation settings.
#[derive(Debug, Clone)]
pub struct RelaxConfig {
    /// Total restarts.
    pub restarts: usize,
    /// Pool capacity `N_pool`.
    pub pool_size: usize,
    /// Fraction of restarts seeded from the pool once it is full.
    pub p_relax: f64,
    /// Standard deviation of the noise added to pool seeds.
    pub noise_sigma: f64,
    /// Results to derive (`N_derive`).
    pub n_derive: usize,
    /// L-BFGS iterations per restart.
    pub lbfgs_iters: usize,
    /// L-BFGS memory.
    pub lbfgs_memory: usize,
    /// Minimum mean per-component distance between derived candidates; the
    /// top-`n_derive` selection skips near-duplicates so the downstream
    /// route-and-evaluate step sees genuinely different guidance fields.
    pub diversity_tol: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the restart fan-out; `0` resolves through
    /// `AFRT_THREADS`, then hardware parallelism. Any value yields
    /// bit-identical results.
    pub threads: usize,
}

impl Default for RelaxConfig {
    fn default() -> Self {
        Self {
            restarts: 24,
            pool_size: 10,
            p_relax: 0.5,
            noise_sigma: 0.25,
            n_derive: 3,
            lbfgs_iters: 30,
            lbfgs_memory: 8,
            diversity_tol: 0.05,
            seed: 99,
            threads: 0,
        }
    }
}

/// One relaxed guidance candidate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RelaxOutcome {
    /// The guidance vector.
    pub guidance: Vec<f64>,
    /// Its potential value.
    pub potential: f64,
}

/// Runs pool-assisted potential relaxation; returns the top `n_derive`
/// lowest-potential guidance sets, best first.
///
/// # Panics
///
/// Panics if the potential has zero dimension.
pub fn relax(potential: &Potential<'_>, cfg: &RelaxConfig) -> Vec<RelaxOutcome> {
    relax_seeded(potential, cfg, &[])
}

/// [`relax`] with warm starts: each seed (e.g. the best-performing guidance
/// assignments observed while generating the training set) is refined by
/// L-BFGS and inserted into the pool before the random restarts begin.
///
/// # Panics
///
/// Panics if the potential has zero dimension or a seed has the wrong
/// length.
pub fn relax_seeded(
    potential: &Potential<'_>,
    cfg: &RelaxConfig,
    seeds: &[Vec<f64>],
) -> Vec<RelaxOutcome> {
    let _relax = af_obs::span!("relax");
    let dim = potential.dim();
    assert!(dim > 0, "no guided access points to relax");
    for s in seeds {
        assert_eq!(s.len(), dim, "seed length mismatch");
    }
    let (c_min, c_max) = potential.bounds();
    let runtime = afrt::Runtime::with_threads(cfg.threads);
    let mut pool: Vec<RelaxOutcome> = Vec::new();

    // Warm starts: refine every provided seed concurrently. Keep the raw
    // seed itself in the pool too: L-BFGS refines it under the *surrogate*,
    // which may lose what the simulator liked about it.
    if !seeds.is_empty() {
        let refined = runtime
            .par_map(seeds, |_, s| {
                // One compiled program serves every L-BFGS iteration of the
                // refinement, whose first evaluation is the seed's own
                // potential.
                let mut eval = potential.evaluator();
                let mut x0 = s.clone();
                potential.project(&mut x0);
                let (v0, opt) = minimize_one(&mut eval, &x0, cfg);
                let raw = v0.is_finite().then_some(RelaxOutcome {
                    guidance: x0,
                    potential: v0,
                });
                (raw, opt)
            })
            .unwrap_or_else(|e| panic!("relaxation warm-start failed: {e}"));
        for (raw, opt) in refined {
            // Non-finite evaluations never enter the pool; seeds are data
            // (not random draws), so a bad one is dropped, not re-drawn.
            if raw.is_none() || opt.is_none() {
                af_obs::counter("relax.nonfinite_restarts", 1);
            }
            pool.extend(raw);
            pool.extend(opt);
        }
        merge_pool(&mut pool, cfg);
    }

    // Random restarts in rounds of `N_pool`. Each round snapshots the pool;
    // every restart inside the round derives its initialization purely from
    // `(cfg.seed, restart_index)` and that snapshot, so scheduling order is
    // irrelevant to the result.
    let round_len = cfg.pool_size.max(1);
    let mut next_restart = 0usize;
    while next_restart < cfg.restarts {
        let round: Vec<usize> =
            (next_restart..cfg.restarts.min(next_restart + round_len)).collect();
        next_restart += round.len();
        let snapshot = &pool;
        let results = runtime
            .par_map(&round, |_, &restart| {
                let _s = af_obs::span!("restart", restart);
                // A restart whose descent lands on a non-finite potential
                // (NaN from an unlucky surrogate evaluation, or injected by
                // the `relax.nonfinite` failpoint) is *re-initialized* from
                // a fresh deterministic draw rather than admitted to the
                // pool or discarded outright — the paper's relaxation
                // depends on many noisy restarts surviving bad
                // initializations. Attempt 0 reproduces the historical
                // draw exactly, so fault-free runs are bit-identical to
                // before; re-draw seeds chain through `(seed, restart,
                // attempt)` so recovery is deterministic too.
                const REINIT_SALT: u64 = 0x6e6f_6e66_696e_6974; // "nonfinit"
                const MAX_ATTEMPTS: u64 = 4;
                // Compile the surrogate program once per restart; all
                // attempts and every L-BFGS iteration replay the same tape.
                let mut eval = potential.evaluator();
                let mut rng = ChaCha8Rng::seed_from_u64(afrt::split_seed(cfg.seed, restart as u64));
                let mut outcome: Option<RelaxOutcome> = None;
                for attempt in 0..MAX_ATTEMPTS {
                    let mut x0: Vec<f64> = if attempt > 0 {
                        let mut redraw = ChaCha8Rng::seed_from_u64(afrt::split_seed(
                            cfg.seed ^ REINIT_SALT,
                            af_fault::mix(restart as u64, attempt),
                        ));
                        (0..dim)
                            .map(|_| redraw.gen_range(c_min + 0.05..c_max - 0.05))
                            .collect()
                    } else if snapshot.len() >= cfg.pool_size && rng.gen::<f64>() < cfg.p_relax {
                        // Noisy restart from a pool member (the paper's
                        // `p_relax · N_pool` re-initializations).
                        let pick = rng.gen_range(0..snapshot.len());
                        snapshot[pick]
                            .guidance
                            .iter()
                            .map(|&v| v + cfg.noise_sigma * normal(&mut rng))
                            .collect()
                    } else {
                        (0..dim)
                            .map(|_| rng.gen_range(c_min + 0.05..c_max - 0.05))
                            .collect()
                    };
                    potential.project(&mut x0);
                    let injected = af_fault::should_fail_keyed(
                        "relax.nonfinite",
                        af_fault::mix(restart as u64, attempt),
                    )
                    .is_some();
                    outcome = if injected {
                        None
                    } else {
                        minimize_one(&mut eval, &x0, cfg).1
                    };
                    if outcome.is_some() {
                        break;
                    }
                    af_obs::counter("relax.nonfinite_restarts", 1);
                }
                outcome
            })
            .unwrap_or_else(|e| panic!("relaxation restart failed: {e}"));
        pool.extend(results.into_iter().flatten());
        merge_pool(&mut pool, cfg);
    }

    // Diversity-aware top-N: greedily take the lowest-potential candidates
    // that differ from everything already selected by at least the
    // tolerance; fall back to duplicates only if the pool is too uniform.
    let mut selected: Vec<RelaxOutcome> = Vec::new();
    for cand in &pool {
        if selected.len() >= cfg.n_derive {
            break;
        }
        let distinct = selected.iter().all(|s| {
            let mean_diff: f64 = s
                .guidance
                .iter()
                .zip(&cand.guidance)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / s.guidance.len() as f64;
            mean_diff >= cfg.diversity_tol
        });
        if distinct {
            selected.push(cand.clone());
        }
    }
    for cand in &pool {
        if selected.len() >= cfg.n_derive {
            break;
        }
        if !selected.iter().any(|s| s.guidance == cand.guidance) {
            selected.push(cand.clone());
        }
    }
    selected
}

/// One L-BFGS descent from `x0`, projected back into the feasible region.
/// Returns the potential at `x0` (the descent's first evaluation) and the
/// descent's result: `None` when it produced a non-finite potential or
/// guidance — such results must never become pool entries, because the
/// pool sort and the noisy pool-seeded restarts would both be poisoned.
///
/// Every evaluation replays the caller's compiled tape, so the inner loop
/// allocates nothing per step. No point is evaluated twice: L-BFGS reports
/// the value at its final point, and only a point that [`Potential::project`]
/// moved is evaluated afresh.
fn minimize_one(
    eval: &mut PotentialEval<'_, '_>,
    x0: &[f64],
    cfg: &RelaxConfig,
) -> (f64, Option<RelaxOutcome>) {
    let mut v0 = None;
    let result = lbfgs_minimize(
        |x| {
            let (v, grad) = eval.value_and_grad(x);
            v0.get_or_insert(v);
            (v, grad)
        },
        x0,
        cfg.lbfgs_iters,
        cfg.lbfgs_memory,
        1e-8,
    );
    let v0 = v0.expect("L-BFGS evaluates its starting point");
    af_obs::counter("relax.lbfgs_iters", result.iterations as u64);
    if result.converged {
        af_obs::counter("relax.lbfgs_converged", 1);
    }
    let mut guidance = result.x.clone();
    eval.potential().project(&mut guidance);
    let unmoved = guidance
        .iter()
        .zip(&result.x)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    let v = if unmoved {
        result.f
    } else {
        eval.value_and_grad(&guidance).0
    };
    if !v.is_finite() || guidance.iter().any(|g| !g.is_finite()) {
        return (v0, None);
    }
    af_obs::hist("relax.potential_final", v);
    (
        v0,
        Some(RelaxOutcome {
            guidance,
            potential: v,
        }),
    )
}

/// Sorts the pool best-first and bounds its size. `sort_by` is stable and
/// the insertion order is deterministic, so ties resolve identically on
/// every run and thread count.
fn merge_pool(pool: &mut Vec<RelaxOutcome>, cfg: &RelaxConfig) {
    pool.sort_by(|a, b| {
        a.potential
            .partial_cmp(&b.potential)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    pool.truncate((cfg.pool_size.max(cfg.n_derive)) * 2);
}

/// Standard normal via Box–Muller.
fn normal(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gnn::GnnConfig;
    use af_netlist::benchmarks;
    use af_place::{place, PlacementVariant};
    use af_tech::Technology;

    fn setup() -> (HeteroGraph, ThreeDGnn) {
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let graph = HeteroGraph::build(&c, &p, &Technology::nm40(), 2);
        let gnn = ThreeDGnn::new(&GnnConfig {
            hidden: 8,
            layers: 1,
            ..GnnConfig::default()
        });
        (graph, gnn)
    }

    #[test]
    fn barrier_repels_boundaries() {
        let (graph, gnn) = setup();
        let mut pot = Potential::new(&gnn, &graph);
        // isolate the barrier from the (untrained) FoM term
        pot.weights = [0.0; 5];
        pot.barrier_r = 1e-3;
        let dim = pot.dim();
        let (v_mid, _) = pot.value_and_grad(&vec![1.0; dim]);
        let (v_edge, _) = pot.value_and_grad(&vec![pot.bounds().0 + 1e-9; dim]);
        assert!(v_edge > v_mid, "barrier must grow near the boundary");
        let (v_out, _) = pot.value_and_grad(&vec![-1.0; dim]);
        assert!(v_out.is_infinite());
    }

    #[test]
    fn project_clamps_inside() {
        let (graph, gnn) = setup();
        let pot = Potential::new(&gnn, &graph);
        let (lo, hi) = pot.bounds();
        let mut c = vec![-5.0, 10.0, 1.0];
        pot.project(&mut c);
        assert!(c.iter().all(|&x| x > lo && x < hi));
        assert!((c[2] - 1.0).abs() < 1e-12, "interior points untouched");
    }

    #[test]
    fn relaxation_improves_potential() {
        let (graph, gnn) = setup();
        let pot = Potential::new(&gnn, &graph);
        let dim = pot.dim();
        let (v_init, _) = pot.value_and_grad(&vec![1.0; dim]);
        let cfg = RelaxConfig {
            restarts: 6,
            pool_size: 3,
            n_derive: 2,
            lbfgs_iters: 15,
            ..RelaxConfig::default()
        };
        let out = relax(&pot, &cfg);
        assert_eq!(out.len(), 2);
        assert!(out[0].potential <= out[1].potential, "sorted best-first");
        // diversity: the two derived candidates are not near-duplicates
        let mean_diff: f64 = out[0]
            .guidance
            .iter()
            .zip(&out[1].guidance)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / out[0].guidance.len() as f64;
        assert!(mean_diff > 1e-6, "candidates should differ: {mean_diff}");
        assert!(
            out[0].potential <= v_init,
            "relaxed {} vs neutral {}",
            out[0].potential,
            v_init
        );
        // results stay feasible
        let (lo, hi) = pot.bounds();
        for o in &out {
            assert!(o.guidance.iter().all(|&x| x > lo && x < hi));
        }
    }

    #[test]
    fn pooled_potentials_match_fresh_evaluations() {
        // Relaxation reuses L-BFGS's own evaluations for the seed probes and
        // the final checks; each reported potential must still be the bits a
        // fresh evaluation gives.
        let (graph, gnn) = setup();
        let pot = Potential::new(&gnn, &graph);
        let dim = pot.dim();
        let cfg = RelaxConfig {
            restarts: 4,
            pool_size: 2,
            n_derive: 4,
            lbfgs_iters: 10,
            diversity_tol: 0.0,
            ..RelaxConfig::default()
        };
        // Seeds inside the box and beyond its upper edge.
        let seeds: Vec<Vec<f64>> = [0.7, 9.0, 1.3].iter().map(|&v| vec![v; dim]).collect();
        let out = relax_seeded(&pot, &cfg, &seeds);
        assert_eq!(out.len(), 4);
        for o in &out {
            let (fresh, _) = pot.value_and_grad(&o.guidance);
            assert_eq!(o.potential.to_bits(), fresh.to_bits());
        }
    }

    #[test]
    fn evaluator_matches_value_and_grad_bitwise() {
        let (graph, gnn) = setup();
        let pot = Potential::new(&gnn, &graph);
        let mut eval = pot.evaluator();
        let dim = pot.dim();
        for k in 0..3usize {
            let c: Vec<f64> = (0..dim).map(|i| 0.5 + 0.1 * ((i + k) % 7) as f64).collect();
            let (v1, g1) = pot.value_and_grad(&c);
            let (v2, g2) = eval.value_and_grad(&c);
            assert_eq!(v1.to_bits(), v2.to_bits(), "value diverged at probe {k}");
            assert_eq!(g1.len(), g2.len());
            for (a, b) in g1.iter().zip(&g2) {
                assert_eq!(a.to_bits(), b.to_bits(), "gradient diverged at probe {k}");
            }
        }
        // Infeasible input: same infinite-barrier answer through the tape.
        let c_bad = vec![-1.0; dim];
        let (v1, g1) = pot.value_and_grad(&c_bad);
        let (v2, g2) = eval.value_and_grad(&c_bad);
        assert!(v1.is_infinite() && v2.is_infinite());
        assert_eq!(g1, g2);
    }

    #[test]
    fn relaxation_is_deterministic() {
        let (graph, gnn) = setup();
        let pot = Potential::new(&gnn, &graph);
        let cfg = RelaxConfig {
            restarts: 4,
            lbfgs_iters: 10,
            ..RelaxConfig::default()
        };
        let a = relax(&pot, &cfg);
        let b = relax(&pot, &cfg);
        assert_eq!(a[0].guidance, b[0].guidance);
    }
}
