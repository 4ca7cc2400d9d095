//! The resident model state: circuit, placement, heterogeneous graph, and
//! trained GNN — plus the [`ModelSlot`] that lets the resident model be
//! hot-swapped without dropping a request.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use af_model::{CanaryReport, CanaryStats};
use af_netlist::{benchmarks, Circuit};
use af_place::{place, Placement, PlacementVariant};
use af_tech::Technology;
use analogfold::{GnnProgram, HeteroGraph, ThreeDGnn};

use crate::ServeError;

/// Everything the endpoints need, built once. Handlers hold it behind an
/// `Arc` and never mutate it; per-thread mutable state (tape buffers for
/// inference) lives in the [`GnnProgram`]s created from it.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    /// Benchmark circuit.
    pub circuit: Circuit,
    /// Placement variant.
    pub variant: PlacementVariant,
    /// Deterministic placement of `circuit` under `variant`.
    pub placement: Placement,
    /// Technology stack.
    pub tech: Technology,
    /// Heterogeneous routing graph (access points + modules).
    pub graph: HeteroGraph,
    /// The resident surrogate model.
    pub gnn: ThreeDGnn,
    /// Canonical 128-bit content hash of the resident model (32 hex chars),
    /// surfaced on `/healthz` so a fleet coordinator can detect version
    /// skew: two workers answering for the same circuit but serving
    /// different weights.
    pub model_hash: String,
}

impl ModelBundle {
    /// Builds the bundle around an already-constructed model (used by tests
    /// and the load generator, which serve untrained models — serving
    /// semantics do not depend on training quality).
    pub fn with_model(
        bench: &str,
        variant_label: &str,
        gnn: ThreeDGnn,
    ) -> Result<Self, ServeError> {
        let circuit = benchmarks::by_name(bench)
            .ok_or_else(|| ServeError::Config(format!("unknown benchmark `{bench}`")))?;
        let variant = PlacementVariant::from_label(variant_label).ok_or_else(|| {
            ServeError::Config(format!("unknown placement variant `{variant_label}`"))
        })?;
        let tech = Technology::nm40();
        let placement = place(&circuit, variant);
        let graph = HeteroGraph::build(&circuit, &placement, &tech, 3);
        let model_hash = analogfold::content_hash_of(&gnn).to_hex();
        Ok(Self {
            circuit,
            variant,
            placement,
            tech,
            graph,
            gnn,
            model_hash,
        })
    }

    /// Loads a saved model (validating its versioned header) and builds the
    /// bundle around it.
    pub fn load(bench: &str, variant_label: &str, model_path: &str) -> Result<Self, ServeError> {
        let gnn = ThreeDGnn::load(model_path).map_err(analogfold::Error::from)?;
        Self::with_model(bench, variant_label, gnn)
    }

    /// A fresh inference session bound to this bundle's graph.
    #[must_use]
    pub fn session(&self) -> GnnProgram {
        self.gnn.session(&self.graph)
    }

    /// Expected guidance vector length (3 per guided access point).
    #[must_use]
    pub fn guidance_len(&self) -> usize {
        self.graph.guided_ap_indices().len() * 3
    }
}

/// The hot-swappable model slot. Readers take a cheap `Arc` snapshot and
/// keep using it for the duration of one request/job, so a swap never
/// tears work in progress: in-flight requests finish on the model they
/// started on, and only *new* work observes the replacement. The epoch
/// counter lets a serve handler detect a swap before each prediction, and
/// recompile its program, without taking the lock.
#[derive(Debug)]
pub struct ModelSlot {
    bundle: RwLock<Arc<ModelBundle>>,
    epoch: AtomicU64,
}

impl ModelSlot {
    /// Wraps the startup bundle as epoch 0.
    #[must_use]
    pub fn new(bundle: ModelBundle) -> Self {
        Self {
            bundle: RwLock::new(Arc::new(bundle)),
            epoch: AtomicU64::new(0),
        }
    }

    /// Snapshot of the resident bundle. Hold the `Arc`, not the slot, for
    /// the duration of the work.
    #[must_use]
    pub fn get(&self) -> Arc<ModelBundle> {
        Arc::clone(
            &self
                .bundle
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Swap generation; bumps on every [`swap`](Self::swap).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Replaces the resident bundle, returning the displaced one. The
    /// epoch bump is ordered after the pointer store, so an observer that
    /// sees the new epoch is guaranteed to read the new bundle.
    pub fn swap(&self, bundle: ModelBundle) -> Arc<ModelBundle> {
        let next = Arc::new(bundle);
        let old = {
            let mut slot = self
                .bundle
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::replace(&mut *slot, next)
        };
        self.epoch.fetch_add(1, Ordering::SeqCst);
        af_obs::counter("model.swap.total", 1);
        old
    }
}

/// Shadow-evaluation state for the current candidate, shared between the
/// job workers (which score completed routes) and the promote endpoint
/// (which reads the verdict). Empty when no candidate is under canary.
#[derive(Debug, Default)]
pub struct CanaryCtl {
    inner: Mutex<Option<CanaryArm>>,
}

#[derive(Debug)]
struct CanaryArm {
    candidate: Arc<ModelBundle>,
    stats: CanaryStats,
}

impl CanaryCtl {
    /// Installs (or replaces) the candidate under evaluation. Stats reset
    /// when the candidate's hash changes; re-installing the same candidate
    /// keeps the accumulated evidence.
    pub fn set_candidate(&self, candidate: Arc<ModelBundle>) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match inner.as_mut() {
            Some(arm) if arm.candidate.model_hash == candidate.model_hash => {}
            _ => {
                *inner = Some(CanaryArm {
                    candidate,
                    stats: CanaryStats::default(),
                });
            }
        }
    }

    /// Drops the candidate (it was promoted, superseded, or withdrawn).
    pub fn clear(&self) {
        *self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    }

    /// The candidate under evaluation, if any.
    #[must_use]
    pub fn candidate(&self) -> Option<Arc<ModelBundle>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
            .map(|arm| Arc::clone(&arm.candidate))
    }

    /// Folds one scored job into the candidate's stats (no-op when the
    /// scoring raced a candidate change).
    pub fn observe(&self, candidate_hash: &str, incumbent_err: f64, candidate_err: f64) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(arm) = inner.as_mut() {
            if arm.candidate.model_hash == candidate_hash {
                arm.stats.observe(incumbent_err, candidate_err);
                af_obs::counter("canary.evaluations", 1);
            }
        }
    }

    /// Point-in-time verdict for the candidate at `tolerance`.
    #[must_use]
    pub fn report(&self, tolerance: f64) -> Option<(String, CanaryReport)> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
            .map(|arm| {
                (
                    arm.candidate.model_hash.clone(),
                    arm.stats.report(tolerance),
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analogfold::GnnConfig;

    #[test]
    fn slot_swap_bumps_epoch_and_preserves_old_snapshots() {
        let a = ModelBundle::with_model(
            "OTA1",
            "A",
            ThreeDGnn::new(&GnnConfig {
                hidden: 8,
                layers: 1,
                seed: 1,
                ..GnnConfig::default()
            }),
        )
        .unwrap();
        let b = ModelBundle::with_model(
            "OTA1",
            "A",
            ThreeDGnn::new(&GnnConfig {
                hidden: 8,
                layers: 1,
                seed: 2,
                ..GnnConfig::default()
            }),
        )
        .unwrap();
        let (hash_a, hash_b) = (a.model_hash.clone(), b.model_hash.clone());
        assert_ne!(hash_a, hash_b);

        let slot = ModelSlot::new(a);
        let snapshot = slot.get();
        assert_eq!(slot.epoch(), 0);
        let old = slot.swap(b);
        assert_eq!(slot.epoch(), 1);
        assert_eq!(old.model_hash, hash_a);
        // The pre-swap snapshot still serves the old model.
        assert_eq!(snapshot.model_hash, hash_a);
        assert_eq!(slot.get().model_hash, hash_b);
    }

    #[test]
    fn with_model_builds_and_rejects_unknown_names() {
        let gnn = ThreeDGnn::new(&GnnConfig {
            hidden: 8,
            layers: 1,
            ..GnnConfig::default()
        });
        let bundle = ModelBundle::with_model("OTA1", "A", gnn.clone()).unwrap();
        assert!(bundle.guidance_len() > 0);
        assert_eq!(bundle.guidance_len(), bundle.session().guidance_len());
        assert!(matches!(
            ModelBundle::with_model("OTA99", "A", gnn.clone()),
            Err(ServeError::Config(_))
        ));
        assert!(matches!(
            ModelBundle::with_model("OTA1", "Z", gnn),
            Err(ServeError::Config(_))
        ));
    }
}
