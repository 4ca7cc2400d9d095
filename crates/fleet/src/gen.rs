//! The worker side of distributed dataset generation: turn a [`GenSpec`]
//! into concrete design + config objects, then lease shards from the
//! coordinator until the job is done.
//!
//! The determinism contract does the heavy lifting here. A shard's
//! contents are a pure function of `(spec, shard_index)` — every sample is
//! seeded by `afrt::split_seed(spec.seed, sample_index)` — so workers
//! never coordinate beyond "who computes which shard". A worker killed
//! mid-shard needs no cleanup: its lease expires, another worker computes
//! the same bits, and the checkpoint store's atomic shard writes make the
//! last writer irrelevant.

use std::thread;
use std::time::Duration;

use analogfold::{
    generate_shard, shard_is_complete, DatasetConfig, HeteroGraph, SampleRecord, ShardStore,
};
use serde::Serialize;

use crate::client::{post_json, WorkerAgent};
use crate::protocol::{CompleteRequest, CompleteResponse, GenSpec, LeaseRequest, LeaseResponse};
use crate::FleetError;

/// k-NN neighborhood used when building the hetero graph for gen jobs.
/// Fixed fleet-wide: coordinator (checkpoint validation) and every worker
/// must agree or shard completeness checks would disagree.
pub const GEN_KNN: usize = 3;

/// How long an idle worker waits before re-asking for a lease when all
/// remaining shards are held by other workers.
const LEASE_POLL: Duration = Duration::from_millis(100);

/// Builds the [`DatasetConfig`] a [`GenSpec`] describes. Fields the spec
/// does not carry (router, simulator, retry policy) take workspace
/// defaults — identical on coordinator and workers by
/// construction, which the bit-identity contract requires.
///
/// # Errors
///
/// Degenerate specs (zero samples or shard size, inverted bounds).
pub fn spec_config(spec: &GenSpec) -> Result<DatasetConfig, FleetError> {
    if spec.samples == 0 {
        return Err(FleetError::Config("gen spec has zero samples".to_string()));
    }
    if spec.shard_size == 0 {
        return Err(FleetError::Config(
            "gen spec has zero shard size".to_string(),
        ));
    }
    if !(spec.c_low > 0.0 && spec.c_high >= spec.c_low) {
        return Err(FleetError::Config(format!(
            "bad guidance bounds [{}, {}]",
            spec.c_low, spec.c_high
        )));
    }
    Ok(DatasetConfig {
        samples: spec.samples as usize,
        seed: spec.seed,
        c_low: spec.c_low,
        c_high: spec.c_high,
        threads: spec.threads as usize,
        shard_size: spec.shard_size as usize,
        ..DatasetConfig::default()
    })
}

/// The concrete design a [`GenSpec`] names.
pub struct GenDesign {
    /// Benchmark circuit.
    pub circuit: af_netlist::Circuit,
    /// Deterministic placement of the requested variant.
    pub placement: af_place::Placement,
    /// Technology parameters.
    pub tech: af_tech::Technology,
    /// Hetero graph over the placed circuit ([`GEN_KNN`] neighborhood).
    pub graph: HeteroGraph,
}

/// Resolves a spec's `bench`/`variant` coordinates into the design
/// objects shard evaluation needs.
///
/// # Errors
///
/// Unknown benchmark or placement-variant names.
pub fn spec_design(spec: &GenSpec) -> Result<GenDesign, FleetError> {
    let circuit = af_netlist::benchmarks::by_name(&spec.bench)
        .ok_or_else(|| FleetError::Config(format!("unknown benchmark `{}`", spec.bench)))?;
    let variant = af_place::PlacementVariant::from_label(&spec.variant).ok_or_else(|| {
        FleetError::Config(format!("unknown placement variant `{}`", spec.variant))
    })?;
    let tech = af_tech::Technology::nm40();
    let placement = af_place::place(&circuit, variant);
    let graph = HeteroGraph::build(&circuit, &placement, &tech, GEN_KNN);
    Ok(GenDesign {
        circuit,
        placement,
        tech,
        graph,
    })
}

/// What one worker did over a gen job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct GenSummary {
    /// Shards this worker computed and persisted.
    pub shards_computed: u64,
    /// Leased shards that were already complete on disk (another worker's
    /// write, or a previous run) and only needed a completion report.
    pub shards_skipped: u64,
    /// Samples across computed shards.
    pub samples: u64,
}

/// Runs the gen-worker loop against `coordinator` as worker `id`: lease a
/// shard, compute it (or recognize it complete on disk), persist, report,
/// repeat until the coordinator says the job is done. Pass the worker's
/// [`WorkerAgent`] so heartbeats renew the active shard's lease during
/// long computations.
///
/// The `fleet.worker_kill` failpoint (keyed by shard index) sits between
/// lease and computation — arming it with `err` makes the worker die
/// silently mid-job (lease expiry heals), `abort` kills the process.
///
/// # Errors
///
/// Transport failures to the coordinator, invalid specs, persistence
/// failures, and the injected kill.
pub fn run_gen_worker(
    coordinator: &str,
    id: &str,
    agent: Option<&WorkerAgent>,
) -> Result<GenSummary, FleetError> {
    let mut summary = GenSummary::default();
    // The spec is constant across one job; design/config build lazily on
    // the first lease and are reused for every subsequent shard.
    let mut prepared: Option<(GenSpec, GenDesign, DatasetConfig, ShardStore)> = None;
    // The agent registers on its own thread, so the first lease request
    // can legitimately race registration and bounce with 403. Wait the
    // registration out rather than dying; the budget keeps a worker whose
    // registration was *rejected* (not merely pending) from spinning.
    let mut unregistered_budget = 100u32;
    loop {
        let lease: LeaseResponse = match post_json(
            coordinator,
            "/fleet/lease",
            &LeaseRequest { id: id.to_string() },
        ) {
            Ok(resp) => resp,
            Err(FleetError::Status(403, _)) if unregistered_budget > 0 => {
                unregistered_budget -= 1;
                thread::sleep(LEASE_POLL);
                continue;
            }
            Err(e) => return Err(e),
        };
        unregistered_budget = 100;
        if lease.done {
            af_obs::counter("fleet.gen.worker_done", 1);
            return Ok(summary);
        }
        let Some(shard) = lease.shard else {
            // Remaining shards are all under live leases elsewhere; one of
            // them may yet expire back to us, so keep polling.
            thread::sleep(LEASE_POLL);
            continue;
        };
        let spec = lease
            .spec
            .ok_or_else(|| FleetError::Protocol("lease grant without a job spec".to_string()))?;
        if prepared.as_ref().is_none_or(|(s, ..)| *s != spec) {
            let design = spec_design(&spec)?;
            let cfg = spec_config(&spec)?;
            let store = ShardStore::new(&spec.checkpoint);
            prepared = Some((spec, design, cfg, store));
        }
        let (_, design, cfg, store) = prepared.as_ref().expect("prepared above");

        af_fault::fail!(
            "fleet.worker_kill",
            key = shard,
            FleetError::Config(format!("injected worker kill on shard {shard}"))
        );

        if let Some(a) = agent {
            a.set_active_shard(Some(shard));
        }
        let outcome = compute_shard(design, cfg, store, shard as usize);
        if let Some(a) = agent {
            a.set_active_shard(None);
        }
        let report = CompleteRequest {
            id: id.to_string(),
            shard,
            ok: outcome.is_ok(),
            error: outcome.as_ref().err().map(ToString::to_string),
        };
        let _: CompleteResponse = post_json(coordinator, "/fleet/complete", &report)?;
        match outcome {
            Ok(Computed(n)) => {
                summary.shards_computed += 1;
                summary.samples += n;
            }
            Ok(Skipped) => summary.shards_skipped += 1,
            Err(e) => {
                af_obs::warn(&format!("worker {id} failed shard {shard}: {e}"));
            }
        }
    }
}

use ShardOutcome::{Computed, Skipped};

enum ShardOutcome {
    /// Computed and persisted `n` samples.
    Computed(u64),
    /// Found complete on disk; nothing recomputed.
    Skipped,
}

fn compute_shard(
    design: &GenDesign,
    cfg: &DatasetConfig,
    store: &ShardStore,
    shard: usize,
) -> Result<ShardOutcome, FleetError> {
    // A shard already complete on disk (previous run, or a slow sibling
    // whose lease expired but whose write landed) is simply acknowledged —
    // recomputation would produce the same bytes.
    if let Ok(Some(existing)) = store.load_shard::<Vec<SampleRecord>>(shard) {
        if shard_is_complete(cfg, &design.graph, shard, &existing) {
            af_obs::counter("fleet.gen.shards_found_on_disk", 1);
            return Ok(Skipped);
        }
    }
    let records = generate_shard(
        &design.circuit,
        &design.placement,
        &design.tech,
        &design.graph,
        cfg,
        shard,
    );
    if !shard_is_complete(cfg, &design.graph, shard, &records) {
        return Err(FleetError::Config(format!(
            "shard {shard} evaluation left incomplete records (persistent sample failures)"
        )));
    }
    store
        .save_shard(shard, &records)
        .map_err(|e| FleetError::Config(format!("persist shard {shard}: {e}")))?;
    af_obs::counter("fleet.gen.shards_computed", 1);
    Ok(Computed(records.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GenSpec {
        GenSpec {
            bench: "OTA1".to_string(),
            variant: "A".to_string(),
            samples: 12,
            shard_size: 4,
            seed: 7,
            c_low: 0.4,
            c_high: 2.4,
            checkpoint: String::new(),
            threads: 1,
        }
    }

    #[test]
    fn spec_maps_onto_dataset_config() {
        let cfg = spec_config(&spec()).unwrap();
        assert_eq!(cfg.samples, 12);
        assert_eq!(cfg.shard_size, 4);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.threads, 1);
        // Unspecified knobs keep workspace defaults (the other half of the
        // coordinator/worker agreement).
        assert_eq!(cfg.retry, DatasetConfig::default().retry);
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        let mut s = spec();
        s.samples = 0;
        assert!(spec_config(&s).is_err());
        let mut s = spec();
        s.shard_size = 0;
        assert!(spec_config(&s).is_err());
        let mut s = spec();
        s.c_low = 3.0;
        s.c_high = 1.0;
        assert!(spec_config(&s).is_err());
    }

    #[test]
    fn unknown_design_coordinates_are_rejected() {
        let mut s = spec();
        s.bench = "NOPE99".to_string();
        assert!(spec_design(&s).is_err());
        let mut s = spec();
        s.variant = "Z".to_string();
        assert!(spec_design(&s).is_err());
    }

    #[test]
    fn design_resolves_real_benchmarks() {
        let d = spec_design(&spec()).unwrap();
        assert!(!d.circuit.devices().is_empty());
        assert!(!d.graph.guided_ap_indices().is_empty());
    }
}
