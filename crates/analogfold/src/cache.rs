//! Content hashing and the tensor-prefix cache.
//!
//! Hashes are the stable 128-bit [`ContentHash`], so a cached result can
//! only ever be returned for exactly the content that produced it (see
//! DESIGN.md §10). The pipeline has one cache of its own:
//! `tensors_cached` keeps the C-independent GNN-forward prefix
//! ([`GraphTensors`]: neighbor lists, edge deltas, static features) per
//! design across [`crate::Potential`] / session constructions. The other
//! cache, `af-serve`'s, keys whole `/v1/predict` and `/v1/guide` response
//! bodies by request content hash (see `crates/serve`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use af_cache::{Cache, CacheBuilder, ContentHash, ContentHasher, FnWeigher};

use crate::gnn::GraphTensors;
use crate::hetero::HeteroGraph;

static CACHE_ENABLED: AtomicBool = AtomicBool::new(true);

/// Process-wide switch of the tensor-prefix cache (`--no-cache` on the
/// CLI). When disabled every prefix is built from scratch; results are
/// bit-identical either way (enforced by the workspace determinism tests)
/// — only wall-clock and memory change.
pub fn set_cache_enabled(enabled: bool) {
    CACHE_ENABLED.store(enabled, Ordering::Release);
}

/// Whether the tensor-prefix cache is currently enabled.
#[must_use]
pub fn cache_enabled() -> bool {
    CACHE_ENABLED.load(Ordering::Acquire)
}

/// Canonically hashes a serde [`serde::Value`] tree: every variant is
/// tag-disciplined, map keys and order are part of the content, floats hash
/// by exact bit pattern, and non-negative `Int`/`UInt` hash identically (a
/// JSON round trip may surface either variant for the same document).
pub fn hash_value(h: &mut ContentHasher, v: &serde::Value) {
    match v {
        serde::Value::Null => h.write_u8(0),
        serde::Value::Bool(b) => {
            h.write_u8(1);
            h.write_u8(u8::from(*b));
        }
        serde::Value::Int(i) if *i >= 0 => {
            h.write_u8(3);
            h.write_u64(*i as u64);
        }
        serde::Value::Int(i) => {
            h.write_u8(2);
            h.write_i64(*i);
        }
        serde::Value::UInt(u) => {
            h.write_u8(3);
            h.write_u64(*u);
        }
        serde::Value::Float(f) => {
            h.write_u8(4);
            h.write_f64(*f);
        }
        serde::Value::Str(s) => {
            h.write_u8(5);
            h.write_str(s);
        }
        serde::Value::Seq(items) => {
            h.write_u8(6);
            h.write_usize(items.len());
            for item in items {
                hash_value(h, item);
            }
        }
        serde::Value::Map(pairs) => {
            h.write_u8(7);
            h.write_usize(pairs.len());
            for (k, val) in pairs {
                h.write_str(k);
                hash_value(h, val);
            }
        }
    }
}

/// Content hash of any serializable value, via its canonical tree. Because
/// the vendored JSON writer renders floats with shortest-round-trip
/// precision, `hash(value)` equals `hash(parse(serialize(value)))` — the
/// property the model-header integrity check relies on.
#[must_use]
pub fn content_hash_of<T: serde::Serialize>(value: &T) -> ContentHash {
    let mut h = ContentHasher::new();
    hash_value(&mut h, &value.to_value());
    h.finish()
}

/// Content hash of one heterogeneous graph: nodes (positions, features,
/// guidance flags), all three edge sets, and the normalization scale. Two
/// placements of the same circuit hash differently; the same placement
/// hashes identically on every run.
#[must_use]
pub fn graph_hash(graph: &HeteroGraph) -> ContentHash {
    let mut h = ContentHasher::new();
    h.write_str("hetero-graph");
    h.write_usize(graph.aps.len());
    for ap in &graph.aps {
        h.write_u64(ap.net.index() as u64);
        h.write_i64(ap.pos.x);
        h.write_i64(ap.pos.y);
        h.write_u8(ap.pos.z);
        h.write_u8(u8::from(ap.guided));
        h.write_f64_slice(&ap.features);
        h.write_usize(ap.pin_index);
    }
    h.write_usize(graph.modules.len());
    for m in &graph.modules {
        h.write_i64(m.pos.x);
        h.write_i64(m.pos.y);
        h.write_u8(m.pos.z);
        h.write_f64_slice(&m.features);
    }
    for edges in [&graph.pp_edges, &graph.mp_edges, &graph.mm_edges] {
        h.write_usize(edges.len());
        for &(a, b) in edges.iter() {
            h.write_usize(a);
            h.write_usize(b);
        }
    }
    h.write_f64(graph.scale);
    h.write_i64(graph.layer_pitch);
    h.finish()
}

/// Process-wide cache of the C-independent GNN-forward prefix: one
/// [`GraphTensors`] per distinct graph content. Bounded at 64 MiB; entries
/// are shared by `Arc`, so a cached prefix costs nothing to reuse across
/// [`crate::Potential`] constructions, one-shot predictions, and serve
/// sessions on the same design.
fn tensor_cache() -> &'static Cache<ContentHash, Arc<GraphTensors>> {
    static CACHE: OnceLock<Cache<ContentHash, Arc<GraphTensors>>> = OnceLock::new();
    CACHE.get_or_init(|| {
        CacheBuilder::new("tensors")
            .capacity_mb(64)
            .build_weighed(FnWeigher(|_k: &ContentHash, v: &Arc<GraphTensors>| {
                v.approx_bytes() as u64
            }))
    })
}

/// The C-independent forward prefix for `graph`, from the process-wide
/// cache when enabled (falling back to a fresh build when disabled or on a
/// miss). The tensors are a pure function of the graph content, so cached
/// and fresh prefixes are identical.
pub(crate) fn tensors_cached(graph: &HeteroGraph) -> Arc<GraphTensors> {
    if !cache_enabled() {
        return Arc::new(GraphTensors::new(graph));
    }
    tensor_cache().get_or_insert_with(graph_hash(graph), || Arc::new(GraphTensors::new(graph)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_netlist::benchmarks;
    use af_place::{place, PlacementVariant};
    use af_sim::Performance;
    use af_tech::Technology;
    use serde::Serialize;

    fn graph() -> HeteroGraph {
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        HeteroGraph::build(&c, &p, &Technology::nm40(), 2)
    }

    #[test]
    fn graph_hash_is_stable_and_content_sensitive() {
        let g = graph();
        assert_eq!(graph_hash(&g), graph_hash(&g));
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::B);
        let g2 = HeteroGraph::build(&c, &p, &Technology::nm40(), 2);
        assert_ne!(graph_hash(&g), graph_hash(&g2), "placement must matter");
        let mut g3 = graph();
        g3.scale += 1.0;
        assert_ne!(graph_hash(&g), graph_hash(&g3), "scale must matter");
    }

    #[test]
    fn value_hash_survives_json_round_trip() {
        let perf = Performance {
            offset_uv: 12.5,
            cmrr_db: 81.0,
            bandwidth_mhz: 55.125,
            dc_gain_db: 39.0625,
            noise_uvrms: 210.0,
        };
        let direct = content_hash_of(&perf);
        let text = serde_json::to_string(&perf).unwrap();
        let tree = serde_json::value_from_str(&text).unwrap();
        let mut h = ContentHasher::new();
        hash_value(&mut h, &tree);
        assert_eq!(direct, h.finish(), "hash must survive serialize→parse");
        // Sanity: the canonical tree itself round-trips.
        assert_eq!(perf.to_value(), tree);
    }

    #[test]
    fn int_uint_variants_hash_identically() {
        let mut a = ContentHasher::new();
        hash_value(&mut a, &serde::Value::Int(7));
        let mut b = ContentHasher::new();
        hash_value(&mut b, &serde::Value::UInt(7));
        assert_eq!(a.finish(), b.finish());
        let mut c = ContentHasher::new();
        hash_value(&mut c, &serde::Value::Int(-7));
        let mut d = ContentHasher::new();
        hash_value(&mut d, &serde::Value::UInt(7));
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn tensors_cached_reuses_the_prefix() {
        let g = graph();
        let a = tensors_cached(&g);
        let b = tensors_cached(&g);
        assert!(
            Arc::ptr_eq(&a, &b),
            "same graph content must share one prefix"
        );
        assert_eq!(a.guidance_len(), GraphTensors::new(&g).guidance_len());
    }
}
