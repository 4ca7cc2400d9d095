//! Model persistence: save/load trained models and datasets as JSON.
//!
//! A trained [`ThreeDGnn`] (weights + normalization statistics) and a
//! [`Dataset`] are plain serde structures; these helpers give them a stable
//! on-disk workflow so the expensive training step can be amortized
//! across runs — the same way the paper amortizes its 2 000-sample database.

use std::fs;
use std::path::Path;

use serde::de::DeserializeOwned;
use serde::{Serialize, Value};

use crate::dataset::Dataset;
use crate::gnn::ThreeDGnn;

/// Format tag in the versioned [`ThreeDGnn`] file header.
pub const GNN_FORMAT: &str = "analogfold-gnn";

/// Current [`ThreeDGnn`] file format version. Version 2 replaced the
/// parameter-count checksum with a 128-bit content hash of the model body
/// ([`crate::content_hash_of`]); version-1 files (parameter-count header)
/// and legacy headerless files still load.
pub const GNN_FORMAT_VERSION: u64 = 2;

/// The superseded version-1 header (parameter-count checksum), still
/// accepted by [`ThreeDGnn::load`].
pub const GNN_FORMAT_VERSION_V1: u64 = 1;

/// Persistence failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// (De)serialization failure.
    Json(serde_json::Error),
    /// Model file header validation failure: wrong format tag, unsupported
    /// version, or a content-hash / checksum mismatch (stale, truncated, or
    /// tampered file). Loading such a model would produce garbage
    /// predictions.
    Header(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Json(e) => write!(f, "serialization error: {e}"),
            PersistError::Header(msg) => write!(f, "model header error: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl PersistError {
    /// Whether retrying the failed operation could plausibly succeed.
    /// I/O failures (including injected ones — see [`af_fault::is_injected`])
    /// are transient: disks fill, NFS blips, chaos tests fire. Serialization
    /// and header failures are deterministic properties of the data and
    /// would fail identically on every retry.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, PersistError::Io(_))
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Json(e)
    }
}

fn save<T: Serialize>(value: &T, path: &Path) -> Result<(), PersistError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, serde_json::to_string(value)?)?;
    Ok(())
}

fn load<T: DeserializeOwned>(path: &Path) -> Result<T, PersistError> {
    Ok(serde_json::from_str(&fs::read_to_string(path)?)?)
}

/// A directory of numbered JSON shards (`shard-0000.json`, `shard-0001.json`,
/// …) used for resumable checkpointing of long generation jobs: each
/// completed shard is written as soon as it finishes, and a restarted job
/// reloads whatever shards already exist instead of recomputing them.
///
/// Writes go through a temporary file renamed into place, so a job killed
/// mid-write leaves no partial shard behind.
///
/// # Crash-consistency contract
///
/// Every [`ShardStore::save_shard`] follows the full durable-rename
/// discipline:
///
/// 1. write the payload to a temporary file in the same directory,
/// 2. `sync_all()` the temporary file (so the *data* is on disk before any
///    name points at it),
/// 3. `rename()` it over the final name (atomic on POSIX filesystems),
/// 4. fsync the directory (unix only; on other platforms the rename's
///    durability is best-effort).
///
/// After a crash at any point, a shard name therefore refers either to the
/// complete old content or the complete new content — never to a torn or
/// empty file — and once `save_shard` returns, the shard survives power
/// loss. A crash between (3) and (4) can lose the *rename* (the old content
/// reappears) but never produces a partial file; the checkpoint loop
/// tolerates that by regenerating any shard it cannot load.
///
/// Transient write failures are retried under the store's
/// [`af_fault::RetryPolicy`] (default: 3 attempts). The `persist.save_shard` failpoint injects `Io`
/// errors here for chaos tests.
#[derive(Debug, Clone)]
pub struct ShardStore {
    dir: std::path::PathBuf,
    retry: af_fault::RetryPolicy,
}

/// Writes `bytes` to `final_path` with the durable-rename discipline
/// documented on [`ShardStore`]: write `tmp` and fsync it, rename it over
/// `final_path`, then fsync `dir` so the rename itself survives a crash.
///
/// # Errors
///
/// Any filesystem failure. A failure before the rename leaves `final_path`
/// as it was.
pub fn write_durable(
    dir: &Path,
    tmp: &Path,
    final_path: &Path,
    bytes: &[u8],
) -> std::io::Result<()> {
    use std::io::Write;
    fs::create_dir_all(dir)?;
    let mut f = fs::File::create(tmp)?;
    f.write_all(bytes)?;
    // Data must be durable before the rename publishes a name for it.
    f.sync_all()?;
    drop(f);
    fs::rename(tmp, final_path)?;
    // Make the rename itself durable: fsync the containing directory.
    #[cfg(unix)]
    fs::File::open(dir)?.sync_all()?;
    Ok(())
}

impl ShardStore {
    /// Store rooted at `dir` (created lazily on first save) with the
    /// default write [`af_fault::RetryPolicy`].
    pub fn new(dir: impl Into<std::path::PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            retry: af_fault::RetryPolicy {
                max_attempts: 3,
                base_delay_ms: 5,
                max_delay_ms: 100,
                ..af_fault::RetryPolicy::default()
            },
        }
    }

    /// Overrides the policy applied to transient write failures.
    #[must_use]
    pub fn with_retry(mut self, retry: af_fault::RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Root directory of the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of shard `index`.
    pub fn shard_path(&self, index: usize) -> std::path::PathBuf {
        self.dir.join(format!("shard-{index:04}.json"))
    }

    /// Writes shard `index` atomically and durably (see the
    /// crash-consistency contract on [`ShardStore`]); transient I/O
    /// failures are retried under the store's policy.
    ///
    /// # Errors
    ///
    /// Filesystem or serialization failures that survive retrying.
    pub fn save_shard<T: Serialize>(&self, index: usize, value: &T) -> Result<(), PersistError> {
        let payload = serde_json::to_string(value)?;
        let tmp = self.dir.join(format!(".shard-{index:04}.json.tmp"));
        let final_path = self.shard_path(index);
        self.retry.run(
            "persist.save_shard",
            PersistError::is_transient,
            |attempt| {
                af_fault::fail!(
                    "persist.save_shard",
                    key = af_fault::mix(index as u64, u64::from(attempt)),
                    PersistError::Io(std::io::Error::other(af_fault::injected(
                        "persist.save_shard"
                    )))
                );
                write_durable(&self.dir, &tmp, &final_path, payload.as_bytes())
                    .map_err(PersistError::Io)
            },
        )
    }

    /// Loads shard `index` if it exists and parses cleanly; a missing or
    /// corrupt shard returns `Ok(None)` so the caller regenerates it.
    ///
    /// # Errors
    ///
    /// Filesystem failures other than "not found".
    pub fn load_shard<T: DeserializeOwned>(&self, index: usize) -> Result<Option<T>, PersistError> {
        let path = self.shard_path(index);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        match serde_json::from_str(&text) {
            Ok(v) => Ok(Some(v)),
            Err(e) => {
                // Regeneration is the right recovery, but it must be
                // visible: a silently re-generated shard can mask a disk
                // or writer bug indefinitely.
                af_obs::counter("persist.shard_corrupt", 1);
                af_obs::warn(&format!(
                    "corrupt shard {}: {e}; regenerating",
                    path.display()
                ));
                Ok(None)
            }
        }
    }

    /// Indices of the shard files currently present in the directory,
    /// sorted ascending. Presence only — callers decide whether a shard's
    /// *contents* qualify for reuse (see the dataset layer's completeness
    /// check). A missing directory is an empty store, matching
    /// [`load_shard`](Self::load_shard)'s treatment of missing files; used
    /// by the fleet coordinator to seed its lease table when resuming an
    /// interrupted distributed run.
    #[must_use]
    pub fn existing_shards(&self) -> Vec<usize> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out: Vec<usize> = entries
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                let idx = name.strip_prefix("shard-")?.strip_suffix(".json")?;
                idx.parse().ok()
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Whether shard `index`'s file exists (contents unchecked).
    #[must_use]
    pub fn has_shard(&self, index: usize) -> bool {
        self.shard_path(index).exists()
    }
}

/// The versioned save envelope: format tag, version, and a 128-bit content
/// hash of the model body (canonical hash of its serialized value tree) as
/// an integrity check against truncated, stale, or tampered files.
struct GnnEnvelope<'a>(&'a ThreeDGnn);

impl Serialize for GnnEnvelope<'_> {
    fn to_value(&self) -> Value {
        let model = self.0.to_value();
        let hash = {
            let mut h = af_cache::ContentHasher::new();
            crate::cache::hash_value(&mut h, &model);
            h.finish()
        };
        Value::Map(vec![
            ("format".to_string(), Value::Str(GNN_FORMAT.to_string())),
            ("version".to_string(), Value::UInt(GNN_FORMAT_VERSION)),
            ("content_hash".to_string(), Value::Str(hash.to_hex())),
            ("model".to_string(), model),
        ])
    }
}

fn header_u64(v: &Value, key: &str) -> Result<u64, PersistError> {
    match v.get(key) {
        Some(Value::UInt(u)) => Ok(*u),
        Some(Value::Int(i)) if *i >= 0 => Ok(*i as u64),
        _ => Err(PersistError::Header(format!(
            "missing or non-integer `{key}` field"
        ))),
    }
}

impl ThreeDGnn {
    /// Saves the model (weights + target statistics) as JSON, wrapped in a
    /// versioned header carrying a content hash of the model body.
    ///
    /// # Errors
    ///
    /// Filesystem or serialization failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        save(&GnnEnvelope(self), path.as_ref())
    }

    /// Loads a model saved with [`ThreeDGnn::save`].
    ///
    /// Files with the versioned header are validated — format tag, version,
    /// and parameter-count checksum — so a stale or truncated model fails
    /// loudly instead of producing garbage predictions. Legacy headerless
    /// files (raw serialized model) still load.
    ///
    /// # Errors
    ///
    /// Filesystem failures, deserialization failures, or
    /// [`PersistError::Header`] when header validation fails.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let text = fs::read_to_string(path.as_ref())?;
        let tree = serde_json::value_from_str(&text)?;
        let Some(format) = tree.get("format") else {
            // Legacy headerless file: the raw serialized model.
            return serde::Deserialize::from_value(&tree).map_err(|e| PersistError::Json(e.into()));
        };
        if format != &Value::Str(GNN_FORMAT.to_string()) {
            return Err(PersistError::Header(format!(
                "format tag {format:?} is not `{GNN_FORMAT}`"
            )));
        }
        let version = header_u64(&tree, "version")?;
        if version != GNN_FORMAT_VERSION && version != GNN_FORMAT_VERSION_V1 {
            return Err(PersistError::Header(format!(
                "unsupported version {version} (this build reads {GNN_FORMAT_VERSION_V1} \
                 and {GNN_FORMAT_VERSION})"
            )));
        }
        let model_tree = tree
            .get("model")
            .ok_or_else(|| PersistError::Header("missing `model` field".to_string()))?;
        if version == GNN_FORMAT_VERSION {
            // v2: verify the content hash of the body *before* spending time
            // deserializing it (and so that any corruption inside the body
            // is caught, not just a wrong parameter count).
            let expected = match tree.get("content_hash") {
                Some(Value::Str(hex)) => af_cache::ContentHash::from_hex(hex).ok_or_else(|| {
                    PersistError::Header(format!("malformed `content_hash` `{hex}`"))
                })?,
                _ => {
                    return Err(PersistError::Header(
                        "missing `content_hash` field".to_string(),
                    ))
                }
            };
            let mut h = af_cache::ContentHasher::new();
            crate::cache::hash_value(&mut h, model_tree);
            let actual = h.finish();
            if actual != expected {
                return Err(PersistError::Header(format!(
                    "content-hash mismatch: header says {expected}, body hashes to {actual} \
                     (stale, truncated, or tampered file?)"
                )));
            }
        }
        let model: ThreeDGnn =
            serde::Deserialize::from_value(model_tree).map_err(|e| PersistError::Json(e.into()))?;
        if version == GNN_FORMAT_VERSION_V1 {
            // v1 back-compat: the weaker parameter-count checksum.
            let params = header_u64(&tree, "params")?;
            let actual = model.param_count() as u64;
            if actual != params {
                return Err(PersistError::Header(format!(
                    "parameter-count checksum mismatch: header says {params}, model has {actual} \
                     (stale or truncated file?)"
                )));
            }
        }
        Ok(model)
    }
}

impl Dataset {
    /// Saves the dataset as JSON.
    ///
    /// # Errors
    ///
    /// Filesystem or serialization failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        save(self, path.as_ref())
    }

    /// Loads a dataset saved with [`Dataset::save`].
    ///
    /// # Errors
    ///
    /// Filesystem or deserialization failures.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        load(path.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gnn::GnnConfig;
    use crate::hetero::HeteroGraph;
    use af_netlist::benchmarks;
    use af_place::{place, PlacementVariant};
    use af_tech::Technology;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("analogfold-test-{name}-{}", std::process::id()))
    }

    #[test]
    fn gnn_roundtrip_preserves_predictions() {
        let circuit = benchmarks::ota1();
        let placement = place(&circuit, PlacementVariant::A);
        let graph = HeteroGraph::build(&circuit, &placement, &Technology::nm40(), 2);
        let gnn = ThreeDGnn::new(&GnnConfig {
            hidden: 8,
            layers: 1,
            ..GnnConfig::default()
        });
        let n = graph.guided_ap_indices().len() * 3;
        let c = vec![1.2; n];
        let before = gnn.predict(&graph, &c);

        let path = tmp("gnn.json");
        gnn.save(&path).unwrap();
        let loaded = ThreeDGnn::load(&path).unwrap();
        let after = loaded.predict(&graph, &c);
        std::fs::remove_file(&path).ok();

        for (a, b) in before.iter().zip(after) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    fn tiny_gnn() -> ThreeDGnn {
        ThreeDGnn::new(&GnnConfig {
            hidden: 8,
            layers: 1,
            ..GnnConfig::default()
        })
    }

    #[test]
    fn saved_model_carries_validated_header() {
        let gnn = tiny_gnn();
        let path = tmp("gnn-header.json");
        gnn.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let tree = serde_json::value_from_str(&text).unwrap();
        assert_eq!(
            tree.get("format"),
            Some(&serde::Value::Str(GNN_FORMAT.to_string()))
        );
        // v2 headers carry the content hash of the model body.
        match tree.get("content_hash") {
            Some(serde::Value::Str(hex)) => {
                let expected = af_cache::ContentHash::from_hex(hex).expect("well-formed hex");
                let mut h = af_cache::ContentHasher::new();
                crate::cache::hash_value(&mut h, tree.get("model").unwrap());
                assert_eq!(h.finish(), expected, "header hash matches the body");
            }
            other => panic!("missing content_hash header: {other:?}"),
        }
        assert!(ThreeDGnn::load(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_params_envelope_still_loads() {
        let gnn = tiny_gnn();
        let path = tmp("gnn-v1.json");
        // Hand-build the superseded v1 envelope (parameter-count checksum).
        struct V1<'a>(&'a ThreeDGnn);
        impl Serialize for V1<'_> {
            fn to_value(&self) -> Value {
                Value::Map(vec![
                    ("format".to_string(), Value::Str(GNN_FORMAT.to_string())),
                    ("version".to_string(), Value::UInt(GNN_FORMAT_VERSION_V1)),
                    (
                        "params".to_string(),
                        Value::UInt(self.0.param_count() as u64),
                    ),
                    ("model".to_string(), self.0.to_value()),
                ])
            }
        }
        std::fs::write(&path, serde_json::to_string(&V1(&gnn)).unwrap()).unwrap();
        let loaded = ThreeDGnn::load(&path).unwrap();
        assert_eq!(loaded.param_count(), gnn.param_count());

        // A v1 file with a wrong parameter count is still rejected.
        let text = std::fs::read_to_string(&path).unwrap();
        let actual = format!("\"params\":{}", gnn.param_count());
        assert!(text.contains(&actual));
        std::fs::write(&path, text.replace(&actual, "\"params\":1")).unwrap();
        let err = ThreeDGnn::load(&path).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_headerless_model_still_loads() {
        let gnn = tiny_gnn();
        let path = tmp("gnn-legacy.json");
        // A pre-header file is the raw serialized model.
        std::fs::write(&path, serde_json::to_string(&gnn).unwrap()).unwrap();
        let loaded = ThreeDGnn::load(&path).unwrap();
        assert_eq!(loaded.param_count(), gnn.param_count());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tampered_headers_are_rejected() {
        let gnn = tiny_gnn();
        let path = tmp("gnn-tamper.json");
        gnn.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();

        // Wrong content hash → mismatch (the body no longer matches).
        let hex_start =
            text.find("\"content_hash\":\"").expect("header present") + "\"content_hash\":\"".len();
        let mut tampered = text.clone();
        tampered.replace_range(hex_start..hex_start + 32, &"0".repeat(32));
        std::fs::write(&path, &tampered).unwrap();
        let err = ThreeDGnn::load(&path).unwrap_err();
        assert!(matches!(err, PersistError::Header(_)), "{err}");
        assert!(err.to_string().contains("content-hash mismatch"));

        // A tampered *body* is also caught by the hash, not just headers.
        std::fs::write(&path, text.replacen("0.0", "0.5", 1)).unwrap();
        let err = ThreeDGnn::load(&path).unwrap_err();
        assert!(err.to_string().contains("content-hash mismatch"), "{err}");

        // Future version → rejected, not misread.
        std::fs::write(&path, text.replace("\"version\":2", "\"version\":999")).unwrap();
        let err = ThreeDGnn::load(&path).unwrap_err();
        assert!(err.to_string().contains("unsupported version"));

        // Wrong format tag → rejected.
        std::fs::write(&path, text.replace(GNN_FORMAT, "somebody-elses-format")).unwrap();
        assert!(matches!(
            ThreeDGnn::load(&path).unwrap_err(),
            PersistError::Header(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_shard_is_counted_and_warned() {
        let dir = tmp("shards-corrupt-obs");
        std::fs::remove_dir_all(&dir).ok();
        let store = ShardStore::new(&dir);
        store.save_shard(0, &vec![1u32, 2]).unwrap();
        std::fs::write(store.shard_path(0), "{definitely not json").unwrap();

        let sink = std::sync::Arc::new(af_obs::MemorySink::new());
        let guard = af_obs::install(sink.clone());
        assert!(store.load_shard::<Vec<u32>>(0).unwrap().is_none());
        drop(guard);

        let events = sink.events();
        assert!(
            events.iter().any(|e| matches!(
                e,
                af_obs::Event::Counter { name, value: 1, .. } if name == "persist.shard_corrupt"
            )),
            "corrupt-shard counter flushed"
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                af_obs::Event::Log { level, message, .. }
                    if level == "warn" && message.contains("corrupt shard")
            )),
            "warning event emitted"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        let err = ThreeDGnn::load("/nonexistent/analogfold.json").unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
        assert!(err.to_string().contains("io error"));
    }

    #[test]
    fn load_garbage_errors() {
        let path = tmp("garbage.json");
        std::fs::write(&path, "{not json").unwrap();
        let err = ThreeDGnn::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PersistError::Json(_)));
    }

    #[test]
    fn shard_store_roundtrip_and_resume_semantics() {
        let dir = tmp("shards");
        std::fs::remove_dir_all(&dir).ok();
        let store = ShardStore::new(&dir);

        // Missing shard → None (caller regenerates).
        assert!(store.load_shard::<Vec<u32>>(0).unwrap().is_none());

        store.save_shard(0, &vec![1u32, 2, 3]).unwrap();
        store.save_shard(2, &vec![7u32]).unwrap();
        assert_eq!(
            store.load_shard::<Vec<u32>>(0).unwrap().unwrap(),
            vec![1, 2, 3]
        );
        assert!(
            store.load_shard::<Vec<u32>>(1).unwrap().is_none(),
            "gap stays a gap"
        );
        assert_eq!(store.load_shard::<Vec<u32>>(2).unwrap().unwrap(), vec![7]);

        // Corrupt shard → None, not an error.
        std::fs::write(store.shard_path(2), "{truncated").unwrap();
        assert!(store.load_shard::<Vec<u32>>(2).unwrap().is_none());

        std::fs::remove_dir_all(&dir).ok();
    }
}
