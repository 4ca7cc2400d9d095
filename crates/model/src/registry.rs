//! The versioned model registry: content-addressed model files, an
//! append-only JSONL lineage manifest, and a durably-published `CURRENT`
//! pointer.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/
//!   models/<hash>.json   one v2 save envelope per registered model
//!   manifest.jsonl       append-only event log (register/promote/verdict)
//!   CURRENT              the promoted hash (durable-rename published)
//! ```
//!
//! A model file only becomes visible under its final name after the full
//! durable-rename discipline (tmp in the same directory → `sync_all` →
//! `rename` → directory fsync), so a trainer killed mid-publication leaves
//! at most a `.tmp` stray that every reader ignores — the registry never
//! exposes a half-written candidate. The manifest line for a model is
//! appended (and fsynced) only *after* its file is durable; a crash between
//! the two re-registers idempotently on the next attempt (same content →
//! same hash → same file name). A torn manifest tail from a crashed append
//! degrades to skip-with-warn at open, never a panic.
//!
//! Because the registry id *is* the content hash validated by
//! [`ThreeDGnn::load`]'s v2 envelope check, any on-disk tampering of a
//! model body is caught at load time — the registry inherits persistence
//! integrity instead of re-implementing it.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use analogfold::{content_hash_of, write_durable, PersistError, ThreeDGnn};
use serde::{Deserialize, Serialize};

/// Manifest file name inside the registry directory.
pub const MANIFEST_FILE: &str = "manifest.jsonl";
/// Promoted-pointer file name inside the registry directory.
pub const CURRENT_FILE: &str = "CURRENT";

/// Registry operation failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum RegistryError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Model (de)serialization or header-validation failure.
    Persist(PersistError),
    /// No registered model matches the given hash or prefix.
    NotFound(String),
    /// A hash prefix matches more than one registered model.
    Ambiguous(String),
    /// Promotion refused (recorded regression verdict without `force`).
    Refused(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "io error: {e}"),
            RegistryError::Persist(e) => write!(f, "persist error: {e}"),
            RegistryError::NotFound(h) => write!(f, "no registered model matches `{h}`"),
            RegistryError::Ambiguous(h) => write!(f, "hash prefix `{h}` is ambiguous"),
            RegistryError::Refused(msg) => write!(f, "promotion refused: {msg}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<std::io::Error> for RegistryError {
    fn from(e: std::io::Error) -> Self {
        RegistryError::Io(e)
    }
}

impl From<PersistError> for RegistryError {
    fn from(e: PersistError) -> Self {
        RegistryError::Persist(e)
    }
}

/// Lineage metadata recorded with a registration.
#[derive(Debug, Clone, Default)]
pub struct Lineage {
    /// Content hash of the incumbent this model was fine-tuned from
    /// (`None` for a from-scratch training run).
    pub parent: Option<String>,
    /// Canonical content hash of the training dataset.
    pub dataset_hash: Option<String>,
    /// Training seed (with the dataset hash, determines the weights).
    pub train_seed: Option<u64>,
    /// Training epochs.
    pub train_epochs: Option<u64>,
    /// Training-set size in samples.
    pub samples: Option<u64>,
    /// FoM evaluation summary: normalized MSE of predictions over the
    /// training set (see [`analogfold::holdout_mse`]).
    pub eval_mse: Option<f64>,
    /// Free-form provenance note (e.g. `trainer` or `cli`).
    pub note: Option<String>,
}

/// One flat manifest event. A single struct (rather than an enum) keeps the
/// JSONL self-describing and tolerant: readers key on `event` and ignore
/// fields they do not expect, so the format is extensible without breaking
/// old lines.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ManifestLine {
    /// `"register"`, `"promote"`, or `"verdict"`.
    event: String,
    /// Monotonic sequence number within this manifest.
    seq: u64,
    /// Subject model hash.
    hash: String,
    parent: Option<String>,
    dataset_hash: Option<String>,
    train_seed: Option<u64>,
    train_epochs: Option<u64>,
    samples: Option<u64>,
    eval_mse: Option<f64>,
    /// For `verdict` events: `"ok"` or `"regression"`.
    verdict: Option<String>,
    /// Free-form detail (lineage note, verdict evidence, …).
    detail: Option<String>,
}

/// Where a registered model sits in the promotion state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromotionState {
    /// The `CURRENT` pointer names this model.
    Current,
    /// Never promoted; eligible (no blocking verdict).
    Candidate,
    /// Latest recorded verdict is a regression — promotion needs `force`.
    Rejected,
    /// Promoted in the past, since superseded.
    Retired,
}

impl PromotionState {
    /// Stable lower-case label for JSON/CLI output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PromotionState::Current => "current",
            PromotionState::Candidate => "candidate",
            PromotionState::Rejected => "rejected",
            PromotionState::Retired => "retired",
        }
    }
}

/// One registered model as the registry sees it.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// Canonical content hash (32 lowercase hex chars) — the model's id.
    pub hash: String,
    /// Registration sequence number (ordering within the manifest).
    pub seq: u64,
    /// Lineage recorded at registration.
    pub lineage: Lineage,
    /// Whether the model file is still on disk (false after `gc`).
    pub present: bool,
    /// Latest recorded verdict for this model, if any.
    pub verdict: Option<String>,
    /// Times this model has been promoted.
    pub promotions: u64,
}

/// The registry handle. Cheap to open: state is rebuilt from the manifest
/// on every `open`, so concurrent writers (a CLI and a serving process)
/// coordinate through the append-only file and the atomic `CURRENT`
/// rename, not through shared memory.
#[derive(Debug)]
pub struct ModelRegistry {
    dir: PathBuf,
    entries: Vec<ModelEntry>,
    /// Promote events in manifest order (may repeat hashes).
    promote_log: Vec<String>,
    current: Option<String>,
    next_seq: u64,
}

impl ModelRegistry {
    /// Opens (or initializes) the registry at `dir`, replaying the
    /// manifest. Corrupt manifest lines are counted
    /// (`model.manifest_corrupt`), warned about, and skipped — a torn tail
    /// from a crashed append must not take the registry down.
    ///
    /// # Errors
    ///
    /// Filesystem failures other than missing files.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, RegistryError> {
        let dir = dir.into();
        let mut reg = Self {
            dir,
            entries: Vec::new(),
            promote_log: Vec::new(),
            current: None,
            next_seq: 0,
        };
        let manifest = reg.dir.join(MANIFEST_FILE);
        let text = match fs::read_to_string(&manifest) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e.into()),
        };
        for raw in text.lines() {
            if raw.trim().is_empty() {
                continue;
            }
            let line: ManifestLine = match serde_json::from_str(raw) {
                Ok(l) => l,
                Err(e) => {
                    af_obs::counter("model.manifest_corrupt", 1);
                    af_obs::warn(&format!(
                        "corrupt manifest line in {}: {e}; skipping",
                        manifest.display()
                    ));
                    continue;
                }
            };
            reg.next_seq = reg.next_seq.max(line.seq + 1);
            reg.apply(line);
        }
        // The CURRENT pointer, not the promote log, is the authority on the
        // incumbent: it is what survives a manifest truncation.
        let current_path = reg.dir.join(CURRENT_FILE);
        match fs::read_to_string(&current_path) {
            Ok(t) => {
                let hash = t.trim().to_string();
                if !hash.is_empty() {
                    reg.current = Some(hash);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Ok(reg)
    }

    fn apply(&mut self, line: ManifestLine) {
        match line.event.as_str() {
            "register" => {
                if self.entry(&line.hash).is_none() {
                    let present = self.model_path(&line.hash).exists();
                    self.entries.push(ModelEntry {
                        hash: line.hash,
                        seq: line.seq,
                        lineage: Lineage {
                            parent: line.parent,
                            dataset_hash: line.dataset_hash,
                            train_seed: line.train_seed,
                            train_epochs: line.train_epochs,
                            samples: line.samples,
                            eval_mse: line.eval_mse,
                            note: line.detail,
                        },
                        present,
                        verdict: None,
                        promotions: 0,
                    });
                }
            }
            "promote" => {
                self.promote_log.push(line.hash.clone());
                if let Some(e) = self.entry_mut(&line.hash) {
                    e.promotions += 1;
                }
            }
            "verdict" => {
                if let Some(e) = self.entry_mut(&line.hash) {
                    e.verdict = line.verdict;
                }
            }
            other => {
                // Future event kinds are data, not errors.
                af_obs::warn(&format!("unknown manifest event `{other}`; ignoring"));
            }
        }
    }

    /// Registry root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the model file for `hash`.
    #[must_use]
    pub fn model_path(&self, hash: &str) -> PathBuf {
        self.dir.join("models").join(format!("{hash}.json"))
    }

    /// The promoted (incumbent) model hash, if any.
    #[must_use]
    pub fn current(&self) -> Option<&str> {
        self.current.as_deref()
    }

    /// Registered models in registration order.
    #[must_use]
    pub fn list(&self) -> &[ModelEntry] {
        &self.entries
    }

    /// Looks up a model by its full hash.
    #[must_use]
    pub fn entry(&self, hash: &str) -> Option<&ModelEntry> {
        self.entries.iter().find(|e| e.hash == hash)
    }

    fn entry_mut(&mut self, hash: &str) -> Option<&mut ModelEntry> {
        self.entries.iter_mut().find(|e| e.hash == hash)
    }

    /// The promotion state of a registered model.
    #[must_use]
    pub fn state(&self, entry: &ModelEntry) -> PromotionState {
        if self.current.as_deref() == Some(entry.hash.as_str()) {
            PromotionState::Current
        } else if entry.verdict.as_deref() == Some("regression") {
            PromotionState::Rejected
        } else if entry.promotions > 0 {
            PromotionState::Retired
        } else {
            PromotionState::Candidate
        }
    }

    /// Resolves a full hash or unique prefix to the full hash.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotFound`] or [`RegistryError::Ambiguous`].
    pub fn resolve(&self, prefix: &str) -> Result<String, RegistryError> {
        if prefix.is_empty() {
            return Err(RegistryError::NotFound(String::new()));
        }
        if let Some(e) = self.entry(prefix) {
            return Ok(e.hash.clone());
        }
        let matches: Vec<&ModelEntry> = self
            .entries
            .iter()
            .filter(|e| e.hash.starts_with(prefix))
            .collect();
        match matches.len() {
            0 => Err(RegistryError::NotFound(prefix.to_string())),
            1 => Ok(matches[0].hash.clone()),
            _ => Err(RegistryError::Ambiguous(prefix.to_string())),
        }
    }

    /// The newest registered model that is not the incumbent and whose file
    /// is still present — what a serving process canaries by default.
    #[must_use]
    pub fn latest_candidate(&self) -> Option<&ModelEntry> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.present && Some(e.hash.as_str()) != self.current())
    }

    /// Registers `gnn`, durably publishing its model file and appending the
    /// lineage line. Idempotent: re-registering identical weights (same
    /// content hash) returns the existing entry without rewriting.
    ///
    /// # Errors
    ///
    /// Filesystem or serialization failures.
    pub fn register(
        &mut self,
        gnn: &ThreeDGnn,
        lineage: Lineage,
    ) -> Result<ModelEntry, RegistryError> {
        let hash = content_hash_of(gnn).to_hex();
        if let Some(existing) = self.entry(&hash) {
            if existing.present {
                return Ok(existing.clone());
            }
        }
        let models_dir = self.dir.join("models");
        fs::create_dir_all(&models_dir)?;
        // Publish the model file first: write the normal save envelope to a
        // dot-tmp sibling (readers ignore non-`<hash>.json` names), fsync,
        // then rename into place and fsync the directory. The `model.publish`
        // failpoint lets chaos tests kill this exact window.
        af_fault::fail!(
            "model.publish",
            RegistryError::Io(std::io::Error::other(af_fault::injected("model.publish")))
        );
        let tmp = models_dir.join(format!(".{hash}.tmp"));
        gnn.save(&tmp)?;
        fs::File::open(&tmp)?.sync_all()?;
        fs::rename(&tmp, self.model_path(&hash))?;
        #[cfg(unix)]
        fs::File::open(&models_dir)?.sync_all()?;

        let seq = self.next_seq;
        self.append(&ManifestLine {
            event: "register".to_string(),
            seq,
            hash: hash.clone(),
            parent: lineage.parent.clone(),
            dataset_hash: lineage.dataset_hash.clone(),
            train_seed: lineage.train_seed,
            train_epochs: lineage.train_epochs,
            samples: lineage.samples,
            eval_mse: lineage.eval_mse,
            verdict: None,
            detail: lineage.note.clone(),
        })?;
        af_obs::counter("model.registered", 1);
        if let Some(e) = self.entry_mut(&hash) {
            e.present = true;
            let clone = e.clone();
            return Ok(clone);
        }
        let entry = ModelEntry {
            hash,
            seq,
            lineage,
            present: true,
            verdict: None,
            promotions: 0,
        };
        self.entries.push(entry.clone());
        Ok(entry)
    }

    fn append(&mut self, line: &ManifestLine) -> Result<(), RegistryError> {
        let text = serde_json::to_string(line)
            .map_err(|e| RegistryError::Persist(PersistError::from(e)))?;
        fs::create_dir_all(&self.dir)?;
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(MANIFEST_FILE))?;
        f.write_all(text.as_bytes())?;
        f.write_all(b"\n")?;
        f.sync_all()?;
        self.next_seq = self.next_seq.max(line.seq + 1);
        Ok(())
    }

    /// Records a canary verdict for a model (`"ok"` or `"regression"`,
    /// with free-form evidence in `detail`). A regression verdict gates
    /// future [`promote`](Self::promote) calls until forced or superseded
    /// by an `"ok"` verdict.
    ///
    /// # Errors
    ///
    /// Unknown hash or filesystem failures.
    pub fn record_verdict(
        &mut self,
        hash_or_prefix: &str,
        regression: bool,
        detail: &str,
    ) -> Result<(), RegistryError> {
        let hash = self.resolve(hash_or_prefix)?;
        let verdict = if regression { "regression" } else { "ok" };
        let seq = self.next_seq;
        self.append(&ManifestLine {
            event: "verdict".to_string(),
            seq,
            hash: hash.clone(),
            parent: None,
            dataset_hash: None,
            train_seed: None,
            train_epochs: None,
            samples: None,
            eval_mse: None,
            verdict: Some(verdict.to_string()),
            detail: Some(detail.to_string()),
        })?;
        if regression {
            af_obs::counter("canary.regressions", 1);
        }
        if let Some(e) = self.entry_mut(&hash) {
            e.verdict = Some(verdict.to_string());
        }
        Ok(())
    }

    /// Promotes a model: durably republishes the `CURRENT` pointer and
    /// appends a promote event. Refused when the model's latest recorded
    /// verdict is a regression, unless `force`.
    ///
    /// # Errors
    ///
    /// Unknown hash, missing model file, refused promotion, or filesystem
    /// failures.
    pub fn promote(&mut self, hash_or_prefix: &str, force: bool) -> Result<String, RegistryError> {
        let hash = self.resolve(hash_or_prefix)?;
        let entry = self
            .entry(&hash)
            .ok_or_else(|| RegistryError::NotFound(hash.clone()))?;
        if !entry.present {
            return Err(RegistryError::NotFound(format!(
                "{hash} (model file was garbage-collected)"
            )));
        }
        if !force && entry.verdict.as_deref() == Some("regression") {
            af_obs::counter("canary.promotions_blocked", 1);
            return Err(RegistryError::Refused(format!(
                "model {hash} has a recorded regression verdict (re-run canary or use force)"
            )));
        }
        let tmp = self.dir.join(".CURRENT.tmp");
        let final_path = self.dir.join(CURRENT_FILE);
        write_durable(&self.dir.clone(), &tmp, &final_path, hash.as_bytes())?;
        let seq = self.next_seq;
        self.append(&ManifestLine {
            event: "promote".to_string(),
            seq,
            hash: hash.clone(),
            parent: None,
            dataset_hash: None,
            train_seed: None,
            train_epochs: None,
            samples: None,
            eval_mse: None,
            verdict: None,
            detail: None,
        })?;
        af_obs::counter("model.promotions", 1);
        self.promote_log.push(hash.clone());
        if let Some(e) = self.entry_mut(&hash) {
            e.promotions += 1;
        }
        self.current = Some(hash.clone());
        Ok(hash)
    }

    /// Rolls back to the most recently promoted hash that differs from the
    /// incumbent (forced: it was trusted before).
    ///
    /// # Errors
    ///
    /// No previous promotion to roll back to, or promotion failures.
    pub fn rollback(&mut self) -> Result<String, RegistryError> {
        let current = self.current.clone();
        let previous = self
            .promote_log
            .iter()
            .rev()
            .find(|h| Some(h.as_str()) != current.as_deref())
            .cloned()
            .ok_or_else(|| {
                RegistryError::Refused("no previous promotion to roll back to".to_string())
            })?;
        af_obs::counter("model.rollbacks", 1);
        self.promote(&previous, true)
    }

    /// Garbage-collects model files, keeping the incumbent plus the `keep`
    /// most recently registered models. Manifest history is never touched —
    /// lineage outlives the bytes. Returns the removed hashes.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn gc(&mut self, keep: usize) -> Result<Vec<String>, RegistryError> {
        let mut survivors: BTreeMap<String, ()> = BTreeMap::new();
        if let Some(c) = &self.current {
            survivors.insert(c.clone(), ());
        }
        for e in self.entries.iter().rev().take(keep) {
            survivors.insert(e.hash.clone(), ());
        }
        let mut removed = Vec::new();
        for e in &mut self.entries {
            if e.present && !survivors.contains_key(&e.hash) {
                match fs::remove_file(self.dir.join("models").join(format!("{}.json", e.hash))) {
                    Ok(()) => {
                        e.present = false;
                        removed.push(e.hash.clone());
                    }
                    Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                        e.present = false;
                    }
                    Err(err) => return Err(err.into()),
                }
            }
        }
        // Sweep publication strays from crashed registrations.
        if let Ok(entries) = fs::read_dir(self.dir.join("models")) {
            for entry in entries.flatten() {
                if let Some(name) = entry.file_name().to_str() {
                    if name.starts_with('.') && name.ends_with(".tmp") {
                        let _ = fs::remove_file(entry.path());
                    }
                }
            }
        }
        af_obs::counter("model.gc_removed", removed.len() as u64);
        Ok(removed)
    }

    /// Loads a registered model by hash or unique prefix, re-validating the
    /// v2 envelope (whose content hash is the registry id itself — a
    /// tampered body fails here, not at prediction time).
    ///
    /// # Errors
    ///
    /// Unknown hash or load/validation failures.
    pub fn load(&self, hash_or_prefix: &str) -> Result<ThreeDGnn, RegistryError> {
        let hash = self.resolve(hash_or_prefix)?;
        Ok(ThreeDGnn::load(self.model_path(&hash))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analogfold::GnnConfig;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("af-model-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny(seed: u64) -> ThreeDGnn {
        ThreeDGnn::new(&GnnConfig {
            hidden: 6,
            layers: 1,
            seed,
            ..GnnConfig::default()
        })
    }

    #[test]
    fn register_promote_rollback_round_trip() {
        let dir = tmp_dir("roundtrip");
        let mut reg = ModelRegistry::open(&dir).unwrap();
        assert!(reg.current().is_none());
        let a = reg.register(&tiny(1), Lineage::default()).unwrap();
        let b = reg
            .register(
                &tiny(2),
                Lineage {
                    parent: Some(a.hash.clone()),
                    samples: Some(4),
                    ..Lineage::default()
                },
            )
            .unwrap();
        assert_ne!(a.hash, b.hash);
        assert_eq!(reg.list().len(), 2);

        reg.promote(&a.hash, false).unwrap();
        reg.promote(&b.hash, false).unwrap();
        assert_eq!(reg.current(), Some(b.hash.as_str()));

        // Reopen: state rebuilt from disk, including lineage and order.
        let mut reg = ModelRegistry::open(&dir).unwrap();
        assert_eq!(reg.current(), Some(b.hash.as_str()));
        assert_eq!(
            reg.list()[1].lineage.parent.as_deref(),
            Some(a.hash.as_str())
        );
        assert_eq!(reg.list()[1].lineage.samples, Some(4));
        let loaded = reg.load(&b.hash[..8]).unwrap();
        assert_eq!(content_hash_of(&loaded).to_hex(), b.hash);

        let back = reg.rollback().unwrap();
        assert_eq!(back, a.hash);
        assert_eq!(reg.current(), Some(a.hash.as_str()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reregistration_is_idempotent() {
        let dir = tmp_dir("idem");
        let mut reg = ModelRegistry::open(&dir).unwrap();
        let a1 = reg.register(&tiny(5), Lineage::default()).unwrap();
        let a2 = reg.register(&tiny(5), Lineage::default()).unwrap();
        assert_eq!(a1.hash, a2.hash);
        assert_eq!(reg.list().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_line_degrades_to_skip_with_warn() {
        let dir = tmp_dir("tamper");
        let (a, b) = {
            let mut reg = ModelRegistry::open(&dir).unwrap();
            let a = reg.register(&tiny(1), Lineage::default()).unwrap();
            let b = reg.register(&tiny(2), Lineage::default()).unwrap();
            reg.promote(&b.hash, false).unwrap();
            (a, b)
        };
        // Corrupt the *first* line and append a torn tail (crashed append).
        let manifest = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&manifest).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[0] = "{definitely not json".to_string();
        lines.push("{\"event\":\"regis".to_string());
        fs::write(&manifest, lines.join("\n")).unwrap();

        let sink = std::sync::Arc::new(af_obs::MemorySink::new());
        let guard = af_obs::install(sink.clone());
        let reg = ModelRegistry::open(&dir).unwrap();
        drop(guard);

        // Entry `a`'s register line was destroyed; `b` survives and CURRENT
        // still resolves.
        assert_eq!(reg.current(), Some(b.hash.as_str()));
        assert!(reg.entry(&b.hash).is_some());
        assert!(reg.entry(&a.hash).is_none());
        let events = sink.events();
        assert!(events.iter().any(|e| matches!(
            e,
            af_obs::Event::Counter { name, .. } if name == "model.manifest_corrupt"
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            af_obs::Event::Log { level, message, .. }
                if level == "warn" && message.contains("corrupt manifest")
        )));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_model_body_fails_at_load() {
        let dir = tmp_dir("body-tamper");
        let mut reg = ModelRegistry::open(&dir).unwrap();
        let a = reg.register(&tiny(3), Lineage::default()).unwrap();
        let path = reg.model_path(&a.hash);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replacen("0.0", "0.125", 1)).unwrap();
        assert!(matches!(
            reg.load(&a.hash),
            Err(RegistryError::Persist(PersistError::Header(_)))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn regression_verdict_blocks_promotion_unless_forced() {
        let dir = tmp_dir("verdict");
        let mut reg = ModelRegistry::open(&dir).unwrap();
        let a = reg.register(&tiny(1), Lineage::default()).unwrap();
        reg.record_verdict(&a.hash, true, "candidate err 0.9 vs incumbent 0.2")
            .unwrap();
        assert!(matches!(
            reg.promote(&a.hash, false),
            Err(RegistryError::Refused(_))
        ));
        assert_eq!(
            reg.state(&reg.entry(&a.hash).unwrap().clone()),
            PromotionState::Rejected
        );
        reg.promote(&a.hash, true).unwrap();
        assert_eq!(reg.current(), Some(a.hash.as_str()));
        // A later ok verdict lifts the gate.
        reg.record_verdict(&a.hash, false, "re-evaluated").unwrap();
        reg.promote(&a.hash, false).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_current_and_recent_and_ignores_strays() {
        let dir = tmp_dir("gc");
        let mut reg = ModelRegistry::open(&dir).unwrap();
        let hashes: Vec<String> = (0..4)
            .map(|i| reg.register(&tiny(i), Lineage::default()).unwrap().hash)
            .collect();
        reg.promote(&hashes[0], false).unwrap();
        // A stray tmp from a crashed publication must be invisible and swept.
        fs::write(dir.join("models").join(".deadbeef.tmp"), "partial").unwrap();
        assert!(ModelRegistry::open(&dir).unwrap().list().len() == 4);

        let removed = reg.gc(2).unwrap();
        // Keep = {current = hashes[0]} ∪ {2 newest = hashes[2], hashes[3]}.
        assert_eq!(removed, vec![hashes[1].clone()]);
        assert!(!dir.join("models").join(".deadbeef.tmp").exists());
        assert!(reg.model_path(&hashes[0]).exists());
        assert!(!reg.model_path(&hashes[1]).exists());
        assert!(matches!(
            reg.promote(&hashes[1], true),
            Err(RegistryError::NotFound(_))
        ));
        // Lineage outlives the bytes.
        assert_eq!(reg.list().len(), 4);
        assert!(!reg.entry(&hashes[1]).unwrap().present);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_prefixes() {
        let dir = tmp_dir("resolve");
        let mut reg = ModelRegistry::open(&dir).unwrap();
        let a = reg.register(&tiny(1), Lineage::default()).unwrap();
        assert_eq!(reg.resolve(&a.hash[..6]).unwrap(), a.hash);
        assert!(matches!(
            reg.resolve("zzzz"),
            Err(RegistryError::NotFound(_))
        ));
        assert!(matches!(reg.resolve(""), Err(RegistryError::NotFound(_))));
        let _ = fs::remove_dir_all(&dir);
    }
}
