//! The artifact registry: digest-keyed, hot-reloadable, `Arc`-pinned.
//!
//! The daemon answers requests against [`CalibrationArtifact`]s loaded
//! from a registry directory. Each loaded artifact is wrapped in an
//! `Arc<LoadedArtifact>` bundling everything a request needs — the
//! prebuilt [`SearchCalibration`] (the artifact's base setup, tables
//! and block library, held once) and the cross-request
//! [`SharedStageMemo`] that keeps repeat searches warm.
//! Requests resolve a digest to an `Arc` **once** and hold that clone
//! for their whole lifetime, so a concurrent [`Registry::reload`] can
//! atomically swap the digest table without disturbing in-flight work:
//! old requests finish against the artifact they started with, new
//! requests see the new table.
//!
//! Reload semantics: the directory is rescanned
//! ([`lumos_calib::scan_registry_dir`]); digests already live keep
//! their existing entry (preserving the warm memo), new digests are
//! added, digests whose files disappeared are dropped from the table,
//! and files that fail to load are reported per-path without touching
//! any live entry.

use lumos_calib::{digest_hex, CalibrationArtifact};
use lumos_cost::AnalyticalCostModel;
use lumos_search::{SearchCalibration, SharedStageMemo};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, RwLock};

use crate::ServeError;

/// One servable artifact: everything a request needs, bundled so a
/// single `Arc` clone pins a consistent view.
#[derive(Debug)]
pub struct LoadedArtifact {
    /// Registry key: the artifact's content digest as `0x`-hex.
    pub digest: String,
    /// The verified artifact's base setup, recorded makespan, shared
    /// lookup model and block library.
    pub calibration: SearchCalibration<AnalyticalCostModel>,
    /// Cross-request stage-work memo, scoped to this artifact — one
    /// memo per calibration is what keeps the sharing sound.
    pub shared_memo: Arc<SharedStageMemo>,
}

impl LoadedArtifact {
    /// Bundles a verified artifact: resolves its hardware preset and
    /// prebuilds the calibration, then drops the artifact.
    ///
    /// # Errors
    ///
    /// Returns the artifact's hardware-preset name when this build
    /// does not know it.
    fn build(artifact: CalibrationArtifact) -> Result<Self, String> {
        let fallback = AnalyticalCostModel::from_preset(&artifact.hardware).ok_or_else(|| {
            format!(
                "unknown hardware preset `{}` (this build knows h100 and a100)",
                artifact.hardware
            )
        })?;
        let calibration = SearchCalibration::from_artifact(&artifact, fallback);
        Ok(LoadedArtifact {
            digest: digest_hex(artifact.digest),
            calibration,
            shared_memo: Arc::new(SharedStageMemo::new()),
        })
    }
}

/// What one reload (or the initial scan) did, per digest and per
/// rejected file.
#[derive(Debug, Default)]
pub struct ReloadOutcome {
    /// Digests newly added.
    pub loaded: Vec<String>,
    /// Digests already live and still present (entry kept, memo warm).
    pub kept: Vec<String>,
    /// Digests dropped because their files disappeared.
    pub dropped: Vec<String>,
    /// Files that failed to load: `(path, reason)`.
    pub rejected: Vec<(String, String)>,
}

/// The digest-keyed artifact table.
#[derive(Debug)]
pub struct Registry {
    dir: PathBuf,
    entries: RwLock<HashMap<String, Arc<LoadedArtifact>>>,
}

impl Registry {
    /// Opens a registry over `dir` and runs the initial scan.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Registry`] when the directory itself
    /// cannot be read; unloadable files are reported in the outcome,
    /// not fatal.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(Self, ReloadOutcome), ServeError> {
        let registry = Registry {
            dir: dir.into(),
            entries: RwLock::new(HashMap::new()),
        };
        let outcome = registry.reload()?;
        Ok((registry, outcome))
    }

    /// Resolves a digest to its pinned artifact. The returned `Arc`
    /// stays valid across any number of subsequent reloads.
    pub fn get(&self, digest: &str) -> Option<Arc<LoadedArtifact>> {
        self.entries
            .read()
            .expect("registry lock poisoned")
            .get(digest)
            .cloned()
    }

    /// Every live entry, sorted by digest (deterministic stats order).
    pub fn snapshot(&self) -> Vec<Arc<LoadedArtifact>> {
        let mut all: Vec<Arc<LoadedArtifact>> = self
            .entries
            .read()
            .expect("registry lock poisoned")
            .values()
            .cloned()
            .collect();
        all.sort_by(|a, b| a.digest.cmp(&b.digest));
        all
    }

    /// Rescans the directory and atomically swaps in the new table.
    /// See the module docs for the keep/add/drop semantics.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Registry`] only when the directory itself
    /// cannot be read — in that case the live table is left untouched.
    pub fn reload(&self) -> Result<ReloadOutcome, ServeError> {
        let scan = lumos_calib::scan_registry_dir(&self.dir).map_err(ServeError::Registry)?;
        let mut outcome = ReloadOutcome {
            rejected: scan
                .rejected
                .into_iter()
                .map(|(path, err)| (path.display().to_string(), err.to_string()))
                .collect(),
            ..ReloadOutcome::default()
        };

        // Build the replacement table outside the lock: loads and
        // preset resolution are the slow part, and in-flight lookups
        // must never block on them.
        let old: HashMap<String, Arc<LoadedArtifact>> =
            self.entries.read().expect("registry lock poisoned").clone();
        let mut next: HashMap<String, Arc<LoadedArtifact>> = HashMap::new();
        for scanned in scan.loaded {
            let digest = digest_hex(scanned.artifact.digest);
            if let Some(existing) = old.get(&digest) {
                // Same content digest ⇒ identical artifact; keep the
                // live entry so its warm memo survives the reload.
                if !next.contains_key(&digest) {
                    outcome.kept.push(digest.clone());
                }
                next.insert(digest, existing.clone());
                continue;
            }
            match LoadedArtifact::build(scanned.artifact) {
                Ok(loaded) => {
                    if !next.contains_key(&digest) {
                        outcome.loaded.push(digest.clone());
                    }
                    next.insert(digest, Arc::new(loaded));
                }
                Err(detail) => outcome
                    .rejected
                    .push((scanned.path.display().to_string(), detail)),
            }
        }
        for digest in old.keys() {
            if !next.contains_key(digest) {
                outcome.dropped.push(digest.clone());
            }
        }
        outcome.loaded.sort();
        outcome.kept.sort();
        outcome.dropped.sort();

        // The swap itself is a single write-lock assignment: in-flight
        // requests hold `Arc` clones and never notice.
        *self.entries.write().expect("registry lock poisoned") = next;
        Ok(outcome)
    }
}
