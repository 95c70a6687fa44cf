//! The versioned calibration artifact itself.

use crate::error::CalibError;
use crate::fingerprint::TraceFingerprint;
use lumos_core::manipulate::{value_digest, BlockLibrary};
use lumos_cost::{CostModel, LookupCostModel, LookupTables};
use lumos_model::TrainingSetup;
use lumos_trace::ClusterTrace;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// The content fields covered by [`CalibrationArtifact::digest`], in
/// hashing order (everything but the digest itself).
const CONTENT_FIELDS: [&str; 6] = [
    "version",
    "setup",
    "hardware",
    "fingerprint",
    "tables",
    "library",
];

/// Folds per-field digests into one (the digest of the array of
/// digests), so neither writer nor loader ever has to materialize one
/// combined value tree.
fn combine_digests(parts: &[u64]) -> u64 {
    value_digest(&parts.serialize_value())
}

/// The artifact format version this build reads and writes. Bump on
/// any incompatible change to the serialized shape of the artifact or
/// its bundled components; loading rejects every other version
/// (artifacts are cheap to regenerate — there is no migration).
pub const ARTIFACT_VERSION: u32 = 1;

/// Everything a consumer needs to answer what-if queries for one
/// profiled trace, without the trace: the fitted lookup tables, the
/// extracted block library, the base [`TrainingSetup`], the hardware
/// preset the calibration assumed, and a fingerprint of the source
/// trace.
///
/// Constructed by [`CalibrationArtifact::calibrate`], persisted with
/// [`CalibrationArtifact::save`] / loaded with
/// [`CalibrationArtifact::load`] (which checks the format version and
/// the whole-content digest). Predictions priced from a loaded
/// artifact are bit-identical to ones priced from a fresh fit of the
/// same trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationArtifact {
    /// Format version ([`ARTIFACT_VERSION`]).
    pub version: u32,
    /// The profiled deployment the trace came from — the base
    /// configuration of every query answered from this artifact.
    pub setup: TrainingSetup,
    /// Hardware-preset name the calibration assumed for fallback
    /// costs (e.g. `"h100"`).
    pub hardware: String,
    /// Identity of the source trace, checked whenever the artifact is
    /// used against a trace ([`CalibrationArtifact::verify_trace`]).
    pub fingerprint: TraceFingerprint,
    /// FNV-1a digest over the artifact's entire serialized content
    /// (every field except this one), re-checked on load — corruption
    /// or hand-editing of any part is rejected.
    pub digest: u64,
    /// The fitted compute/collective observation tables.
    pub tables: LookupTables,
    /// The reassembly block library extracted from the trace.
    pub library: BlockLibrary,
}

impl CalibrationArtifact {
    /// Fits a complete calibration from one profiled trace: lookup
    /// tables from every kernel observation, the block library from
    /// every annotation range, and the trace fingerprint.
    ///
    /// `hardware` names the fallback preset consumers should pair the
    /// tables with (purely informational at fit time — the tables
    /// themselves are model-free observations). `gpus_per_node`
    /// classifies collective placements; use the same value consumers
    /// will query with (the repository default is 8).
    ///
    /// # Errors
    ///
    /// Returns [`CalibError::Extraction`] when the trace has no
    /// annotation ranges to carve blocks from.
    pub fn calibrate(
        trace: &ClusterTrace,
        setup: &TrainingSetup,
        hardware: &str,
        gpus_per_node: u32,
    ) -> Result<Self, CalibError> {
        let tables = LookupTables::fit_from_trace(trace, gpus_per_node);
        let library = BlockLibrary::extract(trace, setup.parallelism)
            .map_err(|source| CalibError::Extraction { source })?;
        let mut artifact = CalibrationArtifact {
            version: ARTIFACT_VERSION,
            setup: setup.clone(),
            hardware: hardware.to_string(),
            fingerprint: TraceFingerprint::of(trace),
            digest: 0,
            tables,
            library,
        };
        artifact.digest = artifact.content_digest();
        Ok(artifact)
    }

    /// The digest of everything the artifact carries except the
    /// `digest` field itself: the combined [`value_digest`] of each
    /// content field's serialized tree, in declaration order.
    fn content_digest(&self) -> u64 {
        combine_digests(&[
            value_digest(&self.version.serialize_value()),
            value_digest(&self.setup.serialize_value()),
            value_digest(&self.hardware.serialize_value()),
            value_digest(&self.fingerprint.serialize_value()),
            value_digest(&self.tables.serialize_value()),
            value_digest(&self.library.serialize_value()),
        ])
    }

    /// Pairs the fitted tables with a fallback cost model — the model
    /// every query path prices kernels through. The tables are cloned;
    /// the artifact stays usable for further queries.
    pub fn cost_model<F: CostModel>(&self, fallback: F) -> LookupCostModel<F> {
        LookupCostModel::from_tables(self.tables.clone(), fallback)
    }

    /// Checks that `trace` is the trace this artifact was calibrated
    /// from.
    ///
    /// # Errors
    ///
    /// Returns [`CalibError::FingerprintMismatch`] naming the first
    /// differing field.
    pub fn verify_trace(&self, trace: &ClusterTrace) -> Result<(), CalibError> {
        let actual = TraceFingerprint::of(trace);
        match self.fingerprint.first_mismatch(&actual) {
            None => Ok(()),
            Some((field, artifact, trace)) => Err(CalibError::FingerprintMismatch {
                field,
                artifact,
                trace,
            }),
        }
    }

    /// Serializes to the on-disk JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("artifacts serialize")
    }

    /// Parses and validates an artifact document: format version
    /// first, then the whole-content digest.
    ///
    /// # Errors
    ///
    /// Returns [`CalibError::Parse`], [`CalibError::VersionMismatch`],
    /// or [`CalibError::DigestMismatch`].
    pub fn from_json(text: &str) -> Result<Self, CalibError> {
        Self::parse(text, None)
    }

    fn parse(text: &str, path: Option<&str>) -> Result<Self, CalibError> {
        // Check the version before deserializing the full payload so
        // future format changes fail with "wrong version", not with a
        // confusing shape mismatch from deep inside the document.
        let value: serde_json::Value =
            serde_json::from_str(text).map_err(|e| CalibError::Parse {
                path: path.map(str::to_string),
                detail: e.to_string(),
            })?;
        let version = value
            .get("version")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| CalibError::Parse {
                path: path.map(str::to_string),
                detail: "missing `version` field".to_string(),
            })?;
        if version != ARTIFACT_VERSION as u64 {
            return Err(CalibError::VersionMismatch {
                found: version as u32,
                expected: ARTIFACT_VERSION,
            });
        }
        // Hash the parsed content subtrees directly (integers and
        // strings round-trip the JSON layer exactly, so this equals
        // the digest computed when the artifact was written) — cheaper
        // than deserializing and re-serializing the payload.
        let mut parts = [0u64; CONTENT_FIELDS.len()];
        for (slot, field) in parts.iter_mut().zip(CONTENT_FIELDS) {
            *slot = value
                .get(field)
                .map(value_digest)
                .ok_or_else(|| CalibError::Parse {
                    path: path.map(str::to_string),
                    detail: format!("missing `{field}` field"),
                })?;
        }
        let computed = combine_digests(&parts);
        let artifact: CalibrationArtifact =
            serde_json::from_value(value).map_err(|e| CalibError::Parse {
                path: path.map(str::to_string),
                detail: e.to_string(),
            })?;
        if computed != artifact.digest {
            return Err(CalibError::DigestMismatch {
                stored: artifact.digest,
                computed,
            });
        }
        // Decoding allocated the artifact while its tree was live, so it
        // sits above the tree's freed memory; a copy made now fills that
        // hole instead. Without it, repeated loads beside other work
        // fragment a one-arena heap: perfbench's `robust-refine`, which
        // loads 20 times, peaked 15% higher.
        Ok(artifact.clone())
    }

    /// Writes the artifact to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CalibError::Io`] naming the path.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CalibError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json()).map_err(|source| CalibError::Io {
            path: path.display().to_string(),
            source,
        })
    }

    /// Reads and validates an artifact from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CalibError::Io`] (naming the path),
    /// [`CalibError::Parse`], [`CalibError::VersionMismatch`], or
    /// [`CalibError::DigestMismatch`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CalibError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|source| CalibError::Io {
            path: path.display().to_string(),
            source,
        })?;
        Self::parse(&text, Some(&path.display().to_string()))
    }
}
