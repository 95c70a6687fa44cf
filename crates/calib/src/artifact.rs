//! The versioned calibration artifact itself.

use crate::error::CalibError;
use crate::fingerprint::TraceFingerprint;
use lumos_core::manipulate::BlockLibrary;
use lumos_cost::{CostModel, LookupCostModel, LookupTables};
use lumos_model::TrainingSetup;
use lumos_trace::ClusterTrace;
use serde::{Deserialize, Serialize};
use serde_json::Reader;
use std::path::Path;

/// The artifact format version this build reads and writes. Bump on
/// any incompatible change to the serialized shape of the artifact or
/// its bundled components; loading rejects every other version
/// (artifacts are cheap to regenerate — there is no migration).
pub const ARTIFACT_VERSION: u32 = 2;

/// The fields the digest covers, in document order: every field but
/// `digest` itself.
const CONTENT_FIELDS: [&str; 6] = [
    "version",
    "setup",
    "hardware",
    "fingerprint",
    "tables",
    "library",
];

/// Skims an artifact document, checking its syntax, for the text of
/// each content field. A repeated key keeps its last value, as in the
/// decode.
fn content_spans(text: &str) -> Result<[Option<&str>; 6], serde_json::Error> {
    let mut spans = [None; CONTENT_FIELDS.len()];
    let mut r = Reader::new(text);
    if r.peek()? == serde_json::Kind::Object {
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match CONTENT_FIELDS.iter().position(|field| *field == key) {
                Some(i) => spans[i] = Some(r.raw()?),
                None => r.skip()?,
            }
        }
    } else {
        r.skip()?;
    }
    r.end()?;
    Ok(spans)
}

/// FNV-1a over the content fields' text, in [`CONTENT_FIELDS`] order.
fn content_digest(spans: &[Option<&str>]) -> u64 {
    let bytes = spans.iter().flatten().flat_map(|text| text.bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

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
    /// FNV-1a digest over the compact JSON text of every other field,
    /// in document order, exactly as [`CalibrationArtifact::to_json`]
    /// writes it; re-checked on load, so corruption or hand-editing of
    /// any part — a space inside a field included — is rejected.
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
        let json = artifact.to_json();
        let spans = content_spans(&json).expect("artifacts serialize to JSON");
        artifact.digest = content_digest(&spans);
        Ok(artifact)
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
    /// first, then the presence of every content field, their shapes,
    /// and last the digest.
    ///
    /// # Errors
    ///
    /// Returns [`CalibError::Parse`], [`CalibError::VersionMismatch`],
    /// or [`CalibError::DigestMismatch`].
    pub fn from_json(text: &str) -> Result<Self, CalibError> {
        Self::parse(text, None)
    }

    /// One skim of the text finds its version and the span of each
    /// content field; one decode then builds the artifact straight
    /// from the text.
    fn parse(text: &str, path: Option<&str>) -> Result<Self, CalibError> {
        let invalid = |detail: String| CalibError::Parse {
            path: path.map(str::to_string),
            detail,
        };
        let spans = content_spans(text).map_err(|e| invalid(e.to_string()))?;
        // The version comes first, so a future format fails as a wrong
        // version rather than as a shape mismatch deep inside it.
        let version = spans[0]
            .and_then(|text| serde_json::from_str::<u64>(text).ok())
            .ok_or_else(|| invalid("missing `version` field".to_string()))?;
        if version != u64::from(ARTIFACT_VERSION) {
            return Err(CalibError::VersionMismatch {
                found: version as u32,
                expected: ARTIFACT_VERSION,
            });
        }
        if let Some(i) = spans.iter().position(Option::is_none) {
            return Err(invalid(format!("missing `{}` field", CONTENT_FIELDS[i])));
        }
        let artifact: CalibrationArtifact =
            serde_json::from_str(text).map_err(|e| invalid(e.to_string()))?;
        let computed = content_digest(&spans);
        if computed != artifact.digest {
            return Err(CalibError::DigestMismatch {
                stored: artifact.digest,
                computed,
            });
        }
        Ok(artifact)
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
