//! Calibration artifacts: fit once, query many.
//!
//! Lumos's workflow is "profile one iteration, then answer many
//! what-if questions from it" (§3.4) — but fitting the question-
//! answering machinery (the [`lumos_cost::LookupTables`] priced from
//! every kernel observation and the
//! [`BlockLibrary`](lumos_core::manipulate::BlockLibrary) carved out of
//! every annotation range) costs a full walk over the trace. This
//! crate makes that fit a **persistent, versioned artifact** so the
//! walk happens once per trace instead of once per invocation:
//!
//! ```text
//! lumos calibrate trace.json --out trace.calib.json   # fit once
//! lumos predict --calib trace.calib.json --dp 8       # query many,
//! lumos search  --calib trace.calib.json --dp 1,2,4   # no re-ingest
//! ```
//!
//! # Artifact format and versioning policy
//!
//! An artifact is a single JSON document with these fields:
//!
//! * `version` — the format version ([`ARTIFACT_VERSION`]). Loading
//!   rejects any other value: artifacts are cheap to regenerate from
//!   their source trace, so there is no cross-version migration —
//!   bump the constant whenever the serialized shape of any bundled
//!   component changes incompatibly;
//! * `setup` — the [`lumos_model::TrainingSetup`] of the profiled
//!   deployment (what `predict`/`search` treat as the base
//!   configuration);
//! * `hardware` — the hardware-preset name the calibration assumed
//!   for fallback costs (e.g. `"h100"`); consumers resolve the same
//!   preset (`AnalyticalCostModel::from_preset`) so reloaded
//!   predictions are bit-identical to fit-on-the-fly ones;
//! * `fingerprint` — a [`TraceFingerprint`] of the source trace
//!   (event count, rank count, makespan, content hash), checked when
//!   an artifact is used *against* a trace so a stale artifact can
//!   never silently price the wrong workload;
//! * `digest` — FNV-1a digest over every other field's serialized
//!   content, re-computed and checked on load (bit-rot / hand-edit
//!   detection for the whole payload);
//! * `tables` — the fitted [`lumos_cost::LookupTables`];
//! * `library` — the extracted
//!   [`BlockLibrary`](lumos_core::manipulate::BlockLibrary).
//!
//! Round-trips are bit-exact: a prediction priced from a reloaded
//! artifact is identical — output bytes included — to one priced from
//! a fresh fit of the same trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod error;
mod fingerprint;
mod registry;

pub use artifact::{CalibrationArtifact, ARTIFACT_VERSION};
pub use error::CalibError;
pub use fingerprint::TraceFingerprint;
pub use registry::{digest_hex, scan_registry_dir, ScanReport, ScannedArtifact};
