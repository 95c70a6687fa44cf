//! Artifact guarantees:
//!
//! * serialize → deserialize → predict is bit-identical to predicting
//!   from a freshly fitted model (property-tested over transforms);
//! * version and fingerprint mismatches are typed rejections;
//! * tampered content fails the digest check.

use lumos_calib::{CalibError, CalibrationArtifact, TraceFingerprint, ARTIFACT_VERSION};
use lumos_cluster::{GroundTruthCluster, JitterModel};
use lumos_core::manipulate::Transform;
use lumos_core::Lumos;
use lumos_cost::AnalyticalCostModel;
use lumos_model::{BatchConfig, ModelConfig, Parallelism, ScheduleKind, TrainingSetup};
use lumos_trace::{to_chrome_json, ChromeTraceOptions, ClusterTrace};
use proptest::prelude::*;
use std::sync::OnceLock;

fn base_setup() -> TrainingSetup {
    TrainingSetup {
        model: ModelConfig::custom("artifact-e2e", 8, 256, 1024, 4, 64),
        parallelism: Parallelism::new(1, 2, 2).unwrap(),
        batch: BatchConfig {
            seq_len: 128,
            microbatch_size: 1,
            num_microbatches: 4,
        },
        schedule: ScheduleKind::OneFOneB,
    }
}

fn shared() -> &'static (TrainingSetup, ClusterTrace, CalibrationArtifact) {
    static CELL: OnceLock<(TrainingSetup, ClusterTrace, CalibrationArtifact)> = OnceLock::new();
    CELL.get_or_init(|| {
        let base = base_setup();
        let trace = GroundTruthCluster::new(&base, AnalyticalCostModel::h100())
            .unwrap()
            .with_jitter(JitterModel::realistic(42))
            .profile_iteration(0)
            .unwrap()
            .trace;
        let artifact = CalibrationArtifact::calibrate(&trace, &base, "h100", 8).unwrap();
        (base, trace, artifact)
    })
}

#[test]
fn round_trip_is_exact() {
    let (_, trace, artifact) = shared();
    let json = artifact.to_json();
    let back = CalibrationArtifact::from_json(&json).unwrap();
    assert_eq!(&back, artifact);
    // Deterministic encoding: the reloaded artifact re-serializes to
    // the same bytes.
    assert_eq!(back.to_json(), json);
    // And still verifies against its source trace.
    back.verify_trace(trace).unwrap();
    assert_eq!(back.fingerprint, TraceFingerprint::of(trace));
}

#[test]
fn schedule_keeps_its_pre_registry_wire_name() {
    // The schedule registry refactor must not move serialized
    // artifacts: the wire encoding stays the old enum variant string,
    // so artifacts written before the registry load unchanged (and
    // re-encode byte-identically, per `round_trip_is_exact`).
    let (_, _, artifact) = shared();
    let json = artifact.to_json();
    assert!(
        json.contains("\"OneFOneB\""),
        "schedule lost its legacy wire name"
    );
    let back = CalibrationArtifact::from_json(&json).unwrap();
    assert_eq!(back.setup.schedule, ScheduleKind::OneFOneB);
    assert_eq!(back.setup.schedule.name(), "1f1b");
}

#[test]
fn version_mismatch_rejected_before_payload() {
    let (_, _, artifact) = shared();
    let json = artifact.to_json();
    let wrong = json.replace(
        &format!("\"version\":{ARTIFACT_VERSION}"),
        "\"version\":9999",
    );
    assert_ne!(wrong, json, "version field must exist in the document");
    match CalibrationArtifact::from_json(&wrong) {
        Err(CalibError::VersionMismatch { found, expected }) => {
            assert_eq!(found, 9999);
            assert_eq!(expected, ARTIFACT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn version_one_documents_are_refused() {
    // Format 1 hashed value trees; its artifacts must be recalibrated.
    let (_, _, artifact) = shared();
    let json = artifact.to_json().replacen(
        &format!("\"version\":{ARTIFACT_VERSION}"),
        "\"version\":1",
        1,
    );
    match CalibrationArtifact::from_json(&json) {
        Err(CalibError::VersionMismatch { found: 1, expected }) => {
            assert_eq!(expected, ARTIFACT_VERSION)
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a<'a>(bytes: impl IntoIterator<Item = &'a u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn digest_is_fnv1a_over_the_written_field_texts() {
    let (_, _, artifact) = shared();
    let json = artifact.to_json();
    let texts = [
        serde_json::to_string(&artifact.version).unwrap(),
        serde_json::to_string(&artifact.setup).unwrap(),
        serde_json::to_string(&artifact.hardware).unwrap(),
        serde_json::to_string(&artifact.fingerprint).unwrap(),
        serde_json::to_string(&artifact.tables).unwrap(),
        serde_json::to_string(&artifact.library).unwrap(),
    ];
    for (key, text) in [
        "version",
        "setup",
        "hardware",
        "fingerprint",
        "tables",
        "library",
    ]
    .iter()
    .zip(&texts)
    {
        assert!(json.contains(&format!("\"{key}\":{text}")), "{key}");
    }
    assert_eq!(
        artifact.digest,
        fnv1a(texts.iter().flat_map(|t| t.as_bytes()))
    );
}

#[test]
fn whitespace_inside_any_content_field_fails_digest() {
    let (_, _, artifact) = shared();
    let json = artifact.to_json();
    // Whitespace between fields is not content...
    let spaced = json.replacen(",\"library\":", ", \"library\" : ", 1);
    assert_eq!(CalibrationArtifact::from_json(&spaced).unwrap(), *artifact);
    // ...but inside one it is. (`version` is a bare number: it has no
    // inside.)
    for key in ["setup", "hardware", "fingerprint", "tables", "library"] {
        let value = json.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
        let mut tampered = json.clone();
        tampered.insert(value + 1, ' ');
        let err = CalibrationArtifact::from_json(&tampered).unwrap_err();
        assert!(
            matches!(err, CalibError::DigestMismatch { .. }),
            "{key}: {err}"
        );
    }
}

#[test]
fn tampered_library_fails_digest() {
    let (_, _, artifact) = shared();
    let mut tampered = artifact.clone();
    tampered.library.host.launch = lumos_trace::Dur::from_us(12345);
    let err = CalibrationArtifact::from_json(&tampered.to_json()).unwrap_err();
    assert!(matches!(err, CalibError::DigestMismatch { .. }), "{err}");
    assert!(err.to_string().contains("digest"), "{err}");
}

#[test]
fn digest_covers_every_content_field() {
    let (_, _, artifact) = shared();
    // Tampering with *any* part of the payload — not just the block
    // library — must fail the load-time digest check.
    let mut bad_tables = artifact.clone();
    bad_tables
        .tables
        .record_compute(lumos_trace::KernelClass::Other, lumos_trace::Dur(1));
    let mut bad_setup = artifact.clone();
    bad_setup.setup.model.hidden_size += 1;
    let mut bad_fingerprint = artifact.clone();
    bad_fingerprint.fingerprint.events += 1;
    let mut bad_hardware = artifact.clone();
    bad_hardware.hardware = "h999".to_string();
    for tampered in [bad_tables, bad_setup, bad_fingerprint, bad_hardware] {
        let err = CalibrationArtifact::from_json(&tampered.to_json()).unwrap_err();
        assert!(matches!(err, CalibError::DigestMismatch { .. }), "{err}");
    }
}

#[test]
fn fingerprint_mismatch_names_field() {
    let (base, _, artifact) = shared();
    // A different seed produces a different trace of the same shape
    // class.
    let other = GroundTruthCluster::new(base, AnalyticalCostModel::h100())
        .unwrap()
        .with_jitter(JitterModel::realistic(7))
        .profile_iteration(0)
        .unwrap()
        .trace;
    let err = artifact.verify_trace(&other).unwrap_err();
    assert!(
        matches!(err, CalibError::FingerprintMismatch { .. }),
        "{err}"
    );
    assert!(err.to_string().contains("does not match"), "{err}");
}

#[test]
fn missing_fields_are_parse_errors() {
    assert!(matches!(
        CalibrationArtifact::from_json("{}"),
        Err(CalibError::Parse { .. })
    ));
    assert!(matches!(
        CalibrationArtifact::from_json("not json"),
        Err(CalibError::Parse { .. })
    ));
    // Right version, but the library payload is missing entirely.
    let bare = format!("{{\"version\":{}}}", ARTIFACT_VERSION);
    assert!(matches!(
        CalibrationArtifact::from_json(&bare),
        Err(CalibError::Parse { .. })
    ));
}

/// The timeline a prediction simulates, as comparable bytes.
fn predicted_bytes(p: &lumos_core::manipulate::Prediction) -> String {
    format!(
        "{}|{}|{}",
        p.replayed.makespan().as_ns(),
        p.setup.label(),
        to_chrome_json(&p.replayed.trace(), &ChromeTraceOptions::default())
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// serialize → deserialize → predict equals predict from a fresh
    /// fit, bit for bit, across a range of transform stacks.
    #[test]
    fn round_tripped_predictions_bit_identical(
        dp in prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
        pp in prop_oneof![Just(1u32), Just(2), Just(4)],
        microbatches in prop_oneof![Just(2u32), Just(4), Just(8)],
        layers in prop_oneof![Just(4u32), Just(8), Just(16)],
    ) {
        let (base, trace, artifact) = shared();
        let transforms = vec![
            Transform::PipelineParallel { pp },
            Transform::DataParallel { dp },
            Transform::Microbatches { num: microbatches },
            Transform::NumLayers { layers },
        ];

        let lumos = Lumos::new();
        let fresh = lumos.predict(trace, base, &transforms, AnalyticalCostModel::h100());

        let reloaded = CalibrationArtifact::from_json(&artifact.to_json()).unwrap();
        let lookup = reloaded.cost_model(AnalyticalCostModel::h100());
        let calibrated =
            lumos.predict_with_library(&reloaded.library, &reloaded.setup, &transforms, &lookup);

        match (fresh, calibrated) {
            (Ok(a), Ok(b)) => prop_assert_eq!(predicted_bytes(&a), predicted_bytes(&b)),
            // Invalid stacks (e.g. layers not divisible by pp) must
            // fail identically on both paths.
            (Err(ea), Err(eb)) => prop_assert_eq!(ea.to_string(), eb.to_string()),
            (a, b) => prop_assert!(false, "paths diverged: {a:?} vs {b:?}"),
        }
    }
}
