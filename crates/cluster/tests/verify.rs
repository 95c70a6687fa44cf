//! Mutation suite for the static program verifier.
//!
//! Each test seeds one corruption class into an otherwise-valid job
//! and asserts the exact [`VerifyError`] variant — the corruption must
//! be caught *statically*, never reaching the engine's runtime
//! deadlock latch. Property tests hold the zero-false-positive
//! contract in both directions: every program lowered from a random
//! valid candidate verifies clean, and every verify-clean program
//! executes without [`lumos_cluster::EngineError::Deadlock`].
//!
//! The committed fixture `examples/fixtures/deadlock.json` (consumed
//! by the CI `lint-smoke` job via `lumos lint --job`) is pinned
//! against its generator here so it cannot rot silently.

use lumos_cluster::{
    lower, verify, EngineError, HostOp, JitterModel, KernelSpec, LoweredJob, NameId, PortableJob,
    PreparedJob, Program, SimConfig, VerifyError,
};
use lumos_cost::{AnalyticalCostModel, HostOverheads};
use lumos_model::{BatchConfig, ModelConfig, Parallelism, ScheduleKind};
use lumos_trace::{streams, CollectiveKind, CommMeta, KernelClass, StreamId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;

fn config(tp: u32, pp: u32, dp: u32) -> SimConfig {
    SimConfig {
        model: ModelConfig::tiny(),
        parallelism: Parallelism::new(tp, pp, dp).unwrap(),
        batch: BatchConfig {
            seq_len: 128,
            microbatch_size: 1,
            num_microbatches: 2 * pp,
        },
        schedule: ScheduleKind::OneFOneB,
    }
}

fn placeholder_config() -> SimConfig {
    SimConfig::new(ModelConfig::tiny(), Parallelism::new(1, 1, 1).unwrap())
}

fn collective_launch(p: &mut Program, kind: CollectiveKind, group: u64, seq: u32, bytes: u64) {
    let name = p.intern("nccl");
    p.main_mut().push(HostOp::Launch {
        spec: KernelSpec {
            name,
            class: KernelClass::Collective(CommMeta {
                kind,
                group,
                seq,
                bytes,
            }),
            stream: streams::TP_COMM,
        },
    });
}

fn engine_deadlocks(job: &LoweredJob) -> bool {
    matches!(
        PreparedJob::new(job).and_then(|p| p.execute_metrics(
            &AnalyticalCostModel::h100(),
            &HostOverheads::default(),
            &JitterModel::none(),
            0,
        )),
        Err(lumos_cluster::EngineError::Deadlock { .. })
    )
}

/// Two ranks issue the same two collective instances on one stream,
/// but in opposite seq order: every instance is consistent, yet the
/// cross-rank wait-for graph is a 2-cycle. This is the committed CI
/// fixture's generator.
fn swapped_seq_job() -> LoweredJob {
    let mut programs = Vec::new();
    for rank in 0..2u32 {
        let mut p = Program::new(rank);
        let seqs: [u32; 2] = if rank == 0 { [0, 1] } else { [1, 0] };
        for seq in seqs {
            collective_launch(&mut p, CollectiveKind::AllReduce, 7, seq, 4096);
        }
        p.main_mut().push(HostOp::StreamSync {
            stream: streams::TP_COMM,
        });
        programs.push(p);
    }
    LoweredJob {
        programs,
        groups: HashMap::from([(7u64, vec![0u32, 1u32])]),
        config: placeholder_config(),
    }
}

/// A stream wait whose record sits *behind* it on the same FIFO
/// stream: phase 1 passes, the wait-for walk finds a length-1 cycle.
fn self_cycle_job() -> LoweredJob {
    let mut p = Program::new(0);
    p.main_mut().push(HostOp::StreamWait {
        stream: streams::COMPUTE,
        event: 1,
    });
    p.main_mut().push(HostOp::EventRecord {
        stream: streams::COMPUTE,
        event: 1,
    });
    p.main_mut().push(HostOp::StreamSync {
        stream: streams::COMPUTE,
    });
    LoweredJob {
        programs: vec![p],
        groups: HashMap::new(),
        config: placeholder_config(),
    }
}

/// The main and backward threads each wait for the token the other
/// posts only afterwards: a cross-thread cycle through no stream.
fn token_cycle_job() -> LoweredJob {
    let mut p = Program::new(0);
    p.main_mut().push(HostOp::WaitPeer { token: 1 });
    p.main_mut().push(HostOp::SignalPeer { token: 2 });
    p.backward_mut().push(HostOp::WaitPeer { token: 2 });
    p.backward_mut().push(HostOp::SignalPeer { token: 1 });
    LoweredJob {
        programs: vec![p],
        groups: HashMap::new(),
        config: placeholder_config(),
    }
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/fixtures/deadlock.json")
}

fn fixture_job() -> LoweredJob {
    let text = std::fs::read_to_string(fixture_path()).unwrap();
    serde_json::from_str::<PortableJob>(&text)
        .unwrap()
        .into_job()
}

#[test]
fn lowered_jobs_verify_clean() {
    for (tp, pp, dp) in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 2)] {
        let job = lower(&config(tp, pp, dp)).unwrap();
        let report = verify(&job).unwrap();
        assert_eq!(report.programs as u32, tp * pp * dp);
        assert!(report.ops > 0);
        if tp > 1 {
            assert!(report.collectives > 0, "tp job has collective instances");
        }
        if pp > 1 {
            assert!(report.sendrecv > 0, "pp job has send/recv pairs");
        }
    }
}

#[test]
fn stream_sync_on_unused_stream_verifies_clean() {
    // Witness against false positives: syncing a stream with no
    // entries completes inline in the engine, so it must verify clean.
    let mut p = Program::new(0);
    p.main_mut().push(HostOp::StreamSync {
        stream: StreamId(42),
    });
    p.main_mut().push(HostOp::DeviceSync);
    let job = LoweredJob {
        programs: vec![p],
        groups: HashMap::new(),
        config: placeholder_config(),
    };
    let report = verify(&job).unwrap();
    assert_eq!(report.programs, 1);
    assert!(!engine_deadlocks(&job));
}

#[test]
fn token_handoff_verifies_clean() {
    let mut p = Program::new(0);
    p.main_mut().push(HostOp::SignalPeer { token: 3 });
    p.backward_mut().push(HostOp::WaitPeer { token: 3 });
    let job = LoweredJob {
        programs: vec![p],
        groups: HashMap::new(),
        config: placeholder_config(),
    };
    verify(&job).unwrap();
    assert!(!engine_deadlocks(&job));
}

#[test]
fn mutation_dropped_collective_is_caught() {
    let mut job = lower(&config(2, 1, 1)).unwrap();
    let victim = &mut job.programs[1];
    let mut removed = false;
    for t in &mut victim.threads {
        let pos = t.ops.iter().position(|op| {
            matches!(
                op,
                HostOp::Launch { spec }
                    if matches!(
                        spec.class,
                        KernelClass::Collective(m) if m.kind != CollectiveKind::SendRecv
                    )
            )
        });
        if let Some(pos) = pos {
            t.ops.remove(pos);
            removed = true;
            break;
        }
    }
    assert!(removed, "tp job must contain a collective launch to drop");
    let err = verify(&job).unwrap_err();
    assert!(
        matches!(&err, VerifyError::CollectiveMissing { missing, .. } if missing == &vec![1u32]),
        "{err:?}"
    );
    // The same corruption trips the engine's runtime latch — verify
    // catches it without simulating anything.
    assert!(engine_deadlocks(&job));
}

#[test]
fn mutation_swapped_seq_order_is_caught_as_deadlock() {
    let job = swapped_seq_job();
    let err = verify(&job).unwrap_err();
    let VerifyError::Deadlock { ref chain, cycle } = err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert!(cycle, "swapped seqs form a true cycle: {err}");
    assert!(chain.len() >= 2, "{err}");
    let msg = err.to_string();
    assert!(msg.contains("static deadlock"), "{msg}");
    assert!(msg.contains("group 7"), "{msg}");
    assert!(msg.contains("awaiting rank"), "{msg}");
    assert!(engine_deadlocks(&job));
}

#[test]
fn mutation_unmatched_send_is_caught() {
    let mut p0 = Program::new(0);
    collective_launch(&mut p0, CollectiveKind::SendRecv, 5, 0, 2048);
    let p1 = Program::new(1);
    let job = LoweredJob {
        programs: vec![p0, p1],
        groups: HashMap::from([(5u64, vec![0u32, 1u32])]),
        config: placeholder_config(),
    };
    let err = verify(&job).unwrap_err();
    assert!(
        matches!(
            &err,
            VerifyError::SendRecvUnmatched { group: 5, issued, missing, .. }
                if issued == &vec![0u32] && missing == &vec![1u32]
        ),
        "{err:?}"
    );
}

#[test]
fn mutation_dangling_name_id_is_caught() {
    let mut p = Program::new(0);
    p.main_mut().push(HostOp::CpuOp { name: NameId(1234) });
    let job = LoweredJob {
        programs: vec![p],
        groups: HashMap::new(),
        config: placeholder_config(),
    };
    let err = verify(&job).unwrap_err();
    assert!(
        matches!(err, VerifyError::UnknownName { rank: 0, id: 1234 }),
        "{err:?}"
    );
}

#[test]
fn mutation_unknown_group_is_caught() {
    let mut p = Program::new(0);
    collective_launch(&mut p, CollectiveKind::AllReduce, 42, 0, 64);
    let job = LoweredJob {
        programs: vec![p],
        groups: HashMap::new(),
        config: placeholder_config(),
    };
    let err = verify(&job).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::UnknownGroup {
                rank: 0,
                group: 42,
                seq: 0
            }
        ),
        "{err:?}"
    );
}

#[test]
fn collective_kind_mismatch_is_caught() {
    let mut p0 = Program::new(0);
    collective_launch(&mut p0, CollectiveKind::AllReduce, 9, 0, 512);
    let mut p1 = Program::new(1);
    collective_launch(&mut p1, CollectiveKind::AllGather, 9, 0, 512);
    let job = LoweredJob {
        programs: vec![p0, p1],
        groups: HashMap::from([(9u64, vec![0u32, 1u32])]),
        config: placeholder_config(),
    };
    let err = verify(&job).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::CollectiveKindMismatch {
                group: 9,
                seq: 0,
                rank: 1,
                kind: CollectiveKind::AllGather,
                expected_rank: 0,
                expected: CollectiveKind::AllReduce,
            }
        ),
        "{err:?}"
    );
}

#[test]
fn collective_bytes_mismatch_is_caught() {
    let mut p0 = Program::new(0);
    collective_launch(&mut p0, CollectiveKind::AllReduce, 9, 0, 512);
    let mut p1 = Program::new(1);
    collective_launch(&mut p1, CollectiveKind::AllReduce, 9, 0, 1024);
    let job = LoweredJob {
        programs: vec![p0, p1],
        groups: HashMap::from([(9u64, vec![0u32, 1u32])]),
        config: placeholder_config(),
    };
    let err = verify(&job).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::CollectiveBytesMismatch {
                rank: 1,
                bytes: 1024,
                expected: 512,
                ..
            }
        ),
        "{err:?}"
    );
}

#[test]
fn duplicate_rank_is_caught() {
    let job = LoweredJob {
        programs: vec![Program::new(3), Program::new(3)],
        groups: HashMap::new(),
        config: placeholder_config(),
    };
    let err = verify(&job).unwrap_err();
    assert!(
        matches!(err, VerifyError::DuplicateRank { rank: 3 }),
        "{err:?}"
    );
}

#[test]
fn never_signaled_token_is_caught() {
    let mut p = Program::new(0);
    p.backward_mut().push(HostOp::WaitPeer { token: 9 });
    let job = LoweredJob {
        programs: vec![p],
        groups: HashMap::new(),
        config: placeholder_config(),
    };
    let err = verify(&job).unwrap_err();
    assert!(
        matches!(err, VerifyError::TokenNeverSignaled { rank: 0, token: 9 }),
        "{err:?}"
    );
}

#[test]
fn wait_without_record_is_caught() {
    let mut p = Program::new(0);
    p.main_mut().push(HostOp::StreamWait {
        stream: streams::COMPUTE,
        event: 3,
    });
    let job = LoweredJob {
        programs: vec![p],
        groups: HashMap::new(),
        config: placeholder_config(),
    };
    let err = verify(&job).unwrap_err();
    assert!(
        matches!(err, VerifyError::WaitWithoutRecord { rank: 0, event: 3 }),
        "{err:?}"
    );
}

#[test]
fn wait_recorded_later_on_same_stream_is_a_self_cycle() {
    // The record exists but sits *behind* the wait on the same FIFO
    // stream: phase 1 passes, the wait-for walk finds a length-1
    // cycle.
    let mut p = Program::new(0);
    p.main_mut().push(HostOp::StreamWait {
        stream: streams::COMPUTE,
        event: 1,
    });
    p.main_mut().push(HostOp::EventRecord {
        stream: streams::COMPUTE,
        event: 1,
    });
    p.main_mut().push(HostOp::StreamSync {
        stream: streams::COMPUTE,
    });
    let job = LoweredJob {
        programs: vec![p],
        groups: HashMap::new(),
        config: placeholder_config(),
    };
    let err = verify(&job).unwrap_err();
    assert!(
        matches!(err, VerifyError::Deadlock { cycle: true, .. }),
        "{err:?}"
    );
    assert!(engine_deadlocks(&job));
}

#[test]
fn portable_job_round_trips_through_json() {
    let job = lower(&config(2, 2, 1)).unwrap();
    let original = verify(&job).unwrap();
    let text = serde_json::to_string(&PortableJob::from_job(&job)).unwrap();
    let parsed: PortableJob = serde_json::from_str(&text).unwrap();
    let restored = parsed.into_job();
    let report = verify(&restored).unwrap();
    assert_eq!(report, original);
}

#[test]
fn committed_fixture_is_rejected_with_named_cycle() {
    let text = std::fs::read_to_string(fixture_path()).unwrap();
    let parsed: PortableJob = serde_json::from_str(&text).unwrap();
    let err = verify(&parsed.into_job()).unwrap_err();
    assert!(
        matches!(err, VerifyError::Deadlock { cycle: true, .. }),
        "{err:?}"
    );
    let msg = err.to_string();
    assert!(msg.contains("static deadlock"), "{msg}");
    assert!(msg.contains("group 7"), "{msg}");
}

/// One deadlock diagnostic: a costed engine run that stalls reports
/// exactly the chain `verify` names, so a runtime deadlock and
/// `lumos lint` print the same steps.
#[test]
fn engine_deadlock_carries_the_verify_chain() {
    let jobs = [
        ("committed fixture", fixture_job()),
        ("swapped seq order", swapped_seq_job()),
        ("wait before record", self_cycle_job()),
        ("token cycle", token_cycle_job()),
    ];
    for (name, job) in jobs {
        let verified = verify(&job).unwrap_err();
        let VerifyError::Deadlock { ref chain, cycle } = verified else {
            panic!("{name}: expected a verify deadlock, got {verified:?}");
        };
        let executed = PreparedJob::new(&job)
            .and_then(|p| {
                p.execute_metrics(
                    &AnalyticalCostModel::h100(),
                    &HostOverheads::default(),
                    &JitterModel::none(),
                    0,
                )
            })
            .unwrap_err();
        let EngineError::Deadlock {
            chain: ref engine_chain,
            cycle: engine_cycle,
        } = executed
        else {
            panic!("{name}: expected an engine deadlock, got {executed:?}");
        };
        assert_eq!(engine_chain, chain, "{name}");
        assert_eq!(engine_cycle, cycle, "{name}");
        assert!(!chain.is_empty(), "{name}");
        let runtime = executed.to_string();
        let lint = verified.to_string();
        assert_eq!(
            runtime.strip_prefix("execution deadlocked: "),
            lint.strip_prefix("static deadlock: "),
            "{name}"
        );
    }
}

#[test]
fn committed_fixture_matches_generator() {
    let expected =
        serde_json::to_string_pretty(&PortableJob::from_job(&swapped_seq_job())).unwrap();
    let committed = std::fs::read_to_string(fixture_path()).unwrap();
    assert_eq!(
        committed.trim_end(),
        expected,
        "fixture drifted from its generator; regenerate with \
         `cargo test -p lumos-cluster --test verify regenerate_deadlock_fixture -- --ignored`"
    );
}

#[test]
#[ignore = "writes the committed fixture; run manually after changing the generator"]
fn regenerate_deadlock_fixture() {
    let json = serde_json::to_string_pretty(&PortableJob::from_job(&swapped_seq_job())).unwrap();
    std::fs::write(fixture_path(), json + "\n").unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zero false positives / zero false negatives on the lowering
    /// path: every job lowered from a valid candidate verifies clean,
    /// and (being verify-clean) executes without a deadlock.
    #[test]
    fn lowered_candidates_verify_clean_and_execute(
        tp_i in 0usize..3,
        pp_i in 0usize..2,
        dp in 1u32..3,
        mb in 1u32..4,
    ) {
        let tp = [1u32, 2, 4][tp_i];
        let pp = [1u32, 2][pp_i];
        let Ok(parallelism) = Parallelism::new(tp, pp, dp) else {
            return Ok(());
        };
        let config = SimConfig {
            model: ModelConfig::tiny(),
            parallelism,
            batch: BatchConfig {
                seq_len: 128,
                microbatch_size: 1,
                num_microbatches: mb * pp,
            },
            schedule: ScheduleKind::OneFOneB,
        };
        if config.validate().is_err() {
            return Ok(());
        }
        let job = lower(&config).unwrap();
        let report = verify(&job).unwrap();
        prop_assert_eq!(report.programs as u32, tp * pp * dp);
        let metrics = PreparedJob::new(&job).and_then(|p| {
            p.execute_metrics(
                &AnalyticalCostModel::h100(),
                &HostOverheads::default(),
                &JitterModel::none(),
                0,
            )
        });
        prop_assert!(metrics.is_ok(), "verify-clean job must execute: {:?}", metrics.err());
    }
}
