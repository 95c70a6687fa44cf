//! Whole-job verification: prove a [`LoweredJob`] well-formed and
//! deadlock-free **before** a costed simulation of it runs.
//!
//! Four phases, each with a typed diagnostic:
//!
//! 1. **Referential integrity** — every [`crate::program::NameId`]
//!    resolves, annotations balance, cross-thread tokens are signaled
//!    exactly once, no rank is declared by two programs, every
//!    `StreamWait` has a producing `EventRecord`, and every collective
//!    launch names a registered communicator group the launching rank
//!    belongs to.
//! 2. **Collective consistency** — all members of a group issue each
//!    `(group, seq)` instance exactly once, with the same
//!    [`CollectiveKind`] and payload bytes; the first divergent rank
//!    and op are named.
//! 3. **Point-to-point matching** — send/recv instances
//!    ([`CollectiveKind::SendRecv`]) must be issued by both members of
//!    their pair group; a lone send (or recv) is reported with the
//!    ranks present and missing.
//! 4. **Deadlock freedom** — one run of the engine itself, through
//!    the metrics-only path with every cost at zero. Which entity
//!    blocks is purely structural — costs only move clocks — so this
//!    run stalls if and only if every costed run of the job would. A
//!    stall comes back as the engine's own
//!    [`crate::EngineError::Deadlock`] report: the cross-rank wait-for
//!    chain, step by step (rank → entity → waited-on resource → rank →
//!    …), which [`VerifyError::Deadlock`] carries unchanged.
//!
//! Zero false positives is a hard requirement: every job the engine
//! executes successfully must pass [`verify`] clean. The proptest
//! suite in `tests/verify.rs` holds both directions.

use crate::engine::{write_chain, CycleStep, EngineError};
use crate::exec::PreparedJob;
use crate::jitter::JitterModel;
use crate::lower::{LoweredJob, SimConfig};
use crate::program::{HostOp, KernelSpec, Program};
use lumos_cost::{CostModel, HostOverheads};
use lumos_model::{ModelConfig, Parallelism};
use lumos_trace::{CollectiveKind, Dur, KernelClass, ThreadId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::error::Error;
use std::fmt;

/// A violation found by static verification. The taxonomy follows the
/// four check phases (see the module docs); `docs/verify-checks.md`
/// catalogues each variant with an example diagnostic.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VerifyError {
    /// An op references a name id absent from its program's table.
    UnknownName {
        /// Rank of the offending program.
        rank: u32,
        /// The dangling raw name id.
        id: u32,
    },
    /// An `AnnotationEnd` without a matching `AnnotationBegin`.
    UnmatchedAnnotationEnd {
        /// Rank of the offending program.
        rank: u32,
        /// Thread with the unbalanced annotation.
        tid: ThreadId,
    },
    /// A thread ends with annotation ranges still open.
    UnclosedAnnotations {
        /// Rank of the offending program.
        rank: u32,
        /// Thread with the unbalanced annotation.
        tid: ThreadId,
        /// How many ranges stayed open.
        open: i64,
    },
    /// A cross-thread token is posted twice in one program.
    TokenSignaledTwice {
        /// Rank of the offending program.
        rank: u32,
        /// The doubly-signaled token.
        token: u32,
    },
    /// A `WaitPeer` token that no `SignalPeer` in the program posts.
    TokenNeverSignaled {
        /// Rank of the offending program.
        rank: u32,
        /// The never-signaled token.
        token: u32,
    },
    /// Two programs declare the same global rank.
    DuplicateRank {
        /// The rank declared twice.
        rank: u32,
    },
    /// A `StreamWait` on an event no `EventRecord` in the program ever
    /// records — the enqueued wait entry could never drain.
    WaitWithoutRecord {
        /// Rank of the offending program.
        rank: u32,
        /// The unrecorded per-rank CUDA event id.
        event: u32,
    },
    /// A collective launch references a communicator group absent from
    /// [`LoweredJob::groups`].
    UnknownGroup {
        /// Rank of the launching program.
        rank: u32,
        /// The unregistered communicator id.
        group: u64,
        /// Issue index of the launch.
        seq: u32,
    },
    /// A rank launches a collective on a group it is not a member of —
    /// its arrival would never be counted toward the rendezvous.
    ForeignGroup {
        /// The non-member launching rank.
        rank: u32,
        /// Communicator id.
        group: u64,
        /// Issue index of the launch.
        seq: u32,
    },
    /// A collective instance some group members never issue.
    CollectiveMissing {
        /// Communicator id.
        group: u64,
        /// Issue index.
        seq: u32,
        /// Kind issued by the ranks that did launch it.
        kind: CollectiveKind,
        /// Ranks that issued the instance.
        issued: Vec<u32>,
        /// Member ranks that never issue it.
        missing: Vec<u32>,
    },
    /// A rank issues the same collective instance more than once.
    CollectiveDuplicate {
        /// Communicator id.
        group: u64,
        /// Issue index.
        seq: u32,
        /// The over-issuing rank.
        rank: u32,
        /// How many times it launched the instance.
        launches: usize,
    },
    /// Members of one collective instance disagree on the kind.
    CollectiveKindMismatch {
        /// Communicator id.
        group: u64,
        /// Issue index.
        seq: u32,
        /// First divergent rank.
        rank: u32,
        /// What the divergent rank issues.
        kind: CollectiveKind,
        /// Reference rank (first issuer in program order).
        expected_rank: u32,
        /// What the reference rank issues.
        expected: CollectiveKind,
    },
    /// Members of one collective instance disagree on the payload.
    CollectiveBytesMismatch {
        /// Communicator id.
        group: u64,
        /// Issue index.
        seq: u32,
        /// First divergent rank.
        rank: u32,
        /// Payload bytes the divergent rank contributes.
        bytes: u64,
        /// Reference rank (first issuer in program order).
        expected_rank: u32,
        /// Payload bytes the reference rank contributes.
        expected: u64,
    },
    /// A send/recv instance missing one side of its pair.
    SendRecvUnmatched {
        /// Pair communicator id.
        group: u64,
        /// Issue index.
        seq: u32,
        /// Ranks that launched their side.
        issued: Vec<u32>,
        /// Member ranks with no matching launch.
        missing: Vec<u32>,
    },
    /// The cross-rank wait-for graph has a cycle (or a chain ending in
    /// a resource nothing will produce): the job would deadlock.
    Deadlock {
        /// The chain, stuck entity by stuck entity.
        chain: Vec<CycleStep>,
        /// `true` when the chain closes on itself (a true cycle);
        /// `false` when it dead-ends in an unproducible resource.
        cycle: bool,
    },
    /// A structural violation not covered by a dedicated variant.
    Malformed {
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UnknownName { rank, id } => {
                write!(f, "rank {rank}: op references unknown name id {id}")
            }
            VerifyError::UnmatchedAnnotationEnd { rank, tid } => {
                write!(f, "rank {rank} {tid:?}: unmatched AnnotationEnd")
            }
            VerifyError::UnclosedAnnotations { rank, tid, open } => {
                write!(f, "rank {rank} {tid:?}: {open} unclosed annotations")
            }
            VerifyError::TokenSignaledTwice { rank, token } => {
                write!(f, "rank {rank}: token {token} signaled twice")
            }
            VerifyError::TokenNeverSignaled { rank, token } => {
                write!(f, "rank {rank}: token {token} waited but never signaled")
            }
            VerifyError::DuplicateRank { rank } => {
                write!(f, "rank {rank} declared by more than one program")
            }
            VerifyError::WaitWithoutRecord { rank, event } => {
                write!(
                    f,
                    "rank {rank}: StreamWait on event {event} that no EventRecord ever records"
                )
            }
            VerifyError::UnknownGroup { rank, group, seq } => {
                write!(
                    f,
                    "rank {rank}: collective seq {seq} references unknown communicator group {group}"
                )
            }
            VerifyError::ForeignGroup { rank, group, seq } => {
                write!(
                    f,
                    "rank {rank}: launches collective (group {group}, seq {seq}) \
                     without being a member of the group"
                )
            }
            VerifyError::CollectiveMissing {
                group,
                seq,
                kind,
                issued,
                missing,
            } => {
                write!(
                    f,
                    "collective {kind:?} (group {group}, seq {seq}): \
                     rank(s) {missing:?} never issue it (issued by {issued:?})"
                )
            }
            VerifyError::CollectiveDuplicate {
                group,
                seq,
                rank,
                launches,
            } => {
                write!(
                    f,
                    "collective (group {group}, seq {seq}): rank {rank} issues it {launches} times"
                )
            }
            VerifyError::CollectiveKindMismatch {
                group,
                seq,
                rank,
                kind,
                expected_rank,
                expected,
            } => {
                write!(
                    f,
                    "collective (group {group}, seq {seq}): rank {rank} issues {kind:?} \
                     but rank {expected_rank} issues {expected:?}"
                )
            }
            VerifyError::CollectiveBytesMismatch {
                group,
                seq,
                rank,
                bytes,
                expected_rank,
                expected,
            } => {
                write!(
                    f,
                    "collective (group {group}, seq {seq}): rank {rank} contributes {bytes} bytes \
                     but rank {expected_rank} contributes {expected}"
                )
            }
            VerifyError::SendRecvUnmatched {
                group,
                seq,
                issued,
                missing,
            } => {
                write!(
                    f,
                    "send/recv (group {group}, seq {seq}): rank(s) {issued:?} launch their side \
                     but rank(s) {missing:?} never launch the matching one"
                )
            }
            VerifyError::Deadlock { chain, cycle } => {
                write!(f, "static deadlock: ")?;
                write_chain(f, chain, *cycle)
            }
            VerifyError::Malformed { detail } => write!(f, "malformed job: {detail}"),
        }
    }
}

impl Error for VerifyError {}

/// Per-check counts from a clean verification run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Programs (ranks) checked.
    pub programs: usize,
    /// Host ops scanned across all programs.
    pub ops: usize,
    /// Interned names validated.
    pub names: usize,
    /// CUDA streams discovered.
    pub streams: usize,
    /// Non-send/recv collective instances checked for consistency.
    pub collectives: usize,
    /// Send/recv instances matched.
    pub sendrecv: usize,
    /// Per-rank CUDA events resolved.
    pub events: usize,
    /// Cross-thread tokens resolved.
    pub tokens: usize,
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} program(s): {} ops, {} names, {} streams, {} collective(s), \
             {} send/recv, {} events, {} tokens",
            self.programs,
            self.ops,
            self.names,
            self.streams,
            self.collectives,
            self.sendrecv,
            self.events,
            self.tokens
        )
    }
}

/// A [`LoweredJob`] in a serialization-friendly shape: the group map
/// becomes a sorted list of named entries (JSON object keys must be
/// strings, so `HashMap<u64, _>` would not round-trip portably), and
/// the simulation config — which verification never consults — is
/// dropped. Used by `lumos lint --job` fixtures.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PortableJob {
    /// Per-rank programs.
    pub programs: Vec<Program>,
    /// Communicator groups, sorted by id.
    pub groups: Vec<GroupEntry>,
}

/// One communicator group of a [`PortableJob`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupEntry {
    /// Communicator id.
    pub group: u64,
    /// Member global ranks.
    pub members: Vec<u32>,
}

impl PortableJob {
    /// Captures a job's programs and groups.
    pub fn from_job(job: &LoweredJob) -> Self {
        let mut groups: Vec<GroupEntry> = job
            .groups
            .iter()
            .map(|(&group, members)| GroupEntry {
                group,
                members: members.clone(),
            })
            .collect();
        groups.sort_by_key(|g| g.group);
        PortableJob {
            programs: job.programs.clone(),
            groups,
        }
    }

    /// Rebuilds a [`LoweredJob`] suitable for [`verify`]. The attached
    /// config is a placeholder — verification never reads it.
    pub fn into_job(self) -> LoweredJob {
        let parallelism = Parallelism::new(1, 1, 1).expect("1x1x1 parallelism is valid");
        LoweredJob {
            programs: self.programs,
            groups: self
                .groups
                .into_iter()
                .map(|g| (g.group, g.members))
                .collect(),
            config: SimConfig::new(ModelConfig::tiny(), parallelism),
        }
    }
}

/// One collective launch observed during the consistency scan.
struct Issue {
    rank: u32,
    kind: CollectiveKind,
    bytes: u64,
}

/// Statically verifies `job`: referential integrity, collective
/// consistency, point-to-point matching, and deadlock freedom (see the
/// module docs for the exact checks). Returns per-check counts on
/// success.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found, in check-phase order.
pub fn verify(job: &LoweredJob) -> Result<VerifyReport, VerifyError> {
    let mut report = VerifyReport {
        programs: job.programs.len(),
        ..VerifyReport::default()
    };

    // Phase 1: per-program structure + cross-program rank map.
    let mut seen_ranks = HashSet::new();
    for program in &job.programs {
        if !seen_ranks.insert(program.rank) {
            return Err(VerifyError::DuplicateRank { rank: program.rank });
        }
        program.well_formed()?;
        report.ops += program.len();
        report.names += program.names.len();
        let mut recorded = HashSet::new();
        for t in &program.threads {
            for op in &t.ops {
                if let HostOp::EventRecord { event, .. } = op {
                    recorded.insert(*event);
                }
            }
        }
        for t in &program.threads {
            for op in &t.ops {
                if let HostOp::StreamWait { event, .. } = op {
                    if !recorded.contains(event) {
                        return Err(VerifyError::WaitWithoutRecord {
                            rank: program.rank,
                            event: *event,
                        });
                    }
                }
            }
        }
    }

    // Phases 2 + 3: collective consistency and send/recv matching.
    // BTreeMap keeps the first reported divergence deterministic.
    let mut instances: BTreeMap<(u64, u32), Vec<Issue>> = BTreeMap::new();
    for program in &job.programs {
        for t in &program.threads {
            for op in &t.ops {
                let HostOp::Launch {
                    spec:
                        KernelSpec {
                            class: KernelClass::Collective(meta),
                            ..
                        },
                } = op
                else {
                    continue;
                };
                let Some(members) = job.groups.get(&meta.group) else {
                    return Err(VerifyError::UnknownGroup {
                        rank: program.rank,
                        group: meta.group,
                        seq: meta.seq,
                    });
                };
                if !members.contains(&program.rank) {
                    return Err(VerifyError::ForeignGroup {
                        rank: program.rank,
                        group: meta.group,
                        seq: meta.seq,
                    });
                }
                instances
                    .entry((meta.group, meta.seq))
                    .or_default()
                    .push(Issue {
                        rank: program.rank,
                        kind: meta.kind,
                        bytes: meta.bytes,
                    });
            }
        }
    }
    for (&(group, seq), issues) in &instances {
        let first = &issues[0];
        for issue in &issues[1..] {
            if issue.kind != first.kind {
                return Err(VerifyError::CollectiveKindMismatch {
                    group,
                    seq,
                    rank: issue.rank,
                    kind: issue.kind,
                    expected_rank: first.rank,
                    expected: first.kind,
                });
            }
            if issue.bytes != first.bytes {
                return Err(VerifyError::CollectiveBytesMismatch {
                    group,
                    seq,
                    rank: issue.rank,
                    bytes: issue.bytes,
                    expected_rank: first.rank,
                    expected: first.bytes,
                });
            }
        }
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for issue in issues {
            *counts.entry(issue.rank).or_insert(0) += 1;
        }
        if let Some((&rank, &launches)) = counts.iter().find(|&(_, &c)| c > 1) {
            return Err(VerifyError::CollectiveDuplicate {
                group,
                seq,
                rank,
                launches,
            });
        }
        let members = &job.groups[&group];
        let missing: Vec<u32> = members
            .iter()
            .copied()
            .filter(|r| !counts.contains_key(r))
            .collect();
        if !missing.is_empty() {
            let issued: Vec<u32> = counts.keys().copied().collect();
            return Err(if first.kind == CollectiveKind::SendRecv {
                VerifyError::SendRecvUnmatched {
                    group,
                    seq,
                    issued,
                    missing,
                }
            } else {
                VerifyError::CollectiveMissing {
                    group,
                    seq,
                    kind: first.kind,
                    issued,
                    missing,
                }
            });
        }
        if first.kind == CollectiveKind::SendRecv {
            report.sendrecv += 1;
        } else {
            report.collectives += 1;
        }
    }

    // Phase 4: deadlock freedom, by one cost-free engine run. After
    // phases 1-3 neither preparation nor the run can fail except by
    // deadlock; the catch-all keeps this panic-free for inputs that
    // somehow slip through.
    let malformed = |e: EngineError| VerifyError::Malformed {
        detail: e.to_string(),
    };
    let prep = PreparedJob::new(job).map_err(malformed)?;
    report.streams = prep.streams.len();
    report.events = prep.raw_events.len();
    report.tokens = prep.raw_tokens.len();
    match prep.execute_metrics(
        &ZeroCost,
        &HostOverheads::default(),
        &JitterModel::none(),
        0,
    ) {
        Ok(_) => Ok(report),
        Err(EngineError::Deadlock { chain, cycle }) => Err(VerifyError::Deadlock { chain, cycle }),
        Err(e) => Err(malformed(e)),
    }
}

/// Prices every kernel and collective at zero: phase 4 needs the
/// engine's blocking structure, not its clocks.
struct ZeroCost;

impl CostModel for ZeroCost {
    fn compute_cost(&self, _class: &KernelClass) -> Dur {
        Dur::ZERO
    }

    fn collective_cost(&self, _kind: CollectiveKind, _bytes: u64, _members: &[u32]) -> Dur {
        Dur::ZERO
    }
}
