//! The ground-truth execution engine: a multi-rank discrete-event
//! simulator with CUDA semantics.
//!
//! Each rank contributes host threads (executing
//! [`crate::program::HostOp`] streams)
//! and CUDA streams (FIFO queues of kernels, event records, and event
//! waits). Cross-rank coupling happens exclusively through collective
//! rendezvous: a collective kernel instance starts when *every*
//! member's stream has reached it, all members start simultaneously,
//! and all members finish together after the cost-model duration.
//!
//! The engine is a dependency-resolution simulator (not a time-ordered
//! event queue): since all durations are known once their inputs
//! resolve, entities are advanced from a wake queue until quiescence.
//! Execution is deterministic — wake order never affects computed
//! timestamps, only the order in which they are discovered.
//!
//! # Deadlocks
//!
//! Whether an entity blocks is purely structural (stream order, event
//! record/wait, token signal/wait, collective rendezvous); costs only
//! move clocks. So a job stalls under every cost model or none. When
//! the wake queue empties with work left, the engine walks the
//! cross-rank wait-for graph of its own final state and returns
//! [`EngineError::Deadlock`] with the named chain: rank → entity →
//! awaited resource → rank → …, closing with `cycle repeats` when the
//! chain loops. [`crate::verify`] decides deadlock freedom by one
//! cost-free run of this engine, so `lumos lint` and a stalled
//! simulation print the same chain.
//!
//! # Execution modes
//!
//! The engine is generic over an event sink (see [`crate::sink`]).
//! [`PreparedJob::execute`] materializes full per-rank traces;
//! [`PreparedJob::execute_metrics`] runs the identical simulation
//! while keeping only the makespan and the SendRecv time — the hot
//! loop then performs no allocation per event. All runtime
//! state (threads, streams, CUDA events, tokens, collective
//! instances) is indexed by dense ids resolved once in
//! [`PreparedJob::new`]; no hash map is touched per step.

use crate::exec::{ExecOp, PreparedJob};
use crate::jitter::{JitterModel, RunJitter};
use crate::program::NameId;
use crate::scenario::RunScenario;
use crate::sink::{EngineMetrics, EventSink, FullTraceSink, MetricsSink};
use lumos_cost::{CostModel, HostOverheads};
use lumos_trace::{ClusterTrace, CudaRuntimeKind, Dur, KernelClass, Ts};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Detection latency between a GPU completion and the host observing
/// it through a blocking synchronize.
const SYNC_POLL_LATENCY: Dur = Dur(500);

/// Longest deadlock chain reported before the walk gives up.
const MAX_CHAIN: usize = 64;

/// One step of a reported deadlock chain: who waits, and on what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleStep {
    /// Global rank of the stuck entity.
    pub rank: u32,
    /// The stuck entity, e.g. `"stream stream13 (entry 0/2)"` or
    /// `"ThreadId(1) thread (op 3/7)"`.
    pub entity: String,
    /// The resource it waits on, e.g.
    /// `"AllReduce group 7 seq 0 (1/2 arrived; awaiting rank 1)"`.
    pub waits_on: String,
}

impl fmt::Display for CycleStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} {} waits on {}",
            self.rank, self.entity, self.waits_on
        )
    }
}

/// Writes a deadlock chain as `step -> step -> …`, ending in
/// `-> cycle repeats` when it closes on itself.
pub(crate) fn write_chain(
    f: &mut fmt::Formatter<'_>,
    chain: &[CycleStep],
    cycle: bool,
) -> fmt::Result {
    for (i, step) in chain.iter().enumerate() {
        if i > 0 {
            write!(f, " -> ")?;
        }
        write!(f, "{step}")?;
    }
    if cycle {
        write!(f, " -> cycle repeats")?;
    }
    Ok(())
}

/// Errors from engine execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// The job deadlocked: no entity could make progress but work
    /// remains. Indicates an ill-formed program (e.g. mismatched
    /// collective sequences).
    Deadlock {
        /// The wait-for chain, stuck entity by stuck entity.
        chain: Vec<CycleStep>,
        /// `true` when the chain closes on itself (a true cycle);
        /// `false` when it dead-ends in a resource nothing will
        /// produce.
        cycle: bool,
    },
    /// A collective launch referenced a communicator group absent from
    /// [`crate::LoweredJob::groups`].
    UnknownGroup {
        /// The unregistered communicator id.
        group: u64,
    },
    /// An instruction stream violated an engine invariant (e.g. an
    /// `AnnotationEnd` without a matching begin, or a sync completion
    /// with no sync in progress). Indicates a malformed program
    /// rather than a timing question.
    MalformedProgram {
        /// What went wrong, and where.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Deadlock { chain, cycle } => {
                write!(f, "execution deadlocked: ")?;
                write_chain(f, chain, *cycle)
            }
            EngineError::UnknownGroup { group } => {
                write!(
                    f,
                    "collective references unknown communicator group {group}"
                )
            }
            EngineError::MalformedProgram { detail } => {
                write!(f, "malformed program: {detail}")
            }
        }
    }
}

impl Error for EngineError {}

/// The result of executing a lowered job with full trace collection.
#[derive(Debug, Clone)]
pub struct EngineOutput {
    /// Per-rank Kineto-style traces (sorted by timestamp).
    pub trace: ClusterTrace,
    /// End-to-end iteration time.
    pub makespan: Dur,
}

impl<'a> PreparedJob<'a> {
    /// Executes one iteration with full trace collection.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Deadlock`] /
    /// [`EngineError::MalformedProgram`] for runtime violations
    /// (structural problems were already rejected by
    /// [`PreparedJob::new`]).
    pub fn execute<C: CostModel>(
        &self,
        cost: &C,
        overheads: &HostOverheads,
        jitter: &JitterModel,
        iteration: u64,
    ) -> Result<EngineOutput, EngineError> {
        let sink = Engine::new(
            self,
            cost,
            overheads,
            jitter,
            iteration,
            None,
            FullTraceSink::new(self),
        )
        .run()?;
        let (trace, makespan) = sink.finish(self.job.config.label());
        Ok(EngineOutput { trace, makespan })
    }

    /// Executes one iteration in metrics-only (allocation-free) mode.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`PreparedJob::execute`].
    pub fn execute_metrics<C: CostModel>(
        &self,
        cost: &C,
        overheads: &HostOverheads,
        jitter: &JitterModel,
        iteration: u64,
    ) -> Result<EngineMetrics, EngineError> {
        let sink = Engine::new(
            self,
            cost,
            overheads,
            jitter,
            iteration,
            None,
            MetricsSink::new(self),
        )
        .run()?;
        Ok(sink.finish())
    }

    /// Executes one iteration in metrics-only mode under an injected
    /// fault scenario (see [`crate::scenario`]): straggler ranks run
    /// compute kernels and host ops slower by their per-rank
    /// multiplier, and collectives starting inside a degradation
    /// window take longer by the window's bandwidth slowdown. Jitter
    /// (if any) composes multiplicatively with the scenario.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`PreparedJob::execute_metrics`].
    pub fn execute_metrics_faulted<C: CostModel>(
        &self,
        cost: &C,
        overheads: &HostOverheads,
        jitter: &JitterModel,
        iteration: u64,
        scenario: &RunScenario,
    ) -> Result<EngineMetrics, EngineError> {
        let sc = if scenario.is_identity() {
            None
        } else {
            Some(scenario)
        };
        let sink = Engine::new(
            self,
            cost,
            overheads,
            jitter,
            iteration,
            sc,
            MetricsSink::new(self),
        )
        .run()?;
        Ok(sink.finish())
    }
}

/// A schedulable entity: an entry of the wake queue, and a node of
/// the wait-for graph walked at a deadlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entity {
    Thread(usize),
    Stream(usize),
}

#[derive(Debug)]
enum Blocked {
    Ready,
    /// Waiting for a stream to drain its first `upto` entries.
    StreamDrain,
    /// Waiting for `pending` streams to drain (device sync).
    DeviceDrain {
        pending: usize,
    },
    /// Waiting for the dense cross-thread token to be signaled.
    Token(u32),
    Done,
}

struct ThreadState {
    pc: usize,
    clock: Ts,
    blocked: Blocked,
    /// Start timestamp of an in-progress blocking sync call.
    sync_started: Option<(Ts, CudaRuntimeKind)>,
    /// Latest GPU completion observed by the pending wake(s).
    wake_time: Ts,
    ann_stack: Vec<(NameId, Ts)>,
    host_site: u64,
}

/// A stream FIFO entry. `Copy`: operands are dense ids, so the
/// dispatch loop reads entries by value.
#[derive(Clone, Copy)]
enum Entry {
    Kernel {
        name: NameId,
        class: KernelClass,
        /// Base (unjittered) duration, resolved from the per-run
        /// kernel-cost table at launch.
        base: Dur,
        earliest: Ts,
        corr: u64,
    },
    Collective {
        name: NameId,
        class: KernelClass,
        coll: u32,
        earliest: Ts,
        corr: u64,
        arrived: bool,
    },
    Record {
        event: u32,
    },
    WaitEv {
        event: u32,
    },
}

struct StreamState {
    entries: Vec<Entry>,
    head: usize,
    clock: Ts,
    /// Threads waiting for this stream to drain `upto` entries.
    drain_waiters: Vec<(usize, usize)>,
    last_enqueue_host: Ts,
}

#[derive(Default)]
struct EventState {
    completed: Option<Ts>,
    waiting_streams: Vec<usize>,
}

#[derive(Default)]
struct TokenState {
    time: Option<Ts>,
    waiters: Vec<usize>,
}

struct CollState {
    arrivals: Vec<(usize, Ts)>,
    resolved: Option<(Ts, Dur)>,
}

struct Engine<'p, C: CostModel, S: EventSink> {
    prep: &'p PreparedJob<'p>,
    cost: &'p C,
    oh: &'p HostOverheads,
    /// Compiled for this run's iteration: per-component distribution
    /// parameters and the correlated drift resolved once.
    jitter: RunJitter,
    threads: Vec<ThreadState>,
    streams: Vec<StreamState>,
    events: Vec<EventState>,
    tokens: Vec<TokenState>,
    collectives: Vec<CollState>,
    queue: VecDeque<Entity>,
    queued_threads: Vec<bool>,
    queued_streams: Vec<bool>,
    next_corr: u64,
    /// Base duration per distinct kernel class
    /// ([`PreparedJob::kernel_classes`]), priced once per run.
    kernel_costs: Vec<Dur>,
    /// First fatal error observed while draining the wake queue. The
    /// run loop stops at the next wake and reports it, so malformed
    /// programs surface as typed errors instead of panics.
    fatal: Option<EngineError>,
    /// Injected fault scenario, `None` on the clean path (identity
    /// scenarios are dropped before construction so the hot loop
    /// branches on one `Option`).
    scenario: Option<&'p RunScenario>,
    sink: S,
}

impl<'p, C: CostModel, S: EventSink> Engine<'p, C, S> {
    fn new(
        prep: &'p PreparedJob<'p>,
        cost: &'p C,
        oh: &'p HostOverheads,
        jitter: &'p JitterModel,
        iteration: u64,
        scenario: Option<&'p RunScenario>,
        sink: S,
    ) -> Self {
        let threads: Vec<ThreadState> = prep
            .threads
            .iter()
            .map(|_| ThreadState {
                pc: 0,
                clock: Ts::ZERO,
                blocked: Blocked::Ready,
                sync_started: None,
                wake_time: Ts::ZERO,
                ann_stack: Vec::new(),
                host_site: 0,
            })
            .collect();
        let streams: Vec<StreamState> = prep
            .streams
            .iter()
            .map(|s| StreamState {
                entries: Vec::with_capacity(s.entries_hint),
                head: 0,
                clock: Ts::ZERO,
                drain_waiters: Vec::new(),
                last_enqueue_host: Ts::ZERO,
            })
            .collect();
        let queued_threads = vec![false; threads.len()];
        let queued_streams = vec![false; streams.len()];
        Engine {
            prep,
            cost,
            oh,
            jitter: jitter.compile(iteration),
            threads,
            streams,
            events: (0..prep.raw_events.len())
                .map(|_| EventState::default())
                .collect(),
            tokens: (0..prep.raw_tokens.len())
                .map(|_| TokenState::default())
                .collect(),
            collectives: prep
                .collectives
                .iter()
                .map(|c| CollState {
                    arrivals: Vec::with_capacity(c.expected),
                    resolved: None,
                })
                .collect(),
            queue: VecDeque::new(),
            queued_threads,
            queued_streams,
            next_corr: 1,
            kernel_costs: prep
                .kernel_classes
                .iter()
                .map(|c| cost.compute_cost(c))
                .collect(),
            fatal: None,
            scenario,
            sink,
        }
    }

    /// Records a fatal error (first one wins) and lets the run loop
    /// stop at its next iteration.
    fn fail(&mut self, e: EngineError) {
        if self.fatal.is_none() {
            self.fatal = Some(e);
        }
    }

    fn wake_thread(&mut self, i: usize) {
        if !self.queued_threads[i] {
            self.queued_threads[i] = true;
            self.queue.push_back(Entity::Thread(i));
        }
    }

    fn wake_stream(&mut self, i: usize) {
        if !self.queued_streams[i] {
            self.queued_streams[i] = true;
            self.queue.push_back(Entity::Stream(i));
        }
    }

    fn run(mut self) -> Result<S, EngineError> {
        for i in 0..self.threads.len() {
            self.wake_thread(i);
        }
        while let Some(w) = self.queue.pop_front() {
            if self.fatal.is_some() {
                break;
            }
            match w {
                Entity::Thread(i) => {
                    self.queued_threads[i] = false;
                    self.run_thread(i);
                }
                Entity::Stream(i) => {
                    self.queued_streams[i] = false;
                    self.run_stream(i);
                }
            }
        }
        if let Some(e) = self.fatal.take() {
            return Err(e);
        }
        self.diagnose()?;
        Ok(self.sink)
    }

    /// At quiescence: `Ok` if every thread and stream finished;
    /// otherwise walks the wait-for graph from the first stuck entity
    /// and reports the chain.
    fn diagnose(&self) -> Result<(), EngineError> {
        let stuck_thread = self
            .threads
            .iter()
            .position(|t| !matches!(t.blocked, Blocked::Done))
            .map(Entity::Thread);
        let stuck_stream = self
            .streams
            .iter()
            .position(|s| s.head < s.entries.len())
            .map(Entity::Stream);
        let Some(mut node) = stuck_thread.or(stuck_stream) else {
            return Ok(());
        };
        let mut chain: Vec<CycleStep> = Vec::new();
        let mut visited: Vec<Entity> = Vec::new();
        let mut cycle = false;
        while chain.len() < MAX_CHAIN {
            if let Some(pos) = visited.iter().position(|n| *n == node) {
                chain.drain(..pos);
                cycle = true;
                break;
            }
            visited.push(node);
            let (rank, entity) = self.describe(node);
            let (next, waits_on) = match node {
                Entity::Thread(i) => self.thread_edge(i),
                Entity::Stream(si) => self.stream_edge(si),
            };
            chain.push(CycleStep {
                rank,
                entity,
                waits_on,
            });
            match next {
                Some(n) => node = n,
                None => break,
            }
        }
        Err(EngineError::Deadlock { chain, cycle })
    }

    /// The rank and display name of a stuck entity.
    fn describe(&self, node: Entity) -> (u32, String) {
        match node {
            Entity::Thread(i) => {
                let meta = &self.prep.threads[i];
                let pc = self.threads[i].pc;
                let entity = format!("{:?} thread (op {pc}/{})", meta.tid, meta.ops.len());
                (meta.rank, entity)
            }
            Entity::Stream(si) => {
                let meta = self.prep.streams[si];
                let s = &self.streams[si];
                let entity = format!("stream {} (entry {}/{})", meta.sid, s.head, s.entries.len());
                (meta.rank, entity)
            }
        }
    }

    /// Ops thread `j` has not dispatched yet.
    fn pending_ops(&self, j: usize) -> &[ExecOp] {
        let ops = self.prep.threads[j].ops.as_slice();
        &ops[self.threads[j].pc.min(ops.len())..]
    }

    /// Entries stream `si` has not drained yet.
    fn pending_entries(&self, si: usize) -> &[Entry] {
        let s = &self.streams[si];
        &s.entries[s.head..]
    }

    /// The wait-for edge out of a stuck thread: what it awaits, and
    /// the entity expected to produce it (`None` when nothing
    /// remaining can).
    fn thread_edge(&self, i: usize) -> (Option<Entity>, String) {
        match self.threads[i].blocked {
            Blocked::StreamDrain | Blocked::DeviceDrain { .. } => {
                let owed = (0..self.streams.len())
                    .find(|&si| self.streams[si].drain_waiters.iter().any(|&(t, _)| t == i));
                match owed {
                    Some(si) => {
                        let meta = self.prep.streams[si];
                        let desc = format!("drain of stream {} on rank {}", meta.sid, meta.rank);
                        (Some(Entity::Stream(si)), desc)
                    }
                    None => (None, "a stream drain no stream owes".to_string()),
                }
            }
            Blocked::Token(token) => {
                let raw = self.prep.raw_tokens[token as usize];
                let prog = self.prep.threads[i].prog;
                let signaler = (0..self.threads.len()).find(|&j| {
                    self.prep.threads[j].prog == prog
                        && self
                            .pending_ops(j)
                            .iter()
                            .any(|op| matches!(op, ExecOp::SignalPeer { token: t } if *t == token))
                });
                match signaler {
                    Some(j) => {
                        let meta = &self.prep.threads[j];
                        let desc =
                            format!("token {raw} signaled by rank {} {:?}", meta.rank, meta.tid);
                        (Some(Entity::Thread(j)), desc)
                    }
                    None => (
                        None,
                        format!("token {raw} — which nothing remaining will signal"),
                    ),
                }
            }
            Blocked::Ready | Blocked::Done => (None, "nothing (not actually blocked)".to_string()),
        }
    }

    /// The wait-for edge out of a stuck stream: the collective
    /// rendezvous (with the first member that has not arrived) or the
    /// event its head entry waits for, and who will provide it.
    fn stream_edge(&self, si: usize) -> (Option<Entity>, String) {
        let prep = self.prep;
        match self.pending_entries(si).first() {
            Some(&Entry::Collective { class, coll, .. }) => {
                let info = prep.collectives[coll as usize];
                let arrivals = &self.collectives[coll as usize].arrivals;
                let awaiting = info
                    .members
                    .iter()
                    .copied()
                    .find(|&r| !arrivals.iter().any(|&(o, _)| prep.streams[o].rank == r));
                let kind = match class {
                    KernelClass::Collective(m) => format!("{:?}", m.kind),
                    _ => "collective".to_string(),
                };
                let desc = format!(
                    "{kind} group {} seq {} ({}/{} arrived{})",
                    info.group,
                    info.seq,
                    arrivals.len(),
                    info.expected,
                    awaiting.map_or(String::new(), |m| format!("; awaiting rank {m}")),
                );
                let Some(m) = awaiting else {
                    return (None, format!("{desc} — which nothing will resolve"));
                };
                let holder = (0..self.streams.len()).find(|&sj| {
                    prep.streams[sj].rank == m
                        && self.pending_entries(sj).iter().any(|e| {
                            matches!(e, Entry::Collective { coll: c, arrived: false, .. } if *c == coll)
                        })
                });
                if let Some(sj) = holder {
                    return (Some(Entity::Stream(sj)), desc);
                }
                let launcher = (0..self.threads.len()).find(|&j| {
                    prep.threads[j].rank == m
                        && self.pending_ops(j).iter().any(
                            |op| matches!(op, ExecOp::LaunchColl { coll: c, .. } if *c == coll),
                        )
                });
                match launcher {
                    Some(j) => (Some(Entity::Thread(j)), desc),
                    None => (None, format!("{desc} — which rank {m} will never launch")),
                }
            }
            Some(&Entry::WaitEv { event }) => {
                let raw = prep.raw_events[event as usize];
                let desc = format!(
                    "completion of event {raw} on rank {}",
                    prep.streams[si].rank
                );
                let holder = (0..self.streams.len()).find(|&sj| {
                    self.pending_entries(sj)
                        .iter()
                        .any(|e| matches!(e, Entry::Record { event: ev } if *ev == event))
                });
                if let Some(sj) = holder {
                    return (Some(Entity::Stream(sj)), desc);
                }
                let recorder = (0..self.threads.len()).find(|&j| {
                    self.pending_ops(j).iter().any(
                        |op| matches!(op, ExecOp::EventRecord { event: ev, .. } if *ev == event),
                    )
                });
                match recorder {
                    Some(j) => (Some(Entity::Thread(j)), desc),
                    None => (None, format!("{desc} — which nothing will record")),
                }
            }
            Some(Entry::Kernel { .. } | Entry::Record { .. }) | None => {
                (None, "nothing (head entry is always runnable)".to_string())
            }
        }
    }

    fn host_dur(&mut self, thread: usize, rank: u32, base: Dur) -> Dur {
        let t = &mut self.threads[thread];
        t.host_site += 1;
        let base = match self.scenario {
            Some(sc) => base.scale(sc.rank_multiplier(rank)),
            None => base,
        };
        if self.jitter.is_identity() {
            return base;
        }
        base.scale(self.jitter.host_multiplier(rank, t.host_site))
    }

    fn run_thread(&mut self, i: usize) {
        let prep = self.prep;
        let meta = &prep.threads[i];
        let (prog, rank, tid) = (meta.prog, meta.rank, meta.tid);
        let ops = meta.ops.as_slice();

        // Resolve an in-progress block first.
        match self.threads[i].blocked {
            Blocked::Done => return,
            Blocked::Ready => {}
            Blocked::StreamDrain | Blocked::DeviceDrain { .. } => {
                // Woken by the last stream drain: finish the sync call.
                if matches!(self.threads[i].blocked, Blocked::DeviceDrain { pending } if pending > 0)
                {
                    return; // spurious wake; still waiting
                }
                let Some((start, kind)) = self.threads[i].sync_started.take() else {
                    self.fail(EngineError::MalformedProgram {
                        detail: format!("thread #{i} woke from a drain with no sync in progress"),
                    });
                    return;
                };
                let sync_dur = self.host_dur(i, rank, self.oh.sync_call);
                let t = &mut self.threads[i];
                let end = (start + sync_dur).max(t.wake_time + SYNC_POLL_LATENCY);
                t.clock = end;
                t.blocked = Blocked::Ready;
                self.sink.runtime(prog, tid, kind, 0, start, end - start);
            }
            Blocked::Token(_) => {
                // Token time folded into clock by the waker.
                self.threads[i].blocked = Blocked::Ready;
            }
        }

        while self.threads[i].pc < ops.len() {
            let op = ops[self.threads[i].pc];
            match op {
                ExecOp::CpuOp { name } => {
                    let dur = self.host_dur(i, rank, self.oh.cpu_op);
                    let t = &mut self.threads[i];
                    let clock = t.clock;
                    t.clock += dur;
                    self.sink.cpu_op(prog, tid, name, clock, dur);
                }
                ExecOp::Launch {
                    name,
                    class,
                    stream,
                    ..
                }
                | ExecOp::LaunchColl {
                    name,
                    class,
                    stream,
                    ..
                } => {
                    let dur = self.host_dur(i, rank, self.oh.launch_call);
                    let corr = self.next_corr;
                    self.next_corr += 1;
                    let t = &mut self.threads[i];
                    let clock = t.clock;
                    t.clock += dur;
                    self.sink
                        .runtime(prog, tid, CudaRuntimeKind::LaunchKernel, corr, clock, dur);
                    let earliest = clock + dur + self.oh.launch_gap;
                    let entry = match op {
                        ExecOp::LaunchColl { coll, .. } => Entry::Collective {
                            name,
                            class,
                            coll,
                            earliest,
                            corr,
                            arrived: false,
                        },
                        ExecOp::Launch { cost, .. } => Entry::Kernel {
                            name,
                            class,
                            base: self.kernel_costs[cost as usize],
                            earliest,
                            corr,
                        },
                        _ => unreachable!("launch arms matched above"),
                    };
                    self.enqueue(stream as usize, entry, clock);
                }
                ExecOp::EventRecord { event, stream } => {
                    let dur = self.host_dur(i, rank, self.oh.event_call);
                    let t = &mut self.threads[i];
                    let clock = t.clock;
                    t.clock += dur;
                    self.sink.runtime(
                        prog,
                        tid,
                        CudaRuntimeKind::EventRecord {
                            event: prep.raw_events[event as usize] as u64,
                            stream: prep.streams[stream as usize].sid,
                        },
                        0,
                        clock,
                        dur,
                    );
                    self.enqueue(stream as usize, Entry::Record { event }, clock);
                }
                ExecOp::StreamWait { event, stream } => {
                    let dur = self.host_dur(i, rank, self.oh.event_call);
                    let t = &mut self.threads[i];
                    let clock = t.clock;
                    t.clock += dur;
                    self.sink.runtime(
                        prog,
                        tid,
                        CudaRuntimeKind::StreamWaitEvent {
                            stream: prep.streams[stream as usize].sid,
                            event: prep.raw_events[event as usize] as u64,
                        },
                        0,
                        clock,
                        dur,
                    );
                    self.enqueue(stream as usize, Entry::WaitEv { event }, clock);
                }
                ExecOp::StreamSync { stream } => {
                    let si = stream as usize;
                    let upto = self.streams[si].entries.len();
                    let kind = CudaRuntimeKind::StreamSynchronize {
                        stream: prep.streams[si].sid,
                    };
                    if self.begin_sync(i, prog, rank, kind, &[(si, upto)]) {
                        self.threads[i].pc += 1;
                        continue;
                    }
                    self.threads[i].pc += 1;
                    return;
                }
                ExecOp::DeviceSync => {
                    let targets: Vec<(usize, usize)> = prep.rank_streams[prog as usize]
                        .iter()
                        .map(|&si| (si as usize, self.streams[si as usize].entries.len()))
                        .collect();
                    if self.begin_sync(i, prog, rank, CudaRuntimeKind::DeviceSynchronize, &targets)
                    {
                        self.threads[i].pc += 1;
                        continue;
                    }
                    self.threads[i].pc += 1;
                    return;
                }
                ExecOp::SignalPeer { token } => {
                    let clock = self.threads[i].clock;
                    let state = &mut self.tokens[token as usize];
                    state.time = Some(clock);
                    let waiters = std::mem::take(&mut state.waiters);
                    for w in waiters {
                        self.threads[w].clock = self.threads[w].clock.max(clock);
                        self.wake_thread(w);
                    }
                }
                ExecOp::WaitPeer { token } => {
                    let state = &mut self.tokens[token as usize];
                    match state.time {
                        Some(ts) => {
                            let t = &mut self.threads[i];
                            t.clock = t.clock.max(ts);
                        }
                        None => {
                            state.waiters.push(i);
                            self.threads[i].blocked = Blocked::Token(token);
                            self.threads[i].pc += 1;
                            return;
                        }
                    }
                }
                ExecOp::AnnotationBegin { name } => {
                    let t = &mut self.threads[i];
                    let clock = t.clock;
                    t.ann_stack.push((name, clock));
                }
                ExecOp::AnnotationEnd => {
                    let t = &mut self.threads[i];
                    let Some((name, start)) = t.ann_stack.pop() else {
                        let pc = t.pc;
                        self.fail(EngineError::MalformedProgram {
                            detail: format!(
                                "rank {rank} thread #{i}: AnnotationEnd at pc {pc} \
                                 without a matching AnnotationBegin"
                            ),
                        });
                        return;
                    };
                    let clock = t.clock;
                    self.sink.annotation(prog, tid, name, start, clock - start);
                }
            }
            self.threads[i].pc += 1;
        }
        self.threads[i].blocked = Blocked::Done;
    }

    /// Starts a blocking sync over `targets = [(stream, upto)]`.
    /// Returns `true` if all targets are already drained (sync
    /// completes inline).
    fn begin_sync(
        &mut self,
        thread: usize,
        prog: u32,
        rank: u32,
        kind: CudaRuntimeKind,
        targets: &[(usize, usize)],
    ) -> bool {
        let start = self.threads[thread].clock;
        let mut pending = 0;
        let mut latest = Ts::ZERO;
        for &(si, upto) in targets {
            if self.streams[si].head >= upto {
                latest = latest.max(self.streams[si].clock);
            } else {
                self.streams[si].drain_waiters.push((thread, upto));
                pending += 1;
            }
        }
        if pending == 0 {
            let sync_dur = self.host_dur(thread, rank, self.oh.sync_call);
            let t = &mut self.threads[thread];
            let end = (start + sync_dur)
                .max(latest + SYNC_POLL_LATENCY)
                .max(start);
            let tid = self.prep.threads[thread].tid;
            t.clock = end;
            self.sink.runtime(prog, tid, kind, 0, start, end - start);
            true
        } else {
            let t = &mut self.threads[thread];
            t.sync_started = Some((start, kind));
            t.wake_time = latest;
            t.blocked = if targets.len() == 1 {
                Blocked::StreamDrain
            } else {
                Blocked::DeviceDrain { pending }
            };
            false
        }
    }

    fn enqueue(&mut self, si: usize, entry: Entry, host_time: Ts) {
        let s = &mut self.streams[si];
        debug_assert!(
            host_time >= s.last_enqueue_host,
            "stream enqueue order violated on rank {} {}",
            self.prep.streams[si].rank,
            self.prep.streams[si].sid
        );
        s.last_enqueue_host = host_time;
        s.entries.push(entry);
        self.wake_stream(si);
    }

    fn run_stream(&mut self, si: usize) {
        let prep = self.prep;
        loop {
            let s = &self.streams[si];
            if s.head >= s.entries.len() {
                return;
            }
            let head = s.head;
            match s.entries[head] {
                Entry::Kernel {
                    name,
                    class,
                    base,
                    earliest,
                    corr,
                } => {
                    let meta = prep.streams[si];
                    let base = match self.scenario {
                        Some(sc) => base.scale(sc.rank_multiplier(meta.rank)),
                        None => base,
                    };
                    let dur = if self.jitter.is_identity() {
                        base
                    } else {
                        base.scale(self.jitter.kernel_multiplier(meta.rank, corr))
                    };
                    let start = self.streams[si].clock.max(earliest);
                    self.sink
                        .kernel(meta.prog, meta.sid, name, class, corr, start, dur);
                    self.streams[si].clock = start + dur;
                    self.advance_head(si);
                }
                Entry::Record { event } => {
                    let completed = self.streams[si].clock;
                    let state = &mut self.events[event as usize];
                    state.completed = Some(completed);
                    let waiters = std::mem::take(&mut state.waiting_streams);
                    for w in waiters {
                        self.wake_stream(w);
                    }
                    self.advance_head(si);
                }
                Entry::WaitEv { event } => {
                    let state = &mut self.events[event as usize];
                    match state.completed {
                        Some(ts) => {
                            let s = &mut self.streams[si];
                            s.clock = s.clock.max(ts);
                            self.advance_head(si);
                        }
                        None => {
                            if !state.waiting_streams.contains(&si) {
                                state.waiting_streams.push(si);
                            }
                            return;
                        }
                    }
                }
                Entry::Collective { .. } => {
                    if !self.process_collective(si, head) {
                        return;
                    }
                }
            }
        }
    }

    /// Processes a collective entry at a stream head. Returns `true`
    /// if the stream advanced.
    fn process_collective(&mut self, si: usize, head: usize) -> bool {
        let prep = self.prep;
        let Entry::Collective {
            name,
            class,
            coll,
            earliest,
            corr,
            arrived,
        } = self.streams[si].entries[head]
        else {
            unreachable!("process_collective sees collective entries")
        };
        let stream_clock = self.streams[si].clock;
        let ready = stream_clock.max(earliest);
        let newly_arrived = !arrived;
        if newly_arrived {
            if let Entry::Collective { arrived, .. } = &mut self.streams[si].entries[head] {
                *arrived = true;
            }
        }

        let info = prep.collectives[coll as usize];
        let inst = &mut self.collectives[coll as usize];
        if newly_arrived {
            inst.arrivals.push((si, ready));
        }

        if inst.resolved.is_none() && inst.arrivals.len() == info.expected {
            let start = inst
                .arrivals
                .iter()
                .map(|&(_, t)| t)
                .fold(Ts::ZERO, Ts::max);
            let KernelClass::Collective(meta) = class else {
                unreachable!("collective entries carry collective classes")
            };
            let base = self
                .cost
                .collective_cost(meta.kind, meta.bytes, info.members);
            // Degradation windows key off the rendezvous start time:
            // a collective beginning inside a window pays the
            // window's full slowdown.
            let base = match self.scenario {
                Some(sc) => base.scale(sc.comm_multiplier(info.group, start)),
                None => base,
            };
            let dur = if self.jitter.is_identity() {
                base
            } else {
                base.scale(self.jitter.comm_multiplier(info.group, info.seq as u64))
            };
            inst.resolved = Some((start, dur));
            // Wake the other member streams so they emit and advance
            // (index loop: no temporary allocation on the hot path).
            for k in 0..self.collectives[coll as usize].arrivals.len() {
                let o = self.collectives[coll as usize].arrivals[k].0;
                if o != si {
                    self.wake_stream(o);
                }
            }
        }

        match self.collectives[coll as usize].resolved {
            Some((start, dur)) => {
                let meta = prep.streams[si];
                self.sink
                    .kernel(meta.prog, meta.sid, name, class, corr, start, dur);
                self.streams[si].clock = start + dur;
                self.advance_head(si);
                true
            }
            None => false,
        }
    }

    fn advance_head(&mut self, si: usize) {
        self.streams[si].head += 1;
        let head = self.streams[si].head;
        let clock = self.streams[si].clock;
        // Release drain waiters whose target has been reached.
        let mut released = Vec::new();
        self.streams[si].drain_waiters.retain(|&(thread, upto)| {
            if head >= upto {
                released.push(thread);
                false
            } else {
                true
            }
        });
        for thread in released {
            let t = &mut self.threads[thread];
            t.wake_time = t.wake_time.max(clock);
            match &mut t.blocked {
                Blocked::StreamDrain => self.wake_thread(thread),
                Blocked::DeviceDrain { pending } => {
                    *pending -= 1;
                    if *pending == 0 {
                        self.wake_thread(thread);
                    }
                }
                other => {
                    let detail =
                        format!("drain waiter thread #{thread} in unexpected state {other:?}");
                    self.fail(EngineError::MalformedProgram { detail });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower, LoweredJob, SimConfig};
    use crate::program::{HostOp, KernelSpec, Program};
    use lumos_cost::AnalyticalCostModel;
    use lumos_model::{BatchConfig, ModelConfig, Parallelism, ScheduleKind};
    use lumos_trace::{streams, CollectiveKind, EventKind, StreamId};
    use std::collections::HashMap;

    fn run_tiny(tp: u32, pp: u32, dp: u32) -> EngineOutput {
        let config = SimConfig {
            model: ModelConfig::tiny(),
            parallelism: Parallelism::new(tp, pp, dp).unwrap(),
            batch: BatchConfig {
                seq_len: 128,
                microbatch_size: 1,
                num_microbatches: 2 * pp,
            },
            schedule: ScheduleKind::OneFOneB,
        };
        let job = lower(&config).unwrap();
        PreparedJob::new(&job)
            .unwrap()
            .execute(
                &AnalyticalCostModel::h100(),
                &HostOverheads::default(),
                &JitterModel::none(),
                0,
            )
            .unwrap()
    }

    #[test]
    fn single_rank_executes_and_validates() {
        let out = run_tiny(1, 1, 1);
        assert_eq!(out.trace.world_size(), 1);
        assert!(out.makespan > Dur::ZERO);
        out.trace.validate().unwrap();
    }

    #[test]
    fn all_parallel_axes_execute() {
        let out = run_tiny(2, 2, 2);
        assert_eq!(out.trace.world_size(), 8);
        out.trace.validate().unwrap();
        // Every rank observed kernels.
        for r in out.trace.ranks() {
            assert!(r.kernels().count() > 0, "{} has no kernels", r.rank());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_tiny(2, 2, 1);
        let b = run_tiny(2, 2, 1);
        assert_eq!(a.makespan, b.makespan);
        for (ra, rb) in a.trace.ranks().iter().zip(b.trace.ranks()) {
            assert_eq!(ra.events(), rb.events());
        }
    }

    #[test]
    fn collective_members_share_interval() {
        let out = run_tiny(2, 1, 1);
        // Find a TP all-reduce instance on both ranks: same (group,
        // seq) must give identical [start, end).
        let mut by_key: HashMap<(u64, u32), Vec<(Ts, Dur)>> = HashMap::new();
        for r in out.trace.ranks() {
            for e in r.kernels() {
                if let EventKind::Kernel {
                    class: KernelClass::Collective(m),
                    ..
                } = e.kind
                {
                    by_key
                        .entry((m.group, m.seq))
                        .or_default()
                        .push((e.ts, e.dur));
                }
            }
        }
        assert!(!by_key.is_empty());
        for (key, intervals) in by_key {
            assert_eq!(intervals.len(), 2, "instance {key:?} has both members");
            assert_eq!(intervals[0], intervals[1], "instance {key:?} synchronized");
        }
    }

    #[test]
    fn pipeline_stages_overlap_in_steady_state() {
        let out = run_tiny(1, 2, 1);
        // Stage 1 must start after stage 0 (activation dependency)…
        let r0 = out.trace.rank(lumos_trace::RankId(0)).unwrap();
        let r1 = out.trace.rank(lumos_trace::RankId(1)).unwrap();
        let first_k0 = r0.kernels().map(|e| e.ts).min().unwrap();
        let first_k1 = r1.kernels().map(|e| e.ts).min().unwrap();
        assert!(first_k1 > first_k0);
        // …but both must be concurrently busy somewhere (pipelining).
        let span0 = r0.span().unwrap();
        let span1 = r1.span().unwrap();
        assert!(span0.overlaps(&span1));
    }

    #[test]
    fn backward_runs_on_second_thread() {
        let out = run_tiny(1, 1, 1);
        let r0 = out.trace.rank(lumos_trace::RankId(0)).unwrap();
        let threads = r0.threads();
        assert!(threads.len() >= 2, "expected main + backward threads");
        // Backward-thread annotations exist.
        let bwd_ann = r0
            .annotations()
            .filter(|a| a.name.starts_with("bwd mb="))
            .count();
        assert_eq!(bwd_ann, 2); // num_microbatches = 2
    }

    #[test]
    fn annotations_cover_layers_and_iteration() {
        let out = run_tiny(1, 1, 1);
        let r0 = out.trace.rank(lumos_trace::RankId(0)).unwrap();
        let names: Vec<&str> = r0.annotations().map(|a| &*a.name).collect();
        assert!(names.contains(&"iteration"));
        assert!(names.iter().any(|n| n.starts_with("layer=0 fwd")));
        assert!(names.iter().any(|n| n.starts_with("layer=1 bwd")));
        assert!(names.contains(&"optimizer"));
    }

    #[test]
    fn mismatched_collective_deadlocks_with_diagnostic() {
        // Build a malformed 2-rank job where only rank 0 launches a
        // collective on a 2-member group.
        let mut p0 = Program::new(0);
        let nccl = p0.intern("nccl");
        p0.main_mut().push(HostOp::Launch {
            spec: KernelSpec {
                name: nccl,
                class: KernelClass::Collective(lumos_trace::CommMeta {
                    kind: lumos_trace::CollectiveKind::AllReduce,
                    group: 99,
                    seq: 0,
                    bytes: 1024,
                }),
                stream: streams::TP_COMM,
            },
        });
        p0.main_mut().push(HostOp::StreamSync {
            stream: streams::TP_COMM,
        });
        let p1 = Program::new(1);
        let config = SimConfig::new(ModelConfig::tiny(), Parallelism::new(1, 1, 1).unwrap());
        let job = LoweredJob {
            programs: vec![p0, p1],
            groups: HashMap::from([(99u64, vec![0u32, 1u32])]),
            config,
        };
        let err = PreparedJob::new(&job)
            .and_then(|p| {
                p.execute(
                    &AnalyticalCostModel::h100(),
                    &HostOverheads::default(),
                    &JitterModel::none(),
                    0,
                )
            })
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("deadlocked"), "{msg}");
        // The diagnostic names the rendezvous and who is missing.
        assert!(msg.contains("AllReduce"), "{msg}");
        assert!(msg.contains("group 99"), "{msg}");
        assert!(msg.contains("seq 0"), "{msg}");
        assert!(msg.contains("awaiting rank 1"), "{msg}");
    }

    #[test]
    fn unknown_group_is_typed_error() {
        // A collective launched on a communicator id the job never
        // registered must fail cleanly, not panic.
        let mut p0 = Program::new(0);
        let nccl = p0.intern("nccl");
        p0.main_mut().push(HostOp::Launch {
            spec: KernelSpec {
                name: nccl,
                class: KernelClass::Collective(lumos_trace::CommMeta {
                    kind: lumos_trace::CollectiveKind::AllReduce,
                    group: 7,
                    seq: 0,
                    bytes: 64,
                }),
                stream: streams::TP_COMM,
            },
        });
        let config = SimConfig::new(ModelConfig::tiny(), Parallelism::new(1, 1, 1).unwrap());
        let job = LoweredJob {
            programs: vec![p0],
            groups: HashMap::new(),
            config,
        };
        let err = PreparedJob::new(&job)
            .and_then(|p| {
                p.execute(
                    &AnalyticalCostModel::h100(),
                    &HostOverheads::default(),
                    &JitterModel::none(),
                    0,
                )
            })
            .unwrap_err();
        assert!(
            matches!(err, EngineError::UnknownGroup { group: 7 }),
            "{err}"
        );
        assert!(err.to_string().contains("unknown communicator group 7"));
    }

    #[test]
    fn unbalanced_annotation_is_typed_error() {
        let mut p0 = Program::new(0);
        p0.main_mut().push(HostOp::AnnotationEnd);
        let config = SimConfig::new(ModelConfig::tiny(), Parallelism::new(1, 1, 1).unwrap());
        let job = LoweredJob {
            programs: vec![p0],
            groups: HashMap::new(),
            config,
        };
        let err = PreparedJob::new(&job)
            .and_then(|p| {
                p.execute(
                    &AnalyticalCostModel::h100(),
                    &HostOverheads::default(),
                    &JitterModel::none(),
                    0,
                )
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::MalformedProgram { .. }), "{err}");
        assert!(err.to_string().contains("AnnotationEnd"));
    }

    #[test]
    fn dangling_name_id_is_typed_error() {
        let mut p0 = Program::new(0);
        p0.main_mut().push(HostOp::CpuOp { name: NameId(1234) });
        let config = SimConfig::new(ModelConfig::tiny(), Parallelism::new(1, 1, 1).unwrap());
        let job = LoweredJob {
            programs: vec![p0],
            groups: HashMap::new(),
            config,
        };
        let err = PreparedJob::new(&job)
            .and_then(|p| {
                p.execute(
                    &AnalyticalCostModel::h100(),
                    &HostOverheads::default(),
                    &JitterModel::none(),
                    0,
                )
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::MalformedProgram { .. }), "{err}");
        assert!(err.to_string().contains("unknown name id"), "{err}");
    }

    #[test]
    fn duplicate_rank_is_typed_error() {
        let config = SimConfig::new(ModelConfig::tiny(), Parallelism::new(1, 1, 1).unwrap());
        let job = LoweredJob {
            programs: vec![Program::new(3), Program::new(3)],
            groups: HashMap::new(),
            config,
        };
        let err = PreparedJob::new(&job)
            .and_then(|p| {
                p.execute(
                    &AnalyticalCostModel::h100(),
                    &HostOverheads::default(),
                    &JitterModel::none(),
                    0,
                )
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::MalformedProgram { .. }), "{err}");
        assert!(err.to_string().contains("more than one program"), "{err}");
    }

    #[test]
    fn prepared_job_reuses_across_iterations() {
        let config = SimConfig {
            model: ModelConfig::tiny(),
            parallelism: Parallelism::new(1, 2, 1).unwrap(),
            batch: BatchConfig {
                seq_len: 128,
                microbatch_size: 1,
                num_microbatches: 4,
            },
            schedule: ScheduleKind::OneFOneB,
        };
        let job = lower(&config).unwrap();
        let prep = PreparedJob::new(&job).unwrap();
        let cost = AnalyticalCostModel::h100();
        let oh = HostOverheads::default();
        let jitter = JitterModel::realistic(11);
        for iteration in 0..3 {
            let full = prep.execute(&cost, &oh, &jitter, iteration).unwrap();
            let fresh = PreparedJob::new(&job)
                .unwrap()
                .execute(&cost, &oh, &jitter, iteration)
                .unwrap();
            assert_eq!(full.makespan, fresh.makespan, "iteration {iteration}");
            let metrics = prep
                .execute_metrics(&cost, &oh, &jitter, iteration)
                .unwrap();
            assert_eq!(metrics.makespan, full.makespan, "iteration {iteration}");
        }
    }

    #[test]
    fn metrics_mode_matches_full_trace_aggregates() {
        let out = run_tiny(2, 2, 1);
        let config = SimConfig {
            model: ModelConfig::tiny(),
            parallelism: Parallelism::new(2, 2, 1).unwrap(),
            batch: BatchConfig {
                seq_len: 128,
                microbatch_size: 1,
                num_microbatches: 4,
            },
            schedule: ScheduleKind::OneFOneB,
        };
        let job = lower(&config).unwrap();
        let metrics = PreparedJob::new(&job)
            .unwrap()
            .execute_metrics(
                &AnalyticalCostModel::h100(),
                &HostOverheads::default(),
                &JitterModel::none(),
                0,
            )
            .unwrap();
        assert_eq!(metrics.makespan, out.makespan);
        // SendRecv time agrees with the trace's pipeline transfers.
        let sendrecv: u128 = out
            .trace
            .ranks()
            .iter()
            .flat_map(|r| r.kernels())
            .filter(|e| {
                matches!(e.kind, EventKind::Kernel {
                    class: KernelClass::Collective(meta),
                    ..
                } if meta.kind == CollectiveKind::SendRecv)
            })
            .map(|e| u128::from(e.dur.as_ns()))
            .sum();
        assert!(sendrecv > 0);
        assert_eq!(metrics.sendrecv_ns(), sendrecv);
    }

    #[test]
    fn jitter_changes_timing_but_not_structure() {
        let config = SimConfig {
            model: ModelConfig::tiny(),
            parallelism: Parallelism::new(1, 1, 1).unwrap(),
            batch: BatchConfig {
                seq_len: 128,
                microbatch_size: 1,
                num_microbatches: 2,
            },
            schedule: ScheduleKind::OneFOneB,
        };
        let job = lower(&config).unwrap();
        let cost = AnalyticalCostModel::h100();
        let oh = HostOverheads::default();
        let base = PreparedJob::new(&job)
            .unwrap()
            .execute(&cost, &oh, &JitterModel::none(), 0)
            .unwrap();
        let jit = PreparedJob::new(&job)
            .unwrap()
            .execute(&cost, &oh, &JitterModel::realistic(1), 0)
            .unwrap();
        assert_eq!(
            base.trace.total_events(),
            jit.trace.total_events(),
            "jitter must not change event population"
        );
        assert_ne!(base.makespan, jit.makespan);
        // Different iterations of the same jittered run differ.
        let jit2 = PreparedJob::new(&job)
            .unwrap()
            .execute(&cost, &oh, &JitterModel::realistic(1), 1)
            .unwrap();
        assert_ne!(jit.makespan, jit2.makespan);
        // Means stay close: within 10%.
        let rel = jit.makespan.relative_error(base.makespan);
        assert!(rel < 0.1, "jittered makespan drifted {rel}");
    }

    #[test]
    fn stream_sync_on_unused_stream_completes_inline() {
        // A StreamSync on a stream no op ever enqueues to still
        // prepares (the stream exists, empty) and completes inline.
        let mut p0 = Program::new(0);
        p0.main_mut().push(HostOp::StreamSync {
            stream: StreamId(42),
        });
        let config = SimConfig::new(ModelConfig::tiny(), Parallelism::new(1, 1, 1).unwrap());
        let job = LoweredJob {
            programs: vec![p0],
            groups: HashMap::new(),
            config,
        };
        let out = PreparedJob::new(&job)
            .unwrap()
            .execute(
                &AnalyticalCostModel::h100(),
                &HostOverheads::default(),
                &JitterModel::none(),
                0,
            )
            .unwrap();
        assert_eq!(out.trace.total_events(), 1);
    }

    /// A full-trace run of `prep` under `scenario` (the public entry
    /// points run scenarios in metrics-only mode).
    fn faulted_trace(
        prep: &PreparedJob<'_>,
        jitter: &JitterModel,
        scenario: Option<&RunScenario>,
    ) -> ClusterTrace {
        let sink = Engine::new(
            prep,
            &AnalyticalCostModel::h100(),
            &HostOverheads::default(),
            jitter,
            0,
            scenario,
            FullTraceSink::new(prep),
        )
        .run()
        .unwrap();
        sink.finish(String::new()).0
    }

    fn faulted_fixture(tp: u32, pp: u32, dp: u32) -> SimConfig {
        SimConfig {
            model: ModelConfig::tiny(),
            parallelism: Parallelism::new(tp, pp, dp).unwrap(),
            batch: BatchConfig {
                seq_len: 128,
                microbatch_size: 1,
                num_microbatches: 4,
            },
            schedule: ScheduleKind::OneFOneB,
        }
    }

    #[test]
    fn identity_scenario_matches_clean_metrics() {
        let config = faulted_fixture(2, 1, 2);
        let job = lower(&config).unwrap();
        let prep = PreparedJob::new(&job).unwrap();
        let cost = AnalyticalCostModel::h100();
        let oh = HostOverheads::default();
        let jitter = JitterModel::realistic(5);
        let identity = RunScenario::identity(4);
        let clean = prep.execute_metrics(&cost, &oh, &jitter, 0).unwrap();
        let faulted = prep
            .execute_metrics_faulted(&cost, &oh, &jitter, 0, &identity)
            .unwrap();
        assert_eq!(clean.makespan, faulted.makespan);
        assert_eq!(
            faulted_trace(&prep, &jitter, Some(&identity)).total_events(),
            faulted_trace(&prep, &jitter, None).total_events()
        );
    }

    #[test]
    fn straggler_scenario_slows_makespan_not_structure() {
        let config = faulted_fixture(1, 2, 1);
        let job = lower(&config).unwrap();
        let prep = PreparedJob::new(&job).unwrap();
        let cost = AnalyticalCostModel::h100();
        let oh = HostOverheads::default();
        let clean = prep
            .execute_metrics(&cost, &oh, &JitterModel::none(), 0)
            .unwrap();
        let spec =
            crate::scenario::FaultSpec::parse("[[straggler]]\nranks = 1\nslowdown = 2.0").unwrap();
        let real = spec.realize(7, 0, 2);
        let sc = real.compile(2, clean.makespan);
        assert!(!sc.is_identity());
        let faulted = prep
            .execute_metrics_faulted(&cost, &oh, &JitterModel::none(), 0, &sc)
            .unwrap();
        assert!(
            faulted.makespan > clean.makespan,
            "straggler must slow the run: {:?} vs {:?}",
            faulted.makespan,
            clean.makespan
        );
        let none = JitterModel::none();
        assert_eq!(
            faulted_trace(&prep, &none, Some(&sc)).total_events(),
            faulted_trace(&prep, &none, None).total_events()
        );
        // Deterministic: the same scenario replays byte-identically.
        let again = prep
            .execute_metrics_faulted(&cost, &oh, &JitterModel::none(), 0, &sc)
            .unwrap();
        assert_eq!(faulted.makespan, again.makespan);
    }

    #[test]
    fn degradation_window_scopes_to_matching_groups() {
        use crate::scenario::{DegradationSpec, Realization};
        use lumos_model::ScopeClass;
        let config = faulted_fixture(2, 1, 1);
        let job = lower(&config).unwrap();
        let prep = PreparedJob::new(&job).unwrap();
        let cost = AnalyticalCostModel::h100();
        let oh = HostOverheads::default();
        let clean = prep
            .execute_metrics(&cost, &oh, &JitterModel::none(), 0)
            .unwrap();
        let window = |scope| Realization {
            replica: 0,
            stragglers: Vec::new(),
            windows: vec![DegradationSpec {
                probability: 1.0,
                scope,
                bandwidth_factor: 0.25,
                start_frac: 0.0,
                end_frac: 10.0,
            }],
            failure: None,
        };
        // A tp-scoped window on a tp-only job slows it down…
        let tp_faulted = prep
            .execute_metrics_faulted(
                &cost,
                &oh,
                &JitterModel::none(),
                0,
                &window(Some(ScopeClass::Tp)).compile(2, clean.makespan),
            )
            .unwrap();
        assert!(tp_faulted.makespan > clean.makespan);
        // …while a dp-scoped window leaves it untouched.
        let dp_faulted = prep
            .execute_metrics_faulted(
                &cost,
                &oh,
                &JitterModel::none(),
                0,
                &window(Some(ScopeClass::Dp)).compile(2, clean.makespan),
            )
            .unwrap();
        assert_eq!(dp_faulted.makespan, clean.makespan);
    }
}
