//! Memoized per-stage cost derivation and the analytic lower bound.
//!
//! Candidates that differ only in pipeline depth, data parallelism,
//! micro-batch count, or interleaving share per-layer / embedding /
//! LM-head compute costs (see [`lumos_model::StageCostKey`]). This
//! module derives those costs **once per key** — from recorded block
//! kernel durations, or from re-priced op lists when the candidate's
//! TP degree or layer shape differs from the base — and caches them
//! behind a mutex shared by all evaluator workers.
//!
//! The derived costs feed a *sound* lower bound on a candidate's
//! iteration time: the busiest pipeline stage must serially execute
//! its per-micro-batch compute work `m` times on its compute stream,
//! whatever the schedule does around it. Every number that enters the
//! bound is a minimum over the block choices reassembly could make
//! (shards, recorded micro-batches) restricted to a single stream, so
//! the bound never exceeds the simulated makespan — which is what lets
//! the engine skip full scoring for provably dominated candidates
//! without changing the reported top-k.

use crate::candidate::Candidate;
use crate::prune::MemoStats;
use lumos_core::manipulate::{
    kernel_class_of_op, plan, proportional_layer_map, regenerated_block_ops, Block, BlockKey,
    BlockKind, BlockLibrary,
};
use lumos_core::Phase;
use lumos_cost::{CostModel, LookupCostModel};
use lumos_model::ops::OpDesc;
use lumos_model::{StageCostKey, StageWork, TrainingSetup};
use lumos_trace::{EventKind, KernelClass, StreamId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Per-key derived costs: combined forward + backward seconds per
/// *source* layer (minimum over shards and recorded micro-batches),
/// plus embedding and head blocks. Zeros are always sound (they only
/// weaken the bound).
#[derive(Debug, Default)]
struct CachedCosts {
    source_layer_secs: Vec<f64>,
    embed_secs: f64,
    head_secs: f64,
    /// Set when any block/op-list pairing mismatched during
    /// derivation. Reassembling such a candidate would *error*, so no
    /// candidate under this key may be skipped: a skip would hide the
    /// failure whenever a threshold happened to exist when the
    /// candidate was reached, so whether the search fails would hinge
    /// on the walk order (where the candidate sits in the grid, or
    /// which path the adaptive engine took) instead of on the space.
    unusable: bool,
}

/// A stage-work memo shared **across** search runs against one
/// calibration — the cross-request warm cache behind a long-lived
/// service (`lumos serve` keeps one per registry artifact).
///
/// The per-run `StageCostCache` derives per-candidate
/// [`StageWork`] from `(base, library, lookup)` plus the candidate's
/// `(stage-cost key, layer count)` alone, so work derived by one run
/// is valid for every later run against the *same* calibration.
/// Sharing a memo across different calibrations is unsound — callers
/// must key memos by artifact. A warm memo never changes reported
/// top-k results (the derivation is deterministic in the key); it
/// only converts derivations into refcount bumps.
pub struct SharedStageMemo {
    work: Mutex<HashMap<(StageCostKey, u32), Arc<StageWork>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl SharedStageMemo {
    /// An empty memo.
    pub fn new() -> Self {
        SharedStageMemo {
            work: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Lifetime hit/miss counts across every run that attached this
    /// memo (`misses` == distinct stage-work entries derived).
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl Default for SharedStageMemo {
    fn default() -> Self {
        SharedStageMemo::new()
    }
}

impl std::fmt::Debug for SharedStageMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SharedStageMemo")
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

/// The shared stage-cost memo: one per search run, read-mostly.
pub(crate) struct StageCostCache<'a, C> {
    base: &'a TrainingSetup,
    library: &'a BlockLibrary,
    lookup: &'a LookupCostModel<C>,
    /// The stream the bound is measured on: the one carrying the most
    /// recorded compute time (the conventional compute stream).
    stream: Option<StreamId>,
    /// `false` when the library is missing any block reassembly could
    /// request: evaluating some candidate would then *error*, and
    /// bound-skipping it instead would make the search's success
    /// depend on the walk order (see `CachedCosts::unusable`) — so no
    /// bound is ever issued.
    complete: bool,
    map: Mutex<HashMap<StageCostKey, Arc<CachedCosts>>>,
    /// Resolved per-candidate stage work, keyed by `(stage-cost key,
    /// target layer count)` — the only inputs the layer mapping
    /// depends on. Entries are `Arc`-shared so a cache hit is a
    /// refcount bump, not a rebuild of the per-layer cost vector.
    work: Mutex<HashMap<(StageCostKey, u32), Arc<StageWork>>>,
    /// Optional cross-run memo ([`crate::SearchOptions::shared_memo`]):
    /// probed after a local-map miss, fed on every derivation. Sound
    /// only because callers key it by calibration — see
    /// [`SharedStageMemo`].
    shared: Option<&'a SharedStageMemo>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<'a, C: CostModel> StageCostCache<'a, C> {
    pub(crate) fn new(
        base: &'a TrainingSetup,
        library: &'a BlockLibrary,
        lookup: &'a LookupCostModel<C>,
        shared: Option<&'a SharedStageMemo>,
    ) -> Self {
        StageCostCache {
            base,
            library,
            lookup,
            stream: dominant_compute_stream(library),
            complete: library_is_complete(library, base),
            map: Mutex::new(HashMap::new()),
            work: Mutex::new(HashMap::new()),
            shared,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    pub(crate) fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// A lower bound on the candidate's predicted iteration seconds,
    /// or `None` when no usable bound exists (no compute stream, zero
    /// derived costs, or a block/op mismatch that voids derivation).
    pub(crate) fn lower_bound_secs(&self, cand: &Candidate, setup: &TrainingSetup) -> Option<f64> {
        if !self.complete {
            return None;
        }
        let work = self.work_for(setup)?;
        let pp = setup.parallelism.pp;
        let m = setup.batch.num_microbatches;
        let mut bound = work.pipeline_lower_bound_secs(pp, m);
        if let Some(adj) = setup.schedule.replay_adjustment(pp, m, cand.interleave) {
            // Adjusted schedules are scored as
            // `sim × (1 − skeleton_bubble) / (1 − target_bubble)`
            // plus non-negative extra communication; scale the bound
            // the same way (the analytic forms avoid the O(pp·m)
            // schedule materialization this per-candidate path must
            // not pay).
            if adj.is_degenerate() {
                return None; // degenerate; flagged during evaluation
            }
            bound *= adj.bound_scale();
        }
        // Safety margin: the real objective key is derived from an
        // ns-rounded `Dur` while this bound is accumulated in f64, so
        // shave a relative ulp allowance plus one nanosecond — without
        // it, float noise at an exact tie boundary could rate the
        // bound a hair *above* the candidate's true key and skip a
        // result the full ranking would admit by index tie-break.
        let bound = bound * (1.0 - 1e-9) - 1e-9;
        (bound > 0.0 && bound.is_finite()).then_some(bound)
    }

    /// The candidate's resolved stage work, `Arc`-shared per
    /// `(stage-cost key, layer count)`: candidates that differ only in
    /// pipeline depth / data parallelism / micro-batch count /
    /// interleaving reuse one allocation — a hit costs a hash probe
    /// and a refcount bump, not a `Vec<f64>` rebuild.
    fn work_for(&self, setup: &TrainingSetup) -> Option<Arc<StageWork>> {
        let key = (StageCostKey::of(setup), setup.model.num_layers);
        if let Some(work) = self.work.lock().expect("work memo poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(work.clone());
        }
        // Warm path: a previous run against the same calibration may
        // have derived this entry already. Adopt it into the local map
        // so later probes in this run stay on the fast path.
        if let Some(shared) = self.shared {
            let adopted = shared
                .work
                .lock()
                .expect("shared memo poisoned")
                .get(&key)
                .cloned();
            if let Some(work) = adopted {
                shared.hits.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.work
                    .lock()
                    .expect("work memo poisoned")
                    .entry(key)
                    .or_insert_with(|| work.clone());
                return Some(work);
            }
        }
        let costs = self.costs_for(setup)?;
        if costs.unusable {
            return None;
        }
        // Candidate layers map onto source layers via the same helper
        // reassembly's plan uses — not a re-derivation of its formula
        // (and no setup clones on this per-candidate path).
        let layer_map = proportional_layer_map(self.base.model.num_layers, setup.model.num_layers);
        let work = Arc::new(StageWork {
            layer_secs: layer_map
                .iter()
                .map(|&src| costs.source_layer_secs[src as usize])
                .collect(),
            embed_secs: costs.embed_secs,
            head_secs: costs.head_secs,
        });
        // Publish the derivation to the cross-run memo (first insert
        // wins there too; the loser adopts the existing entry so both
        // memos share one allocation).
        let work = match self.shared {
            Some(shared) => {
                let mut map = shared.work.lock().expect("shared memo poisoned");
                match map.entry(key.clone()) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        shared.hits.fetch_add(1, Ordering::Relaxed);
                        e.get().clone()
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        shared.misses.fetch_add(1, Ordering::Relaxed);
                        v.insert(work).clone()
                    }
                }
            }
            None => work,
        };
        // First insert wins on a race (the loser drops its copy and
        // adopts the existing entry); the derivation is deterministic
        // in the key, so both values are identical either way.
        Some(
            self.work
                .lock()
                .expect("work memo poisoned")
                .entry(key)
                .or_insert(work)
                .clone(),
        )
    }

    /// Cached costs for the setup's stage-cost key, deriving on miss.
    fn costs_for(&self, setup: &TrainingSetup) -> Option<Arc<CachedCosts>> {
        self.stream?;
        let key = StageCostKey::of(setup);
        if let Some(costs) = self.map.lock().expect("memo poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(costs.clone());
        }
        // Derive outside the lock: duplicate work on a race is
        // harmless (the derivation is deterministic in the key), but
        // only the insert that lands counts as the key's miss — the
        // loser of the race sees an occupied entry and counts a hit,
        // keeping `misses` == distinct keys derived.
        let derived = Arc::new(self.derive(setup));
        let mut map = self.map.lock().expect("memo poisoned");
        match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.get().clone())
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Some(v.insert(derived).clone())
            }
        }
    }

    fn derive(&self, setup: &TrainingSetup) -> CachedCosts {
        let stream = self.stream.expect("checked by costs_for");
        // Whether reassembly re-prices this candidate's kernels is the
        // plan's decision, not a local mirror of its condition.
        let recost = plan(self.base, setup).recost_kernels;
        let ops_for = |kind: BlockKind, phase: Phase| -> Option<Vec<OpDesc>> {
            if !recost {
                return None;
            }
            regenerated_block_ops(setup, kind, phase)
        };

        // Regenerated op lists depend only on the block's content
        // *class* (every layer shares one list), not on which shard or
        // micro-batch recorded it — derive each at most once.
        fn content_class(kind: BlockKind) -> u8 {
            match kind {
                BlockKind::Layer(_) => 0,
                BlockKind::Embed => 1,
                BlockKind::Head => 2,
            }
        }
        let mut op_lists: HashMap<(u8, Phase), Option<Vec<OpDesc>>> = HashMap::new();

        // Minimum per (content, phase) over every block the reassembler
        // could paste (any shard, any recorded micro-batch).
        let mut minima: HashMap<(BlockKind, Phase), f64> = HashMap::new();
        let mut unusable = false;
        for (key, block) in self.library.iter() {
            if !matches!(key.phase, Phase::Forward | Phase::Backward) {
                continue;
            }
            let kind = key.kind;
            let ops_list = op_lists
                .entry((content_class(kind), key.phase))
                .or_insert_with(|| ops_for(kind, key.phase));
            let secs = match block_stream_secs(block, stream, ops_list.as_deref(), self.lookup) {
                Some(secs) => secs,
                None => {
                    unusable = true;
                    break;
                }
            };
            let entry = minima.entry((kind, key.phase)).or_insert(f64::INFINITY);
            *entry = entry.min(secs);
        }
        let get = |kind: BlockKind, phase: Phase| -> f64 {
            match minima.get(&(kind, phase)) {
                Some(&v) if v.is_finite() => v,
                _ => 0.0,
            }
        };
        CachedCosts {
            source_layer_secs: (0..self.base.model.num_layers)
                .map(|l| {
                    get(BlockKind::Layer(l), Phase::Forward)
                        + get(BlockKind::Layer(l), Phase::Backward)
                })
                .collect(),
            embed_secs: get(BlockKind::Embed, Phase::Forward)
                + get(BlockKind::Embed, Phase::Backward),
            head_secs: get(BlockKind::Head, Phase::Forward) + get(BlockKind::Head, Phase::Backward),
            unusable,
        }
    }
}

/// Seconds of non-collective kernel time a block contributes to
/// `stream`. Without an op list, recorded durations; with one, each
/// launch is paired with its regenerated op in host order and priced
/// exactly the way reassembly prices it (collectives excluded — their
/// replayed durations depend on rendezvous, so counting them could
/// overshoot). A launch/op count mismatch returns `None`: reassembly
/// would *error* on this block, so the whole key must become
/// unusable rather than silently bounding the candidate at zero.
fn block_stream_secs<C: CostModel>(
    block: &Block,
    stream: StreamId,
    ops_list: Option<&[OpDesc]>,
    lookup: &LookupCostModel<C>,
) -> Option<f64> {
    // The launch order and launch→kernel pairing come from the same
    // `Block` helpers reassembly's pricing pass uses — the two walks
    // cannot drift apart.
    let kernels = block.kernels_by_correlation();
    let launches = block.launches_in_host_order();
    let kernel_of = |l: &lumos_trace::TraceEvent| -> Option<(StreamId, KernelClass, f64)> {
        let e = kernels.get(&l.kind.correlation().unwrap_or(0))?;
        match e.kind {
            EventKind::Kernel {
                stream: s, class, ..
            } => Some((s, class, e.dur.as_secs_f64())),
            _ => None,
        }
    };

    match ops_list {
        None => Some(
            launches
                .iter()
                .filter_map(|l| kernel_of(l))
                .filter(|(s, class, _)| {
                    *s == stream && !matches!(class, KernelClass::Collective(_))
                })
                .map(|(_, _, secs)| secs)
                .sum(),
        ),
        Some(ops_list) => {
            if launches.len() != ops_list.len() {
                return None; // mismatch: reassembly would error here
            }
            let mut total = 0.0;
            for (l, op) in launches.iter().zip(ops_list) {
                let Some((s, class, _)) = kernel_of(l) else {
                    continue; // launch without a kernel: reassembly keeps it unpriced
                };
                let is_collective_kernel = matches!(class, KernelClass::Collective(_));
                match (is_collective_kernel, kernel_class_of_op(&op.body)) {
                    // Kind mismatch in either direction is a
                    // reassembly error too, not just a count mismatch.
                    (true, Some(_)) | (false, None) => return None,
                    // Collectives are excluded from the bound.
                    (true, None) => {}
                    (false, Some(op_class)) => {
                        if s == stream {
                            total += lookup.compute_cost(&op_class).as_secs_f64();
                        }
                    }
                }
            }
            Some(total)
        }
    }
}

/// `true` when the library holds every block reassembly could request
/// for any candidate reachable from `base`: both phases of every
/// source layer plus embedding and head, for every (tp, dp) shard and
/// recorded micro-batch. [`lumos_core::manipulate::reassemble`] looks
/// blocks up with coordinates reduced modulo the base degrees, so
/// these key ranges are exhaustive — a complete library means
/// candidate evaluation can never fail on a missing block, which is
/// what makes bound-skipping safe (a skipped candidate must lose
/// deterministically, not dodge an error some other run would hit).
fn library_is_complete(library: &BlockLibrary, base: &TrainingSetup) -> bool {
    let par = base.parallelism;
    let mut kinds: Vec<BlockKind> = (0..base.model.num_layers).map(BlockKind::Layer).collect();
    kinds.push(BlockKind::Embed);
    kinds.push(BlockKind::Head);
    kinds.iter().all(|&kind| {
        (0..par.tp).all(|tp| {
            (0..par.dp).all(|dp| {
                (0..base.batch.num_microbatches).all(|mb| {
                    [Phase::Forward, Phase::Backward].iter().all(|&phase| {
                        library
                            .get(&BlockKey {
                                tp,
                                dp,
                                kind,
                                mb,
                                phase,
                            })
                            .is_some()
                    })
                })
            })
        })
    })
}

/// The stream carrying the most recorded non-collective kernel time —
/// the compute stream by the trace producers' convention, discovered
/// instead of assumed.
fn dominant_compute_stream(library: &BlockLibrary) -> Option<StreamId> {
    let mut totals: HashMap<StreamId, u128> = HashMap::new();
    for (_, block) in library.iter() {
        for e in &block.events {
            if let EventKind::Kernel { stream, class, .. } = e.kind {
                if !matches!(class, KernelClass::Collective(_)) {
                    *totals.entry(stream).or_insert(0) += e.dur.as_ns() as u128;
                }
            }
        }
    }
    totals
        .into_iter()
        .max_by_key(|&(s, total)| (total, std::cmp::Reverse(s.0)))
        .map(|(s, _)| s)
}
