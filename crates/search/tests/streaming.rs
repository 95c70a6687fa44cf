//! Issue-mandated guarantees of the streaming search rewrite:
//!
//! * streaming enumeration yields exactly the candidate set of the
//!   materialized grid (property-tested over arbitrary small spaces);
//! * bounded top-k retention + lower-bound skipping returns results
//!   byte-identical to ranking every candidate (same seed/trace);
//! * `rank()` is a total order over arbitrary finite/NaN/∞ key mixes —
//!   it never panics and never ranks a non-finite objective above a
//!   finite one (regression for the `partial_cmp(..).unwrap_or(Equal)`
//!   sort-panic bug);
//! * degenerate candidates surface as typed rejections, not NaN rows;
//! * a ≥100k-candidate space completes with retention proportional to
//!   top-k, not to the space size;
//! * the exhaustive walk does the same work at every thread count:
//!   equal counters and equal results at 1, 2, 4 and 7 workers, and the
//!   same evaluation error when a candidate cannot be priced.

use lumos_cluster::{GroundTruthCluster, JitterModel};
use lumos_cost::AnalyticalCostModel;
use lumos_model::{BatchConfig, ModelConfig, Parallelism, ScheduleKind, TrainingSetup};
use lumos_search::{
    enumerate_candidates, search, CandidateResult, CandidateStream, Infeasibility, Objective,
    SearchOptions, SearchReport, SpaceSpec, SpecFile,
};
use lumos_trace::{ClusterTrace, EventKind};
use proptest::prelude::*;
use std::sync::OnceLock;

/// An 8-layer research model: divisible into pp ∈ {1, 2, 4, 8} and
/// interleavable, small enough that hundreds of replays stay fast.
fn base_setup() -> TrainingSetup {
    TrainingSetup {
        model: ModelConfig::custom("stream-e2e", 8, 256, 1024, 4, 64),
        parallelism: Parallelism::new(1, 2, 2).unwrap(),
        batch: BatchConfig {
            seq_len: 128,
            microbatch_size: 1,
            num_microbatches: 4,
        },
        schedule: ScheduleKind::OneFOneB,
    }
}

fn shared_trace() -> &'static (TrainingSetup, ClusterTrace) {
    static CELL: OnceLock<(TrainingSetup, ClusterTrace)> = OnceLock::new();
    CELL.get_or_init(|| {
        let base = base_setup();
        let trace = GroundTruthCluster::new(&base, AnalyticalCostModel::h100())
            .unwrap()
            .with_jitter(JitterModel::realistic(42))
            .profile_iteration(0)
            .unwrap()
            .trace;
        (base, trace)
    })
}

/// Everything that must be byte-identical between the bounded and the
/// full-ranking paths.
fn fingerprint(r: &CandidateResult) -> (String, usize, u64, u64, u64, u64) {
    (
        r.label.clone(),
        r.index,
        r.makespan.as_ns(),
        r.memory.total(),
        r.utilization.mfu.to_bits(),
        r.tokens_per_sec_per_gpu.to_bits(),
    )
}

fn run(spec: &SpaceSpec, objective: Objective, top_k: Option<usize>) -> SearchReport {
    let (base, trace) = shared_trace();
    let opts = SearchOptions {
        objective,
        top_k,
        ..SearchOptions::default()
    };
    search(trace, base, spec, &opts, AnalyticalCostModel::h100()).unwrap()
}

#[test]
fn bounded_topk_is_byte_identical_to_full_ranking() {
    let spec = SpaceSpec::deployment_grid(&[1], &[1, 2, 4], &[1, 2])
        .with_microbatches(&[2, 4])
        .with_interleave(&[1, 2])
        .with_arch(vec![
            lumos_search::ArchPoint::new("8L-d256", 8, 256, 1024),
            lumos_search::ArchPoint::new("8L-d512", 8, 512, 2048),
        ]);
    for objective in [
        Objective::Makespan,
        Objective::PerGpuThroughput,
        Objective::Mfu,
    ] {
        let full = run(&spec, objective, None);
        assert!(full.results.len() > 5, "need a non-trivial survivor set");
        for k in [1, 3, full.results.len() + 10] {
            let bounded = run(&spec, objective, Some(k));
            let want: Vec<_> = full.results.iter().take(k).map(fingerprint).collect();
            let got: Vec<_> = bounded.results.iter().map(fingerprint).collect();
            assert_eq!(got, want, "objective {objective}, k {k}");
            // Every admitted candidate is accounted for: fully scored,
            // memory-pruned, or provably dominated.
            let s = &bounded.stats;
            assert_eq!(
                s.evaluated + s.bound_skipped + s.memory_pruned,
                full.stats.evaluated + full.stats.memory_pruned,
                "objective {objective}, k {k}: {s:?}"
            );
            assert_eq!(s.enumerated, full.stats.enumerated);
        }
    }
}

#[test]
fn exhaustive_walk_does_the_same_work_at_every_thread_count() {
    // The tiny model at tp2·pp2·dp1 over the committed sweep space: at
    // one worker the lower bound skips part of the grid. The screen
    // threshold moves only between batches whose boundaries ignore
    // the worker count, so every worker count must score, skip and
    // report exactly the same candidates.
    let base = TrainingSetup::new(ModelConfig::tiny(), Parallelism::new(2, 2, 1).unwrap());
    let trace = lumos_search::profile_base(&base, 2025).unwrap();
    let path = format!(
        "{}/../../examples/spaces/sweep.toml",
        env!("CARGO_MANIFEST_DIR")
    );
    let spec = SpecFile::parse(&std::fs::read_to_string(path).unwrap())
        .unwrap()
        .space;
    let run = |threads: usize| {
        let opts = SearchOptions {
            top_k: Some(10),
            threads: Some(threads),
            ..SearchOptions::default()
        };
        search(&trace, &base, &spec, &opts, AnalyticalCostModel::h100()).unwrap()
    };
    let one = run(1);
    assert!(one.stats.bound_skipped > 0, "{:?}", one.stats);
    let want: Vec<_> = one.results.iter().map(fingerprint).collect();
    for threads in [2, 4, 7] {
        let report = run(threads);
        assert_eq!(report.stats, one.stats, "threads {threads}");
        let got: Vec<_> = report.results.iter().map(fingerprint).collect();
        assert_eq!(got, want, "threads {threads}");
    }
}

#[test]
fn evaluation_error_is_the_same_at_every_thread_count() {
    // A base trace without its micro-batch-3 blocks: candidates that
    // reassemble four micro-batches cannot be priced, two-micro-batch
    // candidates still can. The lowest failing grid index is reported.
    let (base, trace) = shared_trace();
    let mut broken = trace.clone();
    for rank in broken.ranks_mut() {
        rank.events_mut().retain(|e| {
            !(matches!(e.kind, EventKind::UserAnnotation { .. }) && e.name.contains("mb=3"))
        });
    }
    let spec = SpaceSpec::deployment_grid(&[1], &[1, 2], &[1, 2]).with_microbatches(&[2, 4]);
    let error = |threads: usize| {
        let opts = SearchOptions {
            top_k: Some(3),
            threads: Some(threads),
            ..SearchOptions::default()
        };
        search(&broken, base, &spec, &opts, AnalyticalCostModel::h100())
            .unwrap_err()
            .to_string()
    };
    let one = error(1);
    assert!(one.contains("mb: 3"), "{one}");
    for threads in [2, 4, 7] {
        assert_eq!(error(threads), one, "threads {threads}");
    }
}

#[test]
fn full_ranking_mode_never_skips() {
    let spec = SpaceSpec::deployment_grid(&[1], &[1, 2], &[1, 2]).with_microbatches(&[2, 4]);
    let report = run(&spec, Objective::PerGpuThroughput, None);
    assert_eq!(report.stats.bound_skipped, 0);
    assert_eq!(report.stats.evaluated, report.results.len());
}

#[test]
fn memo_shares_stage_costs_across_pp_dp_microbatch_variants() {
    // One tensor-parallel degree and two architectures: at most three
    // distinct stage-cost keys however many PP/DP/micro-batch
    // variants the grid holds.
    let spec = SpaceSpec::deployment_grid(&[1], &[1, 2, 4], &[1, 2, 4])
        .with_microbatches(&[2, 4, 8])
        .with_arch(vec![
            lumos_search::ArchPoint::new("8L-d256", 8, 256, 1024),
            lumos_search::ArchPoint::new("8L-d512", 8, 512, 2048),
        ]);
    let report = run(&spec, Objective::Makespan, Some(1));
    assert!(
        report.memo.misses <= 3,
        "one derivation per stage-cost key, got {:?}",
        report.memo
    );
    assert!(
        report.memo.hits > 0,
        "bound queries after the first per key must hit, got {:?}",
        report.memo
    );
    assert!(report.stats.bound_skipped > 0, "{:?}", report.stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streaming enumeration is the materialized grid, lazily.
    #[test]
    fn streaming_enumeration_matches_materialized(
        tp_mask in 1u32..8,
        pp_mask in 1u32..16,
        dp_mask in 1u32..8,
        mb_mask in 1u32..8,
        v_mask in 1u32..4,
        max_gpus in prop_oneof![Just(4u32), Just(8u32), Just(64u32)],
    ) {
        let pick = |mask: u32, values: &[u32]| -> Vec<u32> {
            values
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &v)| v)
                .collect()
        };
        let base = base_setup();
        let spec = SpaceSpec {
            tp: pick(tp_mask, &[1, 2, 3]),
            pp: pick(pp_mask, &[1, 2, 3, 4]),
            dp: pick(dp_mask, &[1, 2, 4]),
            microbatches: pick(mb_mask, &[2, 4, 6]),
            interleave: pick(v_mask, &[1, 2]),
            ..SpaceSpec::empty()
        }
        .with_max_gpus(max_gpus);

        let materialized = enumerate_candidates(&spec, &base);
        let mut stream = CandidateStream::new(&spec, &base);
        let streamed: Vec<_> = stream.by_ref().map(|ec| (ec.candidate, ec.setup)).collect();
        prop_assert_eq!(&streamed, &materialized.candidates);
        prop_assert_eq!(stream.stats(), materialized.stats);
    }

    /// Bounded top-k equals the full-ranking prefix on arbitrary small
    /// spaces (the end-to-end streaming-vs-materialized guarantee).
    #[test]
    fn bounded_topk_prefix_property(
        pp_mask in 1u32..8,
        mb_mask in 1u32..4,
        k in 1usize..6,
    ) {
        let pick = |mask: u32, values: &[u32]| -> Vec<u32> {
            values
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &v)| v)
                .collect()
        };
        let spec = SpaceSpec::deployment_grid(&[1], &pick(pp_mask, &[1, 2, 4]), &[1, 2])
            .with_microbatches(&pick(mb_mask, &[2, 4]));
        let full = run(&spec, Objective::PerGpuThroughput, None);
        let bounded = run(&spec, Objective::PerGpuThroughput, Some(k));
        let want: Vec<_> = full.results.iter().take(k).map(fingerprint).collect();
        let got: Vec<_> = bounded.results.iter().map(fingerprint).collect();
        prop_assert_eq!(got, want);
    }

    /// `rank()` tolerates arbitrary finite/NaN/∞ objective-key mixes:
    /// no panic, finite keys ascending, non-finite keys strictly last,
    /// ties broken by enumeration index.
    #[test]
    fn rank_is_total_over_arbitrary_key_mixes(
        raw in proptest::collection::vec(
            prop_oneof![
                Just(f64::NAN),
                Just(-f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                -1.0e12..1.0e12,
                Just(0.0),
                Just(-0.0),
            ],
            0..24,
        ),
    ) {
        let template = template_result();
        let results: Vec<CandidateResult> = raw
            .iter()
            .enumerate()
            .map(|(index, &tput)| {
                let mut r = template.clone();
                r.index = index;
                // PerGpuThroughput key = -tokens_per_sec_per_gpu.
                r.tokens_per_sec_per_gpu = tput;
                r
            })
            .collect();
        let ranked = lumos_search::rank(results, Objective::PerGpuThroughput);
        prop_assert_eq!(ranked.len(), raw.len());
        let keys: Vec<f64> = ranked.iter().map(|r| -r.tokens_per_sec_per_gpu).collect();
        let first_bad = keys.iter().position(|k| !k.is_finite()).unwrap_or(keys.len());
        // Finite prefix ascending under total_cmp (ties by index),
        // non-finite suffix.
        for (w, kw) in ranked[..first_bad].windows(2).zip(keys.windows(2)) {
            match kw[0].total_cmp(&kw[1]) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => prop_assert!(w[0].index < w[1].index),
                std::cmp::Ordering::Greater => {
                    prop_assert!(false, "finite keys out of order: {} > {}", kw[0], kw[1])
                }
            }
        }
        for k in &keys[first_bad..] {
            prop_assert!(!k.is_finite());
        }
    }
}

/// One real evaluated result to clone as a template for synthetic
/// ranking inputs.
fn template_result() -> &'static CandidateResult {
    static CELL: OnceLock<CandidateResult> = OnceLock::new();
    CELL.get_or_init(|| {
        let spec = SpaceSpec::deployment_grid(&[1], &[2], &[1]).with_microbatches(&[2]);
        let report = run(&spec, Objective::PerGpuThroughput, None);
        report.results[0].clone()
    })
}

/// The headline regression: a NaN-keyed result must sort strictly
/// last, never panic the sort, and never displace a finite result.
#[test]
fn nan_producing_candidate_ranks_last_not_first() {
    let template = template_result();
    let mut nan_result = template.clone();
    nan_result.index = 0; // most-favored tie-break position
    nan_result.tokens_per_sec_per_gpu = f64::NAN;
    let mut inf_result = template.clone();
    inf_result.index = 1;
    inf_result.tokens_per_sec_per_gpu = f64::INFINITY; // key = -∞: "best" under naive sorts
    let mut good = template.clone();
    good.index = 2;

    let ranked = lumos_search::rank(
        vec![nan_result, inf_result, good.clone()],
        Objective::PerGpuThroughput,
    );
    assert_eq!(ranked[0].index, good.index, "finite result must win");
    assert!(!ranked[1].tokens_per_sec_per_gpu.is_finite());
    assert!(!ranked[2].tokens_per_sec_per_gpu.is_finite());
}

#[test]
fn degenerate_candidates_are_rejected_with_reasons_not_ranked() {
    let (base, trace) = shared_trace();
    let spec = SpaceSpec::deployment_grid(&[1], &[1, 2], &[1]).with_microbatches(&[2, 4]);
    // A device with no peak FLOP/s makes MFU undefined for every
    // candidate: all must land in `rejected` with a typed reason.
    let mut opts = SearchOptions {
        objective: Objective::Mfu,
        ..SearchOptions::default()
    };
    opts.gpu.peak_tflops_bf16 = 0.0;
    let report = search(trace, base, &spec, &opts, AnalyticalCostModel::h100()).unwrap();
    assert!(report.results.is_empty(), "nothing rankable");
    assert!(!report.rejected.is_empty());
    assert_eq!(report.stats.infeasible, report.stats.evaluated);
    for r in &report.rejected {
        assert_eq!(r.reason, Infeasibility::NoPeakFlops);
        assert!(r.reason.to_string().contains("peak FLOP"));
    }
    // The report renders the rejection summary instead of panicking.
    let text = report.format_top(5);
    assert!(text.contains("rejected during scoring"), "{text}");
}

#[test]
fn hundred_thousand_candidate_space_completes_with_bounded_retention() {
    let (base, trace) = shared_trace();
    // 1 × 2 × 340 × 3 × 50 = 102 000 grid points; the lattice admits
    // only the handful with ≤ 8 GPUs and chunkable interleaving, so
    // the walk must be cheap and retention must stay ∝ top-k.
    let dp: Vec<u32> = (1..=340).collect();
    let interleave: Vec<u32> = (1..=50).collect();
    let spec = SpaceSpec::deployment_grid(&[1], &[1, 2], &dp)
        .with_microbatches(&[2, 4, 8])
        .with_interleave(&interleave)
        .with_max_gpus(8);
    let k = 10;
    let opts = SearchOptions {
        objective: Objective::PerGpuThroughput,
        top_k: Some(k),
        ..SearchOptions::default()
    };
    let report = search(trace, base, &spec, &opts, AnalyticalCostModel::h100()).unwrap();
    assert_eq!(report.stats.enumerated, 102_000);
    assert!(report.results.len() <= k);
    assert!(report.pruned.len() <= k);
    assert!(report.rejected.len() <= k);
    assert!(!report.results.is_empty());

    // Byte-identical to the materialized full ranking of the same
    // space (the admitted set is small enough to rank exhaustively).
    let full = search(
        trace,
        base,
        &spec,
        &SearchOptions {
            objective: Objective::PerGpuThroughput,
            top_k: None,
            ..SearchOptions::default()
        },
        AnalyticalCostModel::h100(),
    )
    .unwrap();
    let want: Vec<_> = full.results.iter().take(k).map(fingerprint).collect();
    let got: Vec<_> = report.results.iter().map(fingerprint).collect();
    assert_eq!(got, want);
    // Accounting covers every admitted candidate.
    let admitted = enumerate_candidates(&spec, base).candidates.len();
    let s = &report.stats;
    assert_eq!(s.evaluated + s.bound_skipped + s.memory_pruned, admitted);
}

#[test]
fn deadline_and_cancel_interrupt_search_with_typed_error() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    let (base, trace) = shared_trace();
    let spec = SpaceSpec::deployment_grid(&[1], &[1, 2], &[1, 2]).with_microbatches(&[2, 4]);

    // An already-expired deadline cancels before any candidate is
    // claimed: the typed error, not a partial report.
    let opts = SearchOptions {
        deadline: Some(std::time::Duration::ZERO),
        ..SearchOptions::default()
    };
    let err = search(trace, base, &spec, &opts, AnalyticalCostModel::h100()).unwrap_err();
    assert!(
        matches!(err, lumos_search::SearchError::DeadlineExceeded),
        "{err:?}"
    );
    assert!(err.to_string().contains("deadline"), "{err}");

    // A pre-set cancel flag takes the same cooperative path (this is
    // what makes `--keep-all` searches interruptible).
    let opts = SearchOptions {
        cancel: Some(Arc::new(AtomicBool::new(true))),
        ..SearchOptions::default()
    };
    let err = search(trace, base, &spec, &opts, AnalyticalCostModel::h100()).unwrap_err();
    assert!(
        matches!(err, lumos_search::SearchError::DeadlineExceeded),
        "{err:?}"
    );

    // An armed-but-unset flag must not perturb the run: results are
    // byte-identical to a plain search.
    let plain = run(&spec, Objective::PerGpuThroughput, None);
    let opts = SearchOptions {
        objective: Objective::PerGpuThroughput,
        cancel: Some(Arc::new(AtomicBool::new(false))),
        deadline: Some(std::time::Duration::from_secs(3600)),
        ..SearchOptions::default()
    };
    let flagged = search(trace, base, &spec, &opts, AnalyticalCostModel::h100()).unwrap();
    let want: Vec<_> = plain.results.iter().map(fingerprint).collect();
    let got: Vec<_> = flagged.results.iter().map(fingerprint).collect();
    assert_eq!(got, want);
}

#[test]
fn deadline_interrupts_refinement_phase_too() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    let (base, trace) = shared_trace();
    let spec = SpaceSpec::deployment_grid(&[1], &[2], &[1]).with_microbatches(&[2]);
    // The cancel flag flips once the screen has merged its last batch
    // (progress is reported on the calling thread after each batch), so
    // the run reaches the refinement phase already cancelled — its
    // workers must bail with the typed error instead of panicking on
    // unclaimed slots.
    let cancel = Arc::new(AtomicBool::new(false));
    let raise = Arc::clone(&cancel);
    let opts = SearchOptions {
        refine_sim: true,
        cancel: Some(cancel),
        progress: Some(lumos_search::ProgressSink::new(move |p| {
            if p.claimed == p.grid_points {
                raise.store(true, std::sync::atomic::Ordering::Relaxed);
            }
        })),
        ..SearchOptions::default()
    };
    let err = search(trace, base, &spec, &opts, AnalyticalCostModel::h100()).unwrap_err();
    assert!(
        matches!(err, lumos_search::SearchError::DeadlineExceeded),
        "{err:?}"
    );
}

#[test]
fn shared_memo_warms_across_runs_without_changing_results() {
    use std::sync::Arc;
    let (base, trace) = shared_trace();
    let spec = SpaceSpec::deployment_grid(&[1], &[1, 2, 4], &[1, 2])
        .with_microbatches(&[2, 4])
        .with_interleave(&[1, 2]);
    let plain = run(&spec, Objective::PerGpuThroughput, Some(5));

    let memo = Arc::new(lumos_search::SharedStageMemo::new());
    let opts = || SearchOptions {
        objective: Objective::PerGpuThroughput,
        top_k: Some(5),
        shared_memo: Some(Arc::clone(&memo)),
        ..SearchOptions::default()
    };
    let first = search(trace, base, &spec, &opts(), AnalyticalCostModel::h100()).unwrap();
    let after_first = memo.stats();
    assert!(
        after_first.misses > 0,
        "first run must populate the shared memo, got {after_first:?}"
    );
    let second = search(trace, base, &spec, &opts(), AnalyticalCostModel::h100()).unwrap();
    let after_second = memo.stats();
    // The second run derives nothing new — every stage-work lookup is
    // answered from the shared memo.
    assert_eq!(
        after_second.misses, after_first.misses,
        "warm run must not re-derive stage work"
    );
    assert!(after_second.hits > after_first.hits);

    // Warmth is an accounting matter only: all three runs rank
    // byte-identically.
    let want: Vec<_> = plain.results.iter().map(fingerprint).collect();
    for report in [&first, &second] {
        let got: Vec<_> = report.results.iter().map(fingerprint).collect();
        assert_eq!(got, want);
    }
}

#[test]
fn progress_sink_fires_on_large_grids() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let (base, trace) = shared_trace();
    let dp: Vec<u32> = (1..=100).collect();
    let spec = SpaceSpec::deployment_grid(&[1], &[1, 2], &dp)
        .with_microbatches(&[2])
        .with_max_gpus(4);
    let calls = Arc::new(AtomicUsize::new(0));
    let seen = calls.clone();
    let opts = SearchOptions {
        top_k: Some(3),
        progress: Some(lumos_search::ProgressSink::new(move |p| {
            assert!(p.claimed <= p.grid_points);
            seen.fetch_add(1, Ordering::Relaxed);
        })),
        ..SearchOptions::default()
    };
    search(trace, base, &spec, &opts, AnalyticalCostModel::h100()).unwrap();
    assert!(calls.load(Ordering::Relaxed) > 0);
}
