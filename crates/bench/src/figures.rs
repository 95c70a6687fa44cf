//! One function per paper artifact, shared by the per-figure binaries
//! and the `experiments` master binary.

use crate::harness::{
    predict_from_calibrated, profile_calibrated, profile_config, replay_experiment, RunOptions,
};
use crate::paper::{self, PaperError};
use crate::table::{breakdown_cells, ms, pct, TextTable};
use lumos_core::manipulate::Transform;
use lumos_core::{BuildOptions, InterStreamMode, Lumos, RendezvousMode, SimOptions};
use lumos_model::ModelConfig;
use lumos_trace::{sm_utilization, BreakdownExt, Dur, RankId};

/// Progress sink (binaries pass stderr printers).
pub type Progress<'a> = &'a mut dyn FnMut(&str);

/// Table 1 / Table 2: architectures with computed parameter counts.
pub fn model_table(models: &[ModelConfig]) -> TextTable {
    let mut t = TextTable::new(&[
        "model", "n_params", "n_layers", "d_model", "d_ffn", "n_heads", "d_head",
    ]);
    for m in models {
        t.row(vec![
            m.name.clone(),
            format!("{:.1}B", m.num_params() as f64 / 1e9),
            m.num_layers.to_string(),
            m.hidden_size.to_string(),
            m.ffn_size.to_string(),
            m.num_heads.to_string(),
            m.head_dim.to_string(),
        ]);
    }
    t
}

/// Figure 1: execution breakdown of one GPT-3 175B iteration
/// (TP8/PP4/DP8) — actual vs dPRO vs Lumos.
///
/// # Errors
///
/// Propagates configuration-lookup failures.
pub fn fig1(opts: &RunOptions, progress: Progress) -> Result<TextTable, PaperError> {
    let cfg = paper::fig1_config(opts.microbatches)?;
    progress(&format!(
        "fig1: running {} ({} GPUs)",
        cfg.label(),
        cfg.parallelism.world_size()
    ));
    let row = replay_experiment(&cfg, opts);
    let mut t = TextTable::new(&[
        "series",
        "exposed compute (ms)",
        "overlapped (ms)",
        "exposed comm (ms)",
        "other (ms)",
        "total (ms)",
    ]);
    for (name, b, total) in [
        ("Actual", row.actual_breakdown, row.actual),
        ("dPRO", row.dpro_breakdown, row.dpro),
        ("Lumos", row.lumos_breakdown, row.lumos),
    ] {
        let cells = breakdown_cells(&b);
        t.row(vec![
            name.to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            cells[3].clone(),
            ms(total),
        ]);
    }
    Ok(t)
}

/// Figure 5 output: per-model tables plus headline error statistics.
pub struct Fig5Output {
    /// `(model name, table)` per panel.
    pub panels: Vec<(String, TextTable)>,
    /// Mean Lumos replay error.
    pub lumos_avg: f64,
    /// Max Lumos replay error.
    pub lumos_max: f64,
    /// Mean dPRO replay error.
    pub dpro_avg: f64,
    /// Max dPRO replay error.
    pub dpro_max: f64,
    /// Rows measured.
    pub rows: usize,
}

/// Figure 5: replay accuracy across four models × six parallelism
/// configurations. `models` defaults to all of Table 1.
///
/// # Errors
///
/// Returns [`PaperError::UnknownModel`] for models outside Table 1 and
/// propagates label failures.
pub fn fig5(
    models: &[ModelConfig],
    opts: &RunOptions,
    progress: Progress,
) -> Result<Fig5Output, PaperError> {
    let mut panels = Vec::new();
    let mut lumos_errs = Vec::new();
    let mut dpro_errs = Vec::new();
    for model in models {
        let mut t = TextTable::new(&[
            "config",
            "actual (ms)",
            "lumos (ms)",
            "lumos err",
            "dpro (ms)",
            "dpro err",
            "actual cmp/ovl/comm/other",
            "lumos cmp/ovl/comm/other",
        ]);
        let labels = paper::fig5_labels(&model.name).ok_or_else(|| PaperError::UnknownModel {
            name: model.name.clone(),
        })?;
        for label in labels {
            let cfg = paper::config(model.clone(), label, opts.microbatches)?;
            progress(&format!(
                "fig5: {} {} ({} GPUs)",
                model.name,
                label,
                cfg.parallelism.world_size()
            ));
            let row = replay_experiment(&cfg, opts);
            lumos_errs.push(row.lumos_error());
            dpro_errs.push(row.dpro_error());
            t.row(vec![
                row.label.clone(),
                ms(row.actual),
                ms(row.lumos),
                pct(row.lumos_error()),
                ms(row.dpro),
                pct(row.dpro_error()),
                breakdown_cells(&row.actual_breakdown).join("/"),
                breakdown_cells(&row.lumos_breakdown).join("/"),
            ]);
        }
        panels.push((model.name.clone(), t));
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    Ok(Fig5Output {
        lumos_avg: avg(&lumos_errs),
        lumos_max: max(&lumos_errs),
        dpro_avg: avg(&dpro_errs),
        dpro_max: max(&dpro_errs),
        rows: lumos_errs.len(),
        panels,
    })
}

/// Renders a utilization series as a unicode sparkline.
fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    values
        .iter()
        .map(|&v| BLOCKS[((v.clamp(0.0, 1.0) * 7.0).round()) as usize])
        .collect()
}

/// Figure 6: SM-utilization timelines (1 ms bins) for GPT-3 15B at
/// 2x2x4 — actual vs Lumos vs dPRO. Returns (summary table,
/// sparkline block).
pub fn fig6(opts: &RunOptions, progress: Progress) -> Result<(TextTable, String), PaperError> {
    let cfg = paper::fig6_config(opts.microbatches)?;
    progress(&format!("fig6: running {}", cfg.label()));
    let profiled = profile_config(&cfg, opts);
    let lumos = Lumos::new()
        .replay(&profiled.output.trace)
        .expect("replay")
        .trace();
    let dpro = Lumos::dpro_baseline()
        .replay(&profiled.output.trace)
        .expect("dpro")
        .trace();
    let bin = Dur::from_ms(1);
    let rank = RankId(0);
    let actual_u = sm_utilization(profiled.output.trace.rank(rank).expect("rank 0"), bin);
    let lumos_u = sm_utilization(lumos.rank(rank).expect("rank 0"), bin);
    let dpro_u = sm_utilization(dpro.rank(rank).expect("rank 0"), bin);

    let mut t = TextTable::new(&["series", "bins", "mean util", "MAE vs actual"]);
    for (name, u) in [
        ("Actual", &actual_u),
        ("Lumos", &lumos_u),
        ("dPRO", &dpro_u),
    ] {
        t.row(vec![
            name.to_string(),
            u.len().to_string(),
            format!("{:.3}", u.mean()),
            format!("{:.3}", u.mae(&actual_u)),
        ]);
    }
    // Downsample sparklines to ~100 columns for readability.
    let downsample = |v: &[f64]| -> Vec<f64> {
        let cols = 100usize;
        if v.len() <= cols {
            return v.to_vec();
        }
        (0..cols)
            .map(|c| {
                let lo = c * v.len() / cols;
                let hi = ((c + 1) * v.len() / cols).max(lo + 1);
                v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect()
    };
    let spark = format!(
        "actual {}\nlumos  {}\ndpro   {}",
        sparkline(&downsample(&actual_u.values)),
        sparkline(&downsample(&lumos_u.values)),
        sparkline(&downsample(&dpro_u.values)),
    );
    Ok((t, spark))
}

/// Figure 7: parallelism-scaling predictions from the 15B 2x2x4 base
/// trace. `part` is 'a' (DP), 'b' (PP), or 'c' (both).
///
/// # Errors
///
/// Returns [`PaperError::UnknownFigurePart`] for parts outside a/b/c.
pub fn fig7(part: char, opts: &RunOptions, progress: Progress) -> Result<TextTable, PaperError> {
    let base = paper::fig7_base(opts.microbatches)?;
    progress(&format!("fig7{part}: profiling base {}", base.label()));
    // Memoized: parts a/b/c (and Figure 8 / the extension studies)
    // share one profiled trace and one fitted calibration artifact.
    let calibrated = profile_calibrated(&base, opts);
    let targets = match part {
        'a' => paper::fig7a_targets(),
        'b' => paper::fig7b_targets(),
        'c' => paper::fig7c_targets(),
        other => return Err(PaperError::UnknownFigurePart { part: other }),
    };
    let mut t = TextTable::new(&[
        "config",
        "predicted (ms)",
        "actual (ms)",
        "error",
        "predicted cmp/ovl/comm/other",
        "actual cmp/ovl/comm/other",
    ]);
    for (label, transforms) in targets {
        progress(&format!("fig7{part}: predicting {label}"));
        let row = predict_from_calibrated(&calibrated, label, &transforms, opts);
        t.row(vec![
            row.label.clone(),
            ms(row.predicted),
            ms(row.actual),
            pct(row.error()),
            breakdown_cells(&row.predicted_breakdown).join("/"),
            breakdown_cells(&row.actual_breakdown).join("/"),
        ]);
    }
    Ok(t)
}

/// Dependency-mechanism ablation (DESIGN.md §7): replay one GPT-3 15B
/// 2x2x4 iteration under every fence-coverage × rendezvous combination.
/// Returns the table plus the actual makespan and overlapped time it
/// is read against.
///
/// # Errors
///
/// Propagates configuration-lookup failures.
pub fn ablation(
    opts: &RunOptions,
    progress: Progress,
) -> Result<(TextTable, Dur, Dur), PaperError> {
    let config = paper::config(ModelConfig::gpt3_15b(), "2x2x4", opts.microbatches)?;
    progress(&format!("ablation: profiling {}", config.label()));
    let profiled = profile_config(&config, opts);
    let actual = profiled.actual;
    let actual_overlap = profiled.output.trace.breakdown().overlapped;

    let mode_name = |m: InterStreamMode| match m {
        InterStreamMode::Full => "full fences",
        InterStreamMode::ConsumerOnly => "consumer-only",
        InterStreamMode::ProducerOnly => "producer-only",
        InterStreamMode::DataflowOnly => "dataflow-only",
        InterStreamMode::None => "no fences",
    };
    let mut t = TextTable::new(&[
        "inter-stream",
        "rendezvous",
        "replayed (ms)",
        "error",
        "overlapped (ms)",
        "note",
    ]);
    let combos = [
        (InterStreamMode::Full, RendezvousMode::All, "Lumos"),
        (InterStreamMode::Full, RendezvousMode::SendRecvOnly, ""),
        (InterStreamMode::ConsumerOnly, RendezvousMode::All, ""),
        (InterStreamMode::ProducerOnly, RendezvousMode::All, ""),
        (InterStreamMode::DataflowOnly, RendezvousMode::All, ""),
        (
            InterStreamMode::DataflowOnly,
            RendezvousMode::SendRecvOnly,
            "dPRO",
        ),
        (InterStreamMode::None, RendezvousMode::SendRecvOnly, ""),
    ];
    for (interstream, rendezvous, note) in combos {
        let toolkit = Lumos {
            build: BuildOptions { interstream },
            sim: SimOptions {
                rendezvous,
                ..SimOptions::default()
            },
        };
        let replayed = toolkit
            .replay(&profiled.output.trace)
            .expect("replay succeeds");
        let b = replayed.breakdown();
        t.row(vec![
            mode_name(interstream).to_string(),
            match rendezvous {
                RendezvousMode::All => "all".to_string(),
                RendezvousMode::SendRecvOnly => "send/recv".to_string(),
            },
            ms(replayed.makespan()),
            pct(replayed.makespan().relative_error(actual)),
            ms(b.overlapped),
            note.to_string(),
        ]);
    }
    Ok((t, actual, actual_overlap))
}

/// Extension validation (DESIGN.md §7): tensor-parallel rescaling and
/// sequence-length predictions from the 15B 2x2x4 base trace, checked
/// against fresh ground truth exactly like Figures 7/8.
///
/// # Errors
///
/// Propagates configuration-lookup failures.
pub fn extension_transforms(
    opts: &RunOptions,
    progress: Progress,
) -> Result<TextTable, PaperError> {
    let base = paper::fig7_base(opts.microbatches)?;
    progress(&format!("extensions: profiling base {}", base.label()));
    let calibrated = profile_calibrated(&base, opts);
    let targets: Vec<(&str, Vec<Transform>)> = vec![
        ("tp 2→4 (4x2x4)", vec![Transform::TensorParallel { tp: 4 }]),
        (
            "tp 2→4, dp 4→2 (4x2x2)",
            vec![
                Transform::TensorParallel { tp: 4 },
                Transform::DataParallel { dp: 2 },
            ],
        ),
        ("seq 2048→1024", vec![Transform::SeqLen { seq_len: 1024 }]),
        ("seq 2048→4096", vec![Transform::SeqLen { seq_len: 4096 }]),
        (
            "tp 4 + seq 4096",
            vec![
                Transform::TensorParallel { tp: 4 },
                Transform::SeqLen { seq_len: 4096 },
            ],
        ),
    ];
    let mut t = TextTable::new(&[
        "target",
        "predicted (ms)",
        "actual (ms)",
        "error",
        "predicted cmp/ovl/comm/other",
        "actual cmp/ovl/comm/other",
    ]);
    for (label, transforms) in targets {
        progress(&format!("extensions: predicting {label}"));
        let row = predict_from_calibrated(&calibrated, label, &transforms, opts);
        t.row(vec![
            row.label.clone(),
            ms(row.predicted),
            ms(row.actual),
            pct(row.error()),
            breakdown_cells(&row.predicted_breakdown).join("/"),
            breakdown_cells(&row.actual_breakdown).join("/"),
        ]);
    }
    Ok(t)
}

/// Figure 8: architecture-variant predictions from the 15B 2x2x4
/// base trace (Table 2 variants).
///
/// # Errors
///
/// Propagates configuration-lookup failures.
pub fn fig8(opts: &RunOptions, progress: Progress) -> Result<TextTable, PaperError> {
    let base = paper::fig7_base(opts.microbatches)?;
    progress(&format!("fig8: profiling base {}", base.label()));
    let calibrated = profile_calibrated(&base, opts);
    let mut t = TextTable::new(&[
        "variant",
        "predicted (ms)",
        "actual (ms)",
        "error",
        "predicted cmp/ovl/comm/other",
        "actual cmp/ovl/comm/other",
    ]);
    for (label, transforms) in paper::fig8_targets() {
        progress(&format!("fig8: predicting {label}"));
        let row = predict_from_calibrated(&calibrated, label, &transforms, opts);
        t.row(vec![
            row.label.clone(),
            ms(row.predicted),
            ms(row.actual),
            pct(row.error()),
            breakdown_cells(&row.predicted_breakdown).join("/"),
            breakdown_cells(&row.actual_breakdown).join("/"),
        ]);
    }
    Ok(t)
}
