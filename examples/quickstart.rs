//! Quickstart: profile a small GPT-3 deployment, replay it with
//! Lumos, and check the replay error — the paper's core loop.
//!
//! Run with: `cargo run --release --example quickstart`

use lumos::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-layer slice of GPT-3 15B on 8 GPUs (TP=2, PP=2, DP=2).
    let model = ModelConfig::custom("GPT-3 15B (4-layer slice)", 4, 6144, 12288, 48, 128);
    let setup = TrainingSetup::new(model, Parallelism::new(2, 2, 2)?);
    println!("configuration: {}", setup.label());
    println!(
        "  {} parameters, {} GPUs, {} micro-batches\n",
        setup.model.num_params(),
        setup.parallelism.world_size(),
        setup.batch.num_microbatches
    );

    // Profile one iteration on the ground-truth engine. On a real
    // cluster this would be a PyTorch Kineto JSON loaded with
    // `lumos::trace::from_chrome_json`.
    let cluster = GroundTruthCluster::new(&setup, AnalyticalCostModel::h100())?
        .with_jitter(JitterModel::realistic(7));
    let profiled = cluster.profile_iteration(0)?;
    println!(
        "profiled iteration: {:.2} ms, {} events across {} ranks",
        profiled.makespan.as_ms_f64(),
        profiled.trace.total_events(),
        profiled.trace.world_size()
    );

    // Build the execution graph and replay it (paper §3.3 + §3.5).
    let lumos = Lumos::new();
    let graph = lumos.build_graph(&profiled.trace)?;
    let stats = graph.stats();
    println!(
        "execution graph: {} tasks, {} edges ({} inter-stream, {} collective instances)",
        stats.tasks,
        stats.total_edges(),
        stats.inter_stream,
        stats.collective_instances
    );

    let replayed = lumos.replay(&profiled.trace)?;
    println!(
        "replayed: {:.2} ms (error vs profiled: {:.2}%)",
        replayed.makespan().as_ms_f64(),
        replayed.makespan().relative_error(profiled.makespan) * 100.0
    );
    println!("breakdown: {}", replayed.breakdown());

    // Compare with the dPRO baseline.
    let dpro = Lumos::dpro_baseline().replay(&profiled.trace)?;
    println!(
        "dPRO replay: {:.2} ms (error {:.2}%) — optimistic, as the paper reports",
        dpro.makespan().as_ms_f64(),
        dpro.makespan().relative_error(profiled.makespan) * 100.0
    );

    // Export the simulated trace for chrome://tracing.
    let json = lumos::trace::to_chrome_json(&replayed.trace(), &Default::default());
    std::fs::write("/tmp/lumos_quickstart_replay.json", json)?;
    println!("\nwrote /tmp/lumos_quickstart_replay.json (open in chrome://tracing)");
    Ok(())
}
