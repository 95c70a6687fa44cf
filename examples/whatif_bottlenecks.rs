//! Bottleneck hunting and operator-level what-if studies (paper §5):
//! find the kernels dominating an iteration, then ask "how much would
//! the iteration improve if X ran twice as fast?" — before
//! implementing any optimization.
//!
//! Run with: `cargo run --release --example whatif_bottlenecks`

use lumos::core::analysis::{bottleneck_kernels, critical_path};
use lumos::core::manipulate::whatif;
use lumos::core::simulate;
use lumos::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = ModelConfig::custom("whatif-model", 6, 4096, 16384, 32, 128);
    let setup = TrainingSetup::new(model, Parallelism::new(2, 1, 2)?);
    let cluster = GroundTruthCluster::new(&setup, AnalyticalCostModel::h100())?
        .with_jitter(JitterModel::realistic(3));
    let profiled = cluster.profile_iteration(0)?;

    let lumos = Lumos::new();
    let replayed = lumos.replay(&profiled.trace)?;
    let baseline = replayed.makespan();
    println!("baseline iteration: {:.2} ms\n", baseline.as_ms_f64());

    // Where does the time go?
    println!("top kernels by total device time:");
    for (name, total, count) in bottleneck_kernels(&replayed.graph, &replayed.result, 5) {
        println!(
            "  {:<40} {:>10.2} ms  ({count} launches)",
            name,
            total.as_ms_f64()
        );
    }
    let cp = critical_path(&replayed.graph, &replayed.result);
    println!(
        "\ncritical path: {} steps — compute {:.1} ms, comm {:.1} ms, host {:.1} ms, idle {:.1} ms",
        cp.len(),
        cp.compute.as_ms_f64(),
        cp.comm.as_ms_f64(),
        cp.host.as_ms_f64(),
        cp.idle.as_ms_f64()
    );

    // What-if studies: apply each speedup to a fresh graph and
    // re-simulate (paper: "how much the overall runtime would be
    // reduced if a kernel ran twice as fast").
    println!("\nwhat-if studies (2x speedups):");
    type Edit =
        Box<dyn Fn(&mut lumos::core::ExecutionGraph) -> Result<usize, lumos::core::CoreError>>;
    let scenarios: Vec<(&str, Edit)> = vec![
        (
            "GEMMs 2x faster",
            Box::new(|g| whatif::try_scale_gemms(g, 0.5)),
        ),
        (
            "network 2x faster",
            Box::new(|g| whatif::try_scale_comms(g, 0.5)),
        ),
        (
            "host dispatch 2x faster",
            Box::new(|g| whatif::try_scale_host(g, 0.5)),
        ),
    ];
    for (label, apply) in scenarios {
        let mut graph = lumos.build_graph(&profiled.trace)?;
        let touched = apply(&mut graph)?;
        let sim = simulate(&graph, &SimOptions::default())?;
        let speedup = baseline.as_secs_f64() / sim.makespan().as_secs_f64();
        println!(
            "  {:<28} -> {:>8.2} ms  ({speedup:.2}x end-to-end, {touched} tasks touched)",
            label,
            sim.makespan().as_ms_f64()
        );
    }
    println!("\n(the most valuable optimization is the one with the largest end-to-end factor,\n not the largest kernel count — overlap absorbs some improvements)");
    Ok(())
}
