//! Quick calibration harness (not a paper artifact): compares dPRO
//! inter-stream candidate models and checks error magnitudes.
use lumos_bench::paper;
use lumos_bench::{or_exit, profile_config, RunOptions};
use lumos_core::{BuildOptions, InterStreamMode, Lumos, RendezvousMode, SimOptions};
use lumos_model::ModelConfig;
use std::time::Instant;

fn main() {
    let opts = RunOptions {
        seed: 1,
        measured_iters: 3,
        microbatches: Some(8),
    };
    for (model, label) in [
        (ModelConfig::gpt3_15b(), "2x2x4"),
        (ModelConfig::gpt3_15b(), "4x2x4"),
        (ModelConfig::gpt3_44b(), "4x4x2"),
        (ModelConfig::gpt3_44b(), "8x4x2"),
        (ModelConfig::gpt3_117b(), "8x4x4"),
    ] {
        let cfg = or_exit(paper::config(model, label, opts.microbatches));
        let t0 = Instant::now();
        let profiled = profile_config(&cfg, &opts);
        let actual = profiled.actual;
        print!(
            "{} {}: actual {:.0}ms",
            cfg.model.name,
            label,
            actual.as_ms_f64()
        );
        for (name, mode, rdv) in [
            ("lumos", InterStreamMode::Full, RendezvousMode::All),
            (
                "dflow+sr",
                InterStreamMode::DataflowOnly,
                RendezvousMode::SendRecvOnly,
            ),
            (
                "dflow+all",
                InterStreamMode::DataflowOnly,
                RendezvousMode::All,
            ),
            (
                "cons+all",
                InterStreamMode::ConsumerOnly,
                RendezvousMode::All,
            ),
        ] {
            let toolkit = Lumos {
                build: BuildOptions { interstream: mode },
                sim: SimOptions {
                    rendezvous: rdv,
                    ..SimOptions::default()
                },
            };
            let r = toolkit.replay(&profiled.output.trace).unwrap();
            print!(
                "  {}={:.0}ms({:+.1}%)",
                name,
                r.makespan().as_ms_f64(),
                (r.makespan().as_ms_f64() / actual.as_ms_f64() - 1.0) * 100.0
            );
        }
        println!("  [{:?}]", t0.elapsed());
    }
}
