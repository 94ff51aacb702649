//! Fig. 12: ablation of the performance techniques — Dense →
//! +ScaleDecay → +CE pruning → +FR — reporting FPS (left axis) and PSNR
//! (right axis), averaged over the corpus.

use metasapiens::eval::{evaluate_foveated, evaluate_model};
use metasapiens::pipeline::{build_system, BuildConfig, Variant};
use metasapiens::render::RenderOptions;
use metasapiens::train::finetune::{fine_tune, FineTuneConfig};
use metasapiens::train::scale_decay::ScaleDecayOptions;
use ms_bench::{env_or, load_trace, print_table, ExperimentConfig};

fn main() {
    let config = ExperimentConfig::from_env();
    let scale = config.scale_factors();
    println!("== Fig. 12: ablation (MetaSapiens-H, averaged over traces) ==\n");

    let mut fps = [0.0f64; 4];
    let mut psnr = [0.0f64; 4];
    let traces = config.traces();
    // The full ablation is expensive; cap the corpus by default.
    let cap = env_or("MS_ABLATION_TRACES", 4usize);
    let used: Vec<_> = traces.into_iter().take(cap).collect();

    for trace in &used {
        let loaded = load_trace(*trace, &config);
        let cams = &loaded.cameras;
        let refs = &loaded.references;
        let opts = RenderOptions::default();

        // (1) Dense (Mini-Splatting-D emulation = the dense scene model).
        let dense = evaluate_model(&loaded.scene.model, &opts, cams, refs, scale);

        // (2) + Scale decay only: fine-tune the dense model with the WS
        // regularizer (shrinks heavy splats; no pruning).
        let mut sd_model = loaded.scene.model.clone();
        fine_tune(
            &mut sd_model,
            cams,
            refs,
            FineTuneConfig {
                iterations: 6,
                scale_decay: Some(ScaleDecayOptions {
                    usage_threshold: 4.0,
                    gamma: 0.05,
                }),
                ..FineTuneConfig::default()
            },
        );
        let sd = evaluate_model(&sd_model, &opts, cams, refs, scale);

        // (3) + CE pruning (the full Fig. 6 loop to the H fraction).
        let system = build_system(&loaded.scene, &BuildConfig::fast_for_tests(Variant::H));
        let ce = evaluate_model(&system.l1, &opts, cams, refs, scale);

        // (4) + FR.
        let fr = evaluate_foveated(&system.fov, &opts, cams, refs, scale);

        for (i, m) in [dense, sd, ce, fr].iter().enumerate() {
            fps[i] += m.fps / used.len() as f64;
            psnr[i] += m.psnr_db as f64 / used.len() as f64;
        }
    }

    let labels = ["Dense", "+SD", "+CE", "+FR"];
    let rows: Vec<Vec<String>> = labels
        .iter()
        .enumerate()
        .map(|(i, l)| {
            vec![
                l.to_string(),
                format!("{:.1}", fps[i]),
                format!("{:.1}", psnr[i]),
                format!("{:.1}x", fps[i] / fps[0]),
            ]
        })
        .collect();
    print_table(&["config", "FPS", "PSNR dB", "speedup"], &rows);
    println!("\npaper shape: PSNRs similar across configs; speedups 1.6x (SD),");
    println!("5.8x (SD+CE), 7.4x (SD+CE+FR) over the dense model.");
}
