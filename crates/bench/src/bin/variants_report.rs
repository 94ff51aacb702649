//! §6 variants: MetaSapiens-H/M/L model-size fractions (paper: 16%, 12%,
//! 10% of the dense model) and their speed/quality ladder.

use metasapiens::eval::{evaluate_foveated, evaluate_model};
use metasapiens::pipeline::{build_system, BuildConfig, Variant};
use metasapiens::render::RenderOptions;
use ms_bench::{env_or, load_trace, print_table, ExperimentConfig};

fn main() {
    let config = ExperimentConfig::from_env();
    let scale = config.scale_factors();
    println!("== §6: MetaSapiens variants (averaged over corpus) ==\n");
    let cap = env_or("MS_VARIANTS_TRACES", 4usize);
    let traces: Vec<_> = config.traces().into_iter().take(cap).collect();

    let mut rows = Vec::new();
    let mut dense_fps_acc = 0.0f64;
    let mut acc: Vec<(f64, f64, f64)> = vec![(0.0, 0.0, 0.0); Variant::ALL.len()];
    for trace in &traces {
        let loaded = load_trace(*trace, &config);
        let dense = evaluate_model(
            &loaded.scene.model,
            &RenderOptions::default(),
            &loaded.cameras,
            &loaded.references,
            scale,
        );
        dense_fps_acc += dense.fps / traces.len() as f64;
        for (i, v) in Variant::ALL.iter().enumerate() {
            let system = build_system(&loaded.scene, &BuildConfig::fast_for_tests(*v));
            let m = evaluate_foveated(
                &system.fov,
                &RenderOptions::default(),
                &loaded.cameras,
                &loaded.references,
                scale,
            );
            acc[i].0 += system.storage_fraction() as f64 / traces.len() as f64;
            acc[i].1 += m.fps / traces.len() as f64;
            acc[i].2 += m.psnr_db as f64 / traces.len() as f64;
        }
    }
    for (i, v) in Variant::ALL.iter().enumerate() {
        rows.push(vec![
            v.name().to_string(),
            format!("{:.1}%", acc[i].0 * 100.0),
            format!("{:.1}", acc[i].1),
            format!("{:.1}x", acc[i].1 / dense_fps_acc),
            format!("{:.2}", acc[i].2),
        ]);
    }
    print_table(
        &[
            "variant",
            "size vs dense",
            "FPS",
            "speedup vs dense",
            "PSNR dB",
        ],
        &rows,
    );
    println!("\npaper: total model sizes 16%/12%/10% of dense; L1 PSNR targets");
    println!("99%/98%/97% of the dense model's PSNR.");
}
