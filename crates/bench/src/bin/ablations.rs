//! Ablations of three of the paper's design choices:
//!
//! 1. **CE aggregation**: max over poses (paper's choice) vs mean.
//! 2. **TMU threshold β** sweep (accelerator balance knob).
//! 3. **Selective multi-versioning**: tuned per-level Opacity/SH-DC vs
//!    strict subsetting (SMFR-style parameter sharing).

use metasapiens::accel::{simulate, AccelConfig, AccelWorkload};
use metasapiens::fov::{build_foveated, FoveatedRenderer, FrBuildConfig};
use metasapiens::pipeline::{build_system, BuildConfig, Variant};
use metasapiens::render::{RenderOptions, Renderer};
use metasapiens::scene::dataset::TraceId;
use metasapiens::train::ce::{compute_ce, CeAggregation, CeOptions};
use metasapiens::train::finetune::FineTuneConfig;
use metasapiens::train::prune::prune_fraction;
use ms_bench::{load_trace, print_table, ExperimentConfig};

fn main() {
    let config = ExperimentConfig::from_env();
    let trace = TraceId::by_name("garden").expect("garden exists");
    println!("== Ablations on {trace} ==\n");
    let loaded = load_trace(trace, &config);
    let cams = &loaded.cameras;
    let refs = &loaded.references;
    let renderer = Renderer::default();

    // ---------------------------------------------------------------
    // 1. CE aggregation: prune 60% by max-CE vs mean-CE, compare MSE.
    println!("(1) CE aggregation — prune 60% of points, quality of the survivors:");
    let mut rows = Vec::new();
    for (label, agg) in [
        ("max over poses (paper)", CeAggregation::Max),
        ("mean over poses", CeAggregation::Mean),
    ] {
        let ce = compute_ce(
            &loaded.scene.model,
            cams,
            &CeOptions {
                aggregation: agg,
                ..CeOptions::default()
            },
        );
        let (pruned, _) = prune_fraction(&loaded.scene.model, &ce, 0.6);
        let mse: f32 = cams
            .iter()
            .zip(refs)
            .map(|(c, r)| renderer.render(&pruned, c).image.mse(r))
            .sum::<f32>()
            / cams.len() as f32;
        rows.push(vec![label.to_string(), format!("{mse:.2e}")]);
    }
    print_table(&["aggregation", "MSE vs dense"], &rows);

    // ---------------------------------------------------------------
    // 2. β sweep on the accelerator.
    println!("\n(2) TMU threshold β sweep (MetaSapiens-H FR frame):");
    let system = build_system(&loaded.scene, &BuildConfig::fast_for_tests(Variant::H));
    let fr_out =
        FoveatedRenderer::new(RenderOptions::default()).render(&system.fov, &cams[0], None);
    let scale = config.scale_factors();
    let workload = AccelWorkload::from_stats(
        &fr_out.stats,
        Some(&fr_out.tile_level),
        fr_out.blended_pixels as u64,
        system.fov.storage_bytes() as u64,
    )
    .scaled(scale.point_factor, scale.pixel_factor);
    let mut rows = Vec::new();
    for beta in [1u32, 64, 256, 512, 2048, 8192] {
        let mut c = AccelConfig::metasapiens_tm_ip();
        c.tile_merge_beta = beta;
        let sim = simulate(&workload, &c);
        rows.push(vec![
            format!("{beta}"),
            format!("{}", sim.cycles),
            format!("{}", sim.units_processed),
            format!("{:.1}%", 100.0 * sim.raster_utilization),
        ]);
    }
    print_table(&["beta", "cycles", "pipeline slots", "raster util"], &rows);

    // ---------------------------------------------------------------
    // 3. Multi-versioning on/off at matched point budgets.
    println!("\n(3) Selective multi-versioning (same subsets, tuned vs shared params):");
    let base_cfg = FrBuildConfig {
        finetune: None,
        ..FrBuildConfig::default()
    };
    let tuned_cfg = FrBuildConfig {
        finetune: Some(FineTuneConfig {
            iterations: 15,
            scale_decay: None,
            ..FineTuneConfig::default()
        }),
        ..FrBuildConfig::default()
    };
    let shared = build_foveated(&system.l1, cams, refs, &base_cfg);
    let tuned = build_foveated(&system.l1, cams, refs, &tuned_cfg);
    let mut rows = Vec::new();
    for (label, model) in [
        ("strict subsetting", &shared),
        ("multi-versioned (paper)", &tuned),
    ] {
        let l4 = model.level_model(3);
        let mse_l4: f32 = cams
            .iter()
            .zip(refs)
            .map(|(c, r)| renderer.render(&l4, c).image.mse(r))
            .sum::<f32>()
            / cams.len() as f32;
        rows.push(vec![
            label.to_string(),
            format!("{:.2e}", mse_l4),
            format!("{:.1}%", 100.0 * model.storage_overhead()),
        ]);
    }
    print_table(&["variant", "L4 MSE vs dense", "storage overhead"], &rows);
    println!("\npaper: max-CE beats mean-CE (dataset-bias robustness); moderate β");
    println!("amortizes tiny tiles without serializing the pipe; multi-versioning");
    println!("recovers peripheral quality for ~6% extra storage.");
}
