//! §7.3 energy results: accelerator energy vs the mobile GPU — the paper
//! reports 54.4x (Base) and 56.8x (TM+IP) energy reductions.

use metasapiens::accel::{simulate, AccelConfig, AccelWorkload, EnergyModel};
use metasapiens::eval::foveated_workload;
use metasapiens::fov::FoveatedRenderer;
use metasapiens::gpu::GpuCostModel;
use metasapiens::pipeline::{build_system, BuildConfig, Variant};
use metasapiens::render::RenderOptions;
use ms_bench::{env_or, load_trace, print_table, ExperimentConfig};

fn main() {
    let config = ExperimentConfig::from_env();
    let scale = config.scale_factors();
    println!("== §7.3: energy per frame, accelerator vs mobile GPU ==\n");
    let fr = FoveatedRenderer::new(RenderOptions::default());
    let gpu = GpuCostModel::xavier();
    let energy_model = EnergyModel::default();
    let configs = [
        AccelConfig::metasapiens_base(),
        AccelConfig::metasapiens_tm(),
        AccelConfig::metasapiens_tm_ip(),
    ];
    let cap = env_or("MS_ENERGY_TRACES", 4usize);

    let mut ratios = vec![Vec::new(); configs.len()];
    let mut rows = Vec::new();
    for trace in config.traces().into_iter().take(cap) {
        let loaded = load_trace(trace, &config);
        let system = build_system(&loaded.scene, &BuildConfig::fast_for_tests(Variant::H));
        let frame = fr.render(&system.fov, &loaded.cameras[0], None);
        // Full-scale workload on both sides.
        let gpu_w = foveated_workload(&frame, scale);
        let gpu_energy = gpu.frame_energy(&gpu_w);

        // Scale the accelerator workload the same way.
        let workload = AccelWorkload::from_stats(
            &frame.stats,
            Some(&frame.tile_level),
            frame.blended_pixels as u64,
            system.fov.storage_bytes() as u64,
        )
        .scaled(scale.point_factor, scale.pixel_factor);

        let mut row = vec![
            trace.name.to_string(),
            format!("{:.0} mJ", gpu_energy * 1e3),
        ];
        for (i, c) in configs.iter().enumerate() {
            let sim = simulate(&workload, c);
            let e = energy_model.frame_energy(&workload, &sim, c).total_j();
            let ratio = gpu_energy / e;
            ratios[i].push(ratio as f32);
            row.push(format!("{:.1} mJ ({:.0}x)", e * 1e3, ratio));
        }
        rows.push(row);
    }
    print_table(&["trace", "GPU", "Base", "Base+TM", "Base+TM+IP"], &rows);
    println!();
    for (i, c) in configs.iter().enumerate() {
        println!(
            "{:<20} geomean energy reduction {:>6.1}x",
            c.name,
            ms_math::stats::geomean(&ratios[i])
        );
    }
    println!("\npaper: Base 54.4x, TM+IP 56.8x (IP's line buffers cut SRAM energy).");
}
