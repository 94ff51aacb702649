//! Fig. 3: FPS distribution of five recent PBNR models across the corpus,
//! on the modeled mobile Volta GPU (boxplot rows).

use metasapiens::baselines::{build_baseline, BaselineKind};
use metasapiens::gpu::{FrameWorkload, GpuCostModel};
use metasapiens::render::Renderer;
use ms_bench::{boxplot_row, load_trace, print_table, ExperimentConfig};

fn main() {
    let config = ExperimentConfig::from_env();
    let scale = config.scale_factors();
    let gpu = GpuCostModel::xavier();
    println!("== Fig. 3: FPS distribution on the mobile GPU model ==");
    println!(
        "corpus: {} traces at scene scale {}, {}x{}\n",
        config.traces().len(),
        config.scene_scale,
        config.width,
        config.height
    );

    let mut rows = Vec::new();
    for kind in BaselineKind::FIG3 {
        let mut fps_samples = Vec::new();
        for trace in config.traces() {
            let loaded = load_trace(trace, &config);
            let baseline = build_baseline(kind, &loaded.scene, &loaded.cameras);
            let renderer = Renderer::new(baseline.render_options.clone());
            let per_pixel = kind.sorts_per_pixel();
            let mut latency = 0.0;
            for cam in &loaded.cameras {
                let out = renderer.render(&baseline.model, cam);
                let w = FrameWorkload::from_stats(&out.stats, per_pixel)
                    .scaled(scale.point_factor, scale.pixel_factor);
                latency += gpu.frame_latency(&w);
            }
            fps_samples.push((loaded.cameras.len() as f64 / latency) as f32);
        }
        rows.push(boxplot_row(kind.name(), &fps_samples));
    }
    print_table(&["model", "lo", "Q1", "median", "Q3", "hi", "mean"], &rows);
    println!("\npaper shape: dense models (3DGS, Mini-Splatting-D) slowest and well");
    println!("below real time; pruned models faster but still under the 75-90 FPS VR bar.");
}
