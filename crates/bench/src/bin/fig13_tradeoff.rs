//! Fig. 13: the speed/quality trade-off — FPS vs PSNR / SSIM / LPIPS for
//! the seven baselines and the three MetaSapiens variants, averaged over
//! the corpus.

use metasapiens::baselines::{build_baseline, BaselineKind};
use metasapiens::eval::{evaluate_baseline, evaluate_foveated};
use metasapiens::pipeline::{build_system, BuildConfig, Variant};
use metasapiens::render::RenderOptions;
use ms_bench::{env_or, load_trace, print_table, ExperimentConfig};

#[derive(Default, Clone, Copy)]
struct Acc {
    fps: f64,
    psnr: f64,
    ssim: f64,
    lpips: f64,
    n: f64,
}

impl Acc {
    fn add(&mut self, m: &metasapiens::eval::ModelMetrics) {
        self.fps += m.fps;
        self.psnr += m.psnr_db as f64;
        self.ssim += m.ssim as f64;
        self.lpips += m.lpips as f64;
        self.n += 1.0;
    }

    fn row(&self, label: &str) -> Vec<String> {
        let n = self.n.max(1.0);
        vec![
            label.to_string(),
            format!("{:.1}", self.fps / n),
            format!("{:.2}", self.psnr / n),
            format!("{:.3}", self.ssim / n),
            format!("{:.4}", self.lpips / n),
        ]
    }
}

fn main() {
    let config = ExperimentConfig::from_env();
    let scale = config.scale_factors();
    println!("== Fig. 13: FPS vs PSNR/SSIM/LPIPS (averaged over corpus) ==\n");
    let cap = env_or("MS_TRADEOFF_TRACES", 4usize);
    let traces: Vec<_> = config.traces().into_iter().take(cap).collect();

    let mut baseline_acc = vec![Acc::default(); BaselineKind::ALL.len()];
    let mut variant_acc = vec![Acc::default(); Variant::ALL.len()];

    for trace in &traces {
        let loaded = load_trace(*trace, &config);
        let cams = &loaded.cameras;
        let refs = &loaded.references;
        for (i, kind) in BaselineKind::ALL.iter().enumerate() {
            let b = build_baseline(*kind, &loaded.scene, cams);
            let m = evaluate_baseline(&b, cams, refs, scale);
            baseline_acc[i].add(&m);
        }
        for (i, v) in Variant::ALL.iter().enumerate() {
            let system = build_system(&loaded.scene, &BuildConfig::fast_for_tests(*v));
            let m = evaluate_foveated(&system.fov, &RenderOptions::default(), cams, refs, scale);
            variant_acc[i].add(&m);
        }
    }

    let mut rows = Vec::new();
    for (i, kind) in BaselineKind::ALL.iter().enumerate() {
        rows.push(baseline_acc[i].row(kind.name()));
    }
    for (i, v) in Variant::ALL.iter().enumerate() {
        rows.push(variant_acc[i].row(v.name()));
    }
    print_table(&["model", "FPS", "PSNR dB", "SSIM", "LPIPS"], &rows);

    // Headline checks from §7.2.
    let fastest_baseline = baseline_acc
        .iter()
        .map(|a| a.fps / a.n.max(1.0))
        .fold(0.0f64, f64::max);
    let ours_h = variant_acc[0].fps / variant_acc[0].n.max(1.0);
    let ours_l = variant_acc[2].fps / variant_acc[2].n.max(1.0);
    let tdgs = baseline_acc[0].fps / baseline_acc[0].n.max(1.0);
    println!(
        "\nMetaSapiens-H vs fastest baseline: {:.1}x (paper: 1.9x)",
        ours_h / fastest_baseline
    );
    println!(
        "MetaSapiens-L vs 3DGS:            {:.1}x (paper: 7.9x)",
        ours_l / tdgs
    );
}
