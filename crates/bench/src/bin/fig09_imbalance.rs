//! Fig. 9: workload imbalance of the foveated model — (a) ASCII heatmap of
//! per-tile intersections for `bicycle`, (b) per-trace boxplots over the
//! Mip-NeRF-360 traces, (c) pre- vs post-merge imbalance of the §4.3
//! occupancy-driven tile merge plan (max/mean intersections per work unit,
//! raw tiles vs the plan's super-tiles). Part (c) is an analysis of the
//! per-tile counts (`RenderStats::unit_intersections`); the renderer
//! itself rasterizes tile rows.

use metasapiens::fov::FoveatedRenderer;
use metasapiens::pipeline::{build_system, BuildConfig, Variant};
use metasapiens::render::RenderOptions;
use metasapiens::scene::dataset::{Dataset, TraceId};
use ms_bench::{boxplot_row, load_trace, print_table, ExperimentConfig};

fn ascii_heatmap(counts: &[u32], tiles_x: u32, tiles_y: u32) {
    let max = counts.iter().copied().max().unwrap_or(1).max(1) as f32;
    const RAMP: &[u8] = b" .:-=+*#%@";
    for ty in 0..tiles_y {
        let mut line = String::new();
        for tx in 0..tiles_x {
            let v = counts[(ty * tiles_x + tx) as usize] as f32 / max;
            let idx = ((v.sqrt() * (RAMP.len() - 1) as f32).round() as usize).min(RAMP.len() - 1);
            line.push(RAMP[idx] as char);
        }
        println!("  {line}");
    }
}

/// Max/mean over a work-unit intersection list (1.0 for empty/zero lists).
fn unit_ratio(units: &[u32]) -> f64 {
    let total: u64 = units.iter().map(|&u| u as u64).sum();
    if units.is_empty() || total == 0 {
        return 1.0;
    }
    let mean = total as f64 / units.len() as f64;
    units.iter().copied().max().unwrap_or(0) as f64 / mean
}

fn main() {
    let config = ExperimentConfig::from_env();
    println!("== Fig. 9: per-tile intersection imbalance of the FR model ==\n");
    // One render per trace serves all three parts: the merge plan of (c) is
    // derived from the same per-level tile counts (a)/(b) read.
    let renderer = FoveatedRenderer::new(RenderOptions::default());

    // Fig. 9b traces (Mip-NeRF 360 subset the paper plots).
    let fig9b: Vec<TraceId> = ["flowers", "treehill", "stump", "garden", "bicycle"]
        .iter()
        .filter_map(|n| TraceId::new(Dataset::MipNerf360, n))
        .collect();

    let mut rows = Vec::new();
    let mut merge_rows = Vec::new();
    for trace in fig9b {
        let loaded = load_trace(trace, &config);
        let system = build_system(&loaded.scene, &BuildConfig::fast_for_tests(Variant::H));
        let out = renderer.render(&system.fov, &loaded.cameras[0], None);
        let samples = out.stats.tile_intersections_f32();
        if trace.name == "bicycle" {
            println!(
                "(a) heatmap for bicycle ({}x{} tiles, max = {}):",
                out.stats.grid.tiles_x,
                out.stats.grid.tiles_y,
                out.stats.max_intersections_per_tile()
            );
            ascii_heatmap(
                &out.stats.tile_intersections,
                out.stats.grid.tiles_x,
                out.stats.grid.tiles_y,
            );
            println!();
        }
        let mut row = boxplot_row(trace.name, &samples);
        row.push(format!("{:.0}x", out.stats.imbalance_ratio()));
        rows.push(row);

        // (c) pre vs post merge, on the same per-level work-unit basis: a
        // raw work unit is one (level, tile) pair, a merged one is one
        // (level, super-tile) pair — each quality level gets its own plan
        // over its own tile counts.
        let pre: Vec<u32> = out
            .per_level_stats
            .iter()
            .flat_map(|s| s.tile_intersections.iter().copied())
            .collect();
        let post: Vec<u32> = out
            .per_level_stats
            .iter()
            .flat_map(|s| s.unit_intersections())
            .collect();
        let (r_pre, r_post) = (unit_ratio(&pre), unit_ratio(&post));
        merge_rows.push(vec![
            trace.name.to_string(),
            format!("{}", pre.len()),
            format!("{}", post.len()),
            format!("{:.1}x", r_pre),
            format!("{:.1}x", r_post),
            if r_post < r_pre { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("(b) per-tile intersection distribution:");
    print_table(
        &[
            "trace", "lo", "Q1", "median", "Q3", "hi", "mean", "max/mean",
        ],
        &rows,
    );
    println!("\n(c) §4.3 occupancy-driven tile merging (threshold 0.5×mean, 4×4 cap):");
    print_table(
        &[
            "trace",
            "units pre",
            "units post",
            "max/mean pre",
            "max/mean post",
            "improved",
        ],
        &merge_rows,
    );
    println!("\npaper shape: work concentrates at the gaze; spread of 2-3 orders of");
    println!("magnitude between peripheral and central tiles across all traces.");
    println!("merging coalesces sparse peripheral tiles into super-tiles, so the");
    println!("max/mean per *work unit* drops strictly while pixels stay bit-identical.");
}
