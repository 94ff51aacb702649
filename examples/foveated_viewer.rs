//! Foveated viewer: render a trace dense vs. foveated, dump PPM images you
//! can open in any viewer, and report the per-region HVSQ that HVS-guided
//! training controls for.
//!
//! Run with: `cargo run --release --example foveated_viewer`
//! Outputs land in `target/foveated_viewer/`.

use metasapiens::fov::FoveatedRenderer;
use metasapiens::hvs::{DisplayGeometry, EccentricityMap, Hvsq, HvsqOptions};
use metasapiens::math::Vec3;
use metasapiens::pipeline::{build_system, BuildConfig, Variant};
use metasapiens::render::{Image, RenderOptions, Renderer, TILE_SIZE};
use metasapiens::scene::dataset::TraceId;
use metasapiens::scene::Camera;
use std::fs;
use std::path::Path;

fn save_ppm(dir: &Path, name: &str, image: &Image) {
    let path = dir.join(name);
    fs::write(&path, image.to_ppm()).expect("write ppm");
    println!("wrote {}", path.display());
}

/// Color-map per-tile intersections into a heatmap image (Fig. 9a style).
fn heatmap(tile_counts: &[u32], tiles_x: u32, tiles_y: u32) -> Image {
    let max = tile_counts.iter().copied().max().unwrap_or(1).max(1) as f32;
    let mut img = Image::new(tiles_x * TILE_SIZE, tiles_y * TILE_SIZE);
    for ty in 0..tiles_y {
        for tx in 0..tiles_x {
            let v = tile_counts[(ty * tiles_x + tx) as usize] as f32 / max;
            // Blue → red ramp.
            let c = Vec3::new(v, 0.15 * (1.0 - v), 1.0 - v);
            for y in ty * TILE_SIZE..(ty + 1) * TILE_SIZE {
                for x in tx * TILE_SIZE..(tx + 1) * TILE_SIZE {
                    img.set_pixel(x, y, c);
                }
            }
        }
    }
    img
}

fn main() {
    const SCENE_SCALE: f32 = 0.01;
    let out_dir = Path::new("target/foveated_viewer");
    fs::create_dir_all(out_dir).expect("create output dir");

    let trace = TraceId::by_name("drjohnson").expect("trace exists");
    println!("== foveated viewer on {trace} ==");
    let scene = trace.build_scene_with_scale(SCENE_SCALE);
    let system = build_system(&scene, &BuildConfig::new(Variant::H));

    // A wide-FOV view so all four quality regions appear on screen.
    let cam = Camera {
        width: 320,
        height: 240,
        fovy: metasapiens::math::deg_to_rad(74.0),
        ..system.train_cameras[0]
    };

    let renderer = Renderer::default();
    let dense = renderer.render(&scene.model, &cam);
    save_ppm(out_dir, "dense.ppm", &dense.image.clamped());

    let fr = FoveatedRenderer::new(RenderOptions::default());
    let fov = fr.render(&system.fov, &cam, None);
    save_ppm(out_dir, "foveated.ppm", &fov.image.clamped());

    for l in 0..system.fov.level_count() {
        let lvl = renderer.render(&system.fov.level_model(l), &cam);
        save_ppm(
            out_dir,
            &format!("level_{}.ppm", l + 1),
            &lvl.image.clamped(),
        );
    }

    let g = fov.stats.grid;
    save_ppm(
        out_dir,
        "tile_heatmap.ppm",
        &heatmap(&fov.stats.tile_intersections, g.tiles_x, g.tiles_y),
    );

    // Per-region HVSQ of the foveated render against the dense reference.
    let display = DisplayGeometry::new(
        cam.width,
        cam.height,
        metasapiens::math::rad_to_deg(cam.fovx()),
    );
    let hvsq = Hvsq::with_options(
        EccentricityMap::centered(display),
        HvsqOptions {
            stride: 2,
            ..HvsqOptions::default()
        },
    );
    let boundaries = system.fov.regions().boundaries_deg().to_vec();
    let per_region = hvsq.evaluate_regions(&dense.image, &fov.image, &boundaries);
    println!("\nHVSQ per quality region (lower = less discriminable from dense):");
    for (i, q) in per_region.iter().enumerate() {
        let hi = boundaries
            .get(i + 1)
            .map(|b| format!("{b}°"))
            .unwrap_or_else(|| "∞".into());
        println!("  L{} [{}°..{}):  {:.3e}", i + 1, boundaries[i], hi, q);
    }
    println!(
        "\nblended pixels: {} ({:.1}% of the image)",
        fov.blended_pixels,
        100.0 * fov.blended_pixels as f32 / (cam.width * cam.height) as f32
    );
}
