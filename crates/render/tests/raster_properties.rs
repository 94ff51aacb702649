//! Property tests of the Raster stage over random scenes: random
//! anisotropic conics, splats hanging off every image edge, odd image
//! widths and tile sizes, stacks of nearly opaque splats that stop pixels
//! at different depths, and random pixel masks.
//!
//! Two invariants must hold bit for bit (pixels, winner buffers and
//! blend-step counts):
//!
//! * **Threads.** A frame rasterized on 3 workers equals the serial one.
//! * **Masks.** A masked frame equals the unmasked frame on every
//!   masked-in pixel, and holds the background and a `u32::MAX` winner on
//!   every masked-out one. Every foveated level is a masked frame, so the
//!   foveated renderer depends on this.

use ms_math::{Conic2, TileRect, Vec2, Vec3};
use ms_render::{Image, ProjectedSplat, RenderOptions, RenderOutput, Renderer, SceneRef, View};
use ms_scene::Camera;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tile sizes to draw from: odd sizes put the last row and column of edge
/// tiles in the middle of a splat's footprint.
const TILE_SIZES: [u32; 5] = [5, 7, 8, 16, 17];

/// Bit-level image comparison: `-0.0` vs `0.0` or NaN payload differences
/// must fail, not pass, so `PartialEq` on `f32` is not strict enough.
fn assert_images_bit_identical(a: &Image, b: &Image) -> Result<(), String> {
    if a.width() != b.width() || a.height() != b.height() {
        return Err("image dimensions differ".into());
    }
    for (i, (pa, pb)) in a.pixels().iter().zip(b.pixels()).enumerate() {
        if bits(*pa) != bits(*pb) {
            return Err(format!("pixel {i} differs: {pa:?} vs {pb:?}"));
        }
    }
    Ok(())
}

fn bits(v: Vec3) -> [u32; 3] {
    [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
}

fn assert_outputs_bit_identical(a: &RenderOutput, b: &RenderOutput) -> Result<(), String> {
    assert_images_bit_identical(&a.image, &b.image)?;
    if a.winners != b.winners {
        return Err("winner buffers differ".into());
    }
    if a.stats.blend_steps != b.stats.blend_steps {
        return Err(format!(
            "blend steps differ: {} vs {}",
            a.stats.blend_steps, b.stats.blend_steps
        ));
    }
    Ok(())
}

fn options(tile_size: u32, alpha_min: f32, alpha_max: f32, t_min: f32) -> RenderOptions {
    RenderOptions {
        tile_size,
        alpha_min,
        alpha_max,
        t_min,
        // A background no splat mix produces by accident, so masked-out
        // pixels are recognisable.
        background: Vec3::new(0.25, 0.5, 0.75),
        track_point_stats: true,
        threads: 1,
        ..RenderOptions::default()
    }
}

fn camera(width: u32, height: u32, distance: f32) -> Camera {
    Camera::look_at(
        width,
        height,
        60.0,
        Vec3::new(0.0, 0.0, distance),
        Vec3::zero(),
    )
}

fn random_color(rng: &mut StdRng) -> Vec3 {
    Vec3::new(
        rng.gen_range(0.0..1.0f32),
        rng.gen_range(0.0..1.0f32),
        rng.gen_range(0.0..1.0f32),
    )
}

/// Random pre-projected splats over a `width × height` image: anisotropic
/// positive-definite conics at random orientations, opacities from faint
/// to nearly opaque, and centers up to 20 px off every image edge.
fn random_splats(
    rng: &mut StdRng,
    n: usize,
    width: u32,
    height: u32,
    tile_size: u32,
) -> Vec<ProjectedSplat> {
    let tiles_x = width.div_ceil(tile_size);
    let tiles_y = height.div_ceil(tile_size);
    (0..n)
        .filter_map(|i| {
            let cx = rng.gen_range(-20.0..width as f32 + 20.0);
            let cy = rng.gen_range(-20.0..height as f32 + 20.0);
            let radius = rng.gen_range(1.0..50.0f32);
            let tiles =
                TileRect::from_circle(Vec2::new(cx, cy), radius, tile_size, tiles_x, tiles_y)?;
            let (sx, sy) = (rng.gen_range(0.6..12.0f32), rng.gen_range(0.6..12.0f32));
            let theta = rng.gen_range(0.0..std::f32::consts::PI);
            let (s, c) = theta.sin_cos();
            let (ia, ib) = (1.0 / (sx * sx), 1.0 / (sy * sy));
            let conic = Conic2 {
                a: c * c * ia + s * s * ib,
                b: s * c * (ia - ib),
                c: s * s * ia + c * c * ib,
            };
            Some(ProjectedSplat {
                point_index: i as u32,
                center: Vec2::new(cx, cy),
                conic,
                depth: rng.gen_range(0.1..60.0f32),
                radius,
                color: random_color(rng),
                opacity: rng.gen_range(0.02..0.99f32),
                tiles,
            })
        })
        .collect()
}

/// Stacks of small, nearly opaque splats: transmittance crosses `t_min`
/// after a handful of admissions, at a different list position for
/// neighbouring pixels, so the early stop fires at varied depths.
fn opaque_stack(
    rng: &mut StdRng,
    n: usize,
    width: u32,
    height: u32,
    tile_size: u32,
) -> Vec<ProjectedSplat> {
    let tiles_x = width.div_ceil(tile_size);
    let tiles_y = height.div_ceil(tile_size);
    (0..n)
        .filter_map(|i| {
            let cx = rng.gen_range(0.0..width as f32);
            let cy = rng.gen_range(0.0..height as f32);
            let radius = rng.gen_range(2.0..9.0f32);
            let tiles =
                TileRect::from_circle(Vec2::new(cx, cy), radius, tile_size, tiles_x, tiles_y)?;
            let inv = 1.0 / rng.gen_range(1.0..9.0f32);
            Some(ProjectedSplat {
                point_index: i as u32,
                center: Vec2::new(cx, cy),
                conic: Conic2 {
                    a: inv,
                    b: 0.0,
                    c: inv,
                },
                depth: rng.gen_range(0.1..20.0f32),
                radius,
                color: random_color(rng),
                opacity: rng.gen_range(0.90..0.99f32),
                tiles,
            })
        })
        .collect()
}

/// A random mask: pixels inside a random disk, each kept with probability
/// `density`. Tiles outside the disk are wholly masked out, so Bin drops
/// them; tiles inside keep a random scatter of pixels.
fn random_mask(rng: &mut StdRng, width: u32, height: u32, density: f64) -> Vec<bool> {
    let cx = rng.gen_range(0.0..width as f32);
    let cy = rng.gen_range(0.0..height as f32);
    let r = rng.gen_range(4.0..(width.max(height) as f32));
    (0..width * height)
        .map(|i| {
            let (x, y) = ((i % width) as f32 + 0.5, (i / width) as f32 + 0.5);
            let inside = (x - cx) * (x - cx) + (y - cy) * (y - cy) <= r * r;
            inside && rng.gen_bool(density)
        })
        .collect()
}

/// Render `scene` at 1 and 3 workers and require the same frame.
fn render_thread_invariant<'a>(
    options: &RenderOptions,
    scene: impl Into<SceneRef<'a>> + Copy,
    view: View,
) -> Result<RenderOutput, String> {
    let serial = Renderer::new(options.clone()).render(scene, view.clone());
    let parallel = Renderer::new(RenderOptions {
        threads: 3,
        ..options.clone()
    })
    .render(scene, view);
    assert_outputs_bit_identical(&parallel, &serial).map_err(|e| format!("threads 3: {e}"))?;
    if parallel.stats != serial.stats {
        return Err("threads 3: stats differ".into());
    }
    Ok(serial)
}

proptest! {
    #[test]
    fn threads_are_bit_identical_on_random_splat_lists(
        seed in 0u64..1u64 << 48,
        n in 1usize..120,
        width in 17u32..90,
        height in 9u32..70,
        ts_pick in 0usize..5,
        alpha_min in 0.0f32..0.08,
        alpha_span in 0.05f32..0.9,
        t_min in 1e-5f32..0.3,
    ) {
        let tile_size = TILE_SIZES[ts_pick];
        let alpha_max = (alpha_min + alpha_span).min(1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let splats = random_splats(&mut rng, n, width, height, tile_size);
        let scene = SceneRef::Projected { splats: &splats, points: n };
        let o = options(tile_size, alpha_min, alpha_max, t_min);
        render_thread_invariant(&o, scene, View::from(&camera(width, height, 4.0)))?;
    }

    #[test]
    fn threads_are_bit_identical_with_opaque_stacks(
        seed in 0u64..1u64 << 48,
        n in 8usize..64,
        width in 21u32..60,
        height in 13u32..48,
        ts_pick in 0usize..5,
    ) {
        let tile_size = TILE_SIZES[ts_pick];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let splats = opaque_stack(&mut rng, n, width, height, tile_size);
        let scene = SceneRef::Projected { splats: &splats, points: n };
        let o = options(tile_size, 1.0 / 255.0, 0.99, 0.05);
        render_thread_invariant(&o, scene, View::from(&camera(width, height, 4.0)))?;
    }

    #[test]
    fn masked_frame_matches_unmasked_on_masked_in_pixels(
        seed in 0u64..1u64 << 48,
        n in 1usize..100,
        width in 17u32..80,
        height in 9u32..64,
        ts_pick in 0usize..5,
        density in 0.05f64..1.0,
    ) {
        let tile_size = TILE_SIZES[ts_pick];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5851_f42d_4c95_7f2d);
        let splats = random_splats(&mut rng, n, width, height, tile_size);
        let mask = random_mask(&mut rng, width, height, density);
        let scene = SceneRef::Projected { splats: &splats, points: n };
        let cam = camera(width, height, 4.0);
        let o = options(tile_size, 1.0 / 255.0, 0.99, 1e-4);
        let full = render_thread_invariant(&o, scene, View::from(&cam))?;
        let masked = render_thread_invariant(&o, scene, View::masked(cam, mask.clone()))?;
        for (i, &keep) in mask.iter().enumerate() {
            let (pixel, winner) = (masked.image.pixels()[i], masked.winners[i]);
            let expect = if keep {
                (full.image.pixels()[i], full.winners[i])
            } else {
                (o.background, u32::MAX)
            };
            if (bits(pixel), winner) != (bits(expect.0), expect.1) {
                return Err(format!(
                    "pixel {i} (masked in: {keep}): {pixel:?}/{winner} vs {:?}/{}",
                    expect.0, expect.1
                ));
            }
        }
        prop_assert!(masked.stats.blend_steps <= full.stats.blend_steps);
    }
}
