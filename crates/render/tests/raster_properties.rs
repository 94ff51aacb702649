//! Property tests of the Raster stage over random scenes: random
//! anisotropic conics, splats hanging off every image edge, odd image
//! widths and heights that leave ragged edge tiles, stacks of nearly opaque
//! splats that stop pixels at different depths, and random per-pixel level
//! maps.
//!
//! Three invariants must hold bit for bit (pixels, winner buffers and
//! blend-step counts):
//!
//! * **Threads.** A frame rasterized on 3 workers equals the serial one.
//! * **Order.** Both equal a plain front-to-back walk over
//!   `TileBins::build_naive`'s stably depth-sorted lists, on tie-heavy
//!   depths and on a tile deep enough that Raster orders its list in
//!   several blocks. Thread invariance alone cannot catch a wrong order.
//! * **Levels.** A two-level foveated frame equals, on every pixel, the
//!   one-level frame of that pixel's level — or, in the blend band, the
//!   lerp of the two one-level frames — with the winner of its own level.
//!   The foveated renderer depends on this.

use ms_math::{Conic2, TileRect, Vec2, Vec3};
use ms_render::{
    Image, PixelLevels, ProjectedSplat, RenderOptions, RenderOutput, Renderer, SceneRef, TileBins,
    TileGridDims, View, ALPHA_MAX, TILE_SIZE, T_MIN,
};
use ms_scene::Camera;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn options(alpha_min: f32) -> RenderOptions {
    RenderOptions {
        alpha_min,
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
fn random_splats(rng: &mut StdRng, n: usize, width: u32, height: u32) -> Vec<ProjectedSplat> {
    let tiles_x = width.div_ceil(TILE_SIZE);
    let tiles_y = height.div_ceil(TILE_SIZE);
    (0..n)
        .filter_map(|i| {
            let cx = rng.gen_range(-20.0..width as f32 + 20.0);
            let cy = rng.gen_range(-20.0..height as f32 + 20.0);
            let radius = rng.gen_range(1.0..50.0f32);
            let tiles =
                TileRect::from_circle(Vec2::new(cx, cy), radius, TILE_SIZE, tiles_x, tiles_y)?;
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
                color: random_color(rng),
                opacity: rng.gen_range(0.02..0.99f32),
                tiles,
            })
        })
        .collect()
}

/// Stacks of small, nearly opaque splats: transmittance crosses `T_MIN`
/// after a handful of admissions, at a different list position for
/// neighbouring pixels, so the early stop fires at varied depths.
fn opaque_stack(rng: &mut StdRng, n: usize, width: u32, height: u32) -> Vec<ProjectedSplat> {
    let tiles_x = width.div_ceil(TILE_SIZE);
    let tiles_y = height.div_ceil(TILE_SIZE);
    (0..n)
        .filter_map(|i| {
            let cx = rng.gen_range(0.0..width as f32);
            let cy = rng.gen_range(0.0..height as f32);
            let radius = rng.gen_range(2.0..9.0f32);
            let tiles =
                TileRect::from_circle(Vec2::new(cx, cy), radius, TILE_SIZE, tiles_x, tiles_y)?;
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
                color: random_color(rng),
                opacity: rng.gen_range(0.90..0.99f32),
                tiles,
            })
        })
        .collect()
}

/// Depths that tie: signed zeros and a few repeated values. Admission
/// rejects non-finite depths, so ±inf and NaN stay out of rendered frames.
const TIED_DEPTHS: [f32; 5] = [-0.0, 0.0, 0.5, 3.0, 9.0];

/// `n` faint, wide splats on one random tile, point indices from `first`:
/// alphas just above the 1/255 `alpha_min` near their centres and below it
/// further out, so some of the tile's pixels stop late in the list and
/// others never reach `T_MIN` and walk all of it.
fn faint_tile(
    rng: &mut StdRng,
    n: usize,
    first: usize,
    width: u32,
    height: u32,
) -> Vec<ProjectedSplat> {
    let tx = rng.gen_range(0..width.div_ceil(TILE_SIZE));
    let ty = rng.gen_range(0..height.div_ceil(TILE_SIZE));
    let (x0, y0) = ((tx * TILE_SIZE) as f32, (ty * TILE_SIZE) as f32);
    let x1 = ((tx + 1) * TILE_SIZE).min(width) as f32;
    let y1 = ((ty + 1) * TILE_SIZE).min(height) as f32;
    (0..n)
        .map(|i| {
            let inv = 1.0 / rng.gen_range(9.0..64.0f32);
            ProjectedSplat {
                point_index: (first + i) as u32,
                center: Vec2::new(rng.gen_range(x0..x1), rng.gen_range(y0..y1)),
                conic: Conic2 {
                    a: inv,
                    b: 0.0,
                    c: inv,
                },
                depth: TIED_DEPTHS[rng.gen_range(0..TIED_DEPTHS.len())],
                color: random_color(rng),
                opacity: rng.gen_range(0.004..0.006f32),
                tiles: TileRect {
                    x0: tx,
                    y0: ty,
                    x1: tx,
                    y1: ty,
                },
            }
        })
        .collect()
}

/// The reference compositor: every pixel walks its tile's list from
/// `TileBins::build_naive` (a stable depth sort) front to back with the
/// kernel's arithmetic, skipping alphas below `alpha_min` and stopping
/// under `T_MIN`. Returns pixels, winners and blend steps.
fn reference_frame(
    o: &RenderOptions,
    splats: &[ProjectedSplat],
    width: u32,
    height: u32,
) -> (Vec<Vec3>, Vec<u32>, u64) {
    let grid = TileGridDims::for_image(width, height);
    let bins = TileBins::build_naive(splats, grid, &vec![true; grid.tile_count()]);
    let (mut pixels, mut winners, mut steps) = (Vec::new(), Vec::new(), 0u64);
    for y in 0..height {
        for x in 0..width {
            let list = &bins[((y / TILE_SIZE) * grid.tiles_x + x / TILE_SIZE) as usize];
            if list.is_empty() {
                pixels.push(Vec3::zero());
                winners.push(u32::MAX);
                continue;
            }
            let px = Vec2::new(x as f32 + 0.5, y as f32 + 0.5);
            let (mut color, mut t, mut best_w, mut best) = (Vec3::zero(), 1.0f32, 0.0f32, u32::MAX);
            for &si in list {
                let s = &splats[si as usize];
                let alpha = (s.opacity * s.conic.gaussian_weight(px - s.center)).min(ALPHA_MAX);
                if alpha < o.alpha_min {
                    continue;
                }
                steps += 1;
                let w = t * alpha;
                color += s.color * w;
                if w > best_w {
                    best_w = w;
                    best = s.point_index;
                }
                t *= 1.0 - alpha;
                if t < T_MIN {
                    break;
                }
            }
            pixels.push(color);
            winners.push(best);
        }
    }
    (pixels, winners, steps)
}

/// A random two-level map: level 0 inside a random disk, level 1 outside,
/// so tiles wholly outside the disk list no level-0 splat. Level-0 pixels
/// blend toward level 1 with probability `blend`; level-1 pixels get random
/// weights too, which the last level must ignore.
fn random_levels(rng: &mut StdRng, width: u32, height: u32, blend: f64) -> PixelLevels {
    let cx = rng.gen_range(0.0..width as f32);
    let cy = rng.gen_range(0.0..height as f32);
    let r = rng.gen_range(4.0..(width.max(height) as f32));
    let (level, blend) = (0..width * height)
        .map(|i| {
            let (x, y) = ((i % width) as f32 + 0.5, (i / width) as f32 + 0.5);
            let outside = (x - cx) * (x - cx) + (y - cy) * (y - cy) > r * r;
            let w = if outside || rng.gen_bool(blend) {
                rng.gen_range(0.0..1.0f32)
            } else {
                0.0
            };
            (u8::from(outside), w)
        })
        .unzip();
    PixelLevels { level, blend }
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
    if parallel.stats != serial.stats || parallel.level_stats != serial.level_stats {
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
        alpha_min in 0.0f32..0.08,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let splats = random_splats(&mut rng, n, width, height);
        let scene = SceneRef::Projected { levels: &[&splats], points: n };
        let o = options(alpha_min);
        render_thread_invariant(&o, scene, View::from(&camera(width, height, 4.0)))?;
    }

    #[test]
    fn threads_are_bit_identical_with_opaque_stacks(
        seed in 0u64..1u64 << 48,
        n in 8usize..64,
        width in 21u32..60,
        height in 13u32..48,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let splats = opaque_stack(&mut rng, n, width, height);
        let scene = SceneRef::Projected { levels: &[&splats], points: n };
        let o = options(1.0 / 255.0);
        render_thread_invariant(&o, scene, View::from(&camera(width, height, 4.0)))?;
    }

    #[test]
    fn frames_match_a_reference_compositor_over_sorted_lists(
        seed in 0u64..1u64 << 48,
        n in 1usize..100,
        faint in 1600usize..2400,
        width in 17u32..72,
        height in 9u32..56,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2545_f491_4f6c_dd1d);
        let mut splats = random_splats(&mut rng, n, width, height);
        for s in &mut splats {
            if rng.gen_bool(0.5) {
                s.depth = TIED_DEPTHS[rng.gen_range(0..TIED_DEPTHS.len())];
            }
        }
        splats.extend(faint_tile(&mut rng, faint, n, width, height));
        let o = options(1.0 / 255.0);
        let scene = SceneRef::Projected { levels: &[&splats], points: n + faint };
        let out = render_thread_invariant(&o, scene, View::from(&camera(width, height, 4.0)))?;
        let (pixels, winners, steps) = reference_frame(&o, &splats, width, height);
        for (i, (got, want)) in out.image.pixels().iter().zip(&pixels).enumerate() {
            if (bits(*got), out.winners[i]) != (bits(*want), winners[i]) {
                return Err(format!(
                    "pixel {i}: {got:?}/{} vs reference {want:?}/{}",
                    out.winners[i], winners[i]
                ));
            }
        }
        prop_assert_eq!(out.stats.blend_steps, steps);
    }

    #[test]
    fn foveated_frame_matches_its_levels_one_level_frames(
        seed in 0u64..1u64 << 48,
        n in 1usize..100,
        width in 17u32..80,
        height in 9u32..64,
        keep in 0.2f64..1.0,
        blend in 0.0f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5851_f42d_4c95_7f2d);
        let splats = random_splats(&mut rng, n, width, height);
        // Each level keeps a random in-order subset: a splat may be in
        // both levels or in neither.
        let mut subset = || -> Vec<_> { splats.iter().filter(|_| rng.gen_bool(keep)).copied().collect() };
        let (l0, l1) = (subset(), subset());
        let map = random_levels(&mut rng, width, height, blend);
        let o = options(1.0 / 255.0);
        let render = |levels: &[&[ProjectedSplat]], map| {
            let view = View { camera: camera(width, height, 4.0), levels: map };
            render_thread_invariant(&o, SceneRef::Projected { levels, points: n }, view)
        };
        let one = [render(&[&l0], None)?, render(&[&l1], None)?];
        let fov = render(&[&l0, &l1], Some(map.clone()))?;
        for (i, (&l, &w)) in map.level.iter().zip(&map.blend).enumerate() {
            let own = &one[l as usize];
            let mut expect = own.image.pixels()[i];
            if l == 0 && w > 0.0 {
                expect = expect.lerp(one[1].image.pixels()[i], w);
            }
            let (pixel, winner) = (fov.image.pixels()[i], fov.winners[i]);
            if (bits(pixel), winner) != (bits(expect), own.winners[i]) {
                return Err(format!(
                    "pixel {i} (level {l}, blend {w}): {pixel:?}/{winner} vs {expect:?}/{}",
                    own.winners[i]
                ));
            }
        }
        let steps: Vec<u64> = fov.level_stats.iter().map(|s| s.blend_steps).collect();
        prop_assert_eq!(steps.iter().sum::<u64>(), fov.stats.blend_steps);
        prop_assert!(steps[0] <= one[0].stats.blend_steps && steps[1] <= one[1].stats.blend_steps);
    }
}
