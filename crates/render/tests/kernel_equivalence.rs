//! Property test: the 4-lane SIMD rasterization kernel is bit-identical to
//! the scalar reference kernel — pixels, winner buffers and blend-step
//! counts — over random splat lists, admission thresholds, tile sizes,
//! image shapes (odd widths force scalar remainder groups), pixel masks,
//! and high-opacity stacks that retire the four lanes of a group at
//! different depths.
//!
//! The per-tile staging prepass feeding the SIMD kernel gets its own
//! properties targeting the row-interval scheduler's edge cases: pancake
//! conics whose admission boxes clip to a single tile row, admission
//! thresholds high enough to empty a splat's interval entirely, odd tile
//! sizes (so the last row of edge tiles lands mid-interval), and merged
//! super-tile rects (each tile inside a super-tile must stage its own
//! rows against its own CSR list).

use ms_math::{Conic2, Quat, TileRect, Vec2, Vec3};
use ms_render::{Image, RasterKernel, RenderOptions, RenderOutput, Renderer, SceneRef, View};
use ms_scene::{Camera, GaussianModel};
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
        for (ca, cb) in [(pa.x, pb.x), (pa.y, pb.y), (pa.z, pb.z)] {
            if ca.to_bits() != cb.to_bits() {
                return Err(format!("pixel {i} differs: {pa:?} vs {pb:?}"));
            }
        }
    }
    Ok(())
}

fn assert_outputs_bit_identical(simd: &RenderOutput, scalar: &RenderOutput) -> Result<(), String> {
    assert_images_bit_identical(&simd.image, &scalar.image)?;
    if simd.winners != scalar.winners {
        return Err("winner buffers differ".into());
    }
    if simd.stats.blend_steps != scalar.stats.blend_steps {
        return Err(format!(
            "blend steps differ: {} vs {}",
            simd.stats.blend_steps, scalar.stats.blend_steps
        ));
    }
    Ok(())
}

fn options(
    kernel: RasterKernel,
    tile_size: u32,
    alpha_min: f32,
    alpha_max: f32,
    t_min: f32,
) -> RenderOptions {
    RenderOptions {
        raster_kernel: kernel,
        tile_size,
        alpha_min,
        alpha_max,
        t_min,
        track_point_stats: true,
        threads: 1,
        ..RenderOptions::default()
    }
}

/// Random pre-projected splats over the given image grid: anisotropic
/// conics, opacities spanning faint-to-nearly-opaque (high opacities make
/// adjacent pixels retire at different splats, exercising the lane
/// divergence path), centers hanging off every image edge.
fn random_splats(
    rng: &mut StdRng,
    n: usize,
    width: u32,
    height: u32,
    tile_size: u32,
) -> Vec<ms_render::ProjectedSplat> {
    let tiles_x = width.div_ceil(tile_size);
    let tiles_y = height.div_ceil(tile_size);
    (0..n)
        .filter_map(|i| {
            let cx = rng.gen_range(-20.0..width as f32 + 20.0);
            let cy = rng.gen_range(-20.0..height as f32 + 20.0);
            let radius = rng.gen_range(1.0..50.0f32);
            let tiles =
                TileRect::from_circle(Vec2::new(cx, cy), radius, tile_size, tiles_x, tiles_y)?;
            // Positive-definite conic with random anisotropy/orientation.
            let (sx, sy) = (rng.gen_range(0.6..12.0f32), rng.gen_range(0.6..12.0f32));
            let theta = rng.gen_range(0.0..std::f32::consts::PI);
            let (s, c) = theta.sin_cos();
            let (ia, ib) = (1.0 / (sx * sx), 1.0 / (sy * sy));
            let conic = Conic2 {
                a: c * c * ia + s * s * ib,
                b: s * c * (ia - ib),
                c: s * s * ia + c * c * ib,
            };
            Some(ms_render::ProjectedSplat {
                point_index: i as u32,
                center: Vec2::new(cx, cy),
                conic,
                depth: rng.gen_range(0.1..60.0f32),
                radius,
                color: Vec3::new(
                    rng.gen_range(0.0..1.0f32),
                    rng.gen_range(0.0..1.0f32),
                    rng.gen_range(0.0..1.0f32),
                ),
                opacity: rng.gen_range(0.02..0.99f32),
                tiles,
            })
        })
        .collect()
}

proptest! {
    #[test]
    fn simd_kernel_matches_scalar_on_random_splat_lists(
        seed in 0u64..1u64 << 48,
        n in 1usize..120,
        width in 17u32..90,
        height in 9u32..70,
        ts_pick in 0u32..3,
        alpha_min in 0.0f32..0.08,
        alpha_span in 0.05f32..0.9,
        t_min in 1e-5f32..0.3,
    ) {
        let tile_size = [8u32, 16, 32][ts_pick as usize];
        let alpha_max = (alpha_min + alpha_span).min(1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let splats = random_splats(&mut rng, n, width, height, tile_size);
        let cam = Camera::look_at(width, height, 60.0, Vec3::new(0.0, 0.0, 4.0), Vec3::zero());
        let scene = SceneRef::Projected { splats: &splats, points: n };
        let scalar = Renderer::new(options(RasterKernel::Scalar, tile_size, alpha_min, alpha_max, t_min))
            .render(scene, &cam);
        let simd = Renderer::new(options(RasterKernel::Simd4, tile_size, alpha_min, alpha_max, t_min))
            .render(scene, &cam);
        assert_outputs_bit_identical(&simd, &scalar)?;
    }

    #[test]
    fn simd_kernel_matches_scalar_with_opaque_stacks(
        seed in 0u64..1u64 << 48,
        n in 8usize..64,
        width in 21u32..60,
        height in 13u32..48,
    ) {
        // Stacks of small, nearly-opaque splats: transmittance crosses
        // `t_min` after a handful of admissions, at a different list
        // position for each pixel of a 4-lane group, so lanes retire
        // divergently and the group's early stop must still match four
        // scalar runs.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let tile_size = 16;
        let tiles_x = width.div_ceil(tile_size);
        let tiles_y = height.div_ceil(tile_size);
        let splats: Vec<ms_render::ProjectedSplat> = (0..n)
            .filter_map(|i| {
                let cx = rng.gen_range(0.0..width as f32);
                let cy = rng.gen_range(0.0..height as f32);
                let radius = rng.gen_range(2.0..9.0f32);
                let tiles = TileRect::from_circle(
                    Vec2::new(cx, cy), radius, tile_size, tiles_x, tiles_y,
                )?;
                let inv = 1.0 / rng.gen_range(1.0..9.0f32);
                Some(ms_render::ProjectedSplat {
                    point_index: i as u32,
                    center: Vec2::new(cx, cy),
                    conic: Conic2 { a: inv, b: 0.0, c: inv },
                    depth: rng.gen_range(0.1..20.0f32),
                    radius,
                    color: Vec3::new(
                    rng.gen_range(0.0..1.0f32),
                    rng.gen_range(0.0..1.0f32),
                    rng.gen_range(0.0..1.0f32),
                ),
                    opacity: rng.gen_range(0.90..0.99f32),
                    tiles,
                })
            })
            .collect();
        let cam = Camera::look_at(width, height, 60.0, Vec3::new(0.0, 0.0, 4.0), Vec3::zero());
        let scene = SceneRef::Projected { splats: &splats, points: n };
        let scalar = Renderer::new(options(RasterKernel::Scalar, tile_size, 1.0 / 255.0, 0.99, 0.05))
            .render(scene, &cam);
        let simd = Renderer::new(options(RasterKernel::Simd4, tile_size, 1.0 / 255.0, 0.99, 0.05))
            .render(scene, &cam);
        assert_outputs_bit_identical(&simd, &scalar)?;
    }

    #[test]
    fn simd_kernel_matches_scalar_under_random_masks(
        seed in 0u64..1u64 << 48,
        points in 4usize..40,
        width in 19u32..70,
        height in 11u32..54,
        mask_mod in 2u32..9,
    ) {
        // Random world-space model rendered through the full pipeline with
        // a random pixel mask: groups containing masked-out pixels must
        // fall back to the scalar kernel without disturbing their
        // neighbors.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5851f42d4c957f2d);
        let mut model = GaussianModel::new(0);
        for _ in 0..points {
            model.push_solid(
                Vec3::new(
                    rng.gen_range(-2.5..2.5f32),
                    rng.gen_range(-2.5..2.5f32),
                    rng.gen_range(-2.0..2.0f32),
                ),
                Vec3::new(
                    rng.gen_range(0.05..0.8f32),
                    rng.gen_range(0.05..0.8f32),
                    rng.gen_range(0.05..0.8f32),
                ),
                Quat::identity(),
                rng.gen_range(0.1..0.98f32),
                Vec3::new(
                    rng.gen_range(0.0..1.0f32),
                    rng.gen_range(0.0..1.0f32),
                    rng.gen_range(0.0..1.0f32),
                ),
            );
        }
        let cam = Camera::look_at(width, height, 60.0, Vec3::new(0.0, 0.5, 5.0), Vec3::zero());
        let mask: Vec<bool> = (0..(width * height) as usize)
            .map(|i| {
                let (x, y) = (i as u32 % width, i as u32 / width);
                (x + 2 * y) % mask_mod != 0
            })
            .collect();
        let scalar = Renderer::new(options(RasterKernel::Scalar, 16, 1.0 / 255.0, 0.99, 1e-4))
            .render(&model, View::masked(cam, mask.clone()));
        let simd = Renderer::new(options(RasterKernel::Simd4, 16, 1.0 / 255.0, 0.99, 1e-4))
            .render(&model, View::masked(cam, mask));
        assert_outputs_bit_identical(&simd, &scalar)?;
    }

    #[test]
    fn pertile_staging_matches_scalar_on_interval_edge_cases(
        seed in 0u64..1u64 << 48,
        n in 1usize..80,
        width in 13u32..70,
        height in 9u32..56,
        ts_pick in 0u32..3,
        alpha_min in 0.0f32..0.45,
        squash in 1.0f32..400.0,
    ) {
        // Pancake conics: σ along one axis shrinks toward a fraction of a
        // pixel, so admission boxes clip to a single tile row — the
        // row-interval scheduler's `y0 == y1` case — while `alpha_min` up
        // to 0.45 against opacities from 0.01 makes many splats provably
        // inadmissible everywhere (empty interval, culled in the prepass).
        // Odd tile sizes put edge-tile last rows mid-interval.
        let tile_size = [5u32, 7, 17][ts_pick as usize];
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa5a5_5a5a_0f0f_f0f0);
        let tiles_x = width.div_ceil(tile_size);
        let tiles_y = height.div_ceil(tile_size);
        let splats: Vec<ms_render::ProjectedSplat> = (0..n)
            .filter_map(|i| {
                let cx = rng.gen_range(-10.0..width as f32 + 10.0);
                let cy = rng.gen_range(-10.0..height as f32 + 10.0);
                let radius = rng.gen_range(0.5..30.0f32);
                let tiles = TileRect::from_circle(
                    Vec2::new(cx, cy), radius, tile_size, tiles_x, tiles_y,
                )?;
                let sx = rng.gen_range(0.8..10.0f32);
                let sy = rng.gen_range(0.05..4.0f32) / squash.sqrt();
                let theta = rng.gen_range(0.0..std::f32::consts::PI);
                let (s, c) = theta.sin_cos();
                let (ia, ib) = (1.0 / (sx * sx), 1.0 / (sy * sy));
                let conic = Conic2 {
                    a: c * c * ia + s * s * ib,
                    b: s * c * (ia - ib),
                    c: s * s * ia + c * c * ib,
                };
                Some(ms_render::ProjectedSplat {
                    point_index: i as u32,
                    center: Vec2::new(cx, cy),
                    conic,
                    depth: rng.gen_range(0.1..60.0f32),
                    radius,
                    color: Vec3::new(
                        rng.gen_range(0.0..1.0f32),
                        rng.gen_range(0.0..1.0f32),
                        rng.gen_range(0.0..1.0f32),
                    ),
                    opacity: rng.gen_range(0.01..0.9f32),
                    tiles,
                })
            })
            .collect();
        let cam = Camera::look_at(width, height, 60.0, Vec3::new(0.0, 0.0, 4.0), Vec3::zero());
        let mk = |kernel| Renderer::new(options(kernel, tile_size, alpha_min, 0.99, 1e-4));
        let scene = SceneRef::Projected { splats: &splats, points: n };
        let scalar = mk(RasterKernel::Scalar).render(scene, &cam);
        let pertile = mk(RasterKernel::Simd4).render(scene, &cam);
        assert_outputs_bit_identical(&pertile, &scalar)?;
    }

    #[test]
    fn pertile_staging_matches_scalar_under_merged_super_tiles(
        seed in 0u64..1u64 << 48,
        points in 6usize..40,
        width in 25u32..80,
        height in 21u32..64,
    ) {
        // A center-heavy world model rendered from a pulled-back camera:
        // occupancy merging coalesces the sparse periphery into multi-tile
        // super-tile rects. Inside a super-tile, each tile must still
        // stage its own rows against its own CSR list — per-tile staging
        // under a merged schedule must reproduce the unmerged scalar
        // frame bit for bit.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0dd0_7117_e57a_6e5d);
        let mut model = GaussianModel::new(0);
        for _ in 0..points {
            model.push_solid(
                Vec3::new(
                    rng.gen_range(-0.8..0.8f32),
                    rng.gen_range(-0.8..0.8f32),
                    rng.gen_range(-0.8..0.8f32),
                ),
                Vec3::new(
                    rng.gen_range(0.05..0.4f32),
                    rng.gen_range(0.05..0.4f32),
                    rng.gen_range(0.05..0.4f32),
                ),
                Quat::identity(),
                rng.gen_range(0.1..0.95f32),
                Vec3::new(
                    rng.gen_range(0.0..1.0f32),
                    rng.gen_range(0.0..1.0f32),
                    rng.gen_range(0.0..1.0f32),
                ),
            );
        }
        let cam = Camera::look_at(width, height, 60.0, Vec3::new(0.0, 0.0, 10.0), Vec3::zero());
        let scalar_unmerged = Renderer::new(RenderOptions {
            raster_kernel: RasterKernel::Scalar,
            tile_size: 7,
            track_point_stats: true,
            threads: 1,
            ..RenderOptions::default()
        })
        .render(&model, &cam);
        let pertile_merged = Renderer::new(RenderOptions {
            raster_kernel: RasterKernel::Simd4,
            tile_size: 7,
            track_point_stats: true,
            threads: 1,
            ..RenderOptions::with_tile_merging()
        })
        .render(&model, &cam);
        assert_outputs_bit_identical(&pertile_merged, &scalar_unmerged)?;
    }
}
