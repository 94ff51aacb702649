//! Projection stage: 3-D Gaussians → 2-D screen-space splats.
//!
//! Follows the EWA splatting formulation used by 3DGS: the 3-D covariance
//! `Σ = R S Sᵀ Rᵀ` is pushed through the affine approximation of the
//! perspective projection, `Σ₂ = J W Σ Wᵀ Jᵀ`, where `W` is the view
//! rotation and `J` the projection Jacobian at the point's view-space
//! position.

use crate::options::{RenderOptions, EXTENT_SIGMA, TILE_SIZE};
use ms_math::{Conic2, Cov2, Mat3, Mat4, TileRect, Vec2, Vec3};
use ms_scene::{Camera, GaussianModel};
use serde::{Deserialize, Serialize};

/// A Gaussian after projection to the image plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProjectedSplat {
    /// Index of the source point in the model.
    pub point_index: u32,
    /// Screen-space center in pixels.
    pub center: Vec2,
    /// Inverse 2-D covariance.
    pub conic: Conic2,
    /// View-space depth (positive, in front of the camera).
    pub depth: f32,
    /// View-evaluated RGB color.
    pub color: Vec3,
    /// Opacity in `[0, 1]`.
    pub opacity: f32,
    /// Tiles the splat's bounding circle overlaps.
    pub tiles: TileRect,
}

impl ProjectedSplat {
    /// Number of tile-ellipse intersections this splat contributes — the
    /// `Comp`/`U` quantity of the paper's Eqns. 3 and 5.
    pub fn tile_count(&self) -> u32 {
        self.tiles.tile_count()
    }
}

/// Compute the 2-D screen-space covariance of a Gaussian.
///
/// `view_rot` is the world→view rotation, `view_pos` the point's view-space
/// position (camera looks down −Z), `focal` the pixel focal lengths, and
/// `tan_half_fov` the frustum clamp bounds used by 3DGS to stabilize the
/// Jacobian for points near the image border.
pub fn project_covariance(
    scale: Vec3,
    rotation: ms_math::Quat,
    view_rot: &Mat3,
    view_pos: Vec3,
    focal: Vec2,
    tan_half_fov: Vec2,
) -> Cov2 {
    // 3-D covariance in world space: Σ = R S Sᵀ Rᵀ = (RS)(RS)ᵀ.
    let r = rotation.to_mat3();
    let rs = r * Mat3::from_diagonal(scale);
    let cov3 = rs * rs.transposed();

    // Clamp the view-space position like 3DGS to bound the Jacobian.
    let depth = -view_pos.z; // positive depth
    let lim_x = 1.3 * tan_half_fov.x;
    let lim_y = 1.3 * tan_half_fov.y;
    let tx = (view_pos.x / depth).clamp(-lim_x, lim_x) * depth;
    let ty = (view_pos.y / depth).clamp(-lim_y, lim_y) * depth;

    // Jacobian of the pixel mapping u = fx·x/depth + cx, v = −fy·y/depth + cy
    // (image y points down) at the view-space point, with depth = −z.
    let j = Mat3::from_rows(
        [focal.x / depth, 0.0, focal.x * tx / (depth * depth)],
        [0.0, -focal.y / depth, -focal.y * ty / (depth * depth)],
        [0.0, 0.0, 0.0],
    );
    let t = j * *view_rot;
    let cov2 = t.conjugate_symmetric(&cov3);
    Cov2::new(cov2.m[0][0], cov2.m[0][1], cov2.m[1][1])
}

/// Project every visible Gaussian in `model` through `camera`.
///
/// Points behind the near plane, outside the (slightly padded) frustum, with
/// degenerate screen footprints, or with opacity below `alpha_min` are
/// culled. Splat order matches model order (stable point indices).
///
/// When `options.threads != 1` the point range is sharded into contiguous
/// chunks projected on the worker pool; shard outputs concatenate in chunk
/// order, so splat order stays model order and the result is bit-identical
/// to the serial path for every thread count.
pub fn project_model(
    model: &GaussianModel,
    camera: &Camera,
    options: &RenderOptions,
) -> Vec<ProjectedSplat> {
    let mut out = Vec::new();
    project_model_offset_into(model, camera, options, 0, &mut out);
    out
}

/// Per-frame quantities shared by every point's projection. Computed once
/// per frame, so the serial and sharded paths run the exact same per-point
/// arithmetic — the basis of the bit-identical determinism guarantee — and
/// no splat pays for the camera's `tan` calls.
struct FrameContext {
    view: Mat4,
    view_rot: Mat3,
    focal: Vec2,
    /// Half the image size in pixels: the principal point.
    half_size: Vec2,
    tan_half_fov: Vec2,
    tiles_x: u32,
    tiles_y: u32,
    sh_degree: usize,
}

impl FrameContext {
    fn new(model: &GaussianModel, camera: &Camera) -> Self {
        let view = camera.view_matrix();
        Self {
            view_rot: view.upper_left3(),
            view,
            focal: Vec2::new(camera.focal_x(), camera.focal_y()),
            half_size: Vec2::new(camera.width as f32 * 0.5, camera.height as f32 * 0.5),
            tan_half_fov: Vec2::new((camera.fovx() * 0.5).tan(), (camera.fovy * 0.5).tan()),
            tiles_x: camera.width.div_ceil(TILE_SIZE),
            tiles_y: camera.height.div_ceil(TILE_SIZE),
            sh_degree: model.sh_degree,
        }
    }

    /// Pixel position of view-space point `v`: [`Camera::view_to_pixel`]'s
    /// expression, with the focal lengths and principal point read from the
    /// context instead of recomputed from the field of view.
    #[inline]
    fn view_to_pixel(&self, v: Vec3) -> Option<Vec2> {
        if v.z >= -1e-6 {
            return None;
        }
        let depth = -v.z;
        let x = self.focal.x * v.x / depth + self.half_size.x;
        // +y down in image space, +y up in view space.
        let y = -self.focal.y * v.y / depth + self.half_size.y;
        Some(Vec2::new(x, y))
    }
}

/// Project points `range` of `model`, appending surviving splats to `out`
/// in point-index order. `base` is the model's offset within a larger scene
/// (the chunked [`ms_scene::SceneSource`] path): stored point indices are
/// `base + i`. The in-core path passes 0, making `base` arithmetically
/// invisible there.
fn project_range(
    ctx: &FrameContext,
    model: &GaussianModel,
    camera: &Camera,
    options: &RenderOptions,
    base: u32,
    range: std::ops::Range<usize>,
    out: &mut Vec<ProjectedSplat>,
) {
    for i in range {
        let opacity = model.opacities[i];
        if opacity < options.alpha_min {
            continue;
        }
        let world_pos = model.positions[i];
        let view_pos = ctx.view.transform_point(world_pos).project();
        let depth = -view_pos.z;
        if depth < camera.near || depth > camera.far {
            continue;
        }
        // Generous frustum cull: the splat's center may sit outside the
        // image while its footprint still overlaps it; the tile-rect test
        // below is the precise one, this just skips far-out points early.
        if (view_pos.x / depth).abs() > 1.5 * ctx.tan_half_fov.x + 1.0
            || (view_pos.y / depth).abs() > 1.5 * ctx.tan_half_fov.y + 1.0
        {
            continue;
        }
        let Some(center) = ctx.view_to_pixel(view_pos) else {
            continue;
        };
        let cov2 = project_covariance(
            model.scales[i],
            model.rotations[i],
            &ctx.view_rot,
            view_pos,
            ctx.focal,
            ctx.tan_half_fov,
        )
        .dilated(options.dilation);
        let Some(conic) = cov2.to_conic() else {
            continue;
        };
        let radius = cov2.bounding_radius(EXTENT_SIGMA).ceil();
        if radius < 0.5 {
            continue;
        }
        let Some(tiles) =
            TileRect::from_circle(center, radius, TILE_SIZE, ctx.tiles_x, ctx.tiles_y)
        else {
            continue;
        };
        let view_dir = world_pos - camera.eye;
        let color = ms_math::sh::eval_color(ctx.sh_degree, view_dir, model.sh(i));
        out.push(ProjectedSplat {
            point_index: base + i as u32,
            center,
            conic,
            depth,
            color,
            opacity,
            tiles,
        });
    }
}

/// Below this point count the frame projects serially even when
/// `options.threads > 1` — per-task queue overhead would exceed the
/// projection work itself. Sharding never changes the output (shards
/// concatenate in point order), only the wall time.
const MIN_POINTS_PER_SHARD: usize = 512;

/// [`project_model`] appending to the end of a caller-provided buffer, for
/// a model that is a chunk of a larger scene starting at global point index
/// `base`: stored `point_index` values are `base + i`. A recycled
/// [`FrameArena`](crate::FrameArena) reuses its splat storage this way
/// instead of allocating per frame, and a chunked frame appends chunk after
/// chunk onto its one visible-splat vector. With `base == 0` the appended
/// splats are [`project_model`]'s — same arithmetic, bit-identical — which
/// is what makes chunked projection (chunks concatenated in order) equal to
/// in-core projection of the flat model.
pub fn project_model_offset_into(
    model: &GaussianModel,
    camera: &Camera,
    options: &RenderOptions,
    base: u32,
    out: &mut Vec<ProjectedSplat>,
) {
    let ctx = FrameContext::new(model, camera);
    let n = model.len();
    let shards = options
        .resolved_threads()
        .min(n / MIN_POINTS_PER_SHARD)
        .max(1);

    // One contiguous chunk per shard; results come back in shard order and
    // concatenate, preserving model order exactly. `shards == 1` runs
    // inline without touching the pool (and straight into `out`).
    if shards <= 1 {
        project_range(&ctx, model, camera, options, base, 0..n, out);
        return;
    }
    let parts = crate::par::shard_map(n, shards, |range| {
        let mut part = Vec::with_capacity(range.len() / 2);
        project_range(&ctx, model, camera, options, base, range, &mut part);
        part
    });
    out.reserve(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_math::Quat;
    use proptest::prelude::*;

    fn single_point_model(pos: Vec3, scale: Vec3, opacity: f32) -> GaussianModel {
        let mut m = GaussianModel::new(0);
        m.push_solid(
            pos,
            scale,
            Quat::identity(),
            opacity,
            Vec3::new(0.8, 0.4, 0.2),
        );
        m
    }

    fn cam() -> Camera {
        Camera::look_at(128, 128, 60.0, Vec3::new(0.0, 0.0, 4.0), Vec3::zero())
    }

    #[test]
    fn centered_point_projects_to_image_center() {
        let m = single_point_model(Vec3::zero(), Vec3::splat(0.1), 0.9);
        let splats = project_model(&m, &cam(), &RenderOptions::default());
        assert_eq!(splats.len(), 1);
        let s = &splats[0];
        assert!((s.center.x - 64.0).abs() < 0.5);
        assert!((s.center.y - 64.0).abs() < 0.5);
        assert!((s.depth - 4.0).abs() < 1e-4);
    }

    #[test]
    fn isotropic_gaussian_projects_isotropically() {
        let m = single_point_model(Vec3::zero(), Vec3::splat(0.2), 0.9);
        let splats = project_model(&m, &cam(), &RenderOptions::default());
        let c = splats[0].conic;
        assert!(
            (c.a - c.c).abs() / c.a < 0.05,
            "conic {c:?} should be isotropic"
        );
        assert!(c.b.abs() / c.a < 0.05);
    }

    #[test]
    fn projected_size_matches_pinhole_math() {
        let sigma_world = 0.2f32;
        let depth = 4.0f32;
        let m = single_point_model(Vec3::zero(), Vec3::splat(sigma_world), 0.9);
        let camera = cam();
        let opts = RenderOptions {
            dilation: 0.0,
            ..RenderOptions::default()
        };
        let splats = project_model(&m, &camera, &opts);
        let expected_sigma_px = camera.focal_y() * sigma_world / depth;
        // Undilated, the conic is the inverse pixel covariance: a = 1/σ_px².
        let sigma_px = splats[0].conic.a.sqrt().recip();
        assert!(
            (sigma_px - expected_sigma_px).abs() <= 0.01 * expected_sigma_px,
            "σ {sigma_px} px vs expected {expected_sigma_px}"
        );
        // The tiles are those of the `EXTENT_SIGMA` = 3 bounding circle.
        let expected_tiles =
            TileRect::from_circle(splats[0].center, (3.0 * expected_sigma_px).ceil(), 16, 8, 8);
        assert_eq!(Some(splats[0].tiles), expected_tiles);
    }

    #[test]
    fn behind_camera_is_culled() {
        let m = single_point_model(Vec3::new(0.0, 0.0, 10.0), Vec3::splat(0.1), 0.9);
        assert!(project_model(&m, &cam(), &RenderOptions::default()).is_empty());
    }

    #[test]
    fn transparent_point_is_culled() {
        let m = single_point_model(Vec3::zero(), Vec3::splat(0.1), 0.001);
        assert!(project_model(&m, &cam(), &RenderOptions::default()).is_empty());
    }

    #[test]
    fn far_off_axis_point_is_culled() {
        let m = single_point_model(Vec3::new(100.0, 0.0, 0.0), Vec3::splat(0.1), 0.9);
        assert!(project_model(&m, &cam(), &RenderOptions::default()).is_empty());
    }

    #[test]
    fn closer_point_is_bigger() {
        let mut m = GaussianModel::new(0);
        m.push_solid(
            Vec3::zero(),
            Vec3::splat(0.1),
            Quat::identity(),
            0.9,
            Vec3::one(),
        );
        m.push_solid(
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::splat(0.1),
            Quat::identity(),
            0.9,
            Vec3::one(),
        );
        let splats = project_model(&m, &cam(), &RenderOptions::default());
        assert_eq!(splats.len(), 2);
        // Bigger on screen: a wider Gaussian, so a smaller inverse variance.
        assert!(splats[1].conic.a < splats[0].conic.a);
        assert!(splats[1].tile_count() >= splats[0].tile_count());
        assert!(splats[1].depth < splats[0].depth);
    }

    /// Deterministic synthetic cloud large enough to trigger sharding
    /// (well above `MIN_POINTS_PER_SHARD` per worker).
    fn big_model(n: usize) -> GaussianModel {
        let mut m = GaussianModel::new(0);
        for i in 0..n {
            let f = i as f32;
            m.push_solid(
                Vec3::new(
                    (f * 0.37).sin() * 2.0,
                    (f * 0.53).cos() * 1.5,
                    (f * 0.11).sin() * 2.5,
                ),
                Vec3::splat(0.02 + (f * 0.29).sin().abs() * 0.08),
                Quat::identity(),
                0.3 + (f * 0.17).cos().abs() * 0.6,
                Vec3::new(0.2, 0.5, 0.8),
            );
        }
        m
    }

    #[test]
    fn sharded_projection_is_bit_identical_to_serial() {
        let m = big_model(3000);
        let camera = cam();
        let serial = project_model(&m, &camera, &RenderOptions::default());
        assert!(!serial.is_empty());
        for threads in [2usize, 3, 8, 0] {
            let opts = RenderOptions {
                threads,
                ..RenderOptions::default()
            };
            let par = project_model(&m, &camera, &opts);
            assert_eq!(par, serial, "splats differ at threads={threads}");
            // Model order preserved across shard boundaries.
            assert!(par.windows(2).all(|w| w[0].point_index < w[1].point_index));
        }
    }

    #[test]
    fn anisotropic_gaussian_elongates_in_right_axis() {
        // Long in world X → long in image x.
        let m = single_point_model(Vec3::zero(), Vec3::new(0.5, 0.05, 0.05), 0.9);
        let splats = project_model(&m, &cam(), &RenderOptions::default());
        let conic = splats[0].conic;
        // Long axis in x means small inverse-variance in x: conic.a < conic.c.
        assert!(conic.a < conic.c);
    }

    #[test]
    fn tile_count_reflects_splat_size() {
        let small = single_point_model(Vec3::zero(), Vec3::splat(0.05), 0.9);
        let large = single_point_model(Vec3::zero(), Vec3::splat(1.0), 0.9);
        let opts = RenderOptions::default();
        let ts = project_model(&small, &cam(), &opts)[0].tile_count();
        let tl = project_model(&large, &cam(), &opts)[0].tile_count();
        assert!(tl > ts, "large splat should hit more tiles ({tl} vs {ts})");
    }

    proptest! {
        /// The context's pixel mapping is the camera's, bit for bit, for
        /// points in front of the camera at odd and even image sizes and
        /// across fields of view.
        #[test]
        fn context_pixel_mapping_is_the_cameras(
            width in 1u32..2049, height in 1u32..2049, fovy_deg in 5.0f32..170.0,
            u in -2.0f32..2.0, v in -2.0f32..2.0, depth in 1e-5f32..500.0,
        ) {
            let camera =
                Camera::look_at(width, height, fovy_deg, Vec3::new(0.3, -1.0, 4.0), Vec3::zero());
            let ctx = FrameContext::new(&GaussianModel::new(0), &camera);
            let p = Vec3::new(u * depth, v * depth, -depth);
            let bits = |c: Option<Vec2>| c.map(|c| (c.x.to_bits(), c.y.to_bits()));
            let expected = camera.view_to_pixel(p);
            prop_assert!(expected.is_some());
            prop_assert_eq!(bits(ctx.view_to_pixel(p)), bits(expected));
            let behind = Vec3::new(p.x, p.y, depth);
            prop_assert!(ctx.view_to_pixel(behind).is_none());
            prop_assert!(camera.view_to_pixel(behind).is_none());
        }
    }
}
