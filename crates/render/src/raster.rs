//! The compositing kernel and the top-level [`Renderer`].
//!
//! The renderer itself is thin. Its three entry points —
//! [`Renderer::begin_frame`], [`Renderer::render`] and
//! [`Renderer::try_render`] — take a [`SceneRef`] and a [`View`], begin a
//! [`FrameInFlight`] (the one driver of the staged pipeline from
//! [`crate::pipeline`]: Project → Bin → Merge → Raster → Composite) and, for
//! the last two, pump it to completion, so per-stage wall time and work
//! counters land in [`RenderStats::profile`] the same way for every kind of
//! frame. This module keeps the per-work-unit and per-pixel compositing
//! kernels the Raster stage executes.
//!
//! # Compositing kernel
//!
//! Every pixel runs [`composite_pixel`]: one front-to-back walk over its
//! tile's depth-sorted CSR list, skipping contributions below `alpha_min`
//! and stopping as soon as transmittance falls under `t_min`. Under heavy
//! overdraw that early stop ends most pixels after the first few splats of
//! a long list. [`rasterize_unit`] walks a work unit's tiles row by row
//! and calls it once per masked-in pixel ([`composite_pixel_sorted`] under
//! [`SortMode::PerPixel`]); a pixel depends only on its own tile's list, so
//! the worker that runs it cannot change a bit of the frame.

use crate::binning::{SuperTile, TileBins};
use crate::frame::{FrameArena, FrameInFlight, SceneRef, View};
use crate::options::{RenderOptions, SortMode};
use crate::pipeline::{Composited, FrameProfile, StageSample};
use crate::projection::ProjectedSplat;
use crate::stats::RenderStats;
use ms_math::Vec2;
use ms_scene::{Camera, ChunkCache, SourceError};
use std::sync::Arc;

/// Result of a render pass.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderOutput {
    /// The rendered image.
    pub image: crate::image::Image,
    /// Workload statistics of the pass.
    pub stats: RenderStats,
    /// Winning splat *point index* per pixel (`u32::MAX` = none); empty
    /// unless `track_point_stats` was set. Row-major. Exposed so
    /// determinism tests can compare full winner buffers, not just their
    /// per-point aggregation.
    pub winners: Vec<u32>,
}

/// The tile-based splatting renderer.
///
/// Cloning is cheap and shares the renderer's [`ChunkCache`]: clones (and
/// renderers built with [`Renderer::with_chunk_cache`]) hit each other's
/// decoded chunks when streaming the same
/// [`SceneSource`](ms_scene::SceneSource). The cache only changes where
/// chunk bytes come from, never what a frame computes, so sharing is
/// invisible to the determinism contract.
#[derive(Debug, Clone)]
pub struct Renderer {
    options: RenderOptions,
    chunk_cache: Arc<ChunkCache>,
}

/// Output of rasterizing one work unit (a [`SuperTile`] rectangle of
/// tiles, one tile row) — what the parallel Raster stage distributes and
/// the Composite stage merges.
#[derive(Debug)]
pub(crate) struct UnitResult {
    /// First pixel column of the unit.
    pub x_start: u32,
    /// First pixel row of the unit.
    pub y_start: u32,
    /// Pixel width of the unit, clipped to the image.
    pub width: u32,
    /// Pixels (row-major within the unit, `width` per row).
    pub pixels: Vec<ms_math::Vec3>,
    /// Winning splat *point index* per pixel (`u32::MAX` = none).
    pub winners: Vec<u32>,
    /// Compositing steps executed.
    pub blend_steps: u64,
}

impl Renderer {
    /// Create a renderer with its own chunk cache of
    /// [`DEFAULT_CHUNK_CACHE_BYTES`](ms_scene::DEFAULT_CHUNK_CACHE_BYTES);
    /// use [`Renderer::with_chunk_cache`] to pick a budget.
    ///
    /// # Panics
    ///
    /// Panics when `options` fail validation — configuration errors are
    /// programmer errors here, not runtime conditions.
    pub fn new(options: RenderOptions) -> Self {
        let cache = ChunkCache::new(ms_scene::DEFAULT_CHUNK_CACHE_BYTES);
        Self::with_chunk_cache(options, Arc::new(cache))
    }

    /// Create a renderer that shares an existing [`ChunkCache`] instead of
    /// allocating its own — the frame server uses this so every session
    /// rendering the same scene hits one cache, and callers use it to set
    /// the cache budget (`0` disables caching).
    ///
    /// # Panics
    ///
    /// Panics when `options` fail validation, like [`Renderer::new`].
    pub fn with_chunk_cache(options: RenderOptions, cache: Arc<ChunkCache>) -> Self {
        options.validate().expect("invalid render options");
        Self {
            options,
            chunk_cache: cache,
        }
    }

    /// The active options.
    pub fn options(&self) -> &RenderOptions {
        &self.options
    }

    /// The renderer's chunk cache (shared with clones and any renderer
    /// built from it via [`Renderer::with_chunk_cache`]).
    pub fn chunk_cache(&self) -> &Arc<ChunkCache> {
        &self.chunk_cache
    }

    /// Start a resumable frame: the returned [`FrameInFlight`] owns the
    /// frame's intermediate buffers and advances one pipeline stage per
    /// [`run_stage`] call, so a scheduler (the `ms_serve` frame server) can
    /// interleave the stages of many frames on the worker pool. `arena`
    /// provides recycled scratch storage from a previous frame
    /// ([`FrameInFlight::finish`] returns it); `FrameArena::default()` is a
    /// valid cold start.
    ///
    /// `scene` is a plain `&GaussianModel` or any [`SceneRef`]; `view` is a
    /// plain `&Camera` or a [`View`] carrying a pixel mask. In-core scenes
    /// start at the Project stage; pre-projected splats start at Bin;
    /// chunked sources start at the streamed Project, where each
    /// [`run_stage`] call projects one *chunk* into the frame's splat
    /// vector until the frame joins the common pipeline at Bin — so a frame
    /// server interleaves chunked frames exactly like in-core ones, at
    /// chunk granularity. Masks restrict every kind of scene alike.
    ///
    /// # Panics
    ///
    /// Panics when the camera has a zero-pixel image or exceeds `u32` pixel
    /// addressing, when the mask does not have one entry per pixel, or when
    /// a pre-projected splat's `point_index` or tile rectangle is out of
    /// range (see [`SceneRef::Projected`]).
    ///
    /// [`run_stage`]: FrameInFlight::run_stage
    pub fn begin_frame<'a>(
        &self,
        scene: impl Into<SceneRef<'a>>,
        view: impl Into<View>,
        arena: FrameArena,
    ) -> FrameInFlight {
        FrameInFlight::new(scene.into(), view.into(), arena, self.options.tile_size)
    }

    /// Render `scene` through `view` in one call: [`Renderer::try_render`]
    /// with a fresh arena.
    ///
    /// Chunked sources never load the whole model: Project streams chunk by
    /// chunk, each chunk decoded and projected once and appended to the
    /// frame's visible-splat vector (frame-sized, as on the in-core path),
    /// so the chunk buffers and each chunk's projection are bounded by
    /// the chunk size (and recorded in the frame profile's
    /// `chunk_bytes_peak` / `projected_bytes_peak`). Bin and everything
    /// after it is the in-core code. The output is
    /// bit-identical — pixels, winners, work counters — to the in-core
    /// render of the concatenated model, for every chunk size.
    ///
    /// # Panics
    ///
    /// Panics like [`Renderer::begin_frame`], and when a chunked source
    /// fails to deliver a chunk.
    pub fn render<'a>(
        &self,
        scene: impl Into<SceneRef<'a>>,
        view: impl Into<View>,
    ) -> RenderOutput {
        match self.try_render(scene, view, FrameArena::default()).0 {
            Ok(output) => output,
            Err(e) => panic!("loading scene chunk failed: {e}"),
        }
    }

    /// Render `scene` through `view`, reusing `arena`'s scratch buffers
    /// instead of allocating per frame, with chunk-load failures surfaced
    /// as an `Err` instead of a panic. The frame runs the resumable
    /// machinery ([`Renderer::begin_frame`] + [`FrameInFlight::run_stage`])
    /// to completion, so the output is bit-identical to any interleaving of
    /// the same frame's stages and regardless of where the arena came from.
    ///
    /// The arena comes back usable in *both* outcomes: a failed load
    /// abandons the frame cleanly — no partial image, nothing poisoned —
    /// and recycles its buffers into the returned arena exactly like a
    /// finished frame, so callers keep their allocation steady state across
    /// faults. In-core and pre-projected scenes cannot fail.
    ///
    /// # Panics
    ///
    /// Panics like [`Renderer::begin_frame`] (configuration errors stay
    /// panics; only *source* failures are runtime conditions).
    ///
    /// [`FrameInFlight::run_stage`]: crate::FrameInFlight::run_stage
    pub fn try_render<'a>(
        &self,
        scene: impl Into<SceneRef<'a>>,
        view: impl Into<View>,
        arena: FrameArena,
    ) -> (Result<RenderOutput, SourceError>, FrameArena) {
        let scene = scene.into();
        let mut frame = self.begin_frame(scene, view, arena);
        while !frame.run_stage(self, scene) {}
        if frame.is_failed() {
            let (error, arena) = frame.into_failure();
            return (Err(error), arena);
        }
        let (output, arena) = frame.finish(self);
        (Ok(output), arena)
    }
}

/// Assemble the final [`RenderOutput`] from the pipeline's stage outputs —
/// the tail of every [`FrameInFlight`], so all entry points produce their
/// statistics the same way.
pub(crate) fn assemble_output(
    options: &RenderOptions,
    model_len: usize,
    splats: &[ProjectedSplat],
    bins: &TileBins,
    composited: Composited,
    samples: Vec<StageSample>,
) -> RenderOutput {
    let Composited {
        image,
        winners,
        blend_steps,
    } = composited;
    // In-core residency peaks: no chunk buffer, and the projection scratch
    // *is* the whole visible-splat vector. The chunked frame path overrides
    // both with the per-chunk peaks it measured while streaming.
    let profile = FrameProfile {
        samples,
        projected_bytes_peak: std::mem::size_of_val(splats) as u64,
        ..FrameProfile::default()
    };
    let tile_intersections = bins.intersection_counts();
    let total_intersections = bins.total_intersections();
    let (point_tiles_used, point_pixels_dominated) = if options.track_point_stats {
        // Derived from the CSR bins so masked-out tiles do not count:
        // every CSR index entry is one (tile, splat) intersection.
        let mut tiles_used = vec![0u32; model_len];
        for &si in bins.indices() {
            tiles_used[splats[si as usize].point_index as usize] += 1;
        }
        let mut dominated = vec![0u32; model_len];
        for &w in &winners {
            if w != u32::MAX {
                dominated[w as usize] += 1;
            }
        }
        (tiles_used, dominated)
    } else {
        (Vec::new(), Vec::new())
    };

    RenderOutput {
        image,
        stats: RenderStats {
            grid: bins.grid(),
            tile_intersections,
            points_projected: splats.len(),
            points_submitted: model_len,
            total_intersections,
            blend_steps,
            point_tiles_used,
            point_pixels_dominated,
            profile,
        },
        winners,
    }
}

impl Default for Renderer {
    fn default() -> Self {
        Self::new(RenderOptions::default())
    }
}

/// Reject degenerate cameras at pipeline entry: a zero-width or zero-height
/// image would reach the composite stage's `pixels / width` row arithmetic
/// as a divide-by-zero far from the actual mistake. Images beyond `u32`
/// pixel addressing are rejected too — per-pixel indices (`y * width + x`)
/// are computed in `u32` throughout the hot path, so admitting a larger
/// image would wrap silently instead of failing loudly.
pub(crate) fn check_camera(camera: &Camera) {
    assert!(
        camera.width > 0 && camera.height > 0,
        "degenerate camera: {}x{} image has no pixels",
        camera.width,
        camera.height
    );
    assert!(
        camera.width as u64 * camera.height as u64 <= u32::MAX as u64,
        "camera {}x{} exceeds u32 pixel addressing",
        camera.width,
        camera.height
    );
}

/// One contribution gathered by [`composite_pixel_sorted`]: `(depth,
/// alpha, color, point index)`.
pub(crate) type Contrib = (f32, f32, ms_math::Vec3, u32);

/// Rasterize one work unit (a rectangle of tiles, clipped to the image).
///
/// Each pixel composites against **its own tile's** depth-sorted CSR list —
/// the unit rectangle only decides which pixels this call owns — so which
/// worker rasterizes which unit cannot change pixels, winners or
/// blend-step counts. This is the invariant behind the thread-count
/// determinism axis.
/// `contribs` is the per-pixel-sort gather buffer; it only carries recycled
/// capacity, since its contents are overwritten per pixel, so which
/// worker's buffer arrives cannot change a pixel either.
pub(crate) fn rasterize_unit(
    options: &RenderOptions,
    splats: &[ProjectedSplat],
    bins: &TileBins,
    camera: &Camera,
    unit: &SuperTile,
    mask: Option<&[bool]>,
    contribs: &mut Vec<Contrib>,
) -> UnitResult {
    let grid = bins.grid();
    let ts = grid.tile_size;
    // Clip in u64: at extreme dimensions `tx1 * ts` can exceed u32 even
    // though the clipped result fits.
    let x_start = unit.tx0 * ts;
    let y_start = unit.ty0 * ts;
    let x_end = (unit.tx1 as u64 * ts as u64).min(camera.width as u64) as u32;
    let y_end = (unit.ty1 as u64 * ts as u64).min(camera.height as u64) as u32;
    let (unit_w, unit_h) = (x_end - x_start, y_end - y_start);
    let mut pixels = vec![options.background; (unit_w * unit_h) as usize];
    let track = options.track_point_stats;
    // The winner buffer is only consumed by the Composite merge when point
    // statistics are on; without them it used to be a dead image-sized
    // allocation per work unit.
    let mut winners = if track {
        vec![u32::MAX; (unit_w * unit_h) as usize]
    } else {
        Vec::new()
    };
    let mut blend_steps = 0u64;
    for ty in unit.ty0..unit.ty1 {
        for tx in unit.tx0..unit.tx1 {
            let list = bins.tile(tx, ty);
            if list.is_empty() {
                continue;
            }
            let tx_start = tx * ts;
            let tx_end = (tx_start as u64 + ts as u64).min(camera.width as u64) as u32;
            let ty_start = ty * ts;
            let ty_end = (ty_start as u64 + ts as u64).min(camera.height as u64) as u32;
            for y in ty_start..ty_end {
                for x in tx_start..tx_end {
                    if let Some(mask) = mask {
                        if !mask[(y * camera.width + x) as usize] {
                            continue;
                        }
                    }
                    let px = Vec2::new(x as f32 + 0.5, y as f32 + 0.5);
                    let out_idx = ((y - y_start) * unit_w + (x - x_start)) as usize;
                    let (color, winner, steps) = match options.sort_mode {
                        SortMode::PerTile => composite_pixel(options, splats, list, px),
                        SortMode::PerPixel => {
                            composite_pixel_sorted(options, splats, list, px, contribs)
                        }
                    };
                    pixels[out_idx] = color;
                    if track {
                        winners[out_idx] = winner;
                    }
                    blend_steps += steps;
                }
            }
        }
    }
    UnitResult {
        x_start,
        y_start,
        width: unit_w,
        pixels,
        winners,
        blend_steps,
    }
}

/// Composite one pixel front-to-back over a depth-sorted splat list.
/// Returns (color, dominating point index or MAX, blend steps).
#[inline]
fn composite_pixel(
    o: &RenderOptions,
    splats: &[ProjectedSplat],
    list: &[u32],
    px: Vec2,
) -> (ms_math::Vec3, u32, u64) {
    let mut color = ms_math::Vec3::zero();
    let mut t = 1.0f32;
    let mut best_w = 0.0f32;
    let mut best = u32::MAX;
    let mut steps = 0u64;
    for &si in list {
        let s = &splats[si as usize];
        let alpha = (s.opacity * s.conic.gaussian_weight(px - s.center)).min(o.alpha_max);
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
        if t < o.t_min {
            break;
        }
    }
    color += o.background * t;
    (color, best, steps)
}

/// Per-pixel sorted compositing (StopThePop-style).
///
/// Our splats retain only their center depth, so the per-pixel key is
/// the same center depth the tile sort used — the output matches
/// [`composite_pixel`], but the gather+sort cost per pixel is
/// real, which is what the StopThePop FPS baseline measures (it trades
/// throughput for view-consistent ordering).
#[inline]
fn composite_pixel_sorted(
    o: &RenderOptions,
    splats: &[ProjectedSplat],
    list: &[u32],
    px: Vec2,
    contribs: &mut Vec<Contrib>,
) -> (ms_math::Vec3, u32, u64) {
    contribs.clear();
    for &si in list {
        let s = &splats[si as usize];
        let alpha = (s.opacity * s.conic.gaussian_weight(px - s.center)).min(o.alpha_max);
        if alpha < o.alpha_min {
            continue;
        }
        contribs.push((s.depth, alpha, s.color, s.point_index));
    }
    // Stable sort on `total_cmp`: a total order (no NaN "equal to
    // everything" escape hatch like the old `partial_cmp(..).unwrap_or
    // (Equal)`), and identical to it for the non-NaN depths projection
    // emits, so the output is unchanged.
    contribs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut color = ms_math::Vec3::zero();
    let mut t = 1.0f32;
    let mut best_w = 0.0f32;
    let mut best = u32::MAX;
    let mut steps = 0u64;
    for &(_, alpha, c, pi) in contribs.iter() {
        steps += 1;
        let w = t * alpha;
        color += c * w;
        if w > best_w {
            best_w = w;
            best = pi;
        }
        t *= 1.0 - alpha;
        if t < o.t_min {
            break;
        }
    }
    color += o.background * t;
    (color, best, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::StageKind;
    use ms_math::{Quat, Vec3};
    use ms_scene::GaussianModel;

    fn cam(w: u32, h: u32) -> Camera {
        Camera::look_at(w, h, 60.0, Vec3::new(0.0, 0.0, 4.0), Vec3::zero())
    }

    fn solid_model(points: &[(Vec3, Vec3, f32, Vec3)]) -> GaussianModel {
        let mut m = GaussianModel::new(0);
        for &(pos, scale, opacity, rgb) in points {
            m.push_solid(pos, scale, Quat::identity(), opacity, rgb);
        }
        m
    }

    #[test]
    fn empty_model_renders_background() {
        let m = GaussianModel::new(0);
        let opts = RenderOptions {
            background: Vec3::new(0.1, 0.2, 0.3),
            ..RenderOptions::default()
        };
        let out = Renderer::new(opts).render(&m, &cam(64, 64));
        assert_eq!(out.image.pixel(10, 10), Vec3::new(0.1, 0.2, 0.3));
        assert_eq!(out.stats.total_intersections, 0);
    }

    #[test]
    fn single_splat_colors_center() {
        let m = solid_model(&[(
            Vec3::zero(),
            Vec3::splat(0.3),
            0.95,
            Vec3::new(1.0, 0.0, 0.0),
        )]);
        let out = Renderer::default().render(&m, &cam(64, 64));
        let c = out.image.pixel(32, 32);
        assert!(c.x > 0.7, "center should be strongly red, got {c}");
        assert!(c.y < 0.3);
        // Corner far from the splat should stay black.
        let corner = out.image.pixel(1, 1);
        assert!(corner.x < 0.1, "corner should be dark, got {corner}");
    }

    #[test]
    fn nearer_splat_occludes() {
        let m = solid_model(&[
            (
                Vec3::new(0.0, 0.0, -1.0),
                Vec3::splat(0.4),
                0.99,
                Vec3::new(1.0, 0.0, 0.0),
            ),
            (
                Vec3::new(0.0, 0.0, 1.0),
                Vec3::splat(0.4),
                0.99,
                Vec3::new(0.0, 1.0, 0.0),
            ),
        ]);
        let out = Renderer::default().render(&m, &cam(64, 64));
        let c = out.image.pixel(32, 32);
        assert!(c.y > c.x, "near green splat should dominate: {c}");
    }

    #[test]
    fn model_order_does_not_matter() {
        let a = solid_model(&[
            (
                Vec3::new(0.0, 0.0, -1.0),
                Vec3::splat(0.4),
                0.9,
                Vec3::new(1.0, 0.0, 0.0),
            ),
            (
                Vec3::new(0.0, 0.0, 1.0),
                Vec3::splat(0.4),
                0.9,
                Vec3::new(0.0, 1.0, 0.0),
            ),
        ]);
        let b = solid_model(&[
            (
                Vec3::new(0.0, 0.0, 1.0),
                Vec3::splat(0.4),
                0.9,
                Vec3::new(0.0, 1.0, 0.0),
            ),
            (
                Vec3::new(0.0, 0.0, -1.0),
                Vec3::splat(0.4),
                0.9,
                Vec3::new(1.0, 0.0, 0.0),
            ),
        ]);
        let ra = Renderer::default().render(&a, &cam(64, 64));
        let rb = Renderer::default().render(&b, &cam(64, 64));
        assert!(ra.image.mse(&rb.image) < 1e-10);
    }

    #[test]
    fn per_pixel_sort_matches_per_tile_for_center_depth() {
        let m = solid_model(&[
            (
                Vec3::new(0.0, 0.0, -1.0),
                Vec3::splat(0.4),
                0.9,
                Vec3::new(1.0, 0.0, 0.0),
            ),
            (
                Vec3::new(0.3, 0.1, 1.0),
                Vec3::splat(0.4),
                0.8,
                Vec3::new(0.0, 1.0, 0.0),
            ),
        ]);
        let opts = RenderOptions {
            sort_mode: SortMode::PerPixel,
            ..RenderOptions::default()
        };
        let pp = Renderer::new(opts).render(&m, &cam(64, 64));
        let pt = Renderer::default().render(&m, &cam(64, 64));
        assert!(pp.image.mse(&pt.image) < 1e-10);
    }

    #[test]
    fn parallel_matches_serial() {
        let m = solid_model(&[
            (
                Vec3::new(-0.5, 0.0, 0.0),
                Vec3::splat(0.3),
                0.9,
                Vec3::new(1.0, 0.0, 0.0),
            ),
            (
                Vec3::new(0.5, 0.2, 0.5),
                Vec3::splat(0.25),
                0.7,
                Vec3::new(0.0, 1.0, 0.0),
            ),
            (
                Vec3::new(0.0, -0.4, -0.5),
                Vec3::splat(0.35),
                0.8,
                Vec3::new(0.0, 0.0, 1.0),
            ),
        ]);
        let mut opts = RenderOptions {
            threads: 4,
            track_point_stats: true,
            ..RenderOptions::default()
        };
        let par = Renderer::new(opts.clone()).render(&m, &cam(96, 80));
        opts.threads = 1;
        let ser = Renderer::new(opts).render(&m, &cam(96, 80));
        assert!(par.image.mse(&ser.image) < 1e-12);
        assert_eq!(
            par.image, ser.image,
            "parallel must be bit-exact, not just close"
        );
        assert_eq!(par.winners, ser.winners);
        assert_eq!(
            par.stats.point_pixels_dominated,
            ser.stats.point_pixels_dominated
        );
        assert_eq!(par.stats.blend_steps, ser.stats.blend_steps);
        assert_eq!(par.stats, ser.stats, "profile equality ignores wall time");
    }

    #[test]
    fn dominance_counts_assign_pixels() {
        let m = solid_model(&[(Vec3::zero(), Vec3::splat(0.5), 0.95, Vec3::one())]);
        let out = Renderer::new(RenderOptions::with_point_stats()).render(&m, &cam(64, 64));
        assert_eq!(out.stats.point_pixels_dominated.len(), 1);
        assert!(out.stats.point_pixels_dominated[0] > 100);
        assert!(out.stats.point_tiles_used[0] >= 1);
    }

    #[test]
    fn occluded_point_dominates_nothing() {
        let m = solid_model(&[
            (
                Vec3::new(0.0, 0.0, 1.0),
                Vec3::splat(0.6),
                0.99,
                Vec3::new(0.0, 1.0, 0.0),
            ),
            // Same center but farther and smaller: fully hidden.
            (
                Vec3::new(0.0, 0.0, -1.0),
                Vec3::splat(0.1),
                0.9,
                Vec3::new(1.0, 0.0, 0.0),
            ),
        ]);
        let out = Renderer::new(RenderOptions::with_point_stats()).render(&m, &cam(64, 64));
        let dom = &out.stats.point_pixels_dominated;
        assert!(dom[0] > 0);
        assert_eq!(dom[1], 0, "occluded point should dominate no pixels");
    }

    #[test]
    fn transmittance_early_stop_reduces_blend_steps() {
        // A stack of opaque splats: early-stop should keep blend steps far
        // below (pixels × splats).
        let pts: Vec<(Vec3, Vec3, f32, Vec3)> = (0..20)
            .map(|i| {
                (
                    Vec3::new(0.0, 0.0, i as f32 * 0.01),
                    Vec3::splat(0.4),
                    0.99,
                    Vec3::one(),
                )
            })
            .collect();
        let m = solid_model(&pts);
        let out = Renderer::new(RenderOptions::with_point_stats()).render(&m, &cam(64, 64));
        let naive = out.stats.total_intersections * (16 * 16) as u64;
        assert!(out.stats.blend_steps < naive / 2, "early stop ineffective");
    }

    #[test]
    fn filtered_projection_renders_only_admitted_points() {
        let m = solid_model(&[
            (
                Vec3::zero(),
                Vec3::splat(0.4),
                0.95,
                Vec3::new(1.0, 0.0, 0.0),
            ),
            (
                Vec3::zero(),
                Vec3::splat(0.4),
                0.95,
                Vec3::new(0.0, 1.0, 0.0),
            ),
        ]);
        let r = Renderer::default();
        let camera = cam(64, 64);
        let mut splats = crate::projection::project_model(&m, &camera, r.options());
        splats.retain(|s| s.point_index == 0);
        let scene = SceneRef::Projected {
            splats: &splats,
            points: m.len(),
        };
        let only_red = r.render(scene, &camera);
        let c = only_red.image.pixel(32, 32);
        assert!(c.x > 0.5 && c.y < 0.1);
        assert_eq!(only_red.stats.points_projected, 1);
    }

    #[test]
    #[should_panic(expected = "degenerate camera")]
    fn zero_width_camera_rejected_at_entry() {
        // Regression: a zero-width camera used to reach the Composite stage's
        // `pixels / width` as a divide-by-zero.
        let m = GaussianModel::new(0);
        let camera = Camera {
            width: 0,
            ..cam(64, 64)
        };
        let _ = Renderer::default().render(&m, &camera);
    }

    #[test]
    #[should_panic(expected = "degenerate camera")]
    fn zero_height_camera_rejected_at_entry() {
        let m = GaussianModel::new(0);
        let camera = Camera {
            height: 0,
            ..cam(64, 64)
        };
        let _ = Renderer::default().render(&m, View::masked(camera, Vec::new()));
    }

    #[test]
    #[should_panic(expected = "exceeds u32 pixel addressing")]
    fn oversized_camera_rejected_at_entry() {
        // Regression: at 65536×65536 the old mask-size assert computed
        // width * height in u32, wrapped to 0, and let an empty mask slip
        // through toward a multi-terabyte render. Such images are now
        // rejected outright at entry — per-pixel indices are u32
        // throughout the hot path and would wrap silently.
        let m = GaussianModel::new(0);
        let camera = Camera {
            width: 65536,
            height: 65536,
            ..cam(64, 64)
        };
        let _ = Renderer::default().render(&m, View::masked(camera, Vec::new()));
    }

    #[test]
    #[should_panic(expected = "pixel mask size mismatch")]
    fn wrong_sized_mask_rejected() {
        let m = GaussianModel::new(0);
        let _ = Renderer::default().render(&m, View::masked(cam(64, 64), vec![true; 100]));
    }

    #[test]
    fn stats_grid_covers_image() {
        let m = GaussianModel::new(0);
        let out = Renderer::default().render(&m, &cam(100, 70));
        assert_eq!(out.stats.grid.tiles_x, 7); // ceil(100/16)
        assert_eq!(out.stats.grid.tiles_y, 5); // ceil(70/16)
        assert_eq!(out.stats.tile_intersections.len(), 35);
        assert_eq!(out.stats.grid.pixel_count(), 100 * 70);
    }

    #[test]
    fn alpha_max_caps_single_splat() {
        let m = solid_model(&[(Vec3::zero(), Vec3::splat(0.5), 1.0, Vec3::one())]);
        let out = Renderer::default().render(&m, &cam(64, 64));
        let c = out.image.pixel(32, 32);
        // alpha capped at 0.99 → some background leaks through.
        assert!(c.x <= 0.9901);
    }

    #[test]
    fn profile_records_all_five_stages() {
        let m = solid_model(&[(Vec3::zero(), Vec3::splat(0.4), 0.9, Vec3::one())]);
        let out = Renderer::default().render(&m, &cam(64, 64));
        let kinds: Vec<StageKind> = out.stats.profile.samples.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                StageKind::Project,
                StageKind::Bin,
                StageKind::Merge,
                StageKind::Raster,
                StageKind::Composite
            ]
        );
        // Counters mirror the headline stats.
        let p = &out.stats.profile;
        assert_eq!(
            p.items(StageKind::Project),
            out.stats.points_projected as u64
        );
        assert_eq!(p.items(StageKind::Bin), out.stats.total_intersections);
        // One raster work unit per tile row (64 px / 16 px tiles = 4 rows).
        assert_eq!(p.items(StageKind::Merge), 4);
        assert_eq!(p.items(StageKind::Raster), out.stats.blend_steps);
        assert_eq!(p.items(StageKind::Composite), 64 * 64);
    }

    /// A small scene with overlap, occlusion and off-center splats, so
    /// neighbouring pixels admit different splats and stop at different
    /// depths.
    fn divergent_model() -> GaussianModel {
        solid_model(&[
            (
                Vec3::new(-0.6, 0.1, 0.0),
                Vec3::splat(0.35),
                0.97,
                Vec3::new(1.0, 0.1, 0.0),
            ),
            (
                Vec3::new(0.5, -0.2, 0.6),
                Vec3::splat(0.2),
                0.6,
                Vec3::new(0.0, 1.0, 0.3),
            ),
            (
                Vec3::new(0.1, 0.4, -0.7),
                Vec3::splat(0.45),
                0.99,
                Vec3::new(0.2, 0.0, 1.0),
            ),
            (
                Vec3::new(0.0, -0.5, 0.2),
                Vec3::splat(0.15),
                0.3,
                Vec3::new(1.0, 1.0, 0.0),
            ),
        ])
    }

    #[test]
    fn winner_buffers_empty_without_point_stats() {
        // Satellite regression: without point statistics the per-unit
        // winner buffers (and the assembled output buffer) stay empty
        // instead of allocating a dead image-sized vec per work unit.
        let m = divergent_model();
        let out = Renderer::default().render(&m, &cam(64, 64));
        assert!(out.winners.is_empty());
        let with = Renderer::new(RenderOptions::with_point_stats()).render(&m, &cam(64, 64));
        assert_eq!(with.winners.len(), 64 * 64);
    }

    #[test]
    fn pre_projected_renders_skip_the_project_stage() {
        let m = divergent_model();
        let camera = cam(64, 48);
        let renderer = Renderer::new(RenderOptions::with_point_stats());
        let splats = crate::projection::project_model(&m, &camera, renderer.options());
        let projected = SceneRef::Projected {
            splats: &splats,
            points: m.len(),
        };
        let non_project = |o: &RenderOutput| -> Vec<(StageKind, u64)> {
            let samples = o.stats.profile.samples.iter();
            let samples = samples.filter(|s| s.kind != StageKind::Project);
            samples.map(|s| (s.kind, s.items)).collect()
        };
        let mask: Vec<bool> = (0..64 * 48).map(|i| i % 64 < 40).collect();
        for view in [View::from(&camera), View::masked(camera, mask)] {
            let in_core = renderer.render(&m, view.clone());
            let out = renderer.render(projected, view);
            assert!(out
                .stats
                .profile
                .samples
                .iter()
                .all(|s| s.kind != StageKind::Project));
            assert_eq!(out.stats.profile.samples.len(), 4);
            // Starting at Bin changes what the profile records, never what
            // the frame computes.
            assert_eq!(out.image, in_core.image);
            assert_eq!(out.winners, in_core.winners);
            assert!(!out.winners.is_empty());
            assert_eq!(non_project(&out), non_project(&in_core));
            let mut stats = out.stats.clone();
            stats.profile = in_core.stats.profile.clone();
            assert_eq!(stats, in_core.stats);
        }
    }
}
