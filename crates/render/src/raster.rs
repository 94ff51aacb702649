//! Rasterization kernels and the top-level [`Renderer`].
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
//! # Scalar and SIMD kernels
//!
//! The per-tile compositing inner loop exists twice, selected by
//! [`RenderOptions::raster_kernel`](crate::options::RasterKernel):
//!
//! * [`composite_pixel`] — the scalar reference: one pixel front-to-back
//!   over its tile's depth-sorted CSR list.
//! * [`composite_row4`] — four horizontally-adjacent pixels of one tile
//!   row batched onto [`ms_math::simd`] lanes. Each CSR splat is broadcast
//!   against the four pixel centers; admission (`alpha_min`), the
//!   `alpha_max` clamp, color/transmittance/winner accumulation and the
//!   `t < t_min` early-stop all happen per lane under a [`Mask4`], so a
//!   lane that retires early freezes exactly where the scalar loop would
//!   have `break`-ed.
//!
//! The two kernels are **bit-identical by construction**: every `f32`
//! operation an admitted contribution executes — including association
//! order inside the conic evaluation — is the same scalar op in the same
//! order, just four pixels at a time (the lane ops in `ms_math::simd` are
//! plain per-lane scalar ops, so there is no FMA contraction or vendor
//! `min` quirk to diverge on). The one shortcut the SIMD kernel takes, the
//! far-tail `exp` skip, is gated by a conservative threshold with enough
//! margin that it provably only skips contributions the scalar kernel
//! would have rejected (`alpha < alpha_min`) anyway — see [`splat_cull`],
//! which also derives a conservative bounding box of the admission region
//! so whole far-tail splats skip a 4-pixel group without any lane
//! arithmetic. [`rasterize_unit`] drives full 4-pixel groups through the
//! SIMD kernel and row remainders or masked-pixel gaps through the scalar
//! one, so any pixel mix still composes to the scalar frame.
//!
//! # Tile staging
//!
//! The SIMD kernel is fed per tile ([`TileStage::stage_tile`]): one CSR
//! walk culls each splat once, stages its row-invariant terms into SoA
//! buffers, and derives its inclusive row interval from the admission box
//! by exact binary search on the per-row cull predicate. A counting sort
//! over the intervals then schedules the staged splats by row — depth
//! order preserved within each row — and each row reads only its own
//! interval-active splats ([`TileStage::row_iter`]). O(csr_len + Σ
//! active-rows) per tile. The SoA buffers live in [`RasterScratch`],
//! recycled across tiles, work units and (through [`FrameArena`]) frames;
//! the [`RasterWork`] counters in the frame profile record how much
//! row-iteration work the interval scheduler avoided.

use crate::binning::{SuperTile, TileBins};
use crate::frame::{FrameArena, FrameInFlight, SceneRef, View};
use crate::options::{RasterKernel, RenderOptions, SortMode};
use crate::pipeline::{Composited, FrameProfile, StageSample};
use crate::projection::ProjectedSplat;
use crate::stats::{RasterWork, RenderStats};
use ms_math::simd::{F32x4, Mask4, U32x4};
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
/// tiles) — what the parallel Raster stage distributes and the Composite
/// stage merges. A band is the degenerate full-row rectangle, so the
/// unmerged pipeline produces exactly the PR 3/4 band results.
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
    /// Staging work counters for the unit's tiles (zeros under the scalar
    /// kernel, which stages nothing).
    pub work: RasterWork,
}

impl Renderer {
    /// Create a renderer. The environment overrides are read here, once:
    /// `MS_CHUNK_CACHE` sizes the chunk cache when `cache_budget_bytes` is
    /// unset, and `MS_RASTER_KERNEL` resolves [`RasterKernel::Auto`], so no
    /// frame ever reads the environment.
    ///
    /// # Panics
    ///
    /// Panics when `options` fail validation or an environment override
    /// holds an unrecognized value — configuration errors are programmer
    /// errors here, not runtime conditions.
    pub fn new(options: RenderOptions) -> Self {
        let env = std::env::var("MS_CHUNK_CACHE").ok();
        let budget = options.resolved_cache_budget(env.as_deref());
        Self::with_chunk_cache(options, Arc::new(ChunkCache::new(budget)))
    }

    /// Create a renderer that shares an existing [`ChunkCache`] instead of
    /// allocating its own — the frame server uses this so every session
    /// rendering the same scene hits one cache. The cache's budget wins
    /// over whatever `options.cache_budget_bytes` would have resolved to.
    ///
    /// # Panics
    ///
    /// Panics when `options` fail validation or `MS_RASTER_KERNEL` holds an
    /// unrecognized value, exactly like [`Renderer::new`].
    pub fn with_chunk_cache(mut options: RenderOptions, cache: Arc<ChunkCache>) -> Self {
        options.validate().expect("invalid render options");
        let env = std::env::var("MS_RASTER_KERNEL").ok();
        options.raster_kernel = options.resolved_kernel(env.as_deref());
        Self {
            options,
            chunk_cache: cache,
        }
    }

    /// The active options, with [`RasterKernel::Auto`] already resolved to
    /// the kernel every frame of this renderer runs.
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
    /// a pre-projected splat's `point_index` is out of range (see
    /// [`SceneRef::Projected`]).
    ///
    /// [`run_stage`]: FrameInFlight::run_stage
    pub fn begin_frame<'a>(
        &self,
        scene: impl Into<SceneRef<'a>>,
        view: impl Into<View>,
        arena: FrameArena,
    ) -> FrameInFlight {
        FrameInFlight::new(scene.into(), view.into(), arena)
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
    /// after it is the in-core code. With LOD off the output is
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
    schedule: &crate::binning::MergedTileSchedule,
    composited: Composited,
    samples: Vec<StageSample>,
) -> RenderOutput {
    let Composited {
        image,
        winners,
        blend_steps,
        raster,
    } = composited;
    // In-core residency peaks: no chunk buffer, and the projection scratch
    // *is* the whole visible-splat vector. The chunked frame path overrides
    // both with the per-chunk peaks it measured while streaming.
    let profile = FrameProfile {
        samples,
        raster,
        projected_bytes_peak: std::mem::size_of_val(splats) as u64,
        ..FrameProfile::default()
    };
    let tile_intersections = bins.intersection_counts();
    let total_intersections = bins.total_intersections();
    // The per-tile → work-unit map is recorded only when occupancy
    // merging actually ran; the identity band schedule reflects
    // scheduling granularity, not a merge decision, and recording it
    // would make the accelerator simulator treat whole bands as TMU
    // output.
    let tile_unit = if options.merge_enabled() {
        schedule.tile_unit_map()
    } else {
        Vec::new()
    };
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
            tile_unit,
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

/// Recyclable per-worker scratch for one raster work unit: the per-tile
/// staging buffers (`TileStage`) and the per-pixel sort-mode gather
/// buffer. One instance serves one raster worker at a time; the Raster
/// stage keeps a pool of `threads` instances, recycled across work units
/// and — through [`FrameArena`] — across frames, so the steady-state
/// raster hot path allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct RasterScratch {
    /// Per-tile SoA staging buffers of the SIMD kernel.
    stage: TileStage,
    /// Per-pixel sort-mode contribution gather buffer.
    contribs: Vec<(f32, f32, ms_math::Vec3, u32)>,
}

impl RasterScratch {
    /// Drop contents, keep capacity — called when an arena is returned so
    /// recycled scratch never leaks splat data between frames or sessions.
    pub(crate) fn clear(&mut self) {
        self.stage.clear();
        self.contribs.clear();
    }
}

/// Rasterize one work unit (a rectangle of tiles, clipped to the image).
///
/// Each pixel composites against **its own tile's** depth-sorted CSR list —
/// the unit rectangle only decides which pixels this call owns — so two
/// schedules that partition the grid differently produce bit-identical
/// pixels, winners and blend-step counts. This is the invariant behind
/// both determinism axes (thread count and merged-vs-unmerged).
/// `scratch` only carries recycled buffer capacity; its contents are
/// overwritten per tile, so which worker's scratch arrives cannot change a
/// pixel either.
pub(crate) fn rasterize_unit(
    options: &RenderOptions,
    splats: &[ProjectedSplat],
    bins: &TileBins,
    camera: &Camera,
    unit: &SuperTile,
    mask: Option<&[bool]>,
    scratch: &mut RasterScratch,
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
    let mut work = RasterWork::default();
    // The Renderer constructors resolve `Auto`, so the hot path reads the
    // pinned kernel and never the environment.
    debug_assert_ne!(options.raster_kernel, RasterKernel::Auto);
    let simd =
        options.sort_mode == SortMode::PerTile && options.raster_kernel == RasterKernel::Simd4;
    let RasterScratch { stage, contribs } = scratch;

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
            if simd {
                // The tile's first/last pixel-center columns feed the
                // column-overlap cull.
                let (row_x_lo, row_x_hi) = (tx_start as f32 + 0.5, (tx_end - 1) as f32 + 0.5);
                let culled =
                    stage.stage_tile(options, splats, list, ty_start, ty_end, row_x_lo, row_x_hi);
                work.splats_staged += list.len() as u64 - culled;
                work.splats_culled += culled;
                // One row iteration per scheduled (row, splat) pair.
                work.row_iterations += stage.schedule_len() as u64;
                work.row_iteration_bound += (ty_end - ty_start) as u64 * list.len() as u64;
            }
            for y in ty_start..ty_end {
                let mut x = tx_start;
                while x < tx_end {
                    // Full 4-pixel groups with no masked-out gap take the
                    // SIMD kernel; remainders and gapped groups run the
                    // scalar kernel pixel by pixel (bit-identical, so the
                    // grouping never shows in the output).
                    let group = (tx_end - x).min(4);
                    let whole = group == 4
                        && mask.map_or(true, |m| {
                            let base = (y * camera.width + x) as usize;
                            m[base] && m[base + 1] && m[base + 2] && m[base + 3]
                        });
                    if simd && whole {
                        let px_x = F32x4::new(
                            x as f32 + 0.5,
                            (x + 1) as f32 + 0.5,
                            (x + 2) as f32 + 0.5,
                            (x + 3) as f32 + 0.5,
                        );
                        let row = stage.row_iter(
                            y - ty_start,
                            y as f32 + 0.5,
                            px_x.lane(0),
                            px_x.lane(3),
                        );
                        let (colors, group_winners, steps) = composite_row4(options, row, px_x);
                        let out_idx = ((y - y_start) * unit_w + (x - x_start)) as usize;
                        pixels[out_idx..out_idx + 4].copy_from_slice(&colors);
                        if track {
                            winners[out_idx..out_idx + 4].copy_from_slice(&group_winners);
                        }
                        blend_steps += steps;
                        x += 4;
                        continue;
                    }
                    for x in x..x + group {
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
                    x += group;
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
        work,
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

/// Margin subtracted from the admission log-threshold before the SIMD
/// kernel may skip a lane's `exp`. The bound must absorb every rounding
/// error in the comparison chain (`ln`, the division, `expf`, the opacity
/// multiply — each within a few ulp, so relative error well under 1e-5),
/// and `e^(1/16) ≈ 1.065` leaves four orders of magnitude of slack. A
/// power of two, so the subtraction itself is exact for all reachable
/// magnitudes of the threshold.
const EXP_SKIP_MARGIN: f32 = 1.0 / 16.0;

/// Relative + absolute inflation applied to the admission ellipse's
/// bounding box so that `f32` rounding in its derivation (one multiply,
/// one divide, one square root, one subtraction — each within a few ulp)
/// can never shrink it below the true extent. A thousandth relatively and
/// a whole pixel absolutely dwarf those errors at any magnitude a
/// projected splat can reach.
const CULL_BOX_RELATIVE_SLACK: f32 = 1.001;
/// See [`CULL_BOX_RELATIVE_SLACK`].
const CULL_BOX_ABSOLUTE_SLACK: f32 = 1.0;

/// Per-splat admission-culling data, computed by [`splat_cull`] in the
/// per-tile staging prepass and consumed by [`composite_row4`].
#[derive(Debug, Clone, Copy)]
struct SplatCull {
    /// Lower bound on the Gaussian exponent below which admission
    /// provably fails (so the `exp` call may be skipped per lane).
    power_floor: f32,
    /// Conservative pixel-space bounding box of the admission ellipse
    /// `power ≥ power_floor`; pixels outside it provably fail admission,
    /// so a whole 4-pixel group outside skips the splat without touching
    /// any lane arithmetic. `x_lo > x_hi` encodes "always skip" (the splat
    /// can never pass admission anywhere).
    x_lo: f32,
    /// See `x_lo`.
    x_hi: f32,
    /// Bounding-box rows, same contract as `x_lo`/`x_hi`.
    y_lo: f32,
    /// See `y_lo`.
    y_hi: f32,
}

impl SplatCull {
    /// Never skip anything — the exact per-lane path decides.
    const EXACT: Self = Self {
        power_floor: f32::NEG_INFINITY,
        x_lo: f32::NEG_INFINITY,
        x_hi: f32::INFINITY,
        y_lo: f32::NEG_INFINITY,
        y_hi: f32::INFINITY,
    };
}

/// Per-splat admission culls: a lower bound on the Gaussian exponent below
/// which a contribution **provably** fails the `alpha_min` admission test
/// (letting [`composite_row4`] skip the dominant `exp` call per lane), plus
/// a conservative bounding box of the region where admission is possible
/// at all (letting it skip far-tail splats before any lane arithmetic).
///
/// For splat `s`, scalar admission computes
/// `alpha = min(opacity · e^power, alpha_max)` and rejects `alpha <
/// alpha_min`. Rearranged, rejection is certain when `power <
/// ln(alpha_min / opacity)`; the stored floor subtracts
/// [`EXP_SKIP_MARGIN`] so that even with worst-case `f32` rounding in
/// `ln`, `/`, `expf` and the multiply, `power < power_floor` implies the
/// scalar kernel computes `alpha < alpha_min` — the skip can never admit
/// differently than the scalar path, which is what keeps the kernels
/// bit-identical. Degenerate inputs degrade safely: `alpha_min == 0`
/// yields `-∞` (never skip — scalar admits zero-alpha contributions),
/// non-positive or NaN opacity yields `+∞`/NaN (always/never skip, both
/// consistent with scalar admission), and NaN `power` compares false so it
/// always takes the exact path.
///
/// The bounding box comes from the same floor: `power ≥ power_floor` is
/// the ellipse `a·dx² + 2b·dx·dy + c·dy² ≤ r²` with `r² = -2·power_floor`,
/// whose axis-aligned extents are `|dx| ≤ √(c·r²/det)`,
/// `|dy| ≤ √(a·r²/det)` with `det = ac − b²`. Outside those extents
/// (inflated by [`CULL_BOX_RELATIVE_SLACK`]/[`CULL_BOX_ABSOLUTE_SLACK`] to
/// absorb the rounding of the derivation itself) `power < power_floor`
/// holds for every pixel, so skipping the whole splat is exactly as safe
/// as the per-lane floor test. The box is only used when the conic is
/// positive definite (`a > 0`, `c > 0`, `det > 0`); any other shape —
/// including NaNs — falls back to [`SplatCull::EXACT`]. An `r² ≤ 0` floor
/// means admission is impossible everywhere (`opacity · e^margin ≤
/// alpha_min`), encoded as an empty box.
fn splat_cull(o: &RenderOptions, s: &ProjectedSplat) -> SplatCull {
    let power_floor = (o.alpha_min / s.opacity).ln() - EXP_SKIP_MARGIN;
    let r2 = -2.0 * power_floor;
    if r2.is_nan() {
        return SplatCull::EXACT;
    }
    if r2 <= 0.0 {
        // Even `power = 0` (splat center) provably fails admission:
        // the splat contributes nowhere, skip it everywhere.
        return SplatCull {
            power_floor,
            x_lo: f32::INFINITY,
            x_hi: f32::NEG_INFINITY,
            y_lo: f32::INFINITY,
            y_hi: f32::NEG_INFINITY,
        };
    }
    let (a, b, c) = (s.conic.a, s.conic.b, s.conic.c);
    let det = a * c - b * b;
    if !(det > 0.0 && a > 0.0 && c > 0.0) {
        // Not a positive-definite ellipse (or NaN): no finite
        // admission region to bound — use the exact path, which is
        // always correct.
        return SplatCull {
            power_floor,
            ..SplatCull::EXACT
        };
    }
    let hw_x = (c * r2 / det).sqrt() * CULL_BOX_RELATIVE_SLACK + CULL_BOX_ABSOLUTE_SLACK;
    let hw_y = (a * r2 / det).sqrt() * CULL_BOX_RELATIVE_SLACK + CULL_BOX_ABSOLUTE_SLACK;
    SplatCull {
        power_floor,
        x_lo: s.center.x - hw_x,
        x_hi: s.center.x + hw_x,
        y_lo: s.center.y - hw_y,
        y_hi: s.center.y + hw_y,
    }
}

/// One depth-ordered splat of a tile row, produced by
/// [`TileStage::row_iter`]: the row-invariant conic terms are precomputed
/// (with the scalar kernel's own association order, so they are the *same*
/// `f32` values the scalar kernel would produce) and the fields the inner
/// loop touches sit in one compact record.
#[derive(Debug, Clone, Copy)]
struct RowSplat {
    /// Splat center column.
    center_x: f32,
    /// `conic.a`.
    a: f32,
    /// `2.0 * conic.b` — the scalar kernel's own grouping.
    b2: f32,
    /// `py - center.y` for this row.
    dy: f32,
    /// `(conic.c * dy) * dy`, scalar association.
    c_dy2: f32,
    /// Admission floor on the Gaussian exponent (see [`SplatCull`]).
    power_floor: f32,
    /// Admission-box columns (see [`SplatCull`]).
    x_lo: f32,
    /// See `x_lo`.
    x_hi: f32,
    /// Splat opacity.
    opacity: f32,
    /// Splat color.
    color: ms_math::Vec3,
    /// Source point index (winner tracking).
    point_index: u32,
}

/// Per-tile staging prepass + row-interval scheduler feeding
/// [`composite_row4`].
///
/// [`TileStage::stage_tile`] walks the tile's depth-sorted CSR list
/// *once*: it computes each splat's admission cull ([`splat_cull`]), drops
/// splats whose box misses the tile's columns or every tile row, and
/// writes each survivor's splat-invariant terms into SoA buffers **in CSR
/// depth order**, together with the inclusive row interval its admission
/// box covers. A counting sort over those intervals then builds a per-row
/// schedule (`row_splats[row_offsets[r]..row_offsets[r + 1]]` = the
/// depth-ordered staged indices active on row `r`), so
/// [`TileStage::row_iter`] touches only the splats whose interval covers
/// the row — O(csr_len + Σ intervals) per tile instead of the
/// O(rows × csr_len) of re-walking the list for every row.
///
/// # Bit-identity with the scalar kernel
///
/// A splat may be left off row `y` only when `py < y_lo || py > y_hi ||
/// row_x_hi < x_lo || row_x_lo > x_hi` with `py = y as f32 + 0.5`: every
/// pixel of the row then lies outside the admission box, which is exactly
/// as safe as the per-lane floor test (see [`splat_cull`]). The column
/// test is row-invariant, so it is evaluated once per tile. The row tests
/// are resolved into an interval by binary search **on those exact `f32`
/// predicates**: `py` is monotone nondecreasing in `y`, so `py < y_lo`
/// flips true→false at most once and `py > y_hi` flips false→true at most
/// once across the tile's rows, and the partition points bound precisely
/// the rows the per-row test would keep (NaN bounds compare false
/// everywhere → full interval, never dropped). Scattering survivors in
/// staging order keeps each row's schedule slice in CSR depth order, and
/// [`TileStage::row_iter`] computes the dy-dependent terms with the scalar
/// kernel's association (`py - center_y`, `(c · dy) · dy`) from
/// verbatim-staged fields — so the kernels composite identical bits.
#[derive(Debug, Default)]
pub(crate) struct TileStage {
    /// Splat center column, staged verbatim.
    center_x: Vec<f32>,
    /// Splat center row, staged verbatim (`dy = py - center_y` per row).
    center_y: Vec<f32>,
    /// `conic.a`, staged verbatim.
    a: Vec<f32>,
    /// `2.0 * conic.b` — the scalar kernel's grouping, computed once.
    b2: Vec<f32>,
    /// `conic.c`, staged verbatim (`c_dy2 = (c * dy) * dy` per row).
    c: Vec<f32>,
    /// Admission floor (see [`SplatCull`]).
    power_floor: Vec<f32>,
    /// Admission-box columns (see [`SplatCull`]).
    x_lo: Vec<f32>,
    /// See `x_lo`.
    x_hi: Vec<f32>,
    /// Splat opacity.
    opacity: Vec<f32>,
    /// Splat color.
    color: Vec<ms_math::Vec3>,
    /// Source point index (winner tracking).
    point_index: Vec<u32>,
    /// First tile-relative row of the splat's interval.
    y0: Vec<u32>,
    /// One past the last tile-relative row of the splat's interval.
    y_end: Vec<u32>,
    /// Counting-sort schedule: row `r` owns
    /// `row_splats[row_offsets[r]..row_offsets[r + 1]]`.
    row_offsets: Vec<usize>,
    /// Staged-splat indices, depth-ordered within each row's slice.
    row_splats: Vec<u32>,
    /// Scatter cursors, one per row (scratch for the schedule build).
    cursor: Vec<usize>,
}

/// First `y` in `[lo, hi)` with `!pred(y)`, for `pred` monotone
/// true→false over the range (the row-interval partition-point search).
/// Returns `hi` when `pred` holds everywhere.
fn row_partition(lo: u32, hi: u32, pred: impl Fn(u32) -> bool) -> u32 {
    let (mut lo, mut hi) = (lo, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

impl TileStage {
    /// Stage one tile: cull, write survivors' splat-invariant terms in
    /// depth order, and build the row-interval schedule. Rows are the
    /// pixel rows `ty_start..ty_end`; `row_x_lo`/`row_x_hi` are the tile's
    /// first/last pixel-center columns (the row-invariant operands of the
    /// column cull). Returns how many of the tile's `list` splats were
    /// culled (dropped entirely — provably admitted nowhere in the tile).
    #[allow(clippy::too_many_arguments)]
    fn stage_tile(
        &mut self,
        o: &RenderOptions,
        splats: &[ProjectedSplat],
        list: &[u32],
        ty_start: u32,
        ty_end: u32,
        row_x_lo: f32,
        row_x_hi: f32,
    ) -> u64 {
        self.clear();
        let mut culled = 0u64;
        for &si in list {
            let s = &splats[si as usize];
            let cull = splat_cull(o, s);
            // The row-invariant column test, hoisted out of the row loop:
            // NaN bounds compare false — never dropped.
            if row_x_hi < cull.x_lo || row_x_lo > cull.x_hi {
                culled += 1;
                continue;
            }
            // Partition points of the exact per-row predicates (see the
            // type-level bit-identity note). `!(py > y_hi)` is NOT
            // `py <= y_hi`: a NaN bound must keep every row, exactly as
            // the negated per-row skip test does.
            let first = row_partition(ty_start, ty_end, |y| (y as f32 + 0.5) < cull.y_lo);
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let end = row_partition(ty_start, ty_end, |y| !((y as f32 + 0.5) > cull.y_hi));
            if first >= end {
                culled += 1;
                continue;
            }
            self.center_x.push(s.center.x);
            self.center_y.push(s.center.y);
            self.a.push(s.conic.a);
            self.b2.push(2.0 * s.conic.b);
            self.c.push(s.conic.c);
            self.power_floor.push(cull.power_floor);
            self.x_lo.push(cull.x_lo);
            self.x_hi.push(cull.x_hi);
            self.opacity.push(s.opacity);
            self.color.push(s.color);
            self.point_index.push(s.point_index);
            self.y0.push(first - ty_start);
            self.y_end.push(end - ty_start);
        }
        // Counting sort of the intervals into a per-row schedule:
        // count, prefix-sum, then scatter in staging (= depth) order so
        // each row's slice stays depth-ordered.
        let rows = (ty_end - ty_start) as usize;
        self.row_offsets.clear();
        self.row_offsets.resize(rows + 1, 0);
        for i in 0..self.y0.len() {
            for r in self.y0[i]..self.y_end[i] {
                self.row_offsets[r as usize + 1] += 1;
            }
        }
        for r in 0..rows {
            self.row_offsets[r + 1] += self.row_offsets[r];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.row_offsets[..rows]);
        self.row_splats.resize(self.row_offsets[rows], 0);
        for i in 0..self.y0.len() {
            for r in self.y0[i]..self.y_end[i] {
                let slot = self.cursor[r as usize];
                self.cursor[r as usize] += 1;
                self.row_splats[slot] = i as u32;
            }
        }
        culled
    }

    /// Depth-ordered [`RowSplat`] sequence for tile-relative row `r`
    /// (pixel-center row `py`), pre-culled against one 4-pixel group's
    /// column span `[gx_lo, gx_hi]` and built lazily from the
    /// staged SoA — no per-row buffer is written.
    ///
    /// The column test is [`composite_row4`]'s own whole-group cull
    /// (`gx_hi < x_lo || gx_lo > x_hi`, NaN bounds never skip) hoisted in
    /// front of the load of the other staged fields: a skipped splat
    /// produces no lane arithmetic either way, so filtering here is
    /// invisible to the kernel. The dy-dependent terms use the scalar
    /// kernel's exact association order (`py - center_y`, `(c · dy) · dy`
    /// on verbatim-staged fields).
    fn row_iter(
        &self,
        r: u32,
        py: f32,
        gx_lo: f32,
        gx_hi: f32,
    ) -> impl Iterator<Item = RowSplat> + '_ {
        let start = self.row_offsets[r as usize];
        let end = self.row_offsets[r as usize + 1];
        self.row_splats[start..end].iter().filter_map(move |&i| {
            let i = i as usize;
            if gx_hi < self.x_lo[i] || gx_lo > self.x_hi[i] {
                return None;
            }
            let dy = py - self.center_y[i];
            Some(RowSplat {
                center_x: self.center_x[i],
                a: self.a[i],
                b2: self.b2[i],
                dy,
                c_dy2: (self.c[i] * dy) * dy,
                power_floor: self.power_floor[i],
                x_lo: self.x_lo[i],
                x_hi: self.x_hi[i],
                opacity: self.opacity[i],
                color: self.color[i],
                point_index: self.point_index[i],
            })
        })
    }

    /// Total scheduled (row, splat) pairs for the staged tile —
    /// Σ interval lengths, the per-tile path's actual row-iteration count.
    fn schedule_len(&self) -> usize {
        self.row_splats.len()
    }

    /// Drop contents, keep capacity.
    fn clear(&mut self) {
        self.center_x.clear();
        self.center_y.clear();
        self.a.clear();
        self.b2.clear();
        self.c.clear();
        self.power_floor.clear();
        self.x_lo.clear();
        self.x_hi.clear();
        self.opacity.clear();
        self.color.clear();
        self.point_index.clear();
        self.y0.clear();
        self.y_end.clear();
        self.row_offsets.clear();
        self.row_splats.clear();
        self.cursor.clear();
    }
}

/// Composite four horizontally-adjacent pixels of one tile row
/// front-to-back over the row's staged splat sequence — the 4-lane
/// counterpart of [`composite_pixel`], bit-identical to running it on each
/// pixel.
///
/// `row` is the row's depth-ordered [`RowSplat`] sequence, a lazy view of
/// the per-tile schedule ([`TileStage::row_iter`]).
///
/// Lane `i` is the pixel centered at `(px_x.lane(i), py)` for the row
/// `row` was staged for. Per splat, the conic is evaluated for all four
/// lanes (same association order as
/// `Conic2::mahalanobis_sq`/`gaussian_weight`, with the lane-invariant `y`
/// terms staged once in scalar — identical values, not just close), then
/// each lane independently runs the scalar admission/blend sequence under
/// its activity mask. A lane retires exactly when the scalar loop would
/// have `break`-ed (an *admitted* contribution pushed its transmittance
/// below `t_min`); the group stops early once all four lanes retire.
///
/// Returns the four colors, the four winning point indices, and the total
/// blend steps across the lanes.
#[inline]
fn composite_row4(
    o: &RenderOptions,
    row: impl Iterator<Item = RowSplat>,
    px_x: F32x4,
) -> ([ms_math::Vec3; 4], [u32; 4], u64) {
    let mut cr = F32x4::splat(0.0);
    let mut cg = F32x4::splat(0.0);
    let mut cb = F32x4::splat(0.0);
    let mut t = F32x4::splat(1.0);
    let mut best_w = F32x4::splat(0.0);
    let mut best = U32x4::splat(u32::MAX);
    // Per-lane step counters stay in `u32` lanes (a lane admits each list
    // entry at most once and tile lists are indexed by `u32`, so they
    // cannot wrap) and widen once on return.
    let mut steps = U32x4::splat(0);
    let mut active = Mask4::all_on();
    let alpha_min = F32x4::splat(o.alpha_min);
    let alpha_max = F32x4::splat(o.alpha_max);
    let t_min = F32x4::splat(o.t_min);
    let one = F32x4::splat(1.0);
    let (gx_lo, gx_hi) = (px_x.lane(0), px_x.lane(3));

    for s in row {
        if !active.any() {
            break;
        }
        // Whole-group cull: if all four pixel centers lie outside the
        // splat's conservative admission box, every lane provably fails
        // the `alpha_min` test — skip without touching lane arithmetic.
        // NaN bounds compare false on every test, i.e. never skip.
        if gx_hi < s.x_lo || gx_lo > s.x_hi {
            continue;
        }
        // Mirror `Conic2::mahalanobis_sq` term by term: `a·dx·dx` and
        // `(2b)·dx·dy` vary per lane; the lane-invariant `y` terms were
        // staged once in scalar with the scalar kernel's association.
        let dx = px_x - F32x4::splat(s.center_x);
        let m = F32x4::splat(s.a) * dx * dx
            + F32x4::splat(s.b2) * dx * F32x4::splat(s.dy)
            + F32x4::splat(s.c_dy2);
        let power = F32x4::splat(-0.5) * m;

        // Lanes provably below the admission threshold skip the exp — the
        // only transcendental in the loop (see `splat_cull` for
        // why this cannot disagree with scalar admission). Everything
        // around this block is straight-line lane arithmetic.
        let need = active & !power.lt(F32x4::splat(s.power_floor));
        if !need.any() {
            continue;
        }
        let w = F32x4(std::array::from_fn(|l| {
            if need.lane(l) {
                // `Conic2::gaussian_weight`'s positive-power guard, per lane.
                if power.lane(l) > 0.0 {
                    1.0
                } else {
                    power.lane(l).exp()
                }
            } else {
                0.0
            }
        }));
        let alpha = (F32x4::splat(s.opacity) * w).min(alpha_max);
        // Scalar admission is `!(alpha < alpha_min)` — keep the same
        // comparison so NaN alphas are admitted exactly like the scalar
        // kernel admits them.
        let admit = need & !alpha.lt(alpha_min);
        if !admit.any() {
            continue;
        }
        steps = steps + admit.to_u32x4();
        let wgt = t * alpha;
        cr = admit.select(cr + F32x4::splat(s.color.x) * wgt, cr);
        cg = admit.select(cg + F32x4::splat(s.color.y) * wgt, cg);
        cb = admit.select(cb + F32x4::splat(s.color.z) * wgt, cb);
        let won = admit & wgt.gt(best_w);
        best_w = won.select(wgt, best_w);
        best = won.select_u32(U32x4::splat(s.point_index), best);
        t = admit.select(t * (one - alpha), t);
        // The scalar loop checks `t < t_min` only after an *admitted*
        // contribution — a lane that never admits anything never retires.
        active = active & !(admit & t.lt(t_min));
    }

    let bg = o.background;
    cr = cr + F32x4::splat(bg.x) * t;
    cg = cg + F32x4::splat(bg.y) * t;
    cb = cb + F32x4::splat(bg.z) * t;
    let colors = std::array::from_fn(|l| ms_math::Vec3::new(cr.lane(l), cg.lane(l), cb.lane(l)));
    (colors, best.to_array(), steps.wide_sum())
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
    contribs: &mut Vec<(f32, f32, ms_math::Vec3, u32)>,
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
        // Merging disabled by default: the schedule is one band per tile
        // row (64 px / 16 px tiles = 4 bands), and no unit map is recorded.
        assert_eq!(p.items(StageKind::Merge), 4);
        assert!(out.stats.tile_unit.is_empty());
        assert_eq!(p.items(StageKind::Raster), out.stats.blend_steps);
        assert_eq!(p.items(StageKind::Composite), 64 * 64);
    }

    #[test]
    fn merged_render_is_bit_identical_and_records_schedule() {
        let m = solid_model(&[
            (
                Vec3::new(-0.5, 0.0, 0.0),
                Vec3::splat(0.3),
                0.9,
                Vec3::new(1.0, 0.0, 0.0),
            ),
            (
                Vec3::new(0.4, 0.3, 0.5),
                Vec3::splat(0.2),
                0.8,
                Vec3::new(0.0, 1.0, 0.0),
            ),
        ]);
        let camera = cam(96, 96);
        let plain = Renderer::new(RenderOptions {
            track_point_stats: true,
            ..RenderOptions::default()
        })
        .render(&m, &camera);
        let merged = Renderer::new(RenderOptions {
            track_point_stats: true,
            ..RenderOptions::with_tile_merging()
        })
        .render(&m, &camera);
        assert_eq!(merged.image, plain.image, "merging must not change pixels");
        assert_eq!(merged.winners, plain.winners);
        assert_eq!(merged.stats.blend_steps, plain.stats.blend_steps);
        assert_eq!(
            merged.stats.tile_intersections,
            plain.stats.tile_intersections
        );
        // The merged run records the schedule; the unit counters partition
        // the per-tile counts.
        assert_eq!(merged.stats.tile_unit.len(), merged.stats.grid.tile_count());
        assert!(merged.stats.work_unit_count() > 0);
        assert_eq!(
            merged
                .stats
                .unit_intersections()
                .iter()
                .map(|&u| u as u64)
                .sum::<u64>(),
            merged.stats.total_intersections
        );
        assert!(plain.stats.tile_unit.is_empty());
    }

    fn kernel_opts(kernel: RasterKernel) -> RenderOptions {
        RenderOptions {
            raster_kernel: kernel,
            track_point_stats: true,
            ..RenderOptions::default()
        }
    }

    /// A small scene with overlap, occlusion and off-center splats so the
    /// four lanes of a group genuinely diverge (different admission,
    /// different early-stop depths).
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
    fn simd_kernel_matches_scalar_bit_for_bit() {
        // 97×61: not multiples of the tile size or the lane width, so both
        // tile-edge remainders and ragged image edges are exercised.
        let m = divergent_model();
        let camera = cam(97, 61);
        let scalar = Renderer::new(kernel_opts(RasterKernel::Scalar)).render(&m, &camera);
        let simd = Renderer::new(kernel_opts(RasterKernel::Simd4)).render(&m, &camera);
        assert_eq!(simd.image, scalar.image, "pixels must be bit-identical");
        assert_eq!(simd.winners, scalar.winners);
        assert_eq!(simd.stats.blend_steps, scalar.stats.blend_steps);
        assert_eq!(simd.stats, scalar.stats);
    }

    #[test]
    fn simd_kernel_matches_scalar_under_mask_gaps() {
        // A mask with holes inside 4-pixel groups forces the gap fallback.
        let m = divergent_model();
        let camera = cam(64, 48);
        let mask: Vec<bool> = (0..(64 * 48)).map(|i| i % 5 != 2 && i % 11 != 0).collect();
        let scalar = Renderer::new(kernel_opts(RasterKernel::Scalar))
            .render(&m, View::masked(camera, mask.clone()));
        let simd =
            Renderer::new(kernel_opts(RasterKernel::Simd4)).render(&m, View::masked(camera, mask));
        assert_eq!(simd.image, scalar.image);
        assert_eq!(simd.winners, scalar.winners);
        assert_eq!(simd.stats, scalar.stats);
    }

    #[test]
    fn simd_kernel_handles_lane_divergent_early_stop() {
        // A stack of near-opaque splats slightly offset from each other:
        // adjacent pixels cross `t_min` after different splat counts, so
        // lanes retire at different loop iterations.
        let pts: Vec<(Vec3, Vec3, f32, Vec3)> = (0..24)
            .map(|i| {
                (
                    Vec3::new(0.03 * i as f32 - 0.3, 0.02 * i as f32, i as f32 * 0.02),
                    Vec3::splat(0.3),
                    0.98,
                    Vec3::new(1.0 / (i + 1) as f32, 0.5, 0.2),
                )
            })
            .collect();
        let m = solid_model(&pts);
        let camera = cam(80, 64);
        let scalar = Renderer::new(kernel_opts(RasterKernel::Scalar)).render(&m, &camera);
        let simd = Renderer::new(kernel_opts(RasterKernel::Simd4)).render(&m, &camera);
        assert_eq!(simd.image, scalar.image);
        assert_eq!(simd.winners, scalar.winners);
        assert_eq!(simd.stats.blend_steps, scalar.stats.blend_steps);
    }

    #[test]
    fn per_pixel_sort_mode_ignores_kernel_selection() {
        let m = divergent_model();
        let camera = cam(64, 64);
        let a = Renderer::new(RenderOptions {
            sort_mode: SortMode::PerPixel,
            raster_kernel: RasterKernel::Scalar,
            ..RenderOptions::default()
        })
        .render(&m, &camera);
        let b = Renderer::new(RenderOptions {
            sort_mode: SortMode::PerPixel,
            raster_kernel: RasterKernel::Simd4,
            ..RenderOptions::default()
        })
        .render(&m, &camera);
        assert_eq!(a.image, b.image);
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
            assert_eq!(out.stats.profile.raster, in_core.stats.profile.raster);
            let mut stats = out.stats.clone();
            stats.profile = in_core.stats.profile.clone();
            assert_eq!(stats, in_core.stats);
        }
    }

    #[test]
    fn auto_kernel_is_resolved_at_construction() {
        let r = Renderer::new(RenderOptions::default());
        assert_ne!(r.options().raster_kernel, RasterKernel::Auto);
        let shared = Renderer::with_chunk_cache(RenderOptions::default(), r.chunk_cache().clone());
        assert_eq!(shared.options().raster_kernel, r.options().raster_kernel);
    }
}
