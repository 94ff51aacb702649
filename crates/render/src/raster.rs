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
//! tile's list, clamping each alpha at [`ALPHA_MAX`], skipping
//! contributions below `alpha_min` and stopping as soon as transmittance
//! falls under [`T_MIN`]. It evaluates alphas [`ALPHA_GROUP`] at a time,
//! with [`gaussian_falloff`] (libm's `expf`, bit for bit, in branch-free
//! `f64` arithmetic) for the Gaussian, so a group's falloffs compile to
//! packed SIMD and the walk makes no call. Under heavy overdraw the early
//! stop ends most pixels after the first few splats of a long list, so Bin
//! leaves the lists unsorted and a [`TileOrder`] orders each one only as
//! deep as the tile's pixels read it: the first block of [`FIRST_BLOCK`]
//! entries is selected, sorted and gathered into contiguous
//! [`RasterSplat`] records when a pixel first reads the list, and a pixel
//! that walks past the gathered records takes the next, doubled, block.
//! [`rasterize_unit`] walks the tile row by row and calls the kernel once
//! per pixel on the pixel's quality level, and once more on the next level
//! for a blend-band pixel; a pixel depends only on its own tile's lists,
//! so the worker that runs it cannot change a bit of the frame.

use crate::binning::{depth_keys, SuperTile, TileBins};
use crate::frame::{FrameArena, FrameInFlight, PixelLevels, SceneRef, View};
use crate::options::{RenderOptions, ALPHA_MAX, TILE_SIZE, T_MIN};
use crate::pipeline::{Composited, FrameProfile};
use crate::projection::ProjectedSplat;
use crate::stats::{RasterWork, RenderStats};
use ms_math::{gaussian_falloff, Conic2, Vec2, Vec3};
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
    /// Per-level statistics of a frame whose view carries a level map:
    /// grid, tile intersections, splat count, `points_submitted` and blend
    /// steps of each level. Their profiles are empty, since the levels
    /// share the frame's stages. Empty for frames without a map.
    pub level_stats: Vec<RenderStats>,
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
    pub pixels: Vec<Vec3>,
    /// Winning splat *point index* per pixel (`u32::MAX` = none).
    pub winners: Vec<u32>,
    /// Compositing steps executed, per level.
    pub blend_steps: Vec<u64>,
    /// List entries ordered and gathered, and entries never ordered.
    pub work: RasterWork,
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
    /// plain `&Camera` or a [`View`] carrying a per-pixel level map. In-core scenes
    /// start at the Project stage; pre-projected splats start at Bin;
    /// chunked sources start at the streamed Project, where each
    /// [`run_stage`] call projects one *chunk* into the frame's splat
    /// vector until the frame joins the common pipeline at Bin — so a frame
    /// server interleaves chunked frames exactly like in-core ones, at
    /// chunk granularity. In-core and chunked scenes have one level.
    ///
    /// # Panics
    ///
    /// Panics when the camera has a zero-pixel image or exceeds `u32` pixel
    /// addressing, when the level map does not have one entry per pixel,
    /// names a level the scene lacks or has a blend weight that is NaN or
    /// outside `[0, 1]`, or when a pre-projected scene has no level or a
    /// splat whose `point_index` or tile rectangle is out of range or whose
    /// depth, conic or opacity is not finite (see [`SceneRef::Projected`]).
    /// The level-map checks run in one scan, and so do the splat checks.
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
/// statistics the same way. `levels[l]` is level `l`'s splats and
/// `bins[l]` its tile bins; the frame's counters sum over levels, and
/// `foveated` frames (those with a level map) also report each level's.
pub(crate) fn assemble_output(
    options: &RenderOptions,
    model_len: usize,
    levels: &[&[ProjectedSplat]],
    bins: &[TileBins],
    composited: Composited,
    profile: FrameProfile,
    foveated: bool,
) -> RenderOutput {
    let Composited {
        image,
        winners,
        blend_steps,
    } = composited;
    let level_stats: Vec<RenderStats> = (levels.iter().zip(bins).zip(blend_steps))
        .map(|((splats, bins), blend_steps)| RenderStats {
            grid: bins.grid(),
            tile_intersections: bins.intersection_counts(),
            points_projected: splats.len(),
            points_submitted: model_len,
            total_intersections: bins.total_intersections(),
            blend_steps,
            point_tiles_used: Vec::new(),
            point_pixels_dominated: Vec::new(),
            profile: FrameProfile::default(),
        })
        .collect();
    let mut tile_intersections = vec![0u32; bins[0].grid().tile_count()];
    for level in &level_stats {
        for (sum, count) in tile_intersections.iter_mut().zip(&level.tile_intersections) {
            *sum += count;
        }
    }
    let (point_tiles_used, point_pixels_dominated) = if options.track_point_stats {
        // Derived from the CSR bins so unlisted tiles do not count:
        // every CSR index entry is one (tile, splat) intersection.
        let mut tiles_used = vec![0u32; model_len];
        for (splats, bins) in levels.iter().zip(bins) {
            for &si in bins.indices() {
                tiles_used[splats[si as usize].point_index as usize] += 1;
            }
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
            grid: bins[0].grid(),
            tile_intersections,
            points_projected: levels.iter().map(|splats| splats.len()).sum(),
            points_submitted: model_len,
            total_intersections: level_stats.iter().map(|l| l.total_intersections).sum(),
            blend_steps: level_stats.iter().map(|l| l.blend_steps).sum(),
            point_tiles_used,
            point_pixels_dominated,
            profile,
        },
        winners,
        level_stats: if foveated { level_stats } else { Vec::new() },
    }
}

impl Default for Renderer {
    fn default() -> Self {
        Self::new(RenderOptions::default())
    }
}

/// Check that `camera` can be rendered. A zero-width or zero-height image
/// would reach the composite stage's `pixels / width` row arithmetic as a
/// divide-by-zero far from the actual mistake. Images beyond `u32` pixel
/// addressing are rejected too — per-pixel indices (`y * width + x`) are
/// computed in `u32` throughout the hot path, so admitting a larger image
/// would wrap silently instead of failing loudly.
///
/// Every frame runs this check when it begins (and panics with the
/// message); `ms_serve` runs it once at session admission.
///
/// # Errors
///
/// Returns the reason the camera is rejected.
pub fn check_camera(camera: &Camera) -> Result<(), String> {
    let (width, height) = (camera.width, camera.height);
    if width == 0 || height == 0 {
        return Err(format!(
            "degenerate camera: {width}x{height} image has no pixels"
        ));
    }
    if width as u64 * height as u64 > u32::MAX as u64 {
        return Err(format!(
            "camera {width}x{height} exceeds u32 pixel addressing"
        ));
    }
    Ok(())
}

/// The 40 bytes of a [`ProjectedSplat`] the compositing kernel reads.
/// [`TileOrder`] gathers a tile's ordered list prefix into a contiguous run
/// of these once, so the pixel loop streams them instead of following CSR
/// indices across the frame's whole splat vector once per pixel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RasterSplat {
    center: Vec2,
    conic: Conic2,
    opacity: f32,
    color: Vec3,
    point_index: u32,
}

impl From<&ProjectedSplat> for RasterSplat {
    #[inline]
    fn from(s: &ProjectedSplat) -> Self {
        Self {
            center: s.center,
            conic: s.conic,
            opacity: s.opacity,
            color: s.color,
            point_index: s.point_index,
        }
    }
}

/// Entries [`TileOrder`] orders and gathers the first time a pixel reads a
/// list; each later block doubles.
const FIRST_BLOCK: usize = 512;

/// Alphas [`composite_pixel`] evaluates in a loop of their own before
/// blending them.
const ALPHA_GROUP: usize = 8;

/// One level's tile list, put in front-to-back order only as deep as the
/// tile's pixels read it.
///
/// Bin leaves each list in ascending splat index. The first time a pixel
/// reads the list, its packed depth keys are built; whenever a pixel's walk
/// reaches the end of the records gathered so far, [`TileOrder::grow`]
/// selects the next block of smallest keys from the unordered remainder,
/// sorts it and gathers it. Keys are unique, so every ordered prefix is
/// exactly the start of the full sort and pixels cannot tell the
/// difference. A Raster worker owns one per level for its whole run and
/// resets it per tile, so nothing is allocated per tile.
pub(crate) struct TileOrder<'a> {
    /// The level's splats.
    splats: &'a [ProjectedSplat],
    /// The current tile's list, in ascending index.
    seg: &'a [u32],
    /// Packed depth keys of `seg`, built on the first read;
    /// `keys[..records.len()]` are the smallest, in order.
    keys: Vec<u64>,
    /// The records of `keys[..records.len()]`, front to back.
    records: Vec<RasterSplat>,
    /// Size of the next block to order; 0 until the keys are built.
    block: usize,
}

impl<'a> TileOrder<'a> {
    pub(crate) fn new(splats: &'a [ProjectedSplat]) -> Self {
        Self {
            splats,
            seg: &[],
            keys: Vec::new(),
            records: Vec::new(),
            block: 0,
        }
    }

    /// Start on a new tile list `seg`, keeping the buffers' capacity.
    fn reset(&mut self, seg: &'a [u32]) {
        self.seg = seg;
        self.keys.clear();
        self.records.clear();
        self.block = 0;
    }

    /// Order and gather the next block of the list; `false` when every
    /// entry is already gathered.
    fn grow(&mut self) -> bool {
        if self.block == 0 {
            depth_keys(self.splats, self.seg, &mut self.keys);
            self.block = FIRST_BLOCK;
        }
        let rest = &mut self.keys[self.records.len()..];
        if rest.is_empty() {
            return false;
        }
        let take = self.block.min(rest.len());
        if take < rest.len() {
            rest.select_nth_unstable(take);
        }
        let next = &mut rest[..take];
        next.sort_unstable();
        let splats = self.splats;
        self.records.extend(
            next.iter()
                .map(|&key| RasterSplat::from(&splats[key as u32 as usize])),
        );
        self.block *= 2;
        true
    }
}

/// Rasterize one work unit (a rectangle of tiles, clipped to the image).
///
/// Each pixel composites against **its own tile's** CSR list, front to
/// back, of its `map` level (level 0 without a map), and of the next level too
/// when [`PixelLevels`] says it blends — the unit rectangle only decides
/// which pixels this call owns — so which worker rasterizes which unit
/// cannot change pixels, winners or blend-step counts. This is the
/// invariant behind the thread-count determinism axis.
///
/// Per tile, `lists[l]` (one [`TileOrder`] per level, owned by the calling
/// worker) is reset to level `l`'s list and orders it as deep as the
/// tile's pixels read, pixel by pixel in a fixed order, so the counts in
/// the returned [`RasterWork`] do not depend on the worker either.
pub(crate) fn rasterize_unit<'a>(
    options: &RenderOptions,
    levels: &[(&[ProjectedSplat], &'a TileBins)],
    camera: &Camera,
    unit: &SuperTile,
    map: Option<&PixelLevels>,
    lists: &mut [TileOrder<'a>],
) -> UnitResult {
    // Clip in u64: at extreme dimensions `tx1 * TILE_SIZE` can exceed u32 even
    // though the clipped result fits.
    let x_start = unit.tx0 * TILE_SIZE;
    let y_start = unit.ty0 * TILE_SIZE;
    let x_end = (unit.tx1 as u64 * TILE_SIZE as u64).min(camera.width as u64) as u32;
    let y_end = (unit.ty1 as u64 * TILE_SIZE as u64).min(camera.height as u64) as u32;
    let (unit_w, unit_h) = (x_end - x_start, y_end - y_start);
    let mut pixels = vec![Vec3::zero(); (unit_w * unit_h) as usize];
    let track = options.track_point_stats;
    // The winner buffer is only consumed by the Composite merge when point
    // statistics are on; without them it used to be a dead image-sized
    // allocation per work unit.
    let mut winners = if track {
        vec![u32::MAX; (unit_w * unit_h) as usize]
    } else {
        Vec::new()
    };
    let mut blend_steps = vec![0u64; levels.len()];
    let mut work = RasterWork::default();
    for ty in unit.ty0..unit.ty1 {
        for tx in unit.tx0..unit.tx1 {
            let tx_start = tx * TILE_SIZE;
            let tx_end = (tx_start as u64 + TILE_SIZE as u64).min(camera.width as u64) as u32;
            let ty_start = ty * TILE_SIZE;
            let ty_end = (ty_start as u64 + TILE_SIZE as u64).min(camera.height as u64) as u32;
            for (&(_, bins), list) in levels.iter().zip(lists.iter_mut()) {
                list.reset(bins.tile(tx, ty));
            }
            for y in ty_start..ty_end {
                for x in tx_start..tx_end {
                    let i = (y * camera.width + x) as usize;
                    let (l, w) = map.map_or((0, 0.0), |m| (m.level[i] as usize, m.blend[i]));
                    let px = Vec2::new(x as f32 + 0.5, y as f32 + 0.5);
                    let mut shade = |l: usize| {
                        let list = &mut lists[l];
                        if list.seg.is_empty() {
                            return (Vec3::zero(), u32::MAX);
                        }
                        let (color, winner, steps) = composite_pixel(options.alpha_min, list, px);
                        blend_steps[l] += steps;
                        (color, winner)
                    };
                    let (mut color, winner) = shade(l);
                    if w > 0.0 && l + 1 < levels.len() {
                        color = color.lerp(shade(l + 1).0, w);
                    }
                    let out_idx = ((y - y_start) * unit_w + (x - x_start)) as usize;
                    pixels[out_idx] = color;
                    if track {
                        winners[out_idx] = winner;
                    }
                }
            }
            for list in lists.iter() {
                let staged = list.records.len() as u64;
                work.splats_staged += staged;
                work.splats_culled += list.seg.len() as u64 - staged;
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

/// The alphas of up to [`ALPHA_GROUP`] consecutive records at pixel centre
/// `px`: `(opacity · conic.gaussian_weight(px − center)).min(ALPHA_MAX)`
/// for each, bit for bit, with the falloffs evaluated 8 lanes at once.
///
/// The powers come first, then one straight-line loop of
/// [`gaussian_falloff`] over all [`ALPHA_GROUP`] lanes, which compiles to
/// packed SIMD with no libm call; a short tail group runs its unused lanes
/// on power 0, and the caller reads only `..group.len()`.
#[inline]
fn group_alphas(group: &[RasterSplat], px: Vec2) -> [f32; ALPHA_GROUP] {
    let mut powers = [0.0f32; ALPHA_GROUP];
    for (power, s) in powers.iter_mut().zip(group) {
        *power = s.conic.gaussian_power(px - s.center);
    }
    let mut alphas = [0.0f32; ALPHA_GROUP];
    for (alpha, &power) in alphas.iter_mut().zip(&powers) {
        *alpha = gaussian_falloff(power);
    }
    for (alpha, s) in alphas.iter_mut().zip(group) {
        *alpha = (s.opacity * *alpha).min(ALPHA_MAX);
    }
    alphas
}

/// Composite one pixel front-to-back over its tile's list, walking the
/// gathered records and growing the ordered prefix whenever the walk
/// reaches its end. Returns (color, dominating point index or MAX, blend
/// steps).
///
/// The walk takes the records [`ALPHA_GROUP`] at a time: [`group_alphas`]
/// evaluates a group's alphas with no accumulator live, then the serial
/// blend runs over them. The loop calls no libm function.
#[inline]
fn composite_pixel(alpha_min: f32, list: &mut TileOrder<'_>, px: Vec2) -> (Vec3, u32, u64) {
    let mut color = Vec3::zero();
    let mut t = 1.0f32;
    let mut best_w = 0.0f32;
    let mut best = u32::MAX;
    let mut steps = 0u64;
    let mut read = 0;
    'walk: while read < list.records.len() || list.grow() {
        for group in list.records[read..].chunks(ALPHA_GROUP) {
            let alphas = group_alphas(group, px);
            // `min` never returns NaN here (`ALPHA_MAX` is finite), so `>=`
            // admits exactly what a `< alpha_min` skip would.
            for (s, &alpha) in group.iter().zip(&alphas) {
                if alpha >= alpha_min {
                    steps += 1;
                    let w = t * alpha;
                    color += s.color * w;
                    if w > best_w {
                        best_w = w;
                        best = s.point_index;
                    }
                    t *= 1.0 - alpha;
                    if t < T_MIN {
                        break 'walk;
                    }
                }
            }
        }
        read = list.records.len();
    }
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
    fn hot_loop_records_keep_their_size() {
        // Bin reads `ProjectedSplat`s and Raster streams gathered records:
        // a field added to either grows what the hot loops load.
        assert_eq!(std::mem::size_of::<ProjectedSplat>(), 60);
        assert_eq!(std::mem::size_of::<RasterSplat>(), 40);
    }

    #[test]
    fn growing_the_order_block_by_block_equals_one_full_sort() {
        // Tie-heavy depths: ±0.0, ±inf, ±NaN and repeats, so the order
        // rests on the index tie-break.
        const DEPTHS: [f32; 9] = [
            -0.0,
            0.0,
            1.0,
            2.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            7.0,
        ];
        let splats: Vec<ProjectedSplat> = (0..10_000u32)
            .map(|i| ProjectedSplat {
                point_index: i,
                center: Vec2::zero(),
                conic: Conic2 {
                    a: 1.0,
                    b: 0.0,
                    c: 1.0,
                },
                depth: DEPTHS[(i as usize * 7 + i as usize / 13) % DEPTHS.len()],
                color: Vec3::zero(),
                opacity: 0.5,
                tiles: ms_math::TileRect {
                    x0: 0,
                    y0: 0,
                    x1: 0,
                    y1: 0,
                },
            })
            .collect();
        // Every other splat, so list positions and indices differ.
        let seg: Vec<u32> = (0..10_000).step_by(2).collect();
        for len in [0usize, 1, 511, 512, 513, 5000] {
            let list = &seg[..len];
            let mut full = Vec::new();
            depth_keys(&splats, list, &mut full);
            full.sort_unstable();
            let mut order = TileOrder::new(&splats);
            order.reset(list);
            let mut gathered = Vec::new();
            let mut block = FIRST_BLOCK;
            while order.grow() {
                let expect = (gathered.len() + block).min(len);
                assert_eq!(order.records.len(), expect, "len {len}: block size");
                gathered = order.records.iter().map(|r| r.point_index).collect();
                let prefix: Vec<u32> = full[..expect].iter().map(|&k| k as u32).collect();
                assert_eq!(gathered, prefix, "len {len}: ordered prefix");
                block *= 2;
            }
            assert_eq!(gathered.len(), len, "len {len}: whole list gathered");
            assert_eq!(order.keys, full, "len {len}: keys end fully sorted");
        }
    }

    #[test]
    fn group_alphas_equal_scalar_alphas() {
        // List lengths 1..=19 cover every tail-group size; offsets spread
        // the alphas across `alpha_min`, with an indefinite conic (power
        // > 0), a centred splat (α clamp) and a far one (underflow) mixed in.
        let alpha_min = RenderOptions::default().alpha_min;
        let px = Vec2::new(8.5, 8.5);
        let mut seed = 0x9e37_79b9u32;
        let mut next = move || {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (seed >> 8) as f32 / (1u32 << 24) as f32
        };
        let (mut below, mut above) = (0, 0);
        for len in 1..=19usize {
            let records: Vec<RasterSplat> = (0..len)
                .map(|i| {
                    let (dx, dy) = match i % 7 {
                        0 => (0.0, 0.0),
                        6 => (40.0, 0.0),
                        _ => ((next() - 0.5) * 12.0, (next() - 0.5) * 12.0),
                    };
                    let b = if i % 5 == 4 { 2.0 } else { 0.1 };
                    RasterSplat {
                        center: px + Vec2::new(dx, dy),
                        conic: Conic2 { a: 0.4, b, c: 0.3 },
                        opacity: 0.2 + 0.8 * next(),
                        color: Vec3::zero(),
                        point_index: i as u32,
                    }
                })
                .collect();
            for group in records.chunks(ALPHA_GROUP) {
                let alphas = group_alphas(group, px);
                for (s, alpha) in group.iter().zip(alphas) {
                    let scalar =
                        (s.opacity * s.conic.gaussian_weight(px - s.center)).min(ALPHA_MAX);
                    assert_eq!(alpha.to_bits(), scalar.to_bits(), "list {len}, {s:?}");
                    if alpha < alpha_min {
                        below += 1;
                    } else {
                        above += 1;
                    }
                }
            }
        }
        assert!(below > 20 && above > 20, "{below} below, {above} above");
    }

    #[test]
    fn empty_model_renders_background() {
        // Frames composite over black.
        let m = GaussianModel::new(0);
        let out = Renderer::default().render(&m, &cam(64, 64));
        assert!(out.image.pixels().iter().all(|&p| p == Vec3::zero()));
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
            levels: &[&splats],
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

    /// `camera` with a per-pixel level map of `len` level-`level` pixels.
    fn leveled(camera: Camera, len: usize, level: u8) -> View {
        View {
            camera,
            levels: Some(PixelLevels {
                level: vec![level; len],
                blend: vec![0.0; len],
            }),
        }
    }

    #[test]
    #[should_panic(expected = "degenerate camera")]
    fn zero_height_camera_rejected_at_entry() {
        let m = GaussianModel::new(0);
        let camera = Camera {
            height: 0,
            ..cam(64, 64)
        };
        let _ = Renderer::default().render(&m, leveled(camera, 0, 0));
    }

    #[test]
    #[should_panic(expected = "exceeds u32 pixel addressing")]
    fn oversized_camera_rejected_at_entry() {
        // Regression: at 65536×65536 a per-pixel size check computed in
        // u32 wraps width * height to 0 and lets an empty map slip
        // through toward a multi-terabyte render. Such images are
        // rejected outright at entry — per-pixel indices are u32
        // throughout the hot path and would wrap silently.
        let m = GaussianModel::new(0);
        let camera = Camera {
            width: 65536,
            height: 65536,
            ..cam(64, 64)
        };
        let _ = Renderer::default().render(&m, leveled(camera, 0, 0));
    }

    #[test]
    #[should_panic(expected = "pixel level map size mismatch")]
    fn wrong_sized_level_map_rejected() {
        let m = GaussianModel::new(0);
        let _ = Renderer::default().render(&m, leveled(cam(64, 64), 100, 0));
    }

    #[test]
    #[should_panic(expected = "pixel level 1 out of range for a 1-level scene")]
    fn level_beyond_the_scenes_levels_rejected() {
        let m = GaussianModel::new(0);
        let _ = Renderer::default().render(&m, leveled(cam(64, 64), 64 * 64, 1));
    }

    /// A one-level map over a 64×64 camera whose last pixel has weight `w`.
    fn blended_last_pixel(w: f32) -> View {
        let mut view = leveled(cam(64, 64), 64 * 64, 0);
        *view.levels.as_mut().unwrap().blend.last_mut().unwrap() = w;
        view
    }

    #[test]
    #[should_panic(expected = "pixel blend weight NaN outside [0, 1]")]
    fn nan_blend_weight_rejected() {
        // Raster's `w > 0.0` test used to read a NaN weight as 0.
        let _ = Renderer::default().render(&GaussianModel::new(0), blended_last_pixel(f32::NAN));
    }

    #[test]
    #[should_panic(expected = "pixel blend weight 1.5 outside [0, 1]")]
    fn blend_weight_above_one_rejected() {
        // The lerp would extrapolate past both levels' colours.
        let _ = Renderer::default().render(&GaussianModel::new(0), blended_last_pixel(1.5));
    }

    #[test]
    #[should_panic(expected = "projected scene has no level")]
    fn projected_scene_without_levels_rejected() {
        let scene = SceneRef::Projected {
            levels: &[],
            points: 0,
        };
        let _ = Renderer::default().render(scene, &cam(64, 64));
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
        // alpha capped at 0.99 → 1% of the black background shows through.
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
            levels: &[&splats],
            points: m.len(),
        };
        let non_project = |o: &RenderOutput| -> Vec<(StageKind, u64)> {
            let samples = o.stats.profile.samples.iter();
            let samples = samples.filter(|s| s.kind != StageKind::Project);
            samples.map(|s| (s.kind, s.items)).collect()
        };
        // A one-level map renders like no map, blend weights and all.
        let mut map = leveled(camera, 64 * 48, 0);
        map.levels.as_mut().unwrap().blend[100..900].fill(0.5);
        for view in [View::from(&camera), map] {
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
            assert_eq!(out.image, renderer.render(&m, &camera).image);
            assert_eq!(out.winners, in_core.winners);
            assert_eq!(out.level_stats, in_core.level_stats);
            assert!(!out.winners.is_empty());
            assert_eq!(non_project(&out), non_project(&in_core));
            let mut stats = out.stats.clone();
            stats.profile = in_core.stats.profile.clone();
            assert_eq!(stats, in_core.stats);
        }
    }
}
