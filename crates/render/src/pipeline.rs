//! The staged frame pipeline: **Project → Bin → Merge → Raster →
//! Composite**.
//!
//! `ARCHITECTURE.md` at the repository root is the canonical home of the
//! pipeline/determinism contract; this module doc restates the parts it
//! implements.
//!
//! # Stage graph
//!
//! Every frame flows through five named stages, mirroring the tile pipeline
//! of the paper's §2.1 (Projection → Sorting → Rasterization) with a Merge
//! step that lays out the raster work units between sorting and
//! rasterization and an explicit composite step for work-unit assembly:
//!
//! ```text
//!   GaussianModel ──▶ [Project] ──▶ Vec<ProjectedSplat>
//!                                     │      (sharded over point ranges)
//!                                     ▼
//!                                  [Bin]     counting-sort CSR tile bins,
//!                                     │      lists in index order (sharded)
//!                                     ▼
//!                                  [Merge]   raster work units: one per
//!                                     │      tile row
//!                                     ▼
//!                                  [Raster]  per-work-unit ordering (as deep
//!                                     │      as pixels read) and compositing
//!                                     │      (serial or `threads`-way parallel)
//!                                     ▼
//!                                  [Composite] unit merge → Image + winners
//! ```
//!
//! The Merge stage emits the raster work units: one [`SuperTile`] per tile
//! row. It stays a stage of its own so every frame profile — and the
//! benchmark's `render.merge.*` metrics — keeps the five-stage sequence. The paper's §4.3 occupancy-driven merge
//! plan is not a schedule here: it is a pure function of the per-tile
//! counts ([`merge_low_occupancy`](crate::merge_low_occupancy)), reported by
//! [`RenderStats::unit_intersections`](crate::RenderStats::unit_intersections).
//!
//! # Parallelism and the determinism contract
//!
//! Three of the five stages parallelize across the persistent worker pool
//! when [`RenderOptions::threads`](crate::RenderOptions) is not `1`
//! (Merge lists the tile rows, Composite is a cheap serial merge):
//!
//! * **Project** shards the model's point range into contiguous chunks;
//!   chunk outputs concatenate in chunk order, so splat order stays model
//!   order.
//! * **Bin** shards CSR pass 1 (counting) over contiguous splat ranges and
//!   merges the per-worker count arrays before the prefix sum; the pass-2
//!   scatter re-walks the same ranges with per-worker cursor bases into
//!   disjoint per-tile slot ranges (shard-ordered, so segments still fill
//!   in ascending splat index). Bin does not sort.
//! * **Raster** distributes the Merge stage's tile rows over workers; each
//!   unit result lands in its own slot and units are assembled in row
//!   order. A worker puts each tile list in depth order only as deep as
//!   the tile's pixels read it, in blocks selected from packed
//!   `depth_key << 32 | index` keys; the keys are unique, so every ordered
//!   prefix is exactly the start of the full depth sort.
//!
//! The contract, enforced by `tests/determinism.rs`: for every thread
//! count (including auto), a frame's image, winner buffer and
//! [`FrameProfile`] work counters are **bit-identical** to the
//! `threads = 1` serial reference, on plain, filtered and foveated renders.
//! Only wall times may differ between runs: a pixel is always composited
//! against *its own tile's* CSR list in front-to-back order, so which
//! worker runs which row cannot change it.
//!
//! Inside a work unit, every pixel runs the one scalar compositing kernel
//! (`raster.rs`) over its quality level's tile list — a front-to-back walk
//! that stops once transmittance falls below `t_min` — and a blend-band
//! pixel also over the next level's, lerping the two. Bin builds one
//! [`TileBins`] per level; a frame whose [`View`](crate::View) has no
//! [`PixelLevels`] map has one level.
//!
//! Bin, Merge, Raster and Composite are plain functions in this module,
//! and Project is [`project_model_offset_into`](crate::project_model_offset_into)
//! over the whole model or one chunk at a time. Each runs from
//! [`FrameInFlight::run_stage`](crate::FrameInFlight::run_stage), which
//! times it and records one [`StageSample`] — wall time plus a
//! stage-specific work counter — into the [`FrameProfile`] returned inside
//! [`RenderStats`](crate::RenderStats). The counters are the paper's
//! workload quantities, measured where they are produced:
//!
//! | Stage     | work counter                                      |
//! |-----------|---------------------------------------------------|
//! | Project   | splats surviving culling (`points_projected`)     |
//! | Bin       | tile-ellipse intersections (CSR index lengths)    |
//! | Merge     | raster work units emitted (one per tile row)      |
//! | Raster    | compositing steps executed (after early-stop)     |
//! | Composite | pixels written to the output image                |
//!
//! Raster also counts, in [`FrameProfile::raster`], the list entries it
//! ordered and gathered and the entries it never had to order; the two sum
//! to Bin's counter.
//!
//! # How `AccelWorkload` is derived from `RenderStats`
//!
//! The accelerator simulator (`ms-accel`) consumes exactly what the
//! renderer measured — there is no independent re-derivation:
//!
//! * per-tile intersection counts come straight from the CSR offset
//!   deltas ([`TileBins::intersection_counts`](crate::TileBins)), carried
//!   in `RenderStats::tile_intersections`;
//! * per-tile pixel counts come from the tile grid clipped to the image
//!   ([`TileGridDims::tile_pixel_count`](crate::TileGridDims)), so edge
//!   tiles are not padded to `tile_size²`;
//! * projection work is the Project stage's counter; compositing work is
//!   the Raster stage's counter.
//!
//! By construction, a frame's simulated workload and its measured software
//! workload are the same numbers.

use crate::binning::{SuperTile, TileBins};
use crate::frame::PixelLevels;
use crate::image::Image;
use crate::options::RenderOptions;
use crate::projection::ProjectedSplat;
use crate::raster::{rasterize_unit, TileOrder, UnitResult};
use crate::stats::{RasterWork, TileGridDims};
use ms_scene::{CacheStats, Camera};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The five pipeline stages, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StageKind {
    /// Cull + project Gaussians to screen-space splats.
    Project,
    /// Build the CSR tile bins: count and scatter each splat into the tiles
    /// it overlaps, lists in ascending splat index. This is the
    /// duplication half of the paper's Sorting stage; Raster orders each
    /// list only as deep as its pixels read.
    Bin,
    /// Lay out the raster work units, one per tile row. Kept as a stage so
    /// every profile carries the same five-stage sequence.
    Merge,
    /// Per-work-unit alpha compositing (the paper's Rasterization stage).
    Raster,
    /// Merge rasterized work units into the output image.
    Composite,
}

impl StageKind {
    /// Human-readable stage name.
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Project => "project",
            StageKind::Bin => "bin",
            StageKind::Merge => "merge",
            StageKind::Raster => "raster",
            StageKind::Composite => "composite",
        }
    }
}

/// One stage execution: wall time plus the stage's work counter.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StageSample {
    /// Which stage ran.
    pub kind: StageKind,
    /// Wall-clock time the stage took.
    pub wall: Duration,
    /// Stage-specific work counter (see the module table).
    pub items: u64,
}

/// Per-frame execution profile: one [`StageSample`] per executed stage, in
/// execution order.
///
/// Frames over pre-projected splats
/// ([`SceneRef::Projected`](crate::SceneRef::Projected)) carry no `Project`
/// sample — the profile records what actually ran.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FrameProfile {
    /// Samples in execution order.
    pub samples: Vec<StageSample>,
    /// What Raster ordered: list entries ordered and gathered, and entries
    /// it never had to order (see [`RasterWork`]). Excluded from profile
    /// equality.
    pub raster: RasterWork,
    /// Peak bytes of source-model data resident at once: the largest
    /// chunk's [`storage_bytes`](ms_scene::GaussianModel::storage_bytes) on
    /// the chunked path, `0` on the in-core path (the model is the caller's,
    /// not the frame's). Deterministic per configuration; excluded from
    /// profile equality like wall times.
    #[serde(default)]
    pub chunk_bytes_peak: u64,
    /// Peak bytes of splats projected in one step: the largest single
    /// chunk's projection on the chunked path (bounded by the chunk size —
    /// the memory claim the chunked pipeline exists for), or the whole
    /// visible splat vector on the in-core path. The final visible splat
    /// set the rasterizer consumes is counted separately by neither — it is
    /// the frame's working set, identical on both paths.
    /// Deterministic per configuration; excluded from profile equality.
    #[serde(default)]
    pub projected_bytes_peak: u64,
    /// Chunk-cache traffic this frame generated: hits, misses, evictions
    /// and the cache's resident-bytes high-water mark as observed during
    /// the frame (see [`ms_scene::ChunkCache`]). All zeros on the in-core
    /// path, which never touches the cache. Excluded from profile equality
    /// like the byte peaks and wall times: the cache changes *where* chunk
    /// bytes come from, never what the frame computes, and hit/miss splits
    /// legitimately differ across cache budgets and shared-cache session
    /// interleavings that must compare equal.
    #[serde(default)]
    pub cache: CacheStats,
}

/// Equality compares the *semantic* part of the profile — stage kinds and
/// work counters — and deliberately ignores wall times, which differ
/// between otherwise identical runs. This keeps `RenderStats: PartialEq`
/// meaningful for determinism tests.
impl PartialEq for FrameProfile {
    fn eq(&self, other: &Self) -> bool {
        self.samples.len() == other.samples.len()
            && self
                .samples
                .iter()
                .zip(&other.samples)
                .all(|(a, b)| a.kind == b.kind && a.items == b.items)
    }
}

impl FrameProfile {
    /// Total wall time over `kind` samples.
    pub fn wall(&self, kind: StageKind) -> Duration {
        self.samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.wall)
            .sum()
    }

    /// Total work counter over `kind` samples.
    pub fn items(&self, kind: StageKind) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.items)
            .sum()
    }

    /// Total wall time across all stages.
    pub fn total_wall(&self) -> Duration {
        self.samples.iter().map(|s| s.wall).sum()
    }
}

// ---------------------------------------------------------------------------
// Stage bodies. `FrameInFlight::run_stage` calls each once per frame, timing
// it and recording its work counter as the frame's `StageSample`.
// ---------------------------------------------------------------------------

/// Bin: each level's splats → its CSR tile bins, listing the
/// level only on tiles where some pixel of `map` renders it or blends
/// toward it (without a map, level 0 on every tile). `recycle` holds CSR
/// `(offsets, indices)` storage from a [`FrameArena`](crate::FrameArena);
/// it is rebuilt from scratch, so only its capacity matters.
///
/// The CSR counting pass and the scatter run on `threads` workers
/// (per-worker count arrays merge before the prefix sum; the scatter
/// writes disjoint, shard-ordered slot ranges), so the bins are
/// bit-identical for every thread count.
pub(crate) fn bin<'a>(
    levels: impl ExactSizeIterator<Item = &'a [ProjectedSplat]>,
    grid: TileGridDims,
    map: Option<&PixelLevels>,
    threads: usize,
    recycle: &mut Vec<(Vec<u32>, Vec<u32>)>,
) -> Vec<TileBins> {
    let mut active = vec![vec![false; grid.tile_count()]; levels.len()];
    active[0].fill(map.is_none());
    let pixels = map.iter().flat_map(|map| map.level.iter().zip(&map.blend));
    for (i, (&l, &w)) in pixels.enumerate() {
        let (x, y, l) = (i as u32 % grid.width, i as u32 / grid.width, l as usize);
        let tile = ((y / grid.tile_size) * grid.tiles_x + x / grid.tile_size) as usize;
        active[l][tile] = true;
        if w > 0.0 && l + 1 < active.len() {
            active[l + 1][tile] = true;
        }
    }
    levels
        .zip(active)
        .map(|(splats, active)| {
            let recycle = recycle.pop().unwrap_or_default();
            TileBins::build_into(splats, grid, &active, threads, recycle)
        })
        .collect()
}

/// Merge: the tile grid → the raster work units, one [`SuperTile`] per tile
/// row.
///
/// It stays a stage, timed and counted like the others, because frame
/// profiles and the benchmark's `render.merge.*` metrics read it. The
/// paper's §4.3 occupancy plan is reported from the per-tile counts instead
/// (see [`RenderStats::unit_intersections`](crate::RenderStats::unit_intersections)).
pub(crate) fn merge(grid: TileGridDims) -> Vec<SuperTile> {
    (0..grid.tiles_y)
        .map(|ty| SuperTile {
            tx0: 0,
            ty0: ty,
            tx1: grid.tiles_x,
            ty1: ty + 1,
        })
        .collect()
}

/// Raster: each level's splats and tile bins + work units → per-work-unit
/// pixel rectangles.
///
/// Work units are independent, so they rasterize on `threads` workers
/// pulling unit indices from a shared counter. Unit results land in
/// per-unit slots, making the output — and therefore the composited image —
/// bit-identical for every thread count; one worker runs inline without
/// spawning. Every pixel composites against its own tile's CSR list, so
/// which worker runs which unit cannot change a pixel. Each worker (and
/// the inline path) owns one [`TileOrder`] per level for its whole run:
/// the key and record scratch of one tile's list.
pub(crate) fn raster(
    levels: &[(&[ProjectedSplat], &TileBins)],
    units: &[SuperTile],
    options: &RenderOptions,
    camera: &Camera,
    map: Option<&PixelLevels>,
) -> Vec<UnitResult> {
    let threads = options.resolved_threads().min(units.len().max(1));
    let tile_orders = || -> Vec<TileOrder> {
        (levels.iter())
            .map(|&(splats, _)| TileOrder::new(splats))
            .collect()
    };
    if threads <= 1 || units.len() <= 1 {
        let mut lists = tile_orders();
        return units
            .iter()
            .map(|unit| rasterize_unit(options, levels, camera, unit, map, &mut lists))
            .collect();
    }

    // Workers pop unit indices from a shared counter; each unit result
    // lands in its own slot, so assembly order — and the composited image —
    // is independent of scheduling.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<UnitResult>>> = (0..units.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    rayon::scope(|s| {
        for _ in 0..threads {
            let next = &next;
            let slots = &slots;
            let mut lists = tile_orders();
            s.spawn(move |_| loop {
                let u = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if u >= units.len() {
                    break;
                }
                let unit = rasterize_unit(options, levels, camera, &units[u], map, &mut lists);
                *slots[u].lock().expect("unit slot poisoned") = Some(unit);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(u, cell)| {
            cell.into_inner()
                .expect("unit slot poisoned")
                .unwrap_or_else(|| panic!("work unit {u} missing"))
        })
        .collect()
}

/// Output of the Composite stage.
pub(crate) struct Composited {
    /// The assembled image.
    pub image: Image,
    /// Winning point index per pixel (`u32::MAX` = none); empty unless
    /// winner tracking (`track_point_stats`) is on.
    pub winners: Vec<u32>,
    /// Compositing steps across work units, per level.
    pub blend_steps: Vec<u64>,
}

/// Composite: ordered work units → final image (+ per-pixel winners when
/// `options.track_point_stats` is on). Pixels no unit covers keep
/// `options.background`.
pub(crate) fn composite(
    units: Vec<UnitResult>,
    camera: &Camera,
    options: &RenderOptions,
) -> Composited {
    let track_winners = options.track_point_stats;
    let mut image = Image::filled(camera.width, camera.height, options.background);
    let mut winners: Vec<u32> = if track_winners {
        vec![u32::MAX; (camera.width * camera.height) as usize]
    } else {
        Vec::new()
    };
    let mut blend_steps = Vec::new();
    for unit in units {
        blend_steps.resize(unit.blend_steps.len(), 0);
        for (sum, steps) in blend_steps.iter_mut().zip(&unit.blend_steps) {
            *sum += steps;
        }
        let rows = unit.pixels.len() as u32 / unit.width.max(1);
        for dy in 0..rows {
            let y = unit.y_start + dy;
            for dx in 0..unit.width {
                let x = unit.x_start + dx;
                let idx = (dy * unit.width + dx) as usize;
                image.set_pixel(x, y, unit.pixels[idx]);
                if track_winners {
                    winners[(y * camera.width + x) as usize] = unit.winners[idx];
                }
            }
        }
    }
    Composited {
        image,
        winners,
        blend_steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_equality_ignores_wall_time() {
        let a = FrameProfile {
            samples: vec![StageSample {
                kind: StageKind::Bin,
                wall: Duration::from_millis(5),
                items: 42,
            }],
            ..FrameProfile::default()
        };
        let b = FrameProfile {
            samples: vec![StageSample {
                kind: StageKind::Bin,
                wall: Duration::from_millis(900),
                items: 42,
            }],
            ..FrameProfile::default()
        };
        assert_eq!(a, b);
        let c = FrameProfile {
            samples: vec![StageSample {
                kind: StageKind::Bin,
                wall: Duration::ZERO,
                items: 43,
            }],
            ..FrameProfile::default()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn stage_names_are_stable() {
        assert_eq!(StageKind::Project.name(), "project");
        assert_eq!(StageKind::Bin.name(), "bin");
        assert_eq!(StageKind::Merge.name(), "merge");
        assert_eq!(StageKind::Raster.name(), "raster");
        assert_eq!(StageKind::Composite.name(), "composite");
    }
}
