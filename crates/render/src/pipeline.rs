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
//!                                  [Bin]     counting-sort CSR tile bins
//!                                     │      (sharded pass 1 + parallel sorts)
//!                                     ▼
//!                                  [Merge]   raster work units: one per
//!                                     │      tile row
//!                                     ▼
//!                                  [Raster]  per-work-unit compositing
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
//!   in model order), and the per-tile depth sorts run on disjoint
//!   segments.
//! * **Raster** distributes the Merge stage's tile rows over workers; each
//!   unit result lands in its own slot and units are assembled in row
//!   order.
//!
//! The contract, enforced by `tests/determinism.rs`: for every thread
//! count (including auto), a frame's image, winner buffer and
//! [`FrameProfile`] work counters are **bit-identical** to the
//! `threads = 1` serial reference, on plain, masked and filtered renders.
//! Only wall times may differ between runs: a pixel is always composited
//! against *its own tile's* depth-sorted CSR list, so which worker runs
//! which row cannot change it.
//!
//! Inside a work unit, every masked-in pixel runs the one scalar
//! compositing kernel (`raster.rs`): a front-to-back walk over its own
//! tile's list that stops once transmittance falls below `t_min`.
//!
//! Each stage is a plain function in this module, called once per frame by
//! [`FrameInFlight::run_stage`](crate::FrameInFlight::run_stage), which
//! times it and records one [`StageSample`] — wall time plus a
//! stage-specific work counter — into the [`FrameProfile`] returned inside
//! [`RenderStats`](crate::RenderStats). The counters are the paper's
//! workload quantities, measured where they are produced:
//!
//! | Stage     | work counter                                      |
//! |-----------|---------------------------------------------------|
//! | Project   | splats surviving culling (`points_projected`)     |
//! | Bin       | tile-ellipse intersections (CSR index length)     |
//! | Merge     | raster work units emitted (one per tile row)      |
//! | Raster    | compositing steps executed (after early-stop)     |
//! | Composite | pixels written to the output image                |
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
use crate::image::Image;
use crate::options::RenderOptions;
use crate::projection::{project_model_offset_into, ProjectedSplat};
use crate::raster::{rasterize_unit, Contrib, UnitResult};
use crate::stats::{RasterWork, TileGridDims};
use ms_scene::{CacheStats, Camera, GaussianModel};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The five pipeline stages, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StageKind {
    /// Cull + project Gaussians to screen-space splats.
    Project,
    /// Build depth-sorted CSR tile bins (the paper's Sorting stage).
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
    /// Raster staging counters; always zero (see [`RasterWork`]).
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

    /// Fold `other`'s samples into `self` (used by the foveated renderer to
    /// aggregate per-level passes into one frame profile).
    ///
    /// Merging is **by kind, first occurrence wins the slot**: each of
    /// `other`'s samples adds its wall time and work counter to the first
    /// existing sample of the same [`StageKind`]; kinds `self` has not seen
    /// yet are appended in `other`'s order. Absorbing therefore preserves
    /// `self`'s stage ordering (and execution order overall when both
    /// profiles ran the standard Project → Bin → Merge → Raster → Composite
    /// graph), but collapses repeated samples of one kind into a single
    /// aggregate — `samples` is no longer one entry per execution after a
    /// merge.
    pub fn absorb(&mut self, other: &FrameProfile) {
        for s in &other.samples {
            match self.samples.iter_mut().find(|m| m.kind == s.kind) {
                Some(m) => {
                    m.wall += s.wall;
                    m.items += s.items;
                }
                None => self.samples.push(*s),
            }
        }
        self.chunk_bytes_peak = self.chunk_bytes_peak.max(other.chunk_bytes_peak);
        self.projected_bytes_peak = self.projected_bytes_peak.max(other.projected_bytes_peak);
        self.cache.accumulate(&other.cache);
    }
}

// ---------------------------------------------------------------------------
// Stage bodies. `FrameInFlight::run_stage` calls each once per frame, timing
// it and recording its work counter as the frame's `StageSample`.
// ---------------------------------------------------------------------------

/// Project: model → screen-space splats, into the recycled `out` vector.
///
/// Points are sharded over contiguous ranges onto the worker pool when
/// `options.threads != 1`; shard outputs concatenate in range order, so
/// splat order stays model order for every thread count.
pub(crate) fn project(
    model: &GaussianModel,
    camera: &Camera,
    options: &RenderOptions,
    mut out: Vec<ProjectedSplat>,
) -> Vec<ProjectedSplat> {
    out.clear();
    project_model_offset_into(model, camera, options, 0, &mut out);
    out
}

/// Bin: splats → depth-sorted CSR tile bins, optionally restricted to tiles
/// with at least one active `mask` pixel. `recycle` is CSR `(offsets,
/// indices)` storage from a [`FrameArena`](crate::FrameArena); it is
/// rebuilt from scratch, so only its capacity matters.
///
/// The CSR counting pass and the per-tile depth sorts run on `threads`
/// workers (per-worker count arrays merge before the prefix sum; sort
/// segments are disjoint), so the bins are bit-identical for every thread
/// count.
pub(crate) fn bin(
    splats: &[ProjectedSplat],
    grid: TileGridDims,
    mask: Option<&[bool]>,
    threads: usize,
    recycle: (Vec<u32>, Vec<u32>),
) -> TileBins {
    let active = match mask {
        None => vec![true; grid.tile_count()],
        Some(mask) => (0..grid.tiles_y)
            .flat_map(|ty| (0..grid.tiles_x).map(move |tx| (tx, ty)))
            .map(|(tx, ty)| {
                let x0 = (tx * grid.tile_size) as usize;
                let x1 = ((tx + 1) * grid.tile_size).min(grid.width) as usize;
                let y1 = ((ty + 1) * grid.tile_size).min(grid.height);
                (ty * grid.tile_size..y1).any(|y| {
                    let row = &mask[(y * grid.width) as usize..][..x1];
                    row[x0..].contains(&true)
                })
            })
            .collect(),
    };
    TileBins::build_into(splats, grid, &active, threads, recycle)
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

/// Raster: tile bins + work units → per-work-unit pixel rectangles.
///
/// Work units are independent, so they rasterize on `threads` workers
/// pulling unit indices from a shared counter. Unit results land in
/// per-unit slots, making the output — and therefore the composited image —
/// bit-identical for every thread count; one worker runs inline without
/// spawning. Every pixel composites against its own tile's CSR list, so
/// which worker runs which unit cannot change a pixel.
///
/// `contribs` is the per-worker pool of per-pixel-sort gather buffers,
/// recycled through a [`FrameArena`](crate::FrameArena) and grown to one
/// buffer per worker on demand. Contents are overwritten per pixel, so
/// which worker gets which buffer cannot change a pixel either.
pub(crate) fn raster(
    splats: &[ProjectedSplat],
    bins: &TileBins,
    units: &[SuperTile],
    options: &RenderOptions,
    camera: &Camera,
    mask: Option<&[bool]>,
    contribs: &mut Vec<Vec<Contrib>>,
) -> Vec<UnitResult> {
    let threads = options.resolved_threads().min(units.len().max(1));
    if threads <= 1 || units.len() <= 1 {
        if contribs.is_empty() {
            contribs.push(Vec::new());
        }
        let contribs = &mut contribs[0];
        return units
            .iter()
            .map(|unit| rasterize_unit(options, splats, bins, camera, unit, mask, contribs))
            .collect();
    }

    // Workers pop unit indices from a shared counter; each unit result
    // lands in its own slot, so assembly order — and the composited image —
    // is independent of scheduling. Each worker owns one gather buffer from
    // the recycled pool for its whole run.
    if contribs.len() < threads {
        contribs.resize_with(threads, Vec::new);
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<UnitResult>>> = (0..units.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    rayon::scope(|s| {
        for contribs in contribs.iter_mut().take(threads) {
            let next = &next;
            let slots = &slots;
            s.spawn(move |_| loop {
                let u = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if u >= units.len() {
                    break;
                }
                let unit = rasterize_unit(options, splats, bins, camera, &units[u], mask, contribs);
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
    /// Total compositing steps across work units.
    pub blend_steps: u64,
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
    let mut blend_steps = 0u64;
    for unit in units {
        blend_steps += unit.blend_steps;
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
    fn absorb_merges_by_kind() {
        let mut a = FrameProfile {
            samples: vec![StageSample {
                kind: StageKind::Raster,
                wall: Duration::from_micros(10),
                items: 100,
            }],
            ..FrameProfile::default()
        };
        let b = FrameProfile {
            samples: vec![
                StageSample {
                    kind: StageKind::Raster,
                    wall: Duration::from_micros(5),
                    items: 50,
                },
                StageSample {
                    kind: StageKind::Project,
                    wall: Duration::from_micros(1),
                    items: 7,
                },
            ],
            ..FrameProfile::default()
        };
        a.absorb(&b);
        assert_eq!(a.items(StageKind::Raster), 150);
        assert_eq!(a.items(StageKind::Project), 7);
        assert_eq!(a.wall(StageKind::Raster), Duration::from_micros(15));
        assert_eq!(a.samples.len(), 2);
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
