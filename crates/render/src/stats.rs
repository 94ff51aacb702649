//! Render statistics: the measurement instrument behind the paper's
//! workload analysis.

use crate::binning::{merge_low_occupancy, MERGE_MAX_EXTENT, MERGE_THRESHOLD};
use crate::pipeline::FrameProfile;
use serde::{Deserialize, Serialize};

/// Tile-grid dimensions of a render pass, including the exact image extent
/// the grid covers.
///
/// Carrying `width`/`height` lets every per-tile consumer — the composite
/// stage, the GPU cost model, the accelerator simulator — use the *clipped*
/// pixel count of edge tiles instead of padding to `tile_size²`, so the
/// renderer and the models agree on pixel work by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileGridDims {
    /// Tiles per row.
    pub tiles_x: u32,
    /// Tiles per column.
    pub tiles_y: u32,
    /// Tile size in pixels.
    pub tile_size: u32,
    /// Image width in pixels (`<= tiles_x * tile_size`).
    pub width: u32,
    /// Image height in pixels (`<= tiles_y * tile_size`).
    pub height: u32,
}

impl TileGridDims {
    /// The grid covering a `width × height` image with square tiles.
    pub fn for_image(width: u32, height: u32, tile_size: u32) -> Self {
        assert!(tile_size > 0, "tile_size must be positive");
        Self {
            tiles_x: width.div_ceil(tile_size),
            tiles_y: height.div_ceil(tile_size),
            tile_size,
            width,
            height,
        }
    }

    /// Total tile count. Computed in `u64`: at extreme image dimensions
    /// `tiles_x * tiles_y` overflows `u32` before the cast.
    pub fn tile_count(&self) -> usize {
        usize::try_from(self.tiles_x as u64 * self.tiles_y as u64)
            .expect("tile count overflows usize")
    }

    /// Total image pixels (exact, not padded to the tile grid).
    pub fn pixel_count(&self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Pixels actually covered by tile `(tx, ty)` — edge tiles are clipped
    /// to the image.
    ///
    /// # Panics
    ///
    /// Panics when the tile coordinate is out of the grid.
    pub fn tile_pixel_count(&self, tx: u32, ty: u32) -> u32 {
        assert!(tx < self.tiles_x && ty < self.tiles_y, "tile out of grid");
        let w = ((tx + 1) * self.tile_size).min(self.width) - tx * self.tile_size;
        let h = ((ty + 1) * self.tile_size).min(self.height) - ty * self.tile_size;
        w * h
    }

    /// Tile coordinate of row-major tile index `i`.
    pub fn tile_coords(&self, i: usize) -> (u32, u32) {
        debug_assert!(i < self.tile_count());
        // Divide in usize: `i as u32` truncates once the grid has more
        // than `u32::MAX` tiles.
        (
            (i % self.tiles_x as usize) as u32,
            (i / self.tiles_x as usize) as u32,
        )
    }
}

/// What the Raster stage ordered, carried in
/// [`FrameProfile::raster`](crate::FrameProfile) and summed over tiles and
/// quality levels.
///
/// Bin leaves each tile list in splat-index order; Raster puts a list in
/// depth order only as deep as the tile's pixels read it, in blocks.
/// `splats_staged` counts the list entries Raster ordered and gathered into
/// compositing records, `splats_culled` the entries it never had to order,
/// so the two sum to the frame's tile-ellipse intersections. Like the work
/// counters they depend only on the frame, not on the thread count.
/// `row_iterations` and `row_iteration_bound` are always 0; the
/// `framebench` benchmark harness still reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RasterWork {
    /// List entries Raster ordered and gathered.
    pub splats_staged: u64,
    /// List entries Raster never had to order.
    pub splats_culled: u64,
    /// Always 0.
    pub row_iterations: u64,
    /// Always 0.
    pub row_iteration_bound: u64,
}

/// Statistics gathered during one render pass.
///
/// * `tile_intersections` is the paper's per-tile workload quantity (the
///   Fig. 9 heatmap/boxplots and the Fig. 4 "# of Intersect." axis).
/// * `point_tiles_used` is `Compᵢ`/`Uᵢ` of Eqns. 3 and 5.
/// * `point_pixels_dominated` is `Valᵢ` of Eqn. 3 ("number of pixels
///   dominated by that point", dominance = largest `Tᵢαᵢ`).
/// * `profile` records wall time and work per pipeline stage (see
///   [`crate::pipeline`]); its equality ignores wall times, so comparing
///   two `RenderStats` compares workloads, not timings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RenderStats {
    /// Tile-grid geometry.
    pub grid: TileGridDims,
    /// Number of splats intersecting each tile (row-major).
    pub tile_intersections: Vec<u32>,
    /// Points that survived culling.
    pub points_projected: usize,
    /// Points submitted (before culling/filtering).
    pub points_submitted: usize,
    /// Total tile-ellipse intersections (== sum of `tile_intersections`).
    pub total_intersections: u64,
    /// Total per-pixel compositing steps actually executed (after
    /// early-stop) — proportional to rasterization math.
    pub blend_steps: u64,
    /// Per-point count of tiles used this frame (`Comp`); empty unless
    /// `track_point_stats` was set.
    pub point_tiles_used: Vec<u32>,
    /// Per-point count of pixels dominated this frame (`Val`); empty unless
    /// `track_point_stats` was set.
    pub point_pixels_dominated: Vec<u32>,
    /// Per-stage wall time and work counters for this frame.
    pub profile: FrameProfile,
}

impl RenderStats {
    /// Average intersections per tile.
    pub fn mean_intersections_per_tile(&self) -> f32 {
        if self.tile_intersections.is_empty() {
            return 0.0;
        }
        self.total_intersections as f32 / self.tile_intersections.len() as f32
    }

    /// Maximum intersections over tiles (the pipeline-critical tile).
    pub fn max_intersections_per_tile(&self) -> u32 {
        self.tile_intersections.iter().copied().max().unwrap_or(0)
    }

    /// Workload-imbalance ratio: max/mean intersections per tile. 1.0 is
    /// perfectly balanced; the paper reports 3+ orders of magnitude spread.
    pub fn imbalance_ratio(&self) -> f32 {
        let mean = self.mean_intersections_per_tile();
        if mean <= 0.0 {
            return 1.0;
        }
        self.max_intersections_per_tile() as f32 / mean
    }

    /// Per-tile intersection counts as `f32` (for stats helpers).
    pub fn tile_intersections_f32(&self) -> Vec<f32> {
        self.tile_intersections.iter().map(|&x| x as f32).collect()
    }

    /// Per-unit intersection counts of the paper's §4.3 occupancy merge
    /// plan ([`merge_low_occupancy`] over `tile_intersections` with
    /// [`MERGE_THRESHOLD`] and [`MERGE_MAX_EXTENT`]), in plan order. An
    /// analysis of the frame's workload: the renderer rasterizes tile rows
    /// whatever the plan says.
    pub fn unit_intersections(&self) -> Vec<u32> {
        let counts = &self.tile_intersections;
        let tiles_x = self.grid.tiles_x as usize;
        let tile = |(tx, ty): (u32, u32)| counts[ty as usize * tiles_x + tx as usize];
        merge_low_occupancy(self.grid, counts, MERGE_THRESHOLD, MERGE_MAX_EXTENT)
            .iter()
            .map(|unit| unit.tiles().map(tile).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(tiles: Vec<u32>) -> RenderStats {
        let total = tiles.iter().map(|&t| t as u64).sum();
        RenderStats {
            grid: TileGridDims::for_image(tiles.len() as u32 * 16, 16, 16),
            total_intersections: total,
            tile_intersections: tiles,
            points_projected: 0,
            points_submitted: 0,
            blend_steps: 0,
            point_tiles_used: Vec::new(),
            point_pixels_dominated: Vec::new(),
            profile: FrameProfile::default(),
        }
    }

    #[test]
    fn means_and_max() {
        let s = stats(vec![0, 10, 20, 30]);
        assert!((s.mean_intersections_per_tile() - 15.0).abs() < 1e-6);
        assert_eq!(s.max_intersections_per_tile(), 30);
        assert!((s.imbalance_ratio() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn empty_stats_are_neutral() {
        let s = stats(vec![]);
        assert_eq!(s.mean_intersections_per_tile(), 0.0);
        assert_eq!(s.max_intersections_per_tile(), 0);
        assert_eq!(s.imbalance_ratio(), 1.0);
    }

    #[test]
    fn unit_counters_group_by_schedule() {
        // Mean 7.5, so tiles below 3.75 merge: the two empty tiles join one
        // unit, the two dense ones stay alone.
        let s = stats(vec![5, 0, 0, 25]);
        assert_eq!(s.unit_intersections(), vec![5, 0, 25]);
        // Mean 4: the four sparse tiles fill one 4-wide unit up to the mean.
        let s = stats(vec![1, 1, 1, 1, 0, 20]);
        assert_eq!(s.unit_intersections(), vec![4, 0, 20]);
        assert!(stats(vec![]).unit_intersections().is_empty());
    }

    #[test]
    fn grid_tile_count() {
        let g = TileGridDims::for_image(64, 48, 16);
        assert_eq!((g.tiles_x, g.tiles_y), (4, 3));
        assert_eq!(g.tile_count(), 12);
        assert_eq!(g.pixel_count(), 64 * 48);
    }

    #[test]
    fn edge_tiles_are_clipped() {
        // 100×70 with 16-px tiles: last column is 4 px wide, last row 6 px
        // tall.
        let g = TileGridDims::for_image(100, 70, 16);
        assert_eq!((g.tiles_x, g.tiles_y), (7, 5));
        assert_eq!(g.tile_pixel_count(0, 0), 256);
        assert_eq!(g.tile_pixel_count(6, 0), 4 * 16);
        assert_eq!(g.tile_pixel_count(0, 4), 16 * 6);
        assert_eq!(g.tile_pixel_count(6, 4), 4 * 6);
        // Clipped tile pixels sum to the exact image area.
        let sum: u64 = (0..g.tile_count())
            .map(|i| {
                let (tx, ty) = g.tile_coords(i);
                g.tile_pixel_count(tx, ty) as u64
            })
            .sum();
        assert_eq!(sum, g.pixel_count());
    }

    #[test]
    fn tile_count_survives_extreme_dims() {
        // Regression: `tiles_x * tiles_y` used to multiply in u32 and wrap.
        // 2^26 × 2^26 image with 16-px tiles → 2^22 × 2^22 tiles = 2^44,
        // far beyond u32::MAX.
        let g = TileGridDims::for_image(1 << 26, 1 << 26, 16);
        assert_eq!((g.tiles_x, g.tiles_y), (1 << 22, 1 << 22));
        assert_eq!(g.tile_count(), 1usize << 44);
        assert_eq!(g.pixel_count(), 1u64 << 52);
        // Coordinates of a tile index above u32::MAX round-trip.
        let i = (1usize << 40) + 12345;
        let (tx, ty) = g.tile_coords(i);
        assert_eq!(ty as usize * (1usize << 22) + tx as usize, i);
    }

    #[test]
    fn tile_coords_roundtrip() {
        let g = TileGridDims::for_image(100, 70, 16);
        for i in 0..g.tile_count() {
            let (tx, ty) = g.tile_coords(i);
            assert_eq!((ty * g.tiles_x + tx) as usize, i);
        }
    }
}
