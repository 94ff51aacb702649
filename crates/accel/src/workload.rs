//! Frame workloads consumed by the accelerator simulator.

use ms_render::RenderStats;
use serde::{Deserialize, Serialize};

/// Work of one pixel tile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileWork {
    /// Tile-ellipse intersections binned to this tile.
    pub intersections: u32,
    /// Pixels in the tile.
    pub pixels: u32,
    /// Foveation quality level the tile renders at (0 when non-foveated).
    pub level: u8,
}

/// The per-frame workload descriptor: tiles in raster (row-major) order —
/// the order the pipeline consumes them, which is what tile merging sees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccelWorkload {
    /// Tiles in raster order.
    pub tiles: Vec<TileWork>,
    /// Renderer-computed §4.3 merge schedule: per-tile work-unit id,
    /// parallel to `tiles`. Empty when the software pipeline rendered
    /// without occupancy merging — the simulator then falls back to its
    /// own β-threshold TMU model. When present, a TM-enabled configuration
    /// groups its pipeline slots by these ids, so the simulated work units
    /// are the *same* super-tiles the renderer scheduled, by construction.
    pub tile_unit: Vec<u32>,
    /// Points surviving culling (projection work).
    pub points_projected: usize,
    /// Total compositing steps of the frame (distributed over tiles in
    /// proportion to their intersections when a per-tile split is needed).
    pub blend_steps: u64,
    /// Pixels blended across quality levels (FR blend unit work).
    pub blended_pixels: u64,
    /// Model bytes streamed from DRAM for this frame.
    pub model_bytes: u64,
}

impl AccelWorkload {
    /// Build from render statistics — the *only* workload source.
    ///
    /// Every field is copied from what the renderer's staged pipeline
    /// measured, never re-derived: per-tile intersections are the CSR
    /// offset deltas carried in `stats.tile_intersections`, per-tile pixel
    /// counts come from the tile grid clipped to the image
    /// (`TileGridDims::tile_pixel_count`, so edge tiles are not padded to
    /// `tile_size²`), projection work is the Project stage's counter and
    /// compositing work the Raster stage's. The simulator and the software
    /// renderer therefore agree on the frame workload by construction.
    ///
    /// `tile_level` optionally assigns a foveation level per tile
    /// (from `ms-fov`'s `FovRenderOutput::tile_level`); `model_bytes` is
    /// the streamed model size (`GaussianModel::storage_bytes`). When the
    /// stats carry a merge schedule (`RenderStats::tile_unit`, recorded
    /// when `RenderOptions::tile_merging` is on), it is copied through so
    /// the simulated work units match the renderer's super-tiles.
    ///
    /// # Panics
    ///
    /// Panics when `tile_level` is provided with a mismatched length.
    pub fn from_stats(
        stats: &RenderStats,
        tile_level: Option<&[u8]>,
        blended_pixels: u64,
        model_bytes: u64,
    ) -> Self {
        if let Some(levels) = tile_level {
            assert_eq!(
                levels.len(),
                stats.tile_intersections.len(),
                "tile level map mismatch"
            );
        }
        let g = stats.grid;
        let tiles = stats
            .tile_intersections
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let (tx, ty) = g.tile_coords(i);
                TileWork {
                    intersections: n,
                    pixels: g.tile_pixel_count(tx, ty),
                    level: tile_level.map(|l| l[i]).unwrap_or(0),
                }
            })
            .collect();
        assert!(
            stats.tile_unit.is_empty() || stats.tile_unit.len() == stats.tile_intersections.len(),
            "merge schedule length mismatch"
        );
        Self {
            tiles,
            tile_unit: stats.tile_unit.clone(),
            points_projected: stats.points_projected,
            blend_steps: stats.blend_steps,
            blended_pixels,
            model_bytes,
        }
    }

    /// Scale the workload to a full-size configuration
    /// (granularity-preserving, mirroring `ms_gpu::FrameWorkload::scaled`):
    /// the tile stream is replicated `pixel_factor`× (a higher-resolution
    /// frame has proportionally more tiles with the same per-tile
    /// overdraw), point- and model-proportional terms scale by
    /// `point_factor`.
    pub fn scaled(&self, point_factor: f64, pixel_factor: f64) -> Self {
        let xf = pixel_factor.max(0.0);
        let full = xf.floor() as usize;
        let frac = xf - full as f64;
        let mut tiles = Vec::with_capacity(((self.tiles.len() as f64) * xf) as usize + 1);
        let mut tile_unit = Vec::with_capacity(if self.tile_unit.is_empty() {
            0
        } else {
            tiles.capacity()
        });
        // Each replica's unit ids shift by the unit count so replicas stay
        // distinct work units (a larger frame has more super-tiles, not
        // bigger ones).
        let unit_stride = self.tile_unit.iter().map(|&u| u + 1).max().unwrap_or(0);
        let mut replicate = |n: usize, copy: usize| {
            tiles.extend_from_slice(&self.tiles[..n]);
            tile_unit.extend(
                self.tile_unit[..if self.tile_unit.is_empty() { 0 } else { n }]
                    .iter()
                    .map(|&u| u + copy as u32 * unit_stride),
            );
        };
        for copy in 0..full {
            replicate(self.tiles.len(), copy);
        }
        let partial = (((self.tiles.len() as f64) * frac) as usize).min(self.tiles.len());
        replicate(partial, full);
        Self {
            tiles,
            tile_unit,
            points_projected: (self.points_projected as f64 * point_factor) as usize,
            blend_steps: (self.blend_steps as f64 * xf) as u64,
            blended_pixels: (self.blended_pixels as f64 * xf) as u64,
            model_bytes: (self.model_bytes as f64 * point_factor) as u64,
        }
    }

    /// Total tile-ellipse intersections.
    pub fn total_intersections(&self) -> u64 {
        self.tiles.iter().map(|t| t.intersections as u64).sum()
    }

    /// Number of tiles.
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_render::{FrameProfile, TileGridDims};

    fn stats() -> RenderStats {
        RenderStats {
            grid: TileGridDims::for_image(32, 32, 16),
            tile_intersections: vec![10, 0, 500, 3],
            points_projected: 100,
            points_submitted: 120,
            total_intersections: 513,
            blend_steps: 4_000,
            point_tiles_used: Vec::new(),
            point_pixels_dominated: Vec::new(),
            tile_unit: Vec::new(),
            profile: FrameProfile::default(),
        }
    }

    #[test]
    fn from_stats_copies_tiles() {
        let w = AccelWorkload::from_stats(&stats(), None, 12, 999);
        assert_eq!(w.tile_count(), 4);
        assert_eq!(w.total_intersections(), 513);
        assert_eq!(w.tiles[2].intersections, 500);
        assert_eq!(w.tiles[0].pixels, 256);
        assert_eq!(w.blended_pixels, 12);
        assert_eq!(w.model_bytes, 999);
    }

    #[test]
    fn edge_tiles_use_clipped_pixel_counts() {
        let mut s = stats();
        s.grid = TileGridDims::for_image(24, 20, 16); // 2×2 grid, clipped edges
        let w = AccelWorkload::from_stats(&s, None, 0, 0);
        assert_eq!(w.tiles[0].pixels, 16 * 16);
        assert_eq!(w.tiles[1].pixels, 8 * 16);
        assert_eq!(w.tiles[2].pixels, 16 * 4);
        assert_eq!(w.tiles[3].pixels, 8 * 4);
        let total: u64 = w.tiles.iter().map(|t| t.pixels as u64).sum();
        assert_eq!(
            total,
            24 * 20,
            "clipped tile pixels must tile the image exactly"
        );
    }

    #[test]
    fn from_stats_copies_merge_schedule() {
        let mut s = stats();
        s.tile_unit = vec![0, 0, 1, 2];
        let w = AccelWorkload::from_stats(&s, None, 0, 0);
        assert_eq!(w.tile_unit, vec![0, 0, 1, 2]);
        // No schedule recorded → no schedule carried.
        let w = AccelWorkload::from_stats(&stats(), None, 0, 0);
        assert!(w.tile_unit.is_empty());
    }

    #[test]
    fn scaled_offsets_replicated_schedule_ids() {
        let mut s = stats();
        s.tile_unit = vec![0, 0, 1, 2];
        let w = AccelWorkload::from_stats(&s, None, 0, 0);
        let scaled = w.scaled(1.0, 2.5);
        assert_eq!(scaled.tiles.len(), 10);
        assert_eq!(scaled.tile_unit.len(), 10);
        // Second replica's ids shift by the unit count (3); the partial
        // third replica keeps the pattern.
        assert_eq!(scaled.tile_unit, vec![0, 0, 1, 2, 3, 3, 4, 5, 6, 6]);
    }

    #[test]
    fn scaled_replicates_tiles() {
        let w = AccelWorkload::from_stats(&stats(), None, 12, 1_000);
        let s = w.scaled(10.0, 2.5);
        assert_eq!(s.tiles.len(), 10); // 4 × 2.5
        assert_eq!(s.points_projected, 1_000);
        assert_eq!(s.model_bytes, 10_000);
        assert_eq!(s.blended_pixels, 30);
        let id = w.scaled(1.0, 1.0);
        assert_eq!(id, w);
    }

    #[test]
    fn levels_attach_when_provided() {
        let levels = vec![0u8, 1, 2, 3];
        let w = AccelWorkload::from_stats(&stats(), Some(&levels), 0, 0);
        assert_eq!(w.tiles[3].level, 3);
    }

    #[test]
    #[should_panic]
    fn mismatched_levels_panic() {
        let levels = vec![0u8; 3];
        let _ = AccelWorkload::from_stats(&stats(), Some(&levels), 0, 0);
    }
}
