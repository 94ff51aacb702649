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
    /// `TILE_SIZE²`), projection work is the Project stage's counter and
    /// compositing work the Raster stage's. The simulator and the software
    /// renderer therefore agree on the frame workload by construction.
    ///
    /// `tile_level` optionally assigns a foveation level per tile
    /// (from `ms-fov`'s `FovRenderOutput::tile_level`); `model_bytes` is
    /// the streamed model size (`GaussianModel::storage_bytes`). How tiles
    /// group into pipeline slots is the simulator's own TMU model
    /// (`AccelConfig::tile_merging`).
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
        Self {
            tiles,
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
        for _ in 0..full {
            tiles.extend_from_slice(&self.tiles);
        }
        let partial = (((self.tiles.len() as f64) * frac) as usize).min(self.tiles.len());
        tiles.extend_from_slice(&self.tiles[..partial]);
        Self {
            tiles,
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
    use ms_render::{FrameProfile, TileGridDims, TILE_SIZE};

    fn stats() -> RenderStats {
        RenderStats {
            grid: TileGridDims::for_image(2 * TILE_SIZE, 2 * TILE_SIZE),
            tile_intersections: vec![10, 0, 500, 3],
            points_projected: 100,
            points_submitted: 120,
            total_intersections: 513,
            blend_steps: 4_000,
            point_tiles_used: Vec::new(),
            point_pixels_dominated: Vec::new(),
            profile: FrameProfile::default(),
        }
    }

    #[test]
    fn from_stats_copies_tiles() {
        let w = AccelWorkload::from_stats(&stats(), None, 12, 999);
        assert_eq!(w.tile_count(), 4);
        assert_eq!(w.total_intersections(), 513);
        assert_eq!(w.tiles[2].intersections, 500);
        assert_eq!(w.tiles[0].pixels, TILE_SIZE * TILE_SIZE);
        assert_eq!(w.blended_pixels, 12);
        assert_eq!(w.model_bytes, 999);
    }

    #[test]
    fn edge_tiles_use_clipped_pixel_counts() {
        let mut s = stats();
        // 2×2 grid, clipped edges: the last column is 8 px wide, the last
        // row 4 px tall.
        s.grid = TileGridDims::for_image(TILE_SIZE + 8, TILE_SIZE + 4);
        let w = AccelWorkload::from_stats(&s, None, 0, 0);
        assert_eq!(w.tiles[0].pixels, TILE_SIZE * TILE_SIZE);
        assert_eq!(w.tiles[1].pixels, 8 * TILE_SIZE);
        assert_eq!(w.tiles[2].pixels, TILE_SIZE * 4);
        assert_eq!(w.tiles[3].pixels, 8 * 4);
        let total: u64 = w.tiles.iter().map(|t| t.pixels as u64).sum();
        assert_eq!(
            total,
            24 * 20,
            "clipped tile pixels must tile the image exactly"
        );
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
