//! Analytical mobile-GPU cost model (Jetson AGX Xavier's Volta GPU).
//!
//! The paper measures FPS on the Xavier's mobile Volta GPU [paper §6]. We
//! cannot run CUDA here, so FPS is *modeled*: the renderer measures the
//! exact workload a frame generates (points projected, tile-ellipse
//! intersections, compositing steps, pixels blended) and this crate converts
//! the workload into an estimated frame latency using per-operation costs
//! derived from the Xavier's published capabilities (512 CUDA cores at
//! ~1.37 GHz ≈ 1.4 FP32 TFLOP/s, ~137 GB/s LPDDR4x).
//!
//! The model is anchored to the paper's own finding (Fig. 4) that latency
//! tracks tile-ellipse intersections: the dominant terms are proportional
//! to intersections (sorting + duplication traffic) and to per-pixel
//! compositing work. Constants are calibrated so a full-scale dense 3DGS
//! trace (≈6 M points, ≈30 M intersections at 1080p-class resolution) lands
//! in the paper's "generally below 10 FPS" range; *relative* speedups are
//! the meaningful output.
//!
//! # Example
//!
//! ```
//! use ms_gpu::{FrameWorkload, GpuCostModel};
//!
//! let w = FrameWorkload {
//!     points_submitted: 6_000_000,
//!     points_projected: 3_000_000,
//!     total_intersections: 30_000_000,
//!     blend_steps: 400_000_000,
//!     pixels: 1920 * 1080,
//!     blended_pixels: 0,
//!     per_pixel_sort: false,
//! };
//! let fps = GpuCostModel::xavier().fps(&w);
//! assert!(fps > 1.0 && fps < 15.0, "dense full-scale model ≈ single-digit FPS, got {fps}");
//! ```

#![deny(missing_docs)]

use ms_render::RenderStats;
use serde::{Deserialize, Serialize};

/// The workload of one rendered frame, as counted by the renderer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameWorkload {
    /// Points submitted to projection (model size; MMFR pays per level).
    pub points_submitted: usize,
    /// Points surviving culling.
    pub points_projected: usize,
    /// Tile-ellipse intersections (duplication + sorting traffic).
    pub total_intersections: u64,
    /// Per-pixel compositing steps actually executed.
    pub blend_steps: u64,
    /// Pixels shaded.
    pub pixels: u64,
    /// Pixels rendered twice and interpolated (FR blending overhead).
    pub blended_pixels: u64,
    /// StopThePop-style per-pixel re-sorting.
    pub per_pixel_sort: bool,
}

impl FrameWorkload {
    /// Extract the workload from render statistics. Every term is what the
    /// renderer's staged pipeline measured; `pixels` is the exact image
    /// area (`TileGridDims::pixel_count`), not the tile grid padded to
    /// `TILE_SIZE²`.
    pub fn from_stats(stats: &RenderStats, per_pixel_sort: bool) -> Self {
        Self {
            points_submitted: stats.points_submitted,
            points_projected: stats.points_projected,
            total_intersections: stats.total_intersections,
            blend_steps: stats.blend_steps,
            pixels: stats.grid.pixel_count(),
            blended_pixels: 0,
            per_pixel_sort,
        }
    }

    /// Add foveation blending overhead.
    pub fn with_blended_pixels(mut self, blended: u64) -> Self {
        self.blended_pixels = blended;
        self
    }

    /// Scale the workload to a full-size configuration
    /// (granularity-preserving). Experiments run on reduced scenes
    /// (`point_factor` = 1/scene-scale) and reduced resolutions
    /// (`pixel_factor` = full pixels / rendered pixels):
    ///
    /// * point-proportional terms scale by `point_factor`;
    /// * intersection and compositing terms scale by `pixel_factor` only:
    ///   a full-scale reconstruction has `point_factor`× more but
    ///   correspondingly *smaller* splats, so per-tile overdraw — and with
    ///   it total tile-ellipse intersections per tile — is
    ///   granularity-invariant, while the tile count grows with resolution;
    /// * pixel terms scale by `pixel_factor`.
    pub fn scaled(&self, point_factor: f64, pixel_factor: f64) -> Self {
        let pf = point_factor.max(0.0);
        let xf = pixel_factor.max(0.0);
        Self {
            points_submitted: (self.points_submitted as f64 * pf) as usize,
            points_projected: (self.points_projected as f64 * pf) as usize,
            total_intersections: (self.total_intersections as f64 * xf) as u64,
            blend_steps: (self.blend_steps as f64 * xf) as u64,
            pixels: (self.pixels as f64 * xf) as u64,
            blended_pixels: (self.blended_pixels as f64 * xf) as u64,
            per_pixel_sort: self.per_pixel_sort,
        }
    }
}

/// Per-operation GPU costs (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuCostModel {
    /// Fixed per-frame overhead (kernel launches, sync).
    pub c_fixed: f64,
    /// Per submitted point (fetch + cull test).
    pub c_point_submit: f64,
    /// Per projected point (covariance projection, SH eval).
    pub c_point_project: f64,
    /// Per tile-ellipse intersection (key generation + radix sort + list
    /// traffic).
    pub c_intersection: f64,
    /// Per executed compositing step (Gaussian eval + alpha blend).
    pub c_blend_step: f64,
    /// Per output pixel (framebuffer traffic).
    pub c_pixel: f64,
    /// Per FR-blended pixel (read two colors + interpolate).
    pub c_blend_pixel: f64,
    /// Multiplier on compositing when per-pixel sorting is on
    /// (StopThePop's gather + re-sort overhead).
    pub per_pixel_sort_factor: f64,
}

impl GpuCostModel {
    /// Constants calibrated for the Xavier's mobile Volta GPU.
    pub fn xavier() -> Self {
        Self {
            c_fixed: 1.0e-3,
            c_point_submit: 2.0e-9,
            c_point_project: 12.0e-9,
            c_intersection: 6.0e-9,
            c_blend_step: 5.0e-10,
            c_pixel: 1.0e-9,
            c_blend_pixel: 4.0e-9,
            per_pixel_sort_factor: 1.9,
        }
    }

    /// Estimated frame latency in seconds.
    pub fn frame_latency(&self, w: &FrameWorkload) -> f64 {
        let raster_factor = if w.per_pixel_sort {
            self.per_pixel_sort_factor
        } else {
            1.0
        };
        self.c_fixed
            + self.c_point_submit * w.points_submitted as f64
            + self.c_point_project * w.points_projected as f64
            + self.c_intersection * w.total_intersections as f64
            + self.c_blend_step * w.blend_steps as f64 * raster_factor
            + self.c_pixel * w.pixels as f64
            + self.c_blend_pixel * w.blended_pixels as f64
    }

    /// Estimated frames per second.
    pub fn fps(&self, w: &FrameWorkload) -> f64 {
        1.0 / self.frame_latency(w)
    }

    /// Estimated energy per frame in joules, using the Xavier's ~20 W GPU
    /// power envelope under full rasterization load. Used as the GPU side of
    /// the §7.3 energy comparison.
    pub fn frame_energy(&self, w: &FrameWorkload) -> f64 {
        const GPU_POWER_W: f64 = 20.0;
        self.frame_latency(w) * GPU_POWER_W
    }
}

impl Default for GpuCostModel {
    fn default() -> Self {
        Self::xavier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dense_workload() -> FrameWorkload {
        FrameWorkload {
            points_submitted: 6_000_000,
            points_projected: 3_000_000,
            total_intersections: 30_000_000,
            blend_steps: 400_000_000,
            pixels: 1920 * 1080,
            blended_pixels: 0,
            per_pixel_sort: false,
        }
    }

    #[test]
    fn dense_model_is_below_real_time() {
        let fps = GpuCostModel::xavier().fps(&dense_workload());
        assert!(
            fps < 15.0,
            "paper: dense PBNR well below real-time, got {fps}"
        );
        assert!(fps > 1.0);
    }

    #[test]
    fn order_of_magnitude_fewer_intersections_near_order_speedup() {
        let model = GpuCostModel::xavier();
        let dense = dense_workload();
        let pruned = FrameWorkload {
            points_submitted: 900_000,
            points_projected: 450_000,
            total_intersections: 3_000_000,
            blend_steps: 40_000_000,
            ..dense
        };
        let speedup = model.fps(&pruned) / model.fps(&dense);
        assert!(speedup > 5.0 && speedup < 12.0, "speedup {speedup}");
    }

    #[test]
    fn per_pixel_sort_slows_rasterization() {
        let model = GpuCostModel::xavier();
        let mut w = dense_workload();
        let base = model.fps(&w);
        w.per_pixel_sort = true;
        assert!(model.fps(&w) < base);
    }

    #[test]
    fn blended_pixels_cost_extra() {
        let model = GpuCostModel::xavier();
        let w = dense_workload();
        let w_blend = w.with_blended_pixels(500_000);
        assert!(model.frame_latency(&w_blend) > model.frame_latency(&w));
    }

    #[test]
    fn scaling_composes() {
        let w = dense_workload();
        let s = w.scaled(2.0, 4.0);
        assert_eq!(s.points_submitted, 12_000_000);
        // Intersections are granularity-invariant per tile: they scale with
        // resolution (tile count), not with point count.
        assert_eq!(s.total_intersections, 120_000_000);
        assert_eq!(s.pixels, 4 * 1920 * 1080);
        let identity = w.scaled(1.0, 1.0);
        assert_eq!(identity, w);
    }

    #[test]
    fn energy_tracks_latency() {
        let model = GpuCostModel::xavier();
        let w = dense_workload();
        assert!((model.frame_energy(&w) - model.frame_latency(&w) * 20.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn latency_is_monotone_in_workload(
            pts in 0usize..10_000_000,
            isect in 0u64..100_000_000,
            blend in 0u64..1_000_000_000,
        ) {
            let model = GpuCostModel::xavier();
            let base = FrameWorkload {
                points_submitted: pts,
                points_projected: pts / 2,
                total_intersections: isect,
                blend_steps: blend,
                pixels: 1_000_000,
                blended_pixels: 0,
                per_pixel_sort: false,
            };
            let bigger = FrameWorkload {
                total_intersections: isect + 1_000,
                blend_steps: blend + 1_000,
                ..base
            };
            prop_assert!(model.frame_latency(&bigger) > model.frame_latency(&base));
        }
    }
}
