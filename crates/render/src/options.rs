//! Renderer configuration.

use ms_math::Vec3;
use serde::{Deserialize, Serialize};

/// Options controlling a render pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RenderOptions {
    /// Square tile size in pixels (paper uses 16×16 for its workload
    /// heatmaps; 3DGS uses 16).
    pub tile_size: u32,
    /// Background color composited behind the splats.
    pub background: Vec3,
    /// Minimum per-splat alpha; contributions below this are skipped
    /// (1/255, the 3DGS convention).
    pub alpha_min: f32,
    /// Transmittance early-stop threshold: once accumulated transmittance
    /// falls below this the pixel is finished.
    pub t_min: f32,
    /// Upper clamp for a single splat's alpha (0.99 in 3DGS, avoids a fully
    /// opaque splat zeroing the gradient path).
    pub alpha_max: f32,
    /// Gaussian extent multiplier in standard deviations (3σ).
    pub extent_sigma: f32,
    /// Screen-space covariance dilation in px² (3DGS low-pass filter).
    pub dilation: f32,
    /// Record per-point dominance counts (`Val` of Eqn. 3) and per-point
    /// tile-usage counts (`Comp`). Costs one extra image-sized buffer.
    pub track_point_stats: bool,
    /// Worker threads for the parallel pipeline stages (Project, Bin and
    /// Raster): `1` runs every stage inline on the calling thread (the
    /// determinism reference), `0` uses all available cores, `n > 1` uses
    /// exactly `n` workers from the persistent pool. Output is bit-identical
    /// for every value — projection shards concatenate in point order, CSR
    /// count arrays merge before the prefix sum, and raster work units are
    /// assembled in index order.
    pub threads: usize,
}

impl Default for RenderOptions {
    fn default() -> Self {
        Self {
            tile_size: 16,
            background: Vec3::zero(),
            alpha_min: 1.0 / 255.0,
            t_min: 1e-4,
            alpha_max: 0.99,
            extent_sigma: 3.0,
            dilation: 0.3,
            track_point_stats: false,
            threads: 1,
        }
    }
}

impl RenderOptions {
    /// Preset with point-statistics tracking enabled (used by the pruning
    /// pipeline when measuring CE).
    pub fn with_point_stats() -> Self {
        Self {
            track_point_stats: true,
            ..Self::default()
        }
    }

    /// The worker count the parallel stages will actually use: `threads`
    /// itself, or the number of available cores when `threads == 0`.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            rayon::current_num_threads().max(1)
        } else {
            self.threads
        }
    }

    /// Validate option ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.tile_size == 0 {
            return Err("tile_size must be > 0".into());
        }
        if !(0.0..1.0).contains(&self.alpha_min) {
            return Err(format!("alpha_min {} out of [0,1)", self.alpha_min));
        }
        if !(0.0..=1.0).contains(&self.alpha_max) || self.alpha_max <= self.alpha_min {
            return Err("alpha_max must be in (alpha_min, 1]".into());
        }
        if !self.extent_sigma.is_finite() || self.extent_sigma <= 0.0 {
            return Err(format!(
                "extent_sigma {} must be finite and positive (a NaN or infinite \
                 radius bins a splat into every tile)",
                self.extent_sigma
            ));
        }
        if !self.dilation.is_finite() || self.dilation < 0.0 {
            return Err(format!(
                "dilation {} must be finite and >= 0 (a negative dilation yields \
                 non-PSD covariances and NaN conics downstream; an infinite one \
                 bins a splat into every tile)",
                self.dilation
            ));
        }
        if self.t_min.is_nan() || self.t_min <= 0.0 {
            return Err(format!(
                "t_min {} must be > 0 (a non-positive early-stop threshold \
                 never terminates compositing)",
                self.t_min
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_valid() {
        RenderOptions::default().validate().unwrap();
        RenderOptions::with_point_stats().validate().unwrap();
    }

    #[test]
    fn bad_options_rejected() {
        let o = RenderOptions {
            tile_size: 0,
            ..RenderOptions::default()
        };
        assert!(o.validate().is_err());
        let o = RenderOptions {
            alpha_min: 1.5,
            ..RenderOptions::default()
        };
        assert!(o.validate().is_err());
        let base = RenderOptions::default();
        let o = RenderOptions {
            alpha_max: base.alpha_min / 2.0,
            ..base
        };
        assert!(o.validate().is_err());
        for bad in [0.0f32, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let o = RenderOptions {
                extent_sigma: bad,
                ..RenderOptions::default()
            };
            assert!(
                o.validate().is_err(),
                "extent_sigma {bad} should be rejected"
            );
        }
    }

    #[test]
    fn negative_dilation_rejected() {
        // Regression: a negative dilation yields non-PSD screen covariances
        // and NaN conics downstream; validate used to accept it.
        // Non-finite dilations blow the splat radius up to the whole grid.
        for bad in [-0.1f32, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let o = RenderOptions {
                dilation: bad,
                ..RenderOptions::default()
            };
            assert!(o.validate().is_err(), "dilation {bad} should be rejected");
        }
        // Zero dilation (no low-pass filter) stays legal.
        let o = RenderOptions {
            dilation: 0.0,
            ..RenderOptions::default()
        };
        assert!(o.validate().is_ok());
    }

    #[test]
    fn non_positive_t_min_rejected() {
        // Regression: validate used to accept t_min <= 0, which disables
        // the transmittance early stop entirely.
        for bad in [0.0f32, -1e-4, f32::NAN] {
            let o = RenderOptions {
                t_min: bad,
                ..RenderOptions::default()
            };
            assert!(o.validate().is_err(), "t_min {bad} should be rejected");
        }
        let o = RenderOptions {
            t_min: 1e-6,
            ..RenderOptions::default()
        };
        assert!(o.validate().is_ok());
    }

    #[test]
    fn thread_resolution() {
        let mut o = RenderOptions::default();
        assert_eq!(o.resolved_threads(), 1);
        o.threads = 3;
        assert_eq!(o.resolved_threads(), 3);
        o.threads = 0;
        assert!(o.resolved_threads() >= 1);
    }
}
