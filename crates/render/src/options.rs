//! Renderer configuration and the fixed 3DGS constants.

use serde::{Deserialize, Serialize};

/// Square tile size in pixels: the 16×16 tiles of 3DGS, of the paper's
/// workload heatmaps and of the accelerator's one-sub-tile-per-row IP
/// model.
pub const TILE_SIZE: u32 = 16;

/// Transmittance early-stop threshold: once accumulated transmittance
/// falls below this the pixel is finished.
pub const T_MIN: f32 = 1e-4;

/// Upper clamp for a single splat's alpha (0.99 in 3DGS, so a fully opaque
/// splat never zeroes the gradient path).
pub const ALPHA_MAX: f32 = 0.99;

/// Gaussian extent in standard deviations (3σ): the radius of the circle
/// whose tiles a splat is binned into.
pub const EXTENT_SIGMA: f32 = 3.0;

/// Options controlling a render pass: the settings callers vary. Frames
/// composite over black; tile size, early stop, alpha clamp and splat
/// extent are the constants [`TILE_SIZE`], [`T_MIN`], [`ALPHA_MAX`] and
/// [`EXTENT_SIGMA`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RenderOptions {
    /// Minimum per-splat alpha; contributions below this are skipped
    /// (1/255, the 3DGS convention).
    pub alpha_min: f32,
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
            alpha_min: 1.0 / 255.0,
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
        if !(0.0..ALPHA_MAX).contains(&self.alpha_min) {
            return Err(format!(
                "alpha_min {} out of [0, {ALPHA_MAX}) (at or above the alpha \
                 clamp no splat would ever composite)",
                self.alpha_min
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
        // At or above the alpha clamp, no splat could pass the skip test.
        for bad in [-0.1f32, ALPHA_MAX, 1.5, f32::NAN] {
            let o = RenderOptions {
                alpha_min: bad,
                ..RenderOptions::default()
            };
            assert!(o.validate().is_err(), "alpha_min {bad} should be rejected");
        }
        // Zero (no skip at all) stays legal: the foveated uncut projection
        // uses it.
        let o = RenderOptions {
            alpha_min: 0.0,
            ..RenderOptions::default()
        };
        assert!(o.validate().is_ok());
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
    fn thread_resolution() {
        let mut o = RenderOptions::default();
        assert_eq!(o.resolved_threads(), 1);
        o.threads = 3;
        assert_eq!(o.resolved_threads(), 3);
        o.threads = 0;
        assert!(o.resolved_threads() >= 1);
    }
}
