//! Renderer configuration.

use ms_math::Vec3;
use serde::{Deserialize, Serialize};

/// How splats are ordered before compositing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SortMode {
    /// 3DGS convention: one front-to-back sort per tile by splat center
    /// depth. Fast, but can "pop" when the per-tile order disagrees with the
    /// true per-pixel order.
    #[default]
    PerTile,
    /// StopThePop-style view-consistent ordering: contributions are gathered
    /// per pixel and re-sorted by per-pixel depth before compositing.
    /// More work per pixel (the paper's StopThePop baseline is slower than
    /// 3DGS) but eliminates popping.
    PerPixel,
}

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
    /// SH degree to evaluate (clamped to the model's degree).
    pub sh_degree: usize,
    /// Sorting strategy.
    pub sort_mode: SortMode,
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
    /// Occupancy-driven tile merging (the paper's §4.3): tiles whose
    /// intersection count falls below `merge_threshold × mean` tile
    /// occupancy are greedily coalesced with adjacent low-occupancy tiles
    /// into rectangular super-tiles before rasterization, so sparse
    /// peripheral tiles stop wasting scheduling slots. `0.0` disables
    /// merging (the raster work units stay whole tile rows, the PR 3/4
    /// behavior). Merging only regroups scheduling — pixels, winners and
    /// every per-tile counter are bit-identical to the unmerged render.
    pub merge_threshold: f32,
    /// Maximum side length of a merged super-tile, in tiles per dimension
    /// (a cap of `n` bounds a unit to `n × n` tiles). Must be `>= 1` even
    /// when merging is disabled.
    pub merge_max_extent: u32,
    /// Level-of-detail stride for *peripheral* content: `0` or `1` renders
    /// every splat (LOD off, the default); `k >= 2` makes the foveated
    /// renderer draw its non-foveal eccentricity levels from a coarse
    /// subset keeping every `k`-th splat — selected by **global** splat
    /// index with opacity rescaled by `k` (clamped to 1), the exact subset
    /// `ms_scene::SceneSource::load_coarse_chunk_into` serves per chunk,
    /// so the selection is deterministic and invariant to chunking.
    ///
    /// The plain (non-foveated) render entry points ignore this knob: LOD
    /// is an eccentricity-graded quality trade, not a global decimation
    /// switch. LOD frames are *not* bit-identical to full frames (that is
    /// the point); they are deterministic for a fixed stride. The chunked
    /// bit-identity contract (chunked == in-core for every chunk size)
    /// holds with LOD off.
    #[serde(default)]
    pub lod: usize,
    /// Byte budget for the renderer's shared decoded-chunk cache
    /// ([`ms_scene::ChunkCache`]), which lets every later frame over the
    /// same source — and sibling sessions sharing the cache — reuse decodes
    /// instead of repeating them. `None` (the default) resolves through the
    /// `MS_CHUNK_CACHE` environment variable, falling back to
    /// [`ms_scene::DEFAULT_CHUNK_CACHE_BYTES`]; `Some(0)` disables caching
    /// (pass-through, the PR 9 behavior); `Some(n)` pins an explicit
    /// budget. Caching only moves wall time: cached and uncached renders
    /// are bit-identical for every budget (see `tests/determinism.rs`), so
    /// this knob never changes pixels — only the streamed path's resident
    /// footprint, which is bounded by `cache_budget + 2 × chunk_bytes`
    /// (the cache plus the frame's current-chunk and prefetch buffers).
    #[serde(default)]
    pub cache_budget_bytes: Option<usize>,
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
            sh_degree: ms_math::sh::MAX_DEGREE,
            sort_mode: SortMode::PerTile,
            track_point_stats: false,
            threads: 1,
            merge_threshold: 0.0,
            merge_max_extent: 4,
            lod: 0,
            cache_budget_bytes: None,
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

    /// Preset with occupancy-driven tile merging enabled at the defaults
    /// used throughout the imbalance experiments: tiles below half the mean
    /// occupancy merge, capped at 4×4-tile super-tiles.
    pub fn with_tile_merging() -> Self {
        Self {
            merge_threshold: 0.5,
            merge_max_extent: 4,
            ..Self::default()
        }
    }

    /// Whether the Merge stage coalesces tiles (`merge_threshold > 0`).
    /// When false the stage emits the identity band schedule.
    pub fn merge_enabled(&self) -> bool {
        self.merge_threshold > 0.0
    }

    /// The effective peripheral LOD stride: `Some(k)` when coarse-subset
    /// decimation is on (`lod >= 2`), `None` when off (`0` and `1` both
    /// keep every splat, so there is no meaningful stride to report).
    pub fn lod_stride(&self) -> Option<usize> {
        if self.lod >= 2 {
            Some(self.lod)
        } else {
            None
        }
    }

    /// The chunk-cache byte budget the renderer will actually use, given
    /// `env`, the value of the `MS_CHUNK_CACHE` environment variable:
    /// `cache_budget_bytes` itself when pinned (`Some(0)` disables the
    /// cache), otherwise `env` (a byte count; `0` disables), and
    /// [`ms_scene::DEFAULT_CHUNK_CACHE_BYTES`] when neither pins one.
    /// Mirrors the `MS_CHUNK_SPLATS` seam: CI pins the cache axis through
    /// the environment without plumbing a parameter everywhere.
    ///
    /// # Panics
    ///
    /// Panics when `env` is not an integer — the variable exists so CI can
    /// pin a budget, and a typo silently falling back to the default would
    /// unpin it.
    pub(crate) fn resolved_cache_budget(&self, env: Option<&str>) -> usize {
        match (self.cache_budget_bytes, env) {
            (Some(bytes), _) => bytes,
            (None, None) => ms_scene::DEFAULT_CHUNK_CACHE_BYTES,
            (None, Some(v)) => v.parse().unwrap_or_else(|_| {
                panic!("MS_CHUNK_CACHE={v:?}: expected a byte count (0 disables)")
            }),
        }
    }

    /// The worker count the Raster stage will actually use: `threads`
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
        if self.extent_sigma <= 0.0 {
            return Err("extent_sigma must be positive".into());
        }
        if self.dilation.is_nan() || self.dilation < 0.0 {
            return Err(format!(
                "dilation {} must be >= 0 (a negative dilation yields non-PSD \
                 covariances and NaN conics downstream)",
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
        if self.merge_threshold.is_nan() || self.merge_threshold < 0.0 {
            return Err(format!(
                "merge_threshold {} must be >= 0 (a NaN or negative occupancy \
                 fraction makes every tile-mergeability comparison vacuous)",
                self.merge_threshold
            ));
        }
        if self.merge_max_extent == 0 {
            return Err("merge_max_extent must be >= 1: a zero extent admits no \
                 tiles into any work unit, leaving the raster schedule empty"
                .into());
        }
        // `cache_budget_bytes` has a closed domain (every byte count from
        // 0 = disabled to usize::MAX = unbounded is meaningful, and none of
        // them changes pixels), so there is nothing to range-check here.
        // Its env override (`MS_CHUNK_CACHE`) is checked when the
        // `Renderer` constructor resolves it, which panics on a typo.
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
        let o = RenderOptions {
            extent_sigma: 0.0,
            ..RenderOptions::default()
        };
        assert!(o.validate().is_err());
    }

    #[test]
    fn negative_dilation_rejected() {
        // Regression: a negative dilation yields non-PSD screen covariances
        // and NaN conics downstream; validate used to accept it.
        let o = RenderOptions {
            dilation: -0.1,
            ..RenderOptions::default()
        };
        assert!(o.validate().is_err());
        let o = RenderOptions {
            dilation: f32::NAN,
            ..RenderOptions::default()
        };
        assert!(o.validate().is_err());
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
    fn merge_knobs_validated() {
        // NaN / negative occupancy fractions are configuration errors, in
        // the same spirit as the dilation/t_min hardening.
        for bad in [f32::NAN, -0.1, -1.0] {
            let o = RenderOptions {
                merge_threshold: bad,
                ..RenderOptions::default()
            };
            assert!(
                o.validate().is_err(),
                "merge_threshold {bad} should be rejected"
            );
        }
        let o = RenderOptions {
            merge_max_extent: 0,
            ..RenderOptions::default()
        };
        assert!(
            o.validate().is_err(),
            "zero merge extent should be rejected"
        );
        // Disabled (0.0) and enabled presets are both legal.
        assert!(RenderOptions::default().validate().is_ok());
        RenderOptions::with_tile_merging().validate().unwrap();
        assert!(RenderOptions::with_tile_merging().merge_enabled());
        assert!(!RenderOptions::default().merge_enabled());
    }

    #[test]
    fn cache_budget_resolution() {
        // Pinned budgets resolve to themselves whatever the variable says,
        // including the explicit 0 = disabled.
        for pinned in [0usize, 4096, usize::MAX] {
            let o = RenderOptions {
                cache_budget_bytes: Some(pinned),
                ..RenderOptions::default()
            };
            for env in [None, Some("0"), Some("typo")] {
                assert_eq!(o.resolved_cache_budget(env), pinned);
            }
            o.validate().unwrap();
        }
        // Unset follows MS_CHUNK_CACHE when set, the crate default otherwise.
        let auto = RenderOptions::default();
        assert_eq!(auto.cache_budget_bytes, None);
        assert_eq!(auto.resolved_cache_budget(Some("1048576")), 1 << 20);
        assert_eq!(auto.resolved_cache_budget(Some("0")), 0);
        assert_eq!(
            auto.resolved_cache_budget(None),
            ms_scene::DEFAULT_CHUNK_CACHE_BYTES
        );
    }

    #[test]
    #[should_panic(expected = "MS_CHUNK_CACHE=\"1MB\": expected a byte count (0 disables)")]
    fn cache_env_typo_panics() {
        RenderOptions::default().resolved_cache_budget(Some("1MB"));
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
