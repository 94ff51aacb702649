//! Foveated PBNR (paper §4).
//!
//! Renders different eccentricity regions of the image with models of
//! different quality, exploiting the acuity fall-off of peripheral vision.
//! The crate provides:
//!
//! * [`FoveatedModel`] — the paper's data representation: a hierarchy of
//!   models where the points of level `ℓ+1` are a **strict subset** of level
//!   `ℓ`'s points (quality bounds, Fig. 7-C), with **selective
//!   multi-versioning** of exactly two parameter groups — Opacity and the
//!   SH DC color — per level (Fig. 7-D). Total point storage equals the L1
//!   model's; the multi-versioned parameters add only a few percent.
//! * [`build_foveated`] — the §4.3 training procedure: each level is pruned
//!   from its predecessor by Computational Efficiency and its
//!   multi-versioned parameters are fine-tuned (no scale decay: scales are
//!   shared across levels).
//! * [`FoveatedRenderer`] — the augmented pipeline of Fig. 7-E: one shared
//!   projection of the base model, per-level filtering of its splats,
//!   and one frame that rasterizes each pixel at its region's level and
//!   blends across region boundaries.
//! * [`baselines`] — the two FR baselines of §7.4: SMFR (strict subsetting
//!   by random sampling, no multi-versioning) and MMFR (fully independent
//!   per-level models, no subsetting).
//!
//! # Example
//!
//! ```
//! use ms_scene::dataset::TraceId;
//! use ms_fov::{build_foveated, FrBuildConfig, FoveatedRenderer};
//!
//! let scene = TraceId::by_name("room").unwrap().build_scene_with_scale(0.004);
//! let cams: Vec<_> = scene.train_cameras.iter().take(2)
//!     .map(|c| ms_scene::Camera { width: 64, height: 48, ..*c })
//!     .collect();
//! let renderer = ms_render::Renderer::default();
//! let refs: Vec<_> = cams.iter().map(|c| renderer.render(&scene.model, c).image).collect();
//! let config = FrBuildConfig { finetune: None, ..FrBuildConfig::default() };
//! let fr = build_foveated(&scene.model, &cams, &refs, &config);
//! assert_eq!(fr.level_count(), 4);
//! let out = FoveatedRenderer::default().render(&fr, &cams[0], None);
//! assert_eq!(out.image.width(), 64);
//! ```

#![deny(missing_docs)]

pub mod baselines;
mod build;
mod model;
mod render;

pub use build::{build_foveated, build_foveated_hvsq, FrBuildConfig};
pub use model::{FoveatedModel, LevelParams};
pub use render::{FovRenderOutput, FoveatedRenderer};
