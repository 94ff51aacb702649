//! CPU tile-based Gaussian-splatting renderer.
//!
//! Implements the three-stage PBNR pipeline of the paper's §2.1 — Projection,
//! Sorting, Rasterization — as a from-scratch CPU renderer:
//!
//! 1. **Projection** ([`project_model`]): cull, transform each Gaussian to
//!    view space, project its 3-D covariance through the EWA Jacobian to a
//!    2-D screen-space covariance, evaluate SH color for the view, and bound
//!    the splat's extent to a tile rectangle.
//! 2. **Sorting** ([`TileBins`]): duplicate splats into per-tile lists,
//!    left in splat-index order. Rasterization puts each list in
//!    front-to-back depth order only as deep as the tile's pixels read it,
//!    in blocks, so the entries behind the early stop are never sorted.
//! 3. **Rasterization** ([`Renderer::render`]): per-pixel alpha compositing
//!    of Eqn. 1 with transmittance early-stop, one work unit per tile row.
//!    The §4.3 occupancy merge plan ([`merge_low_occupancy`]) is an
//!    analysis of the per-tile counts, reported by
//!    [`RenderStats::unit_intersections`].
//!
//! The renderer doubles as the measurement instrument for the paper's
//! analysis: [`RenderStats`] exposes per-tile intersection counts (the
//! workload-imbalance data of Fig. 9), per-point tile usage (`Comp`/`U` in
//! Eqns. 3 and 5) and per-point pixel-dominance counts (`Val` in Eqn. 3).
//!
//! # Example
//!
//! ```
//! use ms_scene::{GaussianModel, Camera};
//! use ms_render::{Renderer, RenderOptions};
//! use ms_math::{Vec3, Quat};
//!
//! let mut model = GaussianModel::new(0);
//! model.push_solid(Vec3::zero(), Vec3::splat(0.3), Quat::identity(), 0.9,
//!                  Vec3::new(1.0, 0.2, 0.1));
//! let cam = Camera::look_at(64, 64, 60.0, Vec3::new(0.0, 0.0, 3.0), Vec3::zero());
//! let out = Renderer::new(RenderOptions::default()).render(&model, &cam);
//! let center = out.image.pixel(32, 32);
//! assert!(center.x > 0.5); // red splat covers the center
//! ```

#![deny(missing_docs)]

mod binning;
mod frame;
mod image;
mod options;
mod par;
pub mod pipeline;
mod projection;
mod raster;
mod stats;

pub use binning::{merge_low_occupancy, SuperTile, TileBins, MERGE_MAX_EXTENT, MERGE_THRESHOLD};
pub use frame::{FrameArena, FrameInFlight, PixelLevels, SceneRef, View};
pub use image::Image;
pub use options::RenderOptions;
pub use pipeline::{FrameProfile, StageKind, StageSample};
pub use projection::{project_model, project_model_offset_into, ProjectedSplat};
pub use raster::{check_camera, RenderOutput, Renderer};
pub use stats::{RasterWork, RenderStats, TileGridDims};
