//! Scene substrate for the MetaSapiens PBNR stack.
//!
//! This crate provides everything "upstream" of rendering:
//!
//! * [`GaussianModel`] — the SoA Gaussian point cloud (positions, scales,
//!   rotations, opacities, spherical-harmonics color coefficients) that every
//!   PBNR algorithm in this workspace consumes, with storage accounting and a
//!   binary (de)serializer.
//! * [`Camera`] — pinhole camera with the view/projection conventions the
//!   renderer expects.
//! * [`trajectory`] — pose interpolation (Catmull–Rom + slerp) used to
//!   densify sparse dataset poses into smooth 90 FPS traces, as the paper
//!   does in §6 ("approximately 1,440 poses … a 16-second video at 90 FPS").
//! * [`synth`] — the procedural scene generator that substitutes for the
//!   Mip-NeRF 360 / Tanks&Temples / DeepBlending datasets (see [`synth`]
//!   for the substitution argument).
//! * [`dataset`] — the 13 named traces in 3 datasets mirroring the paper's
//!   evaluation corpus, each with deterministic generation parameters.
//!
//! # Example
//!
//! ```
//! use ms_scene::dataset::{Dataset, TraceId};
//!
//! let trace = TraceId::new(Dataset::MipNerf360, "bicycle").unwrap();
//! let scene = trace.build_scene_with_scale(0.02); // tiny scale for doctest speed
//! assert!(scene.model.len() > 0);
//! assert!(!scene.train_cameras.is_empty());
//! ```

#![deny(missing_docs)]

mod camera;
pub mod dataset;
mod gaussian;
pub mod io;
pub mod synth;
pub mod trajectory;

pub use camera::Camera;
pub use gaussian::{GaussianModel, GaussianPoint, BYTES_PER_POINT_FULL};
pub use io::{
    coarse_subset, decode_model, decode_model_into, encode_model, encode_model_chunked,
    next_source_id, CacheAccess, CacheStats, ChunkCache, ChunkKey, ChunkedFileSource, DecodeError,
    FailingSource, FailureMode, InCoreSource, SceneSource, SourceError, DEFAULT_CHUNK_CACHE_BYTES,
};
