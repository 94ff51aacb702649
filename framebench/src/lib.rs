//! Frame benchmark of the foveated Gaussian-splatting renderer and its frame
//! server: the three ways a user gets frames (`dense-orbit`, `fov-gaze`,
//! `served-stream`), timed from outside with tracing off for the end-to-end
//! metrics, and again with spans around the same public calls for the
//! per-layer metrics. `README.md` in this directory has the details.

pub mod host;
pub mod report;
pub mod stats;
pub mod trace;
mod workload;

mod dense;
mod fov;
mod served;

pub use workload::{run, Outcome, RunSpec, Scale, Workload};
