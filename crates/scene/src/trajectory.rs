//! Camera-pose trajectories.
//!
//! Dataset poses are sparse; the paper interpolates between them to create
//! smooth trajectories "producing approximately 1,440 poses for each trace,
//! corresponding to a 16-second video at 90 FPS" (§6). This module implements
//! that densification: Catmull–Rom splines for positions and targets.

use crate::Camera;
use ms_math::Vec3;
use serde::{Deserialize, Serialize};

/// A single camera pose keyframe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoseKey {
    /// Camera position.
    pub eye: Vec3,
    /// Look-at target.
    pub target: Vec3,
}

/// Centripetal-flavored Catmull–Rom interpolation over `keys` at parameter
/// `t ∈ [0, 1]` spanning the whole key sequence (uniform knots).
///
/// Endpoints are clamped (the first/last segments use duplicated end keys).
///
/// # Panics
///
/// Panics when `keys` is empty.
pub fn catmull_rom(keys: &[Vec3], t: f32) -> Vec3 {
    assert!(!keys.is_empty(), "need at least one key");
    if keys.len() == 1 {
        return keys[0];
    }
    let segs = (keys.len() - 1) as f32;
    let s = (t.clamp(0.0, 1.0)) * segs;
    let i = (s.floor() as usize).min(keys.len() - 2);
    let u = s - i as f32;
    spline_segment(
        keys[i.saturating_sub(1)],
        keys[i],
        keys[i + 1],
        keys[(i + 2).min(keys.len() - 1)],
        u,
    )
}

/// One uniform Catmull–Rom segment between `p1` and `p2` at local parameter
/// `u ∈ [0, 1]`, with `p0`/`p3` the neighboring control points. Factored out
/// so [`Trajectory::sample`] can evaluate segments without building a
/// control-point vector; the operation order is exactly [`catmull_rom`]'s,
/// keeping the two paths bit-identical.
fn spline_segment(p0: Vec3, p1: Vec3, p2: Vec3, p3: Vec3, u: f32) -> Vec3 {
    let u2 = u * u;
    let u3 = u2 * u;
    (p1 * 2.0
        + (p2 - p0) * u
        + (p0 * 2.0 - p1 * 5.0 + p2 * 4.0 - p3) * u2
        + (p1 * 3.0 - p0 - p2 * 3.0 + p3) * u3)
        * 0.5
}

/// A smooth camera trajectory derived from sparse keyframes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    keys: Vec<PoseKey>,
    /// Whether the trajectory loops back to the first key.
    looped: bool,
}

impl Trajectory {
    /// Build from keyframes.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two keyframes are supplied.
    pub fn new(keys: Vec<PoseKey>, looped: bool) -> Self {
        assert!(keys.len() >= 2, "need at least two pose keys");
        Self { keys, looped }
    }

    /// Number of control points including the implicit loop-closing key.
    fn effective_len(&self) -> usize {
        self.keys.len() + usize::from(self.looped)
    }

    /// Control point `i` of the effective (loop-closed) key sequence.
    fn effective_key(&self, i: usize) -> PoseKey {
        if i == self.keys.len() {
            self.keys[0]
        } else {
            self.keys[i]
        }
    }

    /// Pose at `t ∈ [0, 1]`.
    ///
    /// Allocation-free: the frame server samples a trajectory once per
    /// admitted frame, so this must not clone the key list per call (the
    /// original implementation built three temporary vectors). The
    /// index math and `spline_segment` evaluation reproduce
    /// [`catmull_rom`] over the loop-closed key sequence exactly, so the
    /// rewrite is bit-identical to the old path.
    pub fn sample(&self, t: f32) -> PoseKey {
        let len = self.effective_len();
        let segs = (len - 1) as f32;
        let s = (t.clamp(0.0, 1.0)) * segs;
        let i = (s.floor() as usize).min(len - 2);
        let u = s - i as f32;
        let k0 = self.effective_key(i.saturating_sub(1));
        let k1 = self.effective_key(i);
        let k2 = self.effective_key(i + 1);
        let k3 = self.effective_key((i + 2).min(len - 1));
        PoseKey {
            eye: spline_segment(k0.eye, k1.eye, k2.eye, k3.eye, u),
            target: spline_segment(k0.target, k1.target, k2.target, k3.target, u),
        }
    }

    /// Camera `i` of an `n`-pose densification — the single-frame form of
    /// [`Trajectory::cameras`], so a frame server can derive any frame's
    /// camera on demand without building the whole pose list.
    /// `cameras(prototype, n)[i] == camera_at(prototype, i, n)` exactly.
    ///
    /// # Panics
    ///
    /// Panics when `n < 2` or `i >= n`.
    pub fn camera_at(&self, prototype: &Camera, i: usize, n: usize) -> Camera {
        assert!(n >= 2, "need at least two samples");
        assert!(i < n, "frame index {i} out of range for {n} samples");
        let t = i as f32 / (n - 1) as f32;
        let pose = self.sample(t);
        Camera {
            eye: pose.eye,
            target: pose.target,
            ..*prototype
        }
    }

    /// Densify into `n` camera poses using `prototype` for the intrinsics.
    ///
    /// The paper's configuration is `n = 1_440` (16 s at 90 FPS).
    pub fn cameras(&self, prototype: &Camera, n: usize) -> Vec<Camera> {
        assert!(n >= 2, "need at least two samples");
        (0..n).map(|i| self.camera_at(prototype, i, n)).collect()
    }

    /// Number of keyframes (excluding the implicit loop-closing key).
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }
}

/// An orbit trajectory around `center` at `radius` and `height`, the pattern
/// used for the synthetic datasets' training/eval pose rings.
pub fn orbit(center: Vec3, radius: f32, height: f32, key_count: usize) -> Trajectory {
    assert!(key_count >= 3, "orbit needs at least 3 keys");
    let keys = (0..key_count)
        .map(|i| {
            let theta = i as f32 / key_count as f32 * std::f32::consts::TAU;
            PoseKey {
                eye: center + Vec3::new(radius * theta.cos(), height, radius * theta.sin()),
                target: center,
            }
        })
        .collect();
    Trajectory::new(keys, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn catmull_rom_hits_keys() {
        let keys = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 2.0, 0.0),
            Vec3::new(3.0, 0.0, -1.0),
        ];
        assert!(catmull_rom(&keys, 0.0).distance(keys[0]) < 1e-5);
        assert!(catmull_rom(&keys, 0.5).distance(keys[1]) < 1e-5);
        assert!(catmull_rom(&keys, 1.0).distance(keys[2]) < 1e-5);
    }

    #[test]
    fn catmull_rom_single_key() {
        assert_eq!(catmull_rom(&[Vec3::one()], 0.7), Vec3::one());
    }

    #[test]
    fn trajectory_densification_count_and_smoothness() {
        let traj = orbit(Vec3::zero(), 5.0, 1.0, 8);
        let proto = Camera::look_at(64, 64, 60.0, Vec3::zero(), Vec3::one());
        let cams = traj.cameras(&proto, 1_440);
        assert_eq!(cams.len(), 1_440);
        // Adjacent poses should move smoothly — tiny steps for 1,440 samples.
        for w in cams.windows(2) {
            assert!(w[0].eye.distance(w[1].eye) < 0.1);
        }
    }

    #[test]
    fn looped_orbit_closes() {
        let traj = orbit(Vec3::zero(), 5.0, 1.0, 6);
        let a = traj.sample(0.0);
        let b = traj.sample(1.0);
        assert!(a.eye.distance(b.eye) < 1e-4);
    }

    #[test]
    fn orbit_keeps_radius_at_keys() {
        let traj = orbit(Vec3::new(1.0, 0.0, 0.0), 4.0, 2.0, 12);
        for i in 0..12 {
            let t = i as f32 / 12.0;
            let pose = traj.sample(t);
            let planar = Vec3::new(pose.eye.x - 1.0, 0.0, pose.eye.z);
            assert!(
                (planar.length() - 4.0).abs() < 0.3,
                "t={t}: {}",
                planar.length()
            );
        }
    }

    #[test]
    #[should_panic]
    fn trajectory_requires_two_keys() {
        let _ = Trajectory::new(
            vec![PoseKey {
                eye: Vec3::zero(),
                target: Vec3::one(),
            }],
            false,
        );
    }

    proptest! {
        #[test]
        fn sample_is_bounded_by_key_hull_margin(t in 0.0f32..1.0) {
            let traj = orbit(Vec3::zero(), 3.0, 0.5, 10);
            let pose = traj.sample(t);
            // Catmull-Rom can overshoot slightly but stays near the orbit.
            prop_assert!(pose.eye.length() < 6.0);
            prop_assert!(pose.target.length() < 1e-4);
        }
    }
}
