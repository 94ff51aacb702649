//! Procedural Gaussian-scene generator.
//!
//! Substitutes for the photogrammetry datasets the paper evaluates on. A
//! generated scene reproduces the *geometric statistics* that drive every
//! MetaSapiens mechanism:
//!
//! * a **ground disk** of small-to-medium surface splats,
//! * several **object clusters** of dense, small, high-opacity splats
//!   (the content users look at — high-CE points),
//! * a distant **background shell** of large splats,
//! * **floaters**: large, semi-transparent Gaussians scattered through free
//!   space. Real 3DGS reconstructions accumulate these; they intersect many
//!   tiles while dominating few pixels, i.e. they are exactly the low
//!   Computational-Efficiency points the paper's pruning targets, and
//! * **redundant duplicates** near surfaces (points occluded by their
//!   neighbors), the mass that point-count pruning removes cheaply.
//!
//! Generation is fully deterministic given the [`SceneSpec`] seed.

use crate::{Camera, GaussianModel};
use ms_math::{Quat, Vec3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters controlling procedural scene generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneSpec {
    /// Deterministic seed.
    pub seed: u64,
    /// Total point budget of the dense model.
    pub total_points: usize,
    /// Scene radius (world units) of the content region.
    pub radius: f32,
    /// Number of foreground object clusters.
    pub cluster_count: usize,
    /// Fraction of points in object clusters (0..1).
    pub cluster_fraction: f32,
    /// Fraction of points on the ground disk.
    pub ground_fraction: f32,
    /// Fraction of points in the background shell.
    pub background_fraction: f32,
    /// Fraction of points that are free-space floaters (large, dim).
    pub floater_fraction: f32,
    /// Remaining fraction becomes redundant near-surface duplicates.
    /// (Derived: `1 - cluster - ground - background - floater`.)
    /// Mean log-scale of splats (log of world-unit σ).
    pub base_log_scale: f32,
    /// Std-dev of the log-normal scale distribution (heavy tail knob).
    pub log_scale_sigma: f32,
    /// SH degree of the generated model.
    pub sh_degree: usize,
}

impl Default for SceneSpec {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            total_points: 60_000,
            radius: 10.0,
            cluster_count: 6,
            cluster_fraction: 0.15,
            ground_fraction: 0.10,
            background_fraction: 0.07,
            floater_fraction: 0.08,
            base_log_scale: -3.2,
            log_scale_sigma: 0.75,
            sh_degree: 3,
        }
    }
}

impl SceneSpec {
    /// Validate fractions sum to at most 1 and counts are sane.
    pub fn validate(&self) -> Result<(), String> {
        let s = self.cluster_fraction
            + self.ground_fraction
            + self.background_fraction
            + self.floater_fraction;
        if !(0.0..=1.0 + 1e-4).contains(&s) {
            return Err(format!("fractions sum to {s}, must be <= 1"));
        }
        if self.total_points == 0 {
            return Err("total_points must be > 0".into());
        }
        if self.radius <= 0.0 {
            return Err("radius must be > 0".into());
        }
        if self.sh_degree > ms_math::sh::MAX_DEGREE {
            return Err(format!("sh_degree {} too large", self.sh_degree));
        }
        Ok(())
    }
}

/// A generated scene: the dense model plus its camera sets.
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    /// The dense ("ground truth") Gaussian model.
    pub model: GaussianModel,
    /// Training cameras (used for CE statistics and retraining).
    pub train_cameras: Vec<Camera>,
    /// Held-out evaluation cameras.
    pub eval_cameras: Vec<Camera>,
    /// The spec used to generate the scene.
    pub spec: SceneSpec,
}

fn sample_normal(rng: &mut StdRng) -> f32 {
    // Box–Muller; `rand_distr` is outside the allowed dependency set.
    let u1: f32 = rng.gen_range(1e-7..1.0f32);
    let u2: f32 = rng.gen_range(0.0..1.0f32);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

fn sample_unit_vector(rng: &mut StdRng) -> Vec3 {
    loop {
        let v = Vec3::new(
            rng.gen_range(-1.0..1.0f32),
            rng.gen_range(-1.0..1.0f32),
            rng.gen_range(-1.0..1.0f32),
        );
        let l = v.length();
        if l > 1e-3 && l <= 1.0 {
            return v / l;
        }
    }
}

fn random_rotation(rng: &mut StdRng) -> Quat {
    Quat::from_axis_angle(
        sample_unit_vector(rng),
        rng.gen_range(0.0..std::f32::consts::TAU),
    )
}

fn log_normal_scale(rng: &mut StdRng, mu: f32, sigma: f32) -> f32 {
    (mu + sigma * sample_normal(rng)).exp()
}

/// Per-point anisotropic scale: one dominant axis pair (surface-like splats
/// are disks, not spheres).
fn surface_scale(rng: &mut StdRng, base: f32) -> Vec3 {
    let flat = rng.gen_range(0.15..0.5f32);
    Vec3::new(
        base * rng.gen_range(0.7..1.4f32),
        base * flat,
        base * rng.gen_range(0.7..1.4f32),
    )
}

fn push_sh_point(
    model: &mut GaussianModel,
    rng: &mut StdRng,
    position: Vec3,
    scale: Vec3,
    opacity: f32,
    rgb: Vec3,
    view_dependence: f32,
) {
    let mut coeffs = vec![0.0f32; model.sh_stride()];
    let dc = ms_math::sh::rgb_to_dc(rgb);
    coeffs[..3].copy_from_slice(&dc);
    // Mild view-dependent sparkle on higher bands.
    for c in coeffs.iter_mut().skip(3) {
        *c = sample_normal(rng) * 0.05 * view_dependence;
    }
    let rotation = random_rotation(rng);
    model.push(position, scale, rotation, opacity, &coeffs);
}

/// Deterministically generate a scene from a spec.
///
/// # Errors
///
/// Returns an error when the spec is invalid (see [`SceneSpec::validate`]).
pub fn generate(spec: &SceneSpec) -> Result<Scene, String> {
    spec.validate()?;
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut model = GaussianModel::new(spec.sh_degree);
    let n = spec.total_points;
    let n_cluster = (n as f32 * spec.cluster_fraction) as usize;
    let n_ground = (n as f32 * spec.ground_fraction) as usize;
    let n_background = (n as f32 * spec.background_fraction) as usize;
    let n_floater = (n as f32 * spec.floater_fraction) as usize;
    let n_duplicate = n.saturating_sub(n_cluster + n_ground + n_background + n_floater);

    let r = spec.radius;
    let scale_of = |rng: &mut StdRng, mul: f32| {
        log_normal_scale(rng, spec.base_log_scale, spec.log_scale_sigma) * r * mul
    };

    // --- Object clusters: dense small bright splats near the center.
    let mut cluster_centers = Vec::new();
    let mut cluster_palettes = Vec::new();
    for _ in 0..spec.cluster_count.max(1) {
        let dist = rng.gen_range(0.05..0.45f32) * r;
        let theta = rng.gen_range(0.0..std::f32::consts::TAU);
        cluster_centers.push(Vec3::new(
            dist * theta.cos(),
            rng.gen_range(0.0..0.25f32) * r,
            dist * theta.sin(),
        ));
        cluster_palettes.push(Vec3::new(
            rng.gen_range(0.2..0.95f32),
            rng.gen_range(0.2..0.95f32),
            rng.gen_range(0.2..0.95f32),
        ));
    }
    for i in 0..n_cluster {
        let k = i % cluster_centers.len();
        let center = cluster_centers[k];
        let cluster_r = r * rng.gen_range(0.04..0.12f32);
        let offset =
            sample_unit_vector(&mut rng) * (cluster_r * rng.gen_range(0.0..1.0f32).powf(0.33));
        let base = scale_of(&mut rng, 0.6);
        let color = cluster_palettes[k] + Vec3::splat(sample_normal(&mut rng) * 0.08);
        let scale = surface_scale(&mut rng, base);
        let opacity = rng.gen_range(0.6..0.99f32);
        push_sh_point(
            &mut model,
            &mut rng,
            center + offset,
            scale,
            opacity,
            color.max(Vec3::zero()).min(Vec3::one()),
            1.0,
        );
    }

    // --- Ground disk.
    for _ in 0..n_ground {
        let rad = r * rng.gen_range(0.0f32..1.0).sqrt();
        let theta = rng.gen_range(0.0..std::f32::consts::TAU);
        let pos = Vec3::new(
            rad * theta.cos(),
            sample_normal(&mut rng) * 0.01 * r,
            rad * theta.sin(),
        );
        let base = scale_of(&mut rng, 1.0);
        let shade = rng.gen_range(0.25..0.55f32);
        let opacity = rng.gen_range(0.5..0.95f32);
        push_sh_point(
            &mut model,
            &mut rng,
            pos,
            Vec3::new(base, base * 0.2, base),
            opacity,
            Vec3::new(shade * 0.9, shade, shade * 0.7),
            0.4,
        );
    }

    // --- Background shell: large distant splats.
    for _ in 0..n_background {
        let dir = sample_unit_vector(&mut rng);
        let dir = Vec3::new(dir.x, dir.y.abs() * 0.6, dir.z);
        let dist = r * rng.gen_range(2.0..4.0f32);
        let base = scale_of(&mut rng, 6.0);
        let sky = rng.gen_range(0.4..0.9f32);
        let opacity = rng.gen_range(0.4..0.9f32);
        push_sh_point(
            &mut model,
            &mut rng,
            dir.normalized() * dist,
            Vec3::splat(base),
            opacity,
            Vec3::new(sky * 0.7, sky * 0.8, sky),
            0.2,
        );
    }

    // --- Floaters: large, dim, mid-air — the low-CE points.
    for _ in 0..n_floater {
        let pos = Vec3::new(
            rng.gen_range(-1.0..1.0f32) * r,
            rng.gen_range(0.1..0.9f32) * r,
            rng.gen_range(-1.0..1.0f32) * r,
        );
        let base = scale_of(&mut rng, 8.0);
        let tint = rng.gen_range(0.3..0.7f32);
        let opacity = rng.gen_range(0.02..0.15f32);
        push_sh_point(
            &mut model,
            &mut rng,
            pos,
            Vec3::splat(base),
            opacity,
            Vec3::splat(tint),
            0.1,
        );
    }

    // --- Redundant duplicates: near-coincident copies of existing points.
    // Real trained 3DGS models are extremely redundant — published pruners
    // remove 75%+ of points with little visual change — and this mass is
    // what makes the paper's 84-90% pruning rates quality-neutral. The
    // duplicates sit almost exactly on their originals (tight jitter, same
    // color), so removing either of the pair barely changes the image.
    let existing = model.len();
    for _ in 0..n_duplicate {
        if existing == 0 {
            // Nothing to duplicate — tiny scenes can allot every point to
            // this class. Emit plain cluster points so the total count
            // still holds (this branch used to index an empty model).
            let pos = sample_unit_vector(&mut rng) * (0.3 * r);
            let base = scale_of(&mut rng, 1.0);
            let tint = rng.gen_range(0.4..0.8f32);
            let opacity = rng.gen_range(0.3..0.9f32);
            push_sh_point(
                &mut model,
                &mut rng,
                pos,
                Vec3::splat(base),
                opacity,
                Vec3::splat(tint),
                0.3,
            );
            continue;
        }
        let src = rng.gen_range(0..existing);
        let p = model.point(src);
        let jitter = sample_unit_vector(&mut rng) * p.scale.max_component() * 0.15;
        let pos = p.position + jitter;
        let scale = p.scale * rng.gen_range(0.7..1.0f32);
        let opacity = (p.opacity * rng.gen_range(0.5..1.0f32)).clamp(0.01, 1.0);
        let sh = p.sh.to_vec();
        let rot = p.rotation;
        model.push(pos, scale, rot, opacity, &sh);
    }

    // Clamp scales so validate() holds even in extreme tails.
    for s in &mut model.scales {
        *s = s.max(Vec3::splat(1e-5 * r)).min(Vec3::splat(3.0 * r));
    }
    model.validate()?;

    // --- Cameras: two orbit rings (train inner, eval offset) looking at the
    // content region, mimicking the inward-facing capture of the datasets.
    let proto = Camera::look_at(
        640,
        480,
        60.0,
        Vec3::new(r * 0.9, r * 0.35, 0.0),
        Vec3::new(0.0, r * 0.05, 0.0),
    );
    let train_traj = crate::trajectory::orbit(Vec3::new(0.0, r * 0.05, 0.0), r * 0.9, r * 0.35, 12);
    let eval_traj = crate::trajectory::orbit(Vec3::new(0.0, r * 0.08, 0.0), r * 0.75, r * 0.45, 7);
    let train_cameras = train_traj.cameras(&proto, 24);
    let eval_cameras = eval_traj.cameras(&proto, 8);

    Ok(Scene {
        model,
        train_cameras,
        eval_cameras,
        spec: spec.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_math::stats;

    fn small_spec() -> SceneSpec {
        SceneSpec {
            total_points: 2_000,
            ..SceneSpec::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small_spec()).unwrap();
        let b = generate(&small_spec()).unwrap();
        assert_eq!(a.model, b.model);
        assert_eq!(a.train_cameras.len(), b.train_cameras.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small_spec()).unwrap();
        let mut spec = small_spec();
        spec.seed = 42;
        let b = generate(&spec).unwrap();
        assert_ne!(a.model.positions, b.model.positions);
    }

    #[test]
    fn point_budget_respected() {
        let s = generate(&small_spec()).unwrap();
        let n = s.model.len();
        assert!((1_990..=2_000).contains(&n), "n = {n}");
    }

    #[test]
    fn model_is_valid() {
        let s = generate(&small_spec()).unwrap();
        s.model.validate().unwrap();
    }

    #[test]
    fn scale_distribution_is_heavy_tailed() {
        let s = generate(&small_spec()).unwrap();
        let extents: Vec<f32> = (0..s.model.len())
            .map(|i| s.model.point_extent(i))
            .collect();
        let p50 = stats::percentile(&extents, 50.0);
        let p99 = stats::percentile(&extents, 99.0);
        // Floaters/background make the tail much fatter than the median.
        assert!(p99 / p50 > 5.0, "tail ratio {}", p99 / p50);
    }

    #[test]
    fn floaters_have_low_opacity() {
        let spec = small_spec();
        let s = generate(&spec).unwrap();
        // Floater points sit in a contiguous block; reconstruct its range.
        let n = spec.total_points;
        let n_cluster = (n as f32 * spec.cluster_fraction) as usize;
        let n_ground = (n as f32 * spec.ground_fraction) as usize;
        let n_background = (n as f32 * spec.background_fraction) as usize;
        let n_floater = (n as f32 * spec.floater_fraction) as usize;
        let start = n_cluster + n_ground + n_background;
        for i in start..start + n_floater {
            assert!(s.model.opacities[i] <= 0.15 + 1e-6);
        }
    }

    #[test]
    fn invalid_spec_rejected() {
        let mut spec = small_spec();
        spec.cluster_fraction = 0.9;
        spec.ground_fraction = 0.5;
        assert!(generate(&spec).is_err());
        let mut spec2 = small_spec();
        spec2.total_points = 0;
        assert!(generate(&spec2).is_err());
    }

    #[test]
    fn cameras_look_at_content() {
        let s = generate(&small_spec()).unwrap();
        for cam in &s.train_cameras {
            // Scene center should project near the image center region.
            let px = cam.world_to_pixel(cam.target).unwrap();
            assert!((px.x - 320.0).abs() < 1.0 && (px.y - 240.0).abs() < 1.0);
        }
    }
}
