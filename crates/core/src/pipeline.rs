//! The end-to-end MetaSapiens model-construction pipeline (§6).
//!
//! Dense model → (CE pruning + scale decay, Fig. 6) → **L1** →
//! (subset pruning + selective multi-version fine-tuning, §4.3) →
//! **foveated hierarchy**. The three published variants differ in how hard
//! the L1 model is pruned: their total model sizes are 16%, 12% and 10% of
//! the dense model.

use ms_fov::{build_foveated, FoveatedModel, FrBuildConfig};
use ms_render::{Image, RenderOptions, Renderer};
use ms_scene::synth::Scene;
use ms_scene::{Camera, GaussianModel};
use ms_train::ce::{compute_ce, CeOptions};
use ms_train::finetune::{FineTuneConfig, FineTuner};
use ms_train::prune::prune_fraction;
use ms_train::scale_decay::ScaleDecayOptions;
use serde::{Deserialize, Serialize};

/// The three published MetaSapiens variants (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variant {
    /// Highest quality: L1 at 99% of the dense PSNR; total size 16%.
    H,
    /// Medium: 98% PSNR; total size 12%.
    M,
    /// Lowest/fastest: 97% PSNR; total size 10%.
    L,
}

impl Variant {
    /// All variants, highest quality first.
    pub const ALL: [Variant; 3] = [Variant::H, Variant::M, Variant::L];

    /// Target L1 point fraction of the dense model. The paper reports the
    /// *total model size* fractions 16%/12%/10%; points track size.
    pub fn l1_fraction(self) -> f32 {
        match self {
            Variant::H => 0.16,
            Variant::M => 0.12,
            Variant::L => 0.10,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Variant::H => "MetaSapiens-H",
            Variant::M => "MetaSapiens-M",
            Variant::L => "MetaSapiens-L",
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of the end-to-end build.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuildConfig {
    /// Which variant to build.
    pub variant: Variant,
    /// Render options used throughout (CE statistics, fine-tuning,
    /// references).
    pub render: RenderOptions,
    /// Resolution the training views are rendered at (downsampled from the
    /// scene cameras for tractability).
    pub train_resolution: (u32, u32),
    /// How many training cameras to use (subsampled from the scene's).
    pub train_camera_cap: usize,
    /// Fraction pruned per outer iteration of the Fig. 6 loop (R = 10%).
    pub prune_rate: f32,
    /// Fine-tuning applied after each prune round (with scale decay —
    /// Eqn. 6's `L = L_quality + γ·WS`).
    pub l1_finetune: FineTuneConfig,
    /// CE options.
    pub ce: CeOptions,
    /// Foveated-hierarchy construction.
    pub fr: FrBuildConfig,
}

impl BuildConfig {
    /// A production-shaped default for a variant.
    pub fn new(variant: Variant) -> Self {
        Self {
            variant,
            render: RenderOptions::default(),
            train_resolution: (160, 120),
            train_camera_cap: 4,
            prune_rate: 0.10,
            l1_finetune: FineTuneConfig {
                iterations: 8,
                scale_decay: Some(ScaleDecayOptions::default()),
                ..FineTuneConfig::default()
            },
            ce: CeOptions::default(),
            fr: FrBuildConfig::default(),
        }
    }

    /// A trimmed configuration for unit/integration tests: fewer cameras,
    /// smaller renders, no per-level fine-tuning.
    pub fn fast_for_tests(variant: Variant) -> Self {
        Self {
            train_resolution: (64, 48),
            train_camera_cap: 2,
            l1_finetune: FineTuneConfig {
                iterations: 2,
                scale_decay: Some(ScaleDecayOptions::default()),
                ..FineTuneConfig::default()
            },
            fr: FrBuildConfig {
                finetune: None,
                ..FrBuildConfig::default()
            },
            ..Self::new(variant)
        }
    }
}

/// A fully built MetaSapiens system for one trace.
#[derive(Debug, Clone)]
pub struct MetaSapiensSystem {
    /// The variant built.
    pub variant: Variant,
    /// The L1 model (pruned + scale-decayed from the dense model).
    pub l1: GaussianModel,
    /// The foveated hierarchy built on L1.
    pub fov: FoveatedModel,
    /// Storage of the dense input model in bytes.
    pub dense_storage: usize,
    /// Training cameras used (downsampled).
    pub train_cameras: Vec<Camera>,
    /// Reference (dense-model) renders for the training cameras.
    pub references: Vec<Image>,
}

impl MetaSapiensSystem {
    /// Total storage of the foveated system in bytes (base + versions).
    pub fn storage_bytes(&self) -> usize {
        self.fov.storage_bytes()
    }

    /// Storage as a fraction of the dense model (paper: 16%/12%/10%).
    pub fn storage_fraction(&self) -> f32 {
        self.storage_bytes() as f32 / self.dense_storage.max(1) as f32
    }
}

/// Build a MetaSapiens system from a dense scene.
///
/// Implements the Fig. 6 loop in its fraction-targeted form: prune
/// `prune_rate` of the lowest-CE points, re-train with scale decay, repeat
/// until the variant's L1 fraction is reached; then construct the foveated
/// hierarchy per §4.3.
///
/// # Panics
///
/// Panics when the scene provides no training cameras.
pub fn build_system(scene: &Scene, config: &BuildConfig) -> MetaSapiensSystem {
    assert!(
        !scene.train_cameras.is_empty(),
        "scene has no training cameras"
    );
    let (w, h) = config.train_resolution;
    let step = (scene.train_cameras.len() / config.train_camera_cap.max(1)).max(1);
    let train_cameras: Vec<Camera> = scene
        .train_cameras
        .iter()
        .step_by(step)
        .take(config.train_camera_cap.max(1))
        .map(|c| Camera {
            width: w,
            height: h,
            ..*c
        })
        .collect();

    let renderer = Renderer::new(config.render.clone());
    let references: Vec<Image> = train_cameras
        .iter()
        .map(|c| renderer.render(&scene.model, c).image)
        .collect();

    // --- L1: iterative CE pruning + scale-decay re-training (Fig. 6).
    let target = (scene.model.len() as f32 * config.variant.l1_fraction()).round() as usize;
    let mut l1 = scene.model.clone();
    while l1.len() > target.max(8) {
        let ce = compute_ce(&l1, &train_cameras, &config.ce);
        let excess = l1.len() - target.max(8);
        let rate = config
            .prune_rate
            .min(excess as f32 / l1.len() as f32)
            .max(1.0 / l1.len() as f32);
        let (pruned, _) = prune_fraction(&l1, &ce, rate);
        l1 = pruned;
        let mut tuner = FineTuner::new(config.l1_finetune.clone(), l1.len());
        tuner.run(&mut l1, &train_cameras, &references);
    }

    // --- Foveated hierarchy on top of L1 (§4.3).
    let fov = build_foveated(&l1, &train_cameras, &references, &config.fr);

    MetaSapiensSystem {
        variant: config.variant,
        l1,
        fov,
        dense_storage: scene.model.storage_bytes(),
        train_cameras,
        references,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_scene::dataset::TraceId;

    fn scene() -> Scene {
        TraceId::by_name("bonsai")
            .unwrap()
            .build_scene_with_scale(0.004)
    }

    #[test]
    fn variants_order_by_aggressiveness() {
        assert!(Variant::H.l1_fraction() > Variant::M.l1_fraction());
        assert!(Variant::M.l1_fraction() > Variant::L.l1_fraction());
        assert_eq!(Variant::H.to_string(), "MetaSapiens-H");
    }

    #[test]
    fn build_reaches_variant_fraction() {
        let s = scene();
        let system = build_system(&s, &BuildConfig::fast_for_tests(Variant::H));
        let frac = system.l1.len() as f32 / s.model.len() as f32;
        assert!(
            (frac - 0.16).abs() < 0.02,
            "L1 fraction {frac} should approach 0.16"
        );
        // Storage fraction lands near the paper's 16% (±multi-versioning).
        let sf = system.storage_fraction();
        assert!(sf > 0.10 && sf < 0.25, "storage fraction {sf}");
    }

    #[test]
    fn lower_variants_are_smaller() {
        let s = scene();
        let h = build_system(&s, &BuildConfig::fast_for_tests(Variant::H));
        let l = build_system(&s, &BuildConfig::fast_for_tests(Variant::L));
        assert!(l.l1.len() < h.l1.len());
        assert!(l.storage_bytes() < h.storage_bytes());
    }

    #[test]
    fn built_system_renders_faster_than_dense() {
        let s = scene();
        let system = build_system(&s, &BuildConfig::fast_for_tests(Variant::H));
        let renderer = Renderer::default();
        let cam = &system.train_cameras[0];
        let dense = renderer.render(&s.model, cam).stats.total_intersections;
        let l1 = renderer.render(&system.l1, cam).stats.total_intersections;
        assert!(
            (l1 as f32) < dense as f32 * 0.6,
            "L1 should slash intersections: {l1} vs {dense}"
        );
    }
}
