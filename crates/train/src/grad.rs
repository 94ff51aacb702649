//! Analytic backward pass through the volume-rendering equation.
//!
//! The retraining step of Fig. 6 needs gradients of an image loss with
//! respect to the per-point parameters that training tunes: **opacity** and
//! the **SH DC color component** (scales get their gradient from the WS
//! regularizer, see [`crate::scale_decay`]). For a pixel composited
//! front-to-back as
//!
//! ```text
//! C = Σᵢ Tᵢ αᵢ cᵢ + T_end·bg,   Tᵢ = Πⱼ<ᵢ (1 − αⱼ)
//! ```
//!
//! the exact derivatives are
//!
//! ```text
//! ∂C/∂cᵢ = Tᵢ αᵢ
//! ∂C/∂αᵢ = Tᵢ cᵢ − Sᵢ/(1 − αᵢ),   Sᵢ = Σⱼ>ᵢ Tⱼ αⱼ cⱼ + T_end·bg
//! ```
//!
//! computed with a back-to-front suffix accumulation, exactly mirroring the
//! forward pass (same culling, same α clamp, same early stop).

use ms_render::{project_model, ProjectedSplat, RenderOptions, TileBins};
use ms_render::{Image, TileGridDims};
use ms_scene::{Camera, GaussianModel};

/// Per-point gradients of a scalar image loss.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageGradients {
    /// ∂L/∂opacity per point.
    pub d_opacity: Vec<f32>,
    /// ∂L/∂SH-DC per point (three channels).
    pub d_dc: Vec<[f32; 3]>,
}

/// Forward render + backward pass of the MSE loss against `reference`.
///
/// Returns the rendered image, the MSE, and the per-point gradients. The
/// forward output is bit-identical to [`ms_render::Renderer`] with the same
/// options (asserted by tests).
///
/// # Panics
///
/// Panics when `reference` dimensions differ from the camera resolution.
pub fn backward_mse(
    model: &GaussianModel,
    camera: &Camera,
    reference: &Image,
    options: &RenderOptions,
) -> (Image, f32, ImageGradients) {
    assert_eq!(
        (reference.width(), reference.height()),
        (camera.width, camera.height),
        "reference dimensions must match the camera"
    );
    let splats = project_model(model, camera, options);
    let grid = TileGridDims::for_image(camera.width, camera.height, options.tile_size);
    let bins = TileBins::build(&splats, grid);

    let mut image = Image::filled(camera.width, camera.height, options.background);
    let mut d_opacity = vec![0.0f32; model.len()];
    let mut d_dc = vec![[0.0f32; 3]; model.len()];
    // dL/dC scale for MSE over all pixels and channels.
    let norm = 2.0 / (camera.width as f32 * camera.height as f32 * 3.0);

    // Contribution record: (splat index, alpha, transmittance-before, capped).
    let mut contribs: Vec<(u32, f32, f32, bool)> = Vec::new();
    let mut mse_acc = 0.0f64;

    for ty in 0..grid.tiles_y {
        for tx in 0..grid.tiles_x {
            let list = bins.depth_order(&splats, tx, ty);
            let x_end = ((tx + 1) * options.tile_size).min(camera.width);
            let y_end = ((ty + 1) * options.tile_size).min(camera.height);
            for y in (ty * options.tile_size)..y_end {
                for x in (tx * options.tile_size)..x_end {
                    let px = ms_math::Vec2::new(x as f32 + 0.5, y as f32 + 0.5);
                    // Forward, recording contributions.
                    contribs.clear();
                    let mut t = 1.0f32;
                    let mut color = ms_math::Vec3::zero();
                    for &si in &list {
                        let s = &splats[si as usize];
                        let g = s.conic.gaussian_weight(px - s.center);
                        let raw_alpha = s.opacity * g;
                        let capped = raw_alpha > options.alpha_max;
                        let alpha = raw_alpha.min(options.alpha_max);
                        if alpha < options.alpha_min {
                            continue;
                        }
                        contribs.push((si, alpha, t, capped));
                        color += s.color * (t * alpha);
                        t *= 1.0 - alpha;
                        if t < options.t_min {
                            break;
                        }
                    }
                    color += options.background * t;
                    image.set_pixel(x, y, color);

                    let diff = color - reference.pixel(x, y);
                    mse_acc += (diff.x * diff.x + diff.y * diff.y + diff.z * diff.z) as f64;
                    let dl_dc = diff * norm; // ∂L/∂C (per channel)

                    // Backward: suffix S = Σ_{j>i} T_j α_j c_j + T_end·bg.
                    let mut suffix = options.background * t;
                    for &(si, alpha, t_before, capped) in contribs.iter().rev() {
                        let s = &splats[si as usize];
                        let pi = s.point_index as usize;
                        let w = t_before * alpha;
                        // Color gradient → SH DC. eval_color clamps at zero:
                        // channels sitting exactly at 0 pass no gradient.
                        const SH_C0: f32 = 0.282_094_79;
                        if s.color.x > 0.0 {
                            d_dc[pi][0] += dl_dc.x * w * SH_C0;
                        }
                        if s.color.y > 0.0 {
                            d_dc[pi][1] += dl_dc.y * w * SH_C0;
                        }
                        if s.color.z > 0.0 {
                            d_dc[pi][2] += dl_dc.z * w * SH_C0;
                        }
                        // Alpha gradient (zero when the clamp was active).
                        if !capped {
                            let dc_dalpha = s.color * t_before - suffix / (1.0 - alpha);
                            let g = alpha / s.opacity; // gaussian weight
                            d_opacity[pi] += dl_dc.dot(dc_dalpha) * g;
                        }
                        suffix += s.color * w;
                    }
                }
            }
        }
    }

    let mse = (mse_acc / (camera.width as f64 * camera.height as f64 * 3.0)) as f32;
    (image, mse, ImageGradients { d_opacity, d_dc })
}

/// Forward-only render used for gradient checking (same code path as
/// [`backward_mse`] without the backward bookkeeping).
pub fn forward_image(model: &GaussianModel, camera: &Camera, options: &RenderOptions) -> Image {
    ms_render::Renderer::new(options.clone())
        .render(model, camera)
        .image
}

#[allow(unused_imports)]
use ms_render::Renderer;

/// Helper shared by tests and the fine-tuner: splat count after projection.
pub fn visible_splats(
    model: &GaussianModel,
    camera: &Camera,
    options: &RenderOptions,
) -> Vec<ProjectedSplat> {
    project_model(model, camera, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_math::{Quat, Vec3};

    fn cam() -> Camera {
        Camera::look_at(48, 48, 60.0, Vec3::new(0.0, 0.0, 4.0), Vec3::zero())
    }

    fn two_splat_model() -> GaussianModel {
        let mut m = GaussianModel::new(0);
        m.push_solid(
            Vec3::new(-0.2, 0.0, 0.5),
            Vec3::splat(0.3),
            Quat::identity(),
            0.7,
            Vec3::new(0.9, 0.3, 0.2),
        );
        m.push_solid(
            Vec3::new(0.3, 0.1, -0.5),
            Vec3::splat(0.4),
            Quat::identity(),
            0.5,
            Vec3::new(0.2, 0.8, 0.4),
        );
        m
    }

    fn opts() -> RenderOptions {
        RenderOptions::default()
    }

    #[test]
    fn forward_matches_renderer() {
        let m = two_splat_model();
        let reference = Image::new(48, 48);
        let (img, _, _) = backward_mse(&m, &cam(), &reference, &opts());
        let direct = forward_image(&m, &cam(), &opts());
        assert!(img.mse(&direct) < 1e-12);
    }

    #[test]
    fn zero_loss_zero_gradients() {
        let m = two_splat_model();
        let reference = forward_image(&m, &cam(), &opts());
        let (_, mse, g) = backward_mse(&m, &cam(), &reference, &opts());
        assert!(mse < 1e-12);
        for &d in &g.d_opacity {
            assert!(d.abs() < 1e-6);
        }
    }

    /// Finite-difference check of the opacity gradient.
    #[test]
    fn opacity_gradient_matches_finite_difference() {
        let m = two_splat_model();
        let camera = cam();
        // Reference: a darker version of the scene, so gradients are nonzero.
        let reference = {
            let img = forward_image(&m, &camera, &opts());
            let mut dark = img.clone();
            for p in dark.pixels_mut() {
                *p *= 0.5;
            }
            dark
        };
        let (_, mse0, g) = backward_mse(&m, &camera, &reference, &opts());
        for i in 0..m.len() {
            let eps = 1e-3;
            let mut m2 = m.clone();
            m2.opacities[i] = (m2.opacities[i] + eps).min(1.0);
            let img2 = forward_image(&m2, &camera, &opts());
            let mse2 = img2.mse(&reference);
            let fd = (mse2 - mse0) / eps;
            let an = g.d_opacity[i];
            assert!(
                (fd - an).abs() < 0.05 * fd.abs().max(an.abs()).max(1e-4),
                "point {i}: fd {fd} vs analytic {an}"
            );
        }
    }

    /// Finite-difference check of the SH-DC gradient.
    #[test]
    fn dc_gradient_matches_finite_difference() {
        let m = two_splat_model();
        let camera = cam();
        let reference = {
            let img = forward_image(&m, &camera, &opts());
            let mut shifted = img.clone();
            for p in shifted.pixels_mut() {
                *p = (*p + Vec3::new(0.1, -0.05, 0.02)).max(Vec3::zero());
            }
            shifted
        };
        let (_, mse0, g) = backward_mse(&m, &camera, &reference, &opts());
        for i in 0..m.len() {
            for ch in 0..3 {
                let eps = 1e-3;
                let mut m2 = m.clone();
                m2.sh_mut(i)[ch] += eps;
                let mse2 = forward_image(&m2, &camera, &opts()).mse(&reference);
                let fd = (mse2 - mse0) / eps;
                let an = g.d_dc[i][ch];
                assert!(
                    (fd - an).abs() < 0.05 * fd.abs().max(an.abs()).max(1e-5),
                    "point {i} ch {ch}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn gradient_descent_step_reduces_loss() {
        let m = two_splat_model();
        let camera = cam();
        let mut target_model = m.clone();
        target_model.opacities[0] = 0.9;
        target_model.opacities[1] = 0.3;
        let reference = forward_image(&target_model, &camera, &opts());
        let (_, mse0, g) = backward_mse(&m, &camera, &reference, &opts());
        let mut m2 = m.clone();
        for i in 0..m2.len() {
            m2.opacities[i] = (m2.opacities[i] - 50.0 * g.d_opacity[i]).clamp(0.01, 0.99);
        }
        let mse1 = forward_image(&m2, &camera, &opts()).mse(&reference);
        assert!(
            mse1 < mse0,
            "descent step should reduce loss: {mse0} → {mse1}"
        );
    }
}
