//! Pinhole camera with the conventions the splatting renderer expects.

use ms_math::{deg_to_rad, Mat4, Vec2, Vec3};
use serde::{Deserialize, Serialize};

/// A pinhole camera.
///
/// View space is right-handed with the camera looking down **−Z**; image
/// space has the origin at the top-left pixel, +x right, +y down, matching
/// the 3DGS rasterizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Camera {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Vertical field of view in radians.
    pub fovy: f32,
    /// Camera position (world space).
    pub eye: Vec3,
    /// Look-at target (world space).
    pub target: Vec3,
    /// Up hint (world space).
    pub up: Vec3,
    /// Near clip plane distance.
    pub near: f32,
    /// Far clip plane distance.
    pub far: f32,
}

impl Camera {
    /// A camera looking at `target` from `eye`, with a vertical FOV given in
    /// degrees.
    ///
    /// # Panics
    ///
    /// Panics when the resolution is zero or the FOV is outside (0°, 180°).
    pub fn look_at(width: u32, height: u32, fovy_deg: f32, eye: Vec3, target: Vec3) -> Self {
        assert!(width > 0 && height > 0, "resolution must be non-zero");
        assert!(
            fovy_deg > 0.0 && fovy_deg < 180.0,
            "fovy {fovy_deg} out of range"
        );
        Self {
            width,
            height,
            fovy: deg_to_rad(fovy_deg),
            eye,
            target,
            up: Vec3::new(0.0, 1.0, 0.0),
            near: 0.05,
            far: 1_000.0,
        }
    }

    /// Aspect ratio (width / height).
    #[inline]
    pub fn aspect(&self) -> f32 {
        self.width as f32 / self.height as f32
    }

    /// Horizontal field of view in radians.
    pub fn fovx(&self) -> f32 {
        2.0 * ((self.fovy * 0.5).tan() * self.aspect()).atan()
    }

    /// Focal length in pixels along y.
    #[inline]
    pub fn focal_y(&self) -> f32 {
        self.height as f32 / (2.0 * (self.fovy * 0.5).tan())
    }

    /// Focal length in pixels along x.
    #[inline]
    pub fn focal_x(&self) -> f32 {
        // Square pixels: fx == fy; kept separate for clarity at call sites.
        self.focal_y()
    }

    /// World → view transform.
    pub fn view_matrix(&self) -> Mat4 {
        Mat4::look_at(self.eye, self.target, self.up)
    }

    /// Transform a world point to view space.
    pub fn world_to_view(&self, p: Vec3) -> Vec3 {
        self.view_matrix().transform_point(p).project()
    }

    /// Project a view-space point (with `z < 0` in front of the camera) to
    /// pixel coordinates. Returns `None` behind or at the camera plane.
    pub fn view_to_pixel(&self, v: Vec3) -> Option<Vec2> {
        if v.z >= -1e-6 {
            return None;
        }
        let depth = -v.z;
        let x = self.focal_x() * v.x / depth + self.width as f32 * 0.5;
        // +y down in image space, +y up in view space.
        let y = -self.focal_y() * v.y / depth + self.height as f32 * 0.5;
        Some(Vec2::new(x, y))
    }

    /// Project a world point to pixel coordinates (`None` if behind camera).
    pub fn world_to_pixel(&self, p: Vec3) -> Option<Vec2> {
        self.view_to_pixel(self.world_to_view(p))
    }

    /// The forward unit vector (from eye toward target).
    pub fn forward(&self) -> Vec3 {
        (self.target - self.eye).normalized()
    }

    /// Angular eccentricity (radians) of a pixel relative to a gaze point
    /// (both in pixel coordinates). This is the quantity foveated rendering
    /// keys off: pixels far from the gaze have high eccentricity and tolerate
    /// aggressive quality relaxation.
    pub fn pixel_eccentricity(&self, pixel: Vec2, gaze: Vec2) -> f32 {
        // Convert both pixels to unit view rays and measure the angle.
        let ray = |px: Vec2| {
            Vec3::new(
                (px.x - self.width as f32 * 0.5) / self.focal_x(),
                -(px.y - self.height as f32 * 0.5) / self.focal_y(),
                -1.0,
            )
            .normalized()
        };
        let a = ray(pixel);
        let b = ray(gaze);
        a.dot(b).clamp(-1.0, 1.0).acos()
    }

    /// Pixel-space gaze position at the image center.
    pub fn center_gaze(&self) -> Vec2 {
        Vec2::new(self.width as f32 * 0.5, self.height as f32 * 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_math::rad_to_deg;

    fn cam() -> Camera {
        Camera::look_at(640, 480, 60.0, Vec3::new(0.0, 0.0, 5.0), Vec3::zero())
    }

    #[test]
    fn target_projects_to_image_center() {
        let c = cam();
        let px = c.world_to_pixel(Vec3::zero()).unwrap();
        assert!((px.x - 320.0).abs() < 1e-3);
        assert!((px.y - 240.0).abs() < 1e-3);
    }

    #[test]
    fn point_behind_camera_is_none() {
        let c = cam();
        assert!(c.world_to_pixel(Vec3::new(0.0, 0.0, 10.0)).is_none());
    }

    #[test]
    fn up_is_up_in_image_space() {
        let c = cam();
        let px = c.world_to_pixel(Vec3::new(0.0, 1.0, 0.0)).unwrap();
        assert!(px.y < 240.0, "world +Y should be above center, got {px}");
    }

    #[test]
    fn right_is_right() {
        let c = cam();
        let px = c.world_to_pixel(Vec3::new(1.0, 0.0, 0.0)).unwrap();
        assert!(px.x > 320.0);
    }

    #[test]
    fn focal_length_matches_fov() {
        let c = cam();
        // Half image height subtends half fovy at distance focal_y.
        let half_angle = (240.0 / c.focal_y()).atan();
        assert!((rad_to_deg(half_angle) - 30.0).abs() < 1e-3);
    }

    #[test]
    fn eccentricity_zero_at_gaze() {
        let c = cam();
        let g = c.center_gaze();
        assert!(c.pixel_eccentricity(g, g) < 1e-6);
    }

    #[test]
    fn eccentricity_grows_with_distance() {
        let c = cam();
        let g = c.center_gaze();
        let e1 = c.pixel_eccentricity(Vec2::new(400.0, 240.0), g);
        let e2 = c.pixel_eccentricity(Vec2::new(600.0, 240.0), g);
        assert!(e2 > e1 && e1 > 0.0);
    }

    #[test]
    fn corner_eccentricity_at_60deg_fov() {
        let c = cam();
        let g = c.center_gaze();
        let corner = c.pixel_eccentricity(Vec2::new(0.0, 240.0), g);
        // Horizontal half-FOV for 4:3 at fovy=60° is atan(tan(30°)*4/3) ≈ 37.6°.
        assert!(
            (rad_to_deg(corner) - 37.59).abs() < 0.5,
            "got {}",
            rad_to_deg(corner)
        );
    }

    #[test]
    fn fovx_exceeds_fovy_for_wide_images() {
        let c = cam();
        assert!(c.fovx() > c.fovy);
    }

    #[test]
    #[should_panic]
    fn zero_resolution_rejected() {
        let _ = Camera::look_at(0, 480, 60.0, Vec3::zero(), Vec3::one());
    }
}
