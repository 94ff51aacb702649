//! Eccentricity maps and foveation quality regions.
//!
//! Eccentricity — the angular distance of a pixel from the gaze direction —
//! is the independent variable of foveated rendering. The paper divides the
//! visual field into four quality regions starting at 0°, 18°, 27° and 33°
//! eccentricity, "corresponding to about 13%, 17%, 21%, 49% of image pixels"
//! (§6); the default [`DisplayGeometry`] here reproduces those fractions.

use ms_math::{deg_to_rad, rad_to_deg, smoothstep, Vec2, Vec3};
use serde::{Deserialize, Serialize};

/// Geometry of the display the rendered image is viewed on.
///
/// Pixels are uniform on the (tangent) image plane; eccentricity is the
/// angle between a pixel's view ray and the gaze ray.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DisplayGeometry {
    /// Horizontal pixel count.
    pub width: u32,
    /// Vertical pixel count.
    pub height: u32,
    /// Horizontal field of view in degrees. The default experiments use
    /// 88°, which reproduces the paper's per-region pixel fractions.
    pub fovx_deg: f32,
}

impl DisplayGeometry {
    /// Construct a display.
    ///
    /// # Panics
    ///
    /// Panics when the resolution is zero or the FOV is outside (0°, 180°).
    pub fn new(width: u32, height: u32, fovx_deg: f32) -> Self {
        assert!(
            width > 0 && height > 0,
            "display resolution must be non-zero"
        );
        assert!((0.0..180.0).contains(&fovx_deg) && fovx_deg > 0.0);
        Self {
            width,
            height,
            fovx_deg,
        }
    }

    /// Focal length in pixels.
    pub fn focal_px(&self) -> f32 {
        self.width as f32 * 0.5 / deg_to_rad(self.fovx_deg * 0.5).tan()
    }

    /// Approximate pixels per degree at the display center.
    pub fn pixels_per_degree(&self) -> f32 {
        self.focal_px() * deg_to_rad(1.0)
    }

    /// Unit view ray of a pixel.
    fn ray(&self, px: Vec2) -> Vec3 {
        let f = self.focal_px();
        Vec3::new(
            (px.x - self.width as f32 * 0.5) / f,
            (px.y - self.height as f32 * 0.5) / f,
            1.0,
        )
        .normalized()
    }

    /// Eccentricity (degrees) of a pixel given a gaze point in pixels.
    pub fn eccentricity_deg(&self, pixel: Vec2, gaze: Vec2) -> f32 {
        let a = self.ray(pixel);
        let b = self.ray(gaze);
        rad_to_deg(a.dot(b).clamp(-1.0, 1.0).acos())
    }

    /// Display center (default gaze).
    pub fn center(&self) -> Vec2 {
        Vec2::new(self.width as f32 * 0.5, self.height as f32 * 0.5)
    }
}

/// Per-pixel eccentricity map for a fixed gaze.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EccentricityMap {
    display: DisplayGeometry,
    gaze: Vec2,
    /// Row-major eccentricities in degrees.
    ecc_deg: Vec<f32>,
}

impl EccentricityMap {
    /// Build the map for `display` with the gaze at `gaze` (pixels).
    pub fn new(display: DisplayGeometry, gaze: Vec2) -> Self {
        let mut ecc_deg = Vec::with_capacity((display.width * display.height) as usize);
        for y in 0..display.height {
            for x in 0..display.width {
                let px = Vec2::new(x as f32 + 0.5, y as f32 + 0.5);
                ecc_deg.push(display.eccentricity_deg(px, gaze));
            }
        }
        Self {
            display,
            gaze,
            ecc_deg,
        }
    }

    /// Build with the gaze at the display center.
    pub fn centered(display: DisplayGeometry) -> Self {
        Self::new(display, display.center())
    }

    /// The display geometry.
    pub fn display(&self) -> DisplayGeometry {
        self.display
    }

    /// Gaze position in pixels.
    pub fn gaze(&self) -> Vec2 {
        self.gaze
    }

    /// Eccentricity in degrees at pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics out of bounds.
    #[inline]
    pub fn at(&self, x: u32, y: u32) -> f32 {
        assert!(x < self.display.width && y < self.display.height);
        self.ecc_deg[(y * self.display.width + x) as usize]
    }

    /// Raw row-major eccentricity values.
    pub fn values(&self) -> &[f32] {
        &self.ecc_deg
    }
}

/// The eccentricity boundaries of the foveation quality levels.
///
/// `boundaries_deg[i]` is where level `i+1` starts (level indices are
/// 0-based here: level 0 = the paper's L1). The paper's configuration is
/// `[0, 18, 27, 33]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityRegions {
    boundaries_deg: Vec<f32>,
    /// Width (degrees) of the blend band straddling each boundary.
    pub blend_width_deg: f32,
}

impl QualityRegions {
    /// The paper's four-level configuration: 0°, 18°, 27°, 33°.
    pub fn paper_default() -> Self {
        Self::new(vec![0.0, 18.0, 27.0, 33.0], 2.0)
    }

    /// Custom boundaries (must start at 0 and increase strictly).
    ///
    /// # Panics
    ///
    /// Panics when boundaries are empty, more than 256 (levels are `u8`
    /// per pixel and per point), do not start at 0, or are not strictly
    /// increasing.
    pub fn new(boundaries_deg: Vec<f32>, blend_width_deg: f32) -> Self {
        assert!(!boundaries_deg.is_empty(), "need at least one region");
        assert!(boundaries_deg.len() <= 256, "at most 256 regions");
        assert_eq!(boundaries_deg[0], 0.0, "first region must start at 0°");
        assert!(
            boundaries_deg.windows(2).all(|w| w[0] < w[1]),
            "boundaries must increase"
        );
        assert!(blend_width_deg >= 0.0);
        Self {
            boundaries_deg,
            blend_width_deg,
        }
    }

    /// Number of quality levels.
    pub fn level_count(&self) -> usize {
        self.boundaries_deg.len()
    }

    /// Region boundaries in degrees.
    pub fn boundaries_deg(&self) -> &[f32] {
        &self.boundaries_deg
    }

    /// Quality level (0 = highest) for an eccentricity.
    pub fn level_of(&self, ecc_deg: f32) -> usize {
        let mut level = 0;
        for (i, &b) in self.boundaries_deg.iter().enumerate() {
            if ecc_deg >= b {
                level = i;
            }
        }
        level
    }

    /// Fraction of pixels in each level.
    pub fn level_fractions(&self, ecc: &EccentricityMap) -> Vec<f32> {
        let mut counts = vec![0usize; self.level_count()];
        for &e in ecc.values() {
            counts[self.level_of(e)] += 1;
        }
        let n = ecc.values().len() as f32;
        counts.iter().map(|&c| c as f32 / n).collect()
    }

    /// Blend weight toward the *next* level at a given eccentricity:
    /// 0 well inside a region, rising to 1 across the `blend_width_deg` band
    /// leading into the next boundary. Pixels in a blend band are rendered
    /// by both adjacent levels and interpolated — the paper's Blending stage
    /// ("about 25% of the pixels are to be blended", §4.1).
    pub fn blend_toward_next(&self, ecc_deg: f32) -> (usize, f32) {
        let level = self.level_of(ecc_deg);
        if level + 1 >= self.level_count() {
            return (level, 0.0);
        }
        let next_boundary = self.boundaries_deg[level + 1];
        let w = smoothstep(next_boundary - self.blend_width_deg, next_boundary, ecc_deg);
        (level, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn display() -> DisplayGeometry {
        DisplayGeometry::new(320, 240, 88.0)
    }

    #[test]
    fn eccentricity_zero_at_gaze() {
        let d = display();
        assert!(d.eccentricity_deg(d.center(), d.center()) < 1e-4);
    }

    #[test]
    fn eccentricity_at_horizontal_edge_is_half_fov() {
        let d = display();
        let e = d.eccentricity_deg(Vec2::new(0.0, 120.0), d.center());
        assert!((e - 44.0).abs() < 0.5, "edge ecc {e}");
    }

    #[test]
    fn region_fractions_match_paper() {
        // Paper §6: four regions ≈ 13%, 17%, 21%, 49% of pixels.
        let ecc = EccentricityMap::centered(display());
        let regions = QualityRegions::paper_default();
        let f = regions.level_fractions(&ecc);
        assert_eq!(f.len(), 4);
        assert!((f[0] - 0.13).abs() < 0.03, "R1 fraction {}", f[0]);
        assert!((f[1] - 0.17).abs() < 0.04, "R2 fraction {}", f[1]);
        assert!((f[2] - 0.21).abs() < 0.05, "R3 fraction {}", f[2]);
        assert!((f[3] - 0.49).abs() < 0.06, "R4 fraction {}", f[3]);
        assert!((f.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn level_of_boundaries() {
        let r = QualityRegions::paper_default();
        assert_eq!(r.level_of(0.0), 0);
        assert_eq!(r.level_of(17.9), 0);
        assert_eq!(r.level_of(18.0), 1);
        assert_eq!(r.level_of(26.9), 1);
        assert_eq!(r.level_of(27.0), 2);
        assert_eq!(r.level_of(33.0), 3);
        assert_eq!(r.level_of(80.0), 3);
    }

    #[test]
    fn blend_weight_rises_into_boundary() {
        let r = QualityRegions::paper_default();
        let (l, w0) = r.blend_toward_next(10.0);
        assert_eq!(l, 0);
        assert_eq!(w0, 0.0);
        let (_, w1) = r.blend_toward_next(17.0);
        assert!(w1 > 0.0 && w1 < 1.0);
        let (_, w2) = r.blend_toward_next(17.9);
        assert!(w2 > w1);
        // Last region never blends outward.
        let (l3, w3) = r.blend_toward_next(50.0);
        assert_eq!(l3, 3);
        assert_eq!(w3, 0.0);
    }

    #[test]
    fn blended_fraction_is_moderate() {
        // The paper reports ~25% of pixels blended; our default blend band
        // gives a nonzero fraction well below half.
        let ecc = EccentricityMap::centered(display());
        let mut r = QualityRegions::paper_default();
        r.blend_width_deg = 6.0;
        let e = ecc.values();
        let blended = e
            .iter()
            .filter(|&&e| r.blend_toward_next(e).1 > 0.0)
            .count();
        let f = blended as f32 / e.len() as f32;
        assert!(f > 0.05 && f < 0.5, "blended fraction {f}");
    }

    #[test]
    fn off_center_gaze_shifts_levels() {
        let d = display();
        let ecc = EccentricityMap::new(d, Vec2::new(60.0, 120.0));
        let r = QualityRegions::paper_default();
        let level = |x: usize, y: usize| r.level_of(ecc.values()[y * 320 + x]);
        // Pixel near gaze is level 0; far corner is level 3.
        assert_eq!(level(60, 120), 0);
        assert_eq!(level(319, 239), 3);
    }

    #[test]
    #[should_panic]
    fn regions_must_start_at_zero() {
        let _ = QualityRegions::new(vec![5.0, 20.0], 2.0);
    }

    #[test]
    #[should_panic]
    fn regions_must_increase() {
        let _ = QualityRegions::new(vec![0.0, 20.0, 15.0], 2.0);
    }

    #[test]
    #[should_panic(expected = "at most 256 regions")]
    fn more_than_256_regions_rejected() {
        // Levels are `u8` per pixel and per point: level 256 would wrap to 0.
        let boundaries = |n: usize| (0..n).map(|i| i as f32).collect::<Vec<_>>();
        assert_eq!(QualityRegions::new(boundaries(256), 0.5).level_count(), 256);
        let _ = QualityRegions::new(boundaries(257), 0.5);
    }

    #[test]
    fn pixels_per_degree_is_positive() {
        assert!(display().pixels_per_degree() > 1.0);
    }
}
