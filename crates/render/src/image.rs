//! Linear-RGB floating-point image.

use ms_math::Vec3;
use serde::{Deserialize, Serialize};

/// An RGB image with `f32` linear-light channels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Image {
    width: u32,
    height: u32,
    data: Vec<Vec3>,
}

impl Image {
    /// A black image of the given size.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        Self::filled(width, height, Vec3::zero())
    }

    /// An image filled with `color`.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn filled(width: u32, height: u32, color: Vec3) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        Self {
            width,
            height,
            data: vec![color; (width * height) as usize],
        }
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total pixel count.
    #[inline]
    pub fn pixel_count(&self) -> usize {
        self.data.len()
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn pixel(&self, x: u32, y: u32) -> Vec3 {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[(y * self.width + x) as usize]
    }

    /// Set the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set_pixel(&mut self, x: u32, y: u32, c: Vec3) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[(y * self.width + x) as usize] = c;
    }

    /// Raw pixel slice (row-major).
    #[inline]
    pub fn pixels(&self) -> &[Vec3] {
        &self.data
    }

    /// Mutable raw pixel slice (row-major).
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [Vec3] {
        &mut self.data
    }

    /// Clamp all channels to `[0, 1]`.
    pub fn clamped(&self) -> Self {
        let mut out = self.clone();
        for p in &mut out.data {
            *p = p.max(Vec3::zero()).min(Vec3::one());
        }
        out
    }

    /// Mean squared error against another image of identical dimensions.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn mse(&self, other: &Self) -> f32 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "image dimension mismatch"
        );
        let mut acc = 0.0f64;
        for (a, b) in self.data.iter().zip(&other.data) {
            let d = *a - *b;
            acc += (d.x * d.x + d.y * d.y + d.z * d.z) as f64;
        }
        (acc / (self.data.len() as f64 * 3.0)) as f32
    }

    /// Per-pixel luminance (Rec. 709 weights).
    pub fn luminance(&self) -> Vec<f32> {
        self.data
            .iter()
            .map(|p| 0.2126 * p.x + 0.7152 * p.y + 0.0722 * p.z)
            .collect()
    }

    /// Encode as a binary PPM (P6, 8-bit) for eyeballing outputs.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        for p in &self.data {
            let c = p.max(Vec3::zero()).min(Vec3::one());
            out.push((c.x * 255.0 + 0.5) as u8);
            out.push((c.y * 255.0 + 0.5) as u8);
            out.push((c.z * 255.0 + 0.5) as u8);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut img = Image::new(4, 3);
        assert_eq!(img.pixel_count(), 12);
        img.set_pixel(3, 2, Vec3::one());
        assert_eq!(img.pixel(3, 2), Vec3::one());
        assert_eq!(img.pixel(0, 0), Vec3::zero());
    }

    #[test]
    #[should_panic]
    fn zero_size_rejected() {
        let _ = Image::new(0, 4);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let img = Image::new(4, 3);
        let _ = img.pixel(4, 0);
    }

    #[test]
    fn mse_of_identical_is_zero() {
        let img = Image::filled(8, 8, Vec3::new(0.5, 0.2, 0.7));
        assert_eq!(img.mse(&img), 0.0);
    }

    #[test]
    fn mse_scales_with_difference() {
        let a = Image::filled(8, 8, Vec3::zero());
        let b = Image::filled(8, 8, Vec3::splat(0.5));
        assert!((a.mse(&b) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn clamp_bounds_channels() {
        let img = Image::filled(2, 2, Vec3::new(-1.0, 0.5, 3.0));
        let c = img.clamped();
        assert_eq!(c.pixel(0, 0), Vec3::new(0.0, 0.5, 1.0));
    }

    #[test]
    fn ppm_header_and_size() {
        let img = Image::new(5, 4);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n5 4\n255\n"));
        assert_eq!(ppm.len(), 11 + 5 * 4 * 3);
    }

    #[test]
    fn luminance_weights() {
        let img = Image::filled(1, 1, Vec3::new(1.0, 1.0, 1.0));
        let l = img.luminance();
        assert!((l[0] - 1.0).abs() < 1e-4);
    }
}
