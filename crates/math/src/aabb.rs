//! Axis-aligned bounding boxes and integer tile rectangles.

use crate::{Vec2, Vec3};
use serde::{Deserialize, Serialize};

/// 3-D axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb3 {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb3 {
    /// Construct from corners.
    #[inline]
    pub const fn new(min: Vec3, max: Vec3) -> Self {
        Self { min, max }
    }

    /// The smallest box containing every point of the iterator, or `None`
    /// when the iterator is empty.
    #[inline]
    pub fn from_points<I: IntoIterator<Item = Vec3>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut bb = Self::new(first, first);
        for p in it {
            bb.min = bb.min.min(p);
            bb.max = bb.max.max(p);
        }
        Some(bb)
    }

    /// Center of the box.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Width/height/depth.
    #[inline]
    pub fn size(&self) -> Vec3 {
        self.max - self.min
    }

    /// Length of the box diagonal; a common scene-scale normalizer.
    #[inline]
    pub fn diagonal(&self) -> f32 {
        self.size().length()
    }
}

/// Inclusive integer rectangle of tile coordinates `[x0, x1] × [y0, y1]`.
///
/// Produced by the projection stage for every splat: the set of pixel tiles
/// whose extent the splat's bounding circle overlaps. The number of tiles in
/// this rectangle is exactly the splat's *Comp* cost in the paper's
/// Computational-Efficiency metric (Eqn. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileRect {
    /// First tile column.
    pub x0: u32,
    /// First tile row.
    pub y0: u32,
    /// Last tile column (inclusive).
    pub x1: u32,
    /// Last tile row (inclusive).
    pub y1: u32,
}

impl TileRect {
    /// Compute the tile rectangle covered by a circle of radius `radius`
    /// centered at `center` (both in pixels) on a grid of `tiles_x × tiles_y`
    /// tiles of `tile_size` pixels. Returns `None` when the circle misses the
    /// image entirely.
    #[inline]
    pub fn from_circle(
        center: Vec2,
        radius: f32,
        tile_size: u32,
        tiles_x: u32,
        tiles_y: u32,
    ) -> Option<Self> {
        if tiles_x == 0 || tiles_y == 0 || radius < 0.0 {
            return None;
        }
        let ts = tile_size as f32;
        let min_x = ((center.x - radius) / ts).floor();
        let min_y = ((center.y - radius) / ts).floor();
        let max_x = ((center.x + radius) / ts).floor();
        let max_y = ((center.y + radius) / ts).floor();
        if max_x < 0.0 || max_y < 0.0 || min_x >= tiles_x as f32 || min_y >= tiles_y as f32 {
            return None;
        }
        Some(Self {
            x0: min_x.max(0.0) as u32,
            y0: min_y.max(0.0) as u32,
            x1: (max_x.min((tiles_x - 1) as f32)).max(0.0) as u32,
            y1: (max_y.min((tiles_y - 1) as f32)).max(0.0) as u32,
        })
    }

    /// Number of tiles in the rectangle.
    #[inline]
    pub fn tile_count(&self) -> u32 {
        (self.x1 - self.x0 + 1) * (self.y1 - self.y0 + 1)
    }

    /// Iterate over `(tx, ty)` tile coordinates in row-major order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (x0, x1) = (self.x0, self.x1);
        (self.y0..=self.y1).flat_map(move |ty| (x0..=x1).map(move |tx| (tx, ty)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn aabb3_from_points() {
        let bb = Aabb3::from_points([
            Vec3::new(1.0, 5.0, -1.0),
            Vec3::new(-2.0, 0.0, 3.0),
            Vec3::new(0.0, 1.0, 0.0),
        ])
        .unwrap();
        assert_eq!(bb.min, Vec3::new(-2.0, 0.0, -1.0));
        assert_eq!(bb.max, Vec3::new(1.0, 5.0, 3.0));
        assert!(Aabb3::from_points(std::iter::empty()).is_none());
    }

    #[test]
    fn tile_rect_small_circle_one_tile() {
        let r = TileRect::from_circle(Vec2::new(8.0, 8.0), 2.0, 16, 10, 10).unwrap();
        assert_eq!(r.tile_count(), 1);
        assert_eq!((r.x0, r.y0), (0, 0));
    }

    #[test]
    fn tile_rect_spanning_circle() {
        // Circle at a tile corner with radius > 0 touches 4 tiles.
        let r = TileRect::from_circle(Vec2::new(16.0, 16.0), 1.0, 16, 10, 10).unwrap();
        assert_eq!(r.tile_count(), 4);
    }

    #[test]
    fn tile_rect_off_screen_is_none() {
        assert!(TileRect::from_circle(Vec2::new(-100.0, -100.0), 5.0, 16, 10, 10).is_none());
        assert!(TileRect::from_circle(Vec2::new(1000.0, 8.0), 5.0, 16, 10, 10).is_none());
    }

    #[test]
    fn tile_rect_clamps_to_grid() {
        let r = TileRect::from_circle(Vec2::new(0.0, 0.0), 1e6, 16, 4, 3).unwrap();
        assert_eq!(r.tile_count(), 12);
    }

    #[test]
    fn tile_rect_iter_matches_count() {
        let r = TileRect {
            x0: 1,
            y0: 2,
            x1: 3,
            y1: 4,
        };
        assert_eq!(r.iter().count() as u32, r.tile_count());
    }

    proptest! {
        #[test]
        fn circle_tiles_cover_center(
            cx in 0.0f32..160.0, cy in 0.0f32..160.0, radius in 0.1f32..50.0,
        ) {
            let r = TileRect::from_circle(Vec2::new(cx, cy), radius, 16, 10, 10).unwrap();
            let tx = (cx / 16.0).floor().clamp(0.0, 9.0) as u32;
            let ty = (cy / 16.0).floor().clamp(0.0, 9.0) as u32;
            prop_assert!(r.x0 <= tx && tx <= r.x1);
            prop_assert!(r.y0 <= ty && ty <= r.y1);
        }

        #[test]
        fn bigger_radius_never_fewer_tiles(
            cx in 0.0f32..160.0, cy in 0.0f32..160.0, radius in 0.1f32..40.0,
        ) {
            let small = TileRect::from_circle(Vec2::new(cx, cy), radius, 16, 10, 10).unwrap();
            let big = TileRect::from_circle(Vec2::new(cx, cy), radius * 2.0, 16, 10, 10).unwrap();
            prop_assert!(big.tile_count() >= small.tile_count());
        }
    }
}
