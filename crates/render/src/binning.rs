//! Binning stage: per-tile splat lists, plus the occupancy-driven
//! tile-merge plan computed over their counts.
//!
//! Bins are stored in a flat CSR (compressed sparse row) layout — one
//! `Vec<u32>` of splat indices plus one `Vec<u32>` of per-tile offsets —
//! built counting-sort style in two passes over the splats. Compared to the
//! previous `Vec<Vec<u32>>` layout this is one allocation instead of one
//! per tile, and tile lists are contiguous in memory. Bin does not sort:
//! each list stays in ascending splat index, and whoever needs depth order
//! builds it from the same packed keys ([`depth_keys`]) — the Raster stage
//! only as deep as its pixels read, [`TileBins::depth_order`] in full.
//! The per-tile intersection counts that drive the paper's workload
//! analysis (and the accelerator simulator) are the offset deltas — the
//! renderer and the simulator share them by construction.
//!
//! [`merge_low_occupancy`] is the paper's §4.3 plan: a partition of the
//! tile grid into rectangular [`SuperTile`] units that coalesces
//! low-occupancy tiles. It is a pure function of the per-tile counts, used
//! to report post-merge imbalance; the Raster stage schedules tile rows.
//! `ARCHITECTURE.md` at the repository root documents the full layout.

use crate::projection::ProjectedSplat;
use crate::stats::TileGridDims;

/// Below this splat count per worker the CSR build (counting pass 1 and
/// the pass-2 scatter) runs serially even when more workers are
/// requested — the per-task overhead would exceed the work itself.
/// Sharding never changes the output, only the wall time.
const MIN_SPLATS_PER_SHARD: usize = 512;

/// Count tile-ellipse intersections for `splats[range]` into `counts`
/// (indexed row-major, masked by `active`).
fn count_range(
    splats: &[ProjectedSplat],
    range: std::ops::Range<usize>,
    tiles_x: u32,
    active: &[bool],
    counts: &mut [u32],
) {
    for splat in &splats[range] {
        for (tx, ty) in splat.tiles.iter() {
            let idx = (ty * tiles_x + tx) as usize;
            counts[idx] += active[idx] as u32;
        }
    }
}

/// Pass-2 scatter: write each splat's index into its tiles' CSR segments.
///
/// `parts` holds one absolute per-tile cursor array per shard — shard `w`
/// walks the `w`-th contiguous range of `splats` (the same ranges its
/// pass-1 counts came from) and writes each splat's index at its cursors.
/// Cursor ranges per tile are disjoint and ordered by shard index, so each
/// tile segment fills in splat order.
fn scatter_shards(
    splats: &[ProjectedSplat],
    tiles_x: u32,
    active: &[bool],
    shards: usize,
    mut parts: Vec<Vec<u32>>,
    indices: &mut [u32],
) {
    if shards <= 1 {
        let cursor = &mut parts[0];
        for (si, splat) in splats.iter().enumerate() {
            for (tx, ty) in splat.tiles.iter() {
                let idx = (ty * tiles_x + tx) as usize;
                if active[idx] {
                    indices[cursor[idx] as usize] = si as u32;
                    cursor[idx] += 1;
                }
            }
        }
        return;
    }
    // Shards write through a shared raw pointer; the slot sets are
    // disjoint (argued above), so the writes cannot race.
    struct IndexPtr(*mut u32);
    unsafe impl Sync for IndexPtr {}
    let out = IndexPtr(indices.as_mut_ptr());
    let out = &out;
    rayon::scope(|s| {
        for (w, mut cursor) in parts.into_iter().enumerate() {
            s.spawn(move |_| {
                let range = crate::par::shard_range(splats.len(), shards, w);
                let start = range.start;
                for (off, splat) in splats[range].iter().enumerate() {
                    for (tx, ty) in splat.tiles.iter() {
                        let idx = (ty * tiles_x + tx) as usize;
                        if active[idx] {
                            // SAFETY: `cursor[idx]` stays inside this
                            // shard's slot range for tile `idx`,
                            // disjoint from every other shard's.
                            unsafe {
                                *out.0.add(cursor[idx] as usize) = (start + off) as u32;
                            }
                            cursor[idx] += 1;
                        }
                    }
                }
            });
        }
    });
}

/// Order-preserving map of a depth onto `u32`: `depth_key(a) <
/// depth_key(b)` exactly when `a.total_cmp(&b)` is `Less`, −0.0 before
/// +0.0 and NaNs at the ends by sign included. Negative floats have every
/// bit flipped (larger magnitude sorts first); the rest get the sign bit
/// set, which lifts them above every negative key.
#[inline]
fn depth_key(depth: f32) -> u32 {
    let bits = depth.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

/// Fill `keys` with one packed `depth_key(depth) << 32 | index` key per
/// entry of the tile list `seg` (indices into `splats`).
///
/// Ascending keys are the tile's front-to-back order: depth under
/// `f32::total_cmp`, equal depths by ascending splat index — the order a
/// stable depth sort of the ascending-index list gives. Keys are unique,
/// so every sort or selection over them has one result, and a key's low
/// half is its splat index.
pub(crate) fn depth_keys(splats: &[ProjectedSplat], seg: &[u32], keys: &mut Vec<u64>) {
    keys.clear();
    keys.extend(
        seg.iter()
            .map(|&i| (depth_key(splats[i as usize].depth) as u64) << 32 | i as u64),
    );
}

/// Per-tile splat index lists in a flat CSR layout.
///
/// Indices refer into the `Vec<ProjectedSplat>` the bins were built from.
/// Tile `(tx, ty)`'s list is `indices[offsets[i]..offsets[i+1]]` with
/// `i = ty * tiles_x + tx`. Each list is in ascending splat index — the
/// scatter order — not in depth order; [`TileBins::depth_order`] gives a
/// tile's front-to-back order, and the Raster stage orders each list only
/// as deep as its pixels read.
#[derive(Debug, Clone, PartialEq)]
pub struct TileBins {
    grid: TileGridDims,
    /// Row-major per-tile start offsets into `indices`; `tile_count() + 1`
    /// entries, with `offsets[tile_count()] == indices.len()`.
    offsets: Vec<u32>,
    /// Concatenated per-tile splat index lists, each in ascending index.
    indices: Vec<u32>,
}

impl TileBins {
    /// Serial all-tiles build: [`TileBins::build_into`] with every tile
    /// active, one thread and fresh storage.
    pub fn build(splats: &[ProjectedSplat], grid: TileGridDims) -> Self {
        let active = vec![true; grid.tile_count()];
        Self::build_into(splats, grid, &active, 1, (Vec::new(), Vec::new()))
    }

    /// Duplicate each splat into every tile its bounding rectangle
    /// overlaps, each tile's list in ascending splat index.
    ///
    /// Only tiles with `active[tile]` set (row-major, one entry per tile)
    /// receive splats; duplications into inactive tiles are skipped
    /// entirely — this is the foveation Filtering stage: a quality level
    /// only pays for the tiles inside its region (plus blend bands).
    ///
    /// Counting pass 1 and the pass-2 scatter run on `threads` workers; `0`
    /// and `1` both run serially, so callers pass
    /// [`RenderOptions::resolved_threads`](crate::RenderOptions::resolved_threads).
    /// The result is bit-identical for every thread count: per-worker count
    /// arrays merge before the prefix sum, and the scatter gives each
    /// worker cursor bases into disjoint per-tile slot ranges ordered by
    /// shard index, so the segments still fill in splat order.
    ///
    /// The CSR is built into the recycled `(offsets, indices)` storage
    /// (from [`TileBins::into_buffers`], via a
    /// [`FrameArena`](crate::FrameArena)); contents are rebuilt from
    /// scratch, so only the capacity is reused.
    ///
    /// # Panics
    ///
    /// Panics when `active` does not have one entry per tile.
    pub fn build_into(
        splats: &[ProjectedSplat],
        grid: TileGridDims,
        active: &[bool],
        threads: usize,
        (mut offsets, mut indices): (Vec<u32>, Vec<u32>),
    ) -> Self {
        let tile_count = grid.tile_count();
        assert_eq!(active.len(), tile_count, "tile activity size mismatch");
        let shards = threads.min(splats.len() / MIN_SPLATS_PER_SHARD).max(1);

        // Pass 1: count intersections per tile. Sharded over contiguous
        // splat ranges, one count array per worker. The per-shard arrays
        // are kept: pass 2 turns them into per-shard cursor bases.
        let mut parts = crate::par::shard_map(splats.len(), shards, |range| {
            let mut part = vec![0u32; tile_count];
            count_range(splats, range, grid.tiles_x, active, &mut part);
            part
        });

        // Exclusive prefix sum over the merged counts → CSR offsets. The
        // merge sums exact integers, so shard count cannot change it.
        offsets.clear();
        offsets.reserve(tile_count + 1);
        let mut running = 0u32;
        offsets.push(0);
        for t in 0..tile_count {
            for part in &parts {
                running = running
                    .checked_add(part[t])
                    .expect("tile-intersection count overflows u32 CSR offsets");
            }
            offsets.push(running);
        }

        // Pass 2: scatter splat indices to their tile segments. Each shard
        // walks the same contiguous splat range its pass-1 counts came
        // from; its per-tile cursor starts at `offsets[t]` plus the counts
        // of every earlier shard. Shard slot ranges per tile are therefore
        // disjoint and ordered by shard index, and each shard fills its
        // range in model order — so the concatenation is exactly the old
        // serial walk's model-order fill, bit-identical for every shard
        // count.
        indices.clear();
        indices.resize(running as usize, 0);
        // Turn each shard's counts into its absolute start cursors.
        let mut base = vec![0u32; tile_count];
        for part in parts.iter_mut() {
            for (t, c) in part.iter_mut().enumerate() {
                let count = *c;
                *c = offsets[t] + base[t];
                base[t] += count;
            }
        }
        scatter_shards(splats, grid.tiles_x, active, shards, parts, &mut indices);

        Self {
            grid,
            offsets,
            indices,
        }
    }

    /// Reference implementation with the old nested `Vec<Vec<u32>>` layout,
    /// each list depth-sorted front-to-back with a stable sort under
    /// `f32::total_cmp`.
    ///
    /// Kept as the reference order for the equivalence tests (of
    /// [`TileBins::depth_order`] and of the Raster stage's on-demand order)
    /// and as the baseline of the `binning` benchmark; not used on the
    /// render path.
    pub fn build_naive(
        splats: &[ProjectedSplat],
        grid: TileGridDims,
        active: &[bool],
    ) -> Vec<Vec<u32>> {
        let mut bins: Vec<Vec<u32>> = vec![Vec::new(); grid.tile_count()];
        for (si, splat) in splats.iter().enumerate() {
            for (tx, ty) in splat.tiles.iter() {
                let idx = (ty * grid.tiles_x + tx) as usize;
                if active[idx] {
                    bins[idx].push(si as u32);
                }
            }
        }
        for bin in &mut bins {
            bin.sort_by(|&a, &b| {
                splats[a as usize]
                    .depth
                    .total_cmp(&splats[b as usize].depth)
            });
        }
        bins
    }

    /// Tile-grid geometry.
    #[inline]
    pub fn grid(&self) -> TileGridDims {
        self.grid
    }

    /// Splat indices listed on tile `(tx, ty)`, in ascending index.
    ///
    /// # Panics
    ///
    /// Panics when the tile coordinate is out of the grid.
    #[inline]
    pub fn tile(&self, tx: u32, ty: u32) -> &[u32] {
        assert!(
            tx < self.grid.tiles_x && ty < self.grid.tiles_y,
            "tile out of grid"
        );
        let i = (ty * self.grid.tiles_x + tx) as usize;
        &self.indices[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterate all tile segments in row-major order, each in ascending
    /// index, without the per-tile index arithmetic and bounds checks of
    /// repeated [`TileBins::tile`] calls.
    #[inline]
    pub fn iter_tiles(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.offsets
            .windows(2)
            .map(move |w| &self.indices[w[0] as usize..w[1] as usize])
    }

    /// Tile `(tx, ty)`'s splat indices in front-to-back order: its list
    /// sorted on packed `depth_key << 32 | index` keys, so by depth under
    /// `f32::total_cmp` with equal depths by ascending index. `splats` must be the slice the
    /// bins were built from. This is the order the Raster stage composites
    /// in; it orders only the prefix its pixels read.
    ///
    /// # Panics
    ///
    /// Panics when the tile coordinate is out of the grid.
    pub fn depth_order(&self, splats: &[ProjectedSplat], tx: u32, ty: u32) -> Vec<u32> {
        let mut keys = Vec::new();
        depth_keys(splats, self.tile(tx, ty), &mut keys);
        keys.sort_unstable();
        keys.into_iter().map(|key| key as u32).collect()
    }

    /// CSR per-tile offsets (row-major, `tile_count() + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Concatenated per-tile splat indices, each tile's in ascending index
    /// — every entry is one tile-ellipse intersection.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Intersection count per tile (row-major): the CSR offset deltas.
    pub fn intersection_counts(&self) -> Vec<u32> {
        self.offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Total tile-ellipse intersections.
    pub fn total_intersections(&self) -> u64 {
        self.indices.len() as u64
    }

    /// Tear the CSR arrays out of the bins so a recycled
    /// [`FrameArena`](crate::FrameArena) can hand their capacity to the
    /// next frame's build; contents are rebuilt from scratch there.
    pub fn into_buffers(self) -> (Vec<u32>, Vec<u32>) {
        (self.offsets, self.indices)
    }
}

/// One raster work unit: an axis-aligned rectangle of tiles,
/// `[tx0, tx1) × [ty0, ty1)` in tile coordinates.
///
/// A single tile is the degenerate `1 × 1` rectangle; a tile row (the
/// Raster stage's work unit) is `[0, tiles_x) × [ty, ty + 1)`. Rasterizing
/// a unit composites every pixel against *its own tile's* CSR list — the
/// rectangle only groups tiles into one scheduling slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperTile {
    /// First tile column (inclusive).
    pub tx0: u32,
    /// First tile row (inclusive).
    pub ty0: u32,
    /// Past-the-end tile column (exclusive).
    pub tx1: u32,
    /// Past-the-end tile row (exclusive).
    pub ty1: u32,
}

impl SuperTile {
    /// Number of tiles covered by the rectangle.
    pub fn tile_count(&self) -> usize {
        (self.tx1 - self.tx0) as usize * (self.ty1 - self.ty0) as usize
    }

    /// Whether the rectangle covers tile `(tx, ty)`.
    pub fn contains(&self, tx: u32, ty: u32) -> bool {
        (self.tx0..self.tx1).contains(&tx) && (self.ty0..self.ty1).contains(&ty)
    }

    /// Tiles of the rectangle in row-major order.
    pub fn tiles(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (self.ty0..self.ty1).flat_map(move |ty| (self.tx0..self.tx1).map(move |tx| (tx, ty)))
    }
}

/// Occupancy fraction below which a tile is mergeable in the §4.3 plan
/// [`RenderStats::unit_intersections`](crate::RenderStats::unit_intersections)
/// reports: tiles under half the mean occupancy merge (see
/// [`merge_low_occupancy`]).
pub const MERGE_THRESHOLD: f32 = 0.5;

/// Side cap, in tiles, of a super-tile in the §4.3 plan
/// [`RenderStats::unit_intersections`](crate::RenderStats::unit_intersections)
/// reports: units span at most 4×4 tiles.
pub const MERGE_MAX_EXTENT: u32 = 4;

/// The occupancy-driven tile-merge plan of the paper's §4.3, over the
/// per-tile intersection `counts` (row-major, one entry per tile of
/// `grid`): an ordered partition of the grid into [`SuperTile`] units.
///
/// This is an analysis of a frame's workload, not a raster schedule — the
/// Raster stage always runs one unit per tile row. A tile is *mergeable*
/// when its count is below `threshold × mean` occupancy (empty tiles
/// always are). The scan walks tiles row-major; at each unclaimed mergeable
/// tile it greedily grows a rectangle — first rightward, then row by row
/// downward — absorbing only unclaimed mergeable tiles, bounded by
/// `max_extent` tiles per side *and* by the mean occupancy: growth stops
/// before the unit's cumulative count would exceed the grid mean. Dense
/// tiles become singleton units. The cumulative cap gives the balance
/// guarantee behind the fig09 claim: every multi-tile unit carries at most
/// `mean` intersections, so the plan's maximum stays the densest tile while
/// the unit count strictly drops whenever anything merges — max/mean per
/// work unit can only improve.
///
/// Invariants (checked by the partition property test): every tile belongs
/// to **exactly one** unit, and units are emitted in row-major scan order
/// of their anchor tile, so the plan is a pure function of its inputs.
///
/// # Panics
///
/// Panics when `max_extent` is 0 or `counts` does not have one entry per
/// tile.
pub fn merge_low_occupancy(
    grid: TileGridDims,
    counts: &[u32],
    threshold: f32,
    max_extent: u32,
) -> Vec<SuperTile> {
    assert!(max_extent >= 1, "max_extent must be >= 1");
    let (tiles_x, tiles_y) = (grid.tiles_x, grid.tiles_y);
    let tile_count = grid.tile_count();
    assert_eq!(counts.len(), tile_count, "tile count mismatch");
    let count = |tx: u32, ty: u32| counts[ty as usize * tiles_x as usize + tx as usize] as u64;
    let total: u64 = counts.iter().map(|&c| c as u64).sum();
    let mean = total as f64 / tile_count.max(1) as f64;
    let low = threshold as f64 * mean;
    let mergeable = |tx: u32, ty: u32| {
        let c = count(tx, ty);
        c == 0 || (c as f64) < low
    };

    let mut taken = vec![false; tile_count];
    let mut units = Vec::new();
    for ty in 0..tiles_y {
        for tx in 0..tiles_x {
            let anchor = ty as usize * tiles_x as usize + tx as usize;
            if taken[anchor] {
                continue;
            }
            if !mergeable(tx, ty) {
                taken[anchor] = true;
                units.push(SuperTile {
                    tx0: tx,
                    ty0: ty,
                    tx1: tx + 1,
                    ty1: ty + 1,
                });
                continue;
            }
            // Grow rightward while the row stays mergeable and the
            // cumulative count stays under the mean.
            let mut sum = count(tx, ty);
            let mut w = 1u32;
            while tx + w < tiles_x && w < max_extent {
                let nx = tx + w;
                if taken[ty as usize * tiles_x as usize + nx as usize]
                    || !mergeable(nx, ty)
                    || (sum + count(nx, ty)) as f64 > mean
                {
                    break;
                }
                sum += count(nx, ty);
                w += 1;
            }
            // Grow downward a full row at a time: a row joins only if
            // every tile under the rectangle is unclaimed and mergeable.
            let mut h = 1u32;
            'rows: while ty + h < tiles_y && h < max_extent {
                let ny = ty + h;
                let mut row_sum = 0u64;
                for x in tx..tx + w {
                    if taken[ny as usize * tiles_x as usize + x as usize] || !mergeable(x, ny) {
                        break 'rows;
                    }
                    row_sum += count(x, ny);
                }
                if (sum + row_sum) as f64 > mean {
                    break;
                }
                sum += row_sum;
                h += 1;
            }
            for y in ty..ty + h {
                for x in tx..tx + w {
                    taken[y as usize * tiles_x as usize + x as usize] = true;
                }
            }
            units.push(SuperTile {
                tx0: tx,
                ty0: ty,
                tx1: tx + w,
                ty1: ty + h,
            });
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{RenderOptions, TILE_SIZE};
    use crate::projection::project_model;
    use ms_math::{Quat, Vec3};
    use ms_scene::{Camera, GaussianModel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid() -> TileGridDims {
        TileGridDims::for_image(128, 128)
    }

    fn scene() -> (GaussianModel, Camera) {
        let mut m = GaussianModel::new(0);
        // Far red splat then near green splat, both centered.
        m.push_solid(
            Vec3::new(0.0, 0.0, -1.0),
            Vec3::splat(0.3),
            Quat::identity(),
            0.8,
            Vec3::new(1.0, 0.0, 0.0),
        );
        m.push_solid(
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::splat(0.3),
            Quat::identity(),
            0.8,
            Vec3::new(0.0, 1.0, 0.0),
        );
        let cam = Camera::look_at(128, 128, 60.0, Vec3::new(0.0, 0.0, 4.0), Vec3::zero());
        (m, cam)
    }

    /// Assert every tile of `csr` lists its splats in ascending index and
    /// that [`TileBins::depth_order`] equals `naive`'s stable depth sort.
    fn assert_matches_naive(
        csr: &TileBins,
        naive: &[Vec<u32>],
        splats: &[ProjectedSplat],
        what: &str,
    ) {
        let g = csr.grid();
        for ty in 0..g.tiles_y {
            for tx in 0..g.tiles_x {
                let seg = csr.tile(tx, ty);
                assert!(
                    seg.windows(2).all(|w| w[0] < w[1]),
                    "{what}: tile ({tx},{ty}) not in ascending index"
                );
                assert_eq!(
                    csr.depth_order(splats, tx, ty),
                    naive[(ty * g.tiles_x + tx) as usize],
                    "{what}: tile ({tx},{ty}) depth order"
                );
            }
        }
    }

    #[test]
    fn segments_ascend_by_index_and_depth_order_matches_naive() {
        let (m, cam) = scene();
        let splats = project_model(&m, &cam, &RenderOptions::default());
        let bins = TileBins::build(&splats, grid());
        // The far (red) splat is listed first, the near (green) one is
        // composited first.
        let center = bins.tile(4, 4);
        assert_eq!(center.len(), 2);
        assert_eq!(splats[center[0] as usize].point_index, 0);
        let order = bins.depth_order(&splats, 4, 4);
        assert_eq!(splats[order[0] as usize].point_index, 1);
        let naive = TileBins::build_naive(&splats, grid(), &[true; 64]);
        assert_matches_naive(&bins, &naive, &splats, "scene");
        // Tie-heavy depths (±0.0, ±inf, ±NaN, repeats) break ties by index.
        let mut rng = StdRng::seed_from_u64(5);
        let splats = random_splats(&mut rng, 600, grid(), tied_depth);
        let naive = TileBins::build_naive(&splats, grid(), &[true; 64]);
        assert_matches_naive(&TileBins::build(&splats, grid()), &naive, &splats, "ties");
    }

    #[test]
    fn total_intersections_matches_tile_rects() {
        let (m, cam) = scene();
        let splats = project_model(&m, &cam, &RenderOptions::default());
        let bins = TileBins::build(&splats, grid());
        let expected: u64 = splats.iter().map(|s| s.tile_count() as u64).sum();
        assert_eq!(bins.total_intersections(), expected);
    }

    #[test]
    fn counts_match_bins() {
        let (m, cam) = scene();
        let splats = project_model(&m, &cam, &RenderOptions::default());
        let bins = TileBins::build(&splats, grid());
        let counts = bins.intersection_counts();
        assert_eq!(counts.len(), 64);
        assert_eq!(
            counts.iter().map(|&c| c as u64).sum::<u64>(),
            bins.total_intersections()
        );
        // Offsets are monotone and bracket the index array.
        assert_eq!(bins.offsets().len(), 65);
        assert!(bins.offsets().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            *bins.offsets().last().unwrap() as usize,
            bins.indices().len()
        );
    }

    #[test]
    fn empty_splats_empty_bins() {
        let bins = TileBins::build(&[], grid());
        assert_eq!(bins.total_intersections(), 0);
        assert!(bins.tile(0, 0).is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_grid_tile_panics() {
        let bins = TileBins::build(&[], grid());
        let _ = bins.tile(8, 0);
    }

    /// Row-major tile-activity slice from a per-tile predicate.
    fn activity(g: TileGridDims, active: impl Fn(u32, u32) -> bool) -> Vec<bool> {
        (0..g.tiles_y)
            .flat_map(|ty| (0..g.tiles_x).map(move |tx| (tx, ty)))
            .map(|(tx, ty)| active(tx, ty))
            .collect()
    }

    /// Depths spread over `0.1..50.0`: ties essentially never occur.
    fn spread_depth(rng: &mut StdRng) -> f32 {
        rng.gen_range(0.1..50.0f32)
    }

    /// Depths from a handful of values, ±0.0 and both NaN signs among
    /// them: most of a tile's list ties with other entries, so the result
    /// depends on how the sort breaks ties.
    fn tied_depth(rng: &mut StdRng) -> f32 {
        const DEPTHS: [f32; 8] = [-0.0, 0.0, 1.0, 2.5, 7.0, f32::INFINITY, f32::NAN, -f32::NAN];
        DEPTHS[rng.gen_range(0..DEPTHS.len())]
    }

    /// Random splat sets for the CSR-vs-naive equivalence property.
    fn random_splats(
        rng: &mut StdRng,
        n: usize,
        g: TileGridDims,
        depth: fn(&mut StdRng) -> f32,
    ) -> Vec<ProjectedSplat> {
        use ms_math::{Conic2, TileRect, Vec2};
        (0..n)
            .filter_map(|i| {
                let cx = rng.gen_range(-10.0..g.width as f32 + 10.0);
                let cy = rng.gen_range(-10.0..g.height as f32 + 10.0);
                let radius = rng.gen_range(0.5..60.0f32);
                let tiles = TileRect::from_circle(
                    Vec2::new(cx, cy),
                    radius,
                    TILE_SIZE,
                    g.tiles_x,
                    g.tiles_y,
                )?;
                Some(ProjectedSplat {
                    point_index: i as u32,
                    center: Vec2::new(cx, cy),
                    conic: Conic2 {
                        a: 1.0,
                        b: 0.0,
                        c: 1.0,
                    },
                    depth: depth(rng),
                    color: ms_math::Vec3::splat(0.5),
                    opacity: 0.9,
                    tiles,
                })
            })
            .collect()
    }

    #[test]
    fn csr_equals_naive_on_random_splat_sets() {
        let g = grid();
        let mut rng = StdRng::seed_from_u64(2024);
        for round in 0..100 {
            let n = rng.gen_range(0usize..400);
            let depth = if round % 2 == 0 {
                spread_depth
            } else {
                tied_depth
            };
            let splats = random_splats(&mut rng, n, g, depth);
            // Unfiltered and checkerboard-filtered builds must both match.
            for parity in [None, Some(0u32), Some(1u32)] {
                let active = activity(g, |tx, ty| match parity {
                    None => true,
                    Some(p) => (tx + ty) % 2 == p,
                });
                let csr = TileBins::build_into(&splats, g, &active, 1, Default::default());
                let naive = TileBins::build_naive(&splats, g, &active);
                let what = format!("round {round} parity {parity:?}");
                assert_matches_naive(&csr, &naive, &splats, &what);
                let counts = csr.intersection_counts();
                for (i, bin) in naive.iter().enumerate() {
                    assert_eq!(counts[i] as usize, bin.len());
                }
                assert_eq!(
                    csr.total_intersections(),
                    naive.iter().map(|b| b.len() as u64).sum::<u64>()
                );
            }
        }
    }

    #[test]
    fn threaded_build_is_bit_identical_to_serial() {
        // Enough splats to shard (above MIN_SPLATS_PER_SHARD per worker).
        let g = grid();
        let mut rng = StdRng::seed_from_u64(77);
        let all = activity(g, |_, _| true);
        for depth in [spread_depth, tied_depth] {
            let splats = random_splats(&mut rng, 5000, g, depth);
            let serial = TileBins::build(&splats, g);
            let naive = TileBins::build_naive(&splats, g, &all);
            assert_matches_naive(&serial, &naive, &splats, "serial");
            for threads in [2usize, 3, 8, rayon::current_num_threads()] {
                let par = TileBins::build_into(&splats, g, &all, threads, Default::default());
                assert_eq!(par, serial, "CSR bins differ at threads={threads}");
            }
        }
    }

    #[test]
    fn depth_key_orders_like_total_cmp() {
        let mut depths = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            f32::MIN_POSITIVE / 2.0,
            1.0,
            f32::MAX,
            f32::MIN,
        ];
        let mut rng = StdRng::seed_from_u64(11);
        depths.extend((0..2000).map(|_| f32::from_bits(rng.gen_range(0..=u32::MAX))));
        for &a in &depths {
            for &b in &depths[..40] {
                assert_eq!(
                    depth_key(a).cmp(&depth_key(b)),
                    a.total_cmp(&b),
                    "{a:?} ({:#x}) vs {b:?} ({:#x})",
                    a.to_bits(),
                    b.to_bits()
                );
            }
        }
        let mut by_key = depths.clone();
        by_key.sort_by_key(|&d| depth_key(d));
        depths.sort_by(f32::total_cmp);
        let bits = |v: &[f32]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&by_key), bits(&depths));
    }

    #[test]
    fn threaded_filtered_build_is_bit_identical_to_serial() {
        let g = grid();
        let mut rng = StdRng::seed_from_u64(78);
        let splats = random_splats(&mut rng, 4000, g, spread_depth);
        let active = activity(g, |tx, ty| (tx + ty) % 2 == 0);
        let serial = TileBins::build_into(&splats, g, &active, 1, Default::default());
        for threads in [2usize, 3, 8, rayon::current_num_threads()] {
            // Recycled storage holding a different frame's CSR must not leak.
            let recycle = serial.clone().into_buffers();
            let par = TileBins::build_into(&splats, g, &active, threads, recycle);
            assert_eq!(par, serial, "filtered bins differ at threads={threads}");
        }
    }

    #[test]
    fn iter_tiles_matches_indexed_access() {
        let (m, cam) = scene();
        let splats = project_model(&m, &cam, &RenderOptions::default());
        let g = grid();
        let bins = TileBins::build(&splats, g);
        let mut count = 0usize;
        for (i, seg) in bins.iter_tiles().enumerate() {
            let (tx, ty) = (i as u32 % g.tiles_x, i as u32 / g.tiles_x);
            assert_eq!(seg, bins.tile(tx, ty));
            count += 1;
        }
        assert_eq!(count, g.tile_count());
    }

    /// Max/mean ratio of a work-unit count list (1.0 when empty/zero).
    fn ratio(counts: &[u32]) -> f64 {
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        if counts.is_empty() || total == 0 {
            return 1.0;
        }
        let mean = total as f64 / counts.len() as f64;
        counts.iter().copied().max().unwrap() as f64 / mean
    }

    /// Per-unit intersection counts of a plan over `bins`.
    fn unit_counts(units: &[SuperTile], bins: &TileBins) -> Vec<u32> {
        let counts = bins.intersection_counts();
        let tiles_x = bins.grid().tiles_x;
        let tile = |(tx, ty): (u32, u32)| counts[(ty * tiles_x + tx) as usize];
        units.iter().map(|u| u.tiles().map(tile).sum()).collect()
    }

    /// The plan over `bins`' per-tile counts.
    fn plan(bins: &TileBins, threshold: f32, max_extent: u32) -> Vec<SuperTile> {
        merge_low_occupancy(
            bins.grid(),
            &bins.intersection_counts(),
            threshold,
            max_extent,
        )
    }

    /// Assert `units` partition `g`: every tile in exactly one unit.
    fn assert_partition(units: &[SuperTile], g: TileGridDims) {
        let mut covered = vec![0u32; g.tile_count()];
        for unit in units {
            assert!(unit.tx0 < unit.tx1 && unit.ty0 < unit.ty1, "empty unit");
            assert!(
                unit.tx1 <= g.tiles_x && unit.ty1 <= g.tiles_y,
                "unit out of grid"
            );
            for (tx, ty) in unit.tiles() {
                covered[(ty * g.tiles_x + tx) as usize] += 1;
            }
        }
        assert!(
            covered.iter().all(|&c| c == 1),
            "plan must cover every tile exactly once"
        );
    }

    #[test]
    fn merge_plan_partitions_random_splat_sets() {
        // Property: for random splat sets, thresholds and extents, every
        // tile — and therefore every splat-tile intersection — lands in
        // exactly one super-tile, and the per-unit counts conserve the
        // total intersection count.
        let g = grid();
        let mut rng = StdRng::seed_from_u64(4242);
        for round in 0..40 {
            let n = rng.gen_range(0usize..600);
            let splats = random_splats(&mut rng, n, g, spread_depth);
            let bins = TileBins::build(&splats, g);
            let threshold = rng.gen_range(0.05..1.5f32);
            let max_extent = rng.gen_range(1u32..6);
            let units = plan(&bins, threshold, max_extent);
            assert_partition(&units, g);
            let counts = unit_counts(&units, &bins);
            assert_eq!(
                counts.iter().map(|&c| c as u64).sum::<u64>(),
                bins.total_intersections(),
                "round {round}: merged units must conserve intersections"
            );
            // Extent cap respected.
            for unit in &units {
                assert!(unit.tx1 - unit.tx0 <= max_extent);
                assert!(unit.ty1 - unit.ty0 <= max_extent);
            }
        }
    }

    #[test]
    fn merging_strictly_lowers_imbalance_on_sparse_periphery() {
        // A foveal workload in miniature: dense center tiles, empty
        // periphery. Merging must strictly lower max/mean per work unit.
        let g = grid();
        let mut rng = StdRng::seed_from_u64(9);
        let splats: Vec<ProjectedSplat> = (0..3000)
            .filter_map(|i| {
                use ms_math::{Conic2, TileRect, Vec2};
                let cx = 64.0 + rng.gen_range(-12.0..12.0f32);
                let cy = 64.0 + rng.gen_range(-12.0..12.0f32);
                let tiles =
                    TileRect::from_circle(Vec2::new(cx, cy), 2.0, TILE_SIZE, g.tiles_x, g.tiles_y)?;
                Some(ProjectedSplat {
                    point_index: i as u32,
                    center: Vec2::new(cx, cy),
                    conic: Conic2 {
                        a: 1.0,
                        b: 0.0,
                        c: 1.0,
                    },
                    depth: 1.0,
                    color: ms_math::Vec3::splat(0.5),
                    opacity: 0.9,
                    tiles,
                })
            })
            .collect();
        let bins = TileBins::build(&splats, g);
        let units = plan(&bins, 0.5, 4);
        let counts = unit_counts(&units, &bins);
        let pre = ratio(&bins.intersection_counts());
        let post = ratio(&counts);
        assert!(units.len() < g.tile_count(), "sparse periphery must merge");
        assert!(units.iter().any(|u| u.tile_count() > 1));
        assert!(
            post < pre,
            "merging must strictly lower imbalance: pre {pre} post {post}"
        );
        // The densest unit is still the densest tile — multi-tile units are
        // capped at the mean occupancy.
        assert_eq!(counts.iter().max(), bins.intersection_counts().iter().max());
    }

    #[test]
    fn merge_plan_is_deterministic() {
        let g = grid();
        let mut rng = StdRng::seed_from_u64(5151);
        let splats = random_splats(&mut rng, 800, g, spread_depth);
        let bins = TileBins::build(&splats, g);
        assert_eq!(plan(&bins, 0.5, 4), plan(&bins, 0.5, 4));
    }

    #[test]
    fn empty_frame_merges_into_extent_capped_blocks() {
        let g = grid(); // 8×8 tiles
        let bins = TileBins::build(&[], g);
        let units = plan(&bins, 0.5, 4);
        assert_partition(&units, g);
        // 8×8 empty tiles with a 4-tile cap → four 4×4 super-tiles.
        assert_eq!(units.len(), 4);
        assert!(units.iter().all(|u| u.tile_count() == 16));
    }

    #[test]
    fn extent_one_never_merges() {
        let g = grid();
        let mut rng = StdRng::seed_from_u64(31);
        let splats = random_splats(&mut rng, 300, g, spread_depth);
        let bins = TileBins::build(&splats, g);
        let units = plan(&bins, 0.9, 1);
        assert_eq!(units.len(), g.tile_count());
        assert!(units.iter().all(|u| u.tile_count() == 1));
        assert_partition(&units, g);
    }

    #[test]
    fn filtered_build_skips_inactive_tiles() {
        let (m, cam) = scene();
        let splats = project_model(&m, &cam, &RenderOptions::default());
        let g = grid();
        let active = activity(g, |tx, _| tx < 4);
        let bins = TileBins::build_into(&splats, g, &active, 1, Default::default());
        for ty in 0..g.tiles_y {
            for tx in 4..g.tiles_x {
                assert!(
                    bins.tile(tx, ty).is_empty(),
                    "inactive tile ({tx},{ty}) not empty"
                );
            }
        }
    }
}
