//! The tile pipeline simulator (Fig. 10 dynamics).
//!
//! Tiles flow through Sorting → Rasterization (Projection runs ahead on the
//! CCU array and is overlapped; it only matters when the frame is
//! projection-bound). Without Incremental Pipelining, a double buffer sits
//! between the stages: rasterization of a tile starts only after the whole
//! tile is sorted. Tile Merging coalesces consecutive low-work tiles before
//! they enter the pipeline; Incremental Pipelining lets rasterization start
//! once the first sub-tile is available.

use crate::config::AccelConfig;
use crate::workload::AccelWorkload;
use serde::{Deserialize, Serialize};

/// Simulation result for one frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Total cycles from first sort to last pixel.
    pub cycles: u64,
    /// Frame latency in seconds at the configured clock.
    pub latency_s: f64,
    /// Cycles the sorter was busy.
    pub sort_busy: u64,
    /// Cycles the rasterizer was busy.
    pub raster_busy: u64,
    /// Rasterizer utilization (busy / makespan).
    pub raster_utilization: f64,
    /// Cycles the rasterizer stalled waiting on the sorter.
    pub raster_stall: u64,
    /// Pipeline slots (merged tiles) processed.
    pub units_processed: usize,
    /// Raw tiles before merging.
    pub tiles_in: usize,
    /// Projection cycles (overlapped; exposed for analysis).
    pub projection_cycles: u64,
    /// Cycles needed to stream the model from DRAM (overlapped; the frame
    /// cannot finish faster than memory delivers the points).
    pub dram_cycles: u64,
}

/// Sorting cycles for `n` intersections: the hierarchical sorting unit is a
/// streaming merge network that ingests `throughput` pre-sorted elements
/// per cycle per unit — linear in `n` (GSCore's design point; the sorter is
/// not the compute bottleneck, the front-end fixed cost is).
fn sort_cycles(n: u64, config: &AccelConfig) -> u64 {
    if n == 0 {
        return 0;
    }
    let per_unit = config.sorter_throughput.max(1) as u64 * config.sorter_count.max(1) as u64;
    n.div_ceil(per_unit)
}

/// Rasterization cycles for a tile: each intersection is evaluated against
/// every pixel of the tile; the VRC array covers `vrc_count` pixels per
/// cycle.
fn raster_cycles(intersections: u64, pixels: u64, config: &AccelConfig) -> u64 {
    let waves = pixels.div_ceil(config.vrc_count.max(1) as u64);
    intersections * waves
}

/// One pipeline slot: a tile or a merged run of tiles.
#[derive(Debug, Clone, Copy)]
struct Slot {
    intersections: u64,
    raster: u64,
}

/// Apply the TMU: group tiles into pipeline slots.
///
/// With a TMU, greedily merge consecutive non-empty tiles until the
/// cumulative intersection count reaches β (paper §5.2); without one, each
/// non-empty tile is its own slot.
fn merge_tiles(workload: &AccelWorkload, config: &AccelConfig) -> Vec<Slot> {
    let mut slots = Vec::new();
    let mut acc_isect = 0u64;
    let mut acc_raster = 0u64;
    for t in &workload.tiles {
        if t.intersections == 0 {
            continue; // empty tiles are skipped by the frontend
        }
        let r = raster_cycles(t.intersections as u64, t.pixels as u64, config);
        if config.tile_merging {
            acc_isect += t.intersections as u64;
            acc_raster += r;
            if acc_isect >= config.tile_merge_beta as u64 {
                slots.push(Slot {
                    intersections: acc_isect,
                    raster: acc_raster,
                });
                acc_isect = 0;
                acc_raster = 0;
            }
        } else {
            slots.push(Slot {
                intersections: t.intersections as u64,
                raster: r,
            });
        }
    }
    if acc_isect > 0 {
        slots.push(Slot {
            intersections: acc_isect,
            raster: acc_raster,
        });
    }
    slots
}

/// Simulate one frame.
pub fn simulate(workload: &AccelWorkload, config: &AccelConfig) -> SimReport {
    let slots = merge_tiles(workload, config);
    let overhead = config.tile_overhead_cycles as u64;
    let projection_cycles =
        (workload.points_projected as u64).div_ceil(config.ccu_count.max(1) as u64);

    let mut sort_end = 0u64;
    let mut raster_end = 0u64;
    let mut sort_busy = 0u64;
    let mut raster_busy = 0u64;
    let mut raster_stall = 0u64;

    let frontend = config.frontend_overhead_cycles as u64;
    for slot in &slots {
        let s = sort_cycles(slot.intersections, config) + frontend;
        let r = slot.raster + overhead;
        let sort_start = sort_end;
        sort_end = sort_start + s;
        sort_busy += s;

        let ready = if config.incremental_pipelining {
            // First sub-tile available after a fraction of the sort.
            sort_start + s.div_ceil(config.subtiles.max(1) as u64)
        } else {
            sort_end
        };
        let raster_start = ready.max(raster_end);
        raster_stall += raster_start.saturating_sub(raster_end);
        let mut end = raster_start + r;
        if config.incremental_pipelining {
            // The rasterizer cannot finish before the sorter has delivered
            // the last sub-tile plus one sub-tile of rasterization.
            end = end.max(sort_end + r.div_ceil(config.subtiles.max(1) as u64));
        }
        raster_busy += r;
        raster_end = end;
    }

    // FR blending pass: one cycle per blended pixel through the blend unit
    // (overlapped with the tail of rasterization; charged at the end).
    let blend_tail = workload
        .blended_pixels
        .div_ceil(config.vrc_count.max(1) as u64);
    // DRAM floor: the packed model must stream in; bytes/cycle at the
    // configured clock.
    let bytes_per_cycle = (config.dram_gbps / config.clock_ghz).max(1e-9);
    let dram_cycles =
        ((workload.model_bytes as f64 / config.dram_compression.max(1.0)) / bytes_per_cycle) as u64;
    let makespan = raster_end.max(projection_cycles).max(dram_cycles) + blend_tail;

    // First-slot stall is pipeline fill, not imbalance; keep as stall anyway
    // (matches the "Idle" slots of Fig. 10's baseline diagram).
    SimReport {
        cycles: makespan,
        latency_s: makespan as f64 / (config.clock_ghz * 1e9),
        sort_busy,
        raster_busy,
        raster_utilization: if makespan == 0 {
            1.0
        } else {
            raster_busy as f64 / makespan as f64
        },
        raster_stall,
        units_processed: slots.len(),
        tiles_in: workload.tiles.len(),
        projection_cycles,
        dram_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::TileWork;
    use rand::{Rng, SeedableRng};

    fn workload_from(intersections: Vec<u32>) -> AccelWorkload {
        AccelWorkload {
            tiles: intersections
                .into_iter()
                .map(|n| TileWork {
                    intersections: n,
                    pixels: 256,
                    level: 0,
                })
                .collect(),
            points_projected: 1_000,
            blend_steps: 0,
            blended_pixels: 0,
            model_bytes: 0,
        }
    }

    /// An imbalanced workload in the paper's style: a few huge center tiles
    /// and many nearly-empty peripheral ones.
    fn imbalanced() -> AccelWorkload {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut tiles = Vec::new();
        for i in 0..400 {
            let n = if i % 40 < 4 {
                rng.gen_range(800..2_500)
            } else {
                rng.gen_range(0..30)
            };
            tiles.push(n);
        }
        workload_from(tiles)
    }

    #[test]
    fn empty_frame_is_cheap() {
        let w = workload_from(vec![0; 64]);
        let r = simulate(&w, &AccelConfig::metasapiens_base());
        assert_eq!(r.units_processed, 0);
        assert!(r.cycles <= r.projection_cycles + 1);
    }

    #[test]
    fn tile_merging_improves_makespan_on_imbalanced_frames() {
        let w = imbalanced();
        let base = simulate(&w, &AccelConfig::metasapiens_base());
        let tm = simulate(&w, &AccelConfig::metasapiens_tm());
        assert!(
            tm.cycles < base.cycles,
            "TM should help: {} vs {}",
            tm.cycles,
            base.cycles
        );
        assert!(tm.units_processed < base.units_processed);
    }

    #[test]
    fn incremental_pipelining_stacks_on_tm() {
        let w = imbalanced();
        let tm = simulate(&w, &AccelConfig::metasapiens_tm());
        let tm_ip = simulate(&w, &AccelConfig::metasapiens_tm_ip());
        assert!(
            tm_ip.cycles < tm.cycles,
            "TM+IP should beat TM alone: {} vs {}",
            tm_ip.cycles,
            tm.cycles
        );
    }

    #[test]
    fn full_design_raises_utilization() {
        let w = imbalanced();
        let base = simulate(&w, &AccelConfig::metasapiens_base());
        let full = simulate(&w, &AccelConfig::metasapiens_tm_ip());
        assert!(
            full.raster_utilization > base.raster_utilization,
            "{} vs {}",
            full.raster_utilization,
            base.raster_utilization
        );
    }

    #[test]
    fn balanced_workload_gains_little_from_tm() {
        let w = workload_from(vec![300; 256]);
        let base = simulate(&w, &AccelConfig::metasapiens_base());
        let tm = simulate(&w, &AccelConfig::metasapiens_tm());
        let gain = base.cycles as f64 / tm.cycles as f64;
        assert!(
            gain < 1.15,
            "balanced frames shouldn't benefit much: gain {gain}"
        );
    }

    #[test]
    fn more_vrcs_speed_up_raster_bound_frames() {
        let w = workload_from(vec![2_000; 64]);
        let small = simulate(&w, &AccelConfig::gscore());
        let big = simulate(&w, &AccelConfig::metasapiens_base());
        assert!(big.cycles < small.cycles);
    }

    #[test]
    fn projection_bound_frames_hit_projection_floor() {
        let mut w = workload_from(vec![1; 4]);
        w.points_projected = 10_000_000;
        let r = simulate(&w, &AccelConfig::metasapiens_base());
        assert!(r.cycles >= r.projection_cycles);
    }

    #[test]
    fn blend_tail_adds_cycles() {
        let mut w = imbalanced();
        let before = simulate(&w, &AccelConfig::metasapiens_tm_ip()).cycles;
        w.blended_pixels = 1_000_000;
        let after = simulate(&w, &AccelConfig::metasapiens_tm_ip()).cycles;
        assert!(after > before);
    }

    #[test]
    fn sort_cycles_scale_linearly() {
        let c = AccelConfig::metasapiens_base();
        let a = sort_cycles(1_000, &c);
        let b = sort_cycles(2_000, &c);
        assert!((b as i64 - 2 * a as i64).abs() <= 1, "a={a} b={b}");
    }

    #[test]
    fn beta_sweep_is_sane() {
        // Small β ≈ no merging; very large β merges everything into one
        // serial slot. The sweet spot sits between.
        let w = imbalanced();
        let cycles_at = |beta: u32| {
            let mut c = AccelConfig::metasapiens_tm();
            c.tile_merge_beta = beta;
            simulate(&w, &c).cycles
        };
        let tiny = cycles_at(1);
        let mid = cycles_at(2_048);
        assert!(mid < tiny, "β=2048 ({mid}) should beat β=1 ({tiny})");
    }
}
