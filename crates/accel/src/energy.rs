//! The accelerator energy model (§7.3).
//!
//! Event-based energy accounting at 16 nm: each pipeline event (point
//! projection, intersection sort/duplication, compositing step) carries a
//! fixed energy, plus SRAM and DRAM traffic costs. Incremental pipelining
//! swaps the large inter-stage double buffers for small line buffers, which
//! lowers the per-access SRAM energy — the source of the paper's 54.4× →
//! 56.8× improvement over the GPU.

use crate::config::AccelConfig;
use crate::pipeline::SimReport;
use crate::workload::AccelWorkload;
use serde::{Deserialize, Serialize};

/// Per-event energies in picojoules (16 nm-class estimates).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Per point projected (covariance math + SH eval).
    pub e_point_pj: f64,
    /// Per tile-ellipse intersection (key gen + sorting network pass).
    pub e_intersection_pj: f64,
    /// Per compositing step in a VRC.
    pub e_blend_step_pj: f64,
    /// Per byte of small-SRAM (line buffer) traffic.
    pub e_sram_small_pj_b: f64,
    /// Per byte of large-SRAM (double buffer) traffic.
    pub e_sram_large_pj_b: f64,
    /// Per byte of DRAM traffic (LPDDR3-1600).
    pub e_dram_pj_b: f64,
    /// Leakage + clock power in watts (charged over the frame latency).
    pub static_w: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            e_point_pj: 900.0,
            e_intersection_pj: 520.0,
            e_blend_step_pj: 190.0,
            e_sram_small_pj_b: 0.18,
            e_sram_large_pj_b: 0.55,
            e_dram_pj_b: 20.0,
            static_w: 0.25,
        }
    }
}

/// Energy breakdown of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Compute energy (projection + sorting + compositing), joules.
    pub compute_j: f64,
    /// On-chip SRAM traffic energy, joules.
    pub sram_j: f64,
    /// DRAM traffic energy, joules.
    pub dram_j: f64,
    /// Static (leakage/clock) energy over the frame, joules.
    pub static_j: f64,
}

impl EnergyReport {
    /// Total frame energy in joules.
    pub fn total_j(&self) -> f64 {
        self.compute_j + self.sram_j + self.dram_j + self.static_j
    }
}

impl EnergyModel {
    /// Energy of one frame given its workload, the simulated timing and
    /// the hardware configuration.
    pub fn frame_energy(
        &self,
        workload: &AccelWorkload,
        sim: &SimReport,
        config: &AccelConfig,
    ) -> EnergyReport {
        let isect = workload.total_intersections() as f64;
        let compute_j = (self.e_point_pj * workload.points_projected as f64
            + self.e_intersection_pj * isect
            + self.e_blend_step_pj * workload.blend_steps as f64)
            * 1e-12;

        // Inter-stage traffic: each intersection record (~16 B: id, depth,
        // conic ref) crosses the sort→raster buffer twice (write + read).
        let buffer_bytes = isect * 16.0 * 2.0;
        let sram_rate = if config.incremental_pipelining {
            self.e_sram_small_pj_b
        } else {
            self.e_sram_large_pj_b
        };
        // Sorter-input double buffer is present in both designs.
        let sram_j = (buffer_bytes * sram_rate + buffer_bytes * self.e_sram_large_pj_b) * 1e-12;

        let dram_j = self.e_dram_pj_b * workload.model_bytes as f64 * 1e-12;
        let static_j = self.static_w * sim.latency_s;
        EnergyReport {
            compute_j,
            sram_j,
            dram_j,
            static_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::simulate;
    use crate::workload::TileWork;

    fn workload() -> AccelWorkload {
        AccelWorkload {
            tiles: (0..256)
                .map(|i| TileWork {
                    intersections: if i % 20 == 0 { 1_500 } else { 40 },
                    pixels: 256,
                    level: 0,
                })
                .collect(),
            points_projected: 200_000,
            blend_steps: 5_000_000,
            blended_pixels: 20_000,
            model_bytes: 50_000_000,
        }
    }

    #[test]
    fn energy_is_positive_and_dram_heavy() {
        let w = workload();
        let c = AccelConfig::metasapiens_tm_ip();
        let sim = simulate(&w, &c);
        let e = EnergyModel::default().frame_energy(&w, &sim, &c);
        assert!(e.total_j() > 0.0);
        // Streaming the model dominates at these sizes, as in most
        // accelerator energy breakdowns.
        assert!(e.dram_j > e.sram_j);
    }

    #[test]
    fn ip_lowers_sram_energy() {
        let w = workload();
        let with_ip = AccelConfig::metasapiens_tm_ip();
        let mut no_ip = AccelConfig::metasapiens_tm_ip();
        no_ip.incremental_pipelining = false;
        let m = EnergyModel::default();
        let e_ip = m.frame_energy(&w, &simulate(&w, &with_ip), &with_ip);
        let e_db = m.frame_energy(&w, &simulate(&w, &no_ip), &no_ip);
        assert!(e_ip.sram_j < e_db.sram_j);
        assert!(e_ip.total_j() < e_db.total_j());
    }

    #[test]
    fn accelerator_energy_is_far_below_gpu_envelope() {
        // §7.3: 54.4×/56.8× energy reduction vs the GPU. The GPU side is
        // modeled in ms-gpu; here we check the accelerator lands in the
        // tens-of-millijoules class for a mid-size frame while a mobile GPU
        // at ~20 W and tens of ms per frame spends hundreds of millijoules.
        let w = workload();
        let c = AccelConfig::metasapiens_tm_ip();
        let e = EnergyModel::default().frame_energy(&w, &simulate(&w, &c), &c);
        assert!(e.total_j() < 0.05, "frame energy {} J", e.total_j());
    }

    #[test]
    fn static_energy_scales_with_latency() {
        let w = workload();
        let c = AccelConfig::metasapiens_base();
        let sim = simulate(&w, &c);
        let e = EnergyModel::default().frame_energy(&w, &sim, &c);
        assert!((e.static_j - 0.25 * sim.latency_s).abs() < 1e-12);
    }
}
