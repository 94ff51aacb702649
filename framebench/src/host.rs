//! Host stamp and environment checks.

use std::time::Instant;

/// Environment variables that silently change the program being measured:
/// the raster kernel and staging path, the chunk size, the chunk-cache
/// budget and the worker-pool size.
pub const PINNED_ENV: [&str; 5] = [
    "MS_RASTER_KERNEL",
    "MS_RASTER_STAGING",
    "MS_CHUNK_SPLATS",
    "MS_CHUNK_CACHE",
    "RAYON_NUM_THREADS",
];

/// The [`PINNED_ENV`] variables that `is_set` reports as set.
pub fn pinned_env(is_set: impl Fn(&str) -> bool) -> Vec<&'static str> {
    PINNED_ENV.into_iter().filter(|k| is_set(k)).collect()
}

/// Refuse to run when any [`PINNED_ENV`] variable is set in this process.
pub fn check_env() -> Result<(), String> {
    let set = pinned_env(|k| std::env::var_os(k).is_some());
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: each one changes the program being measured",
            set.join(", ")
        ))
    }
}

/// Cores the worker pool sees.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall time of a fixed arithmetic and memory loop run on every core at
/// once (median of 5), so runs on different or differently loaded hosts
/// can be told apart. All cores, because the measured frames use all of
/// them: one slowed core slows a frame but not a one-thread loop.
pub fn calib_ms() -> f64 {
    const WORDS: usize = 1 << 20; // 8 MiB per core: larger than a core's L2.
    let mut bufs = vec![vec![0u64; WORDS]; cores()];
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            std::thread::scope(|s| {
                for buf in &mut bufs {
                    s.spawn(|| mix(buf));
                }
            });
            crate::stats::ms(start.elapsed())
        })
        .collect();
    crate::stats::median(times)
}

fn mix(buf: &mut [u64]) {
    let mask = buf.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..(4 * buf.len() as u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & mask;
        buf[j] = buf[j].wrapping_add(x ^ i);
    }
    std::hint::black_box(buf);
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_env_lists_only_set_variables() {
        assert!(pinned_env(|_| false).is_empty());
        let set = pinned_env(|k| k == "MS_CHUNK_CACHE" || k == "RAYON_NUM_THREADS");
        assert_eq!(set, ["MS_CHUNK_CACHE", "RAYON_NUM_THREADS"]);
        assert_eq!(pinned_env(|k| k == "MS_POINTS"), Vec::<&str>::new());
    }

    #[test]
    fn vm_hwm_parses() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("VmRSS: 1 kB"), None);
    }
}
