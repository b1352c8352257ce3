//! Host diagnostics that use no workspace code: the machine-drift probe
//! and peak resident memory.

use std::hint::black_box;
use std::time::Instant;

/// Median milliseconds of a fixed pure-arithmetic loop over a few
/// repetitions. Timed before and after each run, the ratio tells host
/// drift apart from a regression: the loop itself never changes.
pub fn drift_ms() -> f64 {
    let mut samples: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
            for i in 0..2_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            black_box(x);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM line in {path}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_readable() {
        let mib = peak_rss_mib(std::process::id()).unwrap();
        assert!(mib > 0.5 && mib < 65536.0, "{mib}");
    }
}
