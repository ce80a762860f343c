//! Host-speed correction for the benchmark's timings.
//!
//! The benchmark shares the host's cores with other tenants, and their load
//! changes how fast the same code runs by up to 2× over minutes: one
//! `paper_batch` campaign took 0.50 s in one minute and 0.90 s a few
//! minutes later, with the thread's CPU time equal to its wall time both
//! times, so the loss is inside the core (a busy sibling, shared caches),
//! not time taken off the CPU. No choice of median, minimum or run length
//! within one run removes a slowdown that lasts longer than the run.
//!
//! So every timed unit is bracketed by a fixed kernel that belongs to the
//! benchmark, timed right before and right after it. The kernel's time
//! measures the host's speed at that moment, and the unit's wall time is
//! scaled by `NOMINAL_S / kernel time`: seconds at the reference host
//! speed. The kernel is the benchmark's own code, so no change to the
//! program can move it; a change that makes the program faster or slower
//! moves the corrected time exactly as it moves the raw one.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host (2-vCPU Intel Xeon at 2.1 GHz,
/// rustc 1.95.0, release build) in a quiet minute. It only fixes the scale
/// of corrected times; any constant would compare runs equally well.
pub const NOMINAL_S: f64 = 0.0035;

/// Kernel runs on each side of a timed unit. Their mean counts: runs a few
/// milliseconds apart differ by up to a quarter, and the fastest would read
/// the quietest instant instead of the load the unit shares the core with.
const PROBES: usize = 4;

/// Time one run of the kernel: a mix of the program's kinds of work —
/// dense `f32` multiply-adds, `f64` `exp`/`ln`, hash-map inserts with small
/// allocations, and a sort.
pub fn kernel_s() -> f64 {
    let t = Instant::now();
    let n = 48;
    let a: Vec<f32> = (0..n * n)
        .map(|i| ((i * 31) % 17) as f32 * 0.125 - 1.0)
        .collect();
    let mut c = vec![0f32; n * n];
    for _ in 0..12 {
        for i in 0..n {
            for k in 0..n {
                let x = a[i * n + k];
                if x == 0.0 {
                    continue;
                }
                for j in 0..n {
                    c[i * n + j] += x * a[k * n + j];
                }
            }
        }
    }
    let mut acc = 0f64;
    for i in 1..60_000 {
        let x = f64::from(i) * 1e-4;
        acc += (x.ln() - x).exp();
    }
    let mut buckets: std::collections::HashMap<u64, Vec<u32>> = Default::default();
    let mut h = 12_345u64;
    for i in 0..40_000u32 {
        h = h
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        buckets.entry(h >> 52).or_default().push(i);
    }
    let mut v: Vec<u64> = (0..60_000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    v.sort_unstable();
    black_box((&c, acc, &buckets, &v));
    t.elapsed().as_secs_f64()
}

/// The host's speed now, as the mean time of `PROBES` kernel runs.
pub fn probe() -> f64 {
    (0..PROBES).map(|_| kernel_s()).sum::<f64>() / PROBES as f64
}

/// The factor that turns a wall time measured between the probes `before`
/// and `after` into seconds at the reference speed.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_S / (0.5 * (before + after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_mean_probe() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(scale(NOMINAL_S, NOMINAL_S), 1.0));
        // A host at half speed doubles the kernel time and halves the factor.
        assert!(close(scale(2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.5));
        assert!(close(scale(1.5 * NOMINAL_S, 2.5 * NOMINAL_S), 0.5));
    }

    #[test]
    fn probe_takes_real_time() {
        let p = probe();
        assert!(p > 0.0 && p.is_finite());
    }
}
