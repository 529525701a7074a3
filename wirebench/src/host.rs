//! Host-speed readings for the run record. The benchmark shares its
//! cores with whatever else runs on the machine; these readings let a
//! reader tell a slower host from a slower program when two runs
//! disagree.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the calibration loop.
const CALIBRATION_ITERS: u64 = 2_000_000;

/// Nanoseconds per iteration of a fixed single-threaded integer loop,
/// best of five. It depends only on the CPU share and clock speed the
/// process gets, never on the code under test.
pub fn calibrate() -> f64 {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..CALIBRATION_ITERS {
                x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ i;
            }
            black_box(x);
            t0.elapsed().as_nanos() as f64 / CALIBRATION_ITERS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Machine-wide CPU time from `/proc/stat`, in clock ticks: `(steal,
/// total)`. Steal is the time the hypervisor ran someone else while
/// the virtual CPUs were ready to run; `(0, 0)` where it cannot be read.
pub fn cpu_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let fields: Vec<u64> = s
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect();
            Some((fields.get(7).copied().unwrap_or(0), fields.iter().sum()))
        })
        .unwrap_or((0, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_reads_a_positive_time() {
        let ns = calibrate();
        assert!(ns.is_finite() && ns > 0.0, "{ns}");
        let (steal, total) = cpu_ticks();
        assert!(steal <= total);
    }
}
