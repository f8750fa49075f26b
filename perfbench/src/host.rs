//! Host adjustment: a fixed reference kernel, timed immediately before
//! every data generation and every timed pass, whose speed scales the
//! wall times measured right after it.
//!
//! The machine's speed drifts by more than the effects the benchmark
//! must resolve: other tenants share the last-level cache and memory
//! bandwidth, and the drift moves every workload together. The kernel
//! does the two kinds of memory work the program does most, in about
//! equal shares: it allocates, touches and frees 2^18 small boxed
//! `Vec<u64>` values (allocation churn, as the executor's value copies
//! do), and it streams over 2^19 such values allocated once when the
//! kernel is made (pointer-heavy scans, as the executor's heap scans
//! do). Its time tracks the program's pass times closely, unlike a
//! pure-ALU loop or a random pointer chase. It lives only in the
//! benchmark, so it is identical on every commit being compared.

use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel time, in ms, that adjusted figures are scaled to.
/// Fixed once; a pass whose kernel ran in exactly this time reports its
/// raw wall times unchanged.
pub const NOMINAL_REF_MS: f64 = 25.0;

/// Values allocated and freed per kernel run.
const CHURN_VALUES: usize = 1 << 18;

/// Values the kernel streams over (allocated once).
const SCAN_VALUES: usize = 1 << 19;

/// Passes of the stream over the kept values per kernel run.
const SCAN_LAPS: usize = 4;

/// The reference kernel and the values it streams over.
#[derive(Debug)]
pub struct RefKernel {
    kept: Vec<Vec<u64>>,
}

impl Default for RefKernel {
    fn default() -> Self {
        RefKernel::new(SCAN_VALUES)
    }
}

impl RefKernel {
    /// A kernel streaming over `values` boxed values.
    fn new(values: usize) -> RefKernel {
        RefKernel {
            kept: (0..values as u64).map(cell).collect(),
        }
    }

    /// Allocate, touch and free `n` boxed values; returns the sum of
    /// their first fields.
    fn churn(n: usize) -> u64 {
        let cells: Vec<Vec<u64>> = (0..n as u64).map(cell).collect();
        let sum = cells.iter().fold(0u64, |s, c| s.wrapping_add(c[0]));
        drop(black_box(cells));
        sum
    }

    /// Stream `laps` times over the kept values; returns the sum of
    /// their first fields over all laps.
    fn scan(&self, laps: usize) -> u64 {
        let mut sum = 0u64;
        for _ in 0..laps {
            for c in black_box(&self.kept) {
                sum = sum.wrapping_add(c[0]);
            }
        }
        sum
    }

    /// Time one run of the kernel, in ms.
    pub fn time(&self) -> f64 {
        let t0 = Instant::now();
        let churned = Self::churn(black_box(CHURN_VALUES));
        let scanned = self.scan(black_box(SCAN_LAPS));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            churned,
            triangle(CHURN_VALUES),
            "churn touches every value once"
        );
        let expected = triangle(self.kept.len()).wrapping_mul(SCAN_LAPS as u64);
        assert_eq!(scanned, expected, "every lap reads every kept value");
        ms
    }
}

/// A boxed four-field value whose first field is `i`.
fn cell(i: u64) -> Vec<u64> {
    vec![i, i ^ 0x55, i >> 3, 1]
}

/// 0 + 1 + … + (n - 1).
fn triangle(n: usize) -> u64 {
    let n = n as u64;
    n * n.saturating_sub(1) / 2
}

/// The factor that host-adjusts wall times measured right after the
/// reference kernel took `ref_ms`: a slower host (larger `ref_ms`)
/// shrinks the times, a faster one stretches them.
pub fn factor(ref_ms: f64) -> f64 {
    NOMINAL_REF_MS / ref_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_reference_leaves_times_unchanged() {
        assert_eq!(12.5 * factor(NOMINAL_REF_MS), 12.5);
    }

    #[test]
    fn slow_host_shrinks_and_fast_host_grows_times() {
        // Host twice as slow as nominal: wall times are halved.
        assert_eq!(10.0 * factor(2.0 * NOMINAL_REF_MS), 5.0);
        // Host twice as fast: wall times doubled.
        assert_eq!(10.0 * factor(NOMINAL_REF_MS / 2.0), 20.0);
        // Rates scale the other way: divide a count by an adjusted time.
        let raw_rate = 1000.0 / 0.5;
        let adjusted_rate = 1000.0 / (0.5 * factor(2.0 * NOMINAL_REF_MS));
        assert_eq!(adjusted_rate, 2.0 * raw_rate);
    }

    #[test]
    fn kernel_checksums_cover_every_value() {
        assert_eq!(RefKernel::churn(1000), triangle(1000));
        let k = RefKernel::new(1000);
        assert_eq!(k.scan(3), 3 * triangle(1000));
        assert!(k.time() > 0.0);
    }
}
