//! The clock meter: a fixed loop of the benchmark's own, timed between
//! requests, that says how fast the core is running right now.
//!
//! The VM this benchmark is sized on changes its core clock in steps of
//! a few percent, every few seconds, over a range of 1.3x (the host's
//! turbo bins: the steps are the same for every kind of code, and no
//! CPU time is reported stolen while they happen). Ten runs of the same
//! code then differ by whichever step most of a run sat on. The meter
//! runs on the measuring thread, between requests, and every timing of a
//! request is converted to the reference clock by the readings before
//! and after it, so that what is compared between runs is the program,
//! not the host's turbo state. The loop is the benchmark's, never the product's: a
//! change to a kernel cannot move the yardstick.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Microseconds one pass takes on the reference clock. Sized so that the
/// VM's most common step reads a speed near 1; only ratios between runs
/// matter.
pub const REFERENCE_PASS_US: f64 = 80.0;

/// Bytes per operand: both fit the L1 data cache together.
const OPERAND_BYTES: usize = 16 * 1024;
/// Dot products per pass.
const DOTS_PER_PASS: usize = 20;
/// Passes per reading; the reading is their median, so one interrupt
/// does not spoil it.
const PASSES: usize = 3;

/// The fixed loop and its operands.
pub struct ClockMeter {
    a: Vec<i8>,
    b: Vec<i8>,
    /// Seconds spent reading so far (the caller's CPU time includes it).
    pub spent_s: f64,
}

impl ClockMeter {
    pub fn new() -> Self {
        let operand = |m: usize| (0..OPERAND_BYTES).map(|i| (i % m) as i8).collect();
        ClockMeter { a: operand(251), b: operand(127), spent_s: 0.0 }
    }

    fn pass_us(&self) -> f64 {
        let t = Instant::now();
        let mut acc = 0i32;
        for _ in 0..DOTS_PER_PASS {
            let (a, b) = (black_box(&self.a), black_box(&self.b));
            let dot: i32 = a.iter().zip(b).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum();
            acc = acc.wrapping_add(dot);
        }
        black_box(acc);
        t.elapsed().as_secs_f64() * 1e6
    }

    /// One reading: microseconds per pass, the median of a few passes.
    pub fn read_us(&mut self) -> f64 {
        let t = Instant::now();
        let passes: Vec<f64> = (0..PASSES).map(|_| self.pass_us()).collect();
        self.spent_s += t.elapsed().as_secs_f64();
        median(&passes)
    }
}

/// Core speed relative to the reference clock where a pass takes
/// `pass_us`: above 1 when the core runs faster than the reference.
/// Durations measured at that speed times this are durations at the
/// reference clock; rates are divided by it.
pub fn speed(pass_us: f64) -> f64 {
    REFERENCE_PASS_US / pass_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_accounted_for() {
        let mut meter = ClockMeter::new();
        let readings: Vec<f64> = (0..5).map(|_| meter.read_us()).collect();
        assert!(readings.iter().all(|&r| r > 0.0));
        // three passes per reading were timed inside `spent_s`
        assert!(meter.spent_s * 1e6 >= readings.iter().sum::<f64>());
    }

    #[test]
    fn a_slower_core_reads_a_speed_below_one() {
        assert_eq!(speed(REFERENCE_PASS_US), 1.0);
        assert_eq!(speed(2.0 * REFERENCE_PASS_US), 0.5);
    }
}
