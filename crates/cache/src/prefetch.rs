//! Per-PC stride prefetcher (the "Stride prefetcher" of Table 2).

/// Maximum prefetch degree supported.
pub const MAX_DEGREE: usize = 4;

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    pc: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// Classic reference-prediction-table stride prefetcher.
///
/// Each static memory instruction (identified by its PC) gets a table
/// entry tracking its last address and stride. After two consecutive
/// accesses with the same non-zero stride, the prefetcher emits `degree`
/// prefetch addresses ahead of the current access.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: Vec<Entry>,
    mask: u64,
    degree: usize,
}

impl StridePrefetcher {
    /// Create a prefetcher with a power-of-two `entries` table and the
    /// given prefetch `degree` (clamped to `MAX_DEGREE`).
    ///
    /// # Panics
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize, degree: usize) -> Self {
        assert!(entries.is_power_of_two(), "table size must be a power of two");
        StridePrefetcher {
            table: vec![Entry::default(); entries],
            mask: entries as u64 - 1,
            degree: degree.min(MAX_DEGREE),
        }
    }

    /// Forget every trained stream (the state of a new prefetcher).
    pub fn clear(&mut self) {
        self.table.fill(Entry::default());
    }

    /// Train on a demand access; returns the number of prefetch addresses
    /// written into `out`.
    pub fn train(&mut self, pc: u64, addr: u64, out: &mut [u64; MAX_DEGREE]) -> usize {
        let idx = (pc.wrapping_mul(0x9e37_79b9_7f4a_7c15) & self.mask) as usize;
        let e = &mut self.table[idx];
        if !e.valid || e.pc != pc {
            *e = Entry { pc, last_addr: addr, stride: 0, confidence: 0, valid: true };
            return 0;
        }
        let stride = addr as i64 - e.last_addr as i64;
        if stride != 0 && stride == e.stride {
            e.confidence = e.confidence.saturating_add(1);
        } else {
            e.confidence = 0;
            e.stride = stride;
        }
        e.last_addr = addr;
        if e.confidence >= 1 && e.stride != 0 {
            let mut n = 0;
            for d in 1..=self.degree {
                let target = addr as i64 + e.stride * d as i64;
                if target >= 0 {
                    out[n] = target as u64;
                    n += 1;
                }
            }
            n
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_constant_stride() {
        let mut p = StridePrefetcher::new(16, 2);
        let mut out = [0u64; MAX_DEGREE];
        assert_eq!(p.train(7, 100, &mut out), 0); // first touch
        assert_eq!(p.train(7, 164, &mut out), 0); // learn stride 64
        let n = p.train(7, 228, &mut out); // confirm stride
        assert_eq!(n, 2);
        assert_eq!(out[0], 292);
        assert_eq!(out[1], 356);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = StridePrefetcher::new(16, 2);
        let mut out = [0u64; MAX_DEGREE];
        p.train(7, 100, &mut out);
        p.train(7, 164, &mut out);
        assert!(p.train(7, 228, &mut out) > 0);
        assert_eq!(p.train(7, 1000, &mut out), 0); // break the pattern
        assert_eq!(p.train(7, 1064, &mut out), 0); // relearn
        assert!(p.train(7, 1128, &mut out) > 0);
    }

    #[test]
    fn negative_strides_work() {
        let mut p = StridePrefetcher::new(16, 1);
        let mut out = [0u64; MAX_DEGREE];
        p.train(3, 1000, &mut out);
        p.train(3, 900, &mut out);
        let n = p.train(3, 800, &mut out);
        assert_eq!(n, 1);
        assert_eq!(out[0], 700);
    }

    #[test]
    fn does_not_prefetch_below_zero() {
        let mut p = StridePrefetcher::new(16, 2);
        let mut out = [0u64; MAX_DEGREE];
        p.train(3, 200, &mut out);
        p.train(3, 100, &mut out);
        let n = p.train(3, 0, &mut out);
        assert_eq!(n, 0); // -100 and -200 rejected
    }

    #[test]
    fn zero_stride_never_fires() {
        let mut p = StridePrefetcher::new(16, 2);
        let mut out = [0u64; MAX_DEGREE];
        for _ in 0..10 {
            assert_eq!(p.train(9, 512, &mut out), 0);
        }
    }

    #[test]
    fn clear_forgets_trained_strides() {
        let mut p = StridePrefetcher::new(16, 2);
        let mut out = [0u64; MAX_DEGREE];
        p.train(7, 100, &mut out);
        p.train(7, 164, &mut out);
        p.clear();
        assert_eq!(p.train(7, 228, &mut out), 0, "a cleared entry must relearn");
        assert_eq!(p.train(7, 292, &mut out), 0);
        assert_eq!(p.train(7, 356, &mut out), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_table_panics() {
        let _ = StridePrefetcher::new(3, 1);
    }
}
