//! Host-side reference GeMMs and deterministic data generation.

/// Tiny deterministic PRNG (SplitMix64) so workload generation does not
/// need an external dependency and is reproducible across harness runs.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform i8 in `[lo, hi]`.
    pub fn next_i8(&mut self, lo: i8, hi: i8) -> i8 {
        let span = (hi as i64 - lo as i64 + 1) as u64;
        (lo as i64 + (self.next_u64() % span) as i64) as i8
    }

    /// Vector of i8 values in `[lo, hi]`.
    pub fn i8_vec(&mut self, len: usize, lo: i8, hi: i8) -> Vec<i8> {
        (0..len).map(|_| self.next_i8(lo, hi)).collect()
    }
}

/// Reference i32 GeMM over i8 inputs: `C[i][j] = Σ A[i][l]·B[l][j]`
/// (row-major, wrapping accumulation). This is the golden model every
/// simulated integer method and the host-speed engine are validated
/// against.
pub fn gemm_i32_ref(m: usize, n: usize, k: usize, a: &[i8], b: &[i8]) -> Vec<i32> {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b.len(), k * n, "B must be k×n");
    let mut c = vec![0i32; m * n];
    for i in 0..m {
        for l in 0..k {
            let av = a[i * k + l] as i32;
            for j in 0..n {
                let idx = i * n + j;
                c[idx] = c[idx].wrapping_add(av.wrapping_mul(b[l * n + j] as i32));
            }
        }
    }
    c
}

/// i8-accumulator wrapping GeMM — the semantics of the paper's
/// overflow-unsafe `handv-int8` baseline (§5.3 point 2).
pub fn gemm_i8_wrapping_ref(m: usize, n: usize, k: usize, a: &[i8], b: &[i8]) -> Vec<i8> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut c = vec![0i8; m * n];
    for i in 0..m {
        for l in 0..k {
            let av = a[i * k + l];
            for j in 0..n {
                let p = av.wrapping_mul(b[l * n + j]);
                c[i * n + j] = c[i * n + j].wrapping_add(p);
            }
        }
    }
    c
}

/// Layout reference of the packed B block: columns `jc..` at depth
/// `pc..` into 4-column panels of `kcb` k-values (row-major within the
/// panel), zero past the matrix edge, element by element. `buf` holds
/// exactly `ncb * kcb` bytes. Every tier's `pack_b_block` must produce
/// this image byte for byte.
pub fn pack_b_ref(buf: &mut [i8], b: &[i8], n: usize, k: usize, jc: usize, pc: usize, kcb: usize) {
    for (q, panel) in buf.chunks_exact_mut(kcb * 4).enumerate() {
        for (l, out) in panel.chunks_exact_mut(4).enumerate() {
            for (cx, o) in out.iter_mut().enumerate() {
                let (lg, j) = (pc + l, jc + q * 4 + cx);
                *o = if lg < k && j < n { b[lg * n + j] } else { 0 };
            }
        }
    }
}

/// Layout reference of the packed A block: rows `ic..` at depth `pc..`
/// into 4-row panels of `kcb` k-values (column-major within the
/// panel), zero past the matrix edge, element by element. `buf` holds
/// exactly `mcb * kcb` bytes. Every tier's `pack_a_block` must produce
/// this image byte for byte.
pub fn pack_a_ref(buf: &mut [i8], a: &[i8], m: usize, k: usize, ic: usize, pc: usize, kcb: usize) {
    for (p, panel) in buf.chunks_exact_mut(kcb * 4).enumerate() {
        for (l, out) in panel.chunks_exact_mut(4).enumerate() {
            for (rx, o) in out.iter_mut().enumerate() {
                let (lg, i) = (pc + l, ic + p * 4 + rx);
                *o = if lg < k && i < m { a[i * k + lg] } else { 0 };
            }
        }
    }
}

/// Layout reference of the `amx` tier's whole A image under `plan`
/// (`HostKernel::prepack_a` on that tier must produce it byte for
/// byte), element by element: for each depth block `(pc, kcb)` in
/// order, the rows rounded up to 32, as 32-row strips; each strip the
/// block's k-values rounded up to 64, as 64-deep chunks; each chunk 32
/// rows of 64 bytes. Zero past row `m`, past the block's `kcb` and past
/// `k`. `buf` holds exactly the image.
pub fn pack_a_amx_ref(
    buf: &mut [i8],
    a: &[i8],
    m: usize,
    k: usize,
    plan: &crate::loops::BlockPlan,
) {
    let rows = crate::loops::round_up(plan.mp, 32);
    let mut base = 0;
    let mut pc = 0;
    while pc < plan.kp {
        let kcb = plan.kc.min(plan.kp - pc);
        let kcbp = crate::loops::round_up(kcb, 64);
        for r in 0..rows {
            for l in 0..kcbp {
                let at = base + (r / 32) * 32 * kcbp + (l / 64) * 32 * 64 + (r % 32) * 64 + l % 64;
                let lg = pc + l;
                buf[at] = if r < m && l < kcb && lg < k { a[r * k + lg] } else { 0 };
            }
        }
        base += rows * kcbp;
        pc += kcb;
    }
    assert_eq!(base, buf.len(), "buf must be exactly the image");
}

/// f32 reference GeMM (row-major).
pub fn gemm_f32_ref(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut c = vec![0f32; m * n];
    for i in 0..m {
        for l in 0..k {
            let av = a[i * k + l];
            for j in 0..n {
                c[i * n + j] += av * b[l * n + j];
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn i8_range_respected() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = r.next_i8(-8, 7);
            assert!((-8..=7).contains(&v));
        }
    }

    #[test]
    fn i8_wrapping_matches_manual() {
        // 2×2×2 with values that overflow i8
        let a = vec![100i8, 100, 1, 2];
        let b = vec![100i8, 1, 100, 2];
        let c = gemm_i8_wrapping_ref(2, 2, 2, &a, &b);
        let expect00 = (100i8.wrapping_mul(100)).wrapping_add(100i8.wrapping_mul(100));
        assert_eq!(c[0], expect00);
    }

    #[test]
    fn f32_ref_small() {
        let a = vec![1.0f32, 2.0, 3.0, 4.0];
        let b = vec![5.0f32, 6.0, 7.0, 8.0];
        let c = gemm_f32_ref(2, 2, 2, &a, &b);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn distribution_covers_range() {
        let mut r = SplitMix64::new(3);
        let v = r.i8_vec(4096, -8, 7);
        assert!(v.contains(&-8));
        assert!(v.contains(&7));
    }
}
