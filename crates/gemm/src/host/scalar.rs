//! Portable scalar tier: the always-available fallback and the
//! bit-identity reference every SIMD tier is property-tested against.
//!
//! The integer kernels carry the exact arithmetic of the `camp`
//! instruction (wrapping i32 accumulation of exact i8×i8 products)
//! over the shared 4×4 packed-panel layout.

/// Whole-depth 4×4 widening integer tile: for each of the `kcb`
/// k-values in the packed panels, `acc[i][j] += pa[l*4+i]·pb[l*4+j]`
/// (wrapping). One call per register tile per (jc, pc, ic) block —
/// the camp `tile` path of the host engine.
pub fn tile_i8(pa: &[i8], pb: &[i8], acc: &mut [[i32; 4]; 4]) {
    for (av, bv) in pa.chunks_exact(4).zip(pb.chunks_exact(4)) {
        for i in 0..4 {
            let a = av[i] as i32;
            let row = &mut acc[i];
            for j in 0..4 {
                row[j] = row[j].wrapping_add(a.wrapping_mul(bv[j] as i32));
            }
        }
    }
}

/// Widened register tile: one packed A panel against `nw` consecutive
/// packed B panels (`nw = acc.len() / 4`, `pb.len() = nw * pa.len()`),
/// accumulating into `acc[q*4 + i][j]` for panel `q`. The scalar tier
/// has no registers to widen into, so this is the canonical reference
/// loop over [`tile_i8`] — which is also exactly what SIMD tiers must
/// be bit-identical to (wrapping adds commute, so a tier may interleave
/// the panel sums any way it likes).
pub fn tile_i8_wide(pa: &[i8], pb: &[i8], acc: &mut [[i32; 4]]) {
    let panel = pa.len();
    for (q, sub) in acc.chunks_exact_mut(4).enumerate() {
        let sub: &mut [[i32; 4]; 4] = sub.try_into().expect("chunks_exact(4)");
        tile_i8(pa, &pb[q * panel..(q + 1) * panel], sub);
    }
}

/// The `tile_i8_into` table entry (see `HostKernel`) of a tier whose
/// wide tile `wide` (`nr` columns) returns [`tile_i8_wide`]'s staging
/// layout: computed into a zeroed staging tile, then added to the four
/// rows `c[i*ldc..i*ldc + nr]` as `nr` contiguous wrapping adds each.
pub(super) fn tile_into_with(
    wide: fn(&[i8], &[i8], &mut [[i32; 4]]),
    nr: usize,
    pa: &[i8],
    pb: &[i8],
    c: &mut [i32],
    ldc: usize,
) {
    let mut acc = [[0i32; 4]; 16];
    let acc = &mut acc[..nr];
    wide(pa, pb, acc);
    for rx in 0..4 {
        let crow = &mut c[rx * ldc..][..nr];
        for (dst, sub) in crow.chunks_exact_mut(4).zip(acc.chunks_exact(4)) {
            for (cv, &v) in dst.iter_mut().zip(&sub[rx]) {
                *cv = cv.wrapping_add(v);
            }
        }
    }
}

/// The `tile_i8_into` table entry of the tiers with no widened tile
/// (scalar, NEON): one 4-column panel, through [`tile_into_with`].
pub(super) fn tile_i8_into(pa: &[i8], pb: &[i8], c: &mut [i32], ldc: usize) {
    tile_into_with(tile_i8_wide, 4, pa, pb, c, ldc)
}

/// Skinny-m kernel over raw row-major operands: accumulate
/// `c[i*n+j] += Σ_l a[i*k+l]·b[l*n+j]` (wrapping) with no packing at
/// all — for decode-shaped GeMMs the pack traffic would dominate.
pub fn small_m_dense(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (l, &av) in arow.iter().enumerate() {
            let av = av as i32;
            let brow = &b[l * n..(l + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv = cv.wrapping_add(av.wrapping_mul(bv as i32));
            }
        }
    }
}

/// Panel matrix-vector primitive: one raw A row against one 4-column
/// packed B panel, `acc[j] += Σ_l a_row[l]·panel[l*4+j]` (wrapping).
/// The one-panel code every tier's grouped primitive falls back to.
pub fn panel_mav(acc: &mut [i32; 4], a_row: &[i8], panel: &[i8]) {
    for (&av, bv) in a_row.iter().zip(panel.chunks_exact(4)) {
        let a = av as i32;
        for j in 0..4 {
            acc[j] = acc[j].wrapping_add(a.wrapping_mul(bv[j] as i32));
        }
    }
}

/// The grouped skinny primitive (see `HostKernel`'s `panel_group`
/// entry for the argument contract) built from a one-panel `mav`, over
/// k-values `l0..kreal` of every (row, panel) pair. With `l0 = 0` this
/// is the whole primitive of a tier that has no register-blocked group
/// kernel (scalar, NEON); the SIMD tiers route their tails here —
/// fewer panels than a full group, and the `kreal % 16` k-values past
/// their vector loop.
pub(super) fn panel_group_with(
    mav: fn(&mut [i32; 4], &[i8], &[i8]),
    l0: usize,
    acc: &mut [[i32; 4]],
    a: &[i8],
    lda: usize,
    kreal: usize,
    panels: &[i8],
    npanels: usize,
) {
    let stride = panels.len() / npanels;
    for (i, row_acc) in acc.chunks_exact_mut(npanels).enumerate() {
        let a_row = &a[i * lda + l0..i * lda + kreal];
        for (sums, panel) in row_acc.iter_mut().zip(panels.chunks_exact(stride)) {
            mav(sums, a_row, &panel[l0 * 4..]);
        }
    }
}

// ---- pack routines --------------------------------------------------------
//
// The scalar packers are the layout reference: SIMD tiers must produce
// byte-identical images (proptested in `tests/host_kernels.rs`), since
// a panel packed by any component — engine, weight registry, a
// submitting session — is consumed by whichever tier dispatch selected.

/// Pack a block of row-major B starting at column `jc`, depth `pc` into
/// 4-column panels (row-major within the panel), zero-padded past the
/// matrix edge. `buf` must hold exactly `ncb * kcb` bytes; its length
/// determines the block width.
pub fn pack_b_block(
    buf: &mut [i8],
    b: &[i8],
    n: usize,
    k: usize,
    jc: usize,
    pc: usize,
    kcb: usize,
) {
    let panel = kcb * 4;
    for (q, panel_buf) in buf.chunks_exact_mut(panel).enumerate() {
        let j0 = jc + q * 4;
        for l in 0..kcb {
            let lg = pc + l;
            for (cx, out) in panel_buf[l * 4..l * 4 + 4].iter_mut().enumerate() {
                let j = j0 + cx;
                *out = if lg < k && j < n { b[lg * n + j] } else { 0 };
            }
        }
    }
}

/// Pack a block of row-major A starting at row `ic`, depth `pc` into
/// 4-row panels (column-major within the panel), zero-padded past the
/// matrix edge. `buf` must hold exactly `mcb * kcb` bytes; its length
/// determines the block height.
pub fn pack_a_block(
    buf: &mut [i8],
    a: &[i8],
    m: usize,
    k: usize,
    ic: usize,
    pc: usize,
    kcb: usize,
) {
    let panel = kcb * 4;
    for (p, panel_buf) in buf.chunks_exact_mut(panel).enumerate() {
        let i0 = ic + p * 4;
        for l in 0..kcb {
            let lg = pc + l;
            for (rx, out) in panel_buf[l * 4..l * 4 + 4].iter_mut().enumerate() {
                let i = i0 + rx;
                *out = if lg < k && i < m { a[i * k + lg] } else { 0 };
            }
        }
    }
}

/// Pack 4-bit values two per byte, low nibble first (the layout the
/// `camp.s4` load path expects). An odd trailing element occupies the
/// low nibble of a final byte whose high nibble is zero.
pub fn pack_nibbles(vals: &[i8]) -> Vec<i8> {
    let mut out = Vec::with_capacity(vals.len().div_ceil(2));
    for pair in vals.chunks(2) {
        let lo = pair[0] as u8 & 0x0f;
        let hi = pair.get(1).map_or(0, |&v| (v as u8) << 4);
        out.push((lo | hi) as i8);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{gemm_i32_ref, SplitMix64};

    #[test]
    fn tile_matches_reference_4x4() {
        let mut r = SplitMix64::new(1);
        let kcb = 48;
        let pa = r.i8_vec(kcb * 4, -128, 127);
        let pb = r.i8_vec(kcb * 4, -128, 127);
        let mut acc = [[0i32; 4]; 4];
        tile_i8(&pa, &pb, &mut acc);
        // unpack to row-major and compare
        let mut a = vec![0i8; 4 * kcb];
        let mut b = vec![0i8; kcb * 4];
        for l in 0..kcb {
            for t in 0..4 {
                a[t * kcb + l] = pa[l * 4 + t];
                b[l * 4 + t] = pb[l * 4 + t];
            }
        }
        let want = gemm_i32_ref(4, 4, kcb, &a, &b);
        let flat: Vec<i32> = acc.iter().flatten().copied().collect();
        assert_eq!(flat, want);
    }

    #[test]
    fn tile_accumulates_across_calls() {
        let mut r = SplitMix64::new(2);
        let pa = r.i8_vec(16 * 4, -16, 16);
        let pb = r.i8_vec(16 * 4, -16, 16);
        let mut once = [[0i32; 4]; 4];
        tile_i8(&pa, &pb, &mut once);
        let mut twice = [[0i32; 4]; 4];
        tile_i8(&pa[..8 * 4], &pb[..8 * 4], &mut twice);
        tile_i8(&pa[8 * 4..], &pb[8 * 4..], &mut twice);
        assert_eq!(once, twice, "split-depth calls must fold identically");
    }

    #[test]
    fn small_m_dense_matches_reference() {
        let mut r = SplitMix64::new(3);
        for (m, n, k) in [(1, 17, 9), (2, 64, 33), (8, 5, 3)] {
            let a = r.i8_vec(m * k, -128, 127);
            let b = r.i8_vec(k * n, -128, 127);
            let mut c = vec![0i32; m * n];
            small_m_dense(m, n, k, &a, &b, &mut c);
            assert_eq!(c, gemm_i32_ref(m, n, k, &a, &b), "{m}x{n}x{k}");
        }
    }

    #[test]
    fn panel_mav_matches_reference_column() {
        let mut r = SplitMix64::new(4);
        let k = 37;
        let a_row = r.i8_vec(k, -128, 127);
        let bcols = r.i8_vec(k * 4, -128, 127);
        let mut acc = [0i32; 4];
        panel_mav(&mut acc, &a_row, &bcols);
        let want = gemm_i32_ref(1, 4, k, &a_row, &bcols);
        assert_eq!(acc.to_vec(), want);
    }
}
