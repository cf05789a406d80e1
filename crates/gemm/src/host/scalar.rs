//! Portable scalar tier, and the one body of every table entry that
//! has no hand-written tier code.
//!
//! The integer kernels carry the exact arithmetic of the `camp`
//! instruction (wrapping i32 accumulation of exact i8×i8 products)
//! over the shared 4×4 packed-panel layout.
//!
//! [`small_m_dense`] and [`panel_mav`] are table entries on every tier
//! but `small_m_dense` on the VNNI tiers: the scalar table calls them
//! as they are, and the AVX2 and AVX-512 tables call copies that
//! `host/mod.rs`'s `recompile!` compiles under `#[target_feature]`, so
//! LLVM vectorizes the same source at each tier's width. They are
//! `#[inline(always)]` for that reason (a body that stops inlining into
//! a tier's copy runs at baseline SSE2 width there), and written for
//! the vectorizer: fixed widths, accumulators held in local arrays
//! across the depth loop, contiguous reads. [`tile_i8`],
//! [`pack_a_block`], [`pack_b_block`] and [`k_append`] are the scalar
//! tier's own; the x86 tiers hand-write their transposes and run the
//! `#[inline(always)]` pieces of the last two (`pack_b_words`,
//! `pack_b_edges`, `k_append_region`) for whatever the transposes
//! leave (`docs/HOST_KERNELS.md`, "Hand-written and recompiled"). The
//! oracles live elsewhere: `gemm_i32_ref` for the arithmetic and
//! [`crate::reference::pack_a_ref`] / [`crate::reference::pack_b_ref`]
//! for the packed layout.

use std::ops::Range;

use super::K_BLOCK;

/// One exact i8×i8 product (|p| ≤ 16384: it cannot overflow).
#[inline(always)]
fn mul(a: i8, b: i8) -> i32 {
    i32::from(a) * i32::from(b)
}

/// Whole-depth 4×4 widening integer tile: for each of the `kcb`
/// k-values in the packed panels, `acc[i][j] += pa[l*4+i]·pb[l*4+j]`
/// (wrapping); `kcb` a multiple of 4 (the table's contract is 8). The
/// blocked nest's trailing panel group on the scalar tier.
pub fn tile_i8(pa: &[i8], pb: &[i8], acc: &mut [[i32; 4]; 4]) {
    let mut sums = [[0i32; 4]; 4];
    for (av, bv) in pa.chunks_exact(4).zip(pb.chunks_exact(4)) {
        for (row, &a) in sums.iter_mut().zip(av) {
            for (s, &b) in row.iter_mut().zip(bv) {
                *s = s.wrapping_add(mul(a, b));
            }
        }
    }
    for (out, row) in acc.iter_mut().zip(sums) {
        add_into(out, &row);
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

/// The scalar table's `tile_i8_into` entry, which has no widened
/// tile: one 4-column panel, through [`tile_into_with`].
pub(super) fn tile_i8_into(pa: &[i8], pb: &[i8], c: &mut [i32], ldc: usize) {
    tile_into_with(tile_i8_wide, 4, pa, pb, c, ldc)
}

/// `W` adjacent columns of one row of a skinny-m product, starting at
/// column `j`: `Σ_l arow[l]·b[l*n + j + x]` for `x < W`, held in `W`
/// accumulators across the whole depth (B rows stream through once).
#[inline(always)]
fn dense_cols<const W: usize>(arow: &[i8], b: &[i8], n: usize, j: usize) -> [i32; W] {
    let mut sums = [0i32; W];
    for (l, &av) in arow.iter().enumerate() {
        // the product of two i8s fits i16 exactly; hiding `av`'s range
        // keeps LLVM from proving it and widening the multiply to 32-bit
        // lanes (`vpmulld`, half the lanes per issue of `vpmullw`)
        let av = std::hint::black_box(av as i16);
        for (s, &bv) in sums.iter_mut().zip(&b[l * n + j..][..W]) {
            *s = s.wrapping_add(av.wrapping_mul(bv as i16) as i32);
        }
    }
    sums
}

/// `dst[x] += sums[x]` (wrapping).
#[inline(always)]
fn add_into(dst: &mut [i32], sums: &[i32]) {
    for (d, &s) in dst.iter_mut().zip(sums) {
        *d = d.wrapping_add(s);
    }
}

/// Skinny-m kernel over raw row-major operands: accumulate
/// `c[i*n+j] += Σ_l a[i*k+l]·b[l*n+j]` (wrapping) with no packing at
/// all — for decode-shaped GeMMs the pack traffic would dominate. Per
/// row: 32 columns per step, then 8, then the row's last 8 columns once
/// more with only the ones not yet summed added, so no column of a row
/// at least 8 wide runs one lane at a time.
#[inline(always)]
pub fn small_m_dense(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    for i in 0..m {
        let arow = &a[i * k..][..k];
        let crow = &mut c[i * n..][..n];
        let mut j = 0;
        while j + 32 <= n {
            add_into(&mut crow[j..j + 32], &dense_cols::<32>(arow, b, n, j));
            j += 32;
        }
        while j + 8 <= n {
            add_into(&mut crow[j..j + 8], &dense_cols::<8>(arow, b, n, j));
            j += 8;
        }
        if j < n && n >= 8 {
            let last = dense_cols::<8>(arow, b, n, n - 8);
            add_into(&mut crow[j..], &last[8 - (n - j)..]);
        } else {
            for j in j..n {
                add_into(&mut crow[j..j + 1], &dense_cols::<1>(arow, b, n, j));
            }
        }
    }
}

/// Panel matrix-vector primitive: one raw A row against one 4-column
/// packed B panel, `acc[j] += Σ_l a_row[l]·panel[l*4+j]` (wrapping).
/// The whole skinny walk on the scalar tier, which has no group
/// kernel, and the k tail past the vector loop of the tiers that do.
#[inline(always)]
pub fn panel_mav(acc: &mut [i32; 4], a_row: &[i8], panel: &[i8]) {
    let mut sums = [0i32; 4];
    for (&a, bv) in a_row.iter().zip(panel.chunks_exact(4)) {
        for (s, &b) in sums.iter_mut().zip(bv) {
            *s = s.wrapping_add(mul(a, b));
        }
    }
    add_into(acc, &sums);
}

/// The grouped skinny primitive (see `HostKernel`'s `panel_group`
/// entry for the argument contract) built from a one-panel `mav`, over
/// k-values `l0..kreal` of every (row, panel) pair. With `l0 = 0` this
/// is the scalar tier's whole primitive (it has no register-blocked
/// group kernel); the x86 tiers route the `kreal % 16`
/// (`% 8` on AVX2) k-values past their vector loop here.
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
// Byte-identical to the element-wise layout references in
// `crate::reference` (proptested in `tests/host_kernels.rs`), since a
// panel packed by any component — engine, weight registry, a submitting
// session — is consumed by whichever tier dispatch selected.

/// Zero a panel's depth padding: a `memset` call only where there is
/// some (a packed panel's depth is usually whole).
#[inline(always)]
fn zero(pad: &mut [i8]) {
    if !pad.is_empty() {
        pad.fill(0);
    }
}

/// Where a B block's image splits, `(kreal, whole)`: the k-values the
/// matrix has past `pc` (at most `kcb`), and the panels of `buf_len`
/// bytes' block whose four columns all exist — the rest of the block
/// is the matrix edge.
#[inline(always)]
pub(super) fn pack_b_extent(
    buf_len: usize,
    n: usize,
    k: usize,
    jc: usize,
    pc: usize,
    kcb: usize,
) -> (usize, usize) {
    let kreal = kcb.min(k.saturating_sub(pc));
    (kreal, (buf_len / (kcb * 4)).min(n.saturating_sub(jc) / 4))
}

/// The words of [`pack_b_block`]'s whole panels `qs` at k-values `ls`:
/// each k-value's 4 source bytes land as one word in their panel, 16 B
/// rows at a time, so each panel gets one 64-byte run of words from rows
/// that stay in L1 while every panel of the block takes its own.
#[inline(always)]
pub(super) fn pack_b_words(
    buf: &mut [i8],
    b: &[i8],
    n: usize,
    jc: usize,
    pc: usize,
    kcb: usize,
    ls: Range<usize>,
    qs: Range<usize>,
) {
    if qs.is_empty() {
        return;
    }
    for l0 in ls.clone().step_by(16) {
        let rows = 16.min(ls.end - l0);
        let slab = &b[(pc + l0) * n..][..rows * n];
        for q in qs.clone() {
            let col = jc + q * 4;
            let out = &mut buf[q * kcb * 4 + l0 * 4..][..rows * 4];
            for (word, row) in out.chunks_exact_mut(4).zip(slab.chunks_exact(n)) {
                word.copy_from_slice(&row[col..col + 4]);
            }
        }
    }
}

/// The rest of [`pack_b_block`]'s image once the whole panels' words
/// are in: every panel's depth padding zeroed, and the edge panels
/// (`whole..`) filled element by element, zero past the matrix edge.
#[inline(always)]
pub(super) fn pack_b_edges(
    buf: &mut [i8],
    b: &[i8],
    n: usize,
    jc: usize,
    pc: usize,
    kcb: usize,
    (kreal, whole): (usize, usize),
) {
    for (q, panel_buf) in buf.chunks_exact_mut(kcb * 4).enumerate() {
        let (body, pad) = panel_buf.split_at_mut(kreal * 4);
        zero(pad);
        if q >= whole {
            for (l, out) in body.chunks_exact_mut(4).enumerate() {
                for (cx, o) in out.iter_mut().enumerate() {
                    let j = jc + q * 4 + cx;
                    *o = if j < n { b[(pc + l) * n + j] } else { 0 };
                }
            }
        }
    }
}

/// Pack a block of row-major B starting at column `jc`, depth `pc` into
/// 4-column panels (row-major within the panel), zero-padded past the
/// matrix edge. `buf` must hold exactly `ncb * kcb` bytes; its length
/// determines the block width. The scalar tier's entry: `pack_b_words`
/// over every whole panel, then `pack_b_edges`.
pub fn pack_b_block(
    buf: &mut [i8],
    b: &[i8],
    n: usize,
    k: usize,
    jc: usize,
    pc: usize,
    kcb: usize,
) {
    let (kreal, whole) = pack_b_extent(buf.len(), n, k, jc, pc, kcb);
    pack_b_words(buf, b, n, jc, pc, kcb, 0..kreal, 0..whole);
    pack_b_edges(buf, b, n, jc, pc, kcb, (kreal, whole));
}

/// Pack a block of row-major A starting at row `ic`, depth `pc` into
/// 4-row panels (column-major within the panel), zero-padded past the
/// matrix edge. `buf` must hold exactly `mcb * kcb` bytes; its length
/// determines the block height. An interior panel interleaves its four
/// rows a k-value at a time (four contiguous reads), which LLVM turns
/// into byte-unpack trees.
pub fn pack_a_block(
    buf: &mut [i8],
    a: &[i8],
    m: usize,
    k: usize,
    ic: usize,
    pc: usize,
    kcb: usize,
) {
    let kreal = kcb.min(k.saturating_sub(pc));
    for (p, panel_buf) in buf.chunks_exact_mut(kcb * 4).enumerate() {
        let i0 = ic + p * 4;
        let (body, pad) = panel_buf.split_at_mut(kreal * 4);
        zero(pad);
        if i0 + 4 <= m && kreal > 0 {
            let row = |r: usize| &a[(i0 + r) * k + pc..][..kreal];
            let rows = row(0).iter().zip(row(1)).zip(row(2)).zip(row(3));
            for (out, (((&x0, &x1), &x2), &x3)) in body.chunks_exact_mut(4).zip(rows) {
                out[0] = x0;
                out[1] = x1;
                out[2] = x2;
                out[3] = x3;
            }
        } else {
            for (l, out) in body.chunks_exact_mut(4).enumerate() {
                for (r, o) in out.iter_mut().enumerate() {
                    *o = if i0 + r < m { a[(i0 + r) * k + pc + l] } else { 0 };
                }
            }
        }
    }
}

// ---- the K append ---------------------------------------------------------

/// The K append (see `HostKernel::k_append`) of rows `rs` and channels
/// `cs` only: `block[c·K_BLOCK + off + r] = rows[r·hidden + c]`, one
/// byte per (channel, row), a row at a time. A one-row append is one
/// store per channel.
#[inline(always)]
pub(super) fn k_append_region(
    block: &mut [i8],
    rows: &[i8],
    hidden: usize,
    off: usize,
    rs: Range<usize>,
    cs: Range<usize>,
) {
    let src = rows[rs.start * hidden..rs.end * hidden].chunks_exact(hidden);
    for (r, row) in rs.zip(src) {
        let runs = block.chunks_exact_mut(K_BLOCK).skip(cs.start);
        for (run, &v) in runs.zip(&row[cs.clone()]) {
            run[off + r] = v;
        }
    }
}

/// The shape contract of the K append (see `HostKernel::k_append`),
/// which the SIMD tiers' raw loads and stores rest on; returns the run.
pub(super) fn assert_k_append_shape(block: &[i8], rows: &[i8], hidden: usize, off: usize) -> usize {
    assert!(hidden > 0 && block.len() == hidden * K_BLOCK, "block must be hidden x K_BLOCK");
    assert!(rows.len().is_multiple_of(hidden), "rows must be whole rows of hidden bytes");
    let run = rows.len() / hidden;
    assert!(off + run <= K_BLOCK, "the run must fit the block past off");
    run
}

/// The scalar tier's K append: `k_append_region` over every row and
/// channel.
pub fn k_append(block: &mut [i8], rows: &[i8], hidden: usize, off: usize) {
    let run = assert_k_append_shape(block, rows, hidden, off);
    k_append_region(block, rows, hidden, off, 0..run, 0..hidden);
}

/// Pack 4-bit values two per byte, low nibble first (the layout the
/// `camp.s4` load path expects). An odd trailing element occupies the
/// low nibble of a final byte whose high nibble is zero.
pub fn pack_nibbles(vals: &[i8]) -> Vec<i8> {
    vals.chunks(2).map(|pair| nibble_byte(pair) as i8).collect()
}

/// The byte [`pack_nibbles`] makes of one pair of values, or of a lone
/// trailing one.
#[inline]
pub(crate) fn nibble_byte(pair: &[i8]) -> u8 {
    let lo = pair[0] as u8 & 0x0f;
    let hi = pair.get(1).map_or(0, |&v| (v as u8) << 4);
    lo | hi
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
