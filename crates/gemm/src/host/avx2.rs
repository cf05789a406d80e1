//! x86_64 AVX2 tier.
//!
//! Hand-written here are the kernels where vector width buys
//! arithmetic — the 4×8 wide tile ([`tile_i8_wide`], the blocked nest's
//! `tile_i8_into` through `scalar::tile_into_with`; the 4×4 [`tile_i8`]
//! of the trailing panel group is its one-panel instance) and the
//! grouped panel kernel (`panel_group`) — plus the transposes that move
//! operand bytes: the A packer's 4×16 byte transposes ([`pack_a_block`],
//! which the AVX-512 tiers share), the B packer's 8×8 word transposes
//! ([`pack_b_block`], shared too) and the K append's 16×16 byte
//! transposes (`k_append`, shared too).
//! The kernels widen i8→i16 with `vpshufb`-interleaved panels and
//! accumulate through `vpmaddwd` (exact: every i8×i8 product fits i16
//! headroom, every pairwise sum fits i32) into wrapping `vpaddd`
//! accumulators, so the tier is bit-identical to the reference by
//! construction. Every other entry — `small_m_dense`, `panel_mav` and
//! the two requant sweeps — is the portable body of `scalar.rs` /
//! `requant.rs`, recompiled here with AVX2 enabled by `recompile!`
//! (`host/mod.rs`).
//!
//! Every `_impl` below is an `unsafe fn` with
//! `#[target_feature(enable = ...)]` and **no inner unsafe blocks**;
//! the public wrappers hold the single `unsafe` call, guarded by a
//! debug assertion that dispatch only routed here on a capable CPU.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use super::Scale;

use super::{scalar, K_BLOCK};

recompile! { "avx2", is_x86_feature_detected!("avx2");
    fn small_m_dense(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32])
        = super::scalar::small_m_dense;
    fn panel_mav(acc: &mut [i32; 4], a_row: &[i8], panel: &[i8]) = super::scalar::panel_mav;
    fn requant_into(acc: &[i32], scale: Scale<'_>, floor: i8, dst: &mut [i8])
        = super::requant::requant_into;
    fn requant_add_sat(acc: &[i32], mults: &[f32], x: &mut [i8])
        = super::requant::requant_add_sat;
}

/// Per-128-lane `vpshufb` mask turning a packed B chunk of 8 k-values
/// (`b[l*4+j]`, 32 bytes) into (l, l+1) pair-interleaved bytes, ready
/// for i16 widening and `vpmaddwd`: lane 0 becomes pairs (l0,l1) then
/// (l2,l3) for j=0..3, lane 1 pairs (l4,l5) then (l6,l7).
const B_PAIR_SHUF: [i8; 32] = [
    0, 4, 1, 5, 2, 6, 3, 7, 8, 12, 9, 13, 10, 14, 11, 15, //
    0, 4, 1, 5, 2, 6, 3, 7, 8, 12, 9, 13, 10, 14, 11, 15,
];

/// Per-row `vpshufb` masks broadcasting row `i` of a packed A chunk as
/// (l, l+1) pairs aligned with [`B_PAIR_SHUF`]'s B layout.
const fn a_row_shuf(i: i8) -> [i8; 32] {
    let mut m = [0i8; 32];
    let mut lane = 0;
    while lane < 2 {
        let base = lane * 16;
        let mut t = 0;
        while t < 4 {
            m[base + 2 * t] = i;
            m[base + 2 * t + 1] = 4 + i;
            m[base + 8 + 2 * t] = 8 + i;
            m[base + 8 + 2 * t + 1] = 12 + i;
            t += 1;
        }
        lane += 1;
    }
    m
}

const A_ROW_SHUF: [[i8; 32]; 4] = [a_row_shuf(0), a_row_shuf(1), a_row_shuf(2), a_row_shuf(3)];

/// `vpshufb` mask spreading 8 raw A bytes (broadcast into both 128-bit
/// lanes) into the (l, l+1) pair layout of [`B_PAIR_SHUF`]: lane 0
/// carries (a0,a1)×4 then (a2,a3)×4, lane 1 (a4,a5)×4 then (a6,a7)×4 —
/// so one `vpmaddwd` against a shuffled 8-k panel chunk covers all four
/// columns of 8 k-values.
const A_PAIR_SHUF: [i8; 32] = [
    0, 1, 0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3, 2, 3, //
    4, 5, 4, 5, 4, 5, 4, 5, 6, 7, 6, 7, 6, 7, 6, 7,
];

// SAFETY: requires AVX2. Loads stay in bounds because `iters` derives
// from `pa.len()` and the wrapper asserts `pb` holds exactly `P` panels
// of that depth; stores land in stack-local arrays.
#[target_feature(enable = "avx2")]
unsafe fn tile_i8_wide_impl<const P: usize>(pa: &[i8], pb: &[i8], acc: &mut [[i32; 4]]) {
    let panel = pa.len();
    let bshuf = _mm256_loadu_si256(B_PAIR_SHUF.as_ptr() as *const __m256i);
    let ashuf = [
        _mm256_loadu_si256(A_ROW_SHUF[0].as_ptr() as *const __m256i),
        _mm256_loadu_si256(A_ROW_SHUF[1].as_ptr() as *const __m256i),
        _mm256_loadu_si256(A_ROW_SHUF[2].as_ptr() as *const __m256i),
        _mm256_loadu_si256(A_ROW_SHUF[3].as_ptr() as *const __m256i),
    ];
    // 4×4P register tile: one A panel × `P` adjacent B panels, all 4P
    // accumulators held across the depth loop — at P = 2 the A-side
    // shuffles and widenings are amortized over twice the columns
    let mut vacc = [[_mm256_setzero_si256(); P]; 4];
    // 8 k-values (32 packed bytes) per iteration; panel depth is a
    // multiple of 8 k-values (dispatch asserts it)
    let iters = panel / 32;
    for t in 0..iters {
        let ap = _mm256_loadu_si256(pa.as_ptr().add(t * 32) as *const __m256i);
        let mut blo = [_mm256_setzero_si256(); P];
        let mut bhi = [_mm256_setzero_si256(); P];
        for q in 0..P {
            let bp = _mm256_loadu_si256(pb.as_ptr().add(q * panel + t * 32) as *const __m256i);
            let bs = _mm256_shuffle_epi8(bp, bshuf);
            blo[q] = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bs));
            bhi[q] = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(bs));
        }
        for i in 0..4 {
            let asel = _mm256_shuffle_epi8(ap, ashuf[i]);
            let a_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(asel));
            let a_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(asel));
            for q in 0..P {
                // vpmaddwd: exact pairwise i16 dot products in i32 lanes
                let prod = _mm256_add_epi32(
                    _mm256_madd_epi16(a_lo, blo[q]),
                    _mm256_madd_epi16(a_hi, bhi[q]),
                );
                vacc[i][q] = _mm256_add_epi32(vacc[i][q], prod);
            }
        }
    }
    for (i, rowacc) in vacc.iter().enumerate() {
        for (q, &v) in rowacc.iter().enumerate() {
            // lane t<4 holds j_t over (l0,l1,l4,l5); lane t+4 over
            // (l2,l3,l6,l7) — fold halves, then fold into the caller tile
            let folded = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
            let mut out = [0i32; 4];
            _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, folded);
            for (c, o) in acc[q * 4 + i].iter_mut().zip(out) {
                *c = c.wrapping_add(o);
            }
        }
    }
}

/// The tile of `P` panels (see [`super::scalar::tile_i8_wide`]), after
/// the shape checks its raw loads rest on.
fn wide<const P: usize>(pa: &[i8], pb: &[i8], acc: &mut [[i32; 4]]) {
    debug_assert!(is_x86_feature_detected!("avx2"), "avx2 kernel dispatched without avx2");
    assert_eq!(pb.len(), P * pa.len(), "pb must hold P panels of pa's depth");
    debug_assert_eq!(acc.len(), 4 * P, "one 4x4 tile per panel");
    debug_assert_eq!(pa.len() % 32, 0, "panel depth must be a multiple of 8 k-values");
    // SAFETY: AVX2 detection gates dispatch (debug-asserted above), and
    // `pb` holds `P` panels of `pa`'s depth (asserted): the impl's two
    // preconditions.
    unsafe { tile_i8_wide_impl::<P>(pa, pb, acc) }
}

/// The 4×4 tile of the trailing panel group (see
/// [`super::scalar::tile_i8`]): the wide tile's code at one panel.
pub fn tile_i8(pa: &[i8], pb: &[i8], acc: &mut [[i32; 4]; 4]) {
    wide::<1>(pa, pb, acc)
}

/// Widened 4×8 integer tile (see [`super::scalar::tile_i8_wide`]): one
/// packed A panel against two adjacent B panels per call; bit-identical
/// to two [`tile_i8`] calls (wrapping adds commute).
pub fn tile_i8_wide(pa: &[i8], pb: &[i8], acc: &mut [[i32; 4]]) {
    wide::<2>(pa, pb, acc)
}

// SAFETY: requires AVX2; `acc` holds `R*P` tiles, `a` holds `R` rows of
// `kreal` k-values at stride `lda`, and `panels` is `P` panels of at
// least `kreal*4` bytes each (all asserted by the wrapper). Every
// 8-byte A load and 32-byte panel load sits below `iters*8 <= kreal`
// k-values of its row / panel; the accumulator accesses cover the `P`
// tiles of row `i` (16 bytes each). The prefetch address runs up to one
// group past `panels` and may leave the image: it is formed with
// `wrapping_add` and only ever handed to `prefetcht0`, which does not
// fault.
#[target_feature(enable = "avx2")]
unsafe fn panel_group_impl<const R: usize, const P: usize>(
    acc: &mut [[i32; 4]],
    a: &[i8],
    lda: usize,
    kreal: usize,
    panels: &[i8],
) -> usize {
    let stride = panels.len() / P;
    let bshuf = _mm256_loadu_si256(B_PAIR_SHUF.as_ptr() as *const __m256i);
    let apairshuf = _mm256_loadu_si256(A_PAIR_SHUF.as_ptr() as *const __m256i);
    // R×P vertical accumulators: lanes 0..3 of vacc[i][q] hold row i ×
    // panel q's j0..3 over one k subset, lanes 4..7 over the rest
    let mut vacc = [[_mm256_setzero_si256(); 2]; R];
    // where the walk's next group starts: one line of it is requested
    // per step below, so the stream runs a group ahead
    let next = panels.as_ptr().wrapping_add(panels.len());
    let iters = kreal / 8;
    for t in 0..iters {
        // A side once per 8 k-values, shared by every panel
        let mut a_lo = [_mm256_setzero_si256(); R];
        let mut a_hi = [_mm256_setzero_si256(); R];
        for i in 0..R {
            let a8 = _mm_loadl_epi64(a.as_ptr().add(i * lda + t * 8) as *const __m128i);
            let asel = _mm256_shuffle_epi8(_mm256_broadcastsi128_si256(a8), apairshuf);
            a_lo[i] = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(asel));
            a_hi[i] = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(asel));
        }
        _mm_prefetch::<_MM_HINT_T0>(next.wrapping_add(t * P * 32));
        for q in 0..P {
            // B side once per panel vector, shared by all R rows
            let bp = _mm256_loadu_si256(panels.as_ptr().add(q * stride + t * 32) as *const __m256i);
            let bs = _mm256_shuffle_epi8(bp, bshuf);
            let b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bs));
            let b_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(bs));
            for i in 0..R {
                let prod = _mm256_add_epi32(
                    _mm256_madd_epi16(a_lo[i], b_lo),
                    _mm256_madd_epi16(a_hi[i], b_hi),
                );
                vacc[i][q] = _mm256_add_epi32(vacc[i][q], prod);
            }
        }
    }
    for (i, v) in vacc.iter().enumerate() {
        // fold each accumulator's halves, panel q's sums to half q
        let sums = _mm256_add_epi32(
            _mm256_permute2x128_si256::<0x20>(v[0], v[1]),
            _mm256_permute2x128_si256::<0x31>(v[0], v[1]),
        );
        let dst = acc.as_mut_ptr().add(i * P) as *mut __m128i;
        for q in 0..P {
            let half = if q == 0 {
                _mm256_castsi256_si128(sums)
            } else {
                _mm256_extracti128_si256::<1>(sums)
            };
            _mm_storeu_si128(dst.add(q), _mm_add_epi32(_mm_loadu_si128(dst.add(q)), half));
        }
    }
    iters * 8
}

/// AVX2 grouped skinny primitive (the `panel_group` table entry of
/// [`super::HostKernel`]): up to 2 panels = 8 columns. Any group, full
/// or partial, runs [`panel_group_impl`] over whole 8-k steps; the
/// `kreal % 8` tail runs [`panel_mav`] per (row, panel).
pub(super) fn panel_group(
    acc: &mut [[i32; 4]],
    a: &[i8],
    lda: usize,
    kreal: usize,
    panels: &[i8],
    npanels: usize,
) {
    debug_assert!(is_x86_feature_detected!("avx2"), "avx2 kernel dispatched without avx2");
    let rows = acc.len() / npanels;
    assert!((1..=2).contains(&npanels), "1..=2 panels");
    assert!((1..=4).contains(&rows) && acc.len() == rows * npanels, "1..=4 rows of tiles");
    assert!(a.len() >= (rows - 1) * lda + kreal, "A must hold every row's k-values");
    assert!(panels.len() / npanels >= kreal * 4, "every panel at least kreal deep");
    // one instance per (rows, panels)
    macro_rules! by_rows {
        ($p:literal) => {
            match rows {
                1 => panel_group_impl::<1, $p>(acc, a, lda, kreal, panels),
                2 => panel_group_impl::<2, $p>(acc, a, lda, kreal, panels),
                3 => panel_group_impl::<3, $p>(acc, a, lda, kreal, panels),
                _ => panel_group_impl::<4, $p>(acc, a, lda, kreal, panels),
            }
        };
    }
    // SAFETY: AVX2 detection gates dispatch (debug-asserted above); the
    // asserts are exactly the shape contract the impl's bounds
    // reasoning states, and `R`, `P` equal `rows`, `npanels`.
    let done = unsafe {
        match npanels {
            1 => by_rows!(1),
            _ => by_rows!(2),
        }
    };
    if done < kreal {
        super::scalar::panel_group_with(panel_mav, done, acc, a, lda, kreal, panels, npanels);
    }
}

// ---- SIMD pack routines ---------------------------------------------------

// SAFETY: requires AVX2 (SSE unpack/loads). The 16-byte row loads are
// guarded by `l + 16 <= kreal` (so `pc + l + 16 <= k` stays inside each
// row) and `i0 + 4 <= m` (all four rows exist); stores write through
// `panel_buf`'s own pointer within `l*4 + 64 <= panel_buf.len()`.
#[target_feature(enable = "avx2")]
unsafe fn pack_a_block_impl(
    buf: &mut [i8],
    a: &[i8],
    m: usize,
    k: usize,
    ic: usize,
    pc: usize,
    kcb: usize,
) {
    let panel = kcb * 4;
    let kreal = kcb.min(k.saturating_sub(pc));
    for (p, panel_buf) in buf.chunks_exact_mut(panel).enumerate() {
        let i0 = ic + p * 4;
        let mut l = 0;
        if i0 + 4 <= m {
            // interior panel: a 4×16 byte transpose per step — load 16
            // k-values from each of the 4 rows, interleave to the
            // packed (l-major, 4-row) layout with punpck trees
            let base = a.as_ptr().add(i0 * k + pc);
            while l + 16 <= kreal {
                let x0 = _mm_loadu_si128(base.add(l) as *const __m128i);
                let x1 = _mm_loadu_si128(base.add(k + l) as *const __m128i);
                let x2 = _mm_loadu_si128(base.add(2 * k + l) as *const __m128i);
                let x3 = _mm_loadu_si128(base.add(3 * k + l) as *const __m128i);
                let t0 = _mm_unpacklo_epi8(x0, x1);
                let t1 = _mm_unpackhi_epi8(x0, x1);
                let t2 = _mm_unpacklo_epi8(x2, x3);
                let t3 = _mm_unpackhi_epi8(x2, x3);
                let dst = panel_buf.as_mut_ptr().add(l * 4);
                _mm_storeu_si128(dst as *mut __m128i, _mm_unpacklo_epi16(t0, t2));
                _mm_storeu_si128(dst.add(16) as *mut __m128i, _mm_unpackhi_epi16(t0, t2));
                _mm_storeu_si128(dst.add(32) as *mut __m128i, _mm_unpacklo_epi16(t1, t3));
                _mm_storeu_si128(dst.add(48) as *mut __m128i, _mm_unpackhi_epi16(t1, t3));
                l += 16;
            }
        }
        // edge panels and the k remainder/padding: the scalar layout
        // reference, byte-identical by construction
        for l in l..kcb {
            let lg = pc + l;
            for (rx, out) in panel_buf[l * 4..l * 4 + 4].iter_mut().enumerate() {
                let i = i0 + rx;
                *out = if lg < k && i < m { a[i * k + lg] } else { 0 };
            }
        }
    }
}

/// The `pack_a` entry of both x86 tiers: the packed image of
/// [`super::scalar::pack_a_block`], built 16 k-values per step via 4×16
/// byte transposes.
pub fn pack_a_block(
    buf: &mut [i8],
    a: &[i8],
    m: usize,
    k: usize,
    ic: usize,
    pc: usize,
    kcb: usize,
) {
    debug_assert!(is_x86_feature_detected!("avx2"), "avx2 packer dispatched without avx2");
    // SAFETY: AVX2 detection gates dispatch (debug-asserted above); the
    // buffer/operand shapes are the shared packing contract
    // (`buf.len()` a multiple of `kcb*4`, `a` row-major m×k) and every
    // vector load/store is bounds-guarded inside the impl.
    unsafe { pack_a_block_impl(buf, a, m, k, ic, pc, kcb) }
}

// SAFETY: requires AVX2; register-to-register, no memory access.
/// Transpose an 8×8 matrix of 4-byte words, row `i` in `r[i]`: word `j`
/// of the result's vector `i` is word `i` of `r[j]`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn transpose_words_8x8(r: [__m256i; 8]) -> [__m256i; 8] {
    // pairs of rows interleaved word by word, then pairs of pairs: u[x]
    // holds column x of rows 0..4 in its low lane and column x + 4 in
    // its high lane, u[x + 4] the same of rows 4..8
    let mut u = [_mm256_setzero_si256(); 8];
    for h in 0..2 {
        let r = &r[4 * h..];
        let t = [
            _mm256_unpacklo_epi32(r[0], r[1]),
            _mm256_unpackhi_epi32(r[0], r[1]),
            _mm256_unpacklo_epi32(r[2], r[3]),
            _mm256_unpackhi_epi32(r[2], r[3]),
        ];
        u[4 * h] = _mm256_unpacklo_epi64(t[0], t[2]);
        u[4 * h + 1] = _mm256_unpackhi_epi64(t[0], t[2]);
        u[4 * h + 2] = _mm256_unpacklo_epi64(t[1], t[3]);
        u[4 * h + 3] = _mm256_unpackhi_epi64(t[1], t[3]);
    }
    let mut out = [_mm256_setzero_si256(); 8];
    for x in 0..4 {
        out[x] = _mm256_permute2x128_si256::<0x20>(u[x], u[x + 4]);
        out[x + 4] = _mm256_permute2x128_si256::<0x31>(u[x], u[x + 4]);
    }
    out
}

// SAFETY: requires AVX2. With `(kreal, whole)` the block's extent, every
// 32-byte load reads words `q0..q0 + 8` of B row `pc + l0 + i`, inside
// the row because `l0 + i < k16 <= kreal <= k - pc` and
// `jc + 4·(q0 + 8) <= jc + 4·w8 <= n`, of a `b` holding `k·n` bytes
// (asserted by the wrapper); every 32-byte store lands in panel
// `q0 + q < w8 <= buf.len() / (kcb·4)` at k-values `l0 + 8h .. + 8`,
// below `k16 <= kcb`. The rest is safe code.
#[target_feature(enable = "avx2")]
unsafe fn pack_b_block_impl(
    buf: &mut [i8],
    b: &[i8],
    n: usize,
    k: usize,
    jc: usize,
    pc: usize,
    kcb: usize,
) {
    let panel = kcb * 4;
    let extent @ (kreal, whole) = scalar::pack_b_extent(buf.len(), n, k, jc, pc, kcb);
    let (k16, w8) = (kreal & !15, whole & !7);
    let dst = buf.as_mut_ptr();
    for l0 in (0..k16).step_by(16) {
        let src = b.as_ptr().add((pc + l0) * n + jc);
        for q0 in (0..w8).step_by(8) {
            // 16 k-rows × 8 panels as two 8×8 word transposes: each
            // panel gets one 64-byte run
            for h in 0..2 {
                let rows: [__m256i; 8] = std::array::from_fn(|i| {
                    _mm256_loadu_si256(src.add((8 * h + i) * n + q0 * 4) as *const __m256i)
                });
                for (q, v) in transpose_words_8x8(rows).into_iter().enumerate() {
                    let at = (q0 + q) * panel + (l0 + 8 * h) * 4;
                    _mm256_storeu_si256(dst.add(at) as *mut __m256i, v);
                }
            }
        }
    }
    scalar::pack_b_words(buf, b, n, jc, pc, kcb, 0..k16, w8..whole);
    scalar::pack_b_words(buf, b, n, jc, pc, kcb, k16..kreal, 0..whole);
    scalar::pack_b_edges(buf, b, n, jc, pc, kcb, extent);
}

/// The `pack_b` entry of every x86 tier: [`super::scalar::pack_b_block`]'s
/// image, its whole panels moved 16 k-rows × 8 panels at a time as two
/// 8×8 transposes of 4-byte words (a panel's k-values are one column of
/// B's words), the panels and k-rows past the last whole step and the
/// edge panels by the portable pieces.
pub fn pack_b_block(
    buf: &mut [i8],
    b: &[i8],
    n: usize,
    k: usize,
    jc: usize,
    pc: usize,
    kcb: usize,
) {
    debug_assert!(is_x86_feature_detected!("avx2"), "avx2 packer dispatched without avx2");
    assert!(b.len() >= k * n, "B must hold k rows of n bytes");
    assert!(buf.len().is_multiple_of(kcb * 4), "buf must hold whole panels");
    // SAFETY: AVX2 detection gates dispatch (debug-asserted above); the
    // asserts are the impl's bounds preconditions.
    unsafe { pack_b_block_impl(buf, b, n, k, jc, pc, kcb) }
}

/// Transpose the 16×16 byte matrix held in `$x` (16 vectors, row `i` in
/// vector `i`) inside every 128-bit lane, with `$lo` / `$hi` the
/// width's `unpacklo_epi8` / `unpackhi_epi8`. One round interleaves
/// vector `i` with vector `i + 8` into vectors `2i` and `2i + 1`, which
/// rotates the 8-bit (vector, byte) index left by one bit; four rounds
/// swap its halves, so vector `j` ends as column `j` of each lane's own
/// 16×16. Fully unrolled: every index is a constant, and the 16 vectors
/// stay in registers.
macro_rules! byte_transpose16 {
    ($x:ident, $lo:ident, $hi:ident) => {
        for _ in 0..4 {
            byte_transpose16!(@round $x, $lo, $hi);
        }
    };
    (@round $x:ident, $lo:ident, $hi:ident) => {
        let y = $x;
        $x = [
            $lo(y[0], y[8]), $hi(y[0], y[8]), $lo(y[1], y[9]), $hi(y[1], y[9]),
            $lo(y[2], y[10]), $hi(y[2], y[10]), $lo(y[3], y[11]), $hi(y[3], y[11]),
            $lo(y[4], y[12]), $hi(y[4], y[12]), $lo(y[5], y[13]), $hi(y[5], y[13]),
            $lo(y[6], y[14]), $hi(y[6], y[14]), $lo(y[7], y[15]), $hi(y[7], y[15]),
        ];
    };
}

// SAFETY: requires AVX2. `run` is the wrapper-checked run and `chans`
// whole 16-channel groups: every 16-byte load reads channels `c0..c0 + 16`
// (`c0 + 16 <= chans <= hidden`) of row `r + i < run` of `rows`; every
// store writes positions `off + r ..` of channel `c0 + j`'s run, 32 or 16
// bytes with `r + 32 <= run` or `r + 16 <= run`, so inside the block
// (`off + run <= K_BLOCK`). The tails are safe code.
#[target_feature(enable = "avx2")]
unsafe fn k_append_impl(block: &mut [i8], rows: &[i8], hidden: usize, off: usize) {
    let (run, mut r) = (rows.len() / hidden, 0);
    let chans = hidden & !15;
    let (src, dst) = (rows.as_ptr(), block.as_mut_ptr());
    let load =
        |row: usize, c0: usize| _mm_loadu_si128(src.add(row * hidden + c0) as *const __m128i);
    // 32 rows: two 16×16 transposes side by side, rows `r..` in the low
    // lanes and `r + 16..` in the high ones, so each channel's 32
    // positions leave in one store
    while r + 32 <= run {
        for c0 in (0..chans).step_by(16) {
            let mut x: [__m256i; 16] =
                std::array::from_fn(|i| _mm256_set_m128i(load(r + 16 + i, c0), load(r + i, c0)));
            byte_transpose16!(x, _mm256_unpacklo_epi8, _mm256_unpackhi_epi8);
            for (j, v) in x.into_iter().enumerate() {
                _mm256_storeu_si256(dst.add((c0 + j) * K_BLOCK + off + r) as *mut __m256i, v);
            }
        }
        r += 32;
    }
    if r + 16 <= run {
        for c0 in (0..chans).step_by(16) {
            let mut x: [__m128i; 16] = std::array::from_fn(|i| load(r + i, c0));
            byte_transpose16!(x, _mm_unpacklo_epi8, _mm_unpackhi_epi8);
            for (j, v) in x.into_iter().enumerate() {
                _mm_storeu_si128(dst.add((c0 + j) * K_BLOCK + off + r) as *mut __m128i, v);
            }
        }
        r += 16;
    }
    // the channels past the last whole group of every row transposed so
    // far, then the rows past the transposes
    scalar::k_append_region(block, rows, hidden, off, 0..r, chans..hidden);
    scalar::k_append_region(block, rows, hidden, off, r..run, 0..hidden);
}

/// The K append (see [`super::HostKernel::k_append`]) of every x86
/// tier: 32 rows at a time, then 16, through 16×16 byte transposes, one
/// store per channel per step; the channels past the last group of 16
/// and the rows past the last step one byte at a time
/// ([`super::scalar::k_append_region`]).
pub(super) fn k_append(block: &mut [i8], rows: &[i8], hidden: usize, off: usize) {
    debug_assert!(is_x86_feature_detected!("avx2"), "avx2 append dispatched without avx2");
    scalar::assert_k_append_shape(block, rows, hidden, off);
    // SAFETY: AVX2 detection gates dispatch (debug-asserted above); the
    // shape asserts are the impl's bounds preconditions.
    unsafe { k_append_impl(block, rows, hidden, off) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{pack_a_ref, pack_b_ref, SplitMix64};

    fn have_avx2() -> bool {
        is_x86_feature_detected!("avx2")
    }

    #[test]
    fn tile_is_bit_identical_to_scalar() {
        if !have_avx2() {
            return;
        }
        let mut r = SplitMix64::new(10);
        for kcb in [8, 16, 48, 160] {
            let pa = r.i8_vec(kcb * 4, -128, 127);
            let pb = r.i8_vec(kcb * 4, -128, 127);
            let mut want = [[1i32, -2, 3, -4]; 4];
            let mut got = want;
            scalar::tile_i8(&pa, &pb, &mut want);
            tile_i8(&pa, &pb, &mut got);
            assert_eq!(got, want, "kcb={kcb}");
        }
    }

    #[test]
    fn wide_tile_is_bit_identical_to_scalar() {
        if !have_avx2() {
            return;
        }
        let mut r = SplitMix64::new(20);
        for kcb in [8, 16, 48, 160] {
            let pa = r.i8_vec(kcb * 4, -128, 127);
            let pb = r.i8_vec(kcb * 8, -128, 127);
            let mut want = [[3i32, -1, 4, -1]; 8];
            let mut got = want;
            scalar::tile_i8_wide(&pa, &pb, &mut want);
            tile_i8_wide(&pa, &pb, &mut got);
            assert_eq!(got, want, "kcb={kcb}");
        }
    }

    #[test]
    fn packers_are_byte_identical_to_scalar() {
        if !have_avx2() {
            return;
        }
        let mut r = SplitMix64::new(22);
        for (rows, cols, kcb, rc, pc) in
            [(64, 48, 32, 0, 0), (61, 47, 32, 60, 16), (7, 3, 48, 4, 0), (16, 16, 16, 0, 9)]
        {
            // B: rows=k, cols=n; A: rows=m, cols=k
            let b = r.i8_vec(rows * cols, -128, 127);
            let ncb = (cols - rc.min(cols)).min(8 * 4).next_multiple_of(4).max(4);
            let mut want = vec![0x55i8; ncb * kcb];
            let mut got = want.clone();
            pack_b_ref(&mut want, &b, cols, rows, rc, pc, kcb);
            pack_b_block(&mut got, &b, cols, rows, rc, pc, kcb);
            assert_eq!(got, want, "pack_b {rows}x{cols} jc={rc} pc={pc} kcb={kcb}");

            let a = r.i8_vec(rows * cols, -128, 127);
            let mcb = (rows - rc.min(rows)).min(8 * 4).next_multiple_of(4).max(4);
            let mut want = vec![0x55i8; mcb * kcb];
            let mut got = want.clone();
            pack_a_ref(&mut want, &a, rows, cols, rc, pc, kcb);
            pack_a_block(&mut got, &a, rows, cols, rc, pc, kcb);
            assert_eq!(got, want, "pack_a {rows}x{cols} ic={rc} pc={pc} kcb={kcb}");
        }
    }

    #[test]
    fn panel_group_is_bit_identical_to_scalar() {
        if !have_avx2() {
            return;
        }
        // full groups (the register-blocked kernel, every row count),
        // partial groups and every k-tail length, into non-zero sums,
        // with A rows strided wider than they are deep
        let mut r = SplitMix64::new(13);
        for rows in 1..=4 {
            for npanels in 1..=2 {
                for kreal in [0usize, 1, 7, 8, 9, 40, 64] {
                    let (lda, stride) = (kreal + 3, kreal.next_multiple_of(16).max(16) * 4);
                    let a = r.i8_vec(rows * lda, -128, 127);
                    let panels = r.i8_vec(npanels * stride, -128, 127);
                    let mut want = vec![[9i32, -8, 7, -6]; rows * npanels];
                    let mut got = want.clone();
                    let mav = scalar::panel_mav;
                    scalar::panel_group_with(mav, 0, &mut want, &a, lda, kreal, &panels, npanels);
                    panel_group(&mut got, &a, lda, kreal, &panels, npanels);
                    assert_eq!(got, want, "rows={rows} npanels={npanels} kreal={kreal}");
                }
            }
        }
    }
}
