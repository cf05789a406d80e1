//! x86_64 AVX2 tier.
//!
//! Integer kernels widen i8→i16 with `vpshufb`-interleaved panels and
//! accumulate through `vpmaddwd` (exact: every i8×i8 product fits i16
//! headroom, every pairwise sum fits i32) into wrapping `vpaddd`
//! accumulators — so the tier is bit-identical to the scalar reference
//! by construction.
//!
//! Every `_impl` below is an `unsafe fn` with
//! `#[target_feature(enable = ...)]` and **no inner unsafe blocks**;
//! the public wrappers hold the single `unsafe` call, guarded by a
//! debug assertion that dispatch only routed here on a capable CPU.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use super::Scale;

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

/// 8-byte `vpshufb` mask pairing two consecutive panel k-values per
/// column for [`panel_mav`]; high half zeroed (indices with the sign
/// bit set produce 0).
const PANEL_PAIR_SHUF: [i8; 16] = [
    0, 4, 1, 5, 2, 6, 3, 7, //
    -128, -128, -128, -128, -128, -128, -128, -128,
];

/// `vpshufb` mask spreading 8 raw A bytes (broadcast into both 128-bit
/// lanes) into the (l, l+1) pair layout of [`B_PAIR_SHUF`]: lane 0
/// carries (a0,a1)×4 then (a2,a3)×4, lane 1 (a4,a5)×4 then (a6,a7)×4 —
/// so one `vpmaddwd` against a shuffled 8-k panel chunk covers all four
/// columns of 8 k-values.
const A_PAIR_SHUF: [i8; 32] = [
    0, 1, 0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3, 2, 3, //
    4, 5, 4, 5, 4, 5, 4, 5, 6, 7, 6, 7, 6, 7, 6, 7,
];

// SAFETY: requires AVX2 (the `target_feature` precondition). The
// unaligned loads stay in bounds because `iters` is derived from
// `pa.len()` and the packing contract gives `pb` the same whole-32-byte
// chunk count; stores land in the stack-local `out` array.
#[target_feature(enable = "avx2")]
unsafe fn tile_i8_impl(pa: &[i8], pb: &[i8], acc: &mut [[i32; 4]; 4]) {
    let bshuf = _mm256_loadu_si256(B_PAIR_SHUF.as_ptr() as *const __m256i);
    let ashuf = [
        _mm256_loadu_si256(A_ROW_SHUF[0].as_ptr() as *const __m256i),
        _mm256_loadu_si256(A_ROW_SHUF[1].as_ptr() as *const __m256i),
        _mm256_loadu_si256(A_ROW_SHUF[2].as_ptr() as *const __m256i),
        _mm256_loadu_si256(A_ROW_SHUF[3].as_ptr() as *const __m256i),
    ];
    let mut vacc = [_mm256_setzero_si256(); 4];
    // 8 k-values (32 packed bytes) per iteration; panel depth is a
    // multiple of 8 k-values (dispatch asserts it)
    let iters = pa.len() / 32;
    for t in 0..iters {
        let ap = _mm256_loadu_si256(pa.as_ptr().add(t * 32) as *const __m256i);
        let bp = _mm256_loadu_si256(pb.as_ptr().add(t * 32) as *const __m256i);
        let bs = _mm256_shuffle_epi8(bp, bshuf);
        let b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bs));
        let b_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(bs));
        for i in 0..4 {
            let asel = _mm256_shuffle_epi8(ap, ashuf[i]);
            let a_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(asel));
            let a_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(asel));
            // vpmaddwd: exact pairwise i16 dot products in i32 lanes
            let prod =
                _mm256_add_epi32(_mm256_madd_epi16(a_lo, b_lo), _mm256_madd_epi16(a_hi, b_hi));
            vacc[i] = _mm256_add_epi32(vacc[i], prod);
        }
    }
    for (row, v) in acc.iter_mut().zip(vacc) {
        // lane t<4 holds j_t over (l0,l1,l4,l5); lane t+4 over
        // (l2,l3,l6,l7) — fold halves, then fold into the caller tile
        let folded = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        let mut out = [0i32; 4];
        _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, folded);
        for (c, o) in row.iter_mut().zip(out) {
            *c = c.wrapping_add(o);
        }
    }
}

/// See [`super::scalar::tile_i8`]; bit-identical, AVX2-accelerated.
pub fn tile_i8(pa: &[i8], pb: &[i8], acc: &mut [[i32; 4]; 4]) {
    debug_assert!(is_x86_feature_detected!("avx2"), "avx2 kernel dispatched without avx2");
    // SAFETY: the HostKernel dispatch table only routes here after
    // runtime AVX2 detection (debug-asserted above), and the packer
    // emits `pa`/`pb` as whole 32-byte chunks — tile_i8_impl's two
    // preconditions.
    unsafe { tile_i8_impl(pa, pb, acc) }
}

// SAFETY: requires AVX2. Loads stay in bounds because `iters` derives
// from `pa.len()` and the wrapper asserts `pb` holds exactly two panels
// of that depth; stores land in stack-local arrays.
#[target_feature(enable = "avx2")]
unsafe fn tile_i8_wide_impl(pa: &[i8], pb: &[i8], acc: &mut [[i32; 4]]) {
    let panel = pa.len();
    let bshuf = _mm256_loadu_si256(B_PAIR_SHUF.as_ptr() as *const __m256i);
    let ashuf = [
        _mm256_loadu_si256(A_ROW_SHUF[0].as_ptr() as *const __m256i),
        _mm256_loadu_si256(A_ROW_SHUF[1].as_ptr() as *const __m256i),
        _mm256_loadu_si256(A_ROW_SHUF[2].as_ptr() as *const __m256i),
        _mm256_loadu_si256(A_ROW_SHUF[3].as_ptr() as *const __m256i),
    ];
    // 4×8 register tile: one A panel × two adjacent B panels, all 8
    // accumulators held across the depth loop — the A-side shuffles and
    // widenings are amortized over twice the columns of [`tile_i8`].
    let mut vacc = [[_mm256_setzero_si256(); 2]; 4];
    let iters = panel / 32;
    for t in 0..iters {
        let ap = _mm256_loadu_si256(pa.as_ptr().add(t * 32) as *const __m256i);
        let mut blo = [_mm256_setzero_si256(); 2];
        let mut bhi = [_mm256_setzero_si256(); 2];
        for q in 0..2 {
            let bp = _mm256_loadu_si256(pb.as_ptr().add(q * panel + t * 32) as *const __m256i);
            let bs = _mm256_shuffle_epi8(bp, bshuf);
            blo[q] = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bs));
            bhi[q] = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(bs));
        }
        for i in 0..4 {
            let asel = _mm256_shuffle_epi8(ap, ashuf[i]);
            let a_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(asel));
            let a_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(asel));
            for q in 0..2 {
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
            let folded = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
            let mut out = [0i32; 4];
            _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, folded);
            for (c, o) in acc[q * 4 + i].iter_mut().zip(out) {
                *c = c.wrapping_add(o);
            }
        }
    }
}

/// Widened 4×8 integer tile (see [`super::scalar::tile_i8_wide`]): one
/// packed A panel against two adjacent B panels per call; bit-identical
/// to two [`tile_i8`] calls (wrapping adds commute).
pub fn tile_i8_wide(pa: &[i8], pb: &[i8], acc: &mut [[i32; 4]]) {
    debug_assert!(is_x86_feature_detected!("avx2"), "avx2 kernel dispatched without avx2");
    debug_assert_eq!(acc.len(), 8, "avx2 wide tile is 4x8 (two panels)");
    debug_assert_eq!(pb.len(), 2 * pa.len(), "pb must hold two panels of pa's depth");
    debug_assert_eq!(pa.len() % 32, 0, "panel depth must be a multiple of 8 k-values");
    // SAFETY: AVX2 detection gates dispatch (debug-asserted above);
    // the panel-shape preconditions the impl's bounds reasoning needs
    // are debug-asserted here and guaranteed by the engine's grouping
    // loop, which only forms whole two-panel groups.
    unsafe { tile_i8_wide_impl(pa, pb, acc) }
}

/// Sliding i32 lane mask of `small_m_dense`'s column tail: the 8 lanes
/// read at offset `r` keep exactly the last `r` of them.
const TAIL_LANES: [i32; 16] = [0, 0, 0, 0, 0, 0, 0, 0, -1, -1, -1, -1, -1, -1, -1, -1];

// SAFETY: requires AVX2, and `j + 8 <= n`: the 8-byte B loads at
// `l*n + j` stay inside the k×n operand for every `l < k`, and the
// caller's 8-lane C access at `i*n + j` inside its row.
#[target_feature(enable = "avx2")]
unsafe fn small_m_sweep8(arow: &[i8], b: &[i8], n: usize, j: usize) -> __m256i {
    let mut acc = _mm256_setzero_si256();
    for (l, &av) in arow.iter().enumerate() {
        let a16 = _mm_set1_epi16(av as i16);
        let b16 = _mm_cvtepi8_epi16(_mm_loadl_epi64(b.as_ptr().add(l * n + j) as *const __m128i));
        // i8×i8 products fit i16 exactly (|p| ≤ 16384)
        acc = _mm256_add_epi32(acc, _mm256_cvtepi16_epi32(_mm_mullo_epi16(a16, b16)));
    }
    acc
}

// SAFETY: requires AVX2. Every pointer offset is guarded by the loop
// bounds: C rows via `j + 16 <= n`, B rows via the same guard (for
// `l < k`, `l*n + j + 16 <= k*n` follows from `j + 16 <= n`); the
// 8-column steps run at `j + 8 <= n` and at `n - 8` under `n >= 8`
// ([`small_m_sweep8`]'s contract), the lane-mask load reads 8 of
// [`TAIL_LANES`]' 16 entries at an offset `<= 7`, and the `n < 8`
// remainder uses safe indexing.
#[target_feature(enable = "avx2")]
unsafe fn small_m_dense_impl(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let mut j = 0;
        // 16 output columns per step, i32 accumulators held across the
        // whole k loop (B rows stream through cache once per A row)
        while j + 16 <= n {
            let cptr = c.as_mut_ptr().add(i * n + j);
            let mut acc0 = _mm256_loadu_si256(cptr as *const __m256i);
            let mut acc1 = _mm256_loadu_si256(cptr.add(8) as *const __m256i);
            for (l, &av) in arow.iter().enumerate() {
                let a16 = _mm256_set1_epi16(av as i16);
                let b8 = _mm_loadu_si128(b.as_ptr().add(l * n + j) as *const __m128i);
                let b16 = _mm256_cvtepi8_epi16(b8);
                // i8×i8 products fit i16 exactly (|p| ≤ 16384)
                let p16 = _mm256_mullo_epi16(a16, b16);
                let lo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(p16));
                let hi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256::<1>(p16));
                acc0 = _mm256_add_epi32(acc0, lo);
                acc1 = _mm256_add_epi32(acc1, hi);
            }
            _mm256_storeu_si256(cptr as *mut __m256i, acc0);
            _mm256_storeu_si256(cptr.add(8) as *mut __m256i, acc1);
            j += 16;
        }
        // the column tail: one 8-wide step while it fits, then the last
        // 8 columns of the row once more with the lanes already summed
        // (`< j`) masked to zero, so no column of a row at least one
        // vector wide runs scalar
        if j + 8 <= n {
            let cptr = c.as_mut_ptr().add(i * n + j) as *mut __m256i;
            let sum = small_m_sweep8(arow, b, n, j);
            _mm256_storeu_si256(cptr, _mm256_add_epi32(_mm256_loadu_si256(cptr), sum));
            j += 8;
        }
        if j < n && n >= 8 {
            let cptr = c.as_mut_ptr().add(i * n + n - 8) as *mut __m256i;
            let live = _mm256_loadu_si256(TAIL_LANES.as_ptr().add(n - j) as *const __m256i);
            let sum = _mm256_and_si256(small_m_sweep8(arow, b, n, n - 8), live);
            _mm256_storeu_si256(cptr, _mm256_add_epi32(_mm256_loadu_si256(cptr), sum));
            j = n;
        }
        for j in j..n {
            let mut acc = c[i * n + j];
            for (l, &av) in arow.iter().enumerate() {
                acc = acc.wrapping_add((av as i32).wrapping_mul(b[l * n + j] as i32));
            }
            c[i * n + j] = acc;
        }
    }
}

/// See [`super::scalar::small_m_dense`]; bit-identical.
pub fn small_m_dense(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    debug_assert!(is_x86_feature_detected!("avx2"), "avx2 kernel dispatched without avx2");
    // SAFETY: AVX2 is runtime-detected before dispatch reaches this
    // tier (debug-asserted above); slice shapes are the m×k / k×n / m×n
    // engine contract the impl's bounds reasoning relies on.
    unsafe { small_m_dense_impl(m, n, k, a, b, c) }
}

// SAFETY: requires AVX2, and `panel` must hold 4 columns per k-value
// of `a_row` (the weight-panel layout): the 32-byte load at `l*4` needs
// `l + 8 <= a_row.len()` (which also bounds the 8-byte A load), the
// 8-byte load needs `l + 2 <=`, and each loop guard enforces its own.
#[target_feature(enable = "avx2")]
unsafe fn panel_mav_impl(acc: &mut [i32; 4], a_row: &[i8], panel: &[i8]) {
    let kreal = a_row.len();
    let mut l = 0;
    // main loop: 8 k-values per iteration — one 32-byte panel load and
    // one 8-byte A load per 32 MACs, the same shuffle/widen/vpmaddwd
    // pipeline as the blocked tile kernel (a single A "row" of it)
    let mut vacc8 = _mm256_setzero_si256();
    if kreal >= 8 {
        let bshuf = _mm256_loadu_si256(B_PAIR_SHUF.as_ptr() as *const __m256i);
        let apairshuf = _mm256_loadu_si256(A_PAIR_SHUF.as_ptr() as *const __m256i);
        while l + 8 <= kreal {
            let bp = _mm256_loadu_si256(panel.as_ptr().add(l * 4) as *const __m256i);
            let bs = _mm256_shuffle_epi8(bp, bshuf);
            let b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bs));
            let b_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(bs));
            let a8 = _mm_loadl_epi64(a_row.as_ptr().add(l) as *const __m128i);
            let asel = _mm256_shuffle_epi8(_mm256_broadcastsi128_si256(a8), apairshuf);
            let a_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(asel));
            let a_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(asel));
            let prod =
                _mm256_add_epi32(_mm256_madd_epi16(a_lo, b_lo), _mm256_madd_epi16(a_hi, b_hi));
            vacc8 = _mm256_add_epi32(vacc8, prod);
            l += 8;
        }
    }
    // lanes 0..3 hold j0..3 over one k subset, lanes 4..7 the rest
    let folded = _mm_add_epi32(_mm256_castsi256_si128(vacc8), _mm256_extracti128_si256::<1>(vacc8));
    let mut vacc = _mm_add_epi32(_mm_loadu_si128(acc.as_ptr() as *const __m128i), folded);
    let shuf = _mm_loadu_si128(PANEL_PAIR_SHUF.as_ptr() as *const __m128i);
    while l + 2 <= kreal {
        // 2 k-values × 4 columns = 8 panel bytes
        let b8 = _mm_loadl_epi64(panel.as_ptr().add(l * 4) as *const __m128i);
        let b16 = _mm_cvtepi8_epi16(_mm_shuffle_epi8(b8, shuf));
        let a0 = a_row[l] as i16;
        let a1 = a_row[l + 1] as i16;
        let apair = _mm_set1_epi32(((a1 as i32) << 16) | (a0 as u16 as i32));
        vacc = _mm_add_epi32(vacc, _mm_madd_epi16(b16, apair));
        l += 2;
    }
    _mm_storeu_si128(acc.as_mut_ptr() as *mut __m128i, vacc);
    if l < kreal {
        let a = a_row[l] as i32;
        for (j, v) in acc.iter_mut().enumerate() {
            *v = v.wrapping_add(a.wrapping_mul(panel[l * 4 + j] as i32));
        }
    }
}

/// See [`super::scalar::panel_mav`]; bit-identical.
pub fn panel_mav(acc: &mut [i32; 4], a_row: &[i8], panel: &[i8]) {
    debug_assert!(is_x86_feature_detected!("avx2"), "avx2 kernel dispatched without avx2");
    // SAFETY: AVX2 detection gates dispatch (debug-asserted above);
    // the registered-weight panel stores 4 columns per k-value, the
    // impl's only layout precondition.
    unsafe { panel_mav_impl(acc, a_row, panel) }
}

// SAFETY: requires AVX2; `acc` holds `R*2` tiles, `a` holds `R` rows of
// `kreal` k-values at stride `lda`, and `panels` is two panels of at
// least `kreal*4` bytes each (all asserted by the wrapper). Every
// 8-byte A load and 32-byte panel load sits below `iters*8 <= kreal`
// k-values of its row / panel; the 32-byte accumulator accesses cover
// the two tiles of row `i`. The prefetch address runs up to one group
// past `panels` and may leave the image: it is formed with
// `wrapping_add` and only ever handed to `prefetcht0`, which does not
// fault.
#[target_feature(enable = "avx2")]
unsafe fn panel_group_impl<const R: usize>(
    acc: &mut [[i32; 4]],
    a: &[i8],
    lda: usize,
    kreal: usize,
    panels: &[i8],
) -> usize {
    let stride = panels.len() / 2;
    let bshuf = _mm256_loadu_si256(B_PAIR_SHUF.as_ptr() as *const __m256i);
    let apairshuf = _mm256_loadu_si256(A_PAIR_SHUF.as_ptr() as *const __m256i);
    // R×2 vertical accumulators: lanes 0..3 of vacc[i][q] hold row i ×
    // panel q's j0..3 over one k subset, lanes 4..7 over the rest
    let mut vacc = [[_mm256_setzero_si256(); 2]; R];
    // where the walk's next group starts: one line of it is requested
    // per pair of B loads below, so the stream runs a group ahead
    let next = panels.as_ptr().wrapping_add(panels.len());
    let iters = kreal / 8;
    for t in 0..iters {
        // A side once per 8 k-values, shared by both panels
        let mut a_lo = [_mm256_setzero_si256(); R];
        let mut a_hi = [_mm256_setzero_si256(); R];
        for i in 0..R {
            let a8 = _mm_loadl_epi64(a.as_ptr().add(i * lda + t * 8) as *const __m128i);
            let asel = _mm256_shuffle_epi8(_mm256_broadcastsi128_si256(a8), apairshuf);
            a_lo[i] = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(asel));
            a_hi[i] = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(asel));
        }
        _mm_prefetch::<_MM_HINT_T0>(next.wrapping_add(t * 64));
        for q in 0..2 {
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
        let dst = acc.as_mut_ptr().add(i * 2) as *mut __m256i;
        _mm256_storeu_si256(dst, _mm256_add_epi32(_mm256_loadu_si256(dst), sums));
    }
    iters * 8
}

/// AVX2 grouped skinny primitive (the `panel_group` table entry of
/// [`super::HostKernel`]): group width 2 panels = 8 columns. A full
/// group runs [`panel_group_impl`] over whole 8-k steps; a partial
/// group and the k tail run [`panel_mav`] per (row, panel).
pub(super) fn panel_group(
    acc: &mut [[i32; 4]],
    a: &[i8],
    lda: usize,
    kreal: usize,
    panels: &[i8],
    npanels: usize,
) {
    debug_assert!(is_x86_feature_detected!("avx2"), "avx2 kernel dispatched without avx2");
    let mut done = 0;
    if npanels == 2 {
        let rows = acc.len() / 2;
        assert!((1..=4).contains(&rows) && acc.len() == rows * 2, "1..=4 rows of two tiles");
        assert!(a.len() >= (rows - 1) * lda + kreal, "A must hold every row's k-values");
        assert!(panels.len() / 2 >= kreal * 4, "two panels at least kreal deep");
        // SAFETY: AVX2 detection gates dispatch (debug-asserted above);
        // the three asserts are exactly the shape contract the impl's
        // bounds reasoning states, and `R` equals `rows`.
        done = unsafe {
            match rows {
                1 => panel_group_impl::<1>(acc, a, lda, kreal, panels),
                2 => panel_group_impl::<2>(acc, a, lda, kreal, panels),
                3 => panel_group_impl::<3>(acc, a, lda, kreal, panels),
                _ => panel_group_impl::<4>(acc, a, lda, kreal, panels),
            }
        };
    }
    if done < kreal {
        super::scalar::panel_group_with(panel_mav, done, acc, a, lda, kreal, panels, npanels);
    }
}

// ---- requantization sweeps ------------------------------------------------
//
// No intrinsics: the scalar body of `super::requant`, inlined into a
// function compiled with AVX2 enabled, vectorizes 8 lanes wide instead
// of baseline SSE2's 4.

// SAFETY: requires AVX2; the body is the safe scalar sweep.
#[target_feature(enable = "avx2")]
unsafe fn requant_into_impl(acc: &[i32], scale: Scale<'_>, floor: i8, dst: &mut [i8]) {
    super::requant::requant_into(acc, scale, floor, dst)
}

/// The `requant_into` table entry: the scalar body at AVX2 width.
pub(super) fn requant_into(acc: &[i32], scale: Scale<'_>, floor: i8, dst: &mut [i8]) {
    debug_assert!(is_x86_feature_detected!("avx2"), "avx2 kernel dispatched without avx2");
    // SAFETY: AVX2 detection gates dispatch (debug-asserted above), the
    // impl's one precondition.
    unsafe { requant_into_impl(acc, scale, floor, dst) }
}

// SAFETY: requires AVX2; the body is the safe scalar sweep.
#[target_feature(enable = "avx2")]
unsafe fn requant_add_sat_impl(acc: &[i32], mults: &[f32], x: &mut [i8]) {
    super::requant::requant_add_sat(acc, mults, x)
}

/// The `requant_add_sat` table entry: the scalar body at AVX2 width.
pub(super) fn requant_add_sat(acc: &[i32], mults: &[f32], x: &mut [i8]) {
    debug_assert!(is_x86_feature_detected!("avx2"), "avx2 kernel dispatched without avx2");
    // SAFETY: AVX2 detection gates dispatch (debug-asserted above), the
    // impl's one precondition.
    unsafe { requant_add_sat_impl(acc, mults, x) }
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

/// SIMD [`super::scalar::pack_a_block`]: byte-identical packed image,
/// built 16 k-values per step via 4×16 byte transposes.
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

/// SIMD [`super::scalar::pack_b_block`]: byte-identical packed image.
/// Interior panels copy each k-value's 4 contiguous source bytes as one
/// word (safe code — the compiler emits 32-bit copies); only the matrix
/// edge takes the byte-wise reference path.
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
    let kreal = kcb.min(k.saturating_sub(pc));
    for (q, panel_buf) in buf.chunks_exact_mut(panel).enumerate() {
        let j0 = jc + q * 4;
        if j0 + 4 <= n {
            let (body, tail) = panel_buf.split_at_mut(kreal * 4);
            for (l, out) in body.chunks_exact_mut(4).enumerate() {
                let src = (pc + l) * n + j0;
                out.copy_from_slice(&b[src..src + 4]);
            }
            tail.fill(0);
        } else {
            for l in 0..kcb {
                let lg = pc + l;
                for (cx, out) in panel_buf[l * 4..l * 4 + 4].iter_mut().enumerate() {
                    let j = j0 + cx;
                    *out = if lg < k && j < n { b[lg * n + j] } else { 0 };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::scalar;
    use super::*;
    use crate::reference::SplitMix64;

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
            scalar::pack_b_block(&mut want, &b, cols, rows, rc, pc, kcb);
            pack_b_block(&mut got, &b, cols, rows, rc, pc, kcb);
            assert_eq!(got, want, "pack_b {rows}x{cols} jc={rc} pc={pc} kcb={kcb}");

            let a = r.i8_vec(rows * cols, -128, 127);
            let mcb = (rows - rc.min(rows)).min(8 * 4).next_multiple_of(4).max(4);
            let mut want = vec![0x55i8; mcb * kcb];
            let mut got = want.clone();
            scalar::pack_a_block(&mut want, &a, rows, cols, rc, pc, kcb);
            pack_a_block(&mut got, &a, rows, cols, rc, pc, kcb);
            assert_eq!(got, want, "pack_a {rows}x{cols} ic={rc} pc={pc} kcb={kcb}");
        }
    }

    #[test]
    fn small_m_dense_is_bit_identical_to_scalar() {
        if !have_avx2() {
            return;
        }
        let mut r = SplitMix64::new(11);
        for (m, n, k) in [(1, 1, 1), (2, 16, 5), (3, 33, 7), (8, 100, 13), (4, 15, 64)] {
            let a = r.i8_vec(m * k, -128, 127);
            let b = r.i8_vec(k * n, -128, 127);
            let mut want = vec![7i32; m * n];
            let mut got = want.clone();
            scalar::small_m_dense(m, n, k, &a, &b, &mut want);
            small_m_dense(m, n, k, &a, &b, &mut got);
            assert_eq!(got, want, "{m}x{n}x{k}");
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

    #[test]
    fn panel_mav_is_bit_identical_to_scalar() {
        if !have_avx2() {
            return;
        }
        let mut r = SplitMix64::new(12);
        for kreal in [0, 1, 2, 7, 16, 33] {
            let a_row = r.i8_vec(kreal, -128, 127);
            let panel = r.i8_vec(kreal.max(1) * 4, -128, 127);
            let mut want = [5i32, -6, 7, -8];
            let mut got = want;
            scalar::panel_mav(&mut want, &a_row, &panel);
            panel_mav(&mut got, &a_row, &panel);
            assert_eq!(got, want, "kreal={kreal}");
        }
    }
}
