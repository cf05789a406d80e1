//! x86_64 AVX-512 tier (F+BW+VL).
//!
//! Hand-written here are only the kernels where vector width buys
//! arithmetic: the 4×16 wide tiles (the 4×4 [`tile_i8`] of the trailing
//! panel group is the widening tile's one-panel instance) and the
//! grouped panel kernel. They use the same exact-arithmetic
//! construction as [`super::avx2`] — i8→i16 widening through per-lane
//! `vpshufb` pair interleaves, `vpmaddwd` pairwise dots (exact in
//! i16/i32 headroom), wrapping `vpaddd` accumulation — at twice the
//! vector width: 16 k-values per integer step and a 4×16 widened
//! integer register tile that amortizes every A-side shuffle over four
//! B panels. The 32-register zmm file is what makes the 16-accumulator
//! integer tile hold entirely in registers. Both packers and the K
//! append are the AVX2 tier's; every other entry — `small_m_dense`,
//! `panel_mav` and the two requant sweeps — is the portable body of
//! `scalar.rs` / `requant.rs`, recompiled here with AVX-512 enabled by
//! `recompile!` (`host/mod.rs`).
//!
//! The wide tile hands its result back *in C*: its 16 accumulators fold
//! into four 16-lane rows that are added straight to four rows of the
//! caller's row-major matrix ([`tile_i8_into`]), so an interior tile of
//! the blocked nest never round-trips through a staging tile.
//! [`tile_i8_into_vnni`] is the one kernel of the `avx512vnni` tier that
//! differs: the same tile with the widening folded into the multiplier's
//! own issue (`vpdpbusd`, the commodity `camp.s8`) — no i8→i16
//! conversions, no `vpaddd` — over the same packed panels. The VNNI
//! tiers also run their own dense skinny-m walk (`small_m_dense_vnni`):
//! four raw B rows interleaved into k-quads in registers, then
//! `vpdpbusd` against A biased to unsigned, less a Σb correction.
//!
//! Depth remainders that do not fill a 64-byte chunk take the scalar
//! reference path — bit-identical by definition, and never hit by the
//! engine's k-step-aligned panels.
//!
//! Every `_impl` below is an `unsafe fn` with
//! `#[target_feature(enable = ...)]` and **no inner unsafe blocks**;
//! the public wrappers hold the single `unsafe` call, guarded by a
//! debug assertion that dispatch only routed here on a capable CPU.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use super::Scale;

recompile! { "avx512f,avx512bw,avx512vl", have_avx512();
    fn small_m_dense(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32])
        = super::scalar::small_m_dense;
    fn panel_mav(acc: &mut [i32; 4], a_row: &[i8], panel: &[i8]) = super::scalar::panel_mav;
    fn requant_into(acc: &[i32], scale: Scale<'_>, floor: i8, dst: &mut [i8])
        = super::requant::requant_into;
    fn requant_add_sat(acc: &[i32], mults: &[f32], x: &mut [i8])
        = super::requant::requant_add_sat;
}

/// Replicate one 16-byte `vpshufb` lane pattern to all four 128-bit
/// lanes (zmm `vpshufb` shuffles within each lane independently).
const fn repeat_lane(lane: [i8; 16]) -> [i8; 64] {
    let mut m = [0i8; 64];
    let mut g = 0;
    while g < 4 {
        let mut t = 0;
        while t < 16 {
            m[g * 16 + t] = lane[t];
            t += 1;
        }
        g += 1;
    }
    m
}

/// Per-lane pair interleave for a packed B chunk of 16 k-values
/// (`b[l*4+j]`, 64 bytes): lane g's 4 k-values become (l0,l1) pairs for
/// j=0..3 then (l2,l3) pairs for j=0..3 — the [`super::avx2`] layout,
/// one extra lane pair deep.
const B_PAIR_SHUF: [i8; 64] = repeat_lane([0, 4, 1, 5, 2, 6, 3, 7, 8, 12, 9, 13, 10, 14, 11, 15]);

/// Per-row `vpshufb` masks broadcasting row `i` of a packed A chunk as
/// (l, l+1) pairs aligned with [`B_PAIR_SHUF`]'s B layout.
const fn a_row_shuf(i: i8) -> [i8; 64] {
    repeat_lane([
        i,
        4 + i,
        i,
        4 + i,
        i,
        4 + i,
        i,
        4 + i,
        8 + i,
        12 + i,
        8 + i,
        12 + i,
        8 + i,
        12 + i,
        8 + i,
        12 + i,
    ])
}

const A_ROW_SHUF: [[i8; 64]; 4] = [a_row_shuf(0), a_row_shuf(1), a_row_shuf(2), a_row_shuf(3)];

/// `vpshufb` mask spreading 16 raw A bytes (broadcast into every lane
/// by `vbroadcasti32x4`) into [`B_PAIR_SHUF`] pair alignment: lane g
/// carries (a[4g],a[4g+1])×4 then (a[4g+2],a[4g+3])×4, matching B lane
/// g's k-values.
const fn a_panel_shuf() -> [i8; 64] {
    let mut m = [0i8; 64];
    let mut g = 0;
    while g < 4 {
        let base = g * 16;
        let lo = (4 * g) as i8;
        let mut t = 0;
        while t < 4 {
            m[base + 2 * t] = lo;
            m[base + 2 * t + 1] = lo + 1;
            m[base + 8 + 2 * t] = lo + 2;
            m[base + 8 + 2 * t + 1] = lo + 3;
            t += 1;
        }
        g += 1;
    }
    m
}

const A_PANEL_SHUF: [i8; 64] = a_panel_shuf();

/// Per-lane 4×4 byte transpose of a packed chunk (`p[l*4+r]`, 16
/// k-values × 4 rows or columns): dword `r` of lane g becomes row/column
/// `r`'s four consecutive k-values `4g..4g+4` — the operand shape of
/// `vpdpbusd`.
pub(super) const QUAD_TRANSPOSE: [i8; 64] =
    repeat_lane([0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15]);

// SAFETY: requires AVX512F only; register-to-register, no memory access.
/// Fold the four 128-bit quarters of each of four accumulators and land
/// `v[s]`'s sums in quarter `s`: a 4×4 transpose of 128-bit blocks with
/// the adds folded in (6 shuffles + 3 adds for 16 horizontal sums).
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn fold_quarters(v: [__m512i; 4]) -> __m512i {
    let s01 = _mm512_add_epi32(
        _mm512_shuffle_i32x4::<0x44>(v[0], v[1]),
        _mm512_shuffle_i32x4::<0xEE>(v[0], v[1]),
    );
    let s23 = _mm512_add_epi32(
        _mm512_shuffle_i32x4::<0x44>(v[2], v[3]),
        _mm512_shuffle_i32x4::<0xEE>(v[2], v[3]),
    );
    _mm512_add_epi32(_mm512_shuffle_i32x4::<0x88>(s01, s23), _mm512_shuffle_i32x4::<0xDD>(s01, s23))
}

// SAFETY: requires AVX512F; the caller guarantees 16 readable and
// writable `i32`s at `dst`.
/// `dst[0..16] += sums` (wrapping).
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn add_into_row(dst: *mut i32, sums: __m512i) {
    _mm512_storeu_epi32(dst, _mm512_add_epi32(_mm512_loadu_epi32(dst), sums));
}

// SAFETY: requires AVX512F+AVX512BW+AVX512VL+AVX2. Loads stay in bounds
// because the chunk count derives from `pa.len()` and `pb` holds exactly
// `P` panels of that depth; each C access is one of the four rows
// `c[i*ldc..i*ldc + 4P]` ([`assert_wide_shape`], run by the wrapper,
// checks both); the remainder path is safe code.
//
// AVX512VL is enabled for the register allocator, not for an
// instruction: without it LLVM keeps every value that is ever viewed as
// a ymm (the fold's `vinserti64x4` sources, the `vpmovsxbw` inputs) in
// zmm0–15, and the 16 accumulators then spill inside the depth loop.
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx2")]
unsafe fn tile_i8_into_impl<const P: usize>(pa: &[i8], pb: &[i8], c: &mut [i32], ldc: usize) {
    let panel = pa.len();
    let bshuf = _mm512_loadu_epi8(B_PAIR_SHUF.as_ptr());
    let ashuf = [
        _mm512_loadu_epi8(A_ROW_SHUF[0].as_ptr()),
        _mm512_loadu_epi8(A_ROW_SHUF[1].as_ptr()),
        _mm512_loadu_epi8(A_ROW_SHUF[2].as_ptr()),
        _mm512_loadu_epi8(A_ROW_SHUF[3].as_ptr()),
    ];
    // 4×4P register tile: one A panel × `P` adjacent B panels, all 4P
    // zmm accumulators live across the depth loop — at P = 4 every A
    // shuffle and widening is amortized over 4× the columns
    let mut vacc = [[_mm512_setzero_si512(); 4]; 4];
    for t in 0..panel / 64 {
        let ap = _mm512_loadu_epi8(pa.as_ptr().add(t * 64));
        let mut blo = [_mm512_setzero_si512(); P];
        let mut bhi = [_mm512_setzero_si512(); P];
        for q in 0..P {
            let bp = _mm512_loadu_epi8(pb.as_ptr().add(q * panel + t * 64));
            let bs = _mm512_shuffle_epi8(bp, bshuf);
            blo[q] = _mm512_cvtepi8_epi16(_mm512_castsi512_si256(bs));
            bhi[q] = _mm512_cvtepi8_epi16(_mm512_extracti64x4_epi64::<1>(bs));
        }
        for i in 0..4 {
            let asel = _mm512_shuffle_epi8(ap, ashuf[i]);
            let a_lo = _mm512_cvtepi8_epi16(_mm512_castsi512_si256(asel));
            let a_hi = _mm512_cvtepi8_epi16(_mm512_extracti64x4_epi64::<1>(asel));
            for q in 0..P {
                // vpmaddwd: exact pairwise i16 dot products in i32 lanes
                let prod = _mm512_add_epi32(
                    _mm512_madd_epi16(a_lo, blo[q]),
                    _mm512_madd_epi16(a_hi, bhi[q]),
                );
                vacc[i][q] = _mm512_add_epi32(vacc[i][q], prod);
            }
        }
    }
    const { assert!(P == 1 || P == 4, "the 4x4 tile or the full 4x16 one") };
    for (i, &v) in vacc.iter().enumerate() {
        let dst = c.as_mut_ptr().add(i * ldc);
        if P == 4 {
            // each quarter of vacc[i][q] holds panel q's j0..3 over a
            // disjoint k subset: panel q's sums land in quarter q, one C
            // row per A row
            add_into_row(dst, fold_quarters(v));
        } else {
            // one panel: its four quarters fold into one 4-lane row
            let v = v[0];
            let half =
                _mm256_add_epi32(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v));
            let sums =
                _mm_add_epi32(_mm256_castsi256_si128(half), _mm256_extracti128_si256::<1>(half));
            let dst = dst as *mut __m128i;
            _mm_storeu_si128(dst, _mm_add_epi32(_mm_loadu_si128(dst), sums));
        }
    }
    wide_tail(pa, pb, c, ldc);
}

/// The 4×4 tile of the trailing panel group (see
/// [`super::scalar::tile_i8`]): the wide tile's code at one panel,
/// into the 4×4 tile as four rows of four.
pub fn tile_i8(pa: &[i8], pb: &[i8], acc: &mut [[i32; 4]; 4]) {
    debug_assert!(have_avx512(), "avx512 kernel dispatched without avx512f/bw");
    let c = acc.as_flattened_mut();
    assert_wide_shape(1, pa, pb, c, 4);
    // SAFETY: AVX-512 detection gates dispatch (debug-asserted above);
    // the shape asserts just above are the impl's bounds preconditions.
    unsafe { tile_i8_into_impl::<1>(pa, pb, c, 4) }
}

/// Widened 4×16 integer tile (the `tile_i8_into` table entry of
/// [`super::HostKernel`]): one packed A panel against four adjacent B
/// panels per call, accumulated into four rows of `c`; bit-identical to
/// [`super::scalar::tile_i8_wide`] (wrapping adds commute).
pub fn tile_i8_into(pa: &[i8], pb: &[i8], c: &mut [i32], ldc: usize) {
    debug_assert!(have_avx512(), "avx512 kernel dispatched without avx512f/bw");
    assert_wide_shape(4, pa, pb, c, ldc);
    // SAFETY: AVX-512 detection gates dispatch (debug-asserted above);
    // the shape asserts just above are the impl's bounds preconditions.
    unsafe { tile_i8_into_impl::<4>(pa, pb, c, ldc) }
}

/// The shape contract the wide tiles' raw loads and stores rest on:
/// `panels` B panels of A's depth, and four rows of `4·panels` inside `c`.
fn assert_wide_shape(panels: usize, pa: &[i8], pb: &[i8], c: &[i32], ldc: usize) {
    assert_eq!(pb.len(), panels * pa.len(), "pb must hold the panels at pa's depth");
    assert!(c.len() >= 3 * ldc + 4 * panels, "c must hold four rows at stride ldc");
    debug_assert_eq!(pa.len() % 32, 0, "panel depth must be a multiple of 8 k-values");
}

/// The 8-k remainder (32 packed bytes) past a wide tile's 64-byte loop:
/// never produced by the engine's k-step-aligned panels, but the
/// dispatch contract allows it — the scalar reference, panel by panel.
fn wide_tail(pa: &[i8], pb: &[i8], c: &mut [i32], ldc: usize) {
    let panel = pa.len();
    let tail = panel - panel % 64;
    if tail < panel {
        let one_panel = super::scalar::tile_i8_wide;
        for (q, bp) in pb.chunks_exact(panel).enumerate() {
            let c = &mut c[q * 4..];
            super::scalar::tile_into_with(one_panel, 4, &pa[tail..], &bp[tail..], c, ldc);
        }
    }
}

// SAFETY: requires AVX512F+AVX512BW+AVX512VL+AVX512VNNI; the bounds
// reasoning (and the reason for AVX512VL) is [`tile_i8_into_impl`]'s:
// same loads, same four C rows, same asserts in the wrapper.
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
unsafe fn tile_i8_into_vnni_impl(pa: &[i8], pb: &[i8], c: &mut [i32], ldc: usize) {
    let panel = pa.len();
    let transpose = _mm512_loadu_epi8(QUAD_TRANSPOSE.as_ptr());
    let bias = _mm512_set1_epi8(-128);
    // the same 16 accumulators as the widening tile: dword j of lane g
    // of vacc[i][q] sums row i × panel q's column j over the k-values
    // 4g..4g+4 of every chunk — against b + 128
    let mut vacc = [[_mm512_setzero_si512(); 4]; 4];
    // dword r of lane g: 128·Σ a[r][k] over the same k subset
    let mut asum = _mm512_setzero_si512();
    for t in 0..panel / 64 {
        let at = _mm512_shuffle_epi8(_mm512_loadu_epi8(pa.as_ptr().add(t * 64)), transpose);
        asum = _mm512_dpbusd_epi32(asum, bias, at);
        // `vpdpbusd` multiplies unsigned by signed bytes: B goes in as
        // b ^ 0x80 = b + 128 ∈ 0..=255. Each u8×i8 product fits i16
        // exactly and the four-product dword sum wraps, never saturates
        // (`vpdpbusds` would)
        let mut bu = [_mm512_setzero_si512(); 4];
        for q in 0..4 {
            let bp = _mm512_loadu_epi8(pb.as_ptr().add(q * panel + t * 64));
            bu[q] = _mm512_xor_si512(_mm512_shuffle_epi8(bp, transpose), bias);
        }
        // row i's quad, broadcast within every lane (`vpshufd`)
        let arow = [
            _mm512_shuffle_epi32::<0x00>(at),
            _mm512_shuffle_epi32::<0x55>(at),
            _mm512_shuffle_epi32::<0xAA>(at),
            _mm512_shuffle_epi32::<0xFF>(at),
        ];
        for i in 0..4 {
            for q in 0..4 {
                vacc[i][q] = _mm512_dpbusd_epi32(vacc[i][q], bu[q], arow[i]);
            }
        }
    }
    // Σ a·(b+128) − 128·Σ a = Σ a·b in wrapping i32, so the bias leaves
    // once per row, at the fold. Swap-and-add the quarters of `asum`
    // twice and every lane holds the four rows' totals; `vpshufd` then
    // spreads row i's.
    let pairs = _mm512_add_epi32(asum, _mm512_shuffle_i32x4::<0x4E>(asum, asum));
    let totals = _mm512_add_epi32(pairs, _mm512_shuffle_i32x4::<0xB1>(pairs, pairs));
    let row_bias = [
        _mm512_shuffle_epi32::<0x00>(totals),
        _mm512_shuffle_epi32::<0x55>(totals),
        _mm512_shuffle_epi32::<0xAA>(totals),
        _mm512_shuffle_epi32::<0xFF>(totals),
    ];
    for i in 0..4 {
        let sums = _mm512_sub_epi32(fold_quarters(vacc[i]), row_bias[i]);
        add_into_row(c.as_mut_ptr().add(i * ldc), sums);
    }
    wide_tail(pa, pb, c, ldc);
}

/// The `avx512vnni` tier's 4×16 tile: [`tile_i8_into`]'s contract and
/// packed operands, one `vpdpbusd` per 64 MACs instead of two widenings,
/// two `vpmaddwd` and two `vpaddd`. Bit-identical in wrapping i32 (see
/// `docs/HOST_KERNELS.md`, "The blocked tile").
pub fn tile_i8_into_vnni(pa: &[i8], pb: &[i8], c: &mut [i32], ldc: usize) {
    debug_assert!(have_avx512vnni(), "avx512vnni kernel dispatched without avx512_vnni");
    assert_wide_shape(4, pa, pb, c, ldc);
    // SAFETY: AVX512-VNNI detection (on top of the AVX-512 gate) is what
    // selects this tier's table (debug-asserted above); the shape
    // asserts are the impl's bounds preconditions.
    unsafe { tile_i8_into_vnni_impl(pa, pb, c, ldc) }
}

// SAFETY: requires AVX512F+AVX512BW+AVX2; `acc` holds `R*P` tiles, `a`
// holds `R` rows of `kreal` k-values at stride `lda`, and `panels` is
// `P` panels of at least `kreal*4` bytes each (all asserted by the
// wrapper). Every 16-byte A load and 64-byte panel load sits below
// `iters*16 <= kreal` k-values of its row / panel; the accumulator
// accesses are masked to the `P` tiles of row `i`. The prefetch address
// runs up to one group past `panels` and may leave the image: it is
// formed with `wrapping_add` and only ever handed to `prefetcht0`, which
// does not fault.
#[target_feature(enable = "avx512f,avx512bw,avx2")]
unsafe fn panel_group_impl<const R: usize, const P: usize>(
    acc: &mut [[i32; 4]],
    a: &[i8],
    lda: usize,
    kreal: usize,
    panels: &[i8],
) -> usize {
    let stride = panels.len() / P;
    let bshuf = _mm512_loadu_epi8(B_PAIR_SHUF.as_ptr());
    let apanelshuf = _mm512_loadu_epi8(A_PANEL_SHUF.as_ptr());
    // R×P vertical accumulators: each 128-bit quarter of vacc[i][q]
    // holds row i × panel q's j0..3 over a disjoint k subset
    let mut vacc = [[_mm512_setzero_si512(); 4]; R];
    // where the walk's next group starts: one line of it is requested
    // per B load below, so the L3 stream runs a whole group ahead
    let next = panels.as_ptr().wrapping_add(panels.len());
    let iters = kreal / 16;
    for t in 0..iters {
        // A side once per 16 k-values, shared by every panel
        let mut a_lo = [_mm512_setzero_si512(); R];
        let mut a_hi = [_mm512_setzero_si512(); R];
        for i in 0..R {
            let a16 = _mm_loadu_si128(a.as_ptr().add(i * lda + t * 16) as *const __m128i);
            let asel = _mm512_shuffle_epi8(_mm512_broadcast_i32x4(a16), apanelshuf);
            a_lo[i] = _mm512_cvtepi8_epi16(_mm512_castsi512_si256(asel));
            a_hi[i] = _mm512_cvtepi8_epi16(_mm512_extracti64x4_epi64::<1>(asel));
        }
        for q in 0..P {
            _mm_prefetch::<_MM_HINT_T0>(next.wrapping_add((t * P + q) * 64));
            // B side once per panel vector, shared by all R rows
            let bp = _mm512_loadu_epi8(panels.as_ptr().add(q * stride + t * 64));
            let bs = _mm512_shuffle_epi8(bp, bshuf);
            let b_lo = _mm512_cvtepi8_epi16(_mm512_castsi512_si256(bs));
            let b_hi = _mm512_cvtepi8_epi16(_mm512_extracti64x4_epi64::<1>(bs));
            for i in 0..R {
                let prod = _mm512_add_epi32(
                    _mm512_madd_epi16(a_lo[i], b_lo),
                    _mm512_madd_epi16(a_hi[i], b_hi),
                );
                vacc[i][q] = _mm512_add_epi32(vacc[i][q], prod);
            }
        }
    }
    // panel q's sums land in quarter q: one 4P-lane result per row
    let live = (u32::MAX >> (32 - 4 * P)) as __mmask16;
    for (i, &v) in vacc.iter().enumerate() {
        let dst = acc.as_mut_ptr().add(i * P) as *mut i32;
        let sums = _mm512_add_epi32(_mm512_maskz_loadu_epi32(live, dst), fold_quarters(v));
        _mm512_mask_storeu_epi32(dst, live, sums);
    }
    iters * 16
}

/// AVX-512 grouped skinny primitive (the `panel_group` table entry of
/// [`super::HostKernel`]): up to 4 panels = 16 columns. Any group, full
/// or partial, runs [`panel_group_impl`] over whole 16-k steps; the
/// `kreal % 16` tail runs [`panel_mav`] per (row, panel).
pub(super) fn panel_group(
    acc: &mut [[i32; 4]],
    a: &[i8],
    lda: usize,
    kreal: usize,
    panels: &[i8],
    npanels: usize,
) {
    debug_assert!(have_avx512(), "avx512 kernel dispatched without avx512f/bw");
    let rows = acc.len() / npanels;
    assert!((1..=4).contains(&npanels), "1..=4 panels");
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
    // SAFETY: AVX-512 detection gates dispatch (debug-asserted above);
    // the asserts are exactly the shape contract the impl's bounds
    // reasoning states, and `R`, `P` equal `rows`, `npanels`.
    let done = unsafe {
        match npanels {
            1 => by_rows!(1),
            2 => by_rows!(2),
            3 => by_rows!(3),
            _ => by_rows!(4),
        }
    };
    if done < kreal {
        super::scalar::panel_group_with(panel_mav, done, acc, a, lda, kreal, panels, npanels);
    }
}

// SAFETY: requires AVX512F+AVX512BW+AVX512VL+AVX512VNNI. The wrapper
// checks `a` holds `R` rows of `k`, `b` `k` rows of `n` and `c` `R` rows
// of `n`. Every B load is one row `l < k` at columns `j0..`, masked to
// the `live = min(64, n - j0)` columns that exist (a masked-off byte is
// never read); every A read is 4 bytes at `i·k + l` with `l + 4 <= k`;
// every C access is row `i`'s columns `j0 + 16g..`, masked to the live
// ones. The k tail is safe code.
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
unsafe fn dense_rows_vnni<const R: usize>(n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    let bias = _mm512_set1_epi8(-128);
    for j0 in (0..n).step_by(64) {
        let live = (n - j0).min(64);
        let cols = u64::MAX >> (64 - live);
        let bp = b.as_ptr().add(j0);
        // acc[i][x] lane g, dword d: row i × column j0 + 16g + 4x + d,
        // against a + 128; bsum[x] the same columns' 128·Σb
        let mut acc = [[_mm512_setzero_si512(); 4]; R];
        let mut bsum = [_mm512_setzero_si512(); 4];
        // one k-quad: four B rows interleaved so each dword holds one
        // column's four k-values, then `vpdpbusd` — u8 (a ^ 0x80 =
        // a + 128) by i8 b, four products per dword, wrapping
        let mut quad = |r: [__m512i; 4], a4: [u32; R]| {
            let t = [
                _mm512_unpacklo_epi8(r[0], r[1]),
                _mm512_unpackhi_epi8(r[0], r[1]),
                _mm512_unpacklo_epi8(r[2], r[3]),
                _mm512_unpackhi_epi8(r[2], r[3]),
            ];
            let q = [
                _mm512_unpacklo_epi16(t[0], t[2]),
                _mm512_unpackhi_epi16(t[0], t[2]),
                _mm512_unpacklo_epi16(t[1], t[3]),
                _mm512_unpackhi_epi16(t[1], t[3]),
            ];
            for x in 0..4 {
                bsum[x] = _mm512_dpbusd_epi32(bsum[x], bias, q[x]);
            }
            for i in 0..R {
                let av = _mm512_xor_si512(_mm512_set1_epi32(a4[i] as i32), bias);
                for x in 0..4 {
                    acc[i][x] = _mm512_dpbusd_epi32(acc[i][x], av, q[x]);
                }
            }
        };
        let row = |l: usize| _mm512_maskz_loadu_epi8(cols, bp.add(l * n));
        let mut l = 0;
        while l + 4 <= k {
            let a4 =
                std::array::from_fn(|i| a.as_ptr().add(i * k + l).cast::<u32>().read_unaligned());
            quad([row(l), row(l + 1), row(l + 2), row(l + 3)], a4);
            l += 4;
        }
        if l < k {
            // the last 1..=3 k-values: B's missing rows are zero, so
            // whatever A byte meets them adds nothing
            let tail = |i: usize| {
                let bytes = a[i * k + l..(i + 1) * k].iter().rev();
                bytes.fold(0u32, |word, &v| word << 8 | u32::from(v as u8))
            };
            let r =
                std::array::from_fn(
                    |d| {
                        if l + d < k {
                            row(l + d)
                        } else {
                            _mm512_setzero_si512()
                        }
                    },
                );
            quad(r, std::array::from_fn(tail));
        }
        for i in 0..R {
            // Σ (a + 128)·b − 128·Σb = Σ a·b in wrapping i32; then
            // quarter g of sums[x] goes to columns 16g + 4x.., a 4×4
            // transpose of 128-bit blocks
            let v: [__m512i; 4] = std::array::from_fn(|x| _mm512_sub_epi32(acc[i][x], bsum[x]));
            let lo01 = _mm512_shuffle_i32x4::<0x44>(v[0], v[1]);
            let hi01 = _mm512_shuffle_i32x4::<0xEE>(v[0], v[1]);
            let lo23 = _mm512_shuffle_i32x4::<0x44>(v[2], v[3]);
            let hi23 = _mm512_shuffle_i32x4::<0xEE>(v[2], v[3]);
            let sums = [
                _mm512_shuffle_i32x4::<0x88>(lo01, lo23),
                _mm512_shuffle_i32x4::<0xDD>(lo01, lo23),
                _mm512_shuffle_i32x4::<0x88>(hi01, hi23),
                _mm512_shuffle_i32x4::<0xDD>(hi01, hi23),
            ];
            for (g, s) in sums.into_iter().enumerate().take(live.div_ceil(16)) {
                let m = (u32::MAX >> (32 - (live - 16 * g).min(16))) as __mmask16;
                let dst = c.as_mut_ptr().add(i * n + j0 + 16 * g);
                let sum = _mm512_add_epi32(_mm512_maskz_loadu_epi32(m, dst), s);
                _mm512_mask_storeu_epi32(dst, m, sum);
            }
        }
    }
}

/// The VNNI tiers' dense skinny-m walk (the `small_m_dense` table entry
/// of [`super::HostKernel`]; the contract of
/// [`super::scalar::small_m_dense`]): per pair of rows and 64 columns,
/// every four B rows interleaved into k-quads in registers and
/// multiplied by `vpdpbusd`, A biased to unsigned by `^ 0x80` and the
/// bias taken back once per column as 128·Σb. A partial last group of
/// columns runs masked. Bit-identical in wrapping i32.
pub(super) fn small_m_dense_vnni(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    debug_assert!(have_avx512vnni(), "avx512vnni kernel dispatched without avx512_vnni");
    assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n, "operands below m, n, k");
    for i in (0..m).step_by(2) {
        let (a, c) = (&a[i * k..], &mut c[i * n..]);
        // SAFETY: AVX512-VNNI detection (on top of the AVX-512 gate)
        // selects this entry (debug-asserted above); the rows from `i`
        // hold what the impl reads and writes (asserted above).
        unsafe {
            if m - i >= 2 {
                dense_rows_vnni::<2>(n, k, a, b, c)
            } else {
                dense_rows_vnni::<1>(n, k, a, b, c)
            }
        }
    }
}

/// Runtime gate shared by the wrappers' debug assertions: the features
/// every kernel in this module may rely on.
fn have_avx512() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vl")
        && is_x86_feature_detected!("avx2")
        && is_x86_feature_detected!("fma")
}

/// [`have_avx512`] plus the one feature [`tile_i8_into_vnni`] adds.
fn have_avx512vnni() -> bool {
    have_avx512() && is_x86_feature_detected!("avx512vnni")
}

#[cfg(test)]
mod tests {
    use super::super::scalar;
    use super::*;
    use crate::reference::SplitMix64;

    #[test]
    fn tile_is_bit_identical_to_scalar() {
        if !have_avx512() {
            return;
        }
        let mut r = SplitMix64::new(30);
        for kcb in [8, 16, 24, 48, 160] {
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
        // both 4×16 tiles against the scalar reference: operands pinned
        // at every sign corner and full-range random, at depths that
        // leave the 32-byte tail past the 64-byte loop (8, 24, 72) and
        // at the deepest block `HOST_BLOCKING` allows, into C rows
        // strided wider than the tile and pre-filled next to both ends
        // of i32 (the fold's adds must wrap, and must leave the
        // columns between rows alone). The last depth drives the
        // corners' in-register sums past i32 — what `vpdpbusds` would
        // clamp and `vpdpbusd` wraps, as the reference does.
        type Tile = fn(&[i8], &[i8], &mut [i32], usize);
        let tiles: [(&str, Tile, bool); 2] = [
            ("widening", tile_i8_into, have_avx512()),
            ("vnni", tile_i8_into_vnni, have_avx512vnni()),
        ];
        let mut r = SplitMix64::new(31);
        let ldc = 19;
        let init: Vec<i32> =
            (0..3 * ldc + 16).map(|x| [i32::MAX - 3, i32::MIN + 3, 5, -7][x % 4]).collect();
        for kcb in [8, 16, 24, 72, 2048, 272_000] {
            let corners = [(-128, -128), (-128, 127), (127, -128), (127, 127)];
            let mut cases: Vec<(Vec<i8>, Vec<i8>)> =
                corners.iter().map(|&(a, b)| (vec![a; kcb * 4], vec![b; kcb * 16])).collect();
            cases.push((r.i8_vec(kcb * 4, -128, 127), r.i8_vec(kcb * 16, -128, 127)));
            for (case, (pa, pb)) in cases.iter().enumerate() {
                let mut want = init.clone();
                scalar::tile_into_with(scalar::tile_i8_wide, 16, pa, pb, &mut want, ldc);
                for (name, tile, runnable) in tiles {
                    if runnable {
                        let mut got = init.clone();
                        tile(pa, pb, &mut got, ldc);
                        assert_eq!(got, want, "{name} tile, kcb={kcb}, case {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn panel_group_is_bit_identical_to_scalar() {
        if !have_avx512() {
            return;
        }
        // full groups (the register-blocked kernel, every row count),
        // partial groups and every k-tail length, into non-zero sums,
        // with A rows strided wider than they are deep
        let mut r = SplitMix64::new(34);
        for rows in 1..=4 {
            for npanels in 1..=4 {
                for kreal in [0usize, 1, 15, 16, 17, 40, 64] {
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
