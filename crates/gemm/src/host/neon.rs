//! aarch64 NEON tier.
//!
//! Integer kernels widen i8→i16 with `sxtl` (`vmovl_s8`) and
//! accumulate through the widening multiply-accumulates `smlal`
//! (`vmlal_lane_s16` / `vmlal_n_s16`) — every product is exact and
//! every add wraps in i32, so the tier is bit-identical to the scalar
//! reference by construction.
//!
//! Same structure as [`super::avx2`]: `_impl` functions are
//! `unsafe fn` with `#[target_feature(enable = "neon")]` and no inner
//! unsafe blocks; the public wrappers hold the single `unsafe` call.

#![cfg(target_arch = "aarch64")]

use std::arch::aarch64::*;
use std::arch::is_aarch64_feature_detected;

// SAFETY: requires NEON (the `target_feature` precondition). The
// `vld1q` loads stay in bounds because `iters` is derived from
// `pa.len()` and the packing contract gives `pb` the same whole-16-byte
// chunk count; the store lands in the stack-local `out` array.
#[target_feature(enable = "neon")]
unsafe fn tile_i8_impl(pa: &[i8], pb: &[i8], acc: &mut [[i32; 4]; 4]) {
    let mut vacc = [vdupq_n_s32(0); 4];
    // 4 k-values (16 packed bytes) per iteration; panel depth is a
    // multiple of 8 k-values so 16-byte chunks divide evenly
    let iters = pa.len() / 16;
    for t in 0..iters {
        let a8 = vld1q_s8(pa.as_ptr().add(t * 16));
        let b8 = vld1q_s8(pb.as_ptr().add(t * 16));
        let a16_lo = vmovl_s8(vget_low_s8(a8)); // rows of l0 | l1
        let a16_hi = vmovl_s8(vget_high_s8(a8)); // rows of l2 | l3
        let b16_lo = vmovl_s8(vget_low_s8(b8));
        let b16_hi = vmovl_s8(vget_high_s8(b8));
        let a_l0 = vget_low_s16(a16_lo);
        let a_l1 = vget_high_s16(a16_lo);
        let a_l2 = vget_low_s16(a16_hi);
        let a_l3 = vget_high_s16(a16_hi);
        let b_l0 = vget_low_s16(b16_lo);
        let b_l1 = vget_high_s16(b16_lo);
        let b_l2 = vget_low_s16(b16_hi);
        let b_l3 = vget_high_s16(b16_hi);
        // smlal: vacc[i][j] += a(l, i) · b(l, j), exact and wrapping
        vacc[0] = vmlal_lane_s16::<0>(vacc[0], b_l0, a_l0);
        vacc[1] = vmlal_lane_s16::<1>(vacc[1], b_l0, a_l0);
        vacc[2] = vmlal_lane_s16::<2>(vacc[2], b_l0, a_l0);
        vacc[3] = vmlal_lane_s16::<3>(vacc[3], b_l0, a_l0);
        vacc[0] = vmlal_lane_s16::<0>(vacc[0], b_l1, a_l1);
        vacc[1] = vmlal_lane_s16::<1>(vacc[1], b_l1, a_l1);
        vacc[2] = vmlal_lane_s16::<2>(vacc[2], b_l1, a_l1);
        vacc[3] = vmlal_lane_s16::<3>(vacc[3], b_l1, a_l1);
        vacc[0] = vmlal_lane_s16::<0>(vacc[0], b_l2, a_l2);
        vacc[1] = vmlal_lane_s16::<1>(vacc[1], b_l2, a_l2);
        vacc[2] = vmlal_lane_s16::<2>(vacc[2], b_l2, a_l2);
        vacc[3] = vmlal_lane_s16::<3>(vacc[3], b_l2, a_l2);
        vacc[0] = vmlal_lane_s16::<0>(vacc[0], b_l3, a_l3);
        vacc[1] = vmlal_lane_s16::<1>(vacc[1], b_l3, a_l3);
        vacc[2] = vmlal_lane_s16::<2>(vacc[2], b_l3, a_l3);
        vacc[3] = vmlal_lane_s16::<3>(vacc[3], b_l3, a_l3);
    }
    for (row, v) in acc.iter_mut().zip(vacc) {
        let mut out = [0i32; 4];
        vst1q_s32(out.as_mut_ptr(), v);
        for (c, o) in row.iter_mut().zip(out) {
            *c = c.wrapping_add(o);
        }
    }
}

/// See [`super::scalar::tile_i8`]; bit-identical, NEON-accelerated.
pub fn tile_i8(pa: &[i8], pb: &[i8], acc: &mut [[i32; 4]; 4]) {
    debug_assert!(is_aarch64_feature_detected!("neon"), "neon kernel dispatched without neon");
    // SAFETY: the HostKernel dispatch table only routes here after
    // runtime NEON detection (debug-asserted above), and the packer
    // emits `pa`/`pb` as whole 16-byte chunks — tile_i8_impl's two
    // preconditions.
    unsafe { tile_i8_impl(pa, pb, acc) }
}

/// Sliding i32 lane mask of `small_m_dense`'s column tail: the 8 lanes
/// read at offset `r` keep exactly the last `r` of them.
const TAIL_LANES: [i32; 16] = [0, 0, 0, 0, 0, 0, 0, 0, -1, -1, -1, -1, -1, -1, -1, -1];

// SAFETY: requires NEON, and `j + 8 <= n`: the 8-byte B loads at
// `l*n + j` stay inside the k×n operand for every `l < k`.
#[target_feature(enable = "neon")]
unsafe fn small_m_sweep8(arow: &[i8], b: &[i8], n: usize, j: usize) -> (int32x4_t, int32x4_t) {
    let mut lo = vdupq_n_s32(0);
    let mut hi = vdupq_n_s32(0);
    for (l, &av) in arow.iter().enumerate() {
        let b16 = vmovl_s8(vld1_s8(b.as_ptr().add(l * n + j)));
        lo = vmlal_n_s16(lo, vget_low_s16(b16), av as i16);
        hi = vmlal_n_s16(hi, vget_high_s16(b16), av as i16);
    }
    (lo, hi)
}

// SAFETY: requires NEON. The 8-column steps run at `j + 8 <= n` and at
// `n - 8` under `n >= 8` ([`small_m_sweep8`]'s contract), which also
// keeps their 8-lane C accesses inside row `i`; the lane-mask loads
// read 8 of [`TAIL_LANES`]' 16 entries at an offset `<= 7`; the `n < 8`
// remainder uses safe indexing.
#[target_feature(enable = "neon")]
unsafe fn small_m_dense_impl(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let mut j = 0;
        // 8 output columns per step, sums held in registers across k
        while j + 8 <= n {
            let cptr = c.as_mut_ptr().add(i * n + j);
            let (lo, hi) = small_m_sweep8(arow, b, n, j);
            vst1q_s32(cptr, vaddq_s32(vld1q_s32(cptr), lo));
            vst1q_s32(cptr.add(4), vaddq_s32(vld1q_s32(cptr.add(4)), hi));
            j += 8;
        }
        // the column tail: the last 8 columns of the row once more with
        // the lanes already summed (`< j`) masked to zero, so no column
        // of a row at least one vector wide runs scalar
        if j < n && n >= 8 {
            let cptr = c.as_mut_ptr().add(i * n + n - 8);
            let live = TAIL_LANES.as_ptr().add(n - j);
            let (lo, hi) = small_m_sweep8(arow, b, n, n - 8);
            let lo = vandq_s32(lo, vld1q_s32(live));
            let hi = vandq_s32(hi, vld1q_s32(live.add(4)));
            vst1q_s32(cptr, vaddq_s32(vld1q_s32(cptr), lo));
            vst1q_s32(cptr.add(4), vaddq_s32(vld1q_s32(cptr.add(4)), hi));
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
    debug_assert!(is_aarch64_feature_detected!("neon"), "neon kernel dispatched without neon");
    // SAFETY: NEON is runtime-detected before dispatch reaches this
    // tier (debug-asserted above); slice shapes are the m×k / k×n / m×n
    // engine contract the impl's bounds reasoning relies on.
    unsafe { small_m_dense_impl(m, n, k, a, b, c) }
}

// SAFETY: requires NEON, and `panel` must hold 4 columns per k-value
// of `a_row` (the weight-panel layout): the 8-byte load at `l*4` needs
// `l + 2 <= a_row.len()`, which the loop guard enforces.
#[target_feature(enable = "neon")]
unsafe fn panel_mav_impl(acc: &mut [i32; 4], a_row: &[i8], panel: &[i8]) {
    let mut vacc = vld1q_s32(acc.as_ptr());
    let kreal = a_row.len();
    let mut l = 0;
    while l + 2 <= kreal {
        // 2 k-values × 4 columns = 8 panel bytes
        let b16 = vmovl_s8(vld1_s8(panel.as_ptr().add(l * 4)));
        vacc = vmlal_n_s16(vacc, vget_low_s16(b16), a_row[l] as i16);
        vacc = vmlal_n_s16(vacc, vget_high_s16(b16), a_row[l + 1] as i16);
        l += 2;
    }
    vst1q_s32(acc.as_mut_ptr(), vacc);
    if l < kreal {
        let a = a_row[l] as i32;
        for (j, v) in acc.iter_mut().enumerate() {
            *v = v.wrapping_add(a.wrapping_mul(panel[l * 4 + j] as i32));
        }
    }
}

/// See [`super::scalar::panel_mav`]; bit-identical.
pub fn panel_mav(acc: &mut [i32; 4], a_row: &[i8], panel: &[i8]) {
    debug_assert!(is_aarch64_feature_detected!("neon"), "neon kernel dispatched without neon");
    // SAFETY: NEON detection gates dispatch (debug-asserted above);
    // the registered-weight panel stores 4 columns per k-value, the
    // impl's only layout precondition.
    unsafe { panel_mav_impl(acc, a_row, panel) }
}

#[cfg(test)]
mod tests {
    use super::super::scalar;
    use super::*;
    use crate::reference::SplitMix64;

    #[test]
    fn tile_is_bit_identical_to_scalar() {
        let mut r = SplitMix64::new(20);
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
    fn small_m_dense_is_bit_identical_to_scalar() {
        let mut r = SplitMix64::new(21);
        for (m, n, k) in [(1, 1, 1), (2, 8, 5), (3, 33, 7), (8, 100, 13), (2, 15, 9)] {
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
    fn panel_mav_is_bit_identical_to_scalar() {
        let mut r = SplitMix64::new(22);
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
