//! Pire-style skinny-GEMM fast paths (`run_small_m` / `run_small_n`).
//!
//! Serving batches are dominated by GEMV-shaped problems — decode
//! steps with a handful of rows, narrow projection heads with a
//! handful of columns. For those, the full Goto nest is mostly
//! overhead: A-packing traffic and a padded 4×4 register tile for at
//! most a couple of live rows. These paths consume raw A directly
//! (no A packing at all) and reduce the kernel to either a dense
//! row-sweep ([`super::HostKernel`]'s `small_m_dense`) or one walk
//! over a packed B image built from the tier's grouped panel
//! primitive (`panel_group`: up to 4 raw A rows × `int_nr/4` adjacent
//! 4-column panels per call).
//!
//! The walk reads the image front to back, and a decode token's
//! images (3.1 MB) do not fit L2, so what bounds a served GEMV is how
//! well the walk hides L3 latency, not arithmetic: the SIMD primitives
//! prefetch the *next* group while they multiply the current one
//! (`docs/HOST_KERNELS.md`, "The grouped panel walk").
//!
//! Bit-identity with the blocked tile path is structural: every
//! product is exact and every accumulation wraps in i32, so summation
//! order cannot change the result. The selection predicate lives in
//! [`crate::loops::small_path`] so the direct, batched and session
//! paths all pick identically.

use crate::batch::packed_b_offset;
use crate::loops::{for_each_b_block, BlockPlan};

use super::HostKernel;

/// How B arrives at a skinny-m call site.
#[derive(Debug, Clone, Copy)]
pub enum SmallB<'a> {
    /// Raw row-major k×n operand.
    Dense(&'a [i8]),
    /// Fully pre-packed B image (a weight-registry handle's panel),
    /// laid out by [`crate::weights::prepack_b`] /
    /// [`packed_b_offset`].
    Panel(&'a [i8]),
}

/// Skinny-m dispatch: a raw-B problem takes the dense row-sweep kernel
/// (B streams through cache once, no packing anywhere); a pre-packed B
/// reuses the existing panel image via the panel walk.
pub(super) fn run_small_m(
    hk: &HostKernel,
    m: usize,
    n: usize,
    k: usize,
    plan: &BlockPlan,
    a: &[i8],
    b: SmallB<'_>,
    c: &mut [i32],
) {
    match b {
        SmallB::Dense(b) => (hk.small_m_dense)(m, n, k, a, b, c),
        SmallB::Panel(bpanel) => run_panel(hk, m, n, k, plan, a, bpanel, c),
    }
}

/// Skinny-n path: raw A rows against a fully pre-packed B image. The
/// whole C row block stays register/L1-resident, so the nest collapses
/// to a panel walk.
pub(super) fn run_small_n(
    hk: &HostKernel,
    m: usize,
    n: usize,
    k: usize,
    plan: &BlockPlan,
    a: &[i8],
    bpanel: &[i8],
    c: &mut [i32],
) {
    run_panel(hk, m, n, k, plan, a, bpanel, c)
}

/// Shared engine of both skinny paths: walk the canonical B-block
/// traversal ([`for_each_b_block`] — the same order `prepack_b` laid
/// the image out in, so the walk reads the image front to back), and
/// hand the tier's grouped primitive up to 4 raw A rows × `int_nr/4`
/// adjacent panels at a time, folding its wrapping sums into C. The
/// last group of a block (or of the matrix) may hold fewer panels and
/// the last pass fewer rows; the primitive takes both.
fn run_panel(
    hk: &HostKernel,
    m: usize,
    n: usize,
    k: usize,
    plan: &BlockPlan,
    a: &[i8],
    bpanel: &[i8],
    c: &mut [i32],
) {
    let group = hk.int_nr / 4;
    // One rows × panels tile scratch reused for the entire walk. The
    // primitive *accumulates* into it, so the fold below must re-zero
    // what it used — the debug assert pins that discipline (a stale
    // lane would silently corrupt the next pass's sums).
    let mut acc = [[0i32; 4]; 16];
    for_each_b_block(plan, |jc, ncb, pc, kcb| {
        let off = packed_b_offset(plan.kp, jc, ncb, pc);
        // pc < k always: kp < k + k_step and every block is at least
        // one k-step deep, so the raw A rows are never empty
        let kreal = kcb.min(k - pc);
        // panels past this count are column padding (jc < n: np < n + 4)
        let live = ncb.min(n - jc).div_ceil(4);
        for q in (0..live).step_by(group) {
            let np = group.min(live - q);
            let panels = &bpanel[off + q * kcb * 4..off + (q + np) * kcb * 4];
            let j0 = jc + q * 4;
            let width = (np * 4).min(n - j0);
            for i in (0..m).step_by(4) {
                let tile = &mut acc[..4.min(m - i) * np];
                debug_assert!(
                    tile.iter().all(|t| *t == [0i32; 4]),
                    "skinny-path tile scratch must be zeroed between reuses"
                );
                (hk.panel_group)(tile, &a[i * k + pc..], k, kreal, panels, np);
                for (r, sums) in tile.chunks_exact_mut(np).enumerate() {
                    let crow = &mut c[(i + r) * n + j0..(i + r) * n + j0 + width];
                    for (cv, &v) in crow.iter_mut().zip(sums.as_flattened()) {
                        *cv = cv.wrapping_add(v);
                    }
                    sums.fill([0i32; 4]);
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::{small_path, SmallPath};
    use crate::reference::{gemm_i32_ref, SplitMix64};
    use crate::weights::{host_block_plan, prepack_b};

    fn packed_b(n: usize, k: usize, k_step: usize, b: &[i8]) -> (BlockPlan, Vec<i8>) {
        let plan = host_block_plan(4, n, k, k_step);
        let mut buf = vec![0i8; plan.np * plan.kp];
        prepack_b(&mut buf, b, n, k, &plan);
        (plan, buf)
    }

    #[test]
    fn small_m_dense_and_panel_agree_with_reference() {
        let mut r = SplitMix64::new(40);
        let hk = HostKernel::detect();
        for (m, n, k) in [(1, 64, 33), (2, 7, 16), (5, 100, 70), (8, 3, 5)] {
            let a = r.i8_vec(m * k, -128, 127);
            let b = r.i8_vec(k * n, -128, 127);
            let want = gemm_i32_ref(m, n, k, &a, &b);
            let (plan, bimg) = packed_b(n, k, 16, &b);
            let mut dense = vec![0i32; m * n];
            run_small_m(hk, m, n, k, &plan, &a, SmallB::Dense(&b), &mut dense);
            assert_eq!(dense, want, "dense {m}x{n}x{k}");
            let mut panel = vec![0i32; m * n];
            run_small_m(hk, m, n, k, &plan, &a, SmallB::Panel(&bimg), &mut panel);
            assert_eq!(panel, want, "panel {m}x{n}x{k}");
        }
    }

    #[test]
    fn small_n_agrees_with_reference() {
        let mut r = SplitMix64::new(41);
        let hk = HostKernel::detect();
        for (m, n, k) in [(64, 1, 33), (17, 4, 16), (100, 7, 70), (33, 8, 200)] {
            let a = r.i8_vec(m * k, -128, 127);
            let b = r.i8_vec(k * n, -128, 127);
            let want = gemm_i32_ref(m, n, k, &a, &b);
            let (plan, bimg) = packed_b(n, k, 16, &b);
            let mut c = vec![0i32; m * n];
            run_small_n(hk, m, n, k, &plan, &a, &bimg, &mut c);
            assert_eq!(c, want, "{m}x{n}x{k}");
        }
    }

    #[test]
    fn small_paths_accumulate_into_existing_c() {
        // same contract as the blocked tile path: C += A·B
        let mut r = SplitMix64::new(42);
        let hk = HostKernel::detect();
        let (m, n, k) = (3, 9, 24);
        let a = r.i8_vec(m * k, -16, 16);
        let b = r.i8_vec(k * n, -16, 16);
        let want: Vec<i32> = gemm_i32_ref(m, n, k, &a, &b).iter().map(|v| v + 100).collect();
        let (plan, bimg) = packed_b(n, k, 16, &b);
        let mut c = vec![100i32; m * n];
        run_small_m(hk, m, n, k, &plan, &a, SmallB::Panel(&bimg), &mut c);
        assert_eq!(c, want);
    }

    #[test]
    fn reused_tile_scratch_is_zeroed_between_panel_walks() {
        // `run_panel` reuses one rows × panels tile scratch across
        // every (block, group, row pass) visit of the walk, at
        // whatever size each visit needs; a single stale lane would
        // shift a later sum by a deterministic garbage term. Shapes
        // whose visits change size mid-walk — a partial last group, a
        // row tail after full 4-row passes, a second column block and
        // a second k-block — on every available tier pin the re-zero
        // discipline end to end (debug builds also assert it before
        // each `panel_group` call).
        let mut r = SplitMix64::new(44);
        for hk in HostKernel::available() {
            for (m, n, k) in [(3, 37, 300), (70, 6, 250), (7, 270, 2060)] {
                let a = r.i8_vec(m * k, -128, 127);
                let b = r.i8_vec(k * n, -128, 127);
                let want = gemm_i32_ref(m, n, k, &a, &b);
                let (plan, bimg) = packed_b(n, k, 16, &b);
                let mut c = vec![0i32; m * n];
                match small_path(m, n) {
                    Some(SmallPath::SmallM) => {
                        run_small_m(hk, m, n, k, &plan, &a, SmallB::Panel(&bimg), &mut c)
                    }
                    Some(SmallPath::SmallN) => run_small_n(hk, m, n, k, &plan, &a, &bimg, &mut c),
                    None => unreachable!("shapes above are skinny by construction"),
                }
                assert_eq!(c, want, "{m}x{n}x{k} on {}", hk.tier().name());
            }
        }
    }

    #[test]
    fn chooser_and_paths_cover_i4_k_step_too() {
        let mut r = SplitMix64::new(43);
        let hk = HostKernel::detect();
        let (m, n, k) = (2, 50, 40);
        assert_eq!(small_path(m, n), Some(SmallPath::SmallM));
        let a = r.i8_vec(m * k, -8, 7);
        let b = r.i8_vec(k * n, -8, 7);
        let want = gemm_i32_ref(m, n, k, &a, &b);
        let (plan, bimg) = packed_b(n, k, 32, &b);
        let mut c = vec![0i32; m * n];
        run_small_m(hk, m, n, k, &plan, &a, SmallB::Panel(&bimg), &mut c);
        assert_eq!(c, want);
    }
}
