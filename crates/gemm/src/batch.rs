//! Batched-GeMM building blocks.
//!
//! Transformer attention runs *many small* GeMMs per step — per-head
//! (s×dₕ)·(dₕ×s) score and (s×s)·(s×dₕ) context products, 12–20 heads
//! per layer (§5.2, Fig. 14) — shapes where per-call setup and operand
//! re-packing swamp compute. On the host engine a batch call amortizes
//! the setup — parallelism moves across batch items instead of inside
//! each tiny GeMM — and a weight matrix every step shares is registered
//! once, so no request re-packs it.
//!
//! This module owns two pieces. The layout of a *fully pre-packed*
//! operand (every block of the blocked loops, concatenated in visit
//! order) lets one packed panel serve any number of requests and
//! workers; the host engine's units, which pack a dense B whole, and
//! the weight registry index panels through it. [`GemmProblem`] is the simulated driver's borrowed input:
//! requests reach both substrates as `camp_gemm::request::GemmRequest`s,
//! and `SimBackend` lowers each one to a descriptor for
//! [`crate::driver::SimSession::simulate`]. The simulator times every
//! GeMM on its own, B pack included, as the paper does: a problem
//! counts the same whatever else its batch holds.
//!
//! ```
//! use camp_gemm::{GemmOptions, GemmProblem, SimSession};
//! use camp_pipeline::CoreConfig;
//!
//! let a: Vec<i8> = (0..4 * 8).map(|i| (i % 13) as i8 - 6).collect();
//! let w: Vec<i8> = (0..8 * 4).map(|i| (i % 15) as i8 - 7).collect();
//! let problem = GemmProblem::new(4, 4, 8, &a, &w);
//! let opts = GemmOptions::default();
//! let mut session = SimSession::new(CoreConfig::a64fx());
//! let first = session.simulate(&problem, &opts);
//! let again = session.simulate(&problem, &opts); // same shape: counts from the memo
//! assert!(first.correct);
//! assert_eq!(again.stats, first.stats);
//! ```

use crate::loops::BlockPlan;
use crate::weights::DType;

/// One GeMM of a simulated batch: row-major C (m×n) = A (m×k) · B (k×n),
/// borrowing its operands. Values must fit the kernel the problem runs
/// under (i8 for `camp.s8`, [-8, 7] for `camp.s4`), which `dtype`
/// selects.
#[derive(Debug, Clone, Copy)]
pub struct GemmProblem<'a> {
    /// Rows of A / C.
    pub m: usize,
    /// Columns of B / C.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Row-major m×k left operand.
    pub a: &'a [i8],
    /// Row-major k×n right operand.
    pub b: &'a [i8],
    /// Kernel this problem runs under in mixed-dtype batches.
    pub dtype: DType,
}

impl<'a> GemmProblem<'a> {
    /// Describe one problem (i8 kernel by default; see
    /// [`GemmProblem::with_dtype`]).
    pub fn new(m: usize, n: usize, k: usize, a: &'a [i8], b: &'a [i8]) -> Self {
        GemmProblem { m, n, k, a, b, dtype: DType::I8 }
    }

    /// Select the kernel this problem runs under in mixed-dtype batch
    /// calls.
    pub fn with_dtype(mut self, dtype: DType) -> Self {
        self.dtype = dtype;
        self
    }

    /// Multiply-accumulate operations of this problem.
    pub fn macs(&self) -> u64 {
        self.m as u64 * self.n as u64 * self.k as u64
    }

    /// True if any dimension is zero (the result is empty or all-zero
    /// and no kernel work runs).
    pub fn is_degenerate(&self) -> bool {
        self.m == 0 || self.n == 0 || self.k == 0
    }
}

/// Total bytes of a fully pre-packed B: every (jc, pc) block of the
/// plan's traversal, concatenated. Each column strip of width `ncb`
/// spans the whole padded depth, so the total is exactly `np·kp` —
/// the same bytes a blocked per-(jc, pc) packing moves in one full
/// traversal.
pub fn packed_b_bytes(plan: &BlockPlan) -> usize {
    plan.np * plan.kp
}

/// Byte offset of the (jc, pc) block inside a fully pre-packed B, for a
/// plan whose padded depth is `kp`.
///
/// Column strips before `jc` (total width `jc`) each span the padded
/// depth `kp`; within the current strip of width `ncb`, the `pc`
/// previous depth blocks hold `ncb` bytes per k-value.
pub fn packed_b_offset(kp: usize, jc: usize, ncb: usize, pc: usize) -> usize {
    jc * kp + ncb * pc
}

/// Total bytes of a fully pre-packed A: every *unique* (ic, pc) block
/// (see [`crate::loops::for_each_a_block`]) exactly once. Each row
/// strip of height `mcb` spans the whole padded depth, so the total is
/// `mp·kp` — what the host engine packs per blocked request, over all
/// of its work units' images. (The simulated driver, which
/// packs inside its loops, re-packs each A block once per *column
/// strip*.)
pub fn packed_a_bytes(plan: &BlockPlan) -> usize {
    plan.mp * plan.kp
}

/// Byte offset of the (ic, pc) block inside a fully pre-packed A, for a
/// plan whose padded depth is `kp` — the mirror of [`packed_b_offset`]:
/// row strips before `ic` (total height `ic`) each span the padded
/// depth, and within the current strip of height `mcb` the `pc`
/// previous depth blocks hold `mcb` bytes per k-value.
pub fn packed_a_offset(kp: usize, ic: usize, mcb: usize, pc: usize) -> usize {
    ic * kp + mcb * pc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_problems_are_flagged() {
        let empty: [i8; 0] = [];
        assert!(GemmProblem::new(0, 3, 4, &empty, &[0; 12]).is_degenerate());
        assert!(GemmProblem::new(2, 3, 0, &empty, &empty).is_degenerate());
        assert!(!GemmProblem::new(1, 1, 1, &[1], &[1]).is_degenerate());
    }

    #[test]
    fn packed_a_layout_offsets_tile_the_panel() {
        // unique A blocks in for_each_a_block order must be contiguous
        // and cover packed_a_bytes exactly (the mirror of the B test)
        let plan = BlockPlan::new(22, 20, 96, 4, 4, 32, (8, 8, 32));
        let mut expected = 0usize;
        crate::loops::for_each_a_block(&plan, |ic, mcb, pc, kcb| {
            assert_eq!(packed_a_offset(plan.kp, ic, mcb, pc), expected);
            expected += mcb * kcb;
        });
        assert_eq!(expected, packed_a_bytes(&plan));
    }

    #[test]
    fn packed_b_layout_offsets_tile_the_panel() {
        // blocks in the blocked nest's visit order (the shared
        // for_each_b_block iterator) must be contiguous and cover
        // packed_b_bytes exactly
        let plan = BlockPlan::new(12, 20, 96, 4, 4, 32, (8, 8, 32));
        let mut expected = 0usize;
        crate::loops::for_each_b_block(&plan, |jc, ncb, pc, kcb| {
            assert_eq!(packed_b_offset(plan.kp, jc, ncb, pc), expected);
            expected += ncb * kcb;
        });
        assert_eq!(expected, packed_b_bytes(&plan));
    }
}
