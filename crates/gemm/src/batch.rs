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
//! This module owns the layout of a *fully pre-packed* operand (every
//! block of the blocked loops, concatenated in visit order), which lets
//! one packed panel serve any number of requests and workers; the host
//! engine's units, which pack a dense B whole, and the weight registry
//! index panels through it.

use crate::loops::BlockPlan;

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
