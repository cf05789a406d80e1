//! Shared blocked-loop skeleton (shared-types module of the dispatch
//! layer).
//!
//! Both GeMM halves of this workspace — the simulated §5.3 driver
//! ([`crate::driver`]) and the host-speed CAMP engine in `camp-core` —
//! run the same GotoBLAS five-loop structure (Fig. 3): loop over column
//! blocks (`nc`), over depth blocks (`kc`), over row blocks (`mc`), then
//! hand packed panels to a macro-kernel. This module owns what the two
//! share, as pure host-side control flow with no dependency on either
//! execution substrate: the [`BlockPlan`], the skinny-route chooser
//! [`small_path`] and the three block iterators. The canonical nest is
//! [`for_each_b_block`] × [`for_each_row_strip`]; where the operands are
//! packed is each substrate's business — the simulated driver packs a
//! block per visit (that traffic is what it measures), the host engine
//! walks two whole packed images laid out by
//! [`crate::batch::packed_a_offset`] / [`crate::batch::packed_b_offset`]
//! and packs nothing inside the nest.

/// Round `x` up to the next multiple of `to`.
pub fn round_up(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

/// Padded problem dimensions plus the cache-blocking factors, all
/// normalized so every block boundary is tile-aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockPlan {
    /// m padded to a multiple of `mr`.
    pub mp: usize,
    /// n padded to a multiple of `nr`.
    pub np: usize,
    /// k padded to a multiple of the macro-kernel's k-unit.
    pub kp: usize,
    /// Row-block height (multiple of `mr`, ≤ `mp`).
    pub mc: usize,
    /// Column-block width (multiple of `nr`, ≤ `np`).
    pub nc: usize,
    /// Depth-block size (multiple of the k-unit, ≤ `kp`).
    pub kc: usize,
}

impl BlockPlan {
    /// Build a plan for an m×n×k problem on an `mr`×`nr` register tile
    /// whose macro-kernel consumes `k_unit` k-values per iteration.
    /// `(dmc, dnc, dkc)` are the desired blocking factors; they are
    /// clamped to the padded problem and re-aligned to the tile.
    ///
    /// A zero dimension yields a degenerate plan whose padded space is
    /// empty; the [`for_each_b_block`] × [`for_each_row_strip`] nest
    /// then visits nothing, so the m×n result of a k=0 problem stays
    /// all-zero and empty results stay empty. This matches the host
    /// engine, which returns an empty (or zero-filled) C for
    /// zero-dimension problems instead of panicking.
    ///
    /// # Panics
    /// Panics if a tile parameter is zero.
    pub fn new(
        m: usize,
        n: usize,
        k: usize,
        mr: usize,
        nr: usize,
        k_unit: usize,
        (dmc, dnc, dkc): (usize, usize, usize),
    ) -> Self {
        assert!(mr > 0 && nr > 0 && k_unit > 0, "tile must be positive");
        let mp = round_up(m, mr);
        let np = round_up(n, nr);
        let kp = round_up(k, k_unit);
        BlockPlan {
            mp,
            np,
            kp,
            mc: round_up(dmc.max(1).min(mp), mr),
            nc: round_up(dnc.max(1).min(np), nr),
            kc: round_up(dkc.max(1).min(kp), k_unit),
        }
    }
}

/// Largest m the host engine routes to the skinny-m fast path
/// (`camp_gemm::host`'s `run_small_m`): two 4-row register tiles.
/// Decode-shaped serving GeMMs sit well under this.
pub const SMALL_M_MAX: usize = 8;

/// Largest n the host engine routes to the skinny-n fast path
/// (`run_small_n`): two 4-column packed panels.
pub const SMALL_N_MAX: usize = 8;

/// Which skinny fast path a problem shape takes, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmallPath {
    /// m ≤ [`SMALL_M_MAX`]: GEMV-shaped decode step.
    SmallM,
    /// n ≤ [`SMALL_N_MAX`]: narrow projection.
    SmallN,
}

/// The single source of truth for skinny-path selection, shared by the
/// direct, batched and session entry points so they all route
/// identically. Zero-dimension problems return `None` (the engine
/// short-circuits those before any kernel runs); a problem that is
/// skinny both ways takes the m path (raw-B problems then need no
/// packing at all).
pub fn small_path(m: usize, n: usize) -> Option<SmallPath> {
    if m == 0 || n == 0 {
        None
    } else if m <= SMALL_M_MAX {
        Some(SmallPath::SmallM)
    } else if n <= SMALL_N_MAX {
        Some(SmallPath::SmallN)
    } else {
        None
    }
}

/// Visit every `(jc, ncb, pc, kcb)` B block of the plan, jc outer, pc
/// inner — the outer two loops of the blocked nest. This is the single
/// source of truth for the B traversal: anything that lays out B per
/// block — the simulated driver's per-block packing, or a whole packed
/// image indexed by `crate::batch::packed_b_offset` — must iterate
/// identically, so both go through here.
pub fn for_each_b_block(plan: &BlockPlan, mut f: impl FnMut(usize, usize, usize, usize)) {
    let mut jc = 0;
    while jc < plan.np {
        let ncb = plan.nc.min(plan.np - jc);
        let mut pc = 0;
        while pc < plan.kp {
            let kcb = plan.kc.min(plan.kp - pc);
            f(jc, ncb, pc, kcb);
            pc += kcb;
        }
        jc += ncb;
    }
}

/// Visit every *unique* `(ic, mcb, pc, kcb)` A block of the plan, row
/// strips outer, depth blocks inner — the order a whole packed A image
/// in the shared panel layout (see `camp_gemm::host::HostKernel::prepack_a`,
/// laid out by [`crate::batch::packed_a_offset`]) holds them in. The image holds
/// each block exactly once and serves every column strip, so a host
/// work unit packs its rows once, before its nest runs.
pub fn for_each_a_block(plan: &BlockPlan, mut f: impl FnMut(usize, usize, usize, usize)) {
    let mut ic = 0;
    while ic < plan.mp {
        let mcb = plan.mc.min(plan.mp - ic);
        let mut pc = 0;
        while pc < plan.kp {
            let kcb = plan.kc.min(plan.kp - pc);
            f(ic, mcb, pc, kcb);
            pc += kcb;
        }
        ic += mcb;
    }
}

/// Visit every `(ic, mcb)` row strip of the plan, in ascending-`ic`
/// order — the macro loop that runs inside each (jc, pc) block. The
/// parallel simulated driver replays exactly this traversal per
/// independent block unit, so serial and parallel runs visit identical
/// row strips in identical order (the bit-identity contract).
pub fn for_each_row_strip(plan: &BlockPlan, mut f: impl FnMut(usize, usize)) {
    let mut ic = 0;
    while ic < plan.mp {
        let mcb = plan.mc.min(plan.mp - ic);
        f(ic, mcb);
        ic += mcb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_pads_and_aligns() {
        let p = BlockPlan::new(5, 7, 19, 4, 4, 128, (64, 128, 4096));
        assert_eq!((p.mp, p.np, p.kp), (8, 8, 128));
        assert_eq!((p.mc, p.nc, p.kc), (8, 8, 128));
    }

    #[test]
    fn plan_respects_requested_blocking() {
        let p = BlockPlan::new(256, 256, 512, 4, 16, 2, (64, 128, 96));
        assert_eq!((p.mc, p.nc, p.kc), (64, 128, 96));
    }

    /// Every `(ic, mcb, jc, ncb, pc, kcb)` macro-kernel block of the
    /// canonical nest, in visit order.
    fn nest_blocks(plan: &BlockPlan) -> Vec<(usize, usize, usize, usize, usize, usize)> {
        let mut blocks = Vec::new();
        for_each_b_block(plan, |jc, ncb, pc, kcb| {
            for_each_row_strip(plan, |ic, mcb| blocks.push((ic, mcb, jc, ncb, pc, kcb)));
        });
        blocks
    }

    #[test]
    fn loop_nest_covers_problem_without_overlap() {
        let plan = BlockPlan::new(12, 20, 96, 4, 4, 32, (8, 8, 32));
        let mut b_blocks = 0usize;
        for_each_b_block(&plan, |_, _, _, _| b_blocks += 1);
        // one B block per (jc, pc) pair
        assert_eq!(b_blocks, (20usize.div_ceil(8)) * (96usize.div_ceil(32)));
        // one macro-kernel block per row strip per B block
        let blocks = nest_blocks(&plan);
        assert_eq!(blocks.len(), b_blocks * 12usize.div_ceil(8));
        // blocks tile the full padded space exactly
        let covered: usize = blocks.iter().map(|&(_, mcb, _, ncb, _, kcb)| mcb * ncb * kcb).sum();
        assert_eq!(covered, plan.mp * plan.np * plan.kp);
        let mut dedup = blocks.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), blocks.len(), "no block is visited twice");
    }

    #[test]
    fn a_block_iterator_tiles_the_padded_row_depth_space() {
        let plan = BlockPlan::new(12, 20, 96, 4, 4, 32, (8, 8, 32));
        let mut covered = 0usize;
        let mut blocks = Vec::new();
        for_each_a_block(&plan, |ic, mcb, pc, kcb| {
            covered += mcb * kcb;
            blocks.push((ic, pc));
        });
        // each (ic, pc) exactly once, tiling mp×kp
        assert_eq!(covered, plan.mp * plan.kp);
        let mut dedup = blocks.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), blocks.len(), "A blocks must be unique");
        // the nest reads the same (ic, pc) set, once per column strip
        let strips = 20usize.div_ceil(8);
        assert_eq!(nest_blocks(&plan).len(), blocks.len() * strips);
    }

    #[test]
    fn row_strips_tile_the_padded_rows_in_order() {
        let plan = BlockPlan::new(13, 8, 8, 4, 4, 1, (8, 8, 8));
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        for_each_row_strip(&plan, |ic, mcb| {
            assert_eq!(ic, prev_end, "strips must be contiguous and ascending");
            prev_end = ic + mcb;
            covered += mcb;
        });
        assert_eq!(covered, plan.mp);
    }

    #[test]
    fn small_path_chooser_routes_by_shape() {
        assert_eq!(small_path(1, 4096), Some(SmallPath::SmallM));
        assert_eq!(small_path(SMALL_M_MAX, 4096), Some(SmallPath::SmallM));
        assert_eq!(small_path(4096, SMALL_N_MAX), Some(SmallPath::SmallN));
        assert_eq!(small_path(4096, 1), Some(SmallPath::SmallN));
        // skinny both ways prefers the m path
        assert_eq!(small_path(2, 2), Some(SmallPath::SmallM));
        // full-size and zero-dimension problems take the blocked nest
        assert_eq!(small_path(SMALL_M_MAX + 1, SMALL_N_MAX + 1), None);
        assert_eq!(small_path(0, 4), None);
        assert_eq!(small_path(4, 0), None);
    }

    #[test]
    fn zero_dims_yield_empty_traversal() {
        // zero-dimension problems must not panic anywhere: the plan is
        // degenerate and the loop nest visits no macro-kernel block
        for (m, n, k) in [(0, 4, 4), (4, 0, 4), (4, 4, 0), (0, 0, 0)] {
            let plan = BlockPlan::new(m, n, k, 4, 4, 1, (4, 4, 4));
            assert!(nest_blocks(&plan).is_empty(), "{m}x{n}x{k} ran a macro-kernel");
        }
    }
}
