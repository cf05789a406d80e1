//! Analytic address-trace generators for the Fig. 1 cache-miss-rate
//! experiment (naive "Matmul" vs ulmBLAS-style blocked GeMM).
//!
//! The paper measures L1D miss rate on an A64FX core. Rather than
//! executing billions of instructions, these generators replay the
//! *memory reference stream* of each algorithm — at element granularity,
//! in exact loop order — against the `camp-cache` hierarchy. Prefetching
//! is disabled for this experiment so the miss rate reflects pure access
//! locality, which is what Fig. 1 contrasts.

use camp_cache::{Hierarchy, HierarchyConfig};
use camp_gemm::loops::{for_each_b_block, for_each_row_strip, BlockPlan};

/// Outcome of a trace replay (Fig. 1 prints the rate, tests the rest).
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct TraceResult {
    /// L1D demand miss rate in [0, 1].
    pub l1_miss_rate: f64,
    /// Demand accesses replayed.
    pub accesses: u64,
    /// True if the replay stopped early at the access budget.
    pub truncated: bool,
}

fn no_prefetch(mut cfg: HierarchyConfig) -> HierarchyConfig {
    cfg.l1d.prefetch = false;
    cfg.l2.prefetch = false;
    cfg
}

fn result(h: &Hierarchy, truncated: bool) -> TraceResult {
    TraceResult {
        l1_miss_rate: h.l1d().stats().demand_miss_rate(),
        accesses: h.l1d().stats().accesses,
        truncated,
    }
}

/// Replay the naive triple-loop matmul (`MATMUL` in the paper: A
/// row-major, B column-major, scalar accumulator), stopping after
/// `budget` accesses.
pub fn naive_trace(
    cfg: HierarchyConfig,
    m: usize,
    n: usize,
    k: usize,
    elem: usize,
    budget: u64,
) -> TraceResult {
    let mut h = Hierarchy::new(no_prefetch(cfg));
    let a0 = 0u64;
    let b0 = (m * k * elem) as u64;
    let c0 = b0 + (k * n * elem) as u64;
    let mut count = 0u64;
    for i in 0..m {
        for j in 0..n {
            for l in 0..k {
                h.access(a0 + ((i * k + l) * elem) as u64, elem as u32, false, 1);
                h.access(b0 + ((l * n + j) * elem) as u64, elem as u32, false, 2);
                count += 2;
            }
            h.access(c0 + ((i * n + j) * elem) as u64, elem as u32, true, 3);
            count += 1;
            if count >= budget {
                return result(&h, true);
            }
        }
    }
    result(&h, false)
}

/// Blocking parameters of the ulmBLAS-style trace.
#[derive(Debug, Clone, Copy)]
pub struct BlockedTraceParams {
    /// Rows per A block (L2 panel height).
    pub mc: usize,
    /// Columns per B block.
    pub nc: usize,
    /// Depth per block (L1 panel).
    pub kc: usize,
    /// Micro-kernel rows.
    pub mr: usize,
    /// Micro-kernel columns.
    pub nr: usize,
}

impl Default for BlockedTraceParams {
    fn default() -> Self {
        BlockedTraceParams { mc: 128, nc: 512, kc: 256, mr: 4, nr: 4 }
    }
}

/// Replay the GotoBLAS/ulmBLAS blocked GeMM reference stream: B-panel
/// packing, A-panel packing and the packed streaming micro-kernel,
/// stopping after `budget` accesses.
///
/// The (jc, pc) block traversal and the row-strip loop come from the
/// shared skeleton ([`for_each_b_block`] / [`for_each_row_strip`] over
/// an element-granular [`BlockPlan`]), so this trace replays exactly
/// the stream whose blocks the parallel simulated driver partitions
/// into units.
pub fn blocked_trace(
    cfg: HierarchyConfig,
    m: usize,
    n: usize,
    k: usize,
    elem: usize,
    p: BlockedTraceParams,
    budget: u64,
) -> TraceResult {
    let mut h = Hierarchy::new(no_prefetch(cfg));
    let a0 = 0u64;
    let b0 = (m * k * elem) as u64;
    let c0 = b0 + (k * n * elem) as u64;
    let ap0 = c0 + (m * n * elem) as u64;
    let bp0 = ap0 + (p.mc * p.kc * elem) as u64;
    let mut count = 0u64;
    let e = elem as u32;

    // element-granular plan: tile 1×1, k-unit 1 — padding-free, so the
    // traversal visits exactly the raw (jc, pc) blocks
    let plan = BlockPlan::new(m, n, k, 1, 1, 1, (p.mc, p.nc, p.kc));
    let mut truncated = false;
    for_each_b_block(&plan, |jc, ncb, pc, kcb| {
        if truncated {
            return;
        }
        // pack B panel: read B (row-major slice), write packed
        for jj in 0..ncb {
            for l in 0..kcb {
                h.access(b0 + (((pc + l) * n + jc + jj) * elem) as u64, e, false, 10);
                h.access(bp0 + ((jj * kcb + l) * elem) as u64, e, true, 11);
                count += 2;
            }
        }
        for_each_row_strip(&plan, |ic, mcb| {
            if truncated {
                return;
            }
            // pack A block
            for ii in 0..mcb {
                for l in 0..kcb {
                    h.access(a0 + (((ic + ii) * k + pc + l) * elem) as u64, e, false, 12);
                    h.access(ap0 + ((ii * kcb + l) * elem) as u64, e, true, 13);
                    count += 2;
                }
            }
            // macro kernel: stream packed panels
            let mut j = 0;
            'strip: while j < ncb {
                let mut i = 0;
                while i < mcb {
                    for l in 0..kcb {
                        for r in 0..p.mr.min(mcb - i) {
                            h.access(ap0 + (((i + r) * kcb + l) * elem) as u64, e, false, 14);
                            count += 1;
                        }
                        for cidx in 0..p.nr.min(ncb - j) {
                            h.access(bp0 + (((j + cidx) * kcb + l) * elem) as u64, e, false, 15);
                            count += 1;
                        }
                    }
                    // C tile read-modify-write
                    for r in 0..p.mr.min(mcb - i) {
                        for cidx in 0..p.nr.min(ncb - j) {
                            let addr = c0 + (((ic + i + r) * n + jc + j + cidx) * elem) as u64;
                            h.access(addr, e, false, 16);
                            h.access(addr, e, true, 17);
                            count += 2;
                        }
                    }
                    if count >= budget {
                        truncated = true;
                        break 'strip;
                    }
                    i += p.mr;
                }
                j += p.nr;
            }
        });
    });
    result(&h, truncated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_beats_naive_at_512() {
        let cfg = HierarchyConfig::a64fx();
        let naive = naive_trace(cfg, 256, 256, 256, 4, 20_000_000);
        let blocked =
            blocked_trace(cfg, 256, 256, 256, 4, BlockedTraceParams::default(), 20_000_000);
        assert!(
            naive.l1_miss_rate > 3.0 * blocked.l1_miss_rate,
            "naive {} vs blocked {}",
            naive.l1_miss_rate,
            blocked.l1_miss_rate
        );
        assert!(blocked.l1_miss_rate < 0.05, "blocked CMR {}", blocked.l1_miss_rate);
    }

    #[test]
    fn naive_miss_rate_grows_with_size() {
        let cfg = HierarchyConfig::a64fx();
        let small = naive_trace(cfg, 64, 64, 64, 4, 10_000_000);
        let large = naive_trace(cfg, 256, 256, 256, 4, 10_000_000);
        assert!(large.l1_miss_rate >= small.l1_miss_rate);
    }

    #[test]
    fn budget_truncates() {
        let cfg = HierarchyConfig::a64fx();
        let r = naive_trace(cfg, 128, 128, 128, 4, 1000);
        assert!(r.truncated);
        assert!(r.accesses >= 1000);
    }

    #[test]
    fn tiny_problem_fits_cache() {
        let cfg = HierarchyConfig::a64fx();
        // 16×16×16 f32 = 3 KB total: everything fits L1 after cold misses
        let r = naive_trace(cfg, 16, 16, 16, 4, 10_000_000);
        assert!(r.l1_miss_rate < 0.02, "tiny CMR {}", r.l1_miss_rate);
    }
}
