//! Fig. 1: L1D cache miss rate for naive matmul vs ulmBLAS-style blocked
//! GeMM — square matrices 128–1024 plus ResNet layers — on the
//! A64FX-like hierarchy.

mod trace;

use camp_bench::header;
use camp_cache::HierarchyConfig;
use camp_models::{cnn, Benchmark};
use trace::{blocked_trace, naive_trace, BlockedTraceParams};

pub fn main() {
    header("Fig. 1", "L1D cache miss rate: naive Matmul vs ulmBLAS (blocked)");
    let cfg = HierarchyConfig::a64fx();
    let budget = 30_000_000;
    let p = BlockedTraceParams::default();

    println!(
        "{:12} {:>12} {:>12}   paper≈ naive 23-36%, ulmBLAS <5%",
        "case", "naive CMR", "ulmBLAS CMR"
    );
    for &s in &[128usize, 256, 512, 1024] {
        let nv = naive_trace(cfg, s, s, s, 4, budget);
        let bl = blocked_trace(cfg, s, s, s, 4, p, budget);
        println!(
            "S-{:<10} {:>11.1}% {:>11.1}%",
            s,
            100.0 * nv.l1_miss_rate,
            100.0 * bl.l1_miss_rate
        );
    }
    for (i, shape) in cnn::layers(Benchmark::ResNet).iter().take(7).enumerate() {
        let nv = naive_trace(cfg, shape.m, shape.n, shape.k, 4, budget);
        let bl = blocked_trace(cfg, shape.m, shape.n, shape.k, 4, p, budget);
        println!(
            "Res-L{:<7} {:>11.1}% {:>11.1}%",
            i + 1,
            100.0 * nv.l1_miss_rate,
            100.0 * bl.l1_miss_rate
        );
    }
}
