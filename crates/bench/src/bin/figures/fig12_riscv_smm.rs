//! Fig. 12: square-matrix multiplication on the edge RISC-V SoC —
//! normalized speed-up and instruction reduction of CAMP 8-/4-bit vs the
//! BLIS-int32 baseline, across matrix sizes.

use camp_bench::{harness_options, header};
use camp_gemm::{simulate_gemm, Method};
use camp_pipeline::CoreConfig;

pub fn main() {
    header("Fig. 12", "Edge RISC-V SMM: speedup + instruction reduction vs BLIS-int32");
    let opts = harness_options();
    let edge = CoreConfig::edge_riscv();
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>12} {:>9} {:>9}",
        "size", "spd 8bit", "spd 4bit", "instred8", "instred4", "GOPS8", "GOPS4"
    );
    println!("{:>6} paper: speedups ≈7–25x growing with size; 4bit/8bit ≈ linear", "");
    for &s in &[64usize, 128, 192, 256, 320, 384, 448, 512] {
        let base = simulate_gemm(edge, Method::HandvInt32, s, s, s, &opts);
        let c8 = simulate_gemm(edge, Method::Camp8, s, s, s, &opts);
        let c4 = simulate_gemm(edge, Method::Camp4, s, s, s, &opts);
        println!(
            "{:>6} {:>9.2}x {:>9.2}x {:>11.2}x {:>11.2}x {:>9.1} {:>9.1}",
            s,
            base.stats.cycles as f64 / c8.stats.cycles as f64,
            base.stats.cycles as f64 / c4.stats.cycles as f64,
            base.stats.insts as f64 / c8.stats.insts as f64,
            base.stats.insts as f64 / c4.stats.insts as f64,
            c8.gops,
            c4.gops,
        );
    }
    println!("\npaper §6.2: CAMP reaches 16 GOPS (8-bit) and 28 GOPS (4-bit) on SMM.");
}
