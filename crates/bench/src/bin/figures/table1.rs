//! Table 1: speedup of Int8/Int4 matrix multiplication over FP32 for
//! 512×512 square matrices, per architecture.
//!
//! The ARM/Intel commercial rows are cited from the paper (we cannot run
//! SME/AVX silicon); the CAMP rows are measured on our simulators.

use camp_bench::{harness_options, header};
use camp_gemm::{simulate_gemm, Method};
use camp_pipeline::CoreConfig;

pub fn main() {
    header("Table 1", "Int8/Int4 speedup over FP32, SMM 512");
    let opts = harness_options();
    let (m, n, k) = (512, 512, 512);

    // cited rows
    println!("{:24} {:>8} {:>8} {:>8}   (source)", "Architecture", "FP32", "Int8", "Int4");
    println!("{:24} {:>8} {:>8} {:>8}   cited", "ARMv8+SVE", "1x", "✗", "✗");
    println!("{:24} {:>8} {:>8} {:>8}   cited", "ARMv9+SME", "1x", "2x", "✗");
    println!("{:24} {:>8} {:>8} {:>8}   cited", "Intel AVX+IFMA", "1x", "4.5x", "✗");

    // measured: ARM-SVE/CAMP vs its own FP32 baseline
    let a64 = CoreConfig::a64fx();
    let fp32 = simulate_gemm(a64, Method::OpenblasF32, m, n, k, &opts);
    let i8 = simulate_gemm(a64, Method::Camp8, m, n, k, &opts);
    let i4 = simulate_gemm(a64, Method::Camp4, m, n, k, &opts);
    println!(
        "{:24} {:>8} {:>7.1}x {:>7.1}x   measured (paper: 7.4x / 12.4x)",
        "ARMv8+SVE/CAMP",
        "1x",
        fp32.stats.cycles as f64 / i8.stats.cycles as f64,
        fp32.stats.cycles as f64 / i4.stats.cycles as f64,
    );

    // measured: RISC-V/CAMP vs an edge FP32-class baseline. The edge SoC
    // has no FP32 vector GeMM library; the paper normalizes against its
    // 32-bit path, which BLIS-int32 (= handv-int32 on the edge core)
    // represents.
    let edge = CoreConfig::edge_riscv();
    let base = simulate_gemm(edge, Method::HandvInt32, m, n, k, &opts);
    let e8 = simulate_gemm(edge, Method::Camp8, m, n, k, &opts);
    let e4 = simulate_gemm(edge, Method::Camp4, m, n, k, &opts);
    println!(
        "{:24} {:>8} {:>7.1}x {:>7.1}x   measured (paper: 14.1x / 25.1x)",
        "RISC-V/CAMP",
        "1x",
        base.stats.cycles as f64 / e8.stats.cycles as f64,
        base.stats.cycles as f64 / e4.stats.cycles as f64,
    );
}
