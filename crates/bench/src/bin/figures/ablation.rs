//! Ablation studies for the paper's design choices (the index of
//! harnesses is `docs/SIMULATOR.md`, "Figure/table harnesses → paper
//! sections"):
//!
//! 1. CAMP unit lane count → area (GF 22FDX) and 8-bit utilization;
//! 2. cache blocking (kc) → CAMP-8bit cycles, showing why byte operands
//!    allow deep panels;
//! 3. row-block height (mc) → CAMP-8bit cycles at a fixed nc and kc;
//! 4. operand width: CAMP-8bit vs CAMP-4bit cycles on one problem, on
//!    both cores.

use camp_bench::{harness_options, header};
use camp_core::CampStructure;
use camp_energy::{AreaModel, TechNode};
use camp_gemm::{simulate_gemm, GemmOptions, Method};
use camp_pipeline::CoreConfig;

pub fn main() {
    header("Ablations", "design-choice sensitivity studies");

    println!("-- lane count vs area (GF 22FDX) --");
    println!("{:>6} {:>12} {:>10}", "lanes", "area mm²", "util i8");
    for lanes in [2usize, 4, 8, 16] {
        let mut s = CampStructure::paper();
        s.lanes = lanes;
        let r = AreaModel::with_structure(s).report(TechNode::gf22());
        println!("{lanes:>6} {:>12.4} {:>10.2}", r.mm2, s.utilization_i8() * 8.0 / lanes as f64);
    }

    println!("\n-- cache blocking: kc sweep for CAMP-8bit (A64FX, 196x512x2304) --");
    println!("{:>6} {:>12} {:>10}", "kc", "cycles", "vs best");
    let mut results = Vec::new();
    for kc in [256usize, 512, 1024, 2048, 4096] {
        let opts =
            GemmOptions { blocking: Some((128, 512, kc)), verify: false, ..harness_options() };
        let r = simulate_gemm(CoreConfig::a64fx(), Method::Camp8, 196, 512, 2304, &opts);
        results.push((kc, r.stats.cycles));
    }
    let best = results.iter().map(|&(_, c)| c).min().unwrap_or(1);
    for (kc, c) in results {
        println!("{kc:>6} {c:>12} {:>9.2}x", c as f64 / best as f64);
    }

    println!("\n-- unrolled+vectorized pack vs naive blocking (mc sweep, CAMP-8bit) --");
    println!("{:>6} {:>12}", "mc", "cycles");
    for mc in [32usize, 64, 128, 256] {
        let opts =
            GemmOptions { blocking: Some((mc, 512, 2048)), verify: false, ..harness_options() };
        let r = simulate_gemm(CoreConfig::a64fx(), Method::Camp8, 196, 512, 2304, &opts);
        println!("{mc:>6} {:>12}", r.stats.cycles);
    }

    println!("\n-- operand width: same problem, both CAMP modes, both cores --");
    println!("{:>10} {:>12} {:>12}", "core", "camp8 cyc", "camp4 cyc");
    for core in [CoreConfig::a64fx(), CoreConfig::edge_riscv()] {
        let opts = harness_options();
        let c8 = simulate_gemm(core, Method::Camp8, 256, 256, 1024, &opts);
        let c4 = simulate_gemm(core, Method::Camp4, 256, 256, 1024, &opts);
        println!("{:>10} {:>12} {:>12}", core.name, c8.stats.cycles, c4.stats.cycles);
    }
}
