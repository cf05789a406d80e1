//! Table 4: performance/efficiency comparison with state-of-the-art edge
//! designs on the reference convolution (input 16×16×32, filters
//! 64×3×3×32). Competitor rows are cited from the paper; the "This work"
//! row is measured on the edge-SoC simulator + energy/area models.

use camp_bench::{harness_options, header};
use camp_energy::{AreaModel, EnergyModel, TechNode};
use camp_gemm::{simulate_gemm, Method};
use camp_models::Conv2d;
use camp_pipeline::CoreConfig;

fn main() {
    header("Table 4", "Edge conv benchmark vs state of the art");
    let (conv, h, w) = Conv2d::table4_benchmark();
    let shape = conv.gemm_shape(h, w);
    println!("benchmark conv as GeMM: {shape} ({} MACs)", shape.macs());

    println!(
        "\n{:16} {:>10} {:>6} {:>8} {:>10} {:>12}   (cited rows from Table 4)",
        "architecture", "data", "tech", "area mm²", "GOPS", "TOPS/W"
    );
    for (name, data, tech, area, perf, eff) in [
        ("PULP-NN [25]", "8b/4b/2b", "-", "-", "0.6-0.2", "-"),
        ("Bruschi+ [13]", "8b/4b/2b", "-", "-", "6.1-2.4", "-"),
        ("Ottavi+ [46]", "8b/4b/2b", "22", "0.002", "1.1-3.3", "0.2-0.6"),
        ("XpulpNN [26]", "8b/4b/2b", "22", "8x0.04", "19.8-47.9", "0.7-1.1"),
        ("Mix-GEMM [51]", "8b-2b", "22", "0.0136", "4.2-7.9", "0.4-0.8"),
    ] {
        println!("{name:16} {data:>10} {tech:>6} {area:>8} {perf:>10} {eff:>12}");
    }

    // This work: measured.
    let opts = harness_options();
    let edge = CoreConfig::edge_riscv();
    let e = EnergyModel::edge_22nm();
    let area = AreaModel::paper().report(TechNode::gf22());
    let mut perf = Vec::new();
    let mut eff = Vec::new();
    for method in [Method::Camp8, Method::Camp4] {
        let r = simulate_gemm(edge, method, shape.m, shape.n, shape.k, &opts);
        let rep = e.evaluate(&r.stats);
        perf.push(rep.gops);
        eff.push(rep.gops_per_watt / 1000.0);
    }
    println!(
        "{:16} {:>10} {:>6} {:>8.4} {:>4.1}-{:<5.1} {:>6.2}-{:<5.2}   measured",
        "This work", "8b/4b", "22", area.mm2, perf[0], perf[1], eff[0], eff[1]
    );
    println!("\npaper row: area 0.0782, perf 12.6-21.7 GOPS, eff 0.2-0.3 TOPS/W");
    println!("paper §6.2 prose: conv 13/23 GOPS, 270/405 GOPS/W for 8-/4-bit");
}
