//! Fig. 11 / §6.1: CAMP block area and overhead vs the A64FX core
//! (TSMC 7 nm) and the Sargantana SoC (GF 22FDX), from the analytic
//! gate model.

use camp_bench::header;
use camp_energy::{AreaModel, TechNode};

pub fn main() {
    header("Fig. 11 / §6.1", "CAMP physical design: area and overhead");
    let model = AreaModel::paper();
    println!("gate inventory: {:.0} NAND2-equivalents", model.gates());
    println!();
    println!("{:12} {:>12} {:>12} {:>24}", "node", "area mm²", "overhead", "paper");
    for (node, paper_mm2, paper_ovh) in
        [(TechNode::tsmc7(), 0.027263, "1% of A64FX core"), (TechNode::gf22(), 0.0782, "4% of SoC")]
    {
        let r = model.report(node);
        println!(
            "{:12} {:>12.4} {:>11.1}% {:>14.4} mm², {}",
            node.name, r.mm2, r.overhead_pct, paper_mm2, paper_ovh
        );
    }
}
