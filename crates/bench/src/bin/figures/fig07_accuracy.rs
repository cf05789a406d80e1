//! Fig. 7: model accuracy vs weight/input bit-width.
//!
//! Substitution experiment (see `docs/SIMULATOR.md`, "Idealizations and
//! substitutions"): a pure-Rust MLP on a
//! synthetic classification task, post-training-quantized at every
//! (weight, input) bit-width pair. The paper's claim being reproduced:
//! accuracy is roughly flat down to 4 bits and collapses below, which
//! justifies the 4-bit building block.

use camp_bench::header;
use camp_quant::{run_accuracy_grid, StudyConfig};

pub fn main() {
    header("Fig. 7", "Accuracy vs weight/input bit-width (synthetic-MLP substitution)");
    let grid = run_accuracy_grid(&StudyConfig::default());
    println!("fp32 test accuracy: {:.1}%", 100.0 * grid.fp32_accuracy);
    println!("\n{:>10} | input bits 2..8", "wt bits");
    print!("{:>10} |", "");
    for ib in 2..=8 {
        print!("{ib:>7}");
    }
    println!();
    for wb in 2..=8u32 {
        print!("{wb:>10} |");
        for ib in 2..=8u32 {
            print!("{:>6.1}%", 100.0 * grid.at(wb, ib));
        }
        println!();
    }
    println!("\npaper shape: flat down to 4 bits, significant degradation below 4.");
    let flat = grid.at(4, 4) > grid.fp32_accuracy - 0.12;
    let cliff = grid.at(2, 2) < grid.at(4, 4);
    println!("measured: 4-bit within 12pp of fp32: {flat}; 2-bit below 4-bit: {cliff}");
}
