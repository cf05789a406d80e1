//! Fig. 14: normalized speedup and instruction count for the LLM
//! benchmarks (feed-forward and self-attention layers), vs OpenBLAS on
//! the A64FX-like core.

use camp_bench::{fig13_methods, header, run};
use camp_gemm::Method;
use camp_models::LlmModel;
use camp_pipeline::CoreConfig;

pub fn main() {
    header("Fig. 14", "LLM FF/SA speedup + instruction-count ratio (vs OpenBLAS)");
    let methods = fig13_methods();
    print!("{:12} {:>5}", "model", "layer");
    for m in methods {
        print!(" {:>12}", m.name());
    }
    println!();
    println!("paper: CAMP-4bit up to 15x over OpenBLAS across layers");

    for model in LlmModel::all() {
        let cfg = model.config();
        for (tag, shape) in [("FF", cfg.ff_shape()), ("SA", cfg.sa_shape())] {
            let base = run(CoreConfig::a64fx(), Method::OpenblasF32, shape);
            print!("{:12} {:>5}", model.name(), tag);
            for &m in &methods {
                let stats = run(CoreConfig::a64fx(), m, shape).stats;
                print!(
                    " {:>6.2}/{:<5.2}",
                    base.stats.cycles as f64 / stats.cycles as f64,
                    stats.insts as f64 / base.stats.insts as f64
                );
            }
            println!();
        }
    }
    println!("(each cell: speedup/IC-ratio)");
}
