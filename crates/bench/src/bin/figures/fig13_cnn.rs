//! Fig. 13: per-layer normalized speedup (higher is better) and
//! instruction count (lower is better) for the CNN benchmarks, with
//! OpenBLAS-SGEMM on the A64FX-like core as the baseline.

use camp_bench::{fig13_methods, header, run};
use camp_gemm::Method;
use camp_models::{cnn, Benchmark};
use camp_pipeline::CoreConfig;

pub fn main() {
    header("Fig. 13", "CNN per-layer speedup + instruction-count ratio (vs OpenBLAS)");
    let methods = fig13_methods();
    print!("{:10} {:>5}", "bench", "layer");
    for m in methods {
        print!(" {:>12}", m.name());
    }
    println!();
    println!("paper avgs: CAMP-4bit up to 11–17x, CAMP-8bit ~2x handv-int8, gemmlowp 1.5–2x");

    for bench in [Benchmark::AlexNet, Benchmark::ResNet, Benchmark::MobileNet, Benchmark::Vgg] {
        let layers = cnn::layers(bench);
        let mut sums = vec![(0.0f64, 0.0f64); methods.len()];
        for (li, &shape) in layers.iter().enumerate() {
            let base = run(CoreConfig::a64fx(), Method::OpenblasF32, shape);
            print!("{:10} {:>5}", bench.name(), li + 1);
            for (mi, &m) in methods.iter().enumerate() {
                let r = run(CoreConfig::a64fx(), m, shape);
                let spd = base.stats.cycles as f64 / r.stats.cycles as f64;
                let ic = r.stats.insts as f64 / base.stats.insts as f64;
                sums[mi].0 += spd;
                sums[mi].1 += ic;
                print!(" {:>6.2}/{:<5.2}", spd, ic);
            }
            println!();
        }
        print!("{:10} {:>5}", bench.name(), "Avg");
        for (mi, _) in methods.iter().enumerate() {
            print!(
                " {:>6.2}/{:<5.2}",
                sums[mi].0 / layers.len() as f64,
                sums[mi].1 / layers.len() as f64
            );
        }
        println!();
        println!();
    }
    println!("(each cell: speedup/IC-ratio)");
}
