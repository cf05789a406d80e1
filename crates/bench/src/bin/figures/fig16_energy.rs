//! Fig. 16: normalized energy of 8-bit and 4-bit CAMP across the
//! benchmarks, relative to the A64FX baseline (OpenBLAS) at 100 %.

use camp_bench::{header, median_layer, run};
use camp_energy::EnergyModel;
use camp_gemm::Method;
use camp_models::{Benchmark, GemmShape, LlmModel};
use camp_pipeline::CoreConfig;

pub fn main() {
    header("Fig. 16", "Normalized energy of CAMP vs the A64FX baseline (=100%)");
    let model = EnergyModel::a64fx_7nm();
    println!(
        "{:12} {:>12} {:>12}   paper: 10-30% (over 80% reduction)",
        "benchmark", "8-bit CAMP", "4-bit CAMP"
    );

    let mut cases: Vec<(String, GemmShape)> = vec![("SMM".into(), GemmShape::new(512, 512, 512))];
    for b in [Benchmark::AlexNet, Benchmark::MobileNet, Benchmark::ResNet, Benchmark::Vgg] {
        cases.push((b.name().into(), median_layer(b)));
    }
    for m in LlmModel::all() {
        cases.push((m.name().into(), m.config().ff_shape()));
    }

    for (name, shape) in cases {
        let base = run(CoreConfig::a64fx(), Method::OpenblasF32, shape);
        let e_base = model.evaluate(&base.stats).total_pj;
        let c8 = model.evaluate(&run(CoreConfig::a64fx(), Method::Camp8, shape).stats).total_pj;
        let c4 = model.evaluate(&run(CoreConfig::a64fx(), Method::Camp4, shape).stats).total_pj;
        println!("{:12} {:>11.1}% {:>11.1}%", name, 100.0 * c8 / e_base, 100.0 * c4 / e_base);
    }
}
