//! Fig. 17: heatmap of the percentage of vector instructions the CAMP
//! implementation needs relative to handv-int8 and gemmlowp, split into
//! reads (R), writes (W) and arithmetic (Alu). Lower is better.

use camp_bench::{header, run};
use camp_gemm::Method;
use camp_models::{cnn, Benchmark, GemmShape, LlmModel};
use camp_pipeline::CoreConfig;

fn pct(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        100.0 * a as f64 / b as f64
    }
}

fn median_shape(b: Benchmark) -> GemmShape {
    let mut ls = cnn::layers(b);
    ls.sort_by_key(|s| s.ops());
    ls[ls.len() / 2]
}

fn main() {
    header("Fig. 17", "CAMP vector instructions as % of handv-int8 / gemmlowp");
    println!(
        "{:14} {:>8} {:>8} {:>9} {:>8} {:>8} {:>9}   paper: 10-47%",
        "benchmark", "R-hnd8", "W-hnd8", "Alu-hnd8", "R-lowp", "W-lowp", "Alu-lowp"
    );

    let mut cases: Vec<(String, GemmShape)> = vec![
        ("AlexNet".into(), median_shape(Benchmark::AlexNet)),
        ("SMM".into(), GemmShape::new(512, 512, 512)),
        ("MobileNet".into(), median_shape(Benchmark::MobileNet)),
        ("ResNet".into(), median_shape(Benchmark::ResNet)),
        ("VGG".into(), median_shape(Benchmark::Vgg)),
    ];
    for m in LlmModel::all() {
        cases.push((format!("{} FF", m.name()), m.config().ff_shape()));
        cases.push((format!("{} SA", m.name()), m.config().sa_shape()));
    }

    for (name, shape) in cases {
        let camp = run(CoreConfig::a64fx(), Method::Camp8, shape);
        let hnd8 = run(CoreConfig::a64fx(), Method::HandvInt8, shape);
        let lowp = run(CoreConfig::a64fx(), Method::Gemmlowp, shape);
        println!(
            "{:14} {:>7.1}% {:>7.1}% {:>8.1}% {:>7.1}% {:>7.1}% {:>8.1}%",
            name,
            pct(camp.stats.vector_reads(), hnd8.stats.vector_reads()),
            pct(camp.stats.vector_writes(), hnd8.stats.vector_writes()),
            pct(camp.stats.vector_alu(), hnd8.stats.vector_alu()),
            pct(camp.stats.vector_reads(), lowp.stats.vector_reads()),
            pct(camp.stats.vector_writes(), lowp.stats.vector_writes()),
            pct(camp.stats.vector_alu(), lowp.stats.vector_alu()),
        );
    }
}
