//! Fig. 4: functional-unit busy rate of the vector baselines (ulmBLAS
//! hand-vectorized vs gemmlowp) across the CNN-layer GeMMs, sorted by
//! operation count — the "inadequate number of functional units"
//! motivation (§2.3).

use camp_bench::{header, run};
use camp_gemm::Method;
use camp_models::cnn;
use camp_pipeline::{CoreConfig, FuKind};

pub fn main() {
    header("Fig. 4", "Baseline vector-FU busy rate vs #operations (A64FX core)");
    println!(
        "{:>10} {:>14} {:>14}   paper: both >0.9 on compute-bound layers",
        "GOPs", "ulmBLAS busy", "gemmlowp busy"
    );
    for shape in cnn::all_cnn_layers() {
        let ulm = run(CoreConfig::a64fx(), Method::HandvInt8, shape);
        let lowp = run(CoreConfig::a64fx(), Method::Gemmlowp, shape);
        // vector arithmetic pipes (2 per core): MUL class carries the MACs
        let b1 = ulm.stats.fu_busy_rate(FuKind::VMul, 2) + ulm.stats.fu_busy_rate(FuKind::VAlu, 2);
        let b2 =
            lowp.stats.fu_busy_rate(FuKind::VMul, 2) + lowp.stats.fu_busy_rate(FuKind::VAlu, 2);
        println!("{:>10.2} {:>14.2} {:>14.2}", shape.ops() as f64 / 1e9, b1.min(1.0), b2.min(1.0));
    }
}
