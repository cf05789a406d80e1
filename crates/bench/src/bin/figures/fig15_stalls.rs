//! Fig. 15: CAMP functional-unit busy rate and the proportion of stalls
//! by cause (Functional Unit / Read / Write) across the CNN-layer GeMMs,
//! sorted by operation count.

use camp_bench::{header, run};
use camp_gemm::Method;
use camp_models::cnn;
use camp_pipeline::{CoreConfig, FuKind};

pub fn main() {
    header("Fig. 15", "CAMP FU busy rate + stall breakdown (A64FX core)");
    println!(
        "{:>9} {:>10} {:>8} {:>8} {:>8}   paper: busy 0.07-0.22, stalls write-heavy",
        "GOPs", "CAMP busy", "FU%", "Read%", "Write%"
    );
    let mut busy_sum = 0.0;
    let mut n = 0;
    for shape in cnn::all_cnn_layers() {
        let r = run(CoreConfig::a64fx(), Method::Camp8, shape);
        let busy = r.stats.fu_busy_rate(FuKind::Camp, 1);
        let (f, rd, w) = r.stats.stall_proportions();
        busy_sum += busy;
        n += 1;
        println!(
            "{:>9.2} {:>10.2} {:>7.0}% {:>7.0}% {:>7.0}%",
            shape.ops() as f64 / 1e9,
            busy,
            100.0 * f,
            100.0 * rd,
            100.0 * w
        );
    }
    println!(
        "\naverage CAMP busy rate: {:.2} (paper: <0.10–0.22 across operations)",
        busy_sum / n as f64
    );
}
