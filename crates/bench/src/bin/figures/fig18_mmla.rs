//! Fig. 18: CAMP vs Arm MMLA (`smmla`) vs OpenBLAS on square matrix
//! multiplication, normalized to OpenBLAS (size indices 3–6 of the SMM
//! suite: 128, 256, 512, 1024).

use camp_bench::{header, run};
use camp_gemm::Method;
use camp_models::GemmShape;
use camp_pipeline::CoreConfig;

pub fn main() {
    header("Fig. 18", "CAMP vs MMLA vs OpenBLAS (SMM, normalized to OpenBLAS)");
    println!(
        "{:>6} {:>10} {:>10} {:>10}   paper: camp4 8.2-17.4x, camp8 4.9-8.5x, MMLA 2.2-2.7x",
        "size", "CAMP-4bit", "CAMP-8bit", "MMLA"
    );
    for &s in &[128usize, 256, 512, 1024] {
        let shape = GemmShape::new(s, s, s);
        let base = run(CoreConfig::a64fx(), Method::OpenblasF32, shape);
        let c4 = run(CoreConfig::a64fx(), Method::Camp4, shape);
        let c8 = run(CoreConfig::a64fx(), Method::Camp8, shape);
        let mm = run(CoreConfig::a64fx(), Method::Mmla, shape);
        let b = base.stats.cycles as f64;
        println!(
            "{:>6} {:>9.1}x {:>9.1}x {:>9.1}x",
            s,
            b / c4.stats.cycles as f64,
            b / c8.stats.cycles as f64,
            b / mm.stats.cycles as f64
        );
    }
    println!("\n(CAMP's advantage grows with size while MMLA's register pressure");
    println!(" limits it — the §7.2 observation.)");
}
