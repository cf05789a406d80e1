//! Fig. 14: normalized speedup and instruction count for the LLM
//! benchmarks (feed-forward and self-attention layers), vs OpenBLAS on
//! the A64FX-like core.
//!
//! The two CAMP rows run through the unified backend API: each layer
//! shape is built once as a typed `GemmRequest` (synthetic quantized
//! operands) and executed on a `SimBackend` — the same surface the
//! host engine serves — with the harness MAC budget as the backend's
//! clamp. The four non-camp baselines have no dtype on the request
//! surface (they are method-level ISA baselines), so they run through
//! the classic `camp_bench::run` path; both paths report the single-core
//! stats frame, so ratios are apples-to-apples.

use camp_bench::{fig13_methods, header, mac_budget, run};
use camp_core::backend::{CampBackend, SimBackend};
use camp_core::{DType, GemmRequest};
use camp_gemm::reference::SplitMix64;
use camp_gemm::Method;
use camp_models::{GemmShape, LlmModel};
use camp_pipeline::{CoreConfig, SimStats};

/// Simulate one layer shape under `method`, routing the camp kernels
/// through the request/backend surface.
fn run_method(backend: &mut SimBackend, method: Method, shape: GemmShape) -> SimStats {
    let dtype = match method {
        Method::Camp8 => Some(DType::I8),
        Method::Camp4 => Some(DType::I4),
        _ => None,
    };
    match dtype {
        Some(dtype) => {
            let mut rng = SplitMix64::new(0xF16_14C0);
            let a = rng.i8_vec(shape.m * shape.k, -8, 7);
            let b = rng.i8_vec(shape.k * shape.n, -8, 7);
            let req = GemmRequest::builder()
                .m(shape.m)
                .n(shape.n)
                .k(shape.k)
                .activation(a)
                .weights(camp_core::Operand::from_dense(b))
                .dtype(dtype)
                .build()
                .expect("layer shapes are coherent");
            let outcome = backend.execute(&req).expect("simulated execution");
            *outcome.stats.as_sim().expect("sim backend reports sim stats")
        }
        None => run(CoreConfig::a64fx(), method, shape).stats,
    }
}

fn main() {
    header("Fig. 14", "LLM FF/SA speedup + instruction-count ratio (vs OpenBLAS)");
    let mut backend = SimBackend::new(CoreConfig::a64fx()).with_mac_budget(mac_budget());
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
                let stats = run_method(&mut backend, m, shape);
                print!(
                    " {:>6.2}/{:<5.2}",
                    base.stats.cycles as f64 / stats.cycles as f64,
                    stats.insts as f64 / base.stats.insts as f64
                );
            }
            println!();
        }
    }
    println!("(each cell: speedup/IC-ratio; CAMP rows via the unified GemmRequest backend)");
}
