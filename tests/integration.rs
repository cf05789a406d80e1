//! Cross-crate integration tests: the full stack from workload models
//! through quantization, kernels, simulation and energy — engine paths
//! exercised through the unified `CampBackend` request surface.

use camp::core::backend::CampBackend;
use camp::core::{gemm_i32_ref, CampEngine, DType, GemmRequest, Operand};
use camp::energy::{AreaModel, EnergyModel, TechNode};
use camp::gemm::{simulate_gemm, GemmOptions, Method};
use camp::infer::{BackendExec, CheckedExec, GemmExec, InferContext, InferSession, Model, RefExec};
use camp::models::conv::{im2col, weights_to_b, Conv2d, Tensor3};
use camp::models::{cnn, Benchmark, LlmModel};
use camp::pipeline::CoreConfig;
use camp::quant::SymmetricQuantizer;
use std::sync::Arc;

fn small_opts() -> GemmOptions {
    GemmOptions { mac_budget: 3_000_000, ..GemmOptions::default() }
}

/// One dense request through the host engine.
fn host_gemm(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], dtype: DType) -> Vec<i32> {
    let req = GemmRequest::builder()
        .m(m)
        .n(n)
        .k(k)
        .activation(a.to_vec())
        .weights(Operand::from_dense(b.to_vec()))
        .dtype(dtype)
        .build()
        .expect("well-formed request");
    CampEngine::new().execute(&req).expect("host execution").output.c
}

#[test]
fn quantize_then_camp_gemm_tracks_float() {
    let (m, n, k) = (16, 16, 64);
    let a_f: Vec<f32> = (0..m * k).map(|i| ((i as f32) * 0.11).sin()).collect();
    let b_f: Vec<f32> = (0..k * n).map(|i| ((i as f32) * 0.07).cos()).collect();
    let qa = SymmetricQuantizer::fit(&a_f, 8);
    let qb = SymmetricQuantizer::fit(&b_f, 8);
    let c = host_gemm(m, n, k, &qa.quantize_all(&a_f), &qb.quantize_all(&b_f), DType::I8);
    // spot-check one element against the float product
    let mut want = 0.0f32;
    for l in 0..k {
        want += a_f[5 * k + l] * b_f[l * n + 3];
    }
    let got = c[5 * n + 3] as f32 * qa.scale * qb.scale;
    assert!((want - got).abs() < 0.05, "{want} vs {got}");
}

#[test]
fn conv_layer_through_camp_engine() {
    let conv = Conv2d { in_channels: 4, out_channels: 8, kernel: 3, stride: 1, padding: 1 };
    let mut input = Tensor3::zeros(4, 6, 6);
    for (i, v) in input.data.iter_mut().enumerate() {
        *v = ((i * 3) % 13) as i8 - 6;
    }
    let weights: Vec<i8> = (0..8 * 4 * 9).map(|i| ((i * 7) % 15) as i8 - 7).collect();
    let a = im2col(&conv, &input);
    let b = weights_to_b(&conv, &weights);
    let s = conv.gemm_shape(6, 6);
    let via_camp = host_gemm(s.m, s.n, s.k, &a, &b, DType::I8);
    assert_eq!(via_camp, gemm_i32_ref(s.m, s.n, s.k, &a, &b));
}

#[test]
fn camp4_engine_matches_reference_on_4bit_data() {
    let (m, n, k) = (12, 20, 64);
    let a: Vec<i8> = (0..m * k).map(|i| (i % 16) as i8 - 8).collect();
    let b: Vec<i8> = (0..k * n).map(|i| (i % 15) as i8 - 7).collect();
    assert_eq!(host_gemm(m, n, k, &a, &b, DType::I4), gemm_i32_ref(m, n, k, &a, &b));
}

#[test]
fn simulated_camp_beats_baseline_on_table3_layer() {
    // A small-but-real Table 3 layer (MobileNet #5 clamped).
    let shape = cnn::layers(Benchmark::MobileNet)[4];
    let opts = small_opts();
    let camp = simulate_gemm(CoreConfig::a64fx(), Method::Camp8, shape.m, shape.n, shape.k, &opts);
    let base =
        simulate_gemm(CoreConfig::a64fx(), Method::OpenblasF32, shape.m, shape.n, shape.k, &opts);
    assert!(camp.correct && base.correct);
    assert!(camp.stats.cycles < base.stats.cycles);
    assert!(camp.stats.insts < base.stats.insts);
}

#[test]
fn llm_shape_simulates_and_wins() {
    let shape = LlmModel::BertBase.config().sa_shape();
    let opts = small_opts();
    let camp = simulate_gemm(CoreConfig::a64fx(), Method::Camp4, shape.m, shape.n, shape.k, &opts);
    let base =
        simulate_gemm(CoreConfig::a64fx(), Method::OpenblasF32, shape.m, shape.n, shape.k, &opts);
    assert!(camp.correct);
    assert!(camp.stats.cycles * 2 < base.stats.cycles, "CAMP-4bit should be >2x here");
}

/// Prefill `prompt`, then `steps` KV-cached decode steps, with `exec`.
fn token_stream(model: &Model, exec: &mut dyn GemmExec, prompt: &[u32], steps: usize) -> Vec<u32> {
    let mut ctx = InferContext::for_model(model);
    let mut out = vec![ctx.prefill_with(model, exec, prompt).expect("prefill").first];
    for _ in 0..steps {
        out.push(ctx.decode_with(model, exec).expect("decode"));
    }
    out
}

/// `model` at its real hidden size and head count, one layer and
/// ff_dim = hidden (to bound test time), serves a 12-token prompt —
/// prefill GeMMs take the blocked route — then two decode steps on the
/// skinny-m route (attention K/V read dense in place): on the engine,
/// every GeMM checked against `gemm_i32_ref` as it runs, and through a
/// dispatcher, both must stream `RefExec`'s tokens.
fn serves_the_reference_stream(model: LlmModel) {
    let mut cfg = model.config();
    cfg.layers = 1;
    cfg.ff_dim = cfg.hidden;
    let m = Arc::new(Model::new(cfg, 64, 0xFEED));
    let prompt: Vec<u32> = (0..12).map(|i| (7 * i + 3) % 64).collect();
    let want = token_stream(&m, &mut RefExec::new(&m), &prompt, 2);

    let mut engine = CampEngine::with_threads(3);
    let handles = Arc::new(m.register(&mut engine));
    let mut checked = CheckedExec::new(&m, BackendExec::new(&mut engine, &handles));
    assert_eq!(token_stream(&m, &mut checked, &prompt, 2), want, "{} on the engine", model.name());

    let dispatcher = engine.dispatch();
    let mut session = InferSession::new(&dispatcher, Arc::clone(&m), handles);
    let mut got = vec![session.prefill(&prompt).expect("prefill").first];
    got.extend(session.generate(2).expect("decode"));
    assert_eq!(got, want, "{} through the dispatcher", model.name());
}

#[test]
fn every_llm_serves_the_reference_stream_on_the_engine_and_the_dispatcher() {
    // one model per thread: the debug reference GeMMs dominate the time
    std::thread::scope(|s| {
        for model in LlmModel::all() {
            s.spawn(move || serves_the_reference_stream(model));
        }
    });
}

#[test]
fn session_requests_flow_through_the_facade() {
    // minimal end-to-end serving round trip via the facade crate's
    // re-exports (what a downstream user would write)
    let (n, k, m) = (16, 24, 5);
    let w: Vec<i8> = (0..k * n).map(|i| (i % 15) as i8 - 7).collect();
    let a: Vec<i8> = (0..m * k).map(|i| (i % 13) as i8 - 6).collect();
    let mut eng = CampEngine::with_threads(2);
    let h = eng.register_weights(n, k, &w, DType::I8);
    let dispatcher = eng.dispatch();
    let mut session = dispatcher.session();
    let req = GemmRequest::with_weights(m, a.clone(), h).unwrap();
    let t = session.submit(vec![req]).unwrap();
    assert_eq!(session.wait(t).unwrap().outputs[0].c, gemm_i32_ref(m, n, k, &a, &w));
}

#[test]
fn energy_model_reports_camp_saving_energy() {
    let opts = small_opts();
    let model = EnergyModel::a64fx_7nm();
    let camp = simulate_gemm(CoreConfig::a64fx(), Method::Camp8, 128, 128, 512, &opts);
    let base = simulate_gemm(CoreConfig::a64fx(), Method::OpenblasF32, 128, 128, 512, &opts);
    let e_camp = model.evaluate(&camp.stats);
    let e_base = model.evaluate(&base.stats);
    assert!(
        e_camp.total_pj < 0.6 * e_base.total_pj,
        "CAMP energy {} vs baseline {}",
        e_camp.total_pj,
        e_base.total_pj
    );
}

#[test]
fn area_model_matches_paper_envelope() {
    let m = AreaModel::paper();
    let r7 = m.report(TechNode::tsmc7());
    let r22 = m.report(TechNode::gf22());
    assert!(r7.overhead_pct < 2.0);
    assert!(r22.overhead_pct < 6.0);
    assert!(r22.mm2 > r7.mm2, "older node must be bigger");
}

#[test]
fn edge_core_is_slower_but_consistent() {
    let opts = small_opts();
    let a64 = simulate_gemm(CoreConfig::a64fx(), Method::Camp8, 64, 64, 256, &opts);
    let edge = simulate_gemm(CoreConfig::edge_riscv(), Method::Camp8, 64, 64, 256, &opts);
    assert!(a64.correct && edge.correct);
    assert!(edge.stats.cycles > a64.stats.cycles, "edge core should need more cycles");
}

#[test]
fn instruction_reduction_holds_across_every_method() {
    // CAMP must use fewer vector instructions than every baseline on the
    // same problem (the Fig. 17 claim).
    let opts = small_opts();
    let camp = simulate_gemm(CoreConfig::a64fx(), Method::Camp8, 64, 128, 256, &opts);
    for m in [Method::HandvInt8, Method::Gemmlowp, Method::HandvInt32, Method::OpenblasF32] {
        let r = simulate_gemm(CoreConfig::a64fx(), m, 64, 128, 256, &opts);
        assert!(
            camp.stats.vector_insts() < r.stats.vector_insts(),
            "CAMP vector insts {} not below {} ({})",
            camp.stats.vector_insts(),
            r.stats.vector_insts(),
            m.name()
        );
    }
}
