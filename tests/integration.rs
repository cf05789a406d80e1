//! Cross-crate integration tests: the full stack from workload models
//! through quantization, kernels, simulation and energy — engine paths
//! exercised through the unified `CampBackend` request surface.

use camp::core::backend::CampBackend;
use camp::core::{gemm_i32_ref, CampEngine, DType, GemmRequest, Operand};
use camp::energy::{AreaModel, EnergyModel, TechNode};
use camp::gemm::{simulate_gemm, GemmOptions, Method};
use camp::models::conv::{im2col, weights_to_b, Conv2d, Tensor3};
use camp::models::{cnn, Benchmark, LlmModel};
use camp::pipeline::CoreConfig;
use camp::quant::SymmetricQuantizer;

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

/// The golden result of one dense request.
fn reference(req: &GemmRequest) -> Vec<i32> {
    let Operand::Dense(b) = req.weights() else { panic!("dense request expected") };
    let (n, k) = (req.n().expect("dense n"), req.k().expect("dense k"));
    gemm_i32_ref(req.m(), n, k, req.activation(), b)
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

#[test]
fn attention_batch_cross_validates_for_all_llms() {
    // the per-head Fig. 14 attention inventory for every paper model,
    // built as typed requests, run as one batch and checked
    // element-for-element against the golden reference and the
    // per-request path; scaled to test runtime (one layer, short
    // sequence) with the real hidden size and head count so the
    // projection/score/context structure is intact
    for (i, model) in LlmModel::all().into_iter().enumerate() {
        let mut cfg = model.config();
        cfg.layers = 1;
        cfg.seq_len = 8;
        let workload = cfg.attention_workload(0xFEED + i as u64);
        let requests = workload.gemm_requests(DType::I8);
        assert_eq!(requests.len(), 4 + 2 * cfg.heads, "{}", model.name());
        let mut eng = CampEngine::with_threads(3);
        let batch = eng.execute_batch(&requests).expect("well-formed batch");
        let mut per_call = CampEngine::new();
        for (out, req) in batch.outputs.iter().zip(&requests) {
            let shape = format!("{} {}x{:?}x{:?}", model.name(), req.m(), req.n(), req.k());
            assert_eq!(out.c, reference(req), "{shape} vs reference");
            let solo = per_call.execute(req).expect("well-formed request");
            assert_eq!(out, &solo.output, "{shape} vs per-request");
        }
    }
}

#[test]
fn attention_batch_runs_under_the_i4_kernel() {
    // workload data is 4-bit quantized, so the same batch must be exact
    // under camp.s4 as well
    let mut cfg = LlmModel::BertBase.config();
    cfg.layers = 1;
    cfg.seq_len = 8;
    let workload = cfg.attention_workload(0xBEEF);
    let requests = workload.gemm_requests(DType::I4);
    let batch = CampEngine::with_threads(2).execute_batch(&requests).expect("well-formed batch");
    for (i, (out, req)) in batch.outputs.iter().zip(&requests).enumerate() {
        assert_eq!(out.c, reference(req), "request {i}");
    }
}

#[test]
fn registered_attention_weights_skip_all_b_packing() {
    // the serving acceptance criterion: with every B operand
    // pre-registered, batch calls move zero B-pack bytes — on the
    // first call and forever after — while staying bit-identical to
    // the golden reference
    let mut cfg = LlmModel::BertBase.config();
    cfg.layers = 1;
    cfg.seq_len = 8;
    let workload = cfg.attention_workload(0xCAFE);
    let mut eng = CampEngine::with_threads(3);
    let handles = workload.register(&mut eng, DType::I8);
    let by_handle = workload.gemm_requests_with_handles(&handles);
    let dense = workload.gemm_requests(DType::I8);

    let first = eng.execute_batch(&by_handle).expect("well-formed batch");
    let s1 = first.stats.as_host().expect("host stats");
    assert_eq!(s1.packed_b_bytes, 0, "registered weights must never pack B");
    for (i, (out, req)) in first.outputs.iter().zip(&dense).enumerate() {
        assert_eq!(out.c, reference(req), "request {i}");
    }
    let warm_allocs = eng.pack_allocations();
    for _ in 0..3 {
        let again = eng.execute_batch(&by_handle).expect("well-formed batch");
        assert_eq!(again.outputs, first.outputs);
        let s = again.stats.as_host().expect("host stats");
        assert_eq!(s.packed_b_bytes, 0, "steady state must not pack B");
    }
    assert_eq!(eng.pack_allocations(), warm_allocs, "steady state must not allocate");
}

#[test]
fn serving_session_streams_attention_batches_bit_identically() {
    // register once, stream several batches through submit/poll with
    // all of them in flight, and compare against the golden reference
    let mut cfg = LlmModel::BertBase.config();
    cfg.layers = 1;
    cfg.seq_len = 8;
    let workload = cfg.attention_workload(0xD15C0);
    let dense = workload.gemm_requests(DType::I8);
    let mut eng = CampEngine::with_threads(2);
    let handles = workload.register(&mut eng, DType::I8);
    let requests = workload.gemm_requests_with_handles(&handles);
    let dispatcher = eng.dispatch();
    let mut session = dispatcher.session();
    let tickets: Vec<_> =
        (0..3).map(|_| session.submit(requests.clone()).expect("validated")).collect();
    for ticket in tickets {
        let outcome = session.wait(ticket).expect("batch completes");
        let stats = outcome.stats.as_host().expect("host session");
        assert_eq!(stats.packed_b_bytes, 0, "sessions never pack B for handles");
        for (i, (out, req)) in outcome.outputs.iter().zip(&dense).enumerate() {
            assert_eq!(out.c, reference(req), "request {i}");
        }
    }
    // the engine comes back warm and usable
    drop(session);
    let mut eng = dispatcher.into_backend();
    assert_eq!(eng.execute(&dense[0]).unwrap().output.c, reference(&dense[0]));
}

#[test]
fn mixed_dtype_attention_batch_cross_validates() {
    // one batch carrying both kernels: the i4-registered half and the
    // i8 dense half must each match the golden reference (workload
    // data is 4-bit, so both kernels are exact)
    let mut cfg = LlmModel::Gpt3Small.config();
    cfg.layers = 1;
    cfg.seq_len = 8;
    let workload = cfg.attention_workload(0x7A1D);
    let mut eng = CampEngine::with_threads(2);
    let handles = workload.register(&mut eng, DType::I4);
    let by_handle = workload.gemm_requests_with_handles(&handles);
    let dense = workload.gemm_requests(DType::I8);
    let mixed: Vec<GemmRequest> = by_handle
        .iter()
        .zip(&dense)
        .enumerate()
        .map(|(i, (h, d))| if i % 2 == 0 { h.clone() } else { d.clone() })
        .collect();
    let batch = eng.execute_batch(&mixed).expect("well-formed batch");
    for (i, (out, req)) in batch.outputs.iter().zip(&dense).enumerate() {
        assert_eq!(out.c, reference(req), "request {i}");
    }
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
