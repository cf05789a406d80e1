//! Inference parity: the acceptance property of `camp-infer`.
//!
//! One prompt → prefill → N KV-cached decode steps must produce the
//! same token stream (1) on the host `CampEngine`, (2) on the
//! cycle-accurate `SimBackend`, (3) through a `Dispatcher` tenant, and
//! (4) on the pure `gemm_i32_ref` executor — with every layer's GeMM
//! output cross-validated against the reference as it happens
//! (`CheckedExec`). Plus the KV-cache property itself: each decode
//! step is bit-identical to recomputing the full sequence from
//! scratch.

use std::sync::Arc;

use camp::core::backend::{CampBackend, SimBackend};
use camp::core::CampEngine;
use camp::infer::{
    BackendExec, CheckedExec, GemmExec, InferContext, InferSession, KvCache, KvPolicy, Model,
    RefExec,
};
use camp::models::TransformerConfig;
use camp::pipeline::CoreConfig;
use proptest::prelude::*;

/// A roomy cache for `cfg` (parity needs no evictions).
fn ample_kv(cfg: TransformerConfig, rows: usize) -> KvCache {
    KvCache::new(cfg.layers, cfg.hidden, rows, KvPolicy::Reject)
}

/// Prefill + `steps` decodes with `exec`, returning the token stream.
fn stream(
    model: &Model,
    exec: &mut dyn GemmExec,
    prompt: &[u32],
    steps: usize,
    rows: usize,
) -> Vec<u32> {
    let mut ctx = InferContext::new(ample_kv(model.config(), rows));
    let t = ctx.prefill_with(model, exec, prompt).expect("prefill");
    let mut out = vec![t.first];
    for _ in 0..steps {
        out.push(ctx.decode_with(model, exec).expect("decode"));
    }
    out
}

proptest! {
    // each case runs several full forward passes on the cycle-accurate
    // simulator, so few cases with small models
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn kv_cached_decode_is_bit_identical_on_both_backends(
        seed in any::<u32>(),
        heads in 1usize..3,
        layers in 1usize..3,
        prompt_len in 1usize..4,
        steps in 1usize..3,
    ) {
        let cfg = TransformerConfig {
            hidden: 4 * heads,
            ff_dim: 8,
            heads,
            layers,
            seq_len: 16,
        };
        let vocab = 24;
        let model = Model::new(cfg, vocab, u64::from(seed));
        let prompt: Vec<u32> =
            (0..prompt_len).map(|i| (seed >> i) % vocab as u32).collect();
        let rows = prompt_len + steps;

        // ground truth: the pure reference executor
        let expect = stream(&model, &mut RefExec::new(&model), &prompt, steps, rows);

        // host engine, every layer's GeMM checked against gemm_i32_ref
        let mut engine = CampEngine::new();
        let eng_handles = model.register(&mut engine);
        let mut checked = CheckedExec::new(&model, BackendExec::new(&mut engine, &eng_handles));
        prop_assert_eq!(&stream(&model, &mut checked, &prompt, steps, rows), &expect);

        // cycle-accurate simulator, same per-layer check
        let mut sim = SimBackend::new(CoreConfig::a64fx());
        let sim_handles = model.register(&mut sim);
        let mut checked = CheckedExec::new(&model, BackendExec::new(&mut sim, &sim_handles));
        prop_assert_eq!(&stream(&model, &mut checked, &prompt, steps, rows), &expect);

        // KV-cache property: every decode step equals recomputing the
        // whole sequence from scratch (prompt + tokens served so far)
        for i in 0..steps {
            let mut full: Vec<u32> = prompt.clone();
            full.extend(&expect[..=i]);
            let mut ctx = InferContext::new(ample_kv(cfg, full.len()));
            let recomputed = ctx
                .prefill_with(&model, &mut RefExec::new(&model), &full)
                .expect("recompute");
            prop_assert_eq!(recomputed.first, expect[i + 1],
                "decode step {} diverged from full recompute", i);
        }
    }
}

/// The serving path: ≥2 concurrent `InferSession`s sharing one engine
/// through the dispatcher must each reproduce the reference stream of
/// their own prompt, even when their decode steps interleave.
#[test]
fn interleaved_dispatcher_sessions_match_the_reference() {
    let cfg = TransformerConfig { hidden: 8, ff_dim: 16, heads: 2, layers: 2, seq_len: 32 };
    let model = Arc::new(Model::new(cfg, 24, 2024));
    let mut engine = CampEngine::new();
    let handles = Arc::new(model.register(&mut engine));
    let dispatcher = engine.dispatch();

    let prompts: [&[u32]; 3] = [&[1, 2, 3], &[4, 5], &[6, 7, 8, 9]];
    let mut sessions: Vec<InferSession<CampEngine>> = prompts
        .iter()
        .map(|_| InferSession::new(&dispatcher, Arc::clone(&model), Arc::clone(&handles)))
        .collect();
    let mut streams: Vec<Vec<u32>> = Vec::new();
    for (s, p) in sessions.iter_mut().zip(prompts) {
        streams.push(vec![s.prefill(p).expect("prefill").first]);
    }
    // round-robin decode so the dispatcher interleaves the tenants
    for _ in 0..4 {
        for (s, st) in sessions.iter_mut().zip(&mut streams) {
            st.push(s.decode_step().expect("decode"));
        }
    }
    for (p, st) in prompts.iter().zip(&streams) {
        let expect = stream(&model, &mut RefExec::new(&model), p, 4, p.len() + 4);
        assert_eq!(st, &expect, "session with prompt {p:?} diverged under interleaving");
    }
}

/// Every case above compares executors that share `forward()`'s glue
/// (and the benchmark's golden streams come from `RefExec` through it
/// too), so a rounding change in the glue moves both sides together.
/// These streams are literals recorded before PR 24 rewrote the glue:
/// a change that moves one changed what the model computes.
#[test]
fn the_glue_serves_the_recorded_streams() {
    let cfg = TransformerConfig { hidden: 32, ff_dim: 64, heads: 4, layers: 3, seq_len: 64 };
    let model = Model::new(cfg, 64, 9);
    let got = stream(&model, &mut RefExec::new(&model), &[7, 21, 42, 3], 10, 64);
    assert_eq!(got, [11, 20, 19, 4, 56, 19, 20, 11, 46, 35, 33]);

    // the benchmark's host model; a 40-token prompt gives the causal
    // row prefixes every vector-tail width
    let cfg = TransformerConfig { hidden: 256, ff_dim: 1024, heads: 4, layers: 4, seq_len: 256 };
    let model = Model::new(cfg, 256, 7);
    let prompt: Vec<u32> = (0..40u32).map(|i| (i * 37 + 11) % 256).collect();
    let got = stream(&model, &mut RefExec::new(&model), &prompt, 10, 256);
    assert_eq!(got, [153, 200, 255, 198, 48, 230, 72, 72, 37, 238, 86]);
}
