//! End-to-end LLM serving sweep: N concurrent `InferSession` tenants
//! streaming KV-cached decode steps through one dispatcher-wrapped
//! engine.
//!
//! Each tenant prefills its own prompt (at `Priority::Prefill`), then
//! serves a fixed number of decode tokens (GEMV-shaped m = 1 batches
//! at `Priority::Decode`), recording every **inter-token latency** —
//! the time between consecutive tokens the user would see. The sweep
//! scales the tenant count while the engine stays fixed, so it walks
//! the continuous-batching story of the dispatcher: decode throughput
//! (tokens/s) and the p50/p99 inter-token tail as sessions pile on.
//! Each row also reports `queued`, the share of executed batches
//! that took the queued path (submitter → driver) rather than running
//! direct on their caller: a sweep whose tenants happened to serialise
//! onto the direct path reads 2–3× the tokens/s of one that queued, and
//! that column is how to tell them apart.
//!
//! It prints one row per session count, takes no arguments, writes no
//! file, and nothing is gated on it (`benchmark/` is the instrument
//! that gates performance). `CAMP_THREADS` sizes the engine's pool.

use camp_core::{CampEngine, DispatchOptions, Dispatcher};
use camp_infer::{InferSession, Model};
use camp_models::TransformerConfig;
use std::sync::Arc;
use std::time::Instant;

/// The `pct`-th percentile of ascending `sorted` seconds, in ms.
fn percentile_ms(sorted: &[f64], pct: usize) -> f64 {
    sorted[(sorted.len() - 1) * pct / 100] * 1e3
}

/// One tenant: prefill, then `steps` decode tokens, returning the
/// prefill latency and every inter-token latency. Decode is closed
/// loop by nature — token t+1 cannot start before token t lands.
fn tenant_loop(
    mut session: InferSession<CampEngine>,
    prompt: Vec<u32>,
    steps: usize,
) -> (f64, Vec<f64>) {
    let t0 = Instant::now();
    session.prefill(&prompt).expect("prefill");
    let prefill = t0.elapsed().as_secs_f64();
    let mut lats = Vec::with_capacity(steps);
    let mut last = Instant::now();
    for _ in 0..steps {
        session.decode_step().expect("decode");
        let now = Instant::now();
        lats.push((now - last).as_secs_f64());
        last = now;
    }
    (prefill, lats)
}

fn main() {
    let threads = camp_core::backend::host_threads_from_env();
    const VOCAB: usize = 64;
    const SEED: u64 = 0x11FE_2ACE;
    const PROMPT_LEN: usize = 8;
    const STEPS: usize = 16;
    // big enough that decode GEMVs are real work, small enough that the
    // sweep runs in well under a second
    let cfg = TransformerConfig { hidden: 128, ff_dim: 256, heads: 4, layers: 3, seq_len: 64 };
    let model = Arc::new(Model::new(cfg, VOCAB, SEED));

    println!("==============================================================");
    println!("llm_serve: concurrent InferSession tenants over one dispatcher");
    println!(
        "model: {} layers x d={} ({} heads), ff={}, vocab={VOCAB}; prompt={PROMPT_LEN} \
         decode={STEPS} engine threads={threads}",
        cfg.layers, cfg.hidden, cfg.heads, cfg.ff_dim,
    );
    println!("==============================================================");

    let mut engine = CampEngine::with_threads(threads);
    let handles = Arc::new(model.register(&mut engine));
    let opts = DispatchOptions { queue_depth: 8 };
    for sessions in [1, 2, 4] {
        let dispatcher = Arc::new(Dispatcher::with_options(engine, opts));
        let t0 = Instant::now();
        let tenants: Vec<_> = (0..sessions)
            .map(|s| {
                let infer =
                    InferSession::new(&dispatcher, Arc::clone(&model), Arc::clone(&handles));
                let prompt: Vec<u32> = (0..PROMPT_LEN)
                    .map(|i| (s as u32 * 31 + i as u32 * 7) % VOCAB as u32)
                    .collect();
                std::thread::spawn(move || tenant_loop(infer, prompt, STEPS))
            })
            .collect();
        let mut lats = Vec::new();
        let mut prefill = 0.0f64;
        for t in tenants {
            let (p, mut l) = t.join().expect("tenant thread panicked");
            prefill += p;
            lats.append(&mut l);
        }
        let wall = t0.elapsed().as_secs_f64();
        let stats = dispatcher.stats();
        engine = Arc::into_inner(dispatcher).expect("all tenants joined").into_backend();
        assert_eq!(lats.len(), sessions * STEPS, "a tenant lost tokens");

        lats.sort_by(|a, b| a.total_cmp(b));
        println!(
            "sessions={sessions}: {:>8.1} tok/s  inter-token p50 {:>7.2} ms  p99 {:>7.2} ms  \
             prefill {:>7.2} ms  shed {}  queued {:.2}",
            (sessions * STEPS) as f64 / wall,
            percentile_ms(&lats, 50),
            percentile_ms(&lats, 99),
            prefill / sessions as f64 * 1e3,
            stats.shed,
            (stats.executed - stats.direct) as f64 / stats.executed as f64,
        );
    }
}
