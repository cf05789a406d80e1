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
//! Each row also reports `queued_share`, the share of executed batches
//! that took the queued path (submitter → driver) rather than running
//! direct on their caller: a sweep whose tenants happened to serialise
//! onto the direct path reads 2–3× the tokens/s of one that queued, and
//! that column is how to tell them apart.
//!
//! Results land in `BENCH_llm.json` (schema-versioned, one row per
//! `(mode, sessions)` key); `llm_serve --check-baseline` re-runs the
//! smoke-sized sweep and exits 1 if tokens/s falls below the
//! checked-in baseline row by more than the gate's fixed relative
//! tolerance (0.5). Knobs: `CAMP_THREADS`, `CAMP_BENCH_SMOKE=1`
//! shrinks the model and step counts to a CI smoke run.

use camp_bench::{check_baseline, percentile_ms};
use camp_core::{CampEngine, DispatchOptions, Dispatcher};
use camp_infer::{InferSession, Model};
use camp_models::TransformerConfig;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One measured point of the sweep: `mode` + `sessions` is the row key
/// the baseline gate matches on.
struct LlmRow {
    mode: &'static str,
    sessions: usize,
    prompt_len: usize,
    steps: usize,
    tok_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    prefill_ms: f64,
    shed: u64,
    queued_share: f64,
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

/// Sweep session counts over one model on one engine; returns the
/// engine for reuse (weights stay registered across dispatchers).
fn llm_sweep(
    mut engine: CampEngine,
    model: &Arc<Model>,
    session_counts: &[usize],
    prompt_len: usize,
    steps: usize,
    mode: &'static str,
) -> (CampEngine, Vec<LlmRow>) {
    let handles = Arc::new(model.register(&mut engine));
    let opts = DispatchOptions { queue_depth: 8 };
    let vocab = model.vocab() as u32;
    let mut rows = Vec::new();
    for &sessions in session_counts {
        let dispatcher = Arc::new(Dispatcher::with_options(engine, opts));
        let t0 = Instant::now();
        let tenants: Vec<_> = (0..sessions)
            .map(|s| {
                let infer = InferSession::new(&dispatcher, Arc::clone(model), Arc::clone(&handles));
                let prompt: Vec<u32> =
                    (0..prompt_len).map(|i| (s as u32 * 31 + i as u32 * 7) % vocab).collect();
                std::thread::spawn(move || tenant_loop(infer, prompt, steps))
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
        assert_eq!(lats.len(), sessions * steps, "a tenant lost tokens");

        lats.sort_by(|a, b| a.total_cmp(b));
        rows.push(LlmRow {
            mode,
            sessions,
            prompt_len,
            steps,
            tok_per_sec: (sessions * steps) as f64 / wall,
            p50_ms: percentile_ms(&lats, 50),
            p99_ms: percentile_ms(&lats, 99),
            prefill_ms: prefill / sessions as f64 * 1e3,
            shed: stats.shed,
            queued_share: (stats.executed - stats.direct) as f64 / stats.executed as f64,
        });
    }
    (engine, rows)
}

/// The serving model: big enough that decode GEMVs are real work,
/// small enough that a full sweep stays in CI budget.
fn full_config() -> TransformerConfig {
    TransformerConfig { hidden: 128, ff_dim: 256, heads: 4, layers: 3, seq_len: 64 }
}

fn smoke_config() -> TransformerConfig {
    TransformerConfig { hidden: 32, ff_dim: 64, heads: 2, layers: 1, seq_len: 32 }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check-baseline");
    let smoke = check || std::env::var("CAMP_BENCH_SMOKE").map(|v| v == "1").unwrap_or(false);
    let threads = camp_core::backend::host_threads_from_env();
    const VOCAB: usize = 64;
    const SEED: u64 = 0x11FE_2ACE;

    let (prompt_len, steps) = if smoke { (4, 4) } else { (8, 16) };
    let counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let cfg = if smoke { smoke_config() } else { full_config() };
    let model = Arc::new(Model::new(cfg, VOCAB, SEED));

    println!("==============================================================");
    println!("llm_serve: concurrent InferSession tenants over one dispatcher");
    println!(
        "model: {} layers x d={} ({} heads), ff={}, vocab={}; prompt={} decode={} \
         engine threads={}{}",
        cfg.layers,
        cfg.hidden,
        cfg.heads,
        cfg.ff_dim,
        VOCAB,
        prompt_len,
        steps,
        threads,
        if smoke { " [smoke]" } else { "" }
    );
    println!("==============================================================");

    let engine = CampEngine::with_threads(threads);
    let mode = if smoke { "smoke" } else { "full" };
    let (engine, mut rows) = llm_sweep(engine, &model, counts, prompt_len, steps, mode);

    // a full run also measures the smoke-sized sweep, so the checked-in
    // baseline always contains the rows a CI `--check-baseline` run
    // (which is smoke-sized) compares against
    if !smoke {
        let smoke_model = Arc::new(Model::new(smoke_config(), VOCAB, SEED));
        let (_engine, smoke_rows) = llm_sweep(engine, &smoke_model, &[1, 2], 4, 4, "smoke");
        rows.extend(smoke_rows);
    } else {
        drop(engine);
    }

    for r in &rows {
        println!(
            "{:<6} sessions={}: {:>8.1} tok/s  inter-token p50 {:>7.2} ms  p99 {:>7.2} ms  \
             prefill {:>7.2} ms  shed {}  queued {:.2}",
            r.mode,
            r.sessions,
            r.tok_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.prefill_ms,
            r.shed,
            r.queued_share
        );
    }

    if check {
        let fresh: Vec<_> = rows
            .iter()
            .map(|r| (vec![r.mode.to_string(), r.sessions.to_string()], r.tok_per_sec))
            .collect();
        if !check_baseline("BENCH_llm.json", &["mode", "sessions"], "tok_per_sec", &fresh) {
            std::process::exit(1);
        }
        return;
    }

    // ---- BENCH_llm.json (hand-rolled: no serde in the image) ----
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"bench\": \"llm_serve\",");
    let _ = writeln!(j, "  \"schema\": 1,");
    let _ = writeln!(j, "  \"smoke\": {smoke},");
    let _ = writeln!(j, "  \"threads\": {threads},");
    let _ = writeln!(j, "  \"vocab\": {VOCAB},");
    let _ = writeln!(j, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"mode\": \"{}\", \"sessions\": {}, \"prompt_len\": {}, \"steps\": {}, \
             \"tok_per_sec\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"prefill_ms\": {:.3}, \"shed\": {}, \"queued_share\": {:.3}}}",
            r.mode,
            r.sessions,
            r.prompt_len,
            r.steps,
            r.tok_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.prefill_ms,
            r.shed,
            r.queued_share
        );
        j.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ]\n}\n");
    let out = "BENCH_llm.json";
    std::fs::write(out, &j).expect("write BENCH_llm.json");
    println!("\nwrote {out}");
}
