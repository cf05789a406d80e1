//! Batched vs per-call host-backend GeMM on the Fig. 14 attention
//! inventory (BERT base, s = 128), through the unified request API.
//!
//! The LLM evaluation is dominated by many *small* per-head GeMMs —
//! (s×dₕ)·(dₕ×s) score and (s×s)·(s×dₕ) context products, 12 heads ×
//! 12 layers — shapes where per-call setup (thread fan-out, operand
//! re-packing) swamps compute. This harness builds the problem list
//! **once** as typed [`GemmRequest`]s and times it two ways on
//! identically configured engines:
//!
//! * **per-call loop**: one `CampBackend::execute` per request (setup
//!   and B packing per call; small requests run on one worker, so the
//!   pool buys them nothing);
//! * **batched**: one `CampBackend::execute_batch` (setup once per
//!   batch, each unique B packed once — requests share operand buffers,
//!   which is what the dedup keys on — and small items spread across
//!   all workers).
//!
//! Results are checked bit-identical before timing. The headline is the
//! pack-traffic dedup factor; the wall-clock speedup additionally needs
//! real cores (cross-item parallelism is the batch's other win). Set
//! `CAMP_THREADS` (the unified thread story — see `camp_core::backend`)
//! to override the engine worker count.

use camp_bench::time_best;
use camp_core::backend::{host_threads_from_env, CampBackend};
use camp_core::{CampEngine, GemmRequest};
use camp_models::LlmModel;

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn host_packed(backend_stats: &camp_core::ExecStats) -> u64 {
    backend_stats.as_host().expect("host engine stats").packed_bytes()
}

fn macs(reqs: &[GemmRequest]) -> u64 {
    reqs.iter().map(|r| (r.m() * r.n().unwrap_or(0) * r.k().unwrap_or(0)) as u64).sum()
}

fn run_set(name: &str, reqs: &[GemmRequest], threads: usize, reps: usize) -> (f64, f64) {
    let mut eng_batch = CampEngine::with_threads(threads);
    let mut eng_loop = CampEngine::with_threads(threads);

    // correctness + pool warm-up before timing
    let batch = eng_batch.execute_batch(reqs).expect("well-formed batch");
    let mut loop_packed = 0u64;
    for (out, req) in batch.outputs.iter().zip(reqs) {
        let per_call = eng_loop.execute(req).expect("well-formed request");
        assert_eq!(
            out,
            &per_call.output,
            "batched result diverged at {}x{}x{:?}",
            req.m(),
            out.n,
            req.k()
        );
        loop_packed += host_packed(&per_call.stats);
    }
    let batch_packed = host_packed(&batch.stats);

    let t_loop = time_best(reps, false, || {
        for req in reqs {
            let _ = eng_loop.execute(req).expect("well-formed request");
        }
    });
    let t_batch = time_best(reps, false, || {
        let _ = eng_batch.execute_batch(reqs).expect("well-formed batch");
    });
    let speedup = t_loop / t_batch;
    println!("{name}");
    println!(
        "  {} GeMMs, {:.1} M MACs, pack traffic {:.2} MiB per-call vs {:.2} MiB batched ({:.1}x dedup)",
        reqs.len(),
        macs(reqs) as f64 / 1e6,
        mib(loop_packed),
        mib(batch_packed),
        loop_packed as f64 / batch_packed as f64,
    );
    println!(
        "  per-call loop {:8.2} ms   batched {:8.2} ms   speedup {:.2}x",
        t_loop * 1e3,
        t_batch * 1e3,
        speedup
    );
    (speedup, loop_packed as f64 / batch_packed as f64)
}

fn main() {
    // Both sides run the same engine configuration: a server-style
    // worker pool of at least 16 threads (more if the host has more
    // cores), overridable through the unified CAMP_THREADS story. A
    // small per-call request runs on one worker (fan-out would cost
    // more than it buys), so the batch's wins are B-pack dedup plus
    // cross-item parallelism; on hosts with fewer cores than the pool
    // only the dedup shows up in wall-clock (the printed core count
    // makes the basis explicit).
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let threads =
        if std::env::var("CAMP_THREADS").is_ok() { host_threads_from_env() } else { cores.max(16) };
    let reps = 5;

    let cfg = LlmModel::BertBase.config();
    let workload = cfg.attention_workload(0xA77E_1710);
    let all = workload.gemm_requests(camp_core::DType::I8);
    // the per-head core of the inventory: score/context products only
    // (each layer's slice is [4 projections, then 2 GeMMs per head])
    let per_head: Vec<GemmRequest> =
        all.chunks(4 + 2 * cfg.heads).flat_map(|layer| layer[4..].iter().cloned()).collect();

    println!("==============================================================");
    println!("attention_batch: batched vs per-call GemmRequests (BERT base, s=128)");
    println!(
        "engine threads={threads} (CAMP_THREADS) on {cores} core(s), \
         same config both sides, best of {reps}"
    );
    println!("==============================================================");
    let (speedup, dedup) =
        run_set("per-head attention (score + context)", &per_head, threads, reps);
    run_set("full attention inventory (+ QKV/output projections)", &all, threads, reps);
    println!(
        "target: per-head B-pack dedup >= 1.5x -> {dedup:.2}x (wall-clock {speedup:.2}x on {cores} core(s))"
    );
}
