//! Serving-path shootout on repeated BERT-base attention batches,
//! through the unified request API: per-call loop vs batched vs
//! submit/poll session with registered weights.
//!
//! A serving workload answers the *same* model's attention inventory
//! over and over — the weights never change, only the activations. The
//! three contenders pay different per-batch overheads:
//!
//! * **per-call loop** — one `CampBackend::execute` per request:
//!   thread fan-out and B re-packing on every single GeMM;
//! * **batched** — one `CampBackend::execute_batch` per batch: fan-out
//!   once per batch, each unique B packed once *per batch* (re-packed
//!   every repetition);
//! * **session** — weights registered once up front
//!   (`register_weights`), request batches streamed through one
//!   `DispatchSession::submit` with all of them in flight: zero
//!   B-packing per batch, and the submitter pre-packs batch N+1's
//!   activations while batch N computes.
//!
//! Results are checked bit-identical before timing; throughput is
//! reported in requests (GeMMs) per second. Knobs: `CAMP_THREADS` (the
//! unified thread story — see `camp_core::backend`), and
//! `CAMP_BENCH_SMOKE=1` shrinks everything to a one-iteration CI smoke
//! run (1 rep of 2 batches instead of 5 of 8).
//!
//! After the shootout, the **multi-tenant dispatcher sweep** measures
//! the `camp_core::dispatch::Dispatcher` under open-loop arrival: N
//! tenant threads (alternating decode/prefill priority) each submit
//! request batches on a fixed arrival schedule calibrated to one
//! tenant's closed-loop service rate, so offered load scales with N
//! while batch latency is charged from the *scheduled* arrival — queue
//! time included, saturation retries included. Results land in
//! `BENCH_serving.json` (p50/p99 batch latency + achieved req/s per
//! session count); `serving --check-baseline` re-runs the smoke-sized
//! sweep and exits 1 if achieved throughput falls below the checked-in
//! baseline row by more than the gate's fixed relative tolerance (0.5).

use camp_bench::{check_baseline, percentile_ms, time_best};
use camp_core::backend::CampBackend;
use camp_core::{
    CampEngine, DType, DispatchOptions, DispatchSession, Dispatcher, GemmRequest, Priority,
    RequestError, TicketId,
};
use camp_models::LlmModel;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn req_per_sec(requests: usize, secs: f64) -> f64 {
    requests as f64 / secs
}

/// One measured point of the multi-tenant sweep: `mode` + `sessions`
/// is the row key the baseline gate matches on.
struct ServingRow {
    mode: &'static str,
    sessions: usize,
    gemms_per_batch: usize,
    batches_per_tenant: usize,
    req_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    rejected: u64,
}

/// One tenant under open-loop arrival: submit a batch every `interval`
/// from the tenant's own clock, charging each batch's latency from its
/// *scheduled* arrival (queueing delay included). A `Saturated`
/// rejection collects the oldest in-flight batch to make room and
/// retries — the retry wait is part of the rejected batch's latency.
fn tenant_loop(
    mut session: DispatchSession<CampEngine>,
    reqs: Vec<GemmRequest>,
    batches: usize,
    interval: Duration,
    prio: Priority,
) -> (Vec<f64>, u64) {
    let start = Instant::now();
    let mut lats = Vec::with_capacity(batches);
    let mut inflight: VecDeque<(TicketId, Instant)> = VecDeque::new();
    let mut rejected = 0u64;
    let collect_head = |session: &mut DispatchSession<CampEngine>,
                        inflight: &mut VecDeque<(TicketId, Instant)>,
                        lats: &mut Vec<f64>| {
        let (t, scheduled) = inflight.pop_front().expect("in-flight batch to collect");
        session.wait(t).expect("serving batch completes");
        lats.push(scheduled.elapsed().as_secs_f64());
    };
    for i in 0..batches {
        let scheduled = start + interval.mul_f64(i as f64);
        while Instant::now() < scheduled {
            std::hint::spin_loop();
        }
        loop {
            // drain already-finished heads so latency stamps stay fresh
            while let Some(&(t, scheduled)) = inflight.front() {
                match session.poll(t) {
                    Some(out) => {
                        out.expect("serving batch completes");
                        lats.push(scheduled.elapsed().as_secs_f64());
                        inflight.pop_front();
                    }
                    None => break,
                }
            }
            match session.submit_with(reqs.clone(), prio, None) {
                Ok(t) => {
                    inflight.push_back((t, scheduled));
                    break;
                }
                Err(RequestError::Saturated { .. }) => {
                    rejected += 1;
                    collect_head(&mut session, &mut inflight, &mut lats);
                }
                Err(e) => panic!("serving submission failed: {e}"),
            }
        }
    }
    while !inflight.is_empty() {
        collect_head(&mut session, &mut inflight, &mut lats);
    }
    (lats, rejected)
}

/// The multi-tenant dispatcher sweep for one workload `mode`: calibrate
/// a closed-loop service time, then measure each session count under
/// open-loop arrival at one offered batch per tenant per service time
/// (offered load scales with N, so the sweep walks into saturation).
fn dispatcher_sweep(
    mut engine: CampEngine,
    reqs: &[GemmRequest],
    batches: usize,
    session_counts: &[usize],
    mode: &'static str,
) -> (CampEngine, Vec<ServingRow>) {
    let opts = DispatchOptions { queue_depth: 8 };

    // calibration: one closed-loop tenant, serial in-flight
    let dispatcher = Dispatcher::with_options(engine, opts);
    let mut session = dispatcher.session();
    let t0 = Instant::now();
    for _ in 0..batches {
        let t = session.submit(reqs.to_vec()).expect("valid requests");
        let _ = session.wait(t).expect("calibration batch completes");
    }
    let service = t0.elapsed().as_secs_f64() / batches as f64;
    drop(session);
    engine = dispatcher.into_backend();

    let mut rows = Vec::new();
    for &sessions in session_counts {
        let dispatcher = Arc::new(Dispatcher::with_options(engine, opts));
        let interval = Duration::from_secs_f64(service);
        let t0 = Instant::now();
        let tenants: Vec<_> = (0..sessions)
            .map(|s| {
                let session = dispatcher.session();
                let reqs = reqs.to_vec();
                let prio = if s % 2 == 0 { Priority::Decode } else { Priority::Prefill };
                std::thread::spawn(move || tenant_loop(session, reqs, batches, interval, prio))
            })
            .collect();
        let mut lats = Vec::new();
        let mut rejected = 0u64;
        for t in tenants {
            let (mut l, r) = t.join().expect("tenant thread panicked");
            lats.append(&mut l);
            rejected += r;
        }
        let wall = t0.elapsed().as_secs_f64();
        let stats = dispatcher.stats();
        assert_eq!(stats.executed as usize, sessions * batches, "a tenant's batch was lost");
        engine = Arc::into_inner(dispatcher).expect("all tenants joined").into_backend();

        lats.sort_by(|a, b| a.total_cmp(b));
        rows.push(ServingRow {
            mode,
            sessions,
            gemms_per_batch: reqs.len(),
            batches_per_tenant: batches,
            req_per_sec: req_per_sec(sessions * batches * reqs.len(), wall),
            p50_ms: percentile_ms(&lats, 50),
            p99_ms: percentile_ms(&lats, 99),
            rejected,
        });
    }
    (engine, rows)
}

fn main() {
    let check = std::env::args().any(|a| a == "--check-baseline");
    let smoke = check || std::env::var("CAMP_BENCH_SMOKE").map(|v| v == "1").unwrap_or(false);
    let threads = camp_core::backend::host_threads_from_env();
    let (reps, batches) = if smoke { (1, 2) } else { (5, 8) };

    let mut cfg = LlmModel::BertBase.config();
    if smoke {
        cfg.layers = 1;
        cfg.seq_len = 32;
    }
    let workload = cfg.attention_workload(0x5E12_71C3);
    let dense = workload.gemm_requests(DType::I8);
    let per_batch = dense.len();
    let total_requests = per_batch * batches;

    println!("==============================================================");
    println!("serving: per-call loop vs batched vs session (BERT base attention)");
    println!(
        "layers={} seq={} heads={}: {} GeMMs/batch x {} batches, \
         engine threads={}, best of {}{}",
        cfg.layers,
        cfg.seq_len,
        cfg.heads,
        per_batch,
        batches,
        threads,
        reps,
        if smoke { " [smoke]" } else { "" }
    );
    println!("==============================================================");

    // --- engines: one per contender, identically configured ---
    let mut eng_loop = CampEngine::with_threads(threads);
    let mut eng_batch = CampEngine::with_threads(threads);
    let mut eng_session = CampEngine::with_threads(threads);
    let handles = workload.register(&mut eng_session, DType::I8);
    let session_reqs = workload.gemm_requests_with_handles(&handles);

    // --- correctness + warm-up before any timing ---
    let golden = eng_batch.execute_batch(&dense).expect("well-formed batch");
    for (out, req) in golden.outputs.iter().zip(&dense) {
        let per_call = eng_loop.execute(req).expect("well-formed request");
        assert_eq!(out, &per_call.output, "batched diverged at {}x{:?}", req.m(), req.n());
    }
    let session_out = {
        let dispatcher = Dispatcher::with_options(eng_session, DispatchOptions::default());
        let mut session = dispatcher.session();
        let t = session.submit(session_reqs.clone()).expect("valid requests");
        let out = session.wait(t).expect("serving batch completes");
        drop(session);
        eng_session = dispatcher.into_backend();
        out
    };
    assert_eq!(
        session_out.outputs, golden.outputs,
        "session results diverged from the batched path"
    );
    let session_stats = session_out.stats.as_host().expect("host session");
    assert_eq!(session_stats.packed_b_bytes, 0, "session must not pack B");

    // --- per-call loop: every GeMM pays setup and B packing ---
    let t_loop = time_best(reps, false, || {
        for _ in 0..batches {
            for req in &dense {
                let _ = eng_loop.execute(req).expect("well-formed request");
            }
        }
    });

    // --- batched: B deduped within a batch, re-packed per batch ---
    let t_batch = time_best(reps, false, || {
        for _ in 0..batches {
            let _ = eng_batch.execute_batch(&dense).expect("well-formed batch");
        }
    });

    // --- session: registered weights, all batches in flight ---
    // Request batches are materialized (cheap Arc clones) before the
    // clock starts: a real serving caller owns its activations, and the
    // other two contenders reuse prebuilt requests in their timed loops.
    let mut t_session = f64::INFINITY;
    for _ in 0..reps {
        let dispatcher = Dispatcher::with_options(eng_session, DispatchOptions::default());
        // every batch is in flight at once, so the bound is `batches`
        let mut session = dispatcher.session_with_depth(batches.max(1));
        let request_batches: Vec<_> = (0..batches).map(|_| session_reqs.clone()).collect();
        let t = Instant::now();
        let tickets: Vec<_> = request_batches
            .into_iter()
            .map(|b| session.submit(b).expect("valid requests"))
            .collect();
        for ticket in tickets {
            let _ = session.wait(ticket).expect("serving batch completes");
        }
        t_session = t_session.min(t.elapsed().as_secs_f64());
        drop(session);
        eng_session = dispatcher.into_backend();
    }

    println!(
        "per-call loop {:9.2} ms  {:>12.0} req/s",
        t_loop * 1e3,
        req_per_sec(total_requests, t_loop)
    );
    println!(
        "batched       {:9.2} ms  {:>12.0} req/s   {:.2}x vs loop",
        t_batch * 1e3,
        req_per_sec(total_requests, t_batch),
        t_loop / t_batch
    );
    println!(
        "session       {:9.2} ms  {:>12.0} req/s   {:.2}x vs loop, {:.2}x vs batched",
        t_session * 1e3,
        req_per_sec(total_requests, t_session),
        t_loop / t_session,
        t_batch / t_session
    );
    println!(
        "registered weights: {} panels, {:.2} MiB packed once (batched re-packs every batch)",
        eng_session.registered_weights(),
        eng_session.registered_weight_bytes() as f64 / (1024.0 * 1024.0)
    );
    println!("target: session >= batched on repeated batches -> {:.2}x", t_batch / t_session);

    // ---- multi-tenant dispatcher sweep (open-loop arrival) ----
    println!();
    println!("multi-tenant dispatcher sweep: open-loop arrival, queue depth 8");
    let counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let mode = if smoke { "smoke" } else { "full" };
    let (_engine, mut rows) = dispatcher_sweep(eng_session, &session_reqs, batches, counts, mode);

    // a full run also measures the smoke-sized sweep, so the checked-in
    // baseline always contains the rows a CI `--check-baseline` run
    // (which is smoke-sized) compares against
    if !smoke {
        let mut cfg = LlmModel::BertBase.config();
        cfg.layers = 1;
        cfg.seq_len = 32;
        let workload = cfg.attention_workload(0x5E12_71C3);
        let mut engine = CampEngine::with_threads(threads);
        let handles = workload.register(&mut engine, DType::I8);
        let reqs = workload.gemm_requests_with_handles(&handles);
        let (_engine, smoke_rows) = dispatcher_sweep(engine, &reqs, 2, &[1, 2], "smoke");
        rows.extend(smoke_rows);
    }

    for r in &rows {
        println!(
            "{:<6} sessions={}: {:>10.0} req/s  p50 {:>8.2} ms  p99 {:>8.2} ms  rejected {}",
            r.mode, r.sessions, r.req_per_sec, r.p50_ms, r.p99_ms, r.rejected
        );
    }

    if check {
        let fresh: Vec<_> = rows
            .iter()
            .map(|r| (vec![r.mode.to_string(), r.sessions.to_string()], r.req_per_sec))
            .collect();
        if !check_baseline("BENCH_serving.json", &["mode", "sessions"], "req_per_sec", &fresh) {
            std::process::exit(1);
        }
        return;
    }

    // ---- BENCH_serving.json (hand-rolled: no serde in the image) ----
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"bench\": \"serving\",");
    let _ = writeln!(j, "  \"schema\": 1,");
    let _ = writeln!(j, "  \"smoke\": {smoke},");
    let _ = writeln!(j, "  \"threads\": {threads},");
    let _ = writeln!(j, "  \"queue_depth\": 8,");
    let _ = writeln!(j, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"mode\": \"{}\", \"sessions\": {}, \"gemms_per_batch\": {}, \
             \"batches_per_tenant\": {}, \"req_per_sec\": {:.1}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"rejected\": {}}}",
            r.mode,
            r.sessions,
            r.gemms_per_batch,
            r.batches_per_tenant,
            r.req_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.rejected
        );
        j.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ]\n}\n");
    let out = "BENCH_serving.json";
    std::fs::write(out, &j).expect("write BENCH_serving.json");
    println!("\nwrote {out}");
}
