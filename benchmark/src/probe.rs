//! Each lower layer measured alone, from outside, by replaying one
//! request's tape against it: `infer` over canned outputs, `dispatch`
//! on an idle dispatcher, `engine` on a bare engine, and the `gemm`
//! tier table's kernels on cache-resident panels.

use std::time::{Duration, Instant};

use camp_core::backend::CampBackend;
use camp_core::{CampEngine, RequestError};
use camp_gemm::host::SmallB;
use camp_gemm::reference::SplitMix64;
use camp_gemm::weights::{host_block_plan, prepack_b};
use camp_gemm::{DType, HostKernel};
use camp_infer::{InferContext, InferError, Model};

use crate::serve::{set_up, Server, Setup};
use crate::span::Tracer;
use crate::stats::median;
use crate::tape::{handle_backed, to_requests, CannedExec, Phase, TapeEntry};
use crate::workload::Workload;

/// Replays of a tape repeat until this much time has gone by …
const REPLAY_BUDGET: Duration = Duration::from_millis(750);
/// … or this many passes were made, whichever comes first.
const MAX_REPLAYS: usize = 20;

/// Microsecond samples per tape entry, one per replay pass.
struct PerEntry(Vec<Vec<f64>>);

impl PerEntry {
    fn new(entries: usize) -> Self {
        PerEntry(vec![Vec::new(); entries])
    }

    fn push(&mut self, entry: usize, from: Instant, to: Instant) {
        self.0[entry].push((to - from).as_secs_f64() * 1e6);
    }

    fn medians(&self) -> Vec<f64> {
        self.0.iter().map(|s| median(s)).collect()
    }
}

fn replay_passes(
    mut pass: impl FnMut(usize) -> Result<(), RequestError>,
) -> Result<(), RequestError> {
    let begun = Instant::now();
    let mut done = 0;
    while done == 0 || (done < MAX_REPLAYS && begun.elapsed() < REPLAY_BUDGET) {
        pass(done)?;
        done += 1;
    }
    Ok(())
}

/// Keep this thread busy for as long as the caller computed before the
/// taped call: how soon the next batch follows the last decides how
/// deeply the dispatcher's threads have gone to sleep in between.
fn think(span: Duration) {
    let begun = Instant::now();
    while begun.elapsed() < span {
        std::hint::spin_loop();
    }
}

fn count_mismatches(outputs: &[camp_core::Output], entry: &TapeEntry) -> u64 {
    u64::from(
        outputs.len() != entry.outputs.len()
            || outputs.iter().zip(&entry.outputs).any(|(got, want)| got.c != *want),
    )
}

// ---- infer -----------------------------------------------------------------

/// Seconds the `infer` layer itself spends per forward pass of the taped
/// request — requantization, masks, residuals, KV appends and head
/// views, argmax — measured by serving the request again over an
/// executor that answers from the tape instead of multiplying.
pub struct Glue {
    pub prefill_s: f64,
    /// One entry per decode step, in order.
    pub decode_s: Vec<f64>,
}

const GLUE_REPLAYS: usize = 7;

pub fn replay_glue(
    model: &Model,
    tape: &[TapeEntry],
    prompt: &[u32],
    generate: usize,
    tracer: &mut Tracer,
) -> Result<Glue, InferError> {
    let mut prefill = Vec::new();
    let mut decode = vec![Vec::new(); generate - 1];
    for _ in 0..GLUE_REPLAYS {
        let mut exec = CannedExec::new(tape);
        let mut ctx = InferContext::for_model(model);
        let t0 = Instant::now();
        ctx.prefill_with(model, &mut exec, prompt)?;
        let t1 = Instant::now();
        tracer.record("infer.glue_prefill", t0, t1);
        prefill.push((t1 - t0).as_secs_f64());
        for samples in &mut decode {
            let t0 = Instant::now();
            ctx.decode_with(model, &mut exec)?;
            let t1 = Instant::now();
            tracer.record("infer.glue_decode", t0, t1);
            samples.push((t1 - t0).as_secs_f64());
        }
    }
    Ok(Glue { prefill_s: median(&prefill), decode_s: decode.iter().map(|s| median(s)).collect() })
}

// ---- dispatch --------------------------------------------------------------

/// The taped batches through `submit_with` → `wait` on an otherwise
/// idle dispatcher.
pub struct DispatchReplay {
    /// Per tape entry, the median `submit_with` → `wait` return, µs.
    pub roundtrip_us: Vec<f64>,
    /// Per tape entry, the median `submit_with` call alone, µs.
    pub submit_us: Vec<f64>,
    /// Batches whose outputs differ from the tape's.
    pub mismatches: u64,
    /// `DispatchStats::staging_live` after the session closed.
    pub staging_live_after: usize,
}

pub fn replay_dispatch(
    workload: Workload,
    seed: u64,
    tape: &[TapeEntry],
    tracer: &mut Tracer,
) -> Result<DispatchReplay, RequestError> {
    let Setup { handles, server: Server::Dispatcher(dispatcher), .. } = set_up(workload, seed)
    else {
        unreachable!("dispatch replay is only asked of dispatcher workloads");
    };
    let mut session = dispatcher.session();
    let (mut roundtrip, mut submit) = (PerEntry::new(tape.len()), PerEntry::new(tape.len()));
    let mut mismatches = 0;
    replay_passes(|pass| {
        for (i, entry) in tape.iter().enumerate() {
            let reqs = to_requests(&entry.batch, &handles)?;
            think(entry.think);
            let t0 = Instant::now();
            let ticket = session.submit_with(reqs, entry.phase.priority(), None)?;
            let t1 = Instant::now();
            let outcome = session.wait(ticket)?;
            let t2 = Instant::now();
            tracer.record("dispatch.submit", t0, t1);
            tracer.record("dispatch.wait", t1, t2);
            submit.push(i, t0, t1);
            roundtrip.push(i, t0, t2);
            if pass == 0 {
                mismatches += count_mismatches(&outcome.outputs, entry);
            }
        }
        Ok(())
    })?;
    drop(session);
    let staging_live_after = dispatcher.stats().staging_live;
    drop(dispatcher.into_backend());
    Ok(DispatchReplay {
        roundtrip_us: roundtrip.medians(),
        submit_us: submit.medians(),
        mismatches,
        staging_live_after,
    })
}

// ---- engine ----------------------------------------------------------------

/// The taped batches on a bare engine, and the exact counters it
/// reported for them.
#[derive(Default)]
pub struct EngineReplay {
    /// Per tape entry, the median `execute_batch`, µs.
    pub exec_us: Vec<f64>,
    /// Per tape entry, the median `prepare` of its requests (the
    /// stager's half of a dispatched batch), µs.
    pub prepare_us: Vec<f64>,
    /// Per tape entry, the median `execute_prepared` (the driver's
    /// half), µs.
    pub execute_prepared_us: Vec<f64>,
    pub macs: u64,
    pub packed_a_bytes: u64,
    pub packed_b_bytes: u64,
    /// `packed_b_bytes` of the batches made of registered weights only;
    /// pre-packed at registration, so it must be 0.
    pub packed_b_bytes_handle_backed: u64,
    pub small_m_routed: u64,
    pub routed: u64,
    pub mismatches: u64,
}

pub fn replay_engine(
    workload: Workload,
    seed: u64,
    tape: &[TapeEntry],
    tracer: &mut Tracer,
) -> Result<EngineReplay, RequestError> {
    let Setup { handles, server, .. } = set_up(workload, seed);
    let mut engine = match server {
        Server::Engine(engine) => engine,
        Server::Dispatcher(dispatcher) => dispatcher.into_backend(),
        Server::Sim(_) => unreachable!("engine replay is only asked of host workloads"),
    };
    let n = tape.len();
    let (mut exec, mut prepare, mut prepared) =
        (PerEntry::new(n), PerEntry::new(n), PerEntry::new(n));
    let mut r = EngineReplay::default();
    replay_passes(|pass| {
        for (i, entry) in tape.iter().enumerate() {
            let reqs = to_requests(&entry.batch, &handles)?;
            let t0 = Instant::now();
            let outcome = engine.execute_batch(&reqs)?;
            let t1 = Instant::now();
            tracer.record("engine.execute_batch", t0, t1);
            exec.push(i, t0, t1);
            if pass == 0 {
                let s = outcome.stats.as_host().expect("the host engine reports EngineStats");
                r.macs += s.macs;
                r.packed_a_bytes += s.packed_a_bytes;
                r.packed_b_bytes += s.packed_b_bytes;
                if handle_backed(&entry.batch) {
                    r.packed_b_bytes_handle_backed += s.packed_b_bytes;
                }
                r.small_m_routed += s.small_m_routed;
                r.routed += s.small_m_routed + s.small_n_routed + s.blocked_routed;
                r.mismatches += count_mismatches(&outcome.outputs, entry);
            }

            let snapshot = engine.weight_snapshot();
            let t0 = Instant::now();
            let staged: Vec<_> =
                reqs.into_iter().map(|req| CampEngine::prepare(req, &snapshot)).collect();
            let t1 = Instant::now();
            let outcome = engine.execute_prepared(staged);
            let t2 = Instant::now();
            tracer.record("engine.prepare", t0, t1);
            tracer.record("engine.execute_prepared", t1, t2);
            prepare.push(i, t0, t1);
            prepared.push(i, t1, t2);
            if pass == 0 {
                r.mismatches += count_mismatches(&outcome.outputs, entry);
            }
        }
        Ok(())
    })?;
    r.exec_us = exec.medians();
    r.prepare_us = prepare.medians();
    r.execute_prepared_us = prepared.medians();
    Ok(r)
}

/// Median of `values[i]` over the entries of `phase`; 0 when the tape
/// has none.
pub fn phase_median(tape: &[TapeEntry], values: &[f64], phase: Phase) -> f64 {
    let picked: Vec<f64> =
        tape.iter().zip(values).filter(|(e, _)| e.phase == phase).map(|(_, &v)| v).collect();
    if picked.is_empty() {
        0.0
    } else {
        median(&picked)
    }
}

// ---- gemm ------------------------------------------------------------------

const PROBE_CHUNKS: usize = 7;
const PROBE_CHUNK: Duration = Duration::from_millis(20);

/// Calls of `f` per second: the median over a few 20 ms chunks.
fn calls_per_second(tracer: &mut Tracer, span: &'static str, mut f: impl FnMut()) -> f64 {
    let rates: Vec<f64> = (0..PROBE_CHUNKS)
        .map(|_| {
            let begun = Instant::now();
            let mut calls = 0u64;
            loop {
                for _ in 0..64 {
                    f();
                }
                calls += 64;
                let now = Instant::now();
                if now - begun >= PROBE_CHUNK {
                    tracer.record(span, begun, now);
                    return calls as f64 / (now - begun).as_secs_f64();
                }
            }
        })
        .collect();
    median(&rates)
}

/// The dispatched tier's kernels on operands that stay in cache:
/// `(gemm.tile_gops, gemm.small_m_gops, gemm.pack_a_gbs, gemm.pack_b_gbs)`.
pub fn gemm_probes(tracer: &mut Tracer) -> [(&'static str, f64); 4] {
    let hk = HostKernel::detect();
    let mut rng = SplitMix64::new(0x6765_6d6d);

    // one A panel against the tier's widened B tile, 256 k-values deep:
    // 1 KiB + nr/4 KiB of packed panels, L1-resident — the compute roof
    let (nr, kcb) = (hk.int_nr(), 256);
    let pa = rng.i8_vec(kcb * 4, -128, 127);
    let pb = rng.i8_vec(nr / 4 * kcb * 4, -128, 127);
    let mut acc = vec![[0i32; 4]; nr];
    let tile = calls_per_second(tracer, "gemm.tile_i8_wide", || {
        hk.tile_i8_wide(std::hint::black_box(&pa), std::hint::black_box(&pb), &mut acc);
    });
    std::hint::black_box(&acc);

    // the decode-step GEMV of the host model's feed-forward up-projection
    let (m, n, k) = (1, 1024, 256);
    let a = rng.i8_vec(m * k, -128, 127);
    let b = rng.i8_vec(k * n, -128, 127);
    let plan = host_block_plan(m, n, k, DType::I8.k_step());
    let mut panel = vec![0i8; plan.np * plan.kp];
    prepack_b(&mut panel, &b, n, k, &plan);
    let mut c = vec![0i32; m * n];
    let small_m = calls_per_second(tracer, "gemm.run_small_m", || {
        hk.run_small_m(m, n, k, &plan, std::hint::black_box(&a), SmallB::Panel(&panel), &mut c);
    });
    std::hint::black_box(&c);

    let (rows, depth) = (256, 1024);
    let src = rng.i8_vec(rows * depth, -128, 127);
    let mut packed = vec![0i8; rows * depth];
    let pack_a = calls_per_second(tracer, "gemm.pack_a_block", || {
        hk.pack_a_block(&mut packed, std::hint::black_box(&src), rows, depth, 0, 0, depth);
    });
    let pack_b = calls_per_second(tracer, "gemm.pack_b_block", || {
        hk.pack_b_block(&mut packed, std::hint::black_box(&src), rows, depth, 0, 0, depth);
    });
    std::hint::black_box(&packed);

    let gops = |calls: f64, macs: usize| calls * 2.0 * macs as f64 / 1e9;
    let gbs = |calls: f64| calls * (rows * depth) as f64 / 1e9;
    [
        ("gemm.tile_gops", gops(tile, 4 * nr * kcb)),
        ("gemm.small_m_gops", gops(small_m, m * n * k)),
        ("gemm.pack_a_gbs", gbs(pack_a)),
        ("gemm.pack_b_gbs", gbs(pack_b)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_infer::InferGemm;

    #[test]
    fn phase_medians_pick_their_entries() {
        let entry = |phase| TapeEntry {
            phase,
            think: Duration::ZERO,
            batch: Vec::<InferGemm>::new(),
            outputs: Vec::new(),
        };
        let tape = [
            entry(Phase::Prefill),
            entry(Phase::Decode),
            entry(Phase::Decode),
            entry(Phase::Decode),
        ];
        let values = [100.0, 3.0, 1.0, 2.0];
        assert_eq!(phase_median(&tape, &values, Phase::Decode), 2.0);
        assert_eq!(phase_median(&tape, &values, Phase::Prefill), 100.0);
        assert_eq!(phase_median(&tape[1..], &values[1..], Phase::Prefill), 0.0);
    }

    #[test]
    fn kernel_probes_report_positive_rates() {
        let mut tracer = Tracer::new(Instant::now());
        for (name, rate) in gemm_probes(&mut tracer) {
            assert!(rate > 0.0 && rate.is_finite(), "{name} = {rate}");
        }
        assert!(tracer.spans().iter().any(|s| s.name == "gemm.run_small_m"));
    }
}
