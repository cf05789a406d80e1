//! End-to-end LLM serving sweep: concurrent tenants streaming
//! KV-cached decode steps over one engine, through two front ends:
//!
//! * `dispatcher`: one session of a [`Dispatcher`] per tenant, through
//!   `DispatchExec` — prefill batches at `Priority::Prefill`, decode
//!   steps at `Priority::Decode`, each batch run on its tenant's thread
//!   in its turn;
//! * `lock`: tenants take turns on a `Mutex<CampEngine>`, one
//!   `BackendExec` call per hold — the baseline the dispatcher's turn
//!   order has to beat.
//!
//! Two row groups, each front end alternating row by row:
//!
//! * **busy tenants**, at 1, 2 and 4 tenants: each prefills its own
//!   short prompt, then serves a fixed number of decode tokens (m = 1
//!   batches), recording every **inter-token latency** (ITL) — the time
//!   between consecutive tokens the user would see. A row reports
//!   tokens/s, ITL p50/p99, the mean prefill time and `waited`, the
//!   share of batches whose caller found the engine taken and waited
//!   for it;
//! * **mixed**: one tenant re-prefills 192-token prompts for as long as
//!   three others decode, and the row reports the decoders' ITL p50/p99.
//!   This is the row where turn order should win: under the dispatcher
//!   a waiting decode batch overtakes a waiting prefill batch, under the
//!   lock whoever the OS wakes goes first.
//!
//! It takes no arguments, writes no file, and nothing is gated on it
//! (`benchmark/` is the instrument that gates performance).
//! `CAMP_THREADS` sizes the engine's pool.

use camp_core::{CampEngine, DispatchOptions, DispatchSession, Dispatcher, Priority};
use camp_infer::{
    BackendExec, DispatchExec, GemmExec, InferContext, InferError, InferGemm, KvCache, KvPolicy,
    Model, ModelHandles,
};
use camp_models::TransformerConfig;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const VOCAB: usize = 64;
const PROMPT_LEN: usize = 8;
const STEPS: usize = 16;
/// The mixed group's long prompt, and its decoders' token count.
const LONG_PROMPT: usize = 192;
const MIXED_STEPS: usize = 32;

/// The `pct`-th percentile of ascending `sorted` seconds, in ms.
fn percentile_ms(sorted: &[f64], pct: usize) -> f64 {
    sorted[(sorted.len() - 1) * pct / 100] * 1e3
}

/// The engine behind a lock, counting the holds that had to wait.
struct Locked {
    engine: Mutex<CampEngine>,
    calls: AtomicU64,
    waited: AtomicU64,
}

/// `BackendExec` on the locked engine, one hold per batch.
struct LockedExec<'a> {
    locked: &'a Locked,
    handles: &'a ModelHandles,
}

impl GemmExec for LockedExec<'_> {
    fn run(&mut self, batch: Vec<InferGemm>) -> Result<Vec<Vec<i32>>, InferError> {
        let locked = self.locked;
        locked.calls.fetch_add(1, Ordering::Relaxed);
        let mut engine = locked.engine.try_lock().unwrap_or_else(|_| {
            locked.waited.fetch_add(1, Ordering::Relaxed);
            locked.engine.lock().expect("a tenant panicked on the engine")
        });
        BackendExec::new(&mut *engine, self.handles).run(batch)
    }
}

/// One front end over the engine.
enum Front {
    Dispatcher(Dispatcher<CampEngine>),
    Lock(Locked),
}

/// How one tenant reaches the engine.
enum Tenant<'a> {
    Session(DispatchSession<CampEngine>),
    Lock(&'a Locked),
}

impl Front {
    fn new(dispatched: bool, engine: CampEngine) -> Self {
        if dispatched {
            Front::Dispatcher(Dispatcher::with_options(engine, DispatchOptions::default()))
        } else {
            let calls = AtomicU64::new(0);
            Front::Lock(Locked { engine: Mutex::new(engine), calls, waited: AtomicU64::new(0) })
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Front::Dispatcher(_) => "dispatcher",
            Front::Lock(_) => "lock",
        }
    }

    fn tenant(&self) -> Tenant<'_> {
        match self {
            Front::Dispatcher(d) => Tenant::Session(d.session()),
            Front::Lock(locked) => Tenant::Lock(locked),
        }
    }

    /// The share of batches whose caller waited for the engine (0 when
    /// nothing ran), and the engine back.
    fn finish(self) -> (f64, CampEngine) {
        match self {
            Front::Dispatcher(d) => {
                let stats = d.stats();
                (stats.waited as f64 / stats.submitted.max(1) as f64, d.into_backend())
            }
            Front::Lock(locked) => {
                let share =
                    locked.waited.into_inner() as f64 / locked.calls.into_inner().max(1) as f64;
                (share, locked.engine.into_inner().expect("a tenant panicked on the engine"))
            }
        }
    }
}

impl Tenant<'_> {
    /// Serve a prefill of `prompt`, or with `None` one decode token, on
    /// `ctx`; returns the token served.
    fn step(
        &mut self,
        model: &Model,
        handles: &ModelHandles,
        ctx: &mut InferContext,
        prompt: Option<&[u32]>,
    ) -> u32 {
        let priority = if prompt.is_some() { Priority::Prefill } else { Priority::Decode };
        let served = match self {
            Tenant::Session(session) => {
                serve(model, ctx, &mut DispatchExec::new(session, handles, priority), prompt)
            }
            Tenant::Lock(locked) => serve(model, ctx, &mut LockedExec { locked, handles }, prompt),
        };
        served.expect("a served step")
    }
}

fn serve(
    model: &Model,
    ctx: &mut InferContext,
    exec: &mut dyn GemmExec,
    prompt: Option<&[u32]>,
) -> Result<u32, InferError> {
    match prompt {
        Some(prompt) => ctx.prefill_with(model, exec, prompt).map(|t| t.first),
        None => ctx.decode_with(model, exec),
    }
}

/// One decoding tenant: prefill `prompt`, then `steps` decode tokens,
/// returning the prefill latency and every inter-token latency. Decode
/// is closed loop by nature — token t+1 cannot start before token t
/// lands.
fn decode_loop(
    mut tenant: Tenant<'_>,
    model: &Model,
    handles: &ModelHandles,
    prompt: &[u32],
    steps: usize,
) -> (f64, Vec<f64>) {
    let mut ctx = InferContext::for_model(model);
    let t0 = Instant::now();
    tenant.step(model, handles, &mut ctx, Some(prompt));
    let prefill = t0.elapsed().as_secs_f64();
    let mut lats = Vec::with_capacity(steps);
    let mut last = Instant::now();
    for _ in 0..steps {
        tenant.step(model, handles, &mut ctx, None);
        let now = Instant::now();
        lats.push((now - last).as_secs_f64());
        last = now;
    }
    (prefill, lats)
}

fn prompt(tenant: usize, len: usize) -> Vec<u32> {
    (0..len).map(|i| (tenant as u32 * 31 + i as u32 * 7) % VOCAB as u32).collect()
}

fn main() {
    let threads = camp_core::backend::host_threads_from_env();
    const SEED: u64 = 0x11FE_2ACE;
    // big enough that decode GEMVs are real work, small enough that the
    // sweep runs in about a second
    let cfg = TransformerConfig { hidden: 128, ff_dim: 256, heads: 4, layers: 3, seq_len: 64 };
    let model = Model::new(cfg, VOCAB, SEED);

    println!("==============================================================");
    println!("llm_serve: concurrent tenants over one engine, dispatcher vs lock");
    println!(
        "model: {} layers x d={} ({} heads), ff={}, vocab={VOCAB}; engine threads={threads}",
        cfg.layers, cfg.hidden, cfg.heads, cfg.ff_dim,
    );
    println!("==============================================================");

    let mut engine = CampEngine::with_threads(threads);
    let handles = model.register(&mut engine);
    let (model, handles) = (&model, &handles);

    println!("busy tenants: each prompt={PROMPT_LEN}, then decode={STEPS}");
    for sessions in [1, 2, 4] {
        for dispatched in [true, false] {
            let front = Front::new(dispatched, engine);
            let t0 = Instant::now();
            let runs: Vec<(f64, Vec<f64>)> = std::thread::scope(|scope| {
                let tenants: Vec<_> = (0..sessions)
                    .map(|s| {
                        let tenant = front.tenant();
                        scope.spawn(move || {
                            decode_loop(tenant, model, handles, &prompt(s, PROMPT_LEN), STEPS)
                        })
                    })
                    .collect();
                tenants.into_iter().map(|t| t.join().expect("tenant thread panicked")).collect()
            });
            let wall = t0.elapsed().as_secs_f64();
            let name = front.name();
            let (waited, back) = front.finish();
            engine = back;
            let prefill: f64 = runs.iter().map(|r| r.0).sum();
            let mut lats: Vec<f64> = runs.into_iter().flat_map(|r| r.1).collect();
            assert_eq!(lats.len(), sessions * STEPS, "a tenant lost tokens");
            lats.sort_by(|a, b| a.total_cmp(b));
            println!(
                "{name:>10} sessions={sessions}: {:>8.1} tok/s  ITL p50 {:>6.2} ms  p99 {:>6.2} ms  \
                 prefill {:>6.2} ms  waited {waited:.2}",
                (sessions * STEPS) as f64 / wall,
                percentile_ms(&lats, 50),
                percentile_ms(&lats, 99),
                prefill / sessions as f64 * 1e3,
            );
        }
    }

    let decoders = 3;
    println!(
        "mixed: 1 tenant re-prefilling prompt={LONG_PROMPT} while {decoders} decode \
         {MIXED_STEPS} tokens each"
    );
    for dispatched in [true, false] {
        let front = Front::new(dispatched, engine);
        let done = &AtomicBool::new(false);
        let t0 = Instant::now();
        let (prefills, mut lats) = std::thread::scope(|scope| {
            let mut prefiller = front.tenant();
            let prefiller = scope.spawn(move || {
                let long = prompt(decoders, LONG_PROMPT);
                let mut prefills = 0;
                while !done.load(Ordering::Relaxed) {
                    let kv = KvCache::new(cfg.layers, cfg.hidden, LONG_PROMPT, KvPolicy::Reject);
                    prefiller.step(model, handles, &mut InferContext::new(kv), Some(&long));
                    prefills += 1;
                }
                prefills
            });
            let tenants: Vec<_> = (0..decoders)
                .map(|s| {
                    let tenant = front.tenant();
                    scope.spawn(move || {
                        decode_loop(tenant, model, handles, &prompt(s, PROMPT_LEN), MIXED_STEPS).1
                    })
                })
                .collect();
            let lats: Vec<f64> = tenants
                .into_iter()
                .flat_map(|t| t.join().expect("tenant thread panicked"))
                .collect();
            done.store(true, Ordering::Relaxed);
            (prefiller.join().expect("prefill tenant panicked"), lats)
        });
        let wall = t0.elapsed().as_secs_f64();
        let name = front.name();
        let (waited, back) = front.finish();
        engine = back;
        assert_eq!(lats.len(), decoders * MIXED_STEPS, "a tenant lost tokens");
        lats.sort_by(|a, b| a.total_cmp(b));
        println!(
            "{name:>10}: decode ITL p50 {:>6.2} ms  p99 {:>6.2} ms  {:>8.1} decode tok/s  \
             {prefills} prefills  waited {waited:.2}",
            percentile_ms(&lats, 50),
            percentile_ms(&lats, 99),
            lats.len() as f64 / wall,
        );
    }
}
