//! Serving one round of a workload: set-up, the closed-loop clients,
//! and the samples they collect. Everything here calls the product
//! through its public surface only.

use std::sync::Arc;
use std::time::{Duration, Instant};

use camp_core::backend::CampBackend;
use camp_core::dispatch::{DispatchOptions, DispatchSession, DispatchStats, Dispatcher};
use camp_core::{CampEngine, SimBackend};
use camp_infer::{
    BackendExec, DispatchExec, GemmExec, InferContext, InferError, InferSession, Model,
    ModelHandles,
};

use crate::clock::{speed, ClockMeter};
use crate::machine::{process_cpu_seconds, stolen_cpu_seconds};
use crate::sim::{SimExec, SimTally};
use crate::span::Tracer;
use crate::tape::{Phase, Recorder, TracedExec};
use crate::workload::{ClientInputs, Path, Workload};

/// Request ids of the background client start here, and those of the
/// main client in a contended round here, so one trace file can hold
/// every client's requests of both traced rounds.
pub const BACKGROUND_REQUEST_BASE: u32 = 1 << 24;
pub const CONTENDED_REQUEST_BASE: u32 = 1 << 23;

// ---- set-up ----------------------------------------------------------------

/// The backend a round serves from.
pub enum Server {
    Dispatcher(Dispatcher<CampEngine>),
    Engine(CampEngine),
    Sim(SimBackend),
}

/// A model registered on a fresh backend, with what building it cost.
pub struct Setup {
    pub model: Arc<Model>,
    pub handles: Arc<ModelHandles>,
    pub server: Server,
    /// `Model::new` + `Model::register` + backend/dispatcher
    /// construction, seconds as measured.
    pub setup_s: f64,
    /// Core speed right after the set-up, relative to the reference
    /// clock.
    pub speed: f64,
    /// The `Model::register` part alone, seconds.
    pub register_s: f64,
}

fn registered<B: CampBackend>(model: &Model, mut backend: B) -> (B, ModelHandles, f64) {
    let t = Instant::now();
    let handles = model.register(&mut backend);
    (backend, handles, t.elapsed().as_secs_f64())
}

/// Build `workload`'s model from `seed` and stand its backend up with
/// the product's defaults: one engine thread, default dispatcher
/// options, no environment reads by the benchmark.
pub fn set_up(workload: Workload, seed: u64) -> Setup {
    let t = Instant::now();
    let (cfg, vocab) = workload.model();
    let model = Arc::new(Model::new(cfg, vocab, seed));
    let (server, handles, register_s) = match workload.path() {
        Path::Sim => {
            let (b, h, r) = registered(&model, SimBackend::a64fx());
            (Server::Sim(b), h, r)
        }
        path => {
            let (engine, h, r) = registered(&model, CampEngine::with_threads(1));
            let server = if path == Path::Dispatcher {
                Server::Dispatcher(Dispatcher::with_options(engine, DispatchOptions::default()))
            } else {
                Server::Engine(engine)
            };
            (server, h, r)
        }
    };
    let setup_s = t.elapsed().as_secs_f64();
    let speed = speed(ClockMeter::new().read_us());
    Setup { model, handles: Arc::new(handles), server, setup_s, speed, register_s }
}

// ---- one request -----------------------------------------------------------

/// Serves the tokens of one request on its own fresh KV cache.
trait Stepper {
    fn prefill(&mut self, prompt: &[u32]) -> Result<u32, InferError>;
    fn decode(&mut self) -> Result<u32, InferError>;
}

/// The product's serving facade, as a user holds it.
struct Facade(InferSession<CampEngine>);

impl Stepper for Facade {
    fn prefill(&mut self, prompt: &[u32]) -> Result<u32, InferError> {
        self.0.prefill(prompt).map(|t| t.first)
    }

    fn decode(&mut self) -> Result<u32, InferError> {
        self.0.decode_step()
    }
}

/// Where a [`Stepwise`] stepper's GeMMs go.
trait Substrate {
    fn exec(&mut self, phase: Phase) -> impl GemmExec + '_;
}

struct ViaDispatcher<'a> {
    session: DispatchSession<CampEngine>,
    handles: &'a ModelHandles,
}

impl Substrate for ViaDispatcher<'_> {
    fn exec(&mut self, phase: Phase) -> impl GemmExec + '_ {
        DispatchExec::new(&mut self.session, self.handles, phase.priority())
    }
}

struct ViaEngine<'a> {
    engine: &'a mut CampEngine,
    handles: &'a ModelHandles,
}

impl Substrate for ViaEngine<'_> {
    fn exec(&mut self, _phase: Phase) -> impl GemmExec + '_ {
        BackendExec::new(&mut *self.engine, self.handles)
    }
}

struct ViaSim<'a> {
    backend: &'a mut SimBackend,
    handles: &'a ModelHandles,
    tally: &'a mut SimTally,
}

impl Substrate for ViaSim<'_> {
    fn exec(&mut self, phase: Phase) -> impl GemmExec + '_ {
        SimExec { backend: self.backend, handles: self.handles, tally: self.tally, phase }
    }
}

/// `InferContext` driven step by step over a substrate's executor —
/// what `InferSession` does inside, opened up so the executor can be
/// wrapped in a [`TracedExec`] when a recorder is present.
struct Stepwise<'a, S> {
    model: &'a Model,
    ctx: InferContext,
    sub: S,
    rec: Option<&'a mut Recorder>,
}

impl<S: Substrate> Stepwise<'_, S> {
    fn step(
        &mut self,
        phase: Phase,
        forward: impl FnOnce(&mut InferContext, &Model, &mut dyn GemmExec) -> Result<u32, InferError>,
    ) -> Result<u32, InferError> {
        let mut exec = self.sub.exec(phase);
        match self.rec.as_deref_mut() {
            None => forward(&mut self.ctx, self.model, &mut exec),
            Some(rec) => {
                rec.phase = phase;
                let id = rec.tracer.open(phase.step_span());
                rec.resumed = Instant::now();
                let out = forward(&mut self.ctx, self.model, &mut TracedExec { inner: exec, rec });
                rec.tracer.close(id);
                out
            }
        }
    }
}

impl<S: Substrate> Stepper for Stepwise<'_, S> {
    fn prefill(&mut self, prompt: &[u32]) -> Result<u32, InferError> {
        self.step(Phase::Prefill, |ctx, model, exec| {
            ctx.prefill_with(model, exec, prompt).map(|t| t.first)
        })
    }

    fn decode(&mut self) -> Result<u32, InferError> {
        self.step(Phase::Decode, |ctx, model, exec| ctx.decode_with(model, exec))
    }
}

/// What one client measured over one round. The `_ref` fields hold the
/// same timings at the reference clock: each request's, times the core
/// speed that the clock readings before and after the request give.
#[derive(Debug, Clone, Default)]
pub struct ClientRun {
    /// Request start (before the fresh session is built) to first token.
    pub ttft_ms: Vec<f64>,
    pub ttft_ref_ms: Vec<f64>,
    /// Gaps between consecutive tokens of a request.
    pub itl_ms: Vec<f64>,
    pub itl_ref_ms: Vec<f64>,
    pub requests: u64,
    /// Requests that returned an error or whose tokens differ from the
    /// golden stream.
    pub failed: u64,
    /// Tokens served: one per successful forward pass.
    pub served: u64,
    /// Prompt tokens of the requests attempted.
    pub prompt_tokens: u64,
    /// Seconds spent inside requests: the loop is closed and has no
    /// think time, so this is the client's wall time less the clock
    /// readings taken between requests.
    pub busy_s: f64,
    pub busy_ref_s: f64,
    /// Seconds spent reading the clock meter.
    pub clock_s: f64,
    pub first_error: Option<String>,
}

fn run_request(
    started: Instant,
    stepper: &mut dyn Stepper,
    prompt: &[u32],
    generate: usize,
    run: &mut ClientRun,
) -> Result<Vec<u32>, InferError> {
    let mut tokens = Vec::with_capacity(generate);
    tokens.push(stepper.prefill(prompt)?);
    let mut last = Instant::now();
    run.ttft_ms.push((last - started).as_secs_f64() * 1e3);
    run.served += 1;
    for _ in 1..generate {
        tokens.push(stepper.decode()?);
        let now = Instant::now();
        run.itl_ms.push((now - last).as_secs_f64() * 1e3);
        run.served += 1;
        last = now;
    }
    Ok(tokens)
}

/// Something a client can send whole requests to; each request gets a
/// fresh session and KV cache.
trait Target {
    fn request(
        &mut self,
        prompt: &[u32],
        generate: usize,
        rec: Option<&mut Recorder>,
        run: &mut ClientRun,
    ) -> Result<Vec<u32>, InferError>;
}

struct DispatcherTarget<'a> {
    dispatcher: &'a Dispatcher<CampEngine>,
    model: &'a Arc<Model>,
    handles: &'a Arc<ModelHandles>,
}

impl Target for DispatcherTarget<'_> {
    fn request(
        &mut self,
        prompt: &[u32],
        generate: usize,
        rec: Option<&mut Recorder>,
        run: &mut ClientRun,
    ) -> Result<Vec<u32>, InferError> {
        let started = Instant::now();
        match rec {
            None => {
                let session = InferSession::new(
                    self.dispatcher,
                    Arc::clone(self.model),
                    Arc::clone(self.handles),
                );
                run_request(started, &mut Facade(session), prompt, generate, run)
            }
            Some(rec) => {
                let mut stepper = Stepwise {
                    model: self.model,
                    ctx: InferContext::for_model(self.model),
                    sub: ViaDispatcher {
                        session: self.dispatcher.session(),
                        handles: self.handles,
                    },
                    rec: Some(rec),
                };
                run_request(started, &mut stepper, prompt, generate, run)
            }
        }
    }
}

struct EngineTarget<'a> {
    engine: &'a mut CampEngine,
    model: &'a Model,
    handles: &'a ModelHandles,
}

impl Target for EngineTarget<'_> {
    fn request(
        &mut self,
        prompt: &[u32],
        generate: usize,
        rec: Option<&mut Recorder>,
        run: &mut ClientRun,
    ) -> Result<Vec<u32>, InferError> {
        let started = Instant::now();
        let mut stepper = Stepwise {
            model: self.model,
            ctx: InferContext::for_model(self.model),
            sub: ViaEngine { engine: self.engine, handles: self.handles },
            rec,
        };
        run_request(started, &mut stepper, prompt, generate, run)
    }
}

struct SimTarget<'a> {
    backend: &'a mut SimBackend,
    model: &'a Model,
    handles: &'a ModelHandles,
    /// Per-request tallies, in request order.
    tallies: &'a mut Vec<SimTally>,
}

impl Target for SimTarget<'_> {
    fn request(
        &mut self,
        prompt: &[u32],
        generate: usize,
        rec: Option<&mut Recorder>,
        run: &mut ClientRun,
    ) -> Result<Vec<u32>, InferError> {
        let started = Instant::now();
        let mut tally = SimTally::default();
        let mut stepper = Stepwise {
            model: self.model,
            ctx: InferContext::for_model(self.model),
            sub: ViaSim { backend: self.backend, handles: self.handles, tally: &mut tally },
            rec,
        };
        let out = run_request(started, &mut stepper, prompt, generate, run);
        self.tallies.push(tally);
        out
    }
}

// ---- one client, one round -------------------------------------------------

/// How a client's requests are traced.
pub struct Tracing<'a> {
    pub rec: &'a mut Recorder,
    /// Id of the client's first request.
    pub request_base: u32,
    /// Record the first request onto the recorder's tape.
    pub tape_first: bool,
}

/// The closed loop: one request at a time, the next one only after the
/// previous one's last token, walking the prompt pool round-robin and
/// checking every token stream against its golden stream, and reading
/// the clock meter between requests. No request starts after
/// `deadline`; the one in flight then runs to its end.
fn client_loop(
    target: &mut dyn Target,
    inputs: &ClientInputs,
    deadline: Instant,
    mut tracing: Option<Tracing<'_>>,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut meter = ClockMeter::new();
    let mut pass_us = meter.read_us();
    while Instant::now() < deadline {
        let slot = run.requests as usize % inputs.prompts.len();
        let prompt = &inputs.prompts[slot];
        let span = tracing.as_mut().map(|t| {
            t.rec.taping = t.tape_first && run.requests == 0;
            t.rec.tracer.set_request(t.request_base + run.requests as u32);
            t.rec.tracer.open("request")
        });
        let rec = tracing.as_mut().map(|t| &mut *t.rec);
        let (firsts, gaps) = (run.ttft_ms.len(), run.itl_ms.len());
        let begun = Instant::now();
        let outcome = target.request(prompt, inputs.spec.generate, rec, &mut run);
        let busy_s = begun.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (tracing.as_mut(), span) {
            t.rec.tracer.close(id);
            t.rec.taping = false;
        }
        let pass_before = std::mem::replace(&mut pass_us, meter.read_us());
        let speed = speed((pass_before + pass_us) / 2.0);
        run.busy_s += busy_s;
        run.busy_ref_s += busy_s * speed;
        run.ttft_ref_ms.extend(run.ttft_ms[firsts..].iter().map(|ms| ms * speed));
        run.itl_ref_ms.extend(run.itl_ms[gaps..].iter().map(|ms| ms * speed));
        run.requests += 1;
        run.prompt_tokens += prompt.len() as u64;
        let error = match outcome {
            Ok(tokens) if tokens == inputs.golden[slot] => None,
            Ok(tokens) => Some(format!(
                "request {}: served {:?}… but RefExec serves {:?}…",
                run.requests - 1,
                &tokens[..tokens.len().min(8)],
                &inputs.golden[slot][..inputs.golden[slot].len().min(8)]
            )),
            Err(e) => Some(format!("request {}: {e}", run.requests - 1)),
        };
        if let Some(e) = error {
            run.failed += 1;
            run.first_error.get_or_insert(e);
        }
    }
    run.clock_s = meter.spent_s;
    run
}

// ---- one round -------------------------------------------------------------

/// Inputs of a workload's clients.
pub struct Inputs {
    pub main: ClientInputs,
    pub background: Option<ClientInputs>,
}

/// How to run one round.
#[derive(Debug, Clone, Copy)]
pub struct RoundPlan {
    /// Seconds during which clients start new requests.
    pub secs: f64,
    /// Wrap executors in `TracedExec` and record spans.
    pub traced: bool,
    /// Run the background client beside the main one.
    pub contended: bool,
}

/// Everything one round produced.
pub struct Round {
    pub main: ClientRun,
    pub background: Option<ClientRun>,
    /// The set-up's seconds at the reference clock.
    pub setup_s: f64,
    pub register_s: f64,
    /// Core speed over the round relative to the reference clock: the
    /// clients' time in requests at the reference clock over the same
    /// as measured.
    pub speed: f64,
    /// Process CPU seconds spent while the clients ran, the clock
    /// readings left out.
    pub cpu_s: Option<f64>,
    /// Share of the machine's CPU time the hypervisor withheld while
    /// the clients ran: a round with much of it measured the neighbours.
    pub steal_share: Option<f64>,
    /// The dispatcher's counters after the clients finished (it is
    /// fresh per round, so these are the round's deltas).
    pub dispatch: Option<DispatchStats>,
    /// Per-request simulator tallies (`sim_token`).
    pub sim: Vec<SimTally>,
    /// Of a traced round: the main client's recorder, then the
    /// background client's.
    pub recorders: Option<[Recorder; 2]>,
}

impl Round {
    pub fn attempted(&self) -> u64 {
        self.main.requests + self.background.as_ref().map_or(0, |b| b.requests)
    }

    pub fn failed(&self) -> u64 {
        self.main.failed + self.background.as_ref().map_or(0, |b| b.failed)
    }

    /// Prompt plus served tokens of both clients.
    pub fn tokens_processed(&self) -> u64 {
        let of = |c: &ClientRun| c.prompt_tokens + c.served;
        of(&self.main) + self.background.as_ref().map_or(0, of)
    }

    pub fn first_error(&self) -> Option<&str> {
        self.main
            .first_error
            .as_deref()
            .or(self.background.as_ref().and_then(|b| b.first_error.as_deref()))
    }
}

/// Set the workload up from scratch and run its clients once.
pub fn run_round(workload: Workload, seed: u64, inputs: &Inputs, plan: RoundPlan) -> Round {
    let Setup { model, handles, server, setup_s, speed: setup_speed, register_s } =
        set_up(workload, seed);
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(plan.secs);
    let mut recorders = plan.traced.then(|| [(); 2].map(|()| Recorder::new(Tracer::new(epoch))));
    let (main_rec, back_rec) = match &mut recorders {
        Some([a, b]) => (Some(a), Some(b)),
        None => (None, None),
    };
    let request_base = if plan.contended { CONTENDED_REQUEST_BASE } else { 0 };
    let main_tracing = main_rec.map(|rec| Tracing { rec, request_base, tape_first: true });
    let back_tracing = back_rec.map(|rec| Tracing {
        rec,
        request_base: BACKGROUND_REQUEST_BASE,
        tape_first: false,
    });
    let background_inputs = inputs.background.as_ref().filter(|_| plan.contended);

    let cpu_before = process_cpu_seconds();
    let stolen_before = stolen_cpu_seconds();
    let mut sim = Vec::new();
    let mut dispatch = None;
    let (main, background) = match server {
        Server::Dispatcher(dispatcher) => {
            let target =
                || DispatcherTarget { dispatcher: &dispatcher, model: &model, handles: &handles };
            let runs = std::thread::scope(|s| {
                let back = background_inputs.map(|bi| {
                    let mut t = target();
                    s.spawn(move || client_loop(&mut t, bi, deadline, back_tracing))
                });
                let main = client_loop(&mut target(), &inputs.main, deadline, main_tracing);
                (main, back.map(|h| h.join().expect("background client panicked")))
            });
            dispatch = Some(dispatcher.stats());
            // joins the stagers and the driver: no thread outlives the round
            drop(dispatcher.into_backend());
            runs
        }
        Server::Engine(mut engine) => {
            let mut t = EngineTarget { engine: &mut engine, model: &model, handles: &handles };
            (client_loop(&mut t, &inputs.main, deadline, main_tracing), None)
        }
        Server::Sim(mut backend) => {
            let mut t = SimTarget {
                backend: &mut backend,
                model: &model,
                handles: &handles,
                tallies: &mut sim,
            };
            (client_loop(&mut t, &inputs.main, deadline, main_tracing), None)
        }
    };
    let clients = || std::iter::once(&main).chain(&background);
    let clock_s: f64 = clients().map(|c| c.clock_s).sum();
    let cpu_s = cpu_before.zip(process_cpu_seconds()).map(|(a, b)| (b - a - clock_s).max(0.0));
    let speed =
        clients().map(|c| c.busy_ref_s).sum::<f64>() / clients().map(|c| c.busy_s).sum::<f64>();
    let cpus = std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64);
    let steal_share = stolen_before
        .zip(stolen_cpu_seconds())
        .map(|(a, b)| (b - a) / (epoch.elapsed().as_secs_f64() * cpus));
    Round {
        main,
        background,
        setup_s: setup_s * setup_speed,
        register_s,
        speed,
        cpu_s,
        steal_share,
        dispatch,
        sim,
        recorders,
    }
}
