//! One GeMM API over interchangeable execution substrates.
//!
//! The workspace runs the same blocked CAMP GeMM on two substrates: the
//! **host-speed engine** ([`CampEngine`], parallel, serving-grade) and
//! the **cycle-accurate simulated driver** (`camp_gemm::driver`, the
//! paper's measurement instrument). [`CampBackend`] is the single
//! request/outcome surface over both: describe a problem once as a
//! [`GemmRequest`], execute it on either backend, and get back an
//! [`Outcome`] whose [`ExecStats`] says which substrate ran — callers
//! branch on stats, never on API. A request has one form from submission
//! to execution: every entry point validates a batch against the
//! backend's registry, then hands the requests themselves to its one
//! execution method, [`CampBackend::execute_prepared`].
//!
//! ```
//! use camp_core::backend::{CampBackend, ExecStats, SimBackend};
//! use camp_core::{CampEngine, DType, GemmRequest};
//! use camp_pipeline::CoreConfig;
//!
//! let (m, n, k) = (4, 8, 32);
//! let a: Vec<i8> = (0..m * k).map(|i| (i % 13) as i8 - 6).collect();
//! let w: Vec<i8> = (0..k * n).map(|i| (i % 15) as i8 - 7).collect();
//!
//! // one request, built once ...
//! let req = GemmRequest::dense(m, n, k, a, w).expect("well-formed");
//!
//! // ... executes on host silicon ...
//! let mut host = CampEngine::new();
//! let fast = host.execute(&req).expect("host outcome");
//!
//! // ... and on the simulated CAMP core, bit-identically
//! let mut sim = SimBackend::new(CoreConfig::a64fx());
//! let slow = sim.execute(&req).expect("sim outcome");
//! assert_eq!(fast.output.c, slow.output.c);
//!
//! // stats carry the substrate: instruction counts vs simulated cycles
//! assert!(matches!(fast.stats, ExecStats::Host(_)));
//! let ExecStats::Sim(stats) = slow.stats else { panic!() };
//! assert!(stats.cycles > 0);
//! ```
//!
//! Weight registration works on both substrates: every backend owns one
//! [`WeightRegistry`] and exposes it as itself ([`CampBackend::weights`],
//! [`CampBackend::weights_mut`]), and a
//! [`WeightHandle`](camp_gemm::weights::WeightHandle) from
//! `weights_mut().register(..)` resolves against the backend that issued
//! it — the host pre-packs the panel (zero B-packing on later calls), the
//! simulator keeps a raw mirror and counts every request's B pack, as the
//! paper's kernels run it. Every batch is validated against the registry
//! in place ([`WeightRegistry::view`]); evicted handles surface as
//! [`RequestError::StaleHandle`] instead of panicking.
//!
//! # Thread configuration
//!
//! Only the host engine has threads: `CAMP_THREADS`
//! ([`host_threads_from_env`]; unset or `0` means one worker per
//! available core), a deployment setting because cores differ per box.
//! Workers are spawned once per engine, and the count clamps through
//! [`resolve_threads`]: `0` resolves to the available parallelism and
//! the result is never below 1 (a zero worker count would divide the
//! row partition by zero). The simulated driver runs its block units in
//! order on the calling thread: it reports one core's cycles, so a
//! thread count could never change an answer.

use std::sync::Arc;

use camp_gemm::driver::{default_blocking, GemmOptions, SimSession};
use camp_gemm::host::{CpuFeatures, KernelInfo};
use camp_gemm::request::{GemmRequest, Operand, RequestError};
use camp_gemm::weights::WeightRegistry;
use camp_gemm::{CMatrix, Method};
use camp_pipeline::{CoreConfig, SimStats};

use crate::dispatch::Dispatcher;
use crate::engine::{CampEngine, EngineStats};

// ---- thread configuration (the single source of truth) --------------------

/// Clamp a requested worker count the way the host engine does: `0` means
/// one worker per available core, and the result is never below 1.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        requested
    }
    .max(1)
}

/// Host-engine worker count from the environment: `CAMP_THREADS`,
/// resolved through [`resolve_threads`] (unset or `0` = all cores).
pub fn host_threads_from_env() -> usize {
    resolve_threads(std::env::var("CAMP_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(0))
}

// ---- outcomes -------------------------------------------------------------

/// Which substrate executed a request, with that substrate's native
/// statistics. Callers branch on this — not on which API they called.
// Variant sizes differ (SimStats carries the full cache/stall census),
// but an ExecStats lives next to a heap-allocated output matrix — the
// inline size is noise, and boxing would tax every stats read.
#[allow(clippy::large_enum_variant)]
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum ExecStats {
    /// Host-speed engine: instruction-stream accounting
    /// (camp issues, vector loads/stores, pack traffic).
    Host(EngineStats),
    /// Cycle-accurate simulator: pipeline/cache statistics in the
    /// **single-core view** (cycles are the serialized sum over every
    /// block of every request — the paper's frame of reference).
    Sim(SimStats),
}

impl ExecStats {
    /// Multiply-accumulates represented, whichever substrate ran.
    pub fn macs(&self) -> u64 {
        match self {
            ExecStats::Host(s) => s.macs,
            ExecStats::Sim(s) => s.macs,
        }
    }

    /// The host stats, if the host engine ran.
    pub fn as_host(&self) -> Option<&EngineStats> {
        match self {
            ExecStats::Host(s) => Some(s),
            ExecStats::Sim(_) => None,
        }
    }

    /// The simulator stats, if the simulated driver ran.
    pub fn as_sim(&self) -> Option<&SimStats> {
        match self {
            ExecStats::Sim(s) => Some(s),
            ExecStats::Host(_) => None,
        }
    }
}

/// One computed C matrix.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// Row-major `m × n` result (i32 accumulation, wrapping — identical
    /// across substrates).
    pub c: Vec<i32>,
    /// Rows of `c`.
    pub m: usize,
    /// Columns of `c`.
    pub n: usize,
}

impl Output {
    /// Build an output. The struct is `#[non_exhaustive]`,
    /// so out-of-crate [`CampBackend`] implementations — adapters, the
    /// model-test mocks — construct through here.
    pub fn new(c: Vec<i32>, m: usize, n: usize) -> Self {
        Output { c, m, n }
    }
}

/// Result of one executed request: the output plus the substrate's
/// statistics.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The computed matrix.
    pub output: Output,
    /// Which substrate ran, and what it measured.
    pub stats: ExecStats,
}

impl Outcome {
    /// Build an outcome (see [`Output::new`] for why this exists).
    pub fn new(output: Output, stats: ExecStats) -> Self {
        Outcome { output, stats }
    }
}

/// Result of one executed batch: per-request outputs (input order) plus
/// the batch-merged statistics.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// One output per request, in input order.
    pub outputs: Vec<Output>,
    /// Merged statistics of the whole batch.
    pub stats: ExecStats,
}

impl BatchOutcome {
    /// Build a batch outcome (see [`Output::new`] for why this exists).
    pub fn new(outputs: Vec<Output>, stats: ExecStats) -> Self {
        BatchOutcome { outputs, stats }
    }
}

// ---- the trait ------------------------------------------------------------

/// Why a request handed to [`CampBackend::execute_prepared`] resolves:
/// every entry point validates a batch against the backend's registry
/// first.
pub(crate) const VALIDATED: &str = "requests are validated before they run";

/// One GeMM backend: executes [`GemmRequest`]s, owns a weight registry,
/// and can be served by a [`Dispatcher`].
///
/// A backend implements five methods: its identity ([`CampBackend::name`],
/// [`CampBackend::kernel_info`]), its registry ([`CampBackend::weights`],
/// [`CampBackend::weights_mut`]) and execution, as one method,
/// [`CampBackend::execute_prepared`], and every entry point —
/// [`CampBackend::execute`], [`CampBackend::execute_batch`], a
/// dispatcher's `run` and its `submit` → `wait` — hands it
/// the batch's requests as they were submitted, once they are validated.
/// It sees the whole batch and owns the backend's buffers, so
/// everything that spans requests — packing a dense B once for every
/// request that shares it — happens there. The same batch therefore
/// reports the same statistics whichever way it came in.
///
/// Implementations must be **bit-identical** to each other for i32-
/// accumulating camp kernels: the same request batch produces the same
/// bytes on every backend (property-tested in `tests/backend_parity.rs`).
pub trait CampBackend {
    /// Stable human-readable identity ("host-engine",
    /// "cycle-accurate-sim", …).
    fn name(&self) -> &'static str;

    /// Which micro-kernel tier this backend computes with: the host
    /// engine reports its dispatched [`camp_gemm::host::HostKernel`]
    /// (scalar / avx2 / avx512 / avx512vnni / amx plus the probed
    /// [`CpuFeatures`] and active blocking); the simulator reports its
    /// synthetic camp tier and the blocking of its simulated core (the
    /// simulated VVA kernel is the same regardless of host silicon).
    fn kernel_info(&self) -> KernelInfo;

    /// The backend's weight registry: what handle operands resolve to,
    /// and what every batch is validated against
    /// ([`WeightRegistry::view`]).
    fn weights(&self) -> &WeightRegistry;

    /// The registry to register into, evict from or clear. A handle
    /// resolves only against the backend that issued it, and an evicted
    /// one fails with [`RequestError::StaleHandle`]. The registry's mode
    /// is the backend's (packed panels on the host, a raw mirror on the
    /// simulator): replace it only with one of the same mode.
    ///
    /// ```
    /// use camp_core::backend::CampBackend;
    /// use camp_core::{CampEngine, DType};
    ///
    /// let (n, k) = (8, 32);
    /// let w: Vec<i8> = (0..k * n).map(|i| (i % 15) as i8 - 7).collect();
    ///
    /// let mut engine = CampEngine::new();
    /// let weights = engine.weights_mut().register(n, k, &w, DType::I8);
    /// assert_eq!(engine.weights().len(), 1);
    /// assert_eq!(engine.weights().try_meta(weights).unwrap().k, k);
    /// ```
    fn weights_mut(&mut self) -> &mut WeightRegistry;

    /// Execute a batch of requests; outputs come back in input order,
    /// with handle operands resolved against this backend's registry.
    /// Every
    /// request is validated before any runs, so a malformed or stale one
    /// fails the batch with a typed error and no work done.
    fn execute_batch(&mut self, reqs: &[GemmRequest]) -> Result<BatchOutcome, RequestError> {
        for req in reqs {
            req.resolve(self.weights().view())?;
        }
        Ok(self.execute_prepared(reqs.to_vec()))
    }

    /// Execute one request.
    fn execute(&mut self, req: &GemmRequest) -> Result<Outcome, RequestError> {
        let mut batch = self.execute_batch(std::slice::from_ref(req))?;
        let output = batch.outputs.pop().expect("one request in, one output out");
        Ok(Outcome { output, stats: batch.stats })
    }

    /// Execute one batch of requests already validated against
    /// [`CampBackend::weights`], on whichever thread holds the
    /// backend (the caller holding a [`Dispatcher`]'s turn, or
    /// [`CampBackend::execute_batch`]'s), so this is infallible. Each
    /// request runs as it would alone, and the batch's stats are the sum
    /// of its requests': the host engine packs a dense B for each
    /// request that reads it through a panel, while served weights are
    /// registered handles and pack nothing.
    fn execute_prepared(&mut self, batch: Vec<GemmRequest>) -> BatchOutcome;

    /// Upgrade the backend into a serving [`Dispatcher`] with
    /// [`crate::dispatch::DispatchOptions::default`]: any number of
    /// sessions ([`Dispatcher::session`]) taking turns on this one
    /// backend, with priorities and per-session admission control.
    /// Register weights first — submissions validate against the
    /// registrations present now.
    fn dispatch(self) -> Dispatcher<Self>
    where
        Self: Sized + Send + 'static,
    {
        Dispatcher::new(self)
    }
}

// ---- the host engine as a backend -----------------------------------------

impl CampBackend for CampEngine {
    fn name(&self) -> &'static str {
        "host-engine"
    }

    fn kernel_info(&self) -> KernelInfo {
        CampEngine::kernel_info(self)
    }

    fn weights(&self) -> &WeightRegistry {
        &self.weights
    }

    fn weights_mut(&mut self) -> &mut WeightRegistry {
        &mut self.weights
    }

    fn execute_prepared(&mut self, batch: Vec<GemmRequest>) -> BatchOutcome {
        let (outputs, stats) = self.compute_batch(&batch);
        BatchOutcome { outputs, stats: ExecStats::Host(stats) }
    }
}

// ---- the simulated backend ------------------------------------------------

/// The cycle-accurate substrate behind the unified API: each request of
/// a batch runs on the simulated driver (`camp_gemm::driver`) as one
/// [`SimSession::simulate`] call, in order on the calling thread, and
/// the batch's stats are their [`SimStats::merge`]. The session is
/// built at the first batch: one simulator, reset for every (jc, pc)
/// block unit. The dtype selects the camp kernel (`camp.s8` /
/// `camp.s4`), exactly like the host engine.
///
/// Weights registered here live in a *simulated* registry: a raw
/// mirror of the bytes with the same handle semantics (identity,
/// generations, eviction) as the host registry, so the same
/// [`GemmRequest`] — handle operands included — executes on both
/// substrates. Every request packs its own B, so it counts exactly what
/// it counts alone, whatever else its batch holds. The session times
/// each block-unit shape once and runs repeats on the functional machine
/// alone, their counts taken from its memo (registered weights and dense
/// per-head operands alike); the memo keys on shapes, not handles, so
/// eviction leaves it alone.
///
/// Every problem is simulated at full size: the MAC-budget clamp is a
/// figure-harness rule ([`GemmOptions::mac_budget`] of
/// `camp_gemm::simulate_gemm`), which [`SimSession::simulate`] does not
/// read.
#[derive(Debug)]
pub struct SimBackend {
    core: CoreConfig,
    weights: WeightRegistry,
    /// Built at the first batch, so construction allocates no simulator.
    session: Option<SimSession>,
}

impl SimBackend {
    /// Simulated backend for `core` (no verify overhead — correctness
    /// is the parity test suite's job).
    pub fn new(core: CoreConfig) -> Self {
        SimBackend { core, weights: WeightRegistry::raw_mirror(), session: None }
    }

    /// Convenience: the paper's A64FX-like core.
    pub fn a64fx() -> Self {
        SimBackend::new(CoreConfig::a64fx())
    }

    /// The simulated core configuration.
    pub fn core(&self) -> CoreConfig {
        self.core
    }
}

impl CampBackend for SimBackend {
    fn name(&self) -> &'static str {
        "cycle-accurate-sim"
    }

    fn kernel_info(&self) -> KernelInfo {
        // The simulated camp kernel is the same VVA program on any host;
        // the probe is reported for context, not dispatch. camp.s8 and
        // camp.s4 share the 4×4 tile and block alike on each core.
        KernelInfo {
            tier: "sim-camp".to_string(),
            simd: false,
            features: CpuFeatures::detect(),
            int_tile: (4, 4),
            int_blocking: default_blocking(self.core, Method::Camp8),
        }
    }

    fn weights(&self) -> &WeightRegistry {
        &self.weights
    }

    fn weights_mut(&mut self) -> &mut WeightRegistry {
        &mut self.weights
    }

    fn execute_prepared(&mut self, reqs: Vec<GemmRequest>) -> BatchOutcome {
        let opts = GemmOptions { verify: false, ..Default::default() };
        let core = self.core;
        let session = self.session.get_or_insert_with(|| SimSession::new(core));
        let mut stats = SimStats::default();
        let outputs = reqs
            .iter()
            .map(|req| {
                let r = req.resolve(self.weights.view()).expect(VALIDATED);
                // degenerate requests get the host engine's rule (empty,
                // or all-zero when only k is 0) and simulate nothing
                if r.is_degenerate() {
                    return Output { c: vec![0i32; r.m * r.n], m: r.m, n: r.n };
                }
                let raw: Arc<[i8]>;
                let b = match req.weights() {
                    Operand::Dense(b) => b,
                    Operand::Handle(h) => {
                        raw = self.weights.raw(*h).expect(VALIDATED);
                        &raw
                    }
                };
                let method = Method::for_dtype(r.dtype);
                let result = session.simulate(method, (r.m, r.n, r.k), req.activation(), b, &opts);
                stats.merge(&result.stats);
                let CMatrix::I32(padded) = result.c else {
                    unreachable!("camp kernels accumulate i32");
                };
                // unpad the requested m×n region (np = result.n) into an
                // exactly sized buffer, so `padded` is freed here for the
                // next request to reuse (unpadding in place and handing
                // `padded` out measured ~4% fewer `sim_token` tokens/s on
                // a 2-vCPU Xeon VM)
                let mut c = vec![0i32; r.m * r.n];
                for i in 0..r.m {
                    c[i * r.n..(i + 1) * r.n]
                        .copy_from_slice(&padded[i * result.n..i * result.n + r.n]);
                }
                Output { c, m: r.m, n: r.n }
            })
            .collect();
        BatchOutcome { outputs, stats: ExecStats::Sim(stats) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::Priority;
    use camp_gemm::gemm_i32_ref;
    use camp_gemm::weights::DType;

    fn fill(len: usize, seed: i32) -> Vec<i8> {
        (0..len).map(|i| ((i as i32 * seed) % 16 - 8) as i8).collect()
    }

    #[test]
    fn thread_resolution_clamps_like_the_engines() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn one_request_runs_on_both_substrates_bit_identically() {
        let (m, n, k) = (5, 7, 33);
        let a = fill(m * k, 3);
        let w = fill(k * n, 5);
        let req = GemmRequest::dense(m, n, k, a.clone(), w.clone()).unwrap();
        let reference = gemm_i32_ref(m, n, k, &a, &w);

        let mut host = CampEngine::with_threads(2);
        let fast = host.execute(&req).unwrap();
        assert_eq!(fast.output.c, reference);
        assert_eq!((fast.output.m, fast.output.n), (m, n));
        assert!(fast.stats.as_host().is_some());
        assert_eq!(fast.stats.macs(), (m * n * k) as u64);

        let mut sim = SimBackend::a64fx();
        let slow = sim.execute(&req).unwrap();
        assert_eq!(slow.output.c, reference);
        assert!(slow.stats.as_sim().unwrap().cycles > 0);
        assert!(slow.stats.as_host().is_none());
    }

    #[test]
    fn handle_requests_execute_on_both_substrates() {
        let (m, n, k) = (4, 8, 40);
        let a = fill(m * k, 3);
        let w = fill(k * n, 5);
        let reference = gemm_i32_ref(m, n, k, &a, &w);

        let mut host = CampEngine::new();
        let mut sim = SimBackend::a64fx();
        let hh = host.weights_mut().register(n, k, &w, DType::I4);
        let sh = sim.weights_mut().register(n, k, &w, DType::I4);

        let host_req = GemmRequest::with_weights(m, a.clone(), hh).unwrap();
        let sim_req = GemmRequest::with_weights(m, a.clone(), sh).unwrap();
        let fast = host.execute(&host_req).unwrap();
        let slow = sim.execute(&sim_req).unwrap();
        assert_eq!(fast.output.c, reference);
        assert_eq!(slow.output.c, reference);
        // the i4 registration drives the kernel on both sides
        assert_eq!(host.weights().try_meta(hh).unwrap().dtype, DType::I4);
        assert_eq!(sim.weights().try_meta(sh).unwrap().dtype, DType::I4);

        // handles do not cross substrates
        let crossed = host.execute(&sim_req).unwrap_err();
        assert_eq!(crossed, RequestError::ForeignHandle);
    }

    #[test]
    fn stale_handles_err_instead_of_panicking() {
        // same behavior on both substrates, via the trait
        fn check<B: CampBackend>(mut backend: B, n: usize, k: usize, w: &[i8]) {
            let h = backend.weights_mut().register(n, k, w, DType::I8);
            let evicted = backend.weights_mut().evict(h).unwrap();
            assert_eq!((evicted.n, evicted.k), (n, k));
            let req = GemmRequest::with_weights(2, vec![0i8; 2 * k], h).unwrap();
            assert_eq!(backend.execute(&req).unwrap_err(), RequestError::StaleHandle);
            assert_eq!(backend.weights().try_meta(h).unwrap_err(), RequestError::StaleHandle);
            assert_eq!(backend.weights_mut().evict(h).unwrap_err(), RequestError::StaleHandle);
        }
        let (n, k) = (4, 16);
        let w = fill(k * n, 5);
        check(CampEngine::new(), n, k, &w);
        check(SimBackend::a64fx(), n, k, &w);
    }

    #[test]
    fn oversized_requests_err_instead_of_panicking() {
        // m·k of a handle request wraps to 0 unchecked (2^60·16 = 2^64),
        // matching its empty activation; the m×n result cannot exist
        fn check<B: CampBackend>(mut backend: B) {
            let (n, k) = (4, 16);
            let w = fill(k * n, 5);
            let h = backend.weights_mut().register(n, k, &w, DType::I8);
            let hostile = GemmRequest::with_weights(1 << 60, vec![], h).unwrap();
            let fine = GemmRequest::with_weights(2, fill(2 * k, 3), h).unwrap();
            let err = backend.execute_batch(&[fine.clone(), hostile]).unwrap_err();
            assert_eq!(err, RequestError::Oversized("A"));
            let out = backend.execute(&fine).unwrap();
            assert_eq!(out.output.c, gemm_i32_ref(2, n, k, &fill(2 * k, 3), &w));
        }
        check(CampEngine::new());
        check(SimBackend::a64fx());
    }

    #[test]
    fn an_out_of_range_i4_activation_is_refused_on_every_entry_point() {
        // the dtype comes from an i4 registration, so the builder cannot
        // range-check A: `resolve` does, before any kernel runs
        fn check<B: CampBackend + Send + 'static>(mut backend: B) {
            let (n, k) = (4, 8);
            let w = fill(k * n, 5);
            let h = backend.weights_mut().register(n, k, &w, DType::I4);
            let mut a = fill(2 * k, 3);
            a[0] = 100;
            let hostile = GemmRequest::with_weights(2, a, h).unwrap();
            let fine = GemmRequest::with_weights(2, fill(2 * k, 3), h).unwrap();
            let want = gemm_i32_ref(2, n, k, &fill(2 * k, 3), &w);
            let refused = Err(RequestError::OperandRange("A"));
            let err = backend.execute_batch(&[fine.clone(), hostile.clone()]).map(|_| ());
            assert_eq!(err, refused);
            assert_eq!(backend.execute(&fine).unwrap().output.c, want);
            let dispatcher = backend.dispatch();
            let mut session = dispatcher.session();
            assert_eq!(session.submit(vec![hostile.clone()]).map(|_| ()), refused);
            let run = session.run(vec![fine.clone(), hostile], Priority::Decode, None);
            assert_eq!(run.map(|_| ()), refused);
            let t = session.submit(vec![fine.clone()]).unwrap();
            assert_eq!(session.wait(t).unwrap().outputs[0].c, want);
            let out = session.run(vec![fine], Priority::Decode, None).unwrap();
            assert_eq!(out.outputs[0].c, want);
            drop(session);
            let _ = dispatcher.into_backend();
        }
        check(CampEngine::new());
        check(SimBackend::a64fx());
    }

    #[test]
    fn degenerate_requests_follow_the_host_rule_on_both_substrates() {
        // k = 0 yields an all-zero m×n C; m or n = 0 yields empty
        let zero_k = GemmRequest::dense(3, 4, 0, vec![], vec![]).unwrap();
        let zero_m = GemmRequest::dense(0, 4, 4, vec![], vec![0i8; 16]).unwrap();
        let mut host = CampEngine::new();
        let mut sim = SimBackend::a64fx();
        for req in [&zero_k, &zero_m] {
            let fast = host.execute(req).unwrap();
            let slow = sim.execute(req).unwrap();
            assert_eq!(fast.output.c, slow.output.c);
        }
        assert_eq!(host.execute(&zero_k).unwrap().output.c, vec![0i32; 12]);
        assert!(sim.execute(&zero_m).unwrap().output.c.is_empty());
    }

    #[test]
    fn a_simulated_batch_counts_as_its_requests_run_alone() {
        // two requests on one B: a shared dense Arc, then one registered
        // weight at the same m twice (the second takes the first's
        // counts from the memo). Each request counts its own B pack, so
        // the batch counts what the two count on fresh backends.
        fn check(requests: impl Fn(&mut SimBackend) -> Vec<GemmRequest>) {
            let mut sim = SimBackend::a64fx();
            let reqs = requests(&mut sim);
            let batch = sim.execute_batch(&reqs).unwrap();
            let mut alone = SimStats::default();
            for (i, out) in batch.outputs.iter().enumerate() {
                let mut fresh = SimBackend::a64fx();
                let req = requests(&mut fresh).swap_remove(i);
                let solo = fresh.execute(&req).unwrap();
                assert_eq!(*out, solo.output);
                alone.merge(solo.stats.as_sim().unwrap());
            }
            assert_eq!(batch.stats, ExecStats::Sim(alone));
        }
        let (m, n, k) = (4, 8, 32);
        let w: Arc<[i8]> = fill(k * n, 5).into();
        let acts = [fill(m * k, 3), fill(m * k, 9)];
        check(|_| {
            acts.iter()
                .map(|a| GemmRequest::dense(m, n, k, a.clone(), Arc::clone(&w)).unwrap())
                .collect()
        });
        check(|sim| {
            let h = sim.weights_mut().register(n, k, &w, DType::I8);
            acts.iter().map(|a| GemmRequest::with_weights(m, a.clone(), h).unwrap()).collect()
        });
    }

    fn memoized_units(sim: &SimBackend) -> usize {
        sim.session.as_ref().map_or(0, SimSession::memoized_units)
    }

    #[test]
    fn a_warm_simulator_answers_exactly_like_cold_ones() {
        // n spans two column strips of the A64FX blocking (two units per
        // problem); m = 1 and m = 9 are two plans of one weight, and the
        // third call batches both. The last two calls are a decode
        // step's attention: four heads of dense Kᵀ (32 × 44) and V
        // (44 × 32) operands, each head its own bytes on one shape.
        let (n, k) = (520, 40);
        let w = fill(k * n, 5);
        let (dh, pos) = (32, 44);
        let heads = |kk: usize, nn: usize| -> Vec<GemmRequest> {
            (0..4)
                .map(|h| {
                    let (a, b) = (fill(kk, 3 + 2 * h), fill(kk * nn, 7 + 2 * h));
                    GemmRequest::dense(1, nn, kk, a, b).unwrap()
                })
                .collect()
        };
        let calls = |h| {
            let one = GemmRequest::with_weights(1, fill(k, 3), h).unwrap();
            let nine = GemmRequest::with_weights(9, fill(9 * k, 7), h).unwrap();
            [vec![one.clone()], vec![nine.clone()], vec![one, nine], heads(dh, pos), heads(pos, dh)]
        };
        for dtype in [DType::I8, DType::I4] {
            let backend = || {
                let mut sim = SimBackend::a64fx();
                let h = sim.weights_mut().register(n, k, &w, dtype);
                (sim, h)
            };
            // every call on a backend of its own: cold, but for the
            // heads after a call's first, which hit its entry
            let cold: Vec<BatchOutcome> = (0..5)
                .map(|i| {
                    let (mut sim, h) = backend();
                    sim.execute_batch(&calls(h)[i]).unwrap()
                })
                .collect();
            // every call twice on one backend: the second pass, and
            // every head after the first, hits the memo
            let (mut warm, h) = backend();
            let mut units = 0;
            for pass in 0..2 {
                for (i, call) in calls(h).iter().enumerate() {
                    let got = warm.execute_batch(call).unwrap();
                    assert_eq!(got, cold[i], "{dtype:?}: pass {pass}, call {i}");
                }
                let now = memoized_units(&warm);
                assert!(pass == 0 || now == units, "{dtype:?}: grew");
                units = now;
            }
            // two weight plans of two units each, plus one per attention
            // shape: the i8 heads' dense B runs under camp.s8, whatever
            // dtype the weight has
            assert_eq!(units, 2 * 2 + 2, "{dtype:?}");
        }
    }

    #[test]
    fn two_weights_of_one_shape_share_one_memo_entry() {
        let (m, n, k) = (2, 16, 64);
        let a = fill(m * k, 3);
        let (w1, w2) = (fill(k * n, 5), fill(k * n, 9));
        let mut sim = SimBackend::a64fx();
        let h1 = sim.weights_mut().register(n, k, &w1, DType::I8);
        let h2 = sim.weights_mut().register(n, k, &w2, DType::I8);
        let first = sim.execute(&GemmRequest::with_weights(m, a.clone(), h1).unwrap()).unwrap();
        assert_eq!(memoized_units(&sim), 1);
        let second = sim.execute(&GemmRequest::with_weights(m, a.clone(), h2).unwrap()).unwrap();
        assert_eq!(memoized_units(&sim), 1, "the second weight hits the first one's entry");
        assert_eq!(first.output.c, gemm_i32_ref(m, n, k, &a, &w1));
        assert_eq!(second.output.c, gemm_i32_ref(m, n, k, &a, &w2));
        assert_eq!(first.stats, second.stats);

        // eviction leaves the memo alone: it holds no handle
        sim.weights_mut().evict(h1).unwrap();
        sim.weights_mut().clear();
        assert_eq!(memoized_units(&sim), 1);
    }

    #[test]
    fn a_full_memo_empties_and_still_answers_exactly() {
        // 264 shapes, one unit each: past the bound, so the memo
        // empties once on the way
        let shapes: Vec<(usize, usize, DType)> = [DType::I8, DType::I4]
            .into_iter()
            .flat_map(|d| (1..=12).flat_map(move |m| (1..=11).map(move |j| (4 * m - 3, 4 * j, d))))
            .collect();
        assert!(shapes.len() > SimSession::MEMO_UNITS);
        let k = 8;
        let request = |&(m, n, dtype): &(usize, usize, DType)| {
            GemmRequest::builder()
                .m(m)
                .n(n)
                .k(k)
                .activation(fill(m * k, 3))
                .weights(Operand::from_dense(fill(k * n, 5)))
                .dtype(dtype)
                .build()
                .unwrap()
        };
        let mut sim = SimBackend::a64fx();
        for shape in &shapes {
            sim.execute(&request(shape)).unwrap();
            assert!(memoized_units(&sim) <= SimSession::MEMO_UNITS, "{shape:?}");
        }
        assert_eq!(memoized_units(&sim), shapes.len() - SimSession::MEMO_UNITS);
        // the first shapes were emptied out and are timed again, the last
        // ones hit: both answer like a cold backend
        for shape in shapes[..3].iter().chain(&shapes[shapes.len() - 3..]) {
            let got = sim.execute(&request(shape)).unwrap();
            assert_eq!(got, SimBackend::a64fx().execute(&request(shape)).unwrap(), "{shape:?}");
        }
    }

    #[test]
    fn kernel_info_identifies_each_substrate() {
        let host = CampEngine::new();
        let info = CampBackend::kernel_info(&host);
        assert!(["scalar", "avx2", "avx512", "avx512vnni", "amx"].contains(&info.tier.as_str()));
        // 4×(multiple of 4) on the panel nest, 32×32 on `amx`
        assert_eq!(info.int_tile.0 % 4, 0);
        assert_eq!(info.int_tile.1 % 4, 0);
        assert!(info.int_blocking.0 > 0);
        // the Display form is what serving logs print
        assert!(info.to_string().contains(&info.tier));

        let sim = SimBackend::a64fx();
        assert_ne!(CampBackend::name(&host), sim.name());
        let sinfo = sim.kernel_info();
        assert_eq!(sinfo.tier, "sim-camp");
        assert!(!sinfo.simd);
        assert_eq!(sinfo.int_tile, (4, 4));
        // the blocking the simulated camp kernels run, per core
        assert_eq!(sinfo.int_blocking, (128, 512, 4096));
        let edge = SimBackend::new(CoreConfig::edge_riscv()).kernel_info();
        assert_eq!(edge.int_blocking, (64, 128, 2048));
    }
}
