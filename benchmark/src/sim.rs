//! The simulator side: an executor that keeps the `SimStats` the
//! product's `BackendExec` drops, and the `sim.*` metrics made of them.

use std::time::Instant;

use camp_bench::SimRunner;
use camp_core::backend::CampBackend;
use camp_core::SimBackend;
use camp_gemm::{GemmOptions, Method};
use camp_infer::{GemmExec, InferError, InferGemm, ModelHandles};
use camp_models::LlmModel;
use camp_pipeline::{CoreConfig, SimStats};

use crate::tape::{to_requests, Phase};

/// Simulated statistics of one request, split by phase, plus what
/// simulating it cost the host.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTally {
    pub prefill: SimStats,
    pub decode: SimStats,
    /// GeMMs simulated.
    pub gemms: u64,
    /// Host seconds inside `SimBackend::execute_batch`.
    pub host_s: f64,
}

impl SimTally {
    /// Both phases, sequentially composed.
    pub fn total(&self) -> SimStats {
        let mut t = self.prefill;
        t.merge(&self.decode);
        t
    }

    /// The simulated statistics alone — what must repeat exactly.
    pub fn simulated(&self) -> (SimStats, SimStats) {
        (self.prefill, self.decode)
    }

    pub fn add(&mut self, other: &SimTally) {
        self.prefill.merge(&other.prefill);
        self.decode.merge(&other.decode);
        self.gemms += other.gemms;
        self.host_s += other.host_s;
    }
}

/// `BackendExec` for the simulator that tallies each batch's statistics.
pub struct SimExec<'a> {
    pub backend: &'a mut SimBackend,
    pub handles: &'a ModelHandles,
    pub tally: &'a mut SimTally,
    pub phase: Phase,
}

impl GemmExec for SimExec<'_> {
    fn run(&mut self, batch: Vec<InferGemm>) -> Result<Vec<Vec<i32>>, InferError> {
        let reqs = to_requests(&batch, self.handles)?;
        let t = Instant::now();
        let outcome = self.backend.execute_batch(&reqs)?;
        self.tally.host_s += t.elapsed().as_secs_f64();
        self.tally.gemms += reqs.len() as u64;
        let stats = outcome.stats.as_sim().expect("the simulated backend reports SimStats");
        match self.phase {
            Phase::Prefill => self.tally.prefill.merge(stats),
            Phase::Decode => self.tally.decode.merge(stats),
        }
        Ok(outcome.outputs.into_iter().map(|o| o.c).collect())
    }
}

/// MAC clamp of the speed-up probe: BERT-base's feed-forward GeMM is
/// 302 M MACs, far beyond what a benchmark run can simulate.
const SPEEDUP_MAC_BUDGET: u64 = 8_000_000;

/// Cycles of the OpenBLAS-f32-like baseline over cycles of `Camp8` and
/// of `Camp4` on BERT-base's feed-forward shape: the paper's headline
/// ratio, as this (unvalidated) model reproduces it.
pub fn camp_speedups() -> (f64, f64) {
    let shape = LlmModel::BertBase.config().ff_shape();
    let opts = GemmOptions { mac_budget: SPEEDUP_MAC_BUDGET, verify: false, ..Default::default() };
    let runner = SimRunner::with_threads(1);
    let cycles = |method| {
        let r = runner.simulate(CoreConfig::a64fx(), method, shape.m, shape.n, shape.k, &opts);
        r.stats.cycles as f64
    };
    let base = cycles(Method::OpenblasF32);
    (base / cycles(Method::Camp8), base / cycles(Method::Camp4))
}

/// The `sim.*` metrics of `tally`, the sum over `requests` requests that
/// each processed `tokens_per_request` (prompt + served) tokens over
/// `decode_steps` decode steps.
pub fn metrics(
    tally: &SimTally,
    requests: u64,
    tokens_per_request: u64,
    decode_steps: u64,
) -> Vec<(&'static str, f64)> {
    let total = tally.total();
    let (requests_f, tokens) = (requests as f64, (requests * tokens_per_request) as f64);
    let cycles = total.cycles as f64;
    // shares of the attributed stall cycles: per-instruction stalls
    // overlap on a superscalar core, so their sum exceeds the cycle count
    let (stall_fu, stall_read, _) = total.stall_proportions();
    vec![
        ("sim.cycles_per_token", cycles / tokens),
        ("sim.minst_per_s", total.insts as f64 / tally.host_s / 1e6),
        ("sim.cycles_prefill", tally.prefill.cycles as f64 / requests_f),
        (
            "sim.cycles_per_decode_token",
            tally.decode.cycles as f64 / (requests * decode_steps) as f64,
        ),
        ("sim.insts_per_token", total.insts as f64 / tokens),
        ("sim.ipc", total.insts as f64 / cycles),
        ("sim.stall_fu_share", stall_fu),
        ("sim.stall_read_share", stall_read),
        ("sim.l1d_miss_rate", total.l1d.demand_miss_rate()),
        ("sim.host_ms_per_gemm", tally.host_s * 1e3 / tally.gemms as f64),
    ]
}
