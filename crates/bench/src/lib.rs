//! # camp-bench — figure/table reproduction harnesses
//!
//! One binary per table/figure of the paper (docs/SIMULATOR.md,
//! "Figure/table binaries → paper sections", is the index). Each harness
//! prints the series the paper reports, with a `paper≈` annotation
//! giving the published value where one exists, so shape agreement can
//! be read off the output. Two more bins, `host_gemm` and `llm_serve`,
//! print host-side tables; nothing is gated on any of them and none
//! writes a file (`benchmark/` is the instrument that gates performance).
//!
//! Shared conventions:
//!
//! * problems larger than the MAC budget are clamped
//!   structure-preservingly (identical across methods — normalized
//!   metrics unaffected); set `CAMP_MAC_BUDGET` (MACs) to change the
//!   default of 32 M, e.g. `CAMP_MAC_BUDGET=200000000` for longer runs;
//! * speedups are clock-cycle ratios against OpenBLAS-SGEMM-like on the
//!   A64FX-like core (Figs. 13/14/18, Table 1) or BLIS-int32 on the edge
//!   core (Fig. 12), exactly as in the paper.

use camp_gemm::{simulate_gemm, GemmOptions, GemmResult, Method};
use camp_models::GemmShape;
use camp_pipeline::CoreConfig;

/// MAC budget for harness runs: env `CAMP_MAC_BUDGET`, default 32 M
/// when unset or unparsable.
pub fn mac_budget() -> u64 {
    std::env::var("CAMP_MAC_BUDGET").ok().and_then(|s| s.parse().ok()).unwrap_or(32_000_000)
}

/// Simulate `method` on `core` at `shape` under [`harness_options`].
pub fn run(core: CoreConfig, method: Method, shape: GemmShape) -> GemmResult {
    simulate_gemm(core, method, shape.m, shape.n, shape.k, &harness_options())
}

/// A shim kept only for `benchmark/src/sim.rs`, which calls
/// `SimRunner::with_threads(1).simulate(..)`: it is [`simulate_gemm`]
/// and nothing else (the simulated driver runs its block units in
/// order). The ▣ benchmark PR deletes it, the way
/// `DispatchStats::stolen` is kept for the same file today.
pub struct SimRunner;

impl SimRunner {
    /// The shim; `_threads` is ignored.
    pub fn with_threads(_threads: usize) -> Self {
        SimRunner
    }

    /// [`simulate_gemm`].
    pub fn simulate(
        &self,
        core: CoreConfig,
        method: Method,
        m: usize,
        n: usize,
        k: usize,
        opts: &GemmOptions,
    ) -> GemmResult {
        simulate_gemm(core, method, m, n, k, opts)
    }
}

/// Default harness options (verification off — correctness is covered by
/// the test suite; harness runs measure performance).
pub fn harness_options() -> GemmOptions {
    GemmOptions { mac_budget: mac_budget(), verify: false, ..GemmOptions::default() }
}

/// The six methods of Fig. 13/14, in legend order.
pub fn fig13_methods() -> [Method; 6] {
    [
        Method::Camp4,
        Method::Camp8,
        Method::HandvInt8,
        Method::Gemmlowp,
        Method::HandvInt32,
        Method::OpenblasF32,
    ]
}

/// Print a standard header block for a harness.
pub fn header(id: &str, what: &str) {
    println!("==============================================================");
    println!("{id}: {what}");
    println!("mac_budget={} (set CAMP_MAC_BUDGET to change)", mac_budget());
    println!("==============================================================");
}
