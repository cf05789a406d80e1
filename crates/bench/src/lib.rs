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

use camp_core::WorkerPool;
use camp_gemm::{simulate_gemm_on, GemmOptions, GemmResult, Method, SerialScheduler, SimScheduler};
use camp_models::GemmShape;
use camp_pipeline::CoreConfig;

/// MAC budget for harness runs: env `CAMP_MAC_BUDGET`, default 32 M
/// when unset or unparsable.
pub fn mac_budget() -> u64 {
    std::env::var("CAMP_MAC_BUDGET").ok().and_then(|s| s.parse().ok()).unwrap_or(32_000_000)
}

/// Simulator scheduler threads for harness runs: `--sim-threads N` (or
/// `--sim-threads=N`) on the command line (`0` = all cores), else 1 =
/// serial. Results are bit-identical at any value; only wall-clock
/// changes.
pub fn sim_threads() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--sim-threads" {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return camp_core::backend::resolve_threads(v);
            }
        } else if let Some(v) = a.strip_prefix("--sim-threads=").and_then(|v| v.parse().ok()) {
            return camp_core::backend::resolve_threads(v);
        }
    }
    1
}

/// The harness-side simulated-GeMM runner: owns the worker pool the
/// driver's independent (jc, pc) block units (and batch items) are
/// scheduled on. `--sim-threads 1` (the default) runs serially with no
/// pool; any thread count produces bit-identical results (the driver's
/// decomposition, not the scheduler, defines them), so the flag only
/// buys wall-clock on paper-fidelity sweeps.
pub struct SimRunner {
    threads: usize,
    pool: Option<WorkerPool>,
}

impl SimRunner {
    /// A runner honoring [`sim_threads`] (the CLI flag, else 1).
    pub fn from_cli() -> Self {
        SimRunner::with_threads(sim_threads())
    }

    /// A runner with an explicit thread count (0 and 1 both mean
    /// serial).
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        SimRunner { threads, pool: (threads > 1).then(|| WorkerPool::new(threads)) }
    }

    /// Scheduler threads (1 = serial, no pool spawned).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The scheduler simulated work runs on.
    pub fn scheduler(&self) -> &dyn SimScheduler {
        match &self.pool {
            Some(pool) => pool,
            None => &SerialScheduler,
        }
    }

    /// Simulate one blocked GeMM on this runner's scheduler.
    pub fn simulate(
        &self,
        core: CoreConfig,
        method: Method,
        m: usize,
        n: usize,
        k: usize,
        opts: &GemmOptions,
    ) -> GemmResult {
        simulate_gemm_on(core, method, m, n, k, opts, self.scheduler())
    }

    /// [`SimRunner::simulate`] with harness options on `shape`.
    pub fn run(&self, core: CoreConfig, method: Method, shape: GemmShape) -> GemmResult {
        self.simulate(core, method, shape.m, shape.n, shape.k, &harness_options())
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
    println!("sim_threads={} (pass --sim-threads N; results are identical)", sim_threads());
    println!("==============================================================");
}
