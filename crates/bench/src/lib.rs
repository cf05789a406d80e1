//! # camp-bench — figure/table reproduction harnesses
//!
//! One binary per table/figure of the paper (docs/SIMULATOR.md,
//! "Figure/table binaries → paper sections", is the index). Each harness
//! prints the series the paper reports, with a `paper≈` annotation
//! giving the published value where one exists, so shape agreement can
//! be read off the output.
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
use camp_gemm::{
    simulate_gemm_batch_on, simulate_gemm_on, GemmOptions, GemmProblem, GemmResult, Method,
    SerialScheduler, SimBatchResult, SimScheduler,
};
use camp_models::GemmShape;
use camp_pipeline::CoreConfig;

/// Best-of-`reps` wall time in seconds for one invocation of `f`, after
/// an untimed warm-up call (pools grown, pages faulted in) if asked.
pub fn time_best(reps: usize, warm_up: bool, mut f: impl FnMut()) -> f64 {
    if warm_up {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The `pct`-th percentile of ascending `sorted` seconds, in ms.
pub fn percentile_ms(sorted: &[f64], pct: usize) -> f64 {
    sorted[(sorted.len() - 1) * pct / 100] * 1e3
}

/// Pull `"key": value` out of one hand-rolled JSON row line (the bench
/// writers put one row object per line, so line-wise scanning is an
/// exact parse of our own output).
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

/// Relative slack of the [`check_baseline`] gate: it compares ratios
/// measured on different machines, and it is the one value CI ever ran.
const TOLERANCE: f64 = 0.5;

/// The regression gate of every `--check-baseline` run: each row of
/// the checked-in baseline at `path` (one JSON object per line) whose
/// `keys` fields equal a fresh row's must not beat that row's `metric`
/// (higher is better) by more than the relative `TOLERANCE` (0.5).
/// `fresh_rows` pairs each fresh row's key values, as the JSON writer
/// prints them, with its metric. Prints one `ok`/`FAIL` line per
/// compared row; a baseline that is unreadable or shares no row with
/// the fresh set fails.
pub fn check_baseline(
    path: &str,
    keys: &[&str],
    metric: &str,
    fresh_rows: &[(Vec<String>, f64)],
) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check-baseline: cannot read {path}: {e}");
            return false;
        }
    };
    let mut matched = 0usize;
    let mut ok = true;
    for line in text.lines() {
        let Some(key) = keys.iter().map(|k| field(line, k)).collect::<Option<Vec<_>>>() else {
            continue;
        };
        let Some(base) = field(line, metric).and_then(|v| v.parse::<f64>().ok()) else {
            continue;
        };
        let Some((_, fresh)) = fresh_rows.iter().find(|(k, _)| k.iter().eq(key.iter())) else {
            continue;
        };
        matched += 1;
        let floor = base * (1.0 - TOLERANCE);
        let pass = *fresh >= floor;
        let verdict = if pass { "ok  " } else { "FAIL" };
        let row: Vec<String> = keys.iter().zip(&key).map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "{verdict} {}: {metric} {fresh:.2} vs baseline {base:.2} (floor {floor:.2})",
            row.join(" ")
        );
        ok &= pass;
    }
    if matched == 0 {
        eprintln!("check-baseline: no baseline rows matched the fresh set (schema drift?)");
        return false;
    }
    println!(
        "check-baseline: {matched} rows compared, tolerance {TOLERANCE} — {}",
        if ok { "PASS" } else { "FAIL" }
    );
    ok
}

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
    /// A runner honoring [`sim_threads`] (CLI flag / env / default 1).
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

    /// Simulate one blocked GeMM on this runner's scheduler. The
    /// result is reframed to the single-core view
    /// ([`GemmResult::into_single_core`]): harness binaries quote the
    /// paper's single-core cycle counts, GOPS, busy and stall *rates*,
    /// so their `stats.cycles` must be the serialized sum, not the
    /// max-across-lanes parallel model (which stays available through
    /// the `camp_gemm` API directly).
    pub fn simulate(
        &self,
        core: CoreConfig,
        method: Method,
        m: usize,
        n: usize,
        k: usize,
        opts: &GemmOptions,
    ) -> GemmResult {
        simulate_gemm_on(core, method, m, n, k, opts, self.scheduler()).into_single_core()
    }

    /// Simulate a batch of [`GemmProblem`]s on this runner's scheduler.
    pub fn simulate_batch(
        &self,
        core: CoreConfig,
        problems: &[GemmProblem<'_>],
        opts: &GemmOptions,
    ) -> SimBatchResult {
        simulate_gemm_batch_on(core, problems, opts, self.scheduler())
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

/// Format a speedup column.
pub fn fmt_x(v: f64) -> String {
    format!("{v:5.2}x")
}

/// Print a standard header block for a harness.
pub fn header(id: &str, what: &str) {
    println!("==============================================================");
    println!("{id}: {what}");
    println!("mac_budget={} (set CAMP_MAC_BUDGET to change)", mac_budget());
    println!("sim_threads={} (pass --sim-threads N; results are identical)", sim_threads());
    println!("==============================================================");
}
