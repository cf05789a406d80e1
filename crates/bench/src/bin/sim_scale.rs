//! Simulator scaling sweep: the same blocked simulated GeMM workload
//! on 1, 2 and 4 scheduler threads (`SimRunner::with_threads`), to
//! track the wall-clock payoff of the parallel driver. Results are
//! bit-identical at every thread count — the driver's decomposition,
//! not the scheduler, defines them — and the sweep asserts that before
//! timing anything.
//!
//! Results land in `BENCH_sim.json` (schema-versioned, one row per
//! `(mode, threads)` key); `sim_scale --check-baseline` re-runs the
//! smoke-sized sweep and exits 1 if simulated-GeMMs/s falls below the
//! checked-in baseline row by more than the gate's fixed relative
//! tolerance (0.5). `CAMP_BENCH_SMOKE=1` forces the smoke-sized sweep
//! outside the gate.

use camp_bench::{check_baseline, SimRunner};
use camp_gemm::{GemmOptions, Method};
use camp_pipeline::CoreConfig;
use std::fmt::Write as _;
use std::time::Instant;

/// One measured point: `mode` + `threads` is the row key the baseline
/// gate matches on.
struct SimRow {
    mode: &'static str,
    threads: usize,
    m: usize,
    n: usize,
    k: usize,
    reps: usize,
    sims_per_sec: f64,
    speedup_vs_serial: f64,
}

/// Time `reps` simulations of one blocked problem on `runner`.
fn time_sweep(runner: &SimRunner, shape: (usize, usize, usize), reps: usize) -> f64 {
    let (m, n, k) = shape;
    let opts =
        GemmOptions { verify: false, blocking: Some((32, 32, 128)), ..GemmOptions::default() };
    let t0 = Instant::now();
    for _ in 0..reps {
        let _ = runner.simulate(CoreConfig::a64fx(), Method::Camp8, m, n, k, &opts);
    }
    t0.elapsed().as_secs_f64()
}

fn sweep(shape: (usize, usize, usize), reps: usize, mode: &'static str) -> Vec<SimRow> {
    let (m, n, k) = shape;
    let opts =
        GemmOptions { verify: false, blocking: Some((32, 32, 128)), ..GemmOptions::default() };
    // bit-identity across thread counts, before any timing
    let golden =
        SimRunner::with_threads(1).simulate(CoreConfig::a64fx(), Method::Camp8, m, n, k, &opts);
    let mut rows = Vec::new();
    let mut serial_time = 0.0f64;
    for threads in [1usize, 2, 4] {
        let runner = SimRunner::with_threads(threads);
        let r = runner.simulate(CoreConfig::a64fx(), Method::Camp8, m, n, k, &opts);
        assert_eq!(
            r.serial_cycles, golden.serial_cycles,
            "simulated cycles must not depend on scheduler threads"
        );
        assert_eq!(r.stats.macs, golden.stats.macs, "simulated work must be thread-invariant");
        let secs = time_sweep(&runner, shape, reps);
        if threads == 1 {
            serial_time = secs;
        }
        rows.push(SimRow {
            mode,
            threads,
            m,
            n,
            k,
            reps,
            sims_per_sec: reps as f64 / secs,
            speedup_vs_serial: serial_time / secs,
        });
    }
    rows
}

fn main() {
    let check = std::env::args().any(|a| a == "--check-baseline");
    let smoke = check || std::env::var("CAMP_BENCH_SMOKE").map(|v| v == "1").unwrap_or(false);

    let (shape, reps) = if smoke { ((64, 64, 128), 2) } else { ((96, 96, 256), 4) };
    println!("==============================================================");
    println!("sim_scale: --sim-threads scaling of the parallel simulation driver");
    println!(
        "camp.s8 {}x{}x{} blocked (32,32,128) on the A64FX-like core, {} reps{}",
        shape.0,
        shape.1,
        shape.2,
        reps,
        if smoke { " [smoke]" } else { "" }
    );
    println!("==============================================================");

    let mode = if smoke { "smoke" } else { "full" };
    let mut rows = sweep(shape, reps, mode);
    // a full run also measures the smoke-sized sweep, so the checked-in
    // baseline always contains the rows a CI `--check-baseline` run
    // (which is smoke-sized) compares against
    if !smoke {
        rows.extend(sweep((64, 64, 128), 2, "smoke"));
    }

    for r in &rows {
        println!(
            "{:<6} threads={}: {:>7.2} sims/s  {:.2}x vs serial",
            r.mode, r.threads, r.sims_per_sec, r.speedup_vs_serial
        );
    }

    if check {
        let fresh: Vec<_> = rows
            .iter()
            .map(|r| (vec![r.mode.to_string(), r.threads.to_string()], r.sims_per_sec))
            .collect();
        if !check_baseline("BENCH_sim.json", &["mode", "threads"], "sims_per_sec", &fresh) {
            std::process::exit(1);
        }
        return;
    }

    // ---- BENCH_sim.json (hand-rolled: no serde in the image) ----
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"bench\": \"sim_scale\",");
    let _ = writeln!(j, "  \"schema\": 1,");
    let _ = writeln!(j, "  \"smoke\": {smoke},");
    let _ = writeln!(j, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"mode\": \"{}\", \"threads\": {}, \"m\": {}, \"n\": {}, \"k\": {}, \
             \"reps\": {}, \"sims_per_sec\": {:.3}, \"speedup_vs_serial\": {:.3}}}",
            r.mode, r.threads, r.m, r.n, r.k, r.reps, r.sims_per_sec, r.speedup_vs_serial
        );
        j.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ]\n}\n");
    let out = "BENCH_sim.json";
    std::fs::write(out, &j).expect("write BENCH_sim.json");
    println!("\nwrote {out}");
}
