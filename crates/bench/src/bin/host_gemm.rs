//! Host micro-kernel shootout: scalar vs the dispatched SIMD tier,
//! emitted as `BENCH_host_gemm.json` (schema 2).
//!
//! This is the harness for the host-silicon half of the codebase (the
//! serving engine), not the simulated CAMP core: it times the same
//! blocked GeMM once on the scalar reference tier and once on the tier
//! `HostKernel::detect()` picked (AVX2 / AVX-512 / NEON when the CPU
//! has them), and reports GOPS (`2·m·n·k / seconds / 1e9`) plus the
//! speedup per shape. Results are bit-identical across tiers by
//! construction (property-tested in `tests/host_kernels.rs`), so only
//! throughput is interesting here.
//!
//! Covered paths:
//!
//! * **i8 → i32** (and **i4**) through the engine's request API with
//!   registered weights — the serving steady state, B pre-packed,
//!   blocked tile path;
//! * **skinny** shapes (m ≤ 8 / n ≤ 8) — the Pire-style fast paths,
//!   against a registered (panel) B. A dense skinny-m request runs the
//!   no-pack `small_m_dense` row sweep instead (attention's per-head
//!   GEMVs; `benchmark/`'s `engine_direct` workload is what times it),
//!   a dense skinny-n request is packed like any blocked dense B (see
//!   `docs/HOST_KERNELS.md`);
//! * **pack_a / pack_b** — the SIMD packers, reported as packed GB/s
//!   in the GOPS columns (same speedup semantics).
//!
//! A full run always includes the smoke shapes, so a checked-in
//! baseline produced by a full run can gate a CI smoke run:
//! `host_gemm --check-baseline` re-measures the smoke set and fails
//! (exit 1) if any per-shape speedup falls below the baseline's by
//! more than the gate's fixed relative tolerance (0.5). Speedups
//! — not absolute GOPS — are compared, so the gate tolerates slower
//! runners; it still assumes the runner reaches the baseline's SIMD
//! tier (the check prints both tiers when they differ).
//!
//! Knobs: `CAMP_BENCH_SMOKE=1` shrinks shapes/reps to a CI smoke run,
//! `CAMP_THREADS` widens the engine's worker pool (the thread sweep
//! always includes 1 and the machine's core count).
//! `CAMP_FORCE_TIER=<tier>` pins the dispatched column to one tier —
//! useful to bench a lower tier on a wider machine, and called out in
//! the output when active.

use camp_bench::{check_baseline, field, time_best};
use camp_core::backend::CampBackend;
use camp_core::{CampEngine, DType, GemmRequest};
use camp_gemm::host::{forced_tier, HostKernel};
use std::fmt::Write as _;

fn gops(m: usize, n: usize, k: usize, secs: f64) -> f64 {
    (2.0 * (m as f64) * (n as f64) * (k as f64)) / secs / 1e9
}

struct Row {
    dtype: &'static str,
    path: &'static str,
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
    /// GOPS for GeMM rows, packed GB/s for `pack_*` rows.
    scalar_gops: f64,
    simd_gops: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.simd_gops / self.scalar_gops
    }
}

/// Deterministic operand bytes (same generator family as the tests).
fn gen_i8(len: usize, s: u32, lo: i32, hi: i32) -> Vec<i8> {
    let span = (hi - lo + 1) as u32;
    (0..len)
        .map(|i| ((i as u32).wrapping_mul(s).wrapping_add(s ^ 0x9e37) % span) as i32 + lo)
        .map(|v| v as i8)
        .collect()
}

/// Time one integer shape on one engine (steady state: weights
/// registered up front, so B-packing is off the timed path).
fn int_secs(
    kernel: &'static HostKernel,
    threads: usize,
    reps: usize,
    m: usize,
    n: usize,
    k: usize,
    dtype: DType,
) -> f64 {
    let (lo, hi) = if dtype == DType::I4 { (-8, 7) } else { (-128, 127) };
    let a = gen_i8(m * k, 0x1234_5679, lo, hi);
    let b = gen_i8(k * n, 0x0BAD_F00D | 1, lo, hi);
    let mut eng = CampEngine::with_threads_and_kernel(threads, kernel);
    let h = CampBackend::register_weights(&mut eng, n, k, &b, dtype);
    let req = GemmRequest::with_weights(m, a, h).expect("coherent");
    time_best(reps, true, || {
        let out = eng.execute(&req).expect("registered handle");
        assert_eq!(out.output.c.len(), m * n);
    })
}

/// Packed GB/s for one packer. `pack_a` packs an `rows×k` A image,
/// `pack_b` a `k×rows` B image; the metric is bytes of packed output
/// per second.
fn pack_gbs(kernel: &'static HostKernel, reps: usize, path: &str, rows: usize, k: usize) -> f64 {
    let (secs, bytes) = match path {
        "pack_a" => {
            let a = gen_i8(rows * k, 0x77AA_77AB, -128, 127);
            let mut buf = vec![0i8; rows * k];
            (
                time_best(reps, true, || kernel.pack_a_block(&mut buf, &a, rows, k, 0, 0, k)),
                rows * k,
            )
        }
        "pack_b" => {
            let b = gen_i8(k * rows, 0x3355_3357, -128, 127);
            let mut buf = vec![0i8; rows * k];
            (
                time_best(reps, true, || kernel.pack_b_block(&mut buf, &b, rows, k, 0, 0, k)),
                rows * k,
            )
        }
        other => panic!("unknown pack path {other}"),
    };
    bytes as f64 / secs / 1e9
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let check = std::env::args().any(|a| a == "--check-baseline");
    let smoke = check || std::env::var("CAMP_BENCH_SMOKE").map(|v| v == "1").unwrap_or(false);
    let reps = if check {
        3
    } else if smoke {
        1
    } else {
        5
    };
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    // The gate compares keyed rows, so it sticks to the thread count
    // every machine has; measurement runs sweep the core count too.
    let mut thread_counts = vec![1usize];
    if cores > 1 && !check {
        thread_counts.push(cores);
    }

    let scalar = HostKernel::scalar();
    let simd = HostKernel::detect();
    let info = simd.info();

    println!("==============================================================");
    println!("host_gemm: scalar vs dispatched SIMD micro-kernels");
    println!("dispatched: {info}");
    if let Some(tier) = forced_tier() {
        println!("NOTE: CAMP_FORCE_TIER pins the dispatched column to {}", tier.name());
    }
    println!(
        "threads swept: {thread_counts:?}; best of {reps}{}",
        if smoke { " [smoke]" } else { "" }
    );
    println!("==============================================================");

    // (dtype, path, m, n, k): the blocked tile path at paper-ish sizes
    // and both skinny fast paths. Full runs keep every smoke shape so a
    // full-run baseline can gate smoke runs.
    let smoke_int: &[(&str, DType, &str, usize, usize, usize)] = &[
        ("i8", DType::I8, "blocked", 32, 32, 64),
        ("i4", DType::I4, "blocked", 32, 32, 64),
        ("i8", DType::I8, "small_m", 2, 64, 64),
        ("i8", DType::I8, "small_n", 64, 2, 64),
    ];
    let full_int: &[(&str, DType, &str, usize, usize, usize)] = &[
        ("i8", DType::I8, "blocked", 256, 256, 256),
        ("i8", DType::I8, "blocked", 512, 512, 512),
        ("i4", DType::I4, "blocked", 256, 256, 256),
        ("i8", DType::I8, "small_m", 2, 2048, 2048),
        ("i8", DType::I8, "small_m", 8, 4096, 1024),
        ("i8", DType::I8, "small_n", 2048, 4, 2048),
    ];
    // (path, rows, k) — see `pack_gbs` for the shape semantics.
    let smoke_pack: &[(&str, usize, usize)] = &[("pack_a", 128, 128), ("pack_b", 128, 128)];
    let full_pack: &[(&str, usize, usize)] = &[("pack_a", 1024, 2048), ("pack_b", 1024, 2048)];

    let int_shapes: Vec<_> = if smoke {
        smoke_int.to_vec()
    } else {
        smoke_int.iter().chain(full_int).copied().collect()
    };
    let pack_shapes: Vec<_> = if smoke {
        smoke_pack.to_vec()
    } else {
        smoke_pack.iter().chain(full_pack).copied().collect()
    };

    let mut rows: Vec<Row> = Vec::new();
    for &(dtype_name, dtype, path, m, n, k) in &int_shapes {
        for &threads in &thread_counts {
            rows.push(Row {
                dtype: dtype_name,
                path,
                m,
                n,
                k,
                threads,
                scalar_gops: gops(m, n, k, int_secs(scalar, threads, reps, m, n, k, dtype)),
                simd_gops: gops(m, n, k, int_secs(simd, threads, reps, m, n, k, dtype)),
            });
        }
    }
    for &(path, r, k) in &pack_shapes {
        rows.push(Row {
            dtype: "i8",
            path,
            m: r,
            n: 0,
            k,
            threads: 1,
            scalar_gops: pack_gbs(scalar, reps, path, r, k),
            simd_gops: pack_gbs(simd, reps, path, r, k),
        });
    }

    println!(
        "{:<5} {:<13} {:>6} {:>5} {:>5} {:>3}  {:>12} {:>12} {:>8}",
        "dtype", "path", "m", "n", "k", "t", "scalar GOPS", "simd GOPS", "speedup"
    );
    for r in &rows {
        println!(
            "{:<5} {:<13} {:>6} {:>5} {:>5} {:>3}  {:>12.3} {:>12.3} {:>7.2}x",
            r.dtype,
            r.path,
            r.m,
            r.n,
            r.k,
            r.threads,
            r.scalar_gops,
            r.simd_gops,
            r.speedup()
        );
    }

    if check {
        const BASELINE: &str = "BENCH_host_gemm.json";
        let baseline = std::fs::read_to_string(BASELINE).unwrap_or_default();
        if let Some(tier) = baseline.lines().find_map(|l| field(l, "tier")) {
            if tier != info.tier {
                println!("note: baseline tier \"{tier}\" != this run's \"{}\"", info.tier);
            }
        }
        let fresh: Vec<_> = rows
            .iter()
            .map(|r| {
                let mut key = vec![r.dtype.to_string(), r.path.to_string()];
                key.extend([r.m, r.n, r.k, r.threads].map(|v| v.to_string()));
                (key, r.speedup())
            })
            .collect();
        let keys = ["dtype", "path", "m", "n", "k", "threads"];
        if !check_baseline(BASELINE, &keys, "speedup", &fresh) {
            std::process::exit(1);
        }
        return;
    }

    // ---- BENCH_host_gemm.json (hand-rolled: no serde in the image) ----
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"bench\": \"host_gemm\",");
    let _ = writeln!(j, "  \"schema\": 2,");
    let _ = writeln!(j, "  \"smoke\": {smoke},");
    let _ = writeln!(j, "  \"reps\": {reps},");
    let _ = writeln!(j, "  \"kernel\": {{");
    let _ = writeln!(j, "    \"tier\": \"{}\",", json_escape(&info.tier));
    let _ = writeln!(j, "    \"simd\": {},", info.simd);
    let _ = writeln!(j, "    \"features\": \"{}\",", json_escape(&info.features.summary()));
    let _ = writeln!(j, "    \"int_tile_i8\": [{}, {}],", info.int_tile_i8.0, info.int_tile_i8.1);
    let _ = writeln!(j, "    \"int_tile_i4\": [{}, {}],", info.int_tile_i4.0, info.int_tile_i4.1);
    let _ = writeln!(
        j,
        "    \"int_blocking\": [{}, {}, {}]",
        info.int_blocking.0, info.int_blocking.1, info.int_blocking.2
    );
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"thread_counts\": {thread_counts:?},");
    let _ = writeln!(j, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"dtype\": \"{}\", \"path\": \"{}\", \"m\": {}, \"n\": {}, \"k\": {}, \
             \"threads\": {}, \"scalar_gops\": {:.4}, \"simd_gops\": {:.4}, \
             \"speedup\": {:.3}}}",
            r.dtype,
            r.path,
            r.m,
            r.n,
            r.k,
            r.threads,
            r.scalar_gops,
            r.simd_gops,
            r.speedup()
        );
        j.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ]\n}\n");

    let out = "BENCH_host_gemm.json";
    std::fs::write(out, &j).expect("write BENCH_host_gemm.json");
    println!("\nwrote {out}");
}
