//! Host micro-kernel shootout: scalar vs the dispatched SIMD tier,
//! printed as one table. Nothing is gated on it and it writes no file
//! (`benchmark/` is the instrument that gates performance).
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
//!   against a registered (panel) B; a dense skinny-n request is packed
//!   like any blocked dense B (see `docs/HOST_KERNELS.md`). The
//!   `blocked` 192×12×256 row is all trailing panel group: three
//!   panels, fewer than any widened tile takes, so every tile is the
//!   4×4 `tile_i8`;
//! * **dense_m** — the no-pack `small_m_dense` row sweep a dense
//!   skinny-m request runs, called through `run_small_m` at the served
//!   decode-attention GEMVs: 1×96×64 (QKᵀ at the longest chat context)
//!   and 1×64×96 (PV);
//! * **pack_a / pack_b** — the packers, reported as packed GB/s in the
//!   GOPS columns (same speedup semantics), at two square-ish sizes and
//!   at the served prefill shapes: A 192×256, and a head's Kᵀ (n 192,
//!   k 64) and V (n 64, k 192);
//! * **blocked path per tier** — every tier the CPU can run
//!   (`HostKernel::available()`, so the widening and the VNNI AVX-512
//!   tiles and the AMX tile sit side by side on one box): the tile the
//!   nest runs (`KernelInfo::int_tile`) and its roof — the wide
//!   register tile on L1-resident panels, or, for a tier with its own
//!   macro-kernel (`amx`), that nest on L1-resident operands — then the
//!   engine at 512³ and at the prefill shape 192×1024×256 and its
//!   16-row sibling 16×1024×256 (a blocked GeMM the 32-row AMX step
//!   pads by half), 1 thread — what each tier's tile offers and what
//!   the nest leaves on the table;
//! * **skinny-m roofline** — `run_small_m` over a packed panel image at
//!   the served decode shapes, m = 1..8, *resident* (one image, walked
//!   again and again) and *streamed* (rotating through 4 MB of distinct
//!   images, more than L2), in Gop/s and weight GB/s, beside the two
//!   roofs each point sits under: the wide tile on L1-resident panels
//!   (compute) and a read-only pass over 1 MB and 4 MB (bandwidth).
//!
//! It takes no arguments. `CAMP_THREADS` widens the engine's worker
//! pool (the thread sweep always includes 1 and the machine's core
//! count). `CAMP_FORCE_TIER=<tier>` pins the dispatched column to one
//! tier — useful to bench a lower tier on a wider machine, and called
//! out in the output when active.

use camp_core::backend::CampBackend;
use camp_core::{CampEngine, DType, GemmRequest};
use camp_gemm::batch::packed_b_bytes;
use camp_gemm::host::{forced_tier, AImage, HostKernel, SmallB};
use camp_gemm::weights::host_block_plan;

/// Timed repetitions per cell; the best one is reported.
const REPS: usize = 5;

/// Best-of-[`REPS`] wall time in seconds for one invocation of `f`,
/// after an untimed warm-up call (pools grown, pages faulted in).
fn time_best(mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn gops(m: usize, n: usize, k: usize, secs: f64) -> f64 {
    (2.0 * (m as f64) * (n as f64) * (k as f64)) / secs / 1e9
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
    time_best(|| {
        let out = eng.execute(&req).expect("registered handle");
        assert_eq!(out.output.c.len(), m * n);
    })
}

/// Packed GB/s for one packer. `pack_a` packs an `rows×k` A image,
/// `pack_b` a `k×rows` B image (`rows` = n); the metric is bytes of
/// packed output per second. Each timed repetition packs the image
/// again and again, about 8 MB in all.
fn pack_gbs(kernel: &'static HostKernel, path: &str, rows: usize, k: usize) -> f64 {
    let src = gen_i8(rows * k, 0x77AA_77AB, -128, 127);
    let mut buf = vec![0i8; rows * k];
    let calls = ((8 << 20) / (rows * k)).max(1);
    let secs = time_best(|| {
        for _ in 0..calls {
            let src = std::hint::black_box(&src);
            match path {
                "pack_a" => kernel.pack_a_block(&mut buf, src, rows, k, 0, 0, k),
                "pack_b" => kernel.pack_b_block(&mut buf, src, rows, k, 0, 0, k),
                other => panic!("unknown pack path {other}"),
            }
        }
    });
    (calls * rows * k) as f64 / secs / 1e9
}

/// Seconds per dense skinny-m call: `run_small_m` over a raw row-major
/// B, the no-pack `small_m_dense` sweep, repeated to about 4 M MACs per
/// timed repetition.
fn dense_m_secs(hk: &HostKernel, m: usize, n: usize, k: usize) -> f64 {
    let plan = host_block_plan(m, n, k, 16);
    let a = gen_i8(m * k, 0x1234_5679, -128, 127);
    let b = gen_i8(k * n, 0x0BAD_F00D | 1, -128, 127);
    let mut c = vec![0i32; m * n];
    let calls = ((4 << 20) / (m * n * k)).max(1);
    let secs = time_best(|| {
        for _ in 0..calls {
            let a = std::hint::black_box(&a);
            hk.run_small_m(m, n, k, &plan, a, SmallB::Dense(&b), &mut c);
        }
    });
    std::hint::black_box(&c);
    secs / calls as f64
}

/// Weight bytes a streamed skinny-m point rotates through, and the
/// larger stream-probe working set: more than L2 on every box this has
/// run on, so each walk misses to the next level.
const STREAM_BYTES: usize = 4 << 20;

/// Seconds per `run_small_m` call over `images` distinct packed panel
/// images visited round-robin (1 = cache-resident once warm), each
/// timed repetition walking about 32 MB of weights.
fn small_m_secs(hk: &HostKernel, m: usize, n: usize, k: usize, images: usize) -> f64 {
    let plan = host_block_plan(m, n, k, 16);
    let image_bytes = packed_b_bytes(&plan);
    let a = gen_i8(m * k, 0x1234_5679, -128, 127);
    // any bytes of the right length are a packed image (the timed walk
    // does not care which matrix they came from), so none is packed
    let panels: Vec<Vec<i8>> = (0..images)
        .map(|s| gen_i8(image_bytes, 0x0BAD_F00D | 1 | (s as u32) << 8, -128, 127))
        .collect();
    let mut c = vec![0i32; m * n];
    let sweeps = ((32 << 20) / (images * image_bytes)).max(1);
    let secs = time_best(|| {
        for _ in 0..sweeps {
            for image in &panels {
                hk.run_small_m(
                    m,
                    n,
                    k,
                    &plan,
                    std::hint::black_box(&a),
                    SmallB::Panel(image),
                    &mut c,
                );
            }
        }
    });
    std::hint::black_box(&c);
    secs / (sweeps * images) as f64
}

/// GB/s of a read-only pass (wrapping u64 sum) over `bytes`: the
/// bandwidth roof of the cache level that working set lives in.
fn stream_gbs(bytes: usize) -> f64 {
    let buf: Vec<u64> = (0..bytes as u64 / 8).collect();
    let sweeps = ((64 << 20) / bytes).max(1);
    let secs = time_best(|| {
        for _ in 0..sweeps {
            let sum = std::hint::black_box(&buf).iter().fold(0u64, |s, &v| s.wrapping_add(v));
            std::hint::black_box(sum);
        }
    });
    (sweeps * bytes) as f64 / secs / 1e9
}

/// Gop/s of the widened register tile over L1-resident panels (k = 256),
/// accumulated into four rows of C as the blocked nest calls it: the
/// compute roof no nest and no panel walk can exceed.
fn tile_roof_gops(hk: &HostKernel) -> f64 {
    let (kcb, nr) = (256, hk.int_nr());
    let pa = gen_i8(kcb * 4, 0x1234_5679, -128, 127);
    let pb = gen_i8(kcb * nr, 0x0BAD_F00D | 1, -128, 127);
    let mut c = vec![0i32; 4 * nr];
    let calls = 4096;
    let secs = time_best(|| {
        for _ in 0..calls {
            hk.tile_i8_into(std::hint::black_box(&pa), &pb, &mut c, nr);
        }
    });
    std::hint::black_box(&c);
    gops(4, nr, kcb, secs / calls as f64)
}

/// Gop/s of a tier's own blocked macro-kernel ([`HostKernel::run_blocked`])
/// on L1-resident operands, 64×32×256: two 32-row strips against one
/// re-laid 32-column step, B's re-layout and C's write-back included —
/// the roof of a nest that is not a loop over the wide register tile.
fn nest_roof_gops(hk: &HostKernel) -> f64 {
    let (m, n, k) = (64, 32, 256);
    let plan = host_block_plan(m, n, k, DType::I8.k_step());
    let a = gen_i8(m * k, 0x1234_5679, -128, 127);
    let b = gen_i8(k * n, 0x0BAD_F00D | 1, -128, 127);
    let mut image = vec![0i8; hk.packed_a_len(&plan)];
    hk.prepack_a(&mut image, &a, m, k, &plan);
    let mut panel = vec![0i8; packed_b_bytes(&plan)];
    hk.prepack_b(&mut panel, &b, n, k, &plan);
    let mut scratch = vec![0i8; hk.blocked_scratch_len(&plan)];
    let mut c = vec![0i32; m * n];
    let calls = 1024;
    let secs = time_best(|| {
        for _ in 0..calls {
            let a = AImage { bytes: std::hint::black_box(&image), plan, row0: 0 };
            hk.run_blocked(n, &plan, a, &panel, &mut c, &mut scratch);
        }
    });
    std::hint::black_box(&c);
    gops(m, n, k, secs / calls as f64)
}

/// The blocked path of every runnable tier (see the module doc).
fn print_blocked_per_tier() {
    println!("--------------------------------------------------------------");
    println!(
        "blocked path per tier (i8, 1 thread, Gop/s): the nest's tile and roof, engine below it"
    );
    println!(
        "{:<11} {:>5} {:>10} {:>12} {:>13} {:>13}",
        "tier", "tile", "tile roof", "512x512x512", "16x1024x256", "192x1024x256"
    );
    for hk in HostKernel::available() {
        let engine = |m, n, k| gops(m, n, k, int_secs(hk, 1, m, n, k, DType::I8));
        let tile = hk.info().int_tile;
        // the wide register tile is the roof of the panel nest only
        let roof = if tile == (4, hk.int_nr()) { tile_roof_gops(hk) } else { nest_roof_gops(hk) };
        println!(
            "{:<11} {:>5} {:>10.1} {:>12.1} {:>13.1} {:>13.1}",
            hk.tier().name(),
            format!("{}x{}", tile.0, tile.1),
            roof,
            engine(512, 512, 512),
            engine(16, 1024, 256),
            engine(192, 1024, 256)
        );
    }
}

/// The skinny-m roofline of the dispatched tier (see the module doc).
fn print_small_m_roofline(hk: &HostKernel) {
    println!("--------------------------------------------------------------");
    println!("skinny-m roofline ({}): run_small_m over a packed panel image", hk.tier().name());
    println!(
        "roofs: wide tile {:.1} Gop/s; read-only stream {:.1} GB/s at 1 MB, {:.1} GB/s at 4 MB",
        tile_roof_gops(hk),
        stream_gbs(1 << 20),
        stream_gbs(STREAM_BYTES)
    );
    println!(
        "{:>5} {:>5} {:>2}  {:>14} {:>13}  {:>14} {:>13}",
        "n", "k", "m", "resident Gop/s", "resident GB/s", "streamed Gop/s", "streamed GB/s"
    );
    for (n, k) in [(256, 256), (1024, 256), (256, 1024)] {
        for m in [1, 2, 4, 8] {
            let resident = small_m_secs(hk, m, n, k, 1);
            let streamed = small_m_secs(hk, m, n, k, STREAM_BYTES.div_ceil(n * k));
            let gbs = |secs: f64| (n * k) as f64 / secs / 1e9;
            println!(
                "{n:>5} {k:>5} {m:>2}  {:>14.1} {:>13.1}  {:>14.1} {:>13.1}",
                gops(m, n, k, resident),
                gbs(resident),
                gops(m, n, k, streamed),
                gbs(streamed)
            );
        }
    }
}

fn print_row(r: (&str, &str, usize, usize, usize, usize), scalar: f64, simd: f64) {
    let (dtype, path, m, n, k, threads) = r;
    println!(
        "{dtype:<5} {path:<13} {m:>6} {n:>5} {k:>5} {threads:>3}  {scalar:>12.3} {simd:>12.3} \
         {:>7.2}x",
        simd / scalar
    );
}

fn main() {
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let mut thread_counts = vec![1usize];
    if cores > 1 {
        thread_counts.push(cores);
    }

    let scalar = HostKernel::scalar();
    let simd = HostKernel::detect();

    println!("==============================================================");
    println!("host_gemm: scalar vs dispatched SIMD micro-kernels");
    println!("dispatched: {}", simd.info());
    if let Some(tier) = forced_tier() {
        println!("NOTE: CAMP_FORCE_TIER pins the dispatched column to {}", tier.name());
    }
    println!("threads swept: {thread_counts:?}; best of {REPS}");
    println!("==============================================================");
    println!(
        "{:<5} {:<13} {:>6} {:>5} {:>5} {:>3}  {:>12} {:>12} {:>8}",
        "dtype", "path", "m", "n", "k", "t", "scalar GOPS", "simd GOPS", "speedup"
    );

    // the blocked tile path and both skinny fast paths, at toy and at
    // paper-ish sizes
    for (dtype_name, dtype, path, m, n, k) in [
        ("i8", DType::I8, "blocked", 32, 32, 64),
        ("i4", DType::I4, "blocked", 32, 32, 64),
        ("i8", DType::I8, "small_m", 2, 64, 64),
        ("i8", DType::I8, "small_n", 64, 2, 64),
        ("i8", DType::I8, "blocked", 256, 256, 256),
        ("i8", DType::I8, "blocked", 512, 512, 512),
        ("i4", DType::I4, "blocked", 256, 256, 256),
        ("i8", DType::I8, "small_m", 2, 2048, 2048),
        ("i8", DType::I8, "small_m", 8, 4096, 1024),
        ("i8", DType::I8, "small_n", 2048, 4, 2048),
        ("i8", DType::I8, "blocked", 192, 12, 256),
    ] {
        for &threads in &thread_counts {
            print_row(
                (dtype_name, path, m, n, k, threads),
                gops(m, n, k, int_secs(scalar, threads, m, n, k, dtype)),
                gops(m, n, k, int_secs(simd, threads, m, n, k, dtype)),
            );
        }
    }
    for (m, n, k) in [(1, 96, 64), (1, 64, 96)] {
        let gops = |hk| gops(m, n, k, dense_m_secs(hk, m, n, k));
        print_row(("i8", "dense_m", m, n, k, 1), gops(scalar), gops(simd));
    }
    // (path, rows, k) — see `pack_gbs` for the shape semantics
    for (path, r, k) in [
        ("pack_a", 128, 128),
        ("pack_b", 128, 128),
        ("pack_a", 1024, 2048),
        ("pack_b", 1024, 2048),
        ("pack_a", 192, 256),
        ("pack_b", 192, 64),
        ("pack_b", 64, 192),
    ] {
        let (m, n) = if path == "pack_a" { (r, 0) } else { (0, r) };
        print_row(
            ("i8", path, m, n, k, 1),
            pack_gbs(scalar, path, r, k),
            pack_gbs(simd, path, r, k),
        );
    }
    print_blocked_per_tier();
    print_small_m_roofline(simd);
}
