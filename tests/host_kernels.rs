//! Property tests for the host SIMD micro-kernel tiers.
//!
//! The dispatch contract is **bit-identity**: every tier
//! ([`HostKernel::available`] — scalar always, plus AVX2, AVX-512,
//! AVX-512 VNNI and AMX when the CPU has them) must produce
//! byte-for-byte the same results on every path — blocked tiles (4-wide
//! and widened), skinny-m (panel and dense B) and skinny-n fast paths,
//! both integer dtypes, and the packers. The identity is structural: exact products,
//! wrapping i32 accumulation.
//!
//! Most entries of the table are one portable body that each SIMD tier
//! recompiles at its own width (`host/mod.rs`, `recompile!`), so the
//! scalar tier runs the very code under test: the kernels are checked
//! against `gemm_i32_ref` and the packers against the element-wise
//! layout references `reference::{pack_a_ref, pack_b_ref}`, on every
//! tier, scalar included. A debug build does not vectorize those
//! bodies; CI also runs this file with `--release`, which does.
//!
//! The same holds for the glue between GeMMs: the two requantization
//! sweeps (`requant_into`, `requant_add_sat`) run one scalar body that
//! each SIMD tier recompiles at its own width, and must give the same
//! bytes on every tier. So do the hand-written operand movers of the
//! attention path — the K append, the word-transpose B packer and the
//! VNNI tiers' dense walk — against the K append's definition,
//! `pack_b_ref` and `gemm_i32_ref`.
//!
//! These tests run whatever tiers the build machine supports, so the CI
//! `forced-tier` matrix (`CAMP_FORCE_TIER=scalar|avx2|avx512|avx512vnni`)
//! and the regular job together cover dispatch every way.

use camp::core::backend::CampBackend;
use camp::core::{CampEngine, DType, GemmRequest, Operand};
use camp::gemm::batch::{packed_a_offset, packed_b_bytes};
use camp::gemm::gemm_i32_ref;
use camp::gemm::host::{HostKernel, HostTier, Scale, SmallB, K_BLOCK};
use camp::gemm::loops::for_each_a_block;
use camp::gemm::reference::{pack_a_amx_ref, pack_a_ref, pack_b_ref};
use camp::gemm::weights::{host_block_plan, prepack_b};
use camp::gemm::SplitMix64;
use proptest::prelude::*;
use std::mem::MaybeUninit;
use std::sync::Arc;

fn gen_i8(len: usize, s: u32, lo: i32, hi: i32) -> Vec<i8> {
    let span = (hi - lo + 1) as u32;
    (0..len)
        .map(|i| ((i as u32).wrapping_mul(s).wrapping_add(s ^ 0x9e37) % span) as i32 + lo)
        .map(|v| v as i8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every available tier computes the same bytes as the scalar tier
    /// through the full engine (blocked and skinny paths both land here:
    /// m and n each range across the small-path threshold).
    #[test]
    fn every_tier_matches_scalar_through_the_engine(
        m in 1usize..20, n in 1usize..20, k in 1usize..80, seed in any::<u32>())
    {
        for dtype in [DType::I8, DType::I4] {
            let (lo, hi) = if dtype == DType::I4 { (-8, 7) } else { (-128, 127) };
            let a = gen_i8(m * k, seed | 1, lo, hi);
            let b = gen_i8(k * n, seed.rotate_left(7) | 1, lo, hi);
            let req = GemmRequest::builder()
                .m(m).n(n).k(k)
                .activation(a.clone())
                .weights(Operand::from_dense(b.clone()))
                .dtype(dtype)
                .build().expect("coherent");
            let want = gemm_i32_ref(m, n, k, &a, &b);
            for hk in HostKernel::available() {
                let mut eng = CampEngine::with_threads_and_kernel(1, hk);
                let got = eng.execute(&req).unwrap();
                prop_assert_eq!(&got.output.c, &want,
                    "tier {} wrong at {}x{}x{} {:?}", hk.tier().name(), m, n, k, dtype);
            }
        }
    }

    /// Skinny shapes specifically: the small-m dense path, the small-m
    /// panel path (registered weights) and the small-n path must agree
    /// across tiers, including under row-partitioned parallelism.
    #[test]
    fn skinny_fast_paths_are_tier_invariant(
        small in 1usize..9, big in 9usize..80, k in 1usize..100,
        threads in 1usize..5, seed in any::<u32>())
    {
        for (m, n) in [(small, big), (big, small), (small, small)] {
            let a = gen_i8(m * k, seed | 1, -128, 127);
            let b = gen_i8(k * n, seed.rotate_left(9) | 1, -128, 127);
            let want = gemm_i32_ref(m, n, k, &a, &b);
            for hk in HostKernel::available() {
                let mut eng = CampEngine::with_threads_and_kernel(threads, hk);
                // dense B: small-m problems take the raw-B row sweep
                let dense = GemmRequest::dense(m, n, k, a.clone(), b.clone()).unwrap();
                let got = eng.execute(&dense).unwrap();
                prop_assert_eq!(&got.output.c, &want,
                    "dense tier {} {}x{}x{}", hk.tier().name(), m, n, k);
                // registered B: the same problem walks the packed panel
                let h = eng.weights_mut().register(n, k, &b, DType::I8);
                let req = GemmRequest::with_weights(m, a.clone(), h).unwrap();
                let got = eng.execute(&req).unwrap();
                prop_assert_eq!(&got.output.c, &want,
                    "handle tier {} {}x{}x{}", hk.tier().name(), m, n, k);
                let stats = got.stats.as_host().expect("host ran");
                prop_assert_eq!(stats.packed_b_bytes, 0, "handles never re-pack B");
            }
        }
    }

    /// Batches with shared operands are tier-invariant too (the batch
    /// path routes through the same WorkItem machinery but dedups B).
    #[test]
    fn batches_are_tier_invariant(
        m1 in 1usize..12, m2 in 1usize..12, n in 1usize..24, k in 1usize..60,
        seed in any::<u32>())
    {
        let a1 = gen_i8(m1 * k, seed | 1, -8, 7);
        let a2 = gen_i8(m2 * k, seed.rotate_left(5) | 1, -8, 7);
        let b: Arc<[i8]> = gen_i8(k * n, seed.rotate_left(11) | 1, -8, 7).into();
        let reqs: Vec<GemmRequest> = [(m1, &a1), (m2, &a2)]
            .into_iter()
            .map(|(m, a)| GemmRequest::builder()
                .m(m).n(n).k(k)
                .activation(a.clone())
                .weights(Operand::Dense(Arc::clone(&b)))
                .dtype(DType::I4)
                .build().expect("coherent"))
            .collect();
        let mut scalar = CampEngine::with_threads_and_kernel(1, HostKernel::scalar());
        let want = scalar.execute_batch(&reqs).unwrap();
        for hk in HostKernel::available() {
            let mut eng = CampEngine::with_threads_and_kernel(1, hk);
            let got = eng.execute_batch(&reqs).unwrap();
            prop_assert_eq!(&got.outputs, &want.outputs, "tier {}", hk.tier().name());
            // stats are a property of the problem, not the tier
            prop_assert_eq!(&got.stats, &want.stats, "tier {}", hk.tier().name());
        }
    }

    /// The widened integer tile is bit-identical to `int_nr/4`
    /// independent 4x4 tile calls on every tier (the engine relies on
    /// this to keep results routing-invariant when it groups panels).
    #[test]
    fn wide_tile_matches_narrow_tiles_on_every_tier(
        kc8 in 1usize..12, seed in any::<u32>())
    {
        let kcb = kc8 * 8;
        let pa = gen_i8(kcb * 4, seed | 1, -128, 127);
        let pb = gen_i8(kcb * 16, seed.rotate_left(13) | 1, -128, 127);
        check_wide_tile_on_every_tier(&pa, &pb, [0; 4]);
    }

    /// The dense skinny-m row sweep (what a decode step's attention
    /// GEMVs run on: the engine reads a skinny request's dense B in
    /// place) computes the reference at every column-tail width a step
    /// can leave — n = 1..=80 crosses the 32- and 8-column steps and
    /// the overlapped last 8 columns more than once — over odd depths,
    /// accumulating into a non-zero C, on every tier: the scalar tier
    /// runs the very body the SIMD tiers recompile, so the oracle is
    /// `gemm_i32_ref`, not another tier.
    #[test]
    fn small_m_dense_matches_scalar_at_every_tail_width(
        m in 1usize..9, half_k in 0usize..40, seed in any::<u32>())
    {
        let k = 2 * half_k + 1;
        let a = gen_i8(m * k, seed | 1, -128, 127);
        for n in 1..=80 {
            let b = gen_i8(k * n, seed.rotate_left(7) | 1, -128, 127);
            let plan = host_block_plan(m, n, k, 16);
            let want: Vec<i32> =
                gemm_i32_ref(m, n, k, &a, &b).iter().map(|v| v.wrapping_sub(3)).collect();
            for hk in HostKernel::available() {
                let mut got = vec![-3i32; m * n];
                hk.run_small_m(m, n, k, &plan, &a, SmallB::Dense(&b), &mut got);
                prop_assert_eq!(&got, &want,
                    "tier {} dense skinny-m diverges at {}x{}x{}", hk.tier().name(), m, n, k);
            }
        }
    }

    /// Every tier's packers produce the element-wise layout reference's
    /// image byte for byte over ragged shapes, interior and edge blocks,
    /// and depth remainders — packed panels stay tier-portable. The
    /// scalar tier is checked too: it runs the body the SIMD tiers
    /// recompile. So does every tier's whole A image
    /// ([`HostKernel::prepack_a`], what every blocked work unit builds
    /// in its arena), against its layout's own reference: the shared panel
    /// layout's blocks ([`pack_a_ref`] at [`packed_a_offset`]) on every
    /// tier but `amx`, [`pack_a_amx_ref`] on `amx` — both k-steps, and a
    /// second depth block half the time.
    #[test]
    fn packers_are_byte_identical_across_tiers(
        m in 1usize..70, n in 1usize..70, k in 1usize..70,
        kcb in 1usize..48, off8 in 0usize..8, pc in 0usize..80, seed in any::<u32>(),
        deep in any::<bool>(), i4 in any::<bool>())
    {
        let jc = ((off8 * 4) % n) & !3;
        let ncb = (n - jc).min(32).next_multiple_of(4).max(4);
        let ic = ((off8 * 4) % m) & !3;
        let mcb = (m - ic).min(32).next_multiple_of(4).max(4);
        let a = gen_i8(m * k, seed | 1, -128, 127);
        let b = gen_i8(k * n, seed.rotate_left(11) | 1, -128, 127);
        let mut want_b = vec![0x55i8; ncb * kcb];
        pack_b_ref(&mut want_b, &b, n, k, jc, pc, kcb);
        let mut want_a = vec![0x55i8; mcb * kcb];
        pack_a_ref(&mut want_a, &a, m, k, ic, pc, kcb);
        for hk in HostKernel::available() {
            let mut got = vec![0x55i8; ncb * kcb];
            hk.pack_b_block(&mut got, &b, n, k, jc, pc, kcb);
            prop_assert_eq!(&got, &want_b, "tier {} pack_b {}x{} jc={} pc={} kcb={}",
                hk.tier().name(), n, k, jc, pc, kcb);
            let mut got = vec![0x55i8; mcb * kcb];
            hk.pack_a_block(&mut got, &a, m, k, ic, pc, kcb);
            prop_assert_eq!(&got, &want_a, "tier {} pack_a {}x{} ic={} pc={} kcb={}",
                hk.tier().name(), m, k, ic, pc, kcb);
        }
        let k = if deep { k + 2000 } else { k };
        let k_step = if i4 { DType::I4 } else { DType::I8 }.k_step();
        let a = gen_i8(m * k, seed.rotate_left(3) | 1, -128, 127);
        let plan = host_block_plan(m, n, k, k_step);
        for hk in HostKernel::available() {
            let mut want = vec![0x55i8; hk.packed_a_len(&plan)];
            if hk.tier() == HostTier::Amx {
                pack_a_amx_ref(&mut want, &a, m, k, &plan);
            } else {
                for_each_a_block(&plan, |ic, mcb, pc, kcb| {
                    let off = packed_a_offset(plan.kp, ic, mcb, pc);
                    pack_a_ref(&mut want[off..off + mcb * kcb], &a, m, k, ic, pc, kcb);
                });
            }
            let mut got = vec![0x55i8; want.len()];
            hk.prepack_a(&mut got, &a, m, k, &plan);
            prop_assert_eq!(&got, &want, "tier {} A image {}x{} k-step {}",
                hk.tier().name(), m, k, k_step);
        }
    }
}

/// One wide-tile case on every available tier: `pa` is a packed A panel,
/// `pb` four packed B panels of its depth (a tier with a narrower tile
/// reads the first `int_nr/4`), `init` the values the result buffers
/// start from, cycled. The tile as separate 4×4 tiles
/// ([`HostKernel::tile_i8_wide`]) must equal `int_nr/4` narrow tile
/// calls and the scalar reference; the tile as the blocked nest takes it
/// ([`HostKernel::tile_i8_into`], four rows of a wider row-major C) must
/// hold the same sums and leave the columns between rows alone.
fn check_wide_tile_on_every_tier(pa: &[i8], pb: &[i8], init: [i32; 4]) {
    let panel = pa.len();
    for hk in HostKernel::available() {
        let (nr, name) = (hk.int_nr(), hk.tier().name());
        let pb = &pb[..nr / 4 * panel];
        let mut want = vec![init; nr];
        camp::gemm::host::scalar::tile_i8_wide(pa, pb, &mut want);
        let mut wide = vec![init; nr];
        hk.tile_i8_wide(pa, pb, &mut wide);
        assert_eq!(wide, want, "tier {name} wide tile diverges at kcb={}", panel / 4);
        let mut narrow = vec![init; nr];
        for (sub, pbq) in narrow.chunks_exact_mut(4).zip(pb.chunks_exact(panel)) {
            hk.tile_i8(pa, pbq, sub.try_into().unwrap());
        }
        assert_eq!(narrow, want, "tier {name} narrow tiles diverge at kcb={}", panel / 4);
        let ldc = nr + 3;
        let mut c: Vec<i32> = (0..3 * ldc + nr).map(|x| init[x % 4]).collect();
        let untouched = c.clone();
        hk.tile_i8_into(pa, pb, &mut c, ldc);
        for (x, (&got, &was)) in c.iter().zip(&untouched).enumerate() {
            let (i, j) = (x / ldc, x % ldc);
            let sum = if j < nr { want[j / 4 * 4 + i][j % 4].wrapping_sub(init[j % 4]) } else { 0 };
            assert_eq!(
                got,
                was.wrapping_add(sum),
                "tier {name} row {i} col {j}, kcb={}",
                panel / 4
            );
        }
    }
}

/// What a wrong sign-bias correction, a saturating accumulate or a
/// mishandled depth tail in a wide tile would get wrong: operands
/// pinned at each sign corner, and full-range random ones, at depths
/// that leave the 32-byte tail past a 64-byte loop (8, 24, 72) and at
/// the deepest block `HOST_BLOCKING` allows, accumulated into results
/// that start next to both ends of i32. At the last depth the corners'
/// sums pass i32 *inside* the kernel (127·127·272 000 > 2³¹), where a
/// saturating dot product (`vpdpbusds`) clamps and the reference wraps.
///
/// Then the same corners at the same depth through the engine's blocked
/// route on every tier (17×9 is blocked both ways; `amx` has no wide
/// tile of its own to call above): 133 depth blocks, each
/// added into C by the nest's write-back, carry every element through
/// one end of i32 — up past `i32::MAX` for the positive products, down
/// past `i32::MIN` for the negative ones — so a write-back that
/// saturates instead of wrapping (`amx`'s staging-tile adds, the panel
/// nest's clipped adds) fails here.
#[test]
fn wide_tile_is_exact_at_the_operand_extremes_on_every_tier() {
    let init = [i32::MAX - 3, i32::MIN + 3, 5, -7];
    for kcb in [8, 16, 24, 72, 2048, 272_000] {
        for (a, b) in [(-128, -128), (-128, 127), (127, -128), (127, 127)] {
            check_wide_tile_on_every_tier(&vec![a; kcb * 4], &vec![b; kcb * 16], init);
        }
        let pa = gen_i8(kcb * 4, 0x5eed | 1, -128, 127);
        let pb = gen_i8(kcb * 16, 0xfeed | 1, -128, 127);
        check_wide_tile_on_every_tier(&pa, &pb, init);
    }
    let (m, n, k) = (17, 9, 272_000);
    for (a, b) in [(-128i8, -128i8), (-128, 127), (127, -128), (127, 127)] {
        // every element is k equal products, summed in wrapping i32
        let want = vec![(i32::from(a) * i32::from(b)).wrapping_mul(k as i32); m * n];
        for hk in HostKernel::available() {
            let mut eng = CampEngine::with_threads_and_kernel(1, hk);
            let req = GemmRequest::dense(m, n, k, vec![a; m * k], vec![b; k * n]).unwrap();
            let out = eng.execute(&req).unwrap();
            assert_eq!(out.stats.as_host().unwrap().blocked_routed, 1);
            assert_eq!(out.output.c, want, "tier {} at corner ({a}, {b})", hk.tier().name());
        }
    }
}

/// Every available tier's blocked route, through an engine pinned to it
/// at 1 and 2 threads, against the reference over a grid that crosses
/// every edge a blocked nest has: rows one short of, on and one past a
/// 16- and 32-row tile, and a tall 192; columns that leave a partial
/// 4-wide panel, a partial 16-column group and a partial 32-column
/// step, and a second column block (260 > 256); depths (`ks`, split
/// over the tests below so the harness runs them side by side) of one
/// k-value, one short of, on and one past a 64-deep chunk, and on and
/// one past a 2048-deep block. The largest shapes row-split at 2
/// threads. Rows and columns of the one reference per depth are the
/// smaller problems' results (C's row i and column j depend on A's row
/// i and B's column j alone).
fn check_blocked_route_over_the_edge_grid(dtype: DType, ks: &[usize]) {
    let ms = [9, 15, 16, 17, 31, 32, 33, 192];
    let ns = [9, 16, 20, 32, 36, 260];
    let (m_max, n_max) = (192, 260);
    let mut engines: Vec<(CampEngine, &'static HostKernel, usize)> = Vec::new();
    for hk in HostKernel::available() {
        for threads in [1, 2] {
            engines.push((CampEngine::with_threads_and_kernel(threads, hk), hk, threads));
        }
    }
    let (lo, hi) = if dtype == DType::I4 { (-8, 7) } else { (-128, 127) };
    for &k in ks {
        let a = gen_i8(m_max * k, (k * 31) as u32 | 1, lo, hi);
        let b = gen_i8(k * n_max, (k * 17) as u32 | 1, lo, hi);
        let want = gemm_i32_ref(m_max, n_max, k, &a, &b);
        for n in ns {
            let bn: Vec<i8> = b.chunks_exact(n_max).flat_map(|row| &row[..n]).copied().collect();
            let bn: Arc<[i8]> = bn.into();
            for m in ms {
                let req = GemmRequest::builder()
                    .m(m)
                    .n(n)
                    .k(k)
                    .activation(&a[..m * k])
                    .weights(Operand::Dense(Arc::clone(&bn)))
                    .dtype(dtype)
                    .build()
                    .unwrap();
                let expect: Vec<i32> =
                    want.chunks_exact(n_max).take(m).flat_map(|row| &row[..n]).copied().collect();
                for (eng, hk, threads) in &mut engines {
                    let out = eng.execute(&req).unwrap();
                    assert_eq!(out.stats.as_host().unwrap().blocked_routed, 1);
                    assert_eq!(
                        out.output.c,
                        expect,
                        "tier {} {dtype:?} {m}x{n}x{k} threads={threads}",
                        hk.tier().name()
                    );
                }
            }
        }
    }
}

#[test]
fn every_tiers_blocked_route_matches_the_reference_at_shallow_depths_i8() {
    check_blocked_route_over_the_edge_grid(DType::I8, &[1, 19, 63, 64, 65]);
}

#[test]
fn every_tiers_blocked_route_matches_the_reference_at_shallow_depths_i4() {
    check_blocked_route_over_the_edge_grid(DType::I4, &[1, 19, 63, 64, 65]);
}

#[test]
fn every_tiers_blocked_route_matches_the_reference_across_a_depth_block_i8() {
    check_blocked_route_over_the_edge_grid(DType::I8, &[2048, 2049]);
}

#[test]
fn every_tiers_blocked_route_matches_the_reference_across_a_depth_block_i4() {
    check_blocked_route_over_the_edge_grid(DType::I4, &[2048, 2049]);
}

/// [`HostKernel::run_blocked`] writes every element of its C and reads
/// none of what C held: on every available tier, into a C pre-filled
/// with a poison pattern, the nest must give exactly the reference. The
/// shapes cross what a nest writes C in: a partial 32-row strip (33
/// rows), a partial 4-wide panel and a partial 32-column step (n 18), a
/// second column block whose one step is partial (n 260), a partial
/// 64-deep chunk (k 65) and a second depth block (k 2049). A nest that
/// accumulates into C, or that leaves part of C unwritten, fails.
#[test]
fn run_blocked_writes_all_of_c_whatever_it_held_on_every_tier() {
    const POISON: i32 = 0x5A5A_5A5A;
    let (m, k_step) = (33, DType::I8.k_step());
    for (n, k) in [(18, 65), (260, 65), (18, 2049), (260, 2049)] {
        let a = gen_i8(m * k, (k * 31) as u32 | 1, -128, 127);
        let b = gen_i8(k * n, (k * 17) as u32 | 1, -128, 127);
        let want = gemm_i32_ref(m, n, k, &a, &b);
        let plan = host_block_plan(m, n, k, k_step);
        for hk in HostKernel::available() {
            let mut image = vec![0i8; hk.packed_a_len(&plan)];
            hk.prepack_a(&mut image, &a, m, k, &plan);
            let mut panel = vec![0i8; packed_b_bytes(&plan)];
            hk.prepack_b(&mut panel, &b, n, k, &plan);
            let mut scratch = vec![0i8; hk.blocked_scratch_len(&plan)];
            let mut c = vec![MaybeUninit::new(POISON); m * n];
            let got = hk.run_blocked(n, &plan, &image, &panel, &mut c, &mut scratch);
            assert_eq!(got, want, "tier {} {m}x{n}x{k}", hk.tier().name());
        }
    }
}

/// An engine pinned to a tier packs its blocked requests' A images for
/// *that* tier, whatever [`HostKernel::detect`] serves: each unit packs
/// its own rows with the engine's kernel. Every available tier, pinned
/// on one engine, against the reference — below the row-split threshold
/// (one unit) and above it (row ranges), against a registered weight and
/// a dense B.
#[test]
fn a_pinned_engine_builds_its_own_tiers_a_image() {
    for (m, n, k) in [(40, 48, 64), (192, 256, 256)] {
        let a = gen_i8(m * k, 0x51 | 1, -128, 127);
        let w = gen_i8(k * n, 0x77 | 1, -128, 127);
        let want = gemm_i32_ref(m, n, k, &a, &w);
        for hk in HostKernel::available() {
            let mut eng = CampEngine::with_threads_and_kernel(1, hk);
            let h = eng.weights_mut().register(n, k, &w, DType::I8);
            for req in [
                GemmRequest::with_weights(m, a.clone(), h).unwrap(),
                GemmRequest::dense(m, n, k, a.clone(), w.clone()).unwrap(),
            ] {
                let out = eng.execute(&req).unwrap();
                assert_eq!(out.output.c, want, "{} pinned at {m}x{n}x{k}", hk.tier().name());
            }
        }
    }
}

/// The K append on every available tier against its definition (the
/// scalar tier's body is that loop): `block[c·K_BLOCK + off + r] =
/// rows[r·hidden + c]`, and no other byte of a block pre-filled with a
/// pattern changes — over widths below one group of 16 channels, with a
/// channel tail (24) and whole (128, 256); offsets at a block's start,
/// one past it, mid-vector and at its last position; and runs of one
/// row (a decode step), one short of, on and one past a 16-row
/// transpose, three of them, and a whole block.
#[test]
fn k_append_is_byte_identical_to_its_definition_on_every_tier() {
    for hidden in [8, 24, 128, 256] {
        let init: Vec<i8> = (0..hidden * K_BLOCK).map(|x| (x % 251) as i8).collect();
        for off in [0, 1, 15, 63] {
            for run in [1, 15, 16, 17, 48, 64].into_iter().filter(|&run| off + run <= K_BLOCK) {
                let rows =
                    gen_i8(run * hidden, (hidden * 131 + off * 7 + run) as u32 | 1, -128, 127);
                let mut want = init.clone();
                for c in 0..hidden {
                    for r in 0..run {
                        want[c * K_BLOCK + off + r] = rows[r * hidden + c];
                    }
                }
                for hk in HostKernel::available() {
                    let mut got = init.clone();
                    hk.k_append(&mut got, &rows, hidden, off);
                    assert_eq!(
                        got,
                        want,
                        "tier {} hidden {hidden} off {off} run {run}",
                        hk.tier().name()
                    );
                }
            }
        }
    }
}

/// `pack_b` on every available tier against [`pack_b_ref`] where the
/// SIMD tiers' word transposes run (16 k-rows × 8 whole panels)
/// and where they stop: widths that are not a multiple of 4 (a ragged
/// edge panel) on both sides of 16 and 32 whole panels and past a
/// 256-column block, depths that are not a multiple of 16 (k-rows past
/// the last transpose) and blocks deeper than the matrix (depth
/// padding), at column and depth offsets — including the attention
/// heads' Kᵀ (n 192, k 64) and V (n 64, k 192). Buffers start as a
/// pattern, so a pad or an edge panel left unwritten fails.
#[test]
fn pack_b_matches_the_reference_at_ragged_n_and_k_on_every_tier() {
    for (n, k) in [(192, 64), (64, 192), (67, 33), (130, 17), (259, 47), (61, 16), (129, 200)] {
        let b = gen_i8(k * n, (n * 977 + k) as u32 | 1, -128, 127);
        for (jc, pc) in [(0, 0), (4, 0), (0, 3), (64, 16)] {
            if jc >= n || pc >= k {
                continue;
            }
            for kcb in [k - pc, (k - pc).next_multiple_of(16) + 16] {
                let ncb = (n - jc).min(256).next_multiple_of(4);
                let mut want = vec![0x55i8; ncb * kcb];
                pack_b_ref(&mut want, &b, n, k, jc, pc, kcb);
                for hk in HostKernel::available() {
                    let mut got = vec![0x55i8; ncb * kcb];
                    hk.pack_b_block(&mut got, &b, n, k, jc, pc, kcb);
                    assert_eq!(
                        got,
                        want,
                        "tier {} pack_b n {n} k {k} jc {jc} pc {pc} kcb {kcb}",
                        hk.tier().name()
                    );
                }
            }
        }
    }
}

/// The dense skinny-m walk on every available tier against
/// [`gemm_i32_ref`], accumulating into a non-zero C: at operands all
/// −128 (where the VNNI walk's biased A is 0 and every product is the
/// Σb correction's), at the other sign corners, and at random bytes;
/// over row counts that leave a single row past pairs, widths that
/// leave a partial 64- and 16-column group, depths that leave 1..=3
/// k-values past the last quad, the served decode-attention shapes
/// (1×193×64, 1×64×193), and a depth where the corners' sums pass i32
/// inside the kernel.
#[test]
fn dense_walk_matches_the_reference_at_the_operand_extremes_on_every_tier() {
    let shapes = [(1, 193, 64), (1, 64, 193), (3, 65, 5), (2, 17, 3), (5, 128, 4), (8, 200, 67)];
    let deep = [(1, 17, 140_000)];
    for (m, n, k) in shapes.into_iter().chain(deep) {
        let corners = [(-128, -128), (-128, 127), (127, -128), (127, 127)];
        let mut cases: Vec<(Vec<i8>, Vec<i8>)> =
            corners.iter().map(|&(a, b)| (vec![a; m * k], vec![b; k * n])).collect();
        let seed = (m * 31 + n * 7 + k) as u32;
        cases.push((
            gen_i8(m * k, seed | 1, -128, 127),
            gen_i8(k * n, seed.rotate_left(9) | 1, -128, 127),
        ));
        let plan = host_block_plan(m, n, k, 16);
        for (case, (a, b)) in cases.iter().enumerate() {
            let want: Vec<i32> =
                gemm_i32_ref(m, n, k, a, b).iter().map(|v| v.wrapping_add(i32::MIN + 5)).collect();
            for hk in HostKernel::available() {
                let mut got = vec![i32::MIN + 5; m * n];
                hk.run_small_m(m, n, k, &plan, a, SmallB::Dense(b), &mut got);
                assert_eq!(got, want, "tier {} {m}x{n}x{k} case {case}", hk.tier().name());
            }
        }
    }
}

/// The grouped panel walk on every available tier (scalar — the
/// generic one-panel adapter — always among them) against the
/// reference, accumulating into non-zero C, over a grid that crosses
/// every edge of the walk: row counts 1..=8 (row tails after a 4-row
/// pass), widths that leave 1..=3 panels short of a group or a ragged
/// last panel, a second column block (n > 256), k tails below and past
/// one vector step, and a second k-block (k > 2048).
#[test]
fn grouped_panel_walk_matches_reference_at_every_edge() {
    // (row counts, widths): skinny-m through `run_small_m`, skinny-n
    // through `run_small_n`
    let skinny_m = ((1..=8).collect::<Vec<_>>(), vec![1, 4, 12, 16, 20, 36, 100, 260, 300]);
    let skinny_n = (vec![9, 33, 70], (1..=8).collect::<Vec<_>>());
    for (ms, ns) in [skinny_m, skinny_n] {
        let m_max = *ms.last().expect("non-empty");
        for &n in &ns {
            for k in [1, 15, 16, 40, 250, 256, 1024, 2049, 2100] {
                // rows are row-major, so the first m rows of the
                // tallest problem *are* the m-row problem
                let a = gen_i8(m_max * k, (n * 31 + k) as u32 | 1, -128, 127);
                let b = gen_i8(k * n, (n * 17 + k) as u32 | 1, -128, 127);
                let want: Vec<i32> =
                    gemm_i32_ref(m_max, n, k, &a, &b).iter().map(|v| v.wrapping_sub(77)).collect();
                let plan = host_block_plan(m_max, n, k, 16);
                let mut image = vec![0i8; plan.np * plan.kp];
                prepack_b(&mut image, &b, n, k, &plan);
                for &m in &ms {
                    for hk in HostKernel::available() {
                        let mut c = vec![-77i32; m * n];
                        if m <= 8 {
                            hk.run_small_m(
                                m,
                                n,
                                k,
                                &plan,
                                &a[..m * k],
                                SmallB::Panel(&image),
                                &mut c,
                            );
                        } else {
                            hk.run_small_n(m, n, k, &plan, &a[..m * k], &image, &mut c);
                        }
                        assert_eq!(c, want[..m * n], "tier {} at {m}x{n}x{k}", hk.tier().name());
                    }
                }
            }
        }
    }
}

#[test]
fn available_always_includes_scalar_and_the_detected_tier() {
    let tiers: Vec<HostTier> = HostKernel::available().iter().map(|h| h.tier()).collect();
    assert!(tiers.contains(&HostTier::Scalar));
    assert!(tiers.contains(&HostKernel::detect().tier()));
}

#[test]
fn engine_reports_its_dispatched_tier() {
    let eng = CampEngine::new();
    let info = eng.kernel_info();
    assert_eq!(info.tier, HostKernel::detect().tier().name());
    assert_eq!(info.int_tile, HostKernel::detect().info().int_tile);
    for hk in HostKernel::available() {
        let pinned = CampEngine::with_threads_and_kernel(2, hk);
        assert_eq!(CampBackend::kernel_info(&pinned).tier, hk.tier().name());
    }
}

const ACC_EDGES: [i32; 7] = [i32::MIN, i32::MAX, 0, 1, -1, 127, -128];
const MULT_EDGES: [f32; 11] = [
    0.0,
    -0.0,
    -0.37,
    1.0,
    1e-40, // subnormal
    -1e-40,
    f32::MIN_POSITIVE,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    5.9e-8, // i32::MAX lands near the clamp
];

/// What a requantized element must be: `acc · mult` rounded half away
/// from zero and clamped to ±127 (NaN → 0, by the saturating cast).
fn requant_oracle(acc: i32, mult: f32) -> i8 {
    (acc as f32 * mult).round().clamp(-127.0, 127.0) as i8
}

/// An edge value every fourth draw, otherwise values whose products
/// mostly land inside ±127, where the rounding matters.
fn requant_operands(rng: &mut SplitMix64, len: usize, n: usize) -> (Vec<i32>, Vec<f32>) {
    let acc = (0..len)
        .map(|_| match rng.next_u64() {
            r if r % 4 == 0 => ACC_EDGES[(r >> 2) as usize % ACC_EDGES.len()],
            r => ((r >> 8) % 4001) as i32 - 2000,
        })
        .collect();
    let mults = (0..n)
        .map(|_| match rng.next_u64() {
            r if r % 4 == 0 => MULT_EDGES[(r >> 2) as usize % MULT_EDGES.len()],
            r => ((r >> 8) % 2001) as f32 * 1e-4 - 0.1,
        })
        .collect();
    (acc, mults)
}

/// Run `requant_into` on one tier into a destination pre-filled with 99:
/// rows of `n` for the per-channel and scalar scales, and for a per-row
/// scale its rows at their stride, one byte into the buffer.
fn requant_on(hk: &HostKernel, acc: &[i32], scale: Scale<'_>, floor: i8, n: usize) -> Vec<i8> {
    let mut dst = vec![99i8; acc.len() + 1];
    match scale {
        Scale::PerRow { stride, .. } => {
            let rows = acc.len() / n;
            dst.resize(rows * stride + 1, 99);
            hk.requant_into(acc, scale, floor, &mut dst[1..][..(rows - 1) * stride + n]);
        }
        _ => hk.requant_into(acc, scale, floor, &mut dst[1..]),
    }
    dst
}

/// Both requant entries of every available tier against the scalar
/// body, and the scalar body against [`requant_oracle`], on `acc` as
/// rows of `n`: per-channel `mults`, a scalar multiplier and per-row
/// multipliers (into rows strided wider than `n`), each with no floor
/// and with the ReLU floor, then the saturating residual add onto `x`.
fn check_requant_on_every_tier(acc: &[i32], mults: &[f32], mult: f32, x: &[i8]) {
    let n = mults.len();
    let rows = acc.len() / n;
    let row_mults: Vec<f32> = (0..rows).map(|i| mults[i * 5 % n]).collect();
    let stride = n + 3;
    let want_at = |p: usize, floor: i8, scale: &Scale<'_>| -> i8 {
        let Some(p) = p.checked_sub(1) else { return 99 };
        let (i, mult) = match *scale {
            Scale::PerChannel(mults) => (p, mults[p % n]),
            Scale::Scalar(mult) => (p, mult),
            Scale::PerRow { mults, stride } => match (p / stride, p % stride) {
                (r, j) if j < n => (r * n + j, mults[r]),
                _ => return 99,
            },
        };
        requant_oracle(acc[i], mult).max(floor)
    };
    for floor in [i8::MIN, 0] {
        let scales = [
            Scale::PerChannel(mults),
            Scale::Scalar(mult),
            Scale::PerRow { mults: &row_mults, stride },
        ];
        for scale in scales {
            let body = requant_on(HostKernel::scalar(), acc, scale, floor, n);
            let want: Vec<i8> = (0..body.len()).map(|p| want_at(p, floor, &scale)).collect();
            assert_eq!(body, want, "scalar body, {rows}x{n} {scale:?} floor {floor}");
            for hk in HostKernel::available() {
                let got = requant_on(hk, acc, scale, floor, n);
                assert_eq!(
                    got,
                    body,
                    "tier {} {rows}x{n} {scale:?} floor {floor}",
                    hk.tier().name()
                );
            }
        }
    }
    let mut body = x.to_vec();
    HostKernel::scalar().requant_add_sat(acc, mults, &mut body);
    let want: Vec<i8> = x
        .iter()
        .enumerate()
        .map(|(i, &x)| x.saturating_add(requant_oracle(acc[i], mults[i % n])))
        .collect();
    assert_eq!(body, want, "scalar body, residual {rows}x{n}");
    for hk in HostKernel::available() {
        let mut got = x.to_vec();
        hk.requant_add_sat(acc, mults, &mut got);
        assert_eq!(got, body, "tier {} residual {rows}x{n}", hk.tier().name());
    }
}

/// Every row length 1..=70 crosses every vector tail of every tier (4,
/// 8, 16 lanes, and LLVM's unrolled multiples of them); the widths the
/// served model uses and their neighbours, 1 to 1024, come on top.
#[test]
fn requant_sweeps_match_the_scalar_body_on_every_tier_at_every_tail() {
    let mut rng = SplitMix64::new(26);
    let widths = (1..=70).map(|n| (3, n)).chain([1, 15, 16, 17, 64, 1024].map(|n| (5, n)));
    for (rows, n) in widths {
        let (acc, mults) = requant_operands(&mut rng, rows * n, n);
        let x = gen_i8(rows * n, rng.next_u64() as u32 | 1, -128, 127);
        check_requant_on_every_tier(&acc, &mults, mults[rows % n], &x);
    }
}

/// Every accumulator edge against every multiplier edge, as per-channel
/// multipliers, as the scalar multiplier and as per-row multipliers —
/// `0 · inf`, the one way a NaN reaches the conversion, among them —
/// onto a hidden state at both saturation ends.
#[test]
fn requant_sweeps_are_exact_at_the_operand_extremes_on_every_tier() {
    let n = MULT_EDGES.len();
    let acc: Vec<i32> = ACC_EDGES.iter().flat_map(|&a| [a; MULT_EDGES.len()]).collect();
    assert!((acc[2 * n + 7] as f32 * MULT_EDGES[7]).is_nan(), "0 · inf is covered");
    let x: Vec<i8> = (0..acc.len()).map(|i| [127, -128, -127, 0, 1][i % 5]).collect();
    for mult in MULT_EDGES {
        check_requant_on_every_tier(&acc, &MULT_EDGES, mult, &x);
    }
}
