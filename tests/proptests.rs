//! Workspace-level property-based tests (proptest) on the core
//! invariants.

use camp::cache::{Cache, CacheConfig};
use camp::core::backend::CampBackend;
use camp::core::gemm_i32_ref;
use camp::core::hybrid::HybridMultiplier;
use camp::core::{CampEngine, DType, GemmRequest, Operand};
use camp::gemm::loops::{small_path, SmallPath};
use camp::gemm::{simulate_gemm, GemmOptions, Method, SimSession, SplitMix64};
use camp::isa::inst::CampMode;
use camp::isa::machine::camp_outer_product;
use camp::pipeline::CoreConfig;
use camp::quant::SymmetricQuantizer;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hybrid_multiplier_equals_native_i16(a in any::<i16>(), b in any::<i16>()) {
        let mut h = HybridMultiplier::new();
        prop_assert_eq!(h.mul_i16(a, b), a as i32 * b as i32);
    }

    #[test]
    fn hybrid_multiplier_equals_native_i32(a in any::<i32>(), b in any::<i32>()) {
        let mut h = HybridMultiplier::new();
        prop_assert_eq!(h.mul_i32(a, b), a as i64 * b as i64);
    }

    #[test]
    fn camp_outer_product_matches_gemm_i32_ref(a in prop::collection::vec(any::<u8>(), 64..65),
                                               b in prop::collection::vec(any::<u8>(), 64..65)) {
        // decode both registers into row-major A (4×k) and B (k×4): a
        // register holds k groups of four elements, A's columns and B's
        // rows, as bytes (i8) or low-nibble-first nibbles (i4)
        let ra: [u8; 64] = a.try_into().unwrap();
        let rb: [u8; 64] = b.try_into().unwrap();
        for (mode, k) in [(CampMode::I8, 16), (CampMode::I4, 32)] {
            let elem = |reg: &[u8; 64], e: usize| -> i8 {
                match mode {
                    CampMode::I8 => reg[e] as i8,
                    CampMode::I4 => (((reg[e / 2] >> (4 * (e % 2))) << 4) as i8) >> 4,
                }
            };
            let a_rows: Vec<i8> = (0..4 * k).map(|x| elem(&ra, (x % k) * 4 + x / k)).collect();
            let b_rows: Vec<i8> = (0..k * 4).map(|x| elem(&rb, x)).collect();
            let tile = camp_outer_product(mode, &ra, &rb);
            prop_assert_eq!(tile.concat(), gemm_i32_ref(4, 4, k, &a_rows, &b_rows));
        }
    }

    #[test]
    fn camp_engine_matches_reference(m in 1usize..12, n in 1usize..12, k in 1usize..48,
                                     seed in any::<u32>()) {
        let gen = |len: usize, s: u32| -> Vec<i8> {
            (0..len).map(|i| ((i as u32).wrapping_mul(s).wrapping_add(s) % 200) as i8)
                .map(|v| (v as i32 - 100).clamp(-8, 7) as i8).collect()
        };
        let a = gen(m * k, seed | 1);
        let b = gen(k * n, seed.rotate_left(7) | 1);
        let mut eng = CampEngine::new();
        for dtype in [DType::I8, DType::I4] {
            let req = GemmRequest::builder()
                .m(m).n(n).k(k)
                .activation(a.clone())
                .weights(Operand::from_dense(b.clone()))
                .dtype(dtype)
                .build().expect("coherent");
            prop_assert_eq!(eng.execute(&req).unwrap().output.c, gemm_i32_ref(m, n, k, &a, &b));
        }
    }

    #[test]
    fn parallel_engine_is_bit_identical_to_serial(m in 1usize..26, n in 1usize..26, k in 1usize..70,
                                                  threads in 2usize..9, seed in any::<u32>()) {
        let gen = |len: usize, s: u32| -> Vec<i8> {
            (0..len).map(|i| (((i as u32).wrapping_mul(s).wrapping_add(s) % 16) as i32 - 8) as i8)
                .collect()
        };
        let a = gen(m * k, seed | 1);
        let b = gen(k * n, seed.rotate_left(11) | 1);
        for dtype in [DType::I8, DType::I4] {
            let req = GemmRequest::builder()
                .m(m).n(n).k(k)
                .activation(a.clone())
                .weights(Operand::from_dense(b.clone()))
                .dtype(dtype)
                .build().expect("coherent");
            prop_assert_eq!(
                CampEngine::with_threads(threads).execute(&req).unwrap().output,
                CampEngine::new().execute(&req).unwrap().output
            );
        }
    }

    #[test]
    fn batched_gemm_is_bit_identical_to_per_request_loop(
        m1 in 0usize..13, n1 in 0usize..13, k1 in 0usize..40,
        m2 in 1usize..13, n2 in 1usize..13, k2 in 1usize..40,
        threads in 1usize..65, seed in any::<u32>())
    {
        // mixed ragged shapes (zero dims included), one request sharing
        // its B operand with another, across 1–64 worker threads; data
        // is 4-bit so the same batch exercises both kernels
        let gen = |len: usize, s: u32| -> Vec<i8> {
            (0..len).map(|i| (((i as u32).wrapping_mul(s).wrapping_add(s) % 16) as i32 - 8) as i8)
                .collect()
        };
        let a1 = gen(m1 * k1, seed | 1);
        let b1: Arc<[i8]> = gen(k1 * n1, seed.rotate_left(5) | 1).into();
        let a2 = gen(m2 * k2, seed.rotate_left(9) | 1);
        let b2: Arc<[i8]> = gen(k2 * n2, seed.rotate_left(13) | 1).into();
        let a3 = gen(m2 * k1, seed.rotate_left(17) | 1);
        for dtype in [DType::I8, DType::I4] {
            let dense = |m: usize, n: usize, k: usize, a: &Vec<i8>, b: &Arc<[i8]>| {
                GemmRequest::builder()
                    .m(m).n(n).k(k)
                    .activation(a.clone())
                    .weights(Operand::Dense(Arc::clone(b)))
                    .dtype(dtype)
                    .build().expect("coherent")
            };
            let reqs = vec![
                dense(m1, n1, k1, &a1, &b1),
                dense(m2, n2, k2, &a2, &b2),
                dense(m2, n1, k1, &a3, &b1), // shares B with request 0
            ];
            let mut eng = CampEngine::with_threads(threads);
            let batch = eng.execute_batch(&reqs).unwrap();
            let mut per_call = CampEngine::with_threads(threads);
            for (out, req) in batch.outputs.iter().zip(&reqs) {
                prop_assert_eq!(out, &per_call.execute(req).unwrap().output);
            }
        }
    }

    #[test]
    fn serving_paths_are_bit_identical_to_serial(
        m1 in 1usize..14, n1 in 1usize..14, k1 in 1usize..40,
        m2 in 1usize..14, n2 in 1usize..14, k2 in 1usize..40,
        threads in 1usize..65, seed in any::<u32>())
    {
        // the persistent pool, the pre-packed weight registry and the
        // submit/poll session must all reproduce the serial engine
        // exactly, over ragged shapes, shared and unshared handles,
        // mixed dtypes, and 1-64 worker threads
        let gen = |len: usize, s: u32| -> Vec<i8> {
            (0..len).map(|i| (((i as u32).wrapping_mul(s).wrapping_add(s) % 16) as i32 - 8) as i8)
                .collect()
        };
        let b1 = gen(k1 * n1, seed | 1);
        let b2 = gen(k2 * n2, seed.rotate_left(5) | 1);
        let a1 = gen(m1 * k1, seed.rotate_left(9) | 1);
        let a2 = gen(m2 * k2, seed.rotate_left(13) | 1);
        let a3 = gen(m2 * k1, seed.rotate_left(17) | 1);

        let mut eng = CampEngine::with_threads(threads);
        let h1 = eng.weights_mut().register(n1, k1, &b1, DType::I8);
        let h2 = eng.weights_mut().register(n2, k2, &b2, DType::I4);
        let handle_req = |m: usize, a: &Vec<i8>, h| GemmRequest::with_weights(m, a.clone(), h)
            .expect("coherent");

        // handle requests == reference (persistent pool + registry)
        prop_assert_eq!(
            eng.execute(&handle_req(m1, &a1, h1)).unwrap().output.c,
            gemm_i32_ref(m1, n1, k1, &a1, &b1)
        );
        prop_assert_eq!(
            eng.execute(&handle_req(m2, &a2, h2)).unwrap().output.c,
            gemm_i32_ref(m2, n2, k2, &a2, &b2)
        );

        // mixed batch: two requests sharing handle h1, one i4 handle,
        // one plain dense request running under i4
        let reqs = vec![
            handle_req(m1, &a1, h1),
            handle_req(m2, &a2, h2),
            handle_req(m2, &a3, h1), // shares h1
            GemmRequest::builder()
                .m(m2).n(n2).k(k2)
                .activation(a2.clone())
                .weights(Operand::from_dense(b2.clone()))
                .dtype(DType::I4)
                .build().expect("coherent"),
        ];
        let batch = eng.execute_batch(&reqs).unwrap();
        prop_assert_eq!(&batch.outputs[0].c, &gemm_i32_ref(m1, n1, k1, &a1, &b1));
        prop_assert_eq!(&batch.outputs[1].c, &gemm_i32_ref(m2, n2, k2, &a2, &b2));
        prop_assert_eq!(&batch.outputs[2].c, &gemm_i32_ref(m2, n1, k1, &a3, &b1));
        prop_assert_eq!(&batch.outputs[3].c, &gemm_i32_ref(m2, n2, k2, &a2, &b2));
        // only the dense request may pack B, and a skinny-m one reads
        // its dense B in place instead
        let stats = batch.stats.as_host().expect("host stats");
        let i4_pack = match small_path(m2, n2) {
            Some(SmallPath::SmallM) => 0,
            _ => (n2.div_ceil(4) * 4 * k2.div_ceil(32) * 32) as u64,
        };
        prop_assert_eq!(stats.packed_b_bytes, i4_pack);

        // session: two batches in flight, collected out of order
        let dispatcher = eng.dispatch();
        let mut session = dispatcher.session();
        let t1 = session.submit(vec![
            handle_req(m1, &a1, h1),
            handle_req(m2, &a3, h1), // shared handle
        ]).unwrap();
        let t2 = session.submit(vec![handle_req(m2, &a2, h2)]).unwrap();
        let out2 = session.wait(t2).expect("batch completes");
        let out1 = session.wait(t1).expect("batch completes");
        prop_assert_eq!(&out1.outputs[0], &batch.outputs[0]);
        prop_assert_eq!(&out1.outputs[1], &batch.outputs[2]);
        prop_assert_eq!(&out2.outputs[0], &batch.outputs[1]);
        prop_assert_eq!(out1.stats.as_host().expect("host").packed_b_bytes, 0);
        prop_assert_eq!(out2.stats.as_host().expect("host").packed_b_bytes, 0);
    }

    #[test]
    fn cache_accounting_invariant(addrs in prop::collection::vec(0u64..(1 << 16), 1..400)) {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1 << 10, assoc: 2, line_bytes: 64, hit_latency: 1, prefetch: false,
        });
        for &a in &addrs {
            c.access(a, a % 3 == 0, false);
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, s.accesses);
        prop_assert_eq!(s.accesses, addrs.len() as u64);
        prop_assert!(s.evictions <= s.misses);
    }

    #[test]
    fn quantizer_roundtrip_error_bound(vals in prop::collection::vec(-100f32..100.0, 1..200),
                                       bits in 2u32..9) {
        let q = SymmetricQuantizer::fit(&vals, bits);
        for &v in &vals {
            let back = q.dequantize(q.quantize(v));
            // error bounded by one step (clipping only at the extremes)
            prop_assert!((back - v).abs() <= q.scale * 1.01 + 1e-6,
                "v={v} back={back} scale={}", q.scale);
        }
    }

    #[test]
    fn quantized_gemm_error_shrinks_with_bits(seed in any::<u32>()) {
        let n = 8usize;
        let gen = |s: u32| -> Vec<f32> {
            (0..n * n).map(|i| (((i as u32).wrapping_mul(s) % 1000) as f32 / 500.0) - 1.0).collect()
        };
        let a_f = gen(seed | 3);
        let b_f = gen(seed.rotate_left(9) | 5);
        let mut err = Vec::new();
        let mut eng = CampEngine::new();
        for bits in [2u32, 4, 8] {
            let qa = SymmetricQuantizer::fit(&a_f, bits);
            let qb = SymmetricQuantizer::fit(&b_f, bits);
            let req = GemmRequest::dense(
                n, n, n, qa.quantize_all(&a_f), qb.quantize_all(&b_f),
            ).expect("coherent");
            let c = eng.execute(&req).unwrap().output.c;
            let mut e = 0f64;
            for i in 0..n {
                for j in 0..n {
                    let mut want = 0f32;
                    for l in 0..n {
                        want += a_f[i * n + l] * b_f[l * n + j];
                    }
                    let got = c[i * n + j] as f32 * qa.scale * qb.scale;
                    e += ((want - got) as f64).powi(2);
                }
            }
            err.push(e);
        }
        // 8-bit error must not exceed 2-bit error
        prop_assert!(err[2] <= err[0] + 1e-9, "8-bit {} vs 2-bit {}", err[2], err[0]);
    }
}

proptest! {
    // simulation is costlier per case than the host engine, so this
    // block runs fewer cases; the pinned all-methods counts live in
    // tests/sim_pinned.rs
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn simulated_driver_is_correct_on_random_ragged_shapes(
        m in 1usize..17, n in 1usize..17, k in 1usize..150,
        mi in 0usize..7)
    {
        // random ragged shape, random §5.3 method, blocking that splits
        // it into several (jc, pc) units: the merged C must match the
        // host reference
        let method = Method::all()[mi];
        let opts = GemmOptions { blocking: Some((8, 16, 128)), ..GemmOptions::default() };
        let r = simulate_gemm(CoreConfig::a64fx(), method, m, n, k, &opts);
        prop_assert!(r.correct, "{} wrong at {}x{}x{}", method.name(), m, n, k);
    }

    #[test]
    fn a_unit_counts_the_same_for_any_operands(
        m in 1usize..21, n in 1usize..41, k in 1usize..161,
        shape in 0usize..4, class in 0u32..3, seed in any::<u64>())
    {
        check_data_independence(m, n, k, shape, class, seed)?;
    }
}

proptest! {
    // the same property at 256 cases; release only
    // (`cargo test --release --test proptests -- --ignored`)
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    #[ignore]
    fn a_unit_counts_the_same_for_any_operands_at_256_cases(
        m in 1usize..21, n in 1usize..41, k in 1usize..161,
        shape in 0usize..4, class in 0u32..3, seed in any::<u64>())
    {
        check_data_independence(m, n, k, shape, class, seed)?;
    }
}

/// `len` operand values in `lo..=hi` of one class: all zero (0), each
/// at one end of the range (1), or mostly zero (2) — the values a
/// data-dependent latency would key on — or uniform over the range
/// (any other).
fn operand_set(class: u32, len: usize, (lo, hi): (i8, i8), rng: &mut SplitMix64) -> Vec<i8> {
    (0..len)
        .map(|_| match class {
            0 => 0,
            1 => [lo, hi][(rng.next_u64() & 1) as usize],
            2 if !rng.next_u64().is_multiple_of(8) => 0,
            _ => rng.next_i8(lo, hi),
        })
        .collect()
}

/// The claim the simulated driver's count memo rests on: a block unit's
/// `SimStats` are a function of (method, plan, unit) on a core, not of
/// the operand bytes. On both cores, an m×n×k problem of each camp
/// kernel over uniform operands and one over operands of `class` must
/// count exactly alike, and each C must equal its reference — also when
/// the second runs after the first on one session, every unit a memo
/// hit. `shape` picks the plan: the core's default blocking or one of
/// three multi-unit blockings (the last walks several row strips). The
/// five baselines are held to the same claim over two seeds' operands
/// inside camp-gemm
/// (`driver::tests::a_baseline_counts_the_same_for_any_seed`).
fn check_data_independence(
    m: usize,
    n: usize,
    k: usize,
    shape: usize,
    class: u32,
    seed: u64,
) -> Result<(), TestCaseError> {
    let opts = match shape {
        0 => GemmOptions::default(),
        1 => GemmOptions { blocking: Some((32, 64, 32)), ..GemmOptions::default() },
        2 => GemmOptions { blocking: Some((16, 32, 128)), ..GemmOptions::default() },
        _ => GemmOptions { blocking: Some((4, 8, 128)), ..GemmOptions::default() },
    };
    let mut rng = SplitMix64::new(seed);
    for core in [CoreConfig::a64fx(), CoreConfig::edge_riscv()] {
        for (method, range) in [(Method::Camp8, (i8::MIN, i8::MAX)), (Method::Camp4, (-8, 7))] {
            let mut set = |class| {
                (
                    operand_set(class, m * k, range, &mut rng),
                    operand_set(class, k * n, range, &mut rng),
                )
            };
            let ((a0, b0), (a1, b1)) = (set(u32::MAX), set(class));
            let mut session = SimSession::new(core);
            let first = session.simulate(method, (m, n, k), &a0, &b0, &opts);
            let cold = SimSession::new(core).simulate(method, (m, n, k), &a1, &b1, &opts);
            let warm = session.simulate(method, (m, n, k), &a1, &b1, &opts);
            let what = format!("{} on {}", method.name(), core.name);
            prop_assert!(first.correct && cold.correct && warm.correct, "{}: wrong C", what);
            prop_assert_eq!(first.stats, cold.stats, "{}: counts depend on the operands", what);
            prop_assert_eq!(&warm.c, &cold.c, "{}: a memo hit computed another C", what);
        }
    }
    Ok(())
}
