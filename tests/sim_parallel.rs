//! Cross-crate tests of the parallel simulated driver: scheduling the
//! driver's independent (jc, pc) block units (and batch items) on
//! `camp-core`'s persistent [`WorkerPool`] must be **bit-invisible** —
//! identical output bits and identical merged [`SimStats`] at any
//! thread count, across every §5.3 dispatch method, on ragged shapes.
//!
//! This is the acceptance contract of the parallel decomposition (see
//! `docs/SIMULATOR.md`): the unit grid and the merge order — not the
//! scheduler — define the result. The simulator being deterministic,
//! the result itself is pinned too: exact counts, not a tolerance.

use camp::core::WorkerPool;
use camp::gemm::{
    simulate_gemm_batch, simulate_gemm_batch_on, simulate_gemm_on, DType, GemmOptions, GemmProblem,
    Method, SerialScheduler,
};
use camp::pipeline::CoreConfig;

/// Blocking that splits modest problems into several column strips and
/// several depth blocks for every kernel geometry.
fn multi_unit_opts() -> GemmOptions {
    GemmOptions { blocking: Some((16, 32, 128)), ..GemmOptions::default() }
}

/// `[cycles, insts, macs, stall_fu, stall_read, stall_write, l1d demand
/// misses]` of 20×70×260 under [`multi_unit_opts`], one row per
/// [`Method::all`] entry. A row moves only when the model of the core,
/// the caches or that method's kernel changes — say so in the PR.
type Pinned = [[u64; 7]; 7];

const PINNED_A64FX: Pinned = [
    [27627, 57708, 553608, 141728, 76083, 56415, 355], // CAMP-8bit
    [26646, 54333, 553608, 201023, 75920, 56463, 250], // CAMP-4bit
    [37115, 88738, 416180, 919196, 203399, 36, 428],   // handv-int32
    [16172, 34452, 665672, 365810, 79808, 0, 192],     // handv-int8
    [67101, 112833, 499308, 632053, 144226, 2001123, 711], // gemmlowp
    [34212, 87078, 599112, 1360255, 110111, 47031, 591], // OpenBLAS
    [50091, 88713, 456408, 208716, 196954, 1374900, 768], // MMLA
];

const PINNED_EDGE_RISCV: Pinned = [
    [258426, 57708, 553608, 6390, 211008, 990, 2697], // CAMP-8bit
    [176571, 54333, 553608, 8550, 129888, 270, 1557], // CAMP-4bit
    [457269, 88738, 416180, 9405, 391264, 2640, 5602], // handv-int32
    [156058, 34452, 665672, 2250, 132640, 440, 1562], // handv-int8
    [318837, 112833, 499308, 86535, 169710, 660, 2133], // gemmlowp
    [525891, 87078, 599112, 62837, 415980, 3888, 6842], // OpenBLAS
    [277209, 88713, 456408, 28809, 197088, 0, 2280],  // MMLA
];

#[test]
fn one_sim_thread_is_bit_identical_to_many_across_all_methods() {
    let pool = WorkerPool::new(4);
    // ragged on purpose: no dimension is a multiple of any kernel's
    // mr/nr/k-step, so padding and edge blocks are all exercised
    let (m, n, k) = (20, 70, 260);
    for (core, pinned) in
        [(CoreConfig::a64fx(), PINNED_A64FX), (CoreConfig::edge_riscv(), PINNED_EDGE_RISCV)]
    {
        for (method, pin) in Method::all().into_iter().zip(pinned) {
            let opts = multi_unit_opts();
            let serial = simulate_gemm_on(core, method, m, n, k, &opts, &SerialScheduler);
            assert!(serial.correct, "{} wrong serially", method.name());
            let parallel = simulate_gemm_on(core, method, m, n, k, &opts, &pool);
            assert!(parallel.correct, "{} wrong on the pool", method.name());
            assert_eq!(serial.c, parallel.c, "{} output bits diverged", method.name());
            assert_eq!(serial.stats, parallel.stats, "{} stats diverged", method.name());
            assert_eq!(serial.gops, parallel.gops, "{}", method.name());
            let s = &serial.stats;
            assert_eq!(
                [s.cycles, s.insts, s.macs, s.stall_fu, s.stall_read, s.stall_write, s.l1d.misses],
                pin,
                "{} on {}: pinned counts moved",
                method.name(),
                core.name
            );
        }
    }
}

#[test]
fn thread_count_is_invisible_on_a_second_ragged_shape() {
    // a second shape and a wider pool, for the two reference-extreme
    // kernels (integer camp and the f32 baseline, whose C merge uses
    // floating-point accumulation)
    let pool = WorkerPool::new(8);
    for method in [Method::Camp8, Method::OpenblasF32] {
        let opts = multi_unit_opts();
        let serial =
            simulate_gemm_on(CoreConfig::a64fx(), method, 13, 37, 141, &opts, &SerialScheduler);
        let parallel = simulate_gemm_on(CoreConfig::a64fx(), method, 13, 37, 141, &opts, &pool);
        assert!(serial.correct && parallel.correct, "{}", method.name());
        assert_eq!(serial.c, parallel.c, "{}", method.name());
        assert_eq!(serial.stats, parallel.stats, "{}", method.name());
    }
}

fn fill(len: usize, seed: i32) -> Vec<i8> {
    (0..len).map(|i| ((i as i32 * seed) % 16 - 8) as i8).collect()
}

#[test]
fn batch_on_the_pool_matches_the_serial_batch_and_solo_runs() {
    // attention-style inventory: several small problems, three sharing
    // one weight matrix (the dedup path), one i4 problem mixed in
    let (n, k) = (12, 48);
    let w_shared = fill(k * n, 5);
    let w_other = fill(k * n, 9);
    let acts: Vec<Vec<i8>> = (0..4).map(|i| fill(6 * k, 3 + 2 * i)).collect();
    let problems = [
        GemmProblem::new(6, n, k, &acts[0], &w_shared),
        GemmProblem::new(6, n, k, &acts[1], &w_other),
        GemmProblem::new(6, n, k, &acts[2], &w_shared), // dedup vs #0
        GemmProblem::new(6, n, k, &acts[3], &w_shared).with_dtype(DType::I4), // i4: own layout
    ];
    let opts = GemmOptions::default();
    let serial = simulate_gemm_batch(CoreConfig::a64fx(), &problems, &opts);
    let pool = WorkerPool::new(4);
    let parallel = simulate_gemm_batch_on(CoreConfig::a64fx(), &problems, &opts, &pool);
    assert_eq!(serial.results.len(), problems.len());
    assert_eq!(serial.stats, parallel.stats, "batch stats diverged");
    for (i, (s, p)) in serial.results.iter().zip(&parallel.results).enumerate() {
        assert!(s.correct, "problem {i} wrong serially");
        assert_eq!(s.c, p.c, "problem {i} output bits diverged");
        assert_eq!(s.stats, p.stats, "problem {i} stats diverged");
    }
    // every problem's output matches a solo run of the same descriptor
    // (the dedup consumer pays less pack work but computes the same C)
    for (i, p) in problems.iter().enumerate() {
        let solo = simulate_gemm_batch(CoreConfig::a64fx(), &[*p], &opts);
        assert_eq!(solo.results[0].c, serial.results[i].c, "problem {i} vs solo");
    }
    // the i4/i8 problems really ran under different kernels
    assert!(serial.results[0].stats.camp_issues_i8 > 0);
    assert_eq!(serial.results[0].stats.camp_issues_i4, 0);
    assert!(serial.results[3].stats.camp_issues_i4 > 0);
    // batch merge law: cycles = sum across items, like all work
    let expect_cycles: u64 = serial.results.iter().map(|r| r.stats.cycles).sum();
    let expect_insts: u64 = serial.results.iter().map(|r| r.stats.insts).sum();
    assert_eq!(serial.stats.cycles, expect_cycles);
    assert_eq!(serial.stats.insts, expect_insts);
}

#[test]
fn engine_pool_is_sharable_with_the_simulated_driver() {
    // one thread budget for both halves: the engine's own pool
    // schedules simulated block units with bit-identical results
    let engine = camp::core::CampEngine::with_threads(3);
    let pool = engine.worker_pool().expect("parallel engine has a pool");
    let opts = multi_unit_opts();
    let serial =
        simulate_gemm_on(CoreConfig::a64fx(), Method::Camp8, 20, 40, 260, &opts, &SerialScheduler);
    let on_engine_pool =
        simulate_gemm_on(CoreConfig::a64fx(), Method::Camp8, 20, 40, 260, &opts, &*pool);
    assert_eq!(serial.c, on_engine_pool.c);
    assert_eq!(serial.stats, on_engine_pool.stats);
    // the engine still works after serving as a sim scheduler
    use camp::core::backend::CampBackend;
    let mut engine = engine;
    let a = fill(4 * 8, 3);
    let b = fill(8 * 4, 5);
    let req = camp::core::GemmRequest::dense(4, 4, 8, a.clone(), b.clone()).unwrap();
    assert_eq!(engine.execute(&req).unwrap().output.c, camp::gemm::gemm_i32_ref(4, 4, 8, &a, &b));
}
