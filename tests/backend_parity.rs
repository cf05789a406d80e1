//! Backend parity: the acceptance property of the unified GEMM API.
//!
//! The same [`GemmRequest`] batch — random shapes, mixed dtypes, ragged
//! and degenerate problems, shared dense operands and registered
//! weight handles — must execute on the host [`CampEngine`] and on
//! the cycle-accurate [`SimBackend`] with **bit-identical** outputs,
//! both equal to the plain i32 reference. Plus: out-of-order ticket
//! redemption on a `Dispatcher<SimBackend>` session (simulated serving), and the
//! stats-frame agreement the figure harnesses rely on.

use std::sync::Arc;

use camp::core::backend::{CampBackend, SimBackend};
use camp::core::{gemm_i32_ref, CampEngine, DType, GemmRequest, Operand};
use camp::pipeline::CoreConfig;
use proptest::prelude::*;

fn gen_i4(len: usize, s: u32) -> Vec<i8> {
    (0..len).map(|i| (((i as u32).wrapping_mul(s).wrapping_add(s) % 16) as i32 - 8) as i8).collect()
}

fn dense(m: usize, n: usize, k: usize, a: Vec<i8>, b: Arc<[i8]>, dtype: DType) -> GemmRequest {
    GemmRequest::builder()
        .m(m)
        .n(n)
        .k(k)
        .activation(a)
        .weights(Operand::Dense(b))
        .dtype(dtype)
        .build()
        .expect("generated shapes are coherent")
}

proptest! {
    // simulation is costly per case, so few cases with rich batches
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn same_requests_execute_identically_on_both_substrates(
        m1 in 1usize..10, n1 in 1usize..10, k1 in 1usize..40,
        m2 in 0usize..10, n2 in 1usize..10, k2 in 1usize..40,
        threads in 1usize..5, seed in any::<u32>())
    {
        // unique tensors, shared by Arc identity where problems overlap
        let b1: Arc<[i8]> = gen_i4(k1 * n1, seed | 1).into();
        let b2: Arc<[i8]> = gen_i4(k2 * n2, seed.rotate_left(5) | 1).into();
        let a1 = gen_i4(m1 * k1, seed.rotate_left(9) | 1);
        let a2 = gen_i4(m2 * k2, seed.rotate_left(13) | 1);
        let a3 = gen_i4(m2 * k1, seed.rotate_left(17) | 1);
        let wreg = gen_i4(k1 * n1, seed.rotate_left(21) | 1);

        let mut host = CampEngine::with_threads(threads);
        let mut sim = SimBackend::new(CoreConfig::a64fx());
        // one registered weight per backend (the handle operand of the
        // acceptance criterion)
        let hh = host.weights_mut().register(n1, k1, &wreg, DType::I8);
        let sh = sim.weights_mut().register(n1, k1, &wreg, DType::I8);

        // ragged batch: i8 + i4 + shared-B + possibly-degenerate + handle
        let build = |h| -> Vec<GemmRequest> { vec![
            dense(m1, n1, k1, a1.clone(), Arc::clone(&b1), DType::I8),
            dense(m2, n2, k2, a2.clone(), Arc::clone(&b2), DType::I4),
            dense(m2, n1, k1, a3.clone(), Arc::clone(&b1), DType::I8), // shares B
            GemmRequest::with_weights(m1, a1.clone(), h).expect("coherent"),
        ]};
        let host_batch = host.execute_batch(&build(hh)).expect("host batch");
        let sim_batch = sim.execute_batch(&build(sh)).expect("sim batch");

        let expect = [
            gemm_i32_ref(m1, n1, k1, &a1, &b1),
            gemm_i32_ref(m2, n2, k2, &a2, &b2),
            gemm_i32_ref(m2, n1, k1, &a3, &b1),
            gemm_i32_ref(m1, n1, k1, &a1, &wreg),
        ];
        for (i, want) in expect.iter().enumerate() {
            prop_assert_eq!(&host_batch.outputs[i].c, want, "host problem {}", i);
            prop_assert_eq!(&sim_batch.outputs[i].c, want, "sim problem {}", i);
        }
        prop_assert_eq!(&host_batch.outputs, &sim_batch.outputs);
    }

    #[test]
    fn simulated_sessions_redeem_tickets_out_of_order(
        m in 1usize..6, n in 1usize..8, k in 1usize..24, seed in any::<u32>())
    {
        let w = gen_i4(k * n, seed | 1);
        let mut sim = SimBackend::new(CoreConfig::a64fx());
        let h = sim.weights_mut().register(n, k, &w, DType::I8);
        let activations: Vec<Vec<i8>> = (0..3)
            .map(|i| gen_i4(m * k, seed.rotate_left(3 + 2 * i) | 1))
            .collect();
        let dispatcher = sim.dispatch();
        let mut session = dispatcher.session();
        let tickets: Vec<_> = activations
            .iter()
            .map(|a| {
                let req = GemmRequest::with_weights(m, a.clone(), h).expect("coherent");
                session.submit(vec![req]).expect("validated")
            })
            .collect();
        // redeem newest-first: out-of-order collection on the simulator
        for (a, t) in activations.iter().zip(&tickets).rev() {
            let outcome = session.wait(*t).expect("batch completes");
            prop_assert_eq!(&outcome.outputs[0].c, &gemm_i32_ref(m, n, k, a, &w));
            prop_assert!(outcome.stats.as_sim().expect("sim serving").cycles > 0);
        }
        drop(session);
        let sim = dispatcher.into_backend();
        prop_assert_eq!(sim.name(), "cycle-accurate-sim");
    }
}

/// The figure harnesses route camp methods through the backend while
/// baselines use the classic driver path: both must report the same
/// single-core stats for the same shape (timing is operand-value
/// independent, so the RNG workload and a request workload agree).
#[test]
fn request_path_stats_match_the_classic_driver_path() {
    use camp::gemm::{simulate_gemm, GemmOptions, Method};
    let (m, n, k) = (16, 16, 64);
    let classic =
        simulate_gemm(CoreConfig::a64fx(), Method::Camp8, m, n, k, &GemmOptions::default());
    assert!(classic.correct);

    let req = GemmRequest::dense(m, n, k, gen_i4(m * k, 3), gen_i4(k * n, 5)).unwrap();
    let outcome = SimBackend::new(CoreConfig::a64fx()).execute(&req).unwrap();
    let stats = outcome.stats.as_sim().expect("sim stats");
    assert_eq!(stats.cycles, classic.stats.cycles, "single-core cycles must agree");
    assert_eq!(stats.insts, classic.stats.insts, "instruction counts must agree");
}
