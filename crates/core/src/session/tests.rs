//! One session driving real backends through the *queued* pipeline
//! (submit → driver → wait) at default options, through the
//! public API only. The `dispatch` unit tests pin scheduling order on a
//! gated mock; these pin what comes out of a real `CampEngine` /
//! `SimBackend` at the other end.

use crate::backend::{BatchOutcome, CampBackend, ExecStats, SimBackend};
use crate::dispatch::{DispatchOptions, DispatchSession, Dispatcher, TicketId};
use crate::WeightRegistry;
use crate::{gemm_i32_ref, CampEngine, DType, GemmRequest, RequestError, WeightHandle};
use camp_gemm::host::KernelInfo;

fn queued<B: CampBackend + Send + 'static>(backend: B) -> (Dispatcher<B>, DispatchSession<B>) {
    let dispatcher = Dispatcher::with_options(backend, DispatchOptions::default());
    let session = dispatcher.session();
    (dispatcher, session)
}

fn fill(len: usize, seed: i32) -> Vec<i8> {
    (0..len).map(|i| ((i as i32 * seed) % 16 - 8) as i8).collect()
}

fn serving_setup(threads: usize) -> (CampEngine, WeightHandle, Vec<i8>, usize, usize) {
    let (n, k) = (12, 33);
    let w = fill(k * n, 5);
    let mut eng = CampEngine::with_threads(threads);
    let h = eng.weights_mut().register(n, k, &w, DType::I8);
    (eng, h, w, n, k)
}

fn handle_req(m: usize, a: Vec<i8>, h: WeightHandle) -> GemmRequest {
    GemmRequest::with_weights(m, a, h).expect("well-formed request")
}

fn host_packed_b(stats: &ExecStats) -> u64 {
    stats.as_host().expect("host stats").packed_b_bytes
}

#[test]
fn submit_wait_matches_the_blocking_backend() {
    for threads in [1, 2, 4] {
        let (eng, h, w, n, k) = serving_setup(threads);
        let a1 = fill(7 * k, 3);
        let a2 = fill(4 * k, 11);
        let (_dispatcher, mut session) = queued(eng);
        let t = session
            .submit(vec![handle_req(7, a1.clone(), h), handle_req(4, a2.clone(), h)])
            .unwrap();
        let outcome = session.wait(t).unwrap();
        assert_eq!(outcome.outputs[0].c, gemm_i32_ref(7, n, k, &a1, &w), "threads={threads}");
        assert_eq!(outcome.outputs[1].c, gemm_i32_ref(4, n, k, &a2, &w), "threads={threads}");
        let stats = outcome.stats.as_host().expect("host session");
        assert_eq!(stats.packed_b_bytes, 0, "registered weights never pack B");
        assert!(stats.packed_a_bytes > 0, "A's packing traffic is accounted");
    }
}

#[test]
fn many_batches_in_flight_complete_and_poll_in_any_order() {
    let (eng, h, w, n, k) = serving_setup(2);
    let (_dispatcher, mut session) = queued(eng);
    let activations: Vec<Vec<i8>> = (0..6).map(|i| fill(3 * k, 3 + 2 * i)).collect();
    let tickets: Vec<TicketId> = activations
        .iter()
        .map(|a| session.submit(vec![handle_req(3, a.clone(), h)]).unwrap())
        .collect();
    // redeem newest-first: out-of-order collection must work
    for (a, t) in activations.iter().zip(&tickets).rev() {
        let outcome = session.wait(*t).unwrap();
        assert_eq!(outcome.outputs[0].c, gemm_i32_ref(3, n, k, a, &w));
    }
}

#[test]
fn poll_returns_none_until_ready_and_hands_out_once() {
    let (eng, h, w, n, k) = serving_setup(2);
    let a = fill(5 * k, 7);
    let (_dispatcher, mut session) = queued(eng);
    let t = session.submit(vec![handle_req(5, a.clone(), h)]).unwrap();
    // poll until ready (bounded busy loop, the batch is tiny)
    let mut got = None;
    for _ in 0..10_000 {
        if let Some(outcome) = session.poll(t) {
            got = Some(outcome.unwrap());
            break;
        }
        std::thread::yield_now();
    }
    let outcome = got.expect("batch never completed");
    assert_eq!(outcome.outputs[0].c, gemm_i32_ref(5, n, k, &a, &w));
    assert!(session.poll(t).is_none(), "results are handed out exactly once");
}

#[test]
fn i4_weights_serve_under_the_i4_kernel() {
    let (n, k) = (8, 40);
    let w = fill(k * n, 5);
    let mut eng = CampEngine::with_threads(2);
    let h = eng.weights_mut().register(n, k, &w, DType::I4);
    let a = fill(6 * k, 3);
    let (_dispatcher, mut session) = queued(eng);
    let t = session.submit(vec![handle_req(6, a.clone(), h)]).unwrap();
    assert_eq!(session.wait(t).unwrap().outputs[0].c, gemm_i32_ref(6, n, k, &a, &w));
}

#[test]
fn dense_requests_serve_with_b_staged_off_the_compute_path() {
    // a blocked request's dense B is packed once, by the engine
    // (a skinny one would read it in place and account nothing)
    let (m, n, k) = (12, 10, 33);
    let w = fill(k * n, 5);
    let a = fill(m * k, 3);
    let req = GemmRequest::dense(m, n, k, a.clone(), w.clone()).unwrap();
    let (_dispatcher, mut session) = queued(CampEngine::with_threads(2));
    let t = session.submit(vec![req]).unwrap();
    let outcome = session.wait(t).unwrap();
    assert_eq!(outcome.outputs[0].c, gemm_i32_ref(m, n, k, &a, &w));
    assert!(host_packed_b(&outcome.stats) > 0, "dense B packing is accounted");
}

#[test]
fn degenerate_requests_serve_zero_filled_results() {
    let (n, k) = (4, 4);
    let w = fill(k * n, 5);
    let mut eng = CampEngine::new();
    let h = eng.weights_mut().register(n, k, &w, DType::I8);
    let h0 = eng.weights_mut().register(4, 0, &[], DType::I8);
    let (_dispatcher, mut session) = queued(eng);
    let t =
        session.submit(vec![handle_req(0, Vec::new(), h), handle_req(3, Vec::new(), h0)]).unwrap();
    let outcome = session.wait(t).unwrap();
    assert!(outcome.outputs[0].c.is_empty());
    assert_eq!(outcome.outputs[1].c, vec![0; 12]);
}

#[test]
fn into_backend_drains_and_returns_a_warm_engine() {
    let (eng, h, w, n, k) = serving_setup(2);
    let a = fill(4 * k, 9);
    let req = handle_req(4, a.clone(), h);
    let (dispatcher, mut session) = queued(eng);
    let t = session.submit(vec![req.clone()]).unwrap();
    let outcome = session.wait(t).unwrap();
    // drain BEFORE the session handle drops: a dropped session cancels
    // its unclaimed batches, into_backend finishes every one
    let mut eng = dispatcher.into_backend();
    // registry and pools survive the round trip
    assert_eq!(eng.execute(&req).unwrap().output, outcome.outputs[0]);
    assert_eq!(eng.execute(&req).unwrap().output.c, gemm_i32_ref(4, n, k, &a, &w));
}

#[test]
fn large_requests_take_the_row_split_path() {
    // above BATCH_ROW_SPLIT_MACS: row-partitioned across the pool,
    // each range packing its own rows of A — still bit-identical
    let (n, k) = (160, 512);
    let m = 160; // 13.1 M MACs
    assert!((m * n * k) as u64 >= crate::engine::BATCH_ROW_SPLIT_MACS);
    let w = fill(k * n, 5);
    let a = fill(m * k, 3);
    let mut eng = CampEngine::with_threads(4);
    let h = eng.weights_mut().register(n, k, &w, DType::I8);
    let (_dispatcher, mut session) = queued(eng);
    let t = session.submit(vec![handle_req(m, a.clone(), h)]).unwrap();
    assert_eq!(session.wait(t).unwrap().outputs[0].c, gemm_i32_ref(m, n, k, &a, &w));
}

#[test]
fn submit_rejects_malformed_activations_without_panicking() {
    let (eng, h, _, _, _) = serving_setup(1);
    let (_dispatcher, mut session) = queued(eng);
    let err = session.submit(vec![handle_req(3, vec![0; 5], h)]).unwrap_err();
    assert!(matches!(err, RequestError::ShapeMismatch { operand: "A", .. }));
    // the session survives a rejected submission
    let t = session.submit(Vec::new()).unwrap();
    assert!(session.wait(t).unwrap().outputs.is_empty());
}

#[test]
fn submit_rejects_stale_handles() {
    let (mut eng, h, _, _, k) = serving_setup(1);
    eng.weights_mut().evict(h).unwrap();
    let (_dispatcher, mut session) = queued(eng);
    let err = session.submit(vec![handle_req(2, fill(2 * k, 3), h)]).unwrap_err();
    assert_eq!(err, RequestError::StaleHandle);
}

#[test]
#[should_panic(expected = "ticket result was already collected")]
fn waiting_twice_on_a_ticket_is_an_error() {
    let (eng, h, _, _, k) = serving_setup(1);
    let a = fill(2 * k, 3);
    let (_dispatcher, mut session) = queued(eng);
    let t = session.submit(vec![handle_req(2, a, h)]).unwrap();
    let _ = session.wait(t);
    let _ = session.wait(t);
}

#[test]
fn session_steady_state_packs_no_b_and_pools_stop_growing() {
    let (eng, h, w, n, k) = serving_setup(3);
    let a = fill(8 * k, 3);
    let (dispatcher, mut session) = queued(eng);
    // warm-up round, then steady state
    let warm = session.submit(vec![handle_req(8, a.clone(), h)]).unwrap();
    let _ = session.wait(warm);
    let eng = dispatcher.into_backend();
    let warm_allocs = eng.pack_allocations();
    let (dispatcher, mut session) = queued(eng);
    for _ in 0..4 {
        let t = session.submit(vec![handle_req(8, a.clone(), h)]).unwrap();
        let outcome = session.wait(t).unwrap();
        assert_eq!(outcome.outputs[0].c, gemm_i32_ref(8, n, k, &a, &w));
        assert_eq!(host_packed_b(&outcome.stats), 0, "steady-state serving must not pack B");
    }
    // pack pools are warm: steady-state batches grow nothing (the
    // per-request result vectors are the caller-visible allocations,
    // not pool churn)
    assert_eq!(dispatcher.into_backend().pack_allocations(), warm_allocs);
}

#[test]
fn deep_submission_backlogs_complete_in_order() {
    // a backlog deeper than the default admission bound: every batch
    // sits queued in the session and still completes, in order
    let (eng, h, w, n, k) = serving_setup(2);
    let dispatcher = Dispatcher::with_options(eng, DispatchOptions::default());
    let mut session = dispatcher.session_with_depth(12);
    let activations: Vec<Vec<i8>> = (0..12).map(|i| fill(2 * k, 3 + 2 * i)).collect();
    let tickets: Vec<TicketId> = activations
        .iter()
        .map(|a| session.submit(vec![handle_req(2, a.clone(), h)]).unwrap())
        .collect();
    assert_eq!(session.in_flight(), 12);
    for (a, t) in activations.iter().zip(&tickets) {
        assert_eq!(session.wait(*t).unwrap().outputs[0].c, gemm_i32_ref(2, n, k, a, &w));
    }
    assert_eq!(session.in_flight(), 0);
}

/// A backend that panics on every batch it is handed: a fault on the
/// driver thread, which no validated request can cause on a real one.
struct FaultyBackend(WeightRegistry);

impl CampBackend for FaultyBackend {
    fn name(&self) -> &'static str {
        "test-faulty"
    }

    fn kernel_info(&self) -> KernelInfo {
        unimplemented!("not part of the serving protocol")
    }

    fn weights(&self) -> &WeightRegistry {
        &self.0
    }

    fn weights_mut(&mut self) -> &mut WeightRegistry {
        &mut self.0
    }

    fn execute_prepared(&mut self, _: Vec<GemmRequest>) -> BatchOutcome {
        panic!("the poisoned batch reached the backend")
    }
}

#[test]
#[should_panic(expected = "serving session is dead")]
fn a_poisoned_request_kills_the_session_loudly_not_silently() {
    // the backend panics on the driver thread; the death must surface on
    // wait(), not hang it, and the dispatcher must still shut down
    // cleanly afterwards (Drop)
    let (_dispatcher, mut session) = queued(FaultyBackend(WeightRegistry::new()));
    let t = session.submit(vec![GemmRequest::dense(2, 4, 8, fill(16, 3), fill(32, 5)).unwrap()]);
    let _ = session.wait(t.unwrap());
}

#[test]
fn handles_from_another_backend_are_rejected_at_submit() {
    // same index, same shape, different engine: without the registry
    // stamp this would silently use the wrong weights
    let (eng, _, _, n, k) = serving_setup(1);
    let mut other = CampEngine::new();
    let foreign = other.weights_mut().register(n, k, &fill(k * n, 9), DType::I8);
    let (_dispatcher, mut session) = queued(eng);
    let err = session.submit(vec![handle_req(2, fill(2 * k, 3), foreign)]).unwrap_err();
    assert_eq!(err, RequestError::ForeignHandle);
}

#[test]
fn simulated_sessions_serve_batches_too() {
    let (n, k) = (8, 32);
    let w = fill(k * n, 5);
    let a = fill(4 * k, 3);
    let mut sim = SimBackend::a64fx();
    let h = sim.weights_mut().register(n, k, &w, DType::I8);
    let (dispatcher, mut session) = queued(sim);
    let t = session.submit(vec![handle_req(4, a.clone(), h)]).unwrap();
    let outcome = session.wait(t).unwrap();
    assert_eq!(outcome.outputs[0].c, gemm_i32_ref(4, n, k, &a, &w));
    let stats = outcome.stats.as_sim().expect("simulated session");
    assert!(stats.cycles > 0, "simulated serving must report cycles");
    // the backend comes back usable
    let mut sim = dispatcher.into_backend();
    let req = handle_req(4, a.clone(), h);
    assert_eq!(sim.execute(&req).unwrap().output.c, gemm_i32_ref(4, n, k, &a, &w));
}
