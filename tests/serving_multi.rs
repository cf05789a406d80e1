//! Multi-tenant serving integration suite: N concurrent sessions over
//! one dispatcher-owned engine must be **bit-identical** to the serial
//! reference, bounded in memory (admission control), bounded in latency
//! (priority + aging), and clean under weight-eviction races — with no
//! leaked worker-pool jobs or in-flight permits after a drain.
//!
//! The deterministic scheduling-order proofs (decode-overtakes-prefill,
//! exact saturation bound, where staging runs) live in
//! `camp_core::dispatch`'s unit tests against a gated mock backend; the
//! exhaustive interleaving proofs live in the `--cfg loom` model suite.
//! This file drives the *real* `CampEngine` from real OS threads.

use std::sync::{Arc, Mutex};

use camp::core::backend::{BatchOutcome, CampBackend};
use camp::core::{
    gemm_i32_ref, CampEngine, DType, DispatchOptions, Dispatcher, GemmRequest, Priority,
    RequestError, WeightRegistry,
};
use camp::gemm::KernelInfo;
use proptest::prelude::*;

fn gen(len: usize, s: u32) -> Vec<i8> {
    (0..len).map(|i| (((i as u32).wrapping_mul(s).wrapping_add(s) % 16) as i32 - 8) as i8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// N tenants × 1–64 engine threads, each tenant streaming ragged mixed-dtype batches (registered i8 and
    /// i4 handles plus dense operands) from its own OS thread and
    /// redeeming tickets out of submission order: every output bit must
    /// equal `gemm_i32_ref`, and draining must hand back a warm engine
    /// with an empty worker-pool queue.
    #[test]
    fn n_tenants_are_bit_identical_to_the_reference(
        sessions in 1usize..9, threads in 1usize..65, seed in any::<u32>())
    {
        let n1 = 1 + (seed % 13) as usize;
        let k1 = 1 + ((seed >> 8) % 39) as usize;
        let n2 = 1 + ((seed >> 16) % 13) as usize;
        let k2 = 1 + ((seed >> 24) % 39) as usize;
        let b1 = gen(k1 * n1, seed | 1);
        let b2 = gen(k2 * n2, seed.rotate_left(5) | 1);

        let mut engine = CampEngine::with_threads(threads);
        let h1 = engine.weights_mut().register(n1, k1, &b1, DType::I8);
        let h2 = engine.weights_mut().register(n2, k2, &b2, DType::I4);
        let pool = engine.worker_pool();

        let opts = DispatchOptions { queue_depth: 16 };
        let dispatcher = Arc::new(Dispatcher::with_options(engine, opts));

        let tenants: Vec<_> = (0..sessions)
            .map(|s| {
                let mut session = dispatcher.session();
                let s_seed = seed.rotate_left(s as u32).wrapping_add(s as u32) | 1;
                let (b1, b2) = (b1.clone(), b2.clone());
                std::thread::spawn(move || {
                    // ragged per-tenant shapes
                    let ma = 1 + (s_seed % 11) as usize;
                    let mb = 1 + ((s_seed >> 7) % 11) as usize;
                    let a1 = gen(ma * k1, s_seed);
                    let a2 = gen(mb * k2, s_seed.rotate_left(3));
                    let a3 = gen(mb * k1, s_seed.rotate_left(7));
                    let prio = if s % 2 == 0 { Priority::Decode } else { Priority::Prefill };

                    let t1 = session
                        .submit_with(
                            vec![
                                GemmRequest::with_weights(ma, a1.clone(), h1).unwrap(),
                                GemmRequest::with_weights(mb, a3.clone(), h1).unwrap(),
                            ],
                            prio,
                            None,
                        )
                        .expect("tenant batch admits");
                    let t2 = session
                        .submit(vec![GemmRequest::with_weights(mb, a2.clone(), h2).unwrap()])
                        .expect("tenant batch admits");
                    let t3 = session
                        .submit(vec![
                            GemmRequest::dense(ma, n1, k1, a1.clone(), b1.clone()).unwrap(),
                        ])
                        .expect("tenant batch admits");

                    // out-of-submission-order redemption
                    let out3 = session.wait(t3).expect("dense batch completes");
                    let out1 = session.wait(t1).expect("handle batch completes");
                    let out2 = session.wait(t2).expect("i4 handle batch completes");
                    assert_eq!(out1.outputs[0].c, gemm_i32_ref(ma, n1, k1, &a1, &b1));
                    assert_eq!(out1.outputs[1].c, gemm_i32_ref(mb, n1, k1, &a3, &b1));
                    assert_eq!(out2.outputs[0].c, gemm_i32_ref(mb, n2, k2, &a2, &b2));
                    assert_eq!(out3.outputs[0].c, out1.outputs[0].c, "dense vs handle parity");
                    // steady-state handle batches pack zero B bytes
                    assert_eq!(out1.stats.as_host().expect("host stats").packed_b_bytes, 0);
                })
            })
            .collect();
        for t in tenants {
            t.join().expect("tenant thread panicked");
        }

        let stats = dispatcher.stats();
        prop_assert_eq!(stats.executed, 3 * sessions as u64);
        prop_assert_eq!(stats.rejected, 0);
        prop_assert_eq!(stats.staging_live, 0, "drained dispatcher leaked in-flight permits");

        // drain: the warm engine comes back intact, the pool queue empty
        let mut engine = Arc::into_inner(dispatcher)
            .expect("all tenants dropped their handles")
            .into_backend();
        if let Some(pool) = pool {
            prop_assert_eq!(pool.queued_jobs(), 0, "drained dispatcher leaked pool jobs");
        }
        let a = gen(3 * k1, seed.rotate_left(11) | 1);
        let out = engine
            .execute(&GemmRequest::with_weights(3, a.clone(), h1).unwrap())
            .expect("handle survives the dispatcher");
        prop_assert_eq!(out.output.c, gemm_i32_ref(3, n1, k1, &a, &b1));
    }
}

/// The engine, logging the first request's `m` of every batch in
/// execution order: a batch's *position* among the others, which no
/// counter read after the fact can give.
struct OrderLog {
    engine: CampEngine,
    log: Arc<Mutex<Vec<usize>>>,
}

impl CampBackend for OrderLog {
    fn name(&self) -> &'static str {
        self.engine.name()
    }
    fn kernel_info(&self) -> KernelInfo {
        self.engine.kernel_info()
    }
    fn weights(&self) -> &WeightRegistry {
        self.engine.weights()
    }
    fn weights_mut(&mut self) -> &mut WeightRegistry {
        self.engine.weights_mut()
    }
    fn execute_prepared(&mut self, batch: Vec<GemmRequest>) -> BatchOutcome {
        self.log.lock().unwrap().push(batch[0].m());
        self.engine.execute_prepared(batch)
    }
}

/// A prefill flood from several tenants cannot starve a decode batch
/// past the documented bound: once the decode batch is filed — which
/// it is when its submission returns — only the one batch the driver
/// had already picked can still beat it to the engine.
#[test]
fn a_prefill_flood_cannot_starve_decode_beyond_the_batch_already_picked() {
    let (n, k) = (32, 256);
    let b = gen(k * n, 0x5eed | 1);
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut engine = OrderLog { engine: CampEngine::with_threads(1), log: Arc::clone(&log) };
    let h = engine.weights_mut().register(n, k, &b, DType::I8);

    let flood_sessions = 3;
    let dispatcher = Dispatcher::with_options(engine, DispatchOptions { queue_depth: 64 });

    let mut flood = Vec::new();
    for s in 0..flood_sessions {
        let mut session = dispatcher.session();
        let tickets: Vec<_> = (0..12)
            .map(|i| {
                let m = 4 + (s + i) % 5;
                let a = gen(m * k, (s * 31 + i) as u32 | 1);
                session
                    .submit(vec![GemmRequest::with_weights(m, a, h).unwrap()])
                    .expect("flood batch admits")
            })
            .collect();
        flood.push((session, tickets));
    }

    let mut decode = dispatcher.session();
    let a = gen(2 * k, 0x0dec | 1);
    let t = decode
        .submit_with(
            vec![GemmRequest::with_weights(2, a.clone(), h).unwrap()],
            Priority::Decode,
            None,
        )
        .expect("decode batch admits");
    // everything logged up to here reached the engine before the decode
    // batch was filed; what follows, up to the decode batch's own entry
    // (the only m = 2), overtook it
    let submitted_at = log.lock().unwrap().len();
    let out = decode.wait(t).expect("decode batch completes");
    assert_eq!(out.outputs[0].c, gemm_i32_ref(2, n, k, &a, &b));

    let overtaken_by = {
        let log = log.lock().unwrap();
        let ran_at = log.iter().position(|&m| m == 2).expect("the decode batch ran");
        log[submitted_at.min(ran_at)..ran_at].iter().filter(|&&m| m >= 4).count()
    };
    assert!(
        overtaken_by <= 1,
        "decode waited behind {overtaken_by} prefill batches; only the one already picked may run first"
    );

    // the flood itself still drains completely and correctly
    for (mut session, tickets) in flood {
        for t in tickets {
            assert!(session.wait(t).expect("flood batch completes").outputs[0].m >= 4);
        }
    }
}

/// Admission control on a live engine: the per-session bound caps
/// in-flight batches, a saturated session re-admits deterministically
/// once one batch is collected, and a full drain leaves no in-flight
/// permits or queued pool jobs behind.
#[test]
fn saturation_bounds_in_flight_and_recovers_without_leaks() {
    let (n, k) = (64, 512);
    let b = gen(k * n, 0xbead | 1);
    let mut engine = CampEngine::with_threads(2);
    let h = engine.weights_mut().register(n, k, &b, DType::I8);
    let pool = engine.worker_pool().expect("threaded engine has a pool");

    let dispatcher = Dispatcher::with_options(engine, DispatchOptions::default());
    let mut session = dispatcher.session_with_depth(2);

    let mut tickets = std::collections::VecDeque::new();
    let mut saturated = false;
    for i in 0..1000 {
        let m = 8 + i % 4;
        let a = gen(m * k, i as u32 | 1);
        match session.submit(vec![GemmRequest::with_weights(m, a, h).unwrap()]) {
            Ok(t) => tickets.push_back(t),
            Err(RequestError::Saturated { depth }) => {
                assert_eq!(depth, 2, "the documented per-session bound");
                // `in_flight()` counts uncollected tickets, but the
                // admission bound counts *pending* batches — on a live
                // engine a completion can race the submit loop and free
                // a slot for one more admission, so uncollected tickets
                // can exceed the bound at the instant rejection fires.
                // The exact-at-the-bound property is pinned
                // deterministically by the permit-gated mock test in
                // camp_core::dispatch; here we assert the bound's worth
                // of work is genuinely outstanding.
                assert!(
                    session.in_flight() >= 2,
                    "rejection fired with fewer uncollected tickets than the bound"
                );
                saturated = true;
                break;
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    assert!(saturated, "a depth-2 session outpaced a 512-deep GeMM 1000 times");

    // waiting out pending batches re-opens admission — saturation is a
    // state, not a ratchet. On a live engine a completion can race the
    // submit loop above and slip one extra admission in, so collecting
    // a single (possibly already-completed) ticket is not guaranteed to
    // free a pending slot; drain oldest tickets until a submission is
    // admitted. It must happen before the deque empties: each wait
    // returns only after its batch completed (freeing that batch's
    // permit), so at the latest the last wait leaves zero pending. The
    // exact one-slot recovery is pinned deterministically by the
    // permit-gated mock test in camp_core::dispatch.
    let a = gen(4 * k, 0x7e57 | 1);
    let mut readmitted = false;
    while let Some(oldest) = tickets.pop_front() {
        assert!(session.wait(oldest).is_ok());
        match session.submit(vec![GemmRequest::with_weights(4, a.clone(), h).unwrap()]) {
            Ok(t) => {
                tickets.push_back(t);
                readmitted = true;
                break;
            }
            Err(RequestError::Saturated { .. }) => continue,
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    assert!(readmitted, "draining every in-flight batch must re-open admission");
    for t in tickets {
        assert!(session.wait(t).is_ok());
    }

    let stats = dispatcher.stats();
    assert!(stats.rejected >= 1);
    assert_eq!(stats.staging_live, 0, "drained session leaked in-flight permits");
    assert_eq!(pool.queued_jobs(), 0, "drained dispatcher leaked pool jobs");
    assert_eq!(stats.executed, stats.submitted, "every admitted batch executed");

    drop(session);
    let mut engine = dispatcher.into_backend();
    let out = engine.execute(&GemmRequest::with_weights(4, a.clone(), h).unwrap()).unwrap();
    assert_eq!(out.output.c, gemm_i32_ref(4, n, k, &a, &b));
}

/// Weight eviction racing four live tenants: every in-flight batch on
/// the condemned handle either completes exactly or errs `StaleHandle`
/// — never a panic — while batches on the surviving handle stay exact
/// throughout.
#[test]
fn eviction_racing_live_tenants_errs_stale_and_never_panics() {
    let (n, k) = (16, 64);
    let b1 = gen(k * n, 0xdead | 1);
    let b2 = gen(k * n, 0xbeef | 1);
    let mut engine = CampEngine::with_threads(2);
    let h1 = engine.weights_mut().register(n, k, &b1, DType::I8);
    let h2 = engine.weights_mut().register(n, k, &b2, DType::I8);

    let dispatcher = Arc::new(Dispatcher::with_options(engine, DispatchOptions::default()));
    let tenants: Vec<_> = (0..4)
        .map(|s| {
            let mut session = dispatcher.session();
            let (b1, b2) = (b1.clone(), b2.clone());
            std::thread::spawn(move || {
                let mut stale_seen = 0u32;
                for i in 0..20 {
                    let m = 1 + (s + i) % 6;
                    let a = gen(m * k, (s * 131 + i) as u32 | 1);
                    // the condemned handle: admission or completion may
                    // fail stale, but a completed batch must be exact
                    match session.submit(vec![GemmRequest::with_weights(m, a.clone(), h1).unwrap()])
                    {
                        Ok(t) => match session.wait(t) {
                            Ok(out) => {
                                assert_eq!(out.outputs[0].c, gemm_i32_ref(m, n, k, &a, &b1))
                            }
                            Err(RequestError::StaleHandle) => stale_seen += 1,
                            Err(e) => panic!("unexpected completion error: {e}"),
                        },
                        Err(RequestError::StaleHandle) => stale_seen += 1,
                        Err(e) => panic!("unexpected admission error: {e}"),
                    }
                    // the surviving handle is never disturbed
                    let t = session
                        .submit(vec![GemmRequest::with_weights(m, a.clone(), h2).unwrap()])
                        .expect("surviving handle always admits");
                    let out = session.wait(t).expect("surviving handle always completes");
                    assert_eq!(out.outputs[0].c, gemm_i32_ref(m, n, k, &a, &b2));
                }
                stale_seen
            })
        })
        .collect();

    // race the eviction into the middle of the tenant loops
    std::thread::sleep(std::time::Duration::from_millis(2));
    let meta = dispatcher.evict_weights(h1).expect("first eviction wins");
    assert_eq!((meta.n, meta.k), (n, k));
    assert_eq!(dispatcher.evict_weights(h1).unwrap_err(), RequestError::StaleHandle);

    let stale_total: u32 = tenants.into_iter().map(|t| t.join().expect("tenant panicked")).sum();
    let stats = dispatcher.stats();
    assert_eq!(stats.evictions, 1);
    assert!(
        stale_total as u64 >= stats.stale_failures,
        "every driver-side stale failure surfaced to a tenant"
    );

    // post-race: the registration is really gone from the engine
    let mut engine = Arc::into_inner(dispatcher).expect("all tenants joined").into_backend();
    assert_eq!(engine.weights_mut().evict(h1).unwrap_err(), RequestError::StaleHandle);
    assert!(engine.weights_mut().evict(h2).is_ok());
}
