//! Multi-tenant serving integration suite: N concurrent sessions over
//! one dispatcher-owned engine must be **bit-identical** to the serial
//! reference, bounded in memory (admission control), bounded in latency
//! (priority + aging), and clean under weight-eviction races — with no
//! leaked worker-pool jobs or held turn after a drain.
//!
//! The deterministic turn-order proofs (decode-overtakes-prefill,
//! deadlines, aging, where each batch runs) live in
//! `camp_core::dispatch`'s unit tests against a gated mock backend; the
//! exhaustive interleaving proofs live in the `--cfg loom` model suite.
//! This file drives the *real* `CampEngine` from real OS threads.

use std::sync::{Arc, Condvar, Mutex};

use camp::core::backend::{BatchOutcome, CampBackend};
use camp::core::{
    gemm_i32_ref, CampEngine, DType, DispatchOptions, DispatchStats, Dispatcher, GemmRequest,
    Priority, RequestError, WeightRegistry,
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
        prop_assert_eq!(stats.staging_live, 0, "a drained dispatcher left the turn held");

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
/// execution order, behind a gate the test opens: a batch's *position*
/// among the others, which no counter read after the fact can give.
struct OrderLog {
    engine: CampEngine,
    log: Arc<Mutex<Vec<usize>>>,
    /// Shut until every caller is lined up for the turn.
    open: Arc<(Mutex<bool>, Condvar)>,
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
        let (open, cv) = &*self.open;
        drop(cv.wait_while(open.lock().unwrap(), |open| !*open).unwrap());
        self.log.lock().unwrap().push(batch[0].m());
        self.engine.execute_prepared(batch)
    }
}

/// Poll `dispatcher` until `pred` holds (5 s cap).
fn wait_for<B: CampBackend + Send + 'static>(
    dispatcher: &Dispatcher<B>,
    pred: impl Fn(&DispatchStats) -> bool,
) {
    for _ in 0..50_000 {
        if pred(&dispatcher.stats()) {
            return;
        }
        std::thread::sleep(std::time::Duration::from_micros(100));
    }
    panic!("dispatcher never reached the expected state: {:?}", dispatcher.stats());
}

/// A prefill flood from several tenants, each on its own thread, cannot
/// starve a decode batch past the documented bound: once the decode
/// caller is admitted, only the one batch holding the turn can still
/// beat it to the engine.
#[test]
fn a_prefill_flood_cannot_starve_decode_beyond_the_batch_already_picked() {
    let (n, k) = (32, 256);
    let b = gen(k * n, 0x5eed | 1);
    let log = Arc::new(Mutex::new(Vec::new()));
    let open = Arc::new((Mutex::new(false), Condvar::new()));
    let engine = CampEngine::with_threads(1);
    let mut engine = OrderLog { engine, log: Arc::clone(&log), open: Arc::clone(&open) };
    let h = engine.weights_mut().register(n, k, &b, DType::I8);

    let flood_sessions = 3;
    let dispatcher = Dispatcher::with_options(engine, DispatchOptions { queue_depth: 64 });
    let a = gen(2 * k, 0x0dec | 1);
    let mut decode = dispatcher.session();
    std::thread::scope(|scope| {
        let flood: Vec<_> = (0..flood_sessions)
            .map(|s| {
                let mut session = dispatcher.session();
                scope.spawn(move || {
                    let tickets: Vec<_> = (0..12)
                        .map(|i| {
                            let m = 4 + (s + i) % 5;
                            let a = gen(m * k, (s * 31 + i) as u32 | 1);
                            session
                                .submit(vec![GemmRequest::with_weights(m, a, h).unwrap()])
                                .expect("flood batch admits")
                        })
                        .collect();
                    for t in tickets {
                        assert!(session.wait(t).expect("flood batch completes").outputs[0].m >= 4);
                    }
                })
            })
            .collect();
        // one flood batch holds the turn on the shut engine, the other
        // tenants' first batches wait behind it
        wait_for(&dispatcher, |s| s.ready_now == flood_sessions - 1);
        let decoder = scope.spawn(|| {
            let batch = vec![GemmRequest::with_weights(2, a.clone(), h).unwrap()];
            decode.run(batch, Priority::Decode, None).expect("decode batch completes")
        });
        wait_for(&dispatcher, |s| s.ready_now == flood_sessions);
        // everything logged up to here reached the engine before the
        // decode caller was admitted; what follows, up to the decode
        // batch's own entry (the only m = 2), overtook it
        let admitted_at = log.lock().unwrap().len();
        *open.0.lock().unwrap() = true;
        open.1.notify_all();
        let out = decoder.join().expect("decode tenant panicked");
        assert_eq!(out.outputs[0].c, gemm_i32_ref(2, n, k, &a, &b));

        let overtaken_by = {
            let log = log.lock().unwrap();
            let ran_at = log.iter().position(|&m| m == 2).expect("the decode batch ran");
            log[admitted_at.min(ran_at)..ran_at].iter().filter(|&&m| m >= 4).count()
        };
        assert!(
            overtaken_by <= 1,
            "decode waited behind {overtaken_by} prefill batches; only the turn holder may run first"
        );
        // the flood itself still drains completely and correctly
        for f in flood {
            f.join().expect("flood tenant panicked");
        }
    });
    assert_eq!(dispatcher.stats().executed, 3 * 12 + 1);
}

/// Admission control on a live engine: the per-session bound caps
/// uncollected results exactly, a saturated session re-admits once one
/// result is collected, and a full drain leaves no turn held or queued
/// pool jobs behind.
#[test]
fn saturation_bounds_in_flight_and_recovers_without_leaks() {
    let (n, k) = (64, 512);
    let b = gen(k * n, 0xbead | 1);
    let mut engine = CampEngine::with_threads(2);
    let h = engine.weights_mut().register(n, k, &b, DType::I8);
    let pool = engine.worker_pool().expect("threaded engine has a pool");

    let dispatcher = Dispatcher::with_options(engine, DispatchOptions::default());
    let mut session = dispatcher.session_with_depth(2);
    let batch =
        |m: usize, seed: u32| vec![GemmRequest::with_weights(m, gen(m * k, seed), h).unwrap()];

    // each submission has run when it returns: exactly two are held
    let mut tickets: std::collections::VecDeque<_> = (0..2)
        .map(|i| session.submit(batch(8 + i, i as u32 | 1)).expect("below the bound"))
        .collect();
    assert_eq!(session.submit(batch(8, 3)).unwrap_err(), RequestError::Saturated { depth: 2 });
    assert_eq!(session.in_flight(), 2, "a refused submission files nothing");

    // collecting one result re-opens admission — saturation is a
    // state, not a ratchet
    assert!(session.wait(tickets.pop_front().unwrap()).is_ok());
    let a = gen(4 * k, 0x7e57 | 1);
    tickets.push_back(
        session
            .submit(vec![GemmRequest::with_weights(4, a.clone(), h).unwrap()])
            .expect("a collected result frees its place"),
    );
    for t in tickets {
        assert!(session.wait(t).is_ok());
    }

    let stats = dispatcher.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.staging_live, 0, "a drained session left the turn held");
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
        "every stale failure at a turn surfaced to a tenant"
    );

    // post-race: the registration is really gone from the engine
    let mut engine = Arc::into_inner(dispatcher).expect("all tenants joined").into_backend();
    assert_eq!(engine.weights_mut().evict(h1).unwrap_err(), RequestError::StaleHandle);
    assert!(engine.weights_mut().evict(h2).is_ok());
}
