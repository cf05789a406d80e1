//! Models of the `Dispatcher` pipeline: N session queues, their
//! submitting threads and one driver negotiating over two condvars
//! (one wakes the driver, one wakes waiting clients), driven through
//! every bounded schedule — from one session's submit → compute → poll
//! ticket lifecycle up to tenants racing each other, evictions and
//! shutdown. The backends are mocks on purpose — the models explore the
//! dispatch protocol (admission, filing, picking, completion, eviction
//! controls, shutdown), not the GeMM math: `execute_prepared` is pure,
//! so any lost batch, dropped wakeup or shutdown hang is the
//! dispatcher's fault.
//!
//! Admission and filing are one critical section (a submitter validates
//! under no lock, then refuses or books its permit and files the batch
//! under a single acquisition), so there is no admitted-but-unfiled
//! window for shutdown to race; the models that race a submission
//! against `into_backend` and eviction cover that acquisition.
//!
//! Model sizes are deliberately tiny (1–2 sessions, 1–2 batches): the
//! schedule tree already covers every file/pick/complete/shutdown
//! reordering at that size, and each extra thread multiplies the tree.
//! The acceptance bar here is stricter than the pool models: every
//! model must branch through **more than 50 interleavings**.

use camp_core::backend::{BatchOutcome, CampBackend, ExecStats, Output};
use camp_core::dispatch::{DispatchOptions, Dispatcher, Priority};
use camp_core::engine::EngineStats;
use camp_core::{DType, GemmRequest, Operand, RequestError, WeightRegistry};
use camp_gemm::KernelInfo;

/// The zero matrices every mock returns: one per request of `batch`.
fn zero_outcome(batch: &[GemmRequest]) -> BatchOutcome {
    let outputs = batch.iter().map(|r| Output::new(vec![0; r.m()], r.m(), 1)).collect::<Vec<_>>();
    BatchOutcome::new(outputs, ExecStats::Host(EngineStats::default()))
}

/// Implements the part of [`CampBackend`] no model customizes: its
/// identity and its `registry: WeightRegistry` field as the backend's
/// registry.
macro_rules! model_backend_identity {
    () => {
        fn name(&self) -> &'static str {
            "model-dispatch"
        }

        fn kernel_info(&self) -> KernelInfo {
            unimplemented!("not part of the modeled pipeline")
        }

        fn weights(&self) -> &WeightRegistry {
            &self.registry
        }
    };
}

/// Counting mock with a *working* registry (a raw mirror, same as
/// `SimBackend`): counts executed requests so drain models can assert
/// nothing was lost once the backend comes back out, and runs the
/// eviction-control path — condemn, queue, driver-side evict — against
/// real generation-stamped handles.
struct CountingBackend {
    registry: WeightRegistry,
    executed: usize,
}

impl CountingBackend {
    fn new() -> Self {
        CountingBackend { registry: WeightRegistry::raw_mirror(), executed: 0 }
    }
}

impl CampBackend for CountingBackend {
    model_backend_identity!();

    fn weights_mut(&mut self) -> &mut WeightRegistry {
        &mut self.registry
    }

    fn execute_prepared(&mut self, batch: Vec<GemmRequest>) -> BatchOutcome {
        self.executed += batch.len();
        zero_outcome(&batch)
    }
}

/// The engine the direct-run models share between the driver and a
/// [`DispatchSession::run`](camp_core::dispatch::DispatchSession::run)
/// caller. What the engine lock must guarantee is asserted from the
/// inside: `execute_prepared` yields to the scheduler mid-batch, so
/// any schedule in which a second thread could enter (or an eviction
/// could land) while a batch is on the engine is explored — and every
/// handle a batch carries must still be registered when it runs, as
/// the real engine's panel lookup demands.
struct DirectBackend {
    registry: WeightRegistry,
    executed: usize,
    /// A batch is on the engine right now.
    entered: bool,
}

impl DirectBackend {
    fn new() -> Self {
        DirectBackend { registry: WeightRegistry::raw_mirror(), executed: 0, entered: false }
    }
}

impl CampBackend for DirectBackend {
    model_backend_identity!();

    /// The driver evicts through here, under the engine lock.
    fn weights_mut(&mut self) -> &mut WeightRegistry {
        assert!(!self.entered, "eviction landed under a running batch");
        &mut self.registry
    }

    fn execute_prepared(&mut self, batch: Vec<GemmRequest>) -> BatchOutcome {
        assert!(!self.entered, "two threads on the engine at once");
        self.entered = true;
        loom::thread::yield_now();
        for r in &batch {
            if let Operand::Handle(h) = r.weights() {
                assert!(self.registry.try_meta(*h).is_ok(), "batch reached an evicted panel");
            }
        }
        self.executed += batch.len();
        self.entered = false;
        zero_outcome(&batch)
    }
}

fn tiny_request() -> GemmRequest {
    GemmRequest::dense(1, 1, 1, vec![1i8], vec![1i8]).expect("well-formed request")
}

/// One batch through the full lifecycle: submit hands the ticket out,
/// the driver computes it, wait redeems exactly one result, and the
/// drops shut the driver down — in every schedule.
#[test]
fn submit_wait_shutdown_lifecycle() {
    let report =
        loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
            let dispatcher =
                Dispatcher::with_options(CountingBackend::new(), DispatchOptions::default());
            let mut session = dispatcher.session();
            let t = session.submit(vec![tiny_request()]).expect("valid submission");
            let outcome = session.wait(t).expect("batch completes");
            assert_eq!(outcome.outputs.len(), 1, "one request in, one output out");
            assert_eq!(outcome.outputs[0].m, 1);
            drop(session);
            drop(dispatcher); // the driver must join in every schedule
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch session lifecycle: {} interleavings", report.iterations);
}

/// Two tickets of one session redeemed in reverse order: execution is
/// submission-ordered, collection is not — the done-map/condvar side
/// of the protocol must hand each result out exactly once anyway.
#[test]
fn out_of_order_collection() {
    let report =
        loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
            let dispatcher =
                Dispatcher::with_options(CountingBackend::new(), DispatchOptions::default());
            let mut session = dispatcher.session();
            let t1 = session.submit(vec![tiny_request()]).expect("valid submission");
            let t2 =
                session.submit(vec![tiny_request(), tiny_request()]).expect("valid submission");
            assert_eq!(session.wait(t2).expect("batch completes").outputs.len(), 2);
            assert_eq!(session.wait(t1).expect("batch completes").outputs.len(), 1);
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch session out-of-order: {} interleavings", report.iterations);
}

/// `into_backend` with the session handle still alive drains the
/// pipeline: the submitted batch computes before the backend comes
/// back, in every schedule (contrast `shutdown_drains_uncollected_work`,
/// where the dropped session may cancel it first).
#[test]
fn into_backend_drains_in_every_schedule() {
    let report =
        loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
            let dispatcher =
                Dispatcher::with_options(CountingBackend::new(), DispatchOptions::default());
            let mut session = dispatcher.session();
            let _t = session.submit(vec![tiny_request()]).expect("valid submission");
            // drain without collecting: the uncollected result is dropped
            let backend = dispatcher.into_backend();
            assert_eq!(backend.executed, 1, "the submitted batch was lost");
            drop(session);
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch into_backend drain: {} interleavings", report.iterations);
}

/// Two tenants, mixed priorities, out-of-order redemption: both tickets
/// redeem exactly once and the teardown joins in every schedule.
#[test]
fn two_tenants_complete_in_every_schedule() {
    let report =
        loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
            let dispatcher =
                Dispatcher::with_options(CountingBackend::new(), DispatchOptions::default());
            let mut a = dispatcher.session();
            let mut b = dispatcher.session();
            let ta = a.submit(vec![tiny_request()]).expect("valid submission");
            let tb = b
                .submit_with(vec![tiny_request()], Priority::Decode, None)
                .expect("valid submission");
            assert_eq!(b.wait(tb).expect("decode batch completes").outputs.len(), 1);
            assert_eq!(a.wait(ta).expect("prefill batch completes").outputs.len(), 1);
            drop((a, b));
            let backend = dispatcher.into_backend();
            assert_eq!(backend.executed, 2, "a tenant's batch was lost");
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch two-tenant: {} interleavings", report.iterations);
}

/// A concurrent submitter thread races the pipeline: session handles
/// are `Send`, and a tenant submitting from its own thread neither
/// corrupts another tenant's queue nor loses its wakeup.
///
/// Three threads (driver, two submitters).
#[test]
fn concurrent_submitters_race_the_pipeline() {
    let report =
        loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
            let dispatcher =
                Dispatcher::with_options(CountingBackend::new(), DispatchOptions::default());
            let mut a = dispatcher.session();
            let mut b = dispatcher.session();
            let h = loom::thread::spawn(move || {
                let tb = b.submit(vec![tiny_request()]).expect("valid submission");
                assert_eq!(b.wait(tb).expect("batch completes").outputs.len(), 1);
            });
            let ta = a.submit(vec![tiny_request()]).expect("valid submission");
            assert_eq!(a.wait(ta).expect("batch completes").outputs.len(), 1);
            h.join().expect("submitter thread panicked");
            drop(a);
            let backend = dispatcher.into_backend();
            assert_eq!(backend.executed, 2, "a tenant's batch was lost");
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch concurrent submitters: {} interleavings", report.iterations);
}

/// Backpressure at depth 1: the bound rejects deterministically while a
/// batch is in flight, and a drained session always re-admits — i.e.
/// saturation is a state, not a ratchet, in every schedule.
#[test]
fn saturation_recovers_in_every_schedule() {
    let report =
        loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
            let dispatcher =
                Dispatcher::with_options(CountingBackend::new(), DispatchOptions::default());
            let mut session = dispatcher.session_with_depth(1);
            let t1 = session.submit(vec![tiny_request()]).expect("first admission");
            // the second submission races the pipeline: if the first
            // batch is still in flight the bound fires, and if the
            // pipeline already drained it the admission must succeed —
            // nothing else is allowed
            let second = session.submit(vec![tiny_request()]);
            assert!(session.wait(t1).is_ok());
            match second {
                Ok(t) => assert!(session.wait(t).is_ok()),
                Err(e) => assert_eq!(e, RequestError::Saturated { depth: 1 }),
            }
            // drained: in flight is 0 again, admission must reopen
            let t2 = session.submit(vec![tiny_request()]).expect("drained session re-admits");
            assert!(session.wait(t2).is_ok());
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch saturation: {} interleavings", report.iterations);
}

/// `into_backend` drains: an uncollected batch still executes before
/// the backend comes back, in every schedule — including the one where
/// shutdown is signalled before the driver ever picked it.
#[test]
fn shutdown_drains_uncollected_work() {
    let report =
        loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
            let dispatcher =
                Dispatcher::with_options(CountingBackend::new(), DispatchOptions::default());
            let mut session = dispatcher.session();
            let _t = session.submit(vec![tiny_request()]).expect("valid submission");
            drop(session); // closes the queue; a picked batch must still run
            let backend = dispatcher.into_backend();
            assert!(backend.executed <= 1, "a batch executed twice");
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch shutdown drain: {} interleavings", report.iterations);
}

/// Eviction racing a live submission: whatever the schedule, the batch
/// either computed against the still-live registration or failed as
/// `StaleHandle` — never a panic, and the registration is gone after.
#[test]
fn eviction_races_err_stale_and_never_panic() {
    let report =
        loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
            let mut backend = CountingBackend::new();
            let h = backend.weights_mut().register(1, 1, &[1i8], DType::I8);
            let dispatcher = Dispatcher::with_options(backend, DispatchOptions::default());
            let mut session = dispatcher.session();
            let submitted = match session.submit(vec![
                GemmRequest::with_weights(1, vec![1i8], h).expect("well-formed request")
            ]) {
                Ok(t) => Some(t),
                // the eviction below is not the only racer: admission
                // itself may observe the condemnation first
                Err(e) => {
                    assert_eq!(e, RequestError::StaleHandle);
                    None
                }
            };
            // race the control op against picking and execution
            let meta = dispatcher.evict_weights(h).expect("first eviction wins");
            assert_eq!((meta.n, meta.k), (1, 1));
            if let Some(t) = submitted {
                match session.wait(t) {
                    Ok(outcome) => assert_eq!(outcome.outputs.len(), 1),
                    Err(e) => assert_eq!(e, RequestError::StaleHandle),
                }
            }
            drop(session);
            let mut backend = dispatcher.into_backend();
            assert_eq!(
                backend.weights_mut().evict(h).unwrap_err(),
                RequestError::StaleHandle,
                "the driver must have applied the eviction before handing the backend back"
            );
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch eviction race: {} interleavings", report.iterations);
}

/// A direct `run` racing a second tenant's `submit` + `wait`: whoever
/// is admitted first, the other queues behind it (or both queue), the
/// engine is never entered twice at once, and neither batch is lost.
///
/// Three threads, as in `concurrent_submitters_race_the_pipeline`.
#[test]
fn direct_run_races_a_queued_tenant() {
    let report =
        loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
            let dispatcher =
                Dispatcher::with_options(DirectBackend::new(), DispatchOptions::default());
            let mut a = dispatcher.session();
            let mut b = dispatcher.session();
            let h = loom::thread::spawn(move || {
                let tb = b.submit(vec![tiny_request()]).expect("valid submission");
                assert_eq!(b.wait(tb).expect("batch completes").outputs.len(), 1);
            });
            let outcome = a.run(vec![tiny_request()], Priority::Decode, None);
            assert_eq!(outcome.expect("batch completes").outputs.len(), 1);
            h.join().expect("submitter thread panicked");
            let stats = dispatcher.stats();
            assert_eq!((stats.executed, stats.staging_live), (2, 0));
            assert!(stats.direct <= 1);
            drop(a);
            let backend = dispatcher.into_backend();
            assert_eq!(backend.executed, 2, "a tenant's batch was lost");
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch direct vs queued tenant: {} interleavings", report.iterations);
}

/// A direct `run` racing the eviction of the handle it carries: the
/// run either computed against the still-live registration or erred
/// `StaleHandle`, the eviction never lands under the running batch,
/// and it still reaches the backend.
///
/// Preemption bound 2 for the reason given on
/// `direct_run_races_into_backend`: at bound 1 the same seeded bug
/// (engine lock taken after the state unlock) went unnoticed here too;
/// at bound 2 it fails with "batch reached an evicted panel".
#[test]
fn direct_run_races_the_eviction_of_its_handle() {
    let report =
        loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
            let mut backend = DirectBackend::new();
            let h = backend.weights_mut().register(1, 1, &[1i8], DType::I8);
            let dispatcher = Dispatcher::with_options(backend, DispatchOptions::default());
            let mut session = dispatcher.session();
            let runner = loom::thread::spawn(move || {
                let batch =
                    vec![GemmRequest::with_weights(1, vec![1i8], h).expect("well-formed request")];
                match session.run(batch, Priority::Decode, None) {
                    Ok(outcome) => assert_eq!(outcome.outputs.len(), 1),
                    Err(e) => assert_eq!(e, RequestError::StaleHandle),
                }
            });
            dispatcher.evict_weights(h).expect("first eviction wins");
            runner.join().expect("runner thread panicked");
            assert_eq!(dispatcher.stats().staging_live, 0);
            let mut backend = dispatcher.into_backend();
            assert_eq!(
                backend.weights_mut().evict(h).unwrap_err(),
                RequestError::StaleHandle,
                "the eviction must have reached the backend before it was handed back"
            );
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch direct vs eviction: {} interleavings", report.iterations);
}

/// A direct `run` racing `into_backend` with a second session still
/// live: the run either finishes on the engine before the backend is
/// handed back or is refused ("dispatcher is shut down") — it never
/// finds the slot empty, and a run that was admitted is never lost.
///
/// Preemption bound 2, not 1: the schedule that matters (the runner
/// admitted, then preempted between releasing the state lock and
/// holding the engine, while `into_backend` empties the slot) costs one
/// preemption to let the spawned runner start and a second to
/// interrupt it. At bound 1 a seeded bug that takes the engine lock
/// *after* the state unlock passed this model unnoticed; at bound 2 it
/// fails with "the engine slot is emptied only after shutdown".
///
/// The second session holds no batch on purpose: with one outstanding
/// the tree is 54k interleavings (~45 s) against 9k (~5 s) for the
/// same slot race, and draining an uncollected batch through shutdown
/// is `shutdown_drains_uncollected_work`'s job.
#[test]
fn direct_run_races_into_backend() {
    hush_shutdown_panics();
    let report =
        loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
            let dispatcher =
                Dispatcher::with_options(DirectBackend::new(), DispatchOptions::default());
            let mut a = dispatcher.session();
            let b = dispatcher.session();
            let runner = loom::thread::spawn(move || {
                let run = || a.run(vec![tiny_request()], Priority::Decode, None);
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                    Ok(outcome) => {
                        assert_eq!(outcome.expect("batch completes").outputs.len(), 1);
                        1
                    }
                    Err(payload) => {
                        let msg = payload.downcast::<&str>().expect("refusal carries a message");
                        assert!(msg.contains("dispatcher is shut down"), "{msg}");
                        0
                    }
                }
            });
            let backend = dispatcher.into_backend();
            let ran = runner.join().expect("runner thread panicked");
            assert_eq!(backend.executed, ran, "a batch was lost or ran twice");
            drop(b);
        });
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch direct vs into_backend: {} interleavings", report.iterations);
}

/// Keep the refusals `direct_run_races_into_backend` provokes on
/// purpose (one per schedule in which shutdown wins) out of the test
/// log; every other panic still reports through the previous hook.
fn hush_shutdown_panics() {
    static HUSH: std::sync::Once = std::sync::Once::new();
    HUSH.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let refusal = info.payload().downcast_ref::<&str>();
            if !refusal.is_some_and(|msg| msg.contains("dispatcher is shut down")) {
                previous(info);
            }
        }));
    });
}

/// The bug class the dispatcher's admission protocol avoids, seeded and
/// asserted to be *caught*: an in-flight count kept in an atomic
/// outside the condvar's mutex, with a check-then-wait submitter and a
/// lock-free decrement+notify on the completion side — the classic lost
/// wakeup. A `wait` would park forever on a queue that is already
/// drained. If the explorer ever stops finding this, the dispatcher's
/// own models above prove nothing.
mod seeded {
    use loom::sync::atomic::{AtomicUsize, Ordering};
    use loom::sync::{Arc, Condvar, Mutex};

    pub struct BuggyBackpressure {
        in_flight: AtomicUsize, // BUG: lives outside `gate`
        gate: Mutex<()>,
        drained: Condvar,
    }

    impl BuggyBackpressure {
        pub fn new(pending: usize) -> Self {
            BuggyBackpressure {
                in_flight: AtomicUsize::new(pending),
                gate: Mutex::new(()),
                drained: Condvar::new(),
            }
        }

        /// Driver side: batch done, open admission back up.
        pub fn complete(&self) {
            // BUG: decrement and notify WITHOUT holding `gate`
            if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.drained.notify_all();
            }
        }

        /// Submitter side: wait for the queue to drain.
        pub fn wait_drained(&self) {
            // BUG: check-then-wait — not re-checked under the mutex, so
            // `complete` can slip in between and the wakeup is lost
            while self.in_flight.load(Ordering::SeqCst) > 0 {
                let g = self.gate.lock().unwrap();
                drop(self.drained.wait(g).unwrap());
            }
        }
    }

    #[test]
    fn lost_wakeup_in_buggy_backpressure_is_caught() {
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
                let bp = Arc::new(BuggyBackpressure::new(1));
                let driver = Arc::clone(&bp);
                let h = loom::thread::spawn(move || driver.complete());
                bp.wait_drained();
                let _ = h.join();
            });
        }));
        let msg = match verdict {
            Err(payload) => *payload.downcast::<String>().expect("model failure carries a message"),
            Ok(report) => {
                panic!("the seeded lost-wakeup bug was NOT caught ({report:?}) — checker is broken")
            }
        };
        assert!(msg.contains("deadlock"), "failure must identify the hang: {msg}");
        assert!(msg.contains("condvar"), "failure must point at the lost wakeup: {msg}");
        eprintln!("seeded dispatch bug caught as expected:\n{msg}");
    }
}
