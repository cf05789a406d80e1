//! Models of the `Dispatcher` turn protocol: callers on their own
//! threads admitting batches, waiting for the turn, running their batch
//! on the engine and handing the turn to the best waiter over one
//! condvar, driven through every bounded schedule — racing each other,
//! an eviction, `into_backend` and a panicking backend. The backends
//! are mocks on purpose — the models explore the dispatch protocol
//! (admission, the turn hand-over, the condemned re-check, eviction,
//! drain, death), not the GeMM math: any lost batch, missed wake-up,
//! double entry or hang is the dispatcher's fault.
//!
//! Admission and the turn are one critical section when the turn is
//! free (a caller validates under no lock, then refuses or books its
//! batch and takes the turn under a single acquisition), and a turn
//! changes hands under the acquisition that ends the last one, so
//! there is no window in which the turn is free while anybody waits.
//!
//! Model sizes are deliberately tiny (two callers, one or two batches each):
//! the schedule tree already covers every admit/wait/hand-over/drain
//! reordering at that size, and each extra thread multiplies the tree.
//! The acceptance bar here is stricter than the pool models: every
//! model must branch through **more than 50 interleavings**.

use std::panic::{catch_unwind, AssertUnwindSafe};

use camp_core::backend::{BatchOutcome, CampBackend, ExecStats, Output};
use camp_core::dispatch::{DispatchOptions, DispatchSession, Dispatcher, Priority};
use camp_core::engine::EngineStats;
use camp_core::{DType, GemmRequest, Operand, RequestError, WeightRegistry};
use camp_gemm::KernelInfo;

/// A batch of this many rows panics on [`TurnBackend`].
const POISON_M: usize = 2;

/// The engine every model shares between its callers. What the engine
/// lock must guarantee is asserted from the inside: `execute_prepared`
/// yields to the scheduler mid-batch, so any schedule in which a second
/// caller could enter (or an eviction could land) while a batch is on
/// the engine is explored — and every handle a batch carries must still
/// be registered when it runs, as the real engine's panel lookup
/// demands. Its registry is a raw mirror (as on `SimBackend`), so
/// evictions run against real generation-stamped handles.
struct TurnBackend {
    registry: WeightRegistry,
    executed: usize,
    /// A batch is on the engine right now.
    entered: bool,
}

impl TurnBackend {
    fn new() -> Self {
        TurnBackend { registry: WeightRegistry::raw_mirror(), executed: 0, entered: false }
    }
}

impl CampBackend for TurnBackend {
    fn name(&self) -> &'static str {
        "model-dispatch"
    }

    fn kernel_info(&self) -> KernelInfo {
        unimplemented!("not part of the modeled protocol")
    }

    fn weights(&self) -> &WeightRegistry {
        &self.registry
    }

    /// An eviction lands through here, under the engine lock.
    fn weights_mut(&mut self) -> &mut WeightRegistry {
        assert!(!self.entered, "eviction landed under a running batch");
        &mut self.registry
    }

    fn execute_prepared(&mut self, batch: Vec<GemmRequest>) -> BatchOutcome {
        assert!(!self.entered, "two callers on the engine at once");
        self.entered = true;
        loom::thread::yield_now();
        assert!(batch[0].m() != POISON_M, "the poisoned batch reached the backend");
        for r in &batch {
            if let Operand::Handle(h) = r.weights() {
                assert!(self.registry.try_meta(*h).is_ok(), "batch reached an evicted panel");
            }
        }
        self.executed += batch.len();
        self.entered = false;
        let outputs = batch.iter().map(|r| Output::new(vec![0; r.m()], r.m(), 1)).collect();
        BatchOutcome::new(outputs, ExecStats::Host(EngineStats::default()))
    }
}

fn rows(m: usize) -> Vec<GemmRequest> {
    vec![GemmRequest::dense(m, 1, 1, vec![1i8; m], vec![1i8]).expect("well-formed request")]
}

fn dispatcher(backend: TurnBackend) -> Dispatcher<TurnBackend> {
    Dispatcher::with_options(backend, DispatchOptions::default())
}

fn check(name: &str, model: impl Fn()) {
    hush_expected_panics();
    let report = loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(model);
    assert!(report.iterations > 50, "expected >50 interleavings, got {report:?}");
    eprintln!("dispatch {name}: {} interleavings", report.iterations);
}

/// Run `session`'s batch of `m` rows, catching a panic as its message
/// (the checker's own abort keeps unwinding).
fn run_caught(
    session: &mut DispatchSession<TurnBackend>,
    m: usize,
) -> Result<Result<BatchOutcome, RequestError>, String> {
    catch_unwind(AssertUnwindSafe(|| session.run(rows(m), Priority::Decode, None))).map_err(
        |payload| match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => match payload.downcast::<&str>() {
                Ok(msg) => msg.to_string(),
                Err(payload) => std::panic::resume_unwind(payload),
            },
        },
    )
}

/// Two callers race for one turn — one through `run`, one through
/// `submit` → `wait`, each resubmitting at once: whoever is admitted
/// first runs, the other waits and is handed the turn, the engine is
/// never entered twice at once, and no batch is lost.
#[test]
fn two_callers_race_for_one_turn() {
    check("two callers", || {
        let dispatcher = dispatcher(TurnBackend::new());
        let (mut a, mut b) = (dispatcher.session(), dispatcher.session());
        let other = loom::thread::spawn(move || {
            for _ in 0..2 {
                let outcome = b.run(rows(1), Priority::Prefill, None).expect("batch runs");
                assert_eq!(outcome.outputs[0].m, 1);
            }
        });
        for _ in 0..2 {
            let t = a.submit_with(rows(3), Priority::Decode, None).expect("valid submission");
            assert_eq!(a.wait(t).expect("batch runs").outputs[0].m, 3);
        }
        other.join().expect("caller thread panicked");
        let stats = dispatcher.stats();
        assert_eq!((stats.executed, stats.staging_live, stats.ready_now), (4, 0, 0));
        assert_eq!(dispatcher.into_backend().executed, 4, "a caller's batch was lost");
    });
}

/// An eviction races a caller that may be waiting for the turn with the
/// handle: that caller's batch either computes against the still-live
/// registration or fails `StaleHandle` — never a panic — the eviction
/// never lands under a running batch, and it reaches the backend.
///
/// Three threads: the turn holder, the waiter and the evicting one.
#[test]
fn an_eviction_races_a_waiting_caller() {
    check("eviction vs waiter", || {
        let mut backend = TurnBackend::new();
        let h = backend.weights_mut().register(1, 1, &[1i8], DType::I8);
        let dispatcher = dispatcher(backend);
        let (mut a, mut b) = (dispatcher.session(), dispatcher.session());
        let holder = loom::thread::spawn(move || {
            assert!(a.run(rows(1), Priority::Prefill, None).is_ok());
        });
        let waiter = loom::thread::spawn(move || {
            let batch = vec![GemmRequest::with_weights(1, vec![1i8], h).expect("well-formed")];
            match b.run(batch, Priority::Decode, None) {
                Ok(outcome) => assert_eq!(outcome.outputs.len(), 1),
                Err(e) => assert_eq!(e, RequestError::StaleHandle),
            }
        });
        dispatcher.evict_weights(h).expect("first eviction wins");
        holder.join().expect("holder thread panicked");
        waiter.join().expect("waiter thread panicked");
        assert_eq!(dispatcher.stats().staging_live, 0);
        let mut backend = dispatcher.into_backend();
        assert_eq!(
            backend.weights_mut().evict(h).unwrap_err(),
            RequestError::StaleHandle,
            "the eviction must have reached the backend before it was handed back"
        );
    });
}

/// `into_backend` races two callers: a caller admitted before the drain
/// — waiting for the turn included — finishes on the engine before the
/// backend comes back, and a later one is refused ("dispatcher is shut
/// down"); nobody finds the slot empty, and no admitted batch is lost.
#[test]
fn into_backend_drains_a_waiting_caller() {
    check("into_backend drain", || {
        let dispatcher = dispatcher(TurnBackend::new());
        let callers: Vec<_> = (0..2)
            .map(|_| {
                let mut session = dispatcher.session();
                loom::thread::spawn(move || match run_caught(&mut session, 1) {
                    Ok(outcome) => {
                        assert_eq!(outcome.expect("batch runs").outputs.len(), 1);
                        1
                    }
                    Err(msg) => {
                        assert!(msg.contains("dispatcher is shut down"), "{msg}");
                        0
                    }
                })
            })
            .collect();
        let backend = dispatcher.into_backend();
        let ran: usize = callers.into_iter().map(|c| c.join().expect("caller panicked")).sum();
        assert_eq!(backend.executed, ran, "a batch was lost or ran twice");
    });
}

/// Backpressure at depth 1 while another tenant contends for the turn:
/// the bound refuses deterministically while a result is uncollected,
/// and collecting it always re-admits — saturation is a state, not a
/// ratchet, in every schedule.
#[test]
fn saturation_recovers_while_a_tenant_contends() {
    check("saturation", || {
        let dispatcher = dispatcher(TurnBackend::new());
        let mut other = dispatcher.session();
        let tenant = loom::thread::spawn(move || {
            assert!(other.run(rows(1), Priority::Decode, None).is_ok());
        });
        let mut session = dispatcher.session_with_depth(1);
        let t1 = session.submit(rows(1)).expect("first admission");
        assert_eq!(session.submit(rows(1)).unwrap_err(), RequestError::Saturated { depth: 1 });
        assert!(session.wait(t1).is_ok());
        let t2 = session.submit(rows(1)).expect("a collected session re-admits");
        assert!(session.wait(t2).is_ok());
        tenant.join().expect("tenant thread panicked");
        let stats = dispatcher.stats();
        assert_eq!((stats.submitted, stats.rejected, stats.executed), (3, 1, 3));
    });
}

/// The turn holder's backend panics while another caller may be waiting
/// for the turn: the holder's call unwinds with the backend's panic,
/// and the other caller either ran first or panics "serving session is
/// dead" — it never hangs, in any schedule.
#[test]
fn a_turn_holders_panic_wakes_its_waiter() {
    check("panic wakes waiter", || {
        let dispatcher = dispatcher(TurnBackend::new());
        let (mut a, mut b) = (dispatcher.session(), dispatcher.session());
        let doomed = loom::thread::spawn(move || run_caught(&mut a, POISON_M).map(|_| ()));
        let bystander = loom::thread::spawn(move || run_caught(&mut b, 1).map(|_| ()));
        let msg = doomed.join().expect("caught in the thread").unwrap_err();
        assert!(msg.contains("poisoned batch"), "{msg}");
        if let Err(msg) = bystander.join().expect("caught in the thread") {
            assert!(msg.contains("serving session is dead"), "{msg}");
        }
        drop(dispatcher); // the drain must not wait for the dead turn
    });
}

/// Keep the panics these models provoke on purpose (the poisoned batch,
/// the dead dispatcher's refusals, the shut-down refusal) out of the
/// test log; every other panic still reports through the previous hook.
fn hush_expected_panics() {
    static HUSH: std::sync::Once = std::sync::Once::new();
    HUSH.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            let expected = ["dispatcher is shut down", "serving session is dead", "poisoned batch"];
            if !expected.iter().any(|e| msg.contains(e)) {
                previous(info);
            }
        }));
    });
}

/// The bug class the dispatcher's turn protocol avoids, seeded and
/// asserted to be *caught*: a busy flag kept in an atomic outside the
/// condvar's mutex, with a check-then-wait caller and a lock-free
/// clear+notify on the turn holder's side — the classic lost wakeup. A
/// caller would park forever on a turn that is already free. If the
/// explorer ever stops finding this, the dispatcher's own models above
/// prove nothing.
mod seeded {
    use loom::sync::atomic::{AtomicUsize, Ordering};
    use loom::sync::{Arc, Condvar, Mutex};

    pub struct BuggyTurn {
        busy: AtomicUsize, // BUG: lives outside `gate`
        gate: Mutex<()>,
        freed: Condvar,
    }

    impl BuggyTurn {
        pub fn new(holders: usize) -> Self {
            BuggyTurn {
                busy: AtomicUsize::new(holders),
                gate: Mutex::new(()),
                freed: Condvar::new(),
            }
        }

        /// Holder side: end the turn, wake the waiter.
        pub fn end(&self) {
            // BUG: clear and notify WITHOUT holding `gate`
            if self.busy.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.freed.notify_all();
            }
        }

        /// Caller side: wait for the turn to free.
        pub fn wait_free(&self) {
            // BUG: check-then-wait — not re-checked under the mutex, so
            // `end` can slip in between and the wakeup is lost
            while self.busy.load(Ordering::SeqCst) > 0 {
                let g = self.gate.lock().unwrap();
                drop(self.freed.wait(g).unwrap());
            }
        }
    }

    #[test]
    fn lost_wakeup_in_a_buggy_turn_is_caught() {
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            loom::model::Builder { preemption_bound: 2, max_iterations: 500_000 }.check(|| {
                let turn = Arc::new(BuggyTurn::new(1));
                let holder = Arc::clone(&turn);
                let h = loom::thread::spawn(move || holder.end());
                turn.wait_free();
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
