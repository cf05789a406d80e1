//! The serving front end: N sessions, one engine.
//!
//! Production serving means many clients over one warm engine and one
//! weight registry. [`Dispatcher`] is that layer, generic over the
//! execution substrate (`Dispatcher<CampEngine>` serves at host speed,
//! `Dispatcher<SimBackend>` streams batches through the cycle-accurate
//! simulated CAMP core): it holds the backend behind an engine lock and
//! hands out any number of [`DispatchSession`] clients, each with its
//! own ticket space and admission bound. One client is simply the
//! N = 1 case.
//!
//! The dispatcher spawns no thread: **every batch runs on the thread
//! that submitted it**, during that thread's **turn** on the engine. A
//! call ([`DispatchSession::submit_with`] or [`DispatchSession::run`])
//! takes three steps, all on the calling thread:
//!
//! 1. **admit**: the batch is validated against the registration
//!    snapshot under no lock. Then, under one state-lock acquisition,
//!    it is checked against **admission control** (a session already
//!    holding [`DispatchOptions::queue_depth`] uncollected results gets
//!    [`RequestError::Saturated`] back instead of unbounded memory
//!    growth) and against condemned handles, and booked;
//! 2. **wait for the turn**: a caller that finds the turn free takes it
//!    at once; otherwise it waits. Whoever ends a turn hands it to the
//!    *best* waiting caller within the same state-lock acquisition: the
//!    highest [`Priority`] first (decode-latency-critical beats
//!    prefill-throughput), then the earliest deadline, then admission
//!    order. An aging rule bounds priority inversion the other way:
//!    after [`DECODE_BURST`] consecutive decode turns the best waiting
//!    prefill caller goes first, so a decode flood cannot starve
//!    prefill indefinitely. Nobody barges: a caller that arrives while
//!    anyone waits queues behind them, so a prefill flood never delays
//!    decode by more than the one batch holding the turn;
//! 3. **execute**: holding the turn, under the state lock, the caller
//!    checks its batch again. A handle condemned while it waited fails
//!    the batch as [`RequestError::StaleHandle`], and a deadline that
//!    has **already passed** sheds it as [`RequestError::Shed`]
//!    (counted in [`DispatchStats::shed`]); either way the turn passes
//!    on without touching the engine, so an overload spends cycles only
//!    on batches that can still make their deadlines. Otherwise the
//!    caller takes the engine lock (still under the state lock, with
//!    the check), runs its batch through
//!    [`CampBackend::execute_prepared`] and ends its turn.
//!
//! `submit_with` files the outcome in its session and returns the
//! [`TicketId`] that [`DispatchSession::poll`] / [`DispatchSession::wait`]
//! redeem; `run` returns the outcome itself. A session's calls take
//! `&mut self`, so its batches execute in submission order.
//!
//! Weight **eviction races** are first-class: [`Dispatcher::evict_weights`]
//! condemns the handle (admission and every later turn refuse a batch
//! carrying it) and then evicts the registration under the engine lock
//! on its caller's thread, after the batch on the engine, if any. A
//! stale handle racing a live session errs per batch instead of
//! panicking the engine.
//!
//! A backend that **panics** mid-batch unwinds its caller's call and
//! kills the dispatcher: the backend may be half-updated, so it never
//! runs another batch. Callers waiting for the turn, and every later
//! call, panic with "serving session is dead" instead of hanging;
//! results already filed stay collectable.
//!
//! Every primitive comes from [`crate::sync`], so the whole protocol is
//! explored by the `camp-loom` model checker (`tests/model/dispatch_model.rs`)
//! under `RUSTFLAGS="--cfg loom"`.
//!
//! ```
//! use camp_core::backend::CampBackend;
//! use camp_core::dispatch::{DispatchOptions, Dispatcher, Priority};
//! use camp_core::{CampEngine, DType, GemmRequest};
//!
//! let (n, k) = (8, 32);
//! let w: Vec<i8> = (0..k * n).map(|i| (i % 15) as i8 - 7).collect();
//! let mut engine = CampEngine::with_threads(2);
//! let weights = engine.weights_mut().register(n, k, &w, DType::I8);
//!
//! let opts = DispatchOptions { queue_depth: 8 };
//! let dispatcher = Dispatcher::with_options(engine, opts);
//! let mut decode = dispatcher.session();
//! let mut prefill = dispatcher.session();
//!
//! let a: Vec<i8> = (0..2 * k).map(|i| (i % 13) as i8 - 6).collect();
//! let out = decode
//!     .run(vec![GemmRequest::with_weights(2, a.clone(), weights).unwrap()], Priority::Decode, None)
//!     .unwrap();
//! assert_eq!(out.outputs.len(), 1);
//! // executed on this thread before the ticket came back
//! let p = prefill.submit(vec![GemmRequest::with_weights(2, a, weights).unwrap()]).unwrap();
//! assert_eq!(prefill.in_flight(), 1);
//! assert_eq!(prefill.wait(p).unwrap().outputs.len(), 1);
//! let _engine = dispatcher.into_backend(); // hands the warm engine back
//! ```

use std::collections::{HashMap, HashSet};
use std::sync::LockResult;
use std::time::Instant;

// the sync seam: std primitives normally, the camp-loom model checker
// under `--cfg loom` (see crate::sync and tests/model/)
use crate::sync::{Arc, Condvar, Mutex, MutexGuard};

use camp_gemm::request::{GemmRequest, Operand, RequestError};
use camp_gemm::weights::{WeightHandle, WeightMeta, WeightSnapshot};

use crate::backend::{BatchOutcome, CampBackend};

/// Aging bound: after this many *consecutive* decode turns the best
/// waiting prefill caller gets the next one, so a decode flood cannot
/// starve prefill work indefinitely. (The reverse inversion — prefill
/// starving decode — is bounded at one batch by the priority order
/// itself.)
pub const DECODE_BURST: u32 = 8;

/// Scheduling class of a submitted batch. Decode-latency-critical work
/// outranks prefill-throughput work whenever a turn is handed over;
/// `Ord` encodes that (`Decode > Prefill`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Throughput-oriented work (prompt prefill, bulk scoring). The
    /// default for [`DispatchSession::submit`].
    #[default]
    Prefill,
    /// Latency-critical work (autoregressive decode steps); beats
    /// prefill whenever both wait for the turn.
    Decode,
}

/// Dispatcher construction options. Nothing here is read from the
/// environment: a caller that wants another bound passes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchOptions {
    /// Default per-session admission bound: a session holding this many
    /// uncollected results (its [`DispatchSession::in_flight`]) has
    /// further submissions rejected with [`RequestError::Saturated`].
    /// It bounds what the session holds: every filed result carries its
    /// outputs. [`Dispatcher::session_with_depth`] overrides per
    /// session.
    pub queue_depth: usize,
}

impl Default for DispatchOptions {
    fn default() -> Self {
        DispatchOptions { queue_depth: 8 }
    }
}

/// Identifier of one submitted batch; redeem it with
/// [`DispatchSession::poll`] or [`DispatchSession::wait`]. Stamped with
/// its session's identity, so a ticket presented to a different session
/// panics instead of silently redeeming that session's unrelated
/// results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TicketId {
    session: u64,
    seq: u64,
}

/// Monotonic + live counters of one dispatcher, snapshotted by
/// [`Dispatcher::stats`]. The regression suites assert on these: turn
/// accounting (`staging_live` returns to 0 after a drain), admission
/// accounting (`rejected` counts every [`RequestError::Saturated`]).
#[non_exhaustive]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Batches accepted by admission control, ever.
    pub submitted: u64,
    /// Batches executed to completion (successfully), ever.
    pub executed: u64,
    /// Of `submitted`, the batches whose caller found the turn taken
    /// and waited for it, ever.
    pub waited: u64,
    /// Submissions rejected with [`RequestError::Saturated`], ever.
    pub rejected: u64,
    /// Always 0: nothing claims work across sessions any more. Kept
    /// only until the benchmark retires the `dispatch.stolen_share` row
    /// that reads it (see ROADMAP.md).
    pub stolen: u64,
    /// Evictions accepted by [`Dispatcher::evict_weights`], ever.
    pub evictions: u64,
    /// Batches failed with [`RequestError::StaleHandle`] because a
    /// handle they carry was condemned while they waited for the turn,
    /// ever.
    pub stale_failures: u64,
    /// Batches shed because their deadline had already passed when
    /// their turn came — failed as [`RequestError::Shed`] without
    /// touching the engine, ever.
    pub shed: u64,
    /// 1 while a caller holds the turn (its batch on the engine, or
    /// about to be), 0 when idle and after a drain. The name outlived
    /// the staging step; it stays while the benchmark reads it (see
    /// ROADMAP.md).
    pub staging_live: usize,
    /// Callers waiting for the turn right now.
    pub ready_now: usize,
}

// ---- shared state ----------------------------------------------------------

/// A caller waiting for the turn.
struct Waiter {
    /// Global admission order: the waiter's identity and the FIFO
    /// tie-breaker.
    admit: u64,
    priority: Priority,
    deadline: Option<Instant>,
}

/// Monotonic counters (the gauge fields of [`DispatchStats`] are
/// derived from live state at snapshot time).
#[derive(Default)]
struct Counters {
    submitted: u64,
    executed: u64,
    waited: u64,
    rejected: u64,
    evictions: u64,
    stale_failures: u64,
    shed: u64,
}

/// Dispatcher state shared by every caller.
///
/// The hand-over scan walks a `Vec` in admission order on purpose:
/// `HashMap`/`HashSet` iteration order must never drive a scheduling
/// decision or the loom models would explore schedules production
/// never runs (keyed lookups are fine).
#[derive(Default)]
struct DispState {
    /// Handles condemned by [`Dispatcher::evict_weights`]: admissions
    /// and turns carrying one fail with `StaleHandle` instead of
    /// reaching an engine that may already have dropped the panel.
    condemned: HashSet<WeightHandle>,
    /// Global admission counter (cross-session FIFO tie-breaker).
    admit_seq: u64,
    /// The turn is held, or handed to a waiter that has not taken it
    /// yet.
    busy: bool,
    /// Callers waiting for the turn.
    waiting: Vec<Waiter>,
    /// The admission number of the waiter the last turn was handed to,
    /// until that waiter wakes and takes it.
    granted: Option<u64>,
    /// Consecutive decode turns (the aging rule).
    decode_run: u32,
    shutdown: bool,
    /// A batch panicked on the backend; callers panic instead of
    /// hanging.
    dead: bool,
    stats: Counters,
}

impl DispState {
    /// Whether any request of `batch` carries a handle condemned by
    /// [`Dispatcher::evict_weights`]: the one condemned check, read at
    /// admission and again when the batch's turn comes.
    fn condemns(&self, batch: &[GemmRequest]) -> bool {
        batch
            .iter()
            .any(|r| matches!(r.weights(), Operand::Handle(h) if self.condemned.contains(h)))
    }

    fn assert_alive(&self) {
        if self.dead {
            panic!("serving session is dead: a batch panicked on the backend");
        }
    }

    /// Everything that turns a valid batch away, in the order callers
    /// see it, for a session holding `uncollected` results under bound
    /// `depth`.
    fn refuse(
        &mut self,
        batch: &[GemmRequest],
        uncollected: usize,
        depth: usize,
    ) -> Result<(), RequestError> {
        self.assert_alive();
        if self.shutdown {
            panic!("dispatcher is shut down");
        }
        if self.condemns(batch) {
            return Err(RequestError::StaleHandle);
        }
        if uncollected >= depth {
            self.stats.rejected += 1;
            return Err(RequestError::Saturated { depth });
        }
        Ok(())
    }

    /// End the current turn: hand it to the best waiting caller, or
    /// free it. Returns whether anybody must be woken — the grantee, or
    /// a drain waiting for the turn to free; a lone caller wakes no one.
    fn pass_turn(&mut self) -> bool {
        match self.next() {
            Some(i) => {
                self.granted = Some(self.waiting.remove(i).admit);
                true
            }
            None => {
                self.busy = false;
                self.shutdown
            }
        }
    }

    /// Index of the waiter the turn goes to next: priority desc,
    /// deadline asc (`None` = ∞), admission asc — except that after
    /// [`DECODE_BURST`] consecutive decode turns the best *prefill*
    /// waiter wins (bounded aging).
    fn next(&self) -> Option<usize> {
        let best_of = |class: Option<Priority>| {
            self.waiting
                .iter()
                .enumerate()
                .filter(|(_, w)| class.is_none_or(|c| w.priority == c))
                .reduce(|best, next| if beats(next.1, best.1) { next } else { best })
                .map(|(i, _)| i)
        };
        let best = best_of(None)?;
        if self.waiting[best].priority == Priority::Decode && self.decode_run >= DECODE_BURST {
            return best_of(Some(Priority::Prefill)).or(Some(best));
        }
        Some(best)
    }
}

/// Hand-over order: does `a` beat `b`?
fn beats(a: &Waiter, b: &Waiter) -> bool {
    if a.priority != b.priority {
        return a.priority > b.priority;
    }
    match (a.deadline, b.deadline) {
        (Some(x), Some(y)) if x != y => return x < y,
        (Some(_), None) => return true,
        (None, Some(_)) => return false,
        _ => {}
    }
    a.admit < b.admit
}

/// The state lock's guard, as every holder spells it.
type StateGuard<'a> = MutexGuard<'a, DispState>;

struct Shared<B: CampBackend> {
    state: Mutex<DispState>,
    /// The engine lock: the one backend, taken by the turn holder per
    /// batch and by [`Dispatcher::evict_weights`] per eviction; a drain
    /// empties the slot. Lock order is `state` → `engine`: the turn
    /// holder takes it under the state lock, atomically with its
    /// condemned check (the most it can wait for there is one
    /// eviction); nobody takes the state lock while holding it.
    engine: Mutex<Option<B>>,
    /// Wakes callers waiting for the turn, and a drain waiting for it to
    /// free: turn handed over, turn freed under shutdown, death. Always
    /// `notify_all`: each waiter waits for its own grant.
    turn_cv: Condvar,
    /// Registration snapshot every submission validates against.
    weights: WeightSnapshot,
}

impl<B: CampBackend> Shared<B> {
    /// Lock the state, ignoring mutex poisoning: every mutation is
    /// atomic under the lock, and a drain must still work after a
    /// caller panicked under it.
    fn lock(&self) -> StateGuard<'_> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Lock the engine slot, ignoring poisoning like [`Shared::lock`]:
    /// whoever panicked on the backend already marked the dispatcher
    /// dead, and a drain must still reach the slot.
    fn engine(&self) -> MutexGuard<'_, Option<B>> {
        self.engine.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wait for the turn to change hands, ignoring poisoning like
    /// [`Shared::lock`].
    fn wait<'a>(&self, st: StateGuard<'a>) -> StateGuard<'a> {
        self.turn_cv.wait(st).unwrap_or_else(|e| e.into_inner())
    }

    /// End the calling thread's turn, waking whoever must see it.
    fn end_turn(&self, st: &mut DispState) {
        if st.pass_turn() {
            self.turn_cv.notify_all();
        }
    }

    /// One batch from admission to outcome, on the calling thread, for a
    /// session holding `uncollected` results under bound `depth`. The
    /// outer error is a refusal at admission: nothing was booked. The
    /// inner result is the batch's own: its outcome, or the
    /// `StaleHandle` / `Shed` its turn decided.
    ///
    /// # Panics
    /// If the dispatcher is dead or dies while the caller waits, or was
    /// shut down.
    fn call(
        &self,
        uncollected: usize,
        depth: usize,
        batch: Vec<GemmRequest>,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<Result<BatchOutcome, RequestError>, RequestError> {
        for r in &batch {
            r.resolve(&self.weights)?;
        }
        let mut st = self.lock();
        st.refuse(&batch, uncollected, depth)?;
        let admit = st.admit_seq;
        st.admit_seq += 1;
        st.stats.submitted += 1;
        if st.busy {
            st.stats.waited += 1;
            st.waiting.push(Waiter { admit, priority, deadline });
            while st.granted != Some(admit) {
                st.assert_alive();
                st = self.wait(st);
            }
            st.granted = None;
        } else {
            st.busy = true;
        }
        st.decode_run = match priority {
            Priority::Decode => st.decode_run + 1,
            Priority::Prefill => 0,
        };
        let turned_away = if st.condemns(&batch) {
            // condemned while it waited: fail the batch without
            // touching the (possibly already evicted) panel
            st.stats.stale_failures += 1;
            Some(RequestError::StaleHandle)
        } else if deadline.is_some_and(|dl| Instant::now() > dl) {
            // computing it would only delay batches that can still
            // make their deadlines
            st.stats.shed += 1;
            Some(RequestError::Shed)
        } else {
            None
        };
        if let Some(e) = turned_away {
            self.end_turn(&mut st);
            return Ok(Err(e));
        }
        // taken under the state lock, so no eviction can reach the
        // engine between the condemned check and the execute
        let engine = self.engine();
        drop(st);
        let mut watch = DeathWatch { shared: self, armed: true };
        let outcome = {
            // moved in, so that an unwind frees the engine before the
            // watch takes the state lock
            let mut engine = engine;
            let backend = engine.as_mut().expect("the engine slot is emptied only after a drain");
            backend.execute_prepared(batch)
        };
        let mut st = self.lock();
        st.stats.executed += 1;
        self.end_turn(&mut st);
        watch.armed = false;
        Ok(Ok(outcome))
    }
}

/// Marks the dispatcher dead if the turn holder unwinds, so callers
/// waiting for the turn fail fast instead of hanging.
struct DeathWatch<'a, B: CampBackend> {
    shared: &'a Shared<B>,
    armed: bool,
}

impl<B: CampBackend> Drop for DeathWatch<'_, B> {
    fn drop(&mut self) {
        if self.armed {
            self.shared.lock().dead = true;
            self.shared.turn_cv.notify_all();
        }
    }
}

fn next_session_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    // process-global identity, not protocol state: deliberately std
    // even under loom (see the crate::sync module docs)
    static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(0);
    NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed)
}

// ---- the client handle -----------------------------------------------------

/// One tenant's handle onto a shared [`Dispatcher`]: its own ticket
/// space, admission bound and filed results.
pub struct DispatchSession<B: CampBackend + Send + 'static> {
    shared: Arc<Shared<B>>,
    /// Process-unique identity stamped into this session's tickets.
    id: u64,
    /// Admission bound on `done`.
    depth: usize,
    next_seq: u64,
    /// Outcomes filed by `submit_with`, not yet collected: a ticket not
    /// in the map was already collected.
    done: HashMap<u64, Result<BatchOutcome, RequestError>>,
}

impl<B: CampBackend + Send + 'static> std::fmt::Debug for DispatchSession<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DispatchSession")
            .field("id", &self.id)
            .field("depth", &self.depth)
            .field("next_seq", &self.next_seq)
            .field("in_flight", &self.done.len())
            .finish_non_exhaustive()
    }
}

impl<B: CampBackend + Send + 'static> DispatchSession<B> {
    /// Submit one batch at [`Priority::Prefill`] with no deadline; see
    /// [`DispatchSession::submit_with`].
    pub fn submit(&mut self, batch: Vec<GemmRequest>) -> Result<TicketId, RequestError> {
        self.submit_with(batch, Priority::Prefill, None)
    }

    /// Validate one batch, execute it on this thread in its turn, and
    /// file its outcome under the returned ticket: the batch has run
    /// (or failed) when this returns, and [`poll`](Self::poll) /
    /// [`wait`](Self::wait) hand the outcome out.
    ///
    /// Every request is validated against the registration snapshot
    /// taken when the dispatcher started — stale or foreign handles and
    /// malformed shapes are rejected here as [`RequestError`]s, and a
    /// handle condemned by [`Dispatcher::evict_weights`] rejects as
    /// [`RequestError::StaleHandle`]. A session already holding its
    /// bound of uncollected results rejects with
    /// [`RequestError::Saturated`]. Nothing is filed and no ticket is
    /// issued on any of these errors. A batch condemned while it waited
    /// for the turn, or whose deadline had passed when the turn came,
    /// files `StaleHandle` / [`RequestError::Shed`] as its outcome.
    ///
    /// # Panics
    /// Panics if a batch has panicked on the backend (before or while
    /// this one waited), or the dispatcher was shut down while this
    /// handle was kept alive.
    pub fn submit_with(
        &mut self,
        batch: Vec<GemmRequest>,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<TicketId, RequestError> {
        let result = self.shared.call(self.done.len(), self.depth, batch, priority, deadline)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.done.insert(seq, result);
        Ok(TicketId { session: self.id, seq })
    }

    /// Run one batch and return its outcome: the same validation,
    /// admission bound, turn, errors and counters as
    /// [`submit_with`](Self::submit_with) followed by
    /// [`wait`](Self::wait), with nothing filed.
    ///
    /// # Panics
    /// As for [`submit_with`](Self::submit_with).
    pub fn run(
        &mut self,
        batch: Vec<GemmRequest>,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<BatchOutcome, RequestError> {
        self.shared.call(self.done.len(), self.depth, batch, priority, deadline)?
    }

    /// A ticket's key, after verifying it belongs to this session.
    fn check_ticket(&self, ticket: TicketId) -> u64 {
        assert_eq!(ticket.session, self.id, "ticket was issued by a different session");
        assert!(ticket.seq < self.next_seq, "ticket was never issued by this session");
        ticket.seq
    }

    /// Collect a ticket's filed outcome; `None` once it was collected.
    /// `Some(Err(_))` reports a batch failed in its turn: condemned by a
    /// racing [`Dispatcher::evict_weights`] ([`RequestError::StaleHandle`])
    /// or past its deadline ([`RequestError::Shed`]).
    pub fn poll(&mut self, ticket: TicketId) -> Option<Result<BatchOutcome, RequestError>> {
        let seq = self.check_ticket(ticket);
        self.done.remove(&seq)
    }

    /// Collect a ticket's filed outcome, as for [`poll`](Self::poll).
    /// Never blocks: the batch ran before its ticket was issued.
    ///
    /// # Panics
    /// Panics if the ticket's result was already collected.
    pub fn wait(&mut self, ticket: TicketId) -> Result<BatchOutcome, RequestError> {
        self.poll(ticket).expect("ticket result was already collected")
    }

    /// Results submitted and not collected yet: what the admission
    /// bound counts.
    pub fn in_flight(&self) -> usize {
        self.done.len()
    }

    /// This session's process-unique identity (the stamp in its
    /// tickets).
    pub fn id(&self) -> u64 {
        self.id
    }
}

// ---- the dispatcher --------------------------------------------------------

/// Shared multi-tenant serving front end over one [`CampBackend`]; see
/// the [module docs](self). Create sessions with
/// [`Dispatcher::session`], reclaim the warm backend with
/// [`Dispatcher::into_backend`].
pub struct Dispatcher<B: CampBackend + Send + 'static> {
    shared: Arc<Shared<B>>,
    options: DispatchOptions,
}

impl<B: CampBackend + Send + 'static> std::fmt::Debug for Dispatcher<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("options", &self.options)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<B: CampBackend + Send + 'static> Dispatcher<B> {
    /// Start dispatching on `backend` with [`DispatchOptions::default`].
    /// Weights must already be registered: submissions are validated
    /// against this moment's registry.
    pub fn new(backend: B) -> Self {
        Dispatcher::with_options(backend, DispatchOptions::default())
    }

    /// Start dispatching on `backend` with explicit options.
    pub fn with_options(backend: B, options: DispatchOptions) -> Self {
        assert!(options.queue_depth >= 1, "a zero admission bound would reject everything");
        let shared = Arc::new(Shared {
            state: Mutex::new(DispState::default()),
            turn_cv: Condvar::new(),
            weights: backend.weights().snapshot(),
            engine: Mutex::new(Some(backend)),
        });
        Dispatcher { shared, options }
    }

    /// Open a session at the dispatcher's default admission bound
    /// ([`DispatchOptions::queue_depth`]).
    pub fn session(&self) -> DispatchSession<B> {
        self.session_with_depth(self.options.queue_depth)
    }

    /// Open a session with its own admission bound: holding `depth`
    /// uncollected results, further submissions return
    /// [`RequestError::Saturated`].
    pub fn session_with_depth(&self, depth: usize) -> DispatchSession<B> {
        assert!(depth >= 1, "a zero admission bound would reject everything");
        DispatchSession {
            shared: Arc::clone(&self.shared),
            id: next_session_id(),
            depth,
            next_seq: 0,
            done: HashMap::new(),
        }
    }

    /// Condemn a weight registration, then evict it from the backend on
    /// this thread, under the engine lock (after the batch on the
    /// engine, if any). The handle is rejected at every later
    /// submission, and batches waiting for the turn with it fail with
    /// [`RequestError::StaleHandle`] instead of reaching the engine.
    /// Returns the registration's metadata, or
    /// [`RequestError::StaleHandle`] on a double eviction — a handle
    /// racing a live session errs, it never panics.
    pub fn evict_weights(&self, h: WeightHandle) -> Result<WeightMeta, RequestError> {
        let meta = self.shared.weights.meta(h)?;
        {
            let mut st = self.shared.lock();
            if !st.condemned.insert(h) {
                return Err(RequestError::StaleHandle);
            }
            st.stats.evictions += 1;
        }
        // a handle evicted behind the snapshot's back is already an
        // error, ignore it
        if let Some(backend) = self.shared.engine().as_mut() {
            let _ = backend.weights_mut().evict(h);
        }
        Ok(meta)
    }

    /// Snapshot of the dispatcher's counters and gauges.
    pub fn stats(&self) -> DispatchStats {
        let st = self.shared.lock();
        DispatchStats {
            submitted: st.stats.submitted,
            executed: st.stats.executed,
            waited: st.stats.waited,
            rejected: st.stats.rejected,
            stolen: 0,
            evictions: st.stats.evictions,
            stale_failures: st.stats.stale_failures,
            shed: st.stats.shed,
            staging_live: usize::from(st.busy),
            ready_now: st.waiting.len(),
        }
    }

    /// The options this dispatcher runs with.
    pub fn options(&self) -> DispatchOptions {
        self.options
    }

    /// Refuse new calls, let every admitted caller have its turn, and
    /// lock the engine slot; `Err` if a batch panicked on the backend.
    fn drain(&self) -> LockResult<MutexGuard<'_, Option<B>>> {
        let mut st = self.shared.lock();
        st.shutdown = true;
        while st.busy && !st.dead {
            st = self.shared.wait(st);
        }
        drop(st);
        self.shared.engine.lock()
    }

    /// Drain (every caller already admitted, waiting ones included,
    /// finishes its batch) and return the backend, weights and warm
    /// pools intact. Sessions kept alive across this call panic on
    /// their next submission; results they filed stay collectable.
    ///
    /// # Panics
    /// Panics if a batch panicked on the backend.
    pub fn into_backend(self) -> B {
        let mut engine = self.drain().expect("a batch panicked on the backend");
        engine.take().expect("the engine slot is emptied only by a drain")
    }
}

impl<B: CampBackend + Send + 'static> Drop for Dispatcher<B> {
    fn drop(&mut self) {
        // an unwind must not wait for other callers' turns: the backend
        // then goes with the last session handle
        if std::thread::panicking() {
            return;
        }
        // otherwise it goes with the dispatcher, not with the last
        // session handle that outlives it
        let mut engine = self.drain().unwrap_or_else(|e| e.into_inner());
        drop(engine.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ExecStats, Output};
    use crate::engine::{CampEngine, DType, EngineStats};
    use camp_gemm::gemm_i32_ref;
    use camp_gemm::weights::WeightRegistry;
    use camp_gemm::KernelInfo;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread::{Scope, ScopedJoinHandle};

    /// Shared permit counter gating the mock backend: executions block
    /// until a permit is granted, so tests pin the turn holder on the
    /// engine, line callers up behind it and release them
    /// deterministically.
    type Gate = std::sync::Arc<(std::sync::Mutex<usize>, std::sync::Condvar)>;

    fn grant(gate: &Gate, n: usize) {
        let mut permits = gate.0.lock().unwrap();
        *permits += n;
        gate.1.notify_all();
    }

    /// Mock backend whose `execute_prepared` consumes one [`Gate`]
    /// permit per batch and logs the batch's m (the tests' batch
    /// identity) and the executing thread in execution order. A batch
    /// whose m is [`POISON_M`] panics once it holds its permit. Its
    /// registry is a real one, so gated batches can carry handles.
    struct GateBackend {
        weights: WeightRegistry,
        gate: Gate,
        log: std::sync::Arc<std::sync::Mutex<Vec<usize>>>,
        ran_on: std::sync::Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>,
    }

    const POISON_M: usize = 666;
    impl GateBackend {
        fn new(permits: usize) -> (Self, Gate, std::sync::Arc<std::sync::Mutex<Vec<usize>>>) {
            let gate: Gate =
                std::sync::Arc::new((std::sync::Mutex::new(permits), std::sync::Condvar::new()));
            let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let backend = GateBackend {
                weights: WeightRegistry::new(),
                gate: std::sync::Arc::clone(&gate),
                log: log.clone(),
                ran_on: Default::default(),
            };
            (backend, gate, log)
        }
    }

    impl CampBackend for GateBackend {
        fn name(&self) -> &'static str {
            "test-gate"
        }

        fn kernel_info(&self) -> KernelInfo {
            unimplemented!("not part of the dispatch protocol")
        }

        fn weights(&self) -> &WeightRegistry {
            &self.weights
        }

        fn weights_mut(&mut self) -> &mut WeightRegistry {
            &mut self.weights
        }

        fn execute_prepared(&mut self, batch: Vec<GemmRequest>) -> BatchOutcome {
            let (permits, cv) = &*self.gate;
            let mut p = permits.lock().unwrap();
            while *p == 0 {
                p = cv.wait(p).unwrap();
            }
            *p -= 1;
            drop(p);
            let m = batch.first().map_or(0, |r| r.m());
            assert_ne!(m, POISON_M, "the poisoned batch reached the backend");
            self.log.lock().unwrap().push(m);
            self.ran_on.lock().unwrap().push(std::thread::current().id());
            let outputs =
                batch.iter().map(|r| Output::new(vec![0; r.m()], r.m(), 1)).collect::<Vec<_>>();
            BatchOutcome::new(outputs, ExecStats::Host(EngineStats::default()))
        }
    }

    /// An m×1 GeMM over k = 1: `m` is the batch's identity in the
    /// execution log.
    fn req(m: usize) -> GemmRequest {
        GemmRequest::dense(m, 1, 1, vec![1i8; m], vec![1i8]).expect("well-formed request")
    }

    /// Poll the dispatcher until `pred` holds (callers on other threads
    /// are asynchronous to the test; 5 s cap, far beyond any real
    /// hand-off latency).
    fn wait_for<B: CampBackend + Send + 'static>(
        d: &Dispatcher<B>,
        pred: impl Fn(&DispatchStats) -> bool,
    ) -> DispatchStats {
        for _ in 0..50_000 {
            let s = d.stats();
            if pred(&s) {
                return s;
            }
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        panic!("dispatcher never reached the expected state: {:?}", d.stats());
    }

    type Call<'scope> = ScopedJoinHandle<'scope, Result<BatchOutcome, RequestError>>;

    /// Run batch `m` from its own thread, then return once the call is
    /// admitted — holding the turn or waiting for it — which is the
    /// dispatcher's `admitted`-th admission. Admitting the callers one
    /// at a time fixes their admission order, the hand-over's last
    /// tie-breaker.
    fn enter<'scope, B: CampBackend + Send + 'static>(
        scope: &'scope Scope<'scope, '_>,
        dispatcher: &Dispatcher<B>,
        session: &'scope mut DispatchSession<B>,
        (m, priority, deadline): (usize, Priority, Option<Instant>),
        admitted: u64,
    ) -> Call<'scope> {
        let call = scope.spawn(move || session.run(vec![req(m)], priority, deadline));
        wait_for(dispatcher, |s| s.submitted == admitted);
        call
    }

    /// The m of a finished call's one output.
    fn m_of(call: Call<'_>) -> usize {
        call.join().unwrap().expect("the batch runs").outputs[0].m
    }

    #[test]
    fn saturation_fires_deterministically_at_the_bound_and_recovers() {
        let (backend, gate, _log) = GateBackend::new(3);
        let dispatcher = Dispatcher::new(backend);
        let mut session = dispatcher.session_with_depth(3);

        // the bound counts uncollected results, not batches running:
        // each submission has executed when its ticket comes back
        let tickets: Vec<TicketId> =
            (0..3).map(|i| session.submit(vec![req(i + 1)]).expect("below the bound")).collect();
        let stats = dispatcher.stats();
        assert_eq!((stats.submitted, stats.executed, stats.staging_live), (3, 3, 0));
        let err = session.submit(vec![req(99)]).unwrap_err();
        assert_eq!(err, RequestError::Saturated { depth: 3 });
        assert!(err.to_string().contains("bounded depth 3"), "{err}");
        // `run` files nothing, but the bound refuses it all the same
        assert_eq!(session.run(vec![req(99)], Priority::Decode, None).unwrap_err(), err);
        // nothing was filed: still exactly 3 held
        assert_eq!(session.in_flight(), 3);
        let stats = dispatcher.stats();
        assert_eq!((stats.submitted, stats.rejected), (3, 2));

        // collecting one result re-admits the session
        let mut tickets = tickets.into_iter();
        assert_eq!(session.wait(tickets.next().unwrap()).unwrap().outputs[0].m, 1);
        grant(&gate, 1);
        let t = session.submit(vec![req(4)]).expect("a collected result frees its place");
        for t in tickets.chain([t]) {
            assert_eq!(session.wait(t).expect("gated batches complete").outputs.len(), 1);
        }
        assert_eq!(session.in_flight(), 0);
    }

    #[test]
    fn the_admission_bound_counts_uncollected_results() {
        let (backend, _gate, _log) = GateBackend::new(4);
        let dispatcher = Dispatcher::new(backend);
        let mut session = dispatcher.session_with_depth(2);
        let first = session.submit(vec![req(1)]).unwrap();
        let _second = session.submit(vec![req(2)]).unwrap();
        // both have run: nothing is executing, but the session holds
        // two results it never collected
        wait_for(&dispatcher, |s| s.executed == 2);
        assert_eq!(
            session.submit(vec![req(3)]).unwrap_err(),
            RequestError::Saturated { depth: 2 },
            "a session that never collects must not grow without bound"
        );
        assert_eq!(dispatcher.stats().rejected, 1);
        assert!(session.wait(first).is_ok());
        assert!(session.submit(vec![req(3)]).is_ok(), "collecting one re-admits");
        assert_eq!(session.in_flight(), 2);
    }

    #[test]
    fn decode_overtakes_queued_prefill() {
        let (backend, gate, log) = GateBackend::new(0);
        let dispatcher = Dispatcher::new(backend);
        let (mut p1, mut p2, mut d) =
            (dispatcher.session(), dispatcher.session(), dispatcher.session());
        std::thread::scope(|scope| {
            // prefill 1 holds the turn on the gated engine; prefill 2,
            // then decode, wait for it
            let calls = [
                (&mut p1, (1, Priority::Prefill)),
                (&mut p2, (2, Priority::Prefill)),
                (&mut d, (3, Priority::Decode)),
            ];
            let calls: Vec<_> = (1..)
                .zip(calls)
                .map(|(admitted, (session, (m, priority)))| {
                    let call = scope.spawn(move || {
                        let t = session.submit_with(vec![req(m)], priority, None)?;
                        session.wait(t)
                    });
                    wait_for(&dispatcher, |s| s.submitted == admitted);
                    call
                })
                .collect();
            let stats = dispatcher.stats();
            assert_eq!((stats.staging_live, stats.ready_now, stats.waited), (1, 2, 2));
            grant(&gate, 3);
            let ms: Vec<usize> = calls.into_iter().map(m_of).collect();
            assert_eq!(ms, [1, 2, 3]);
        });
        assert_eq!(*log.lock().unwrap(), [1, 3, 2], "decode must beat the waiting prefill");
    }

    #[test]
    fn deadlines_order_equal_priority_work() {
        let (backend, gate, log) = GateBackend::new(0);
        let dispatcher = Dispatcher::new(backend);
        let (mut a, mut b, mut c) =
            (dispatcher.session(), dispatcher.session(), dispatcher.session());
        // a deadline that orders but cannot pass: were it missed on a
        // loaded box, the batch would be shed instead of ordered
        let deadline = Some(Instant::now() + std::time::Duration::from_secs(3600));
        std::thread::scope(|scope| {
            let holder = enter(scope, &dispatcher, &mut a, (9, Priority::Prefill, None), 1);
            let relaxed = enter(scope, &dispatcher, &mut b, (1, Priority::Prefill, None), 2);
            let urgent = enter(scope, &dispatcher, &mut c, (2, Priority::Prefill, deadline), 3);
            grant(&gate, 3);
            assert_eq!([m_of(holder), m_of(relaxed), m_of(urgent)], [9, 1, 2]);
        });
        // the deadline batch beat the earlier-admitted no-deadline one
        assert_eq!(*log.lock().unwrap(), [9, 2, 1], "earliest deadline first at equal priority");
    }

    #[test]
    fn missed_deadlines_are_shed_not_computed() {
        let (backend, gate, log) = GateBackend::new(0);
        let dispatcher = Dispatcher::new(backend);
        let (mut a, mut b, mut c) =
            (dispatcher.session(), dispatcher.session(), dispatcher.session());
        let late = Some(Instant::now() + std::time::Duration::from_secs(3600));
        std::thread::scope(|scope| {
            // the blocker holds the (gated) engine while the doomed
            // batch waits; its deadline orders it first among the two
            // waiting prefills
            let blocker = enter(scope, &dispatcher, &mut a, (9, Priority::Decode, None), 1);
            let now = Some(Instant::now());
            let doomed = enter(scope, &dispatcher, &mut b, (1, Priority::Prefill, now), 2);
            let live = enter(scope, &dispatcher, &mut c, (2, Priority::Prefill, late), 3);
            // let the already-expired deadline pass unambiguously
            std::thread::sleep(std::time::Duration::from_millis(5));
            // 3 permits offered, but the shed batch must not consume one
            grant(&gate, 3);
            assert_eq!(doomed.join().unwrap().unwrap_err(), RequestError::Shed);
            assert_eq!([m_of(blocker), m_of(live)], [9, 2]);
        });
        let stats = dispatcher.stats();
        assert_eq!((stats.shed, stats.staging_live), (1, 0));
        assert_eq!(stats.executed, 2, "only the batches that can make their deadlines run");
        let log = log.lock().unwrap();
        assert_eq!(&*log, &[9, 2], "the shed batch must never reach the engine: {log:?}");
        assert!(RequestError::Shed.to_string().contains("shed"));
    }

    #[test]
    fn aging_bounds_prefill_starvation_under_a_decode_flood() {
        let (backend, gate, log) = GateBackend::new(0);
        let dispatcher = Dispatcher::new(backend);
        let (mut d1, mut d2, mut p) =
            (dispatcher.session(), dispatcher.session(), dispatcher.session());
        // a decode tenant's six batches, back to back
        fn flood(session: &mut DispatchSession<GateBackend>, base: usize) {
            for i in 0..6 {
                let out = session.run(vec![req(base + i)], Priority::Decode, None);
                assert_eq!(out.expect("decode batch runs").outputs[0].m, base + i);
            }
        }
        std::thread::scope(|scope| {
            let f1 = scope.spawn(|| flood(&mut d1, 100));
            wait_for(&dispatcher, |s| s.submitted == 1);
            let f2 = scope.spawn(|| flood(&mut d2, 200));
            wait_for(&dispatcher, |s| s.submitted == 2);
            // a decode holds the gated engine, a decode and the prefill
            // wait behind it
            let prefill = enter(scope, &dispatcher, &mut p, (7, Priority::Prefill, None), 3);
            grant(&gate, 13);
            assert_eq!(m_of(prefill), 7);
            f1.join().unwrap();
            f2.join().unwrap();
        });
        let log = log.lock().unwrap();
        let pos = log.iter().position(|&m| m == 7).expect("prefill batch executed");
        assert!(pos >= 1, "the engine already held a decode batch: {log:?}");
        assert!(
            pos <= DECODE_BURST as usize,
            "aging must run prefill after at most {DECODE_BURST} consecutive decodes: {log:?}"
        );
    }

    #[test]
    fn eviction_racing_a_live_session_errs_and_never_panics() {
        let (mut backend, gate, log) = GateBackend::new(0);
        let h1 = backend.weights_mut().register(1, 1, &[1], DType::I8);
        let h2 = backend.weights_mut().register(1, 1, &[2], DType::I8);
        let dispatcher = Dispatcher::new(backend);
        let (mut a, mut b) = (dispatcher.session(), dispatcher.session());
        let on = |h| vec![GemmRequest::with_weights(3, vec![1i8; 3], h).unwrap()];
        std::thread::scope(|scope| {
            // a batch holds the gated engine, one on h1 waits behind it
            let holder = enter(scope, &dispatcher, &mut a, (1, Priority::Prefill, None), 1);
            let racing = scope.spawn(|| b.submit(on(h1)).map(|t| b.wait(t)));
            wait_for(&dispatcher, |s| s.ready_now == 1);
            // the eviction condemns h1 at once, then waits for the
            // engine the holder is on
            let evict = scope.spawn(|| dispatcher.evict_weights(h1));
            wait_for(&dispatcher, |s| s.evictions == 1);
            assert_eq!(dispatcher.evict_weights(h1).unwrap_err(), RequestError::StaleHandle);
            grant(&gate, 2);
            assert_eq!(m_of(holder), 1);
            let meta = evict.join().unwrap().expect("first eviction succeeds");
            assert_eq!((meta.n, meta.k), (1, 1));
            // admitted before the condemnation, failed at its turn
            let outcome = racing.join().unwrap().expect("admitted before the eviction");
            assert_eq!(outcome.unwrap_err(), RequestError::StaleHandle);
        });
        // post-condemnation submissions reject immediately ...
        assert_eq!(b.submit(on(h1)).unwrap_err(), RequestError::StaleHandle);
        // ... and the surviving registration still serves
        assert_eq!(b.run(on(h2), Priority::Decode, None).unwrap().outputs[0].m, 3);
        assert_eq!(*log.lock().unwrap(), [1, 3], "the condemned batch never ran");
        let stats = dispatcher.stats();
        assert_eq!((stats.evictions, stats.stale_failures, stats.executed), (1, 1, 2));
        let mut backend = dispatcher.into_backend();
        // the eviction really reached the backend registration
        assert_eq!(backend.weights_mut().evict(h1).unwrap_err(), RequestError::StaleHandle);
        assert!(backend.weights_mut().evict(h2).is_ok());
    }

    #[test]
    fn an_oversized_request_errs_typed_and_the_session_serves_on() {
        let (n, k) = (4, 16);
        let w: Vec<i8> = (0..k * n).map(|i| (i % 15) as i8 - 7).collect();
        let a: Vec<i8> = (0..2 * k).map(|i| (i % 11) as i8 - 5).collect();
        let mut engine = CampEngine::with_threads(1);
        let h = engine.weights_mut().register(n, k, &w, DType::I8);
        let dispatcher = Dispatcher::new(engine);
        let mut session = dispatcher.session();
        // 2^60 rows of the registered k = 16: m·k wraps to 0 unchecked,
        // matching the empty activation
        let hostile = || vec![GemmRequest::with_weights(1 << 60, vec![], h).unwrap()];
        assert_eq!(session.submit(hostile()).unwrap_err(), RequestError::Oversized("A"));
        let err = session.run(hostile(), Priority::Prefill, None).unwrap_err();
        assert_eq!(err, RequestError::Oversized("A"));
        let t = session
            .submit(vec![GemmRequest::with_weights(2, a.clone(), h).unwrap()])
            .expect("a valid request admits");
        assert_eq!(session.wait(t).unwrap().outputs[0].c, gemm_i32_ref(2, n, k, &a, &w));
        let out = session
            .run(vec![GemmRequest::with_weights(2, a.clone(), h).unwrap()], Priority::Decode, None)
            .expect("a valid request runs");
        assert_eq!(out.outputs[0].c, gemm_i32_ref(2, n, k, &a, &w));
    }

    #[test]
    fn cross_session_tickets_fail_fast() {
        let (backend, _gate, _log) = GateBackend::new(4);
        let dispatcher = Dispatcher::new(backend);
        let mut a = dispatcher.session();
        let mut b = dispatcher.session();
        let ta = a.submit(vec![req(1)]).unwrap();
        let _tb = b.submit(vec![req(2)]).unwrap();
        assert!(a.wait(ta).is_ok());
        let caught = catch_unwind(AssertUnwindSafe(|| b.poll(ta)));
        let msg = panic_message(caught);
        assert!(msg.contains("different session"), "{msg}");
    }

    #[test]
    fn into_backend_drains_every_live_session() {
        let (backend, gate, log) = GateBackend::new(0);
        let dispatcher = Dispatcher::new(backend);
        let (mut a, mut b) = (dispatcher.session(), dispatcher.session());
        std::thread::scope(|scope| {
            let holder = enter(scope, &dispatcher, &mut a, (1, Priority::Prefill, None), 1);
            let waiter = enter(scope, &dispatcher, &mut b, (2, Priority::Prefill, None), 2);
            // open the gate once the drain has most likely begun; the
            // assertions below hold in either order, and the loom model
            // `into_backend_drains_a_waiting_caller` covers every one
            scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                grant(&gate, 2);
            });
            let _backend = dispatcher.into_backend();
            // the backend came back only after both batches ran
            assert_eq!(*log.lock().unwrap(), [1, 2]);
            assert_eq!([m_of(holder), m_of(waiter)], [1, 2]);
        });
        let caught = catch_unwind(AssertUnwindSafe(|| a.submit(vec![req(3)])));
        assert!(panic_message(caught).contains("dispatcher is shut down"));
    }

    #[test]
    fn idle_run_executes_on_the_callers_thread() {
        let (backend, _gate, log) = GateBackend::new(3);
        let ran_on = backend.ran_on.clone();
        let dispatcher = Dispatcher::new(backend);
        let mut session = dispatcher.session();
        let mut other = dispatcher.session();

        let outcome = session.run(vec![req(5)], Priority::Decode, None).expect("idle run");
        assert_eq!(outcome.outputs[0].m, 5);
        // the stats are final the moment `run` returns
        let stats = dispatcher.stats();
        assert_eq!((stats.submitted, stats.executed, stats.waited), (1, 1, 0));
        assert_eq!((stats.stolen, stats.staging_live, stats.ready_now), (0, 0, 0));
        assert_eq!(session.in_flight(), 0);

        // a submission, too, runs on its caller before the ticket exists
        let t = other.submit(vec![req(6)]).unwrap();
        assert_eq!(dispatcher.stats().executed, 2);
        assert_eq!(other.in_flight(), 1);
        assert_eq!(other.wait(t).unwrap().outputs[0].m, 6);
        // and so does a tenant on a thread of its own
        let tenant = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    other.run(vec![req(7)], Priority::Prefill, None).unwrap();
                    std::thread::current().id()
                })
                .join()
                .unwrap()
        });
        assert_eq!(*log.lock().unwrap(), [5, 6, 7]);
        let me = std::thread::current().id();
        assert_eq!(*ran_on.lock().unwrap(), [me, me, tenant]);
        assert_eq!(dispatcher.stats().waited, 0);
    }

    #[test]
    fn run_queues_behind_a_busy_engine_and_decode_still_overtakes_prefill() {
        let (backend, gate, log) = GateBackend::new(0);
        let ran_on = backend.ran_on.clone();
        let dispatcher = Dispatcher::new(backend);
        let (mut p1, mut p2, mut d) =
            (dispatcher.session(), dispatcher.session(), dispatcher.session());

        let threads = std::thread::scope(|scope| {
            let calls = [
                enter(scope, &dispatcher, &mut p1, (1, Priority::Prefill, None), 1),
                enter(scope, &dispatcher, &mut p2, (2, Priority::Prefill, None), 2),
                // the run found somebody to be ordered against: it waits
                // like any caller, and only then may batches go
                enter(scope, &dispatcher, &mut d, (3, Priority::Decode, None), 3),
            ];
            let stats = dispatcher.stats();
            assert_eq!((stats.staging_live, stats.ready_now), (1, 2));
            let threads: Vec<_> = calls.iter().map(|c| c.thread().id()).collect();
            grant(&gate, 3);
            assert_eq!(calls.map(m_of), [1, 2, 3]);
            threads
        });
        assert_eq!(*log.lock().unwrap(), [1, 3, 2], "decode overtakes the waiting prefill");
        // no batch crossed a thread: each ran on the thread that called
        assert_eq!(*ran_on.lock().unwrap(), [threads[0], threads[2], threads[1]]);
        let stats = dispatcher.stats();
        assert_eq!((stats.executed, stats.waited, stats.staging_live), (3, 2, 0));
    }

    #[test]
    fn run_never_overtakes_its_own_sessions_earlier_submission() {
        let (backend, _gate, log) = GateBackend::new(2);
        let dispatcher = Dispatcher::new(backend);
        let mut session = dispatcher.session();
        let first = session.submit(vec![req(1)]).unwrap();
        // the earlier submission ran before its ticket came back
        assert_eq!(*log.lock().unwrap(), [1]);
        assert_eq!(session.run(vec![req(2)], Priority::Decode, None).unwrap().outputs[0].m, 2);
        assert_eq!(session.wait(first).unwrap().outputs[0].m, 1);
        assert_eq!(*log.lock().unwrap(), [1, 2]);
        assert_eq!(dispatcher.stats().waited, 0);
        assert_eq!(session.in_flight(), 0);
    }

    #[test]
    fn run_errs_and_counts_like_submit_then_wait() {
        // Saturated: the bound counts the uncollected result
        let (backend, _gate, log) = GateBackend::new(1);
        let dispatcher = Dispatcher::new(backend);
        let mut session = dispatcher.session_with_depth(1);
        let held = session.submit(vec![req(1)]).unwrap();
        let saturated = RequestError::Saturated { depth: 1 };
        assert_eq!(session.run(vec![req(2)], Priority::Decode, None).unwrap_err(), saturated);
        assert_eq!(dispatcher.stats().rejected, 1);
        assert_eq!(session.submit(vec![req(2)]).unwrap_err(), saturated);
        let stats = dispatcher.stats();
        assert_eq!((stats.rejected, stats.submitted), (2, 1));
        assert!(session.wait(held).is_ok());

        // Shed: a deadline already past never reaches the engine (no
        // permit is left for it to take), through either call
        let past = Some(Instant::now());
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(
            session.run(vec![req(3)], Priority::Decode, past).unwrap_err(),
            RequestError::Shed
        );
        let stats = dispatcher.stats();
        assert_eq!((stats.shed, stats.submitted, stats.staging_live), (1, 2, 0));
        let t = session.submit_with(vec![req(3)], Priority::Decode, past).unwrap();
        assert_eq!(session.wait(t).unwrap_err(), RequestError::Shed);
        let stats = dispatcher.stats();
        assert_eq!((stats.shed, stats.submitted, stats.executed, stats.waited), (2, 3, 1, 0));
        assert_eq!(*log.lock().unwrap(), [1]);
        assert_eq!(session.in_flight(), 0);

        // StaleHandle: a registration gone before the dispatcher's
        // snapshot, and one condemned through the dispatcher
        let (n, k) = (4, 16);
        let w: Vec<i8> = (0..k * n).map(|i| (i % 15) as i8 - 7).collect();
        let a: Vec<i8> = (0..2 * k).map(|i| (i % 11) as i8 - 5).collect();
        let mut engine = CampEngine::with_threads(1);
        let gone = engine.weights_mut().register(n, k, &w, DType::I8);
        let live = engine.weights_mut().register(n, k, &w, DType::I8);
        engine.weights_mut().evict(gone).unwrap();
        let dispatcher = Dispatcher::new(engine);
        let mut session = dispatcher.session();
        let on = |h| vec![GemmRequest::with_weights(2, a.clone(), h).unwrap()];
        assert_eq!(
            session.run(on(gone), Priority::Decode, None).unwrap_err(),
            session.submit(on(gone)).unwrap_err()
        );
        let expect = gemm_i32_ref(2, n, k, &a, &w);
        assert_eq!(session.run(on(live), Priority::Decode, None).unwrap().outputs[0].c, expect);
        dispatcher.evict_weights(live).unwrap();
        assert_eq!(
            session.run(on(live), Priority::Decode, None).unwrap_err(),
            RequestError::StaleHandle
        );
        assert_eq!(session.submit(on(live)).unwrap_err(), RequestError::StaleHandle);
        let stats = dispatcher.stats();
        assert_eq!((stats.submitted, stats.executed, stats.waited), (1, 1, 0));
        assert_eq!((stats.stale_failures, stats.staging_live), (0, 0));
        // the eviction reached the engine on this thread
        let mut engine = dispatcher.into_backend();
        assert_eq!(engine.weights_mut().evict(live).unwrap_err(), RequestError::StaleHandle);

        // the condemned check reads every request of a batch: a pair
        // whose second request carries the handle fails when condemned
        // while it waits behind a gated batch, and is refused at
        // `submit` and `run`
        let (mut backend, gate, log) = GateBackend::new(0);
        let h = backend.weights_mut().register(1, 1, &[1], DType::I8);
        let dispatcher = Dispatcher::new(backend);
        let (mut blocker, mut session) = (dispatcher.session(), dispatcher.session());
        let pair = || vec![req(2), GemmRequest::with_weights(2, vec![1i8; 2], h).unwrap()];
        let queued = std::thread::scope(|scope| {
            let held = enter(scope, &dispatcher, &mut blocker, (1, Priority::Prefill, None), 1);
            let waiting = scope.spawn(|| session.submit(pair()));
            wait_for(&dispatcher, |s| s.ready_now == 1);
            let evict = scope.spawn(|| dispatcher.evict_weights(h));
            wait_for(&dispatcher, |s| s.evictions == 1);
            grant(&gate, 4);
            assert_eq!(m_of(held), 1);
            assert!(evict.join().unwrap().is_ok());
            waiting.join().unwrap().expect("a live handle admits")
        });
        assert_eq!(session.wait(queued).unwrap_err(), RequestError::StaleHandle);
        assert_eq!(session.submit(pair()).unwrap_err(), RequestError::StaleHandle);
        let err = session.run(pair(), Priority::Decode, None).unwrap_err();
        assert_eq!(err, RequestError::StaleHandle);
        assert_eq!(*log.lock().unwrap(), [1], "a condemned pair reached the backend");
        let stats = dispatcher.stats();
        assert_eq!((stats.submitted, stats.executed, stats.stale_failures), (2, 1, 1));
    }

    /// One batch through the three entry points — `execute_batch` on the
    /// bare backend, `run`, `submit_with` → `wait`: the same outputs,
    /// equal to the reference, and the same stats (on the host engine:
    /// no B bytes packed for the dense m = 1 leg).
    fn run_matches_submit_then_wait<B: CampBackend + Send + 'static>(mut backend: B) {
        // 4-bit-safe values, so one generator serves the i4 request too
        let gen = |len: usize, mul: usize| -> Vec<i8> {
            (0..len).map(|i| (i * mul % 15) as i8 - 7).collect()
        };
        let (n, k) = (24, 40);
        let w = gen(k * n, 7);
        let h = backend.weights_mut().register(n, k, &w, DType::I8);
        let h4 = backend.weights_mut().register(n, k, &w, DType::I4);
        // below the row-split threshold, four column strips wide
        let (wide_n, wide_k) = (1024, 256);
        let wide = gen(wide_k * wide_n, 11);
        let hw = backend.weights_mut().register(wide_n, wide_k, &wide, DType::I8);
        let shared: std::sync::Arc<[i8]> = w.clone().into();

        let mut batch = Vec::new();
        let mut want = Vec::new();
        // a decode GEMV and a skinny request on a handle, an i4 request
        for (m, h) in [(1, h), (3, h), (5, h4)] {
            let a = gen(m * k, 5);
            want.push(gemm_i32_ref(m, n, k, &a, &w));
            batch.push(GemmRequest::with_weights(m, a, h).unwrap());
        }
        // two blocked dense requests sharing one B
        for m in [17, 12] {
            let a = gen(m * k, 3);
            want.push(gemm_i32_ref(m, n, k, &a, &w));
            batch.push(GemmRequest::dense(m, n, k, a, shared.clone()).unwrap());
        }
        // a decode GEMV over a dense B of its own (an attention head's
        // Kᵀ): the host engine reads it in place on every entry point
        let (a, kt) = (gen(k, 9), gen(k * n, 9));
        want.push(gemm_i32_ref(1, n, k, &a, &kt));
        batch.push(GemmRequest::dense(1, n, k, a, kt).unwrap());
        let a = gen(16 * wide_k, 13);
        want.push(gemm_i32_ref(16, wide_n, wide_k, &a, &wide));
        batch.push(GemmRequest::with_weights(16, a, hw).unwrap());
        want.push(vec![0; 3 * 4]);
        batch.push(GemmRequest::dense(3, 4, 0, vec![], vec![]).unwrap());

        let bare = backend.execute_batch(&batch).unwrap();
        let dispatcher = Dispatcher::new(backend);
        let mut session = dispatcher.session();
        let run = session.run(batch.clone(), Priority::Decode, None).unwrap();
        let ticket = session.submit_with(batch, Priority::Decode, None).unwrap();
        let submitted = session.wait(ticket).unwrap();
        for (got, want) in bare.outputs.iter().zip(&want) {
            assert_eq!(&got.c, want);
        }
        assert_eq!(bare.outputs.len(), want.len());
        if let Some(host) = bare.stats.as_host() {
            let panel = (n.div_ceil(4) * 4 * k.div_ceil(16) * 16) as u64;
            assert_eq!(host.packed_b_bytes, 2 * panel, "each of the blocked pair packs its B");
        }
        for (leg, outcome) in [("run", &run), ("submitted batch", &submitted)] {
            assert!(outcome.outputs == bare.outputs, "a {leg} must match the bare backend");
            assert_eq!(outcome.stats, bare.stats, "a {leg} must report the bare backend's stats");
        }
        let stats = dispatcher.stats();
        assert_eq!((stats.executed, stats.waited, stats.staging_live), (2, 0, 0));
    }

    #[test]
    fn run_and_submit_then_wait_agree_on_the_host_engine_and_the_simulator() {
        run_matches_submit_then_wait(CampEngine::with_threads(1));
        run_matches_submit_then_wait(crate::backend::SimBackend::a64fx());
    }

    /// The message of a caught panic.
    fn panic_message<T>(caught: std::thread::Result<T>) -> String {
        let Err(payload) = caught else { panic!("the call must panic") };
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload.downcast::<&str>().expect("panic message").to_string(),
        }
    }

    #[test]
    fn a_backend_panic_under_a_turn_kills_the_dispatcher_and_wakes_its_waiter() {
        let (backend, gate, log) = GateBackend::new(0);
        let dispatcher = Dispatcher::new(backend);
        let mut doomed = dispatcher.session();
        let mut bystander = dispatcher.session();
        std::thread::scope(|scope| {
            // the poisoned batch holds the turn and parks on the gate
            // with the engine lock held ...
            let runner = scope.spawn(|| {
                let batch = vec![req(POISON_M)];
                catch_unwind(AssertUnwindSafe(|| doomed.run(batch, Priority::Decode, None)))
            });
            wait_for(&dispatcher, |s| s.staging_live == 1);
            // ... a second tenant waits for the turn behind it
            let waiter = scope.spawn(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    bystander.run(vec![req(2)], Priority::Decode, None)
                }))
            });
            wait_for(&dispatcher, |s| s.ready_now == 1);
            grant(&gate, 1);
            assert!(panic_message(runner.join().unwrap()).contains("poisoned batch"));
            // the waiter fails fast instead of hanging
            let msg = panic_message(waiter.join().unwrap());
            assert!(msg.contains("serving session is dead"), "{msg}");
        });
        // nothing runs on the backend the panic left behind
        assert!(log.lock().unwrap().is_empty());
        let caught =
            catch_unwind(AssertUnwindSafe(|| doomed.run(vec![req(1)], Priority::Decode, None)));
        assert!(panic_message(caught).contains("dead: a batch panicked on the backend"));
        // the drain does not wait for the dead turn, and reports it
        let caught = catch_unwind(AssertUnwindSafe(|| dispatcher.into_backend()));
        assert!(panic_message(caught).contains("a batch panicked on the backend"));
    }

    #[test]
    fn run_on_a_handle_kept_across_into_backend_panics_before_the_engine_slot() {
        let (backend, _gate, log) = GateBackend::new(1);
        let dispatcher = Dispatcher::new(backend);
        let mut session = dispatcher.session();
        let _backend = dispatcher.into_backend();
        let caught =
            catch_unwind(AssertUnwindSafe(|| session.run(vec![req(1)], Priority::Decode, None)));
        assert!(panic_message(caught).contains("dispatcher is shut down"));
        assert!(log.lock().unwrap().is_empty());
    }

    #[test]
    fn new_runs_with_the_default_options() {
        let (backend, _gate, _log) = GateBackend::new(0);
        assert_eq!(Dispatcher::new(backend).options(), DispatchOptions::default());
    }
}
