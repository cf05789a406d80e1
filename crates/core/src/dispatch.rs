//! The serving front end: N sessions, one engine.
//!
//! A serving deployment does not call a blocking GeMM API: it enqueues
//! request batches and collects results when they are ready, keeping
//! several batches in flight so the machine never idles between them —
//! and production serving means many such clients over one warm engine
//! and one weight registry. [`Dispatcher`] is that layer, generic over
//! the execution substrate (`Dispatcher<CampEngine>` serves at host
//! speed, `Dispatcher<SimBackend>` streams batches through the
//! cycle-accurate simulated CAMP core): it holds the backend behind an
//! engine lock, spawns one **driver** thread, and hands out any number
//! of [`DispatchSession`] clients, each with its own FIFO queue, ticket
//! space and admission bound. One client is simply the N = 1 case.
//!
//! A queued batch crosses two threads — the caller submits, the engine
//! holder executes — in two stages:
//!
//! 1. **submit** ([`DispatchSession::submit`] /
//!    [`DispatchSession::submit_with`]) = validate + admit, on the
//!    calling thread. The batch is validated against the registration
//!    snapshot under no lock; then, under one state-lock acquisition,
//!    it is checked against **admission control** (a session with
//!    [`DispatchOptions::queue_depth`] batches already in flight gets
//!    [`RequestError::Saturated`] back instead of unbounded memory
//!    growth) and against condemned handles, stamped with a
//!    [`Priority`] and optional deadline, booked and filed in the
//!    session's queue, and the caller gets its [`TicketId`]. A queued
//!    batch is its requests as they were submitted: the backend
//!    resolves their shapes and packs what it packs when it executes
//!    them;
//! 2. **compute** — the driver takes the engine lock per batch and
//!    repeatedly executes the *best* runnable batch. **A session's
//!    batches execute in submission order; priority, deadline and
//!    admission order decide between sessions**: only the front of a
//!    session's queue is runnable, and among those fronts the driver
//!    takes the highest [`Priority`] first (decode-latency-critical
//!    beats prefill-throughput), then the earliest deadline, then
//!    admission order. An aging rule bounds priority inversion the
//!    other way: after [`DECODE_BURST`] consecutive decode batches the
//!    driver runs the best waiting prefill batch, so a decode flood
//!    cannot starve prefill indefinitely (and a prefill flood never
//!    delays decode by more than the one batch already picked). A
//!    picked batch whose deadline has **already passed** is shed —
//!    completed as [`RequestError::Shed`] without touching the engine
//!    (counted in [`DispatchStats::shed`]) — so an overload spends
//!    cycles only on batches that can still make their deadlines.
//!
//! A blocking caller has a shorter way through, the **direct** path:
//! [`DispatchSession::run`] validates and admits its batch exactly as
//! `submit_with` does, and if that batch is then the only work in the
//! dispatcher — no session has anything else in flight, no eviction
//! is queued — the calling thread takes the engine lock and executes
//! the batch itself, booking what the driver would have booked
//! ([`DispatchStats::direct`]). That skips the two thread hand-offs of
//! the queued pipeline (client → driver → client), which cost several
//! times the engine time of a decode-sized batch. The choice is made
//! from state the dispatcher already holds, per batch, under the state
//! lock: the moment there is anybody to be ordered against, `run`
//! queues like a submission, so priority order, aging, deadlines,
//! per-session FIFO and admission are always those of the queued
//! pipeline. With two or more *busy* tenants most batches therefore
//! still pay the queued path; `submit`/`submit_with` always do (they
//! return as soon as the batch is filed).
//!
//! Weight **eviction races** are first-class: [`Dispatcher::evict_weights`]
//! condemns the handle immediately (new submissions fail with
//! [`RequestError::StaleHandle`]) and queues a control op the driver
//! applies under the engine lock, in series with every batch execution
//! (a direct run takes that lock atomically with its condemned check),
//! so a stale handle racing a live session errs per batch instead of
//! panicking the engine.
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
//! let d = decode
//!     .submit_with(
//!         vec![GemmRequest::with_weights(2, a.clone(), weights).unwrap()],
//!         Priority::Decode,
//!         None,
//!     )
//!     .unwrap();
//! let p = prefill.submit(vec![GemmRequest::with_weights(2, a, weights).unwrap()]).unwrap();
//! assert_eq!(decode.wait(d).unwrap().outputs.len(), 1);
//! assert_eq!(prefill.wait(p).unwrap().outputs.len(), 1);
//! drop((decode, prefill));
//! let _engine = dispatcher.into_backend(); // drains, hands the warm engine back
//! ```

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

// the sync seam: std primitives normally, the camp-loom model checker
// under `--cfg loom` (see crate::sync and tests/model/)
use crate::sync::thread::JoinHandle;
use crate::sync::{Arc, Condvar, Mutex, MutexGuard};

use camp_gemm::request::{GemmRequest, Operand, RequestError};
use camp_gemm::weights::{WeightHandle, WeightMeta, WeightSnapshot};

use crate::backend::{BatchOutcome, CampBackend};

/// Aging bound: after this many *consecutive* decode batches the driver
/// runs the best waiting prefill batch, so a decode flood cannot starve
/// prefill work indefinitely. (The reverse inversion — prefill starving
/// decode — is bounded at one batch by the priority order itself.)
pub const DECODE_BURST: u32 = 8;

/// Scheduling class of a submitted batch. Decode-latency-critical work
/// outranks prefill-throughput work whenever the driver picks; `Ord`
/// encodes that (`Decode > Prefill`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Throughput-oriented work (prompt prefill, bulk scoring). The
    /// default for [`DispatchSession::submit`].
    #[default]
    Prefill,
    /// Latency-critical work (autoregressive decode steps); beats
    /// prefill whenever both are runnable.
    Decode,
}

/// Dispatcher construction options. Nothing here is read from the
/// environment: a caller that wants another bound passes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchOptions {
    /// Default per-session admission bound: a session with this many
    /// batches in flight (submitted, not yet completed) has further
    /// submissions rejected with [`RequestError::Saturated`]. It is
    /// also the bound on what the session holds queued: every queued
    /// batch carries its requests' operands.
    /// [`Dispatcher::session_with_depth`] overrides per session.
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
/// [`Dispatcher::stats`]. The regression suites assert on these: permit
/// accounting (`staging_live` returns to 0 after a drain), admission
/// accounting (`rejected` counts every [`RequestError::Saturated`]).
#[non_exhaustive]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Batches accepted by admission control, ever.
    pub submitted: u64,
    /// Batches executed to completion (successfully), ever — on the
    /// driver or on a caller's thread.
    pub executed: u64,
    /// Of `executed`, the batches a [`DispatchSession::run`] caller
    /// executed on its own thread because nothing else was in flight,
    /// ever.
    pub direct: u64,
    /// Batches cancelled still queued when their session dropped, ever.
    pub cancelled: u64,
    /// Submissions rejected with [`RequestError::Saturated`], ever.
    pub rejected: u64,
    /// Always 0: nothing claims work across sessions any more. Kept
    /// only until the benchmark retires the `dispatch.stolen_share` row
    /// that reads it (see ROADMAP.md).
    pub stolen: u64,
    /// Eviction control ops accepted by [`Dispatcher::evict_weights`],
    /// ever.
    pub evictions: u64,
    /// Batches failed with [`RequestError::StaleHandle`] because a
    /// handle they carry was condemned before they reached the engine,
    /// ever.
    pub stale_failures: u64,
    /// Batches shed because their deadline had already passed when the
    /// driver picked them — completed as [`RequestError::Shed`] without
    /// touching the engine, ever.
    pub shed: u64,
    /// Batches picked by the driver or a direct caller and not yet
    /// completed (on the engine, or about to be). 0 when drained. The
    /// name outlived the staging step; it stays while the benchmark
    /// reads it (see ROADMAP.md).
    pub staging_live: usize,
    /// Batches queued and not yet picked right now.
    pub ready_now: usize,
    /// Sessions currently open (or closed with work still in flight).
    pub sessions_live: usize,
}

// ---- shared state ----------------------------------------------------------

/// One queued batch: admitted, waiting for (or on) the engine.
struct Pending {
    seq: u64,
    batch: Vec<GemmRequest>,
    priority: Priority,
    deadline: Option<Instant>,
    /// Global admission order, the FIFO tie-breaker across sessions.
    admit: u64,
}

/// Per-session queue + ticket state.
struct SessQueue {
    /// Admission bound: max batches in flight before `Saturated`.
    depth: usize,
    /// Filed and not yet picked, in submission order: only the front
    /// one may run, and the one driver runs it to completion before it
    /// picks again — which is what keeps a session's batches in
    /// submission order.
    queued: VecDeque<Pending>,
    /// Batches in flight: admitted and not yet completed/cancelled —
    /// the queued ones plus the one picked, if any. This is what
    /// admission control bounds.
    pending: usize,
    /// Completed, not yet collected.
    done: HashMap<u64, Result<BatchOutcome, RequestError>>,
    /// Collected-ticket compaction: everything below the floor was
    /// redeemed, plus the sparse set above it.
    collected_floor: u64,
    collected: HashSet<u64>,
    /// The client was dropped; cancel queued work, drop new results,
    /// reap the slot once in-flight work completes.
    closed: bool,
}

impl SessQueue {
    fn with_depth(depth: usize) -> Self {
        SessQueue {
            depth,
            queued: VecDeque::new(),
            pending: 0,
            done: HashMap::new(),
            collected_floor: 0,
            collected: HashSet::new(),
            closed: false,
        }
    }

    fn is_collected(&self, ticket: u64) -> bool {
        ticket < self.collected_floor || self.collected.contains(&ticket)
    }

    fn mark_collected(&mut self, ticket: u64) {
        self.collected.insert(ticket);
        while self.collected.remove(&self.collected_floor) {
            self.collected_floor += 1;
        }
    }

    fn collected_count(&self) -> usize {
        self.collected_floor as usize + self.collected.len()
    }
}

/// Monotonic counters (the gauge fields of [`DispatchStats`] are
/// derived from live state at snapshot time).
#[derive(Default)]
struct Counters {
    submitted: u64,
    executed: u64,
    direct: u64,
    cancelled: u64,
    rejected: u64,
    evictions: u64,
    stale_failures: u64,
    shed: u64,
}

/// Dispatcher state shared by clients and the driver.
///
/// The scheduling scan (`pick`) walks a `Vec` in slot order on purpose:
/// `HashMap`/`HashSet` iteration order must never drive a scheduling
/// decision or the loom models would explore schedules production
/// never runs (keyed lookups are fine).
struct DispState {
    /// Session slots; `None` slots are reaped and reusable.
    sessions: Vec<Option<SessQueue>>,
    /// Eviction control ops awaiting the driver (serialized with batch
    /// execution under the engine lock).
    controls: VecDeque<WeightHandle>,
    /// Handles condemned by [`Dispatcher::evict_weights`]: submissions
    /// and queued batches carrying one fail with `StaleHandle` instead
    /// of reaching an engine that may already have dropped the panel.
    condemned: HashSet<WeightHandle>,
    /// Global admission counter (cross-session FIFO tie-breaker).
    admit_seq: u64,
    /// Consecutive decode batches the driver has run (the aging rule).
    decode_run: u32,
    shutdown: bool,
    /// Set when the driver, or a client on the engine, died; clients
    /// panic instead of hanging.
    dead: Option<&'static str>,
    stats: Counters,
}

impl DispState {
    /// Whether any request of `batch` carries a handle condemned by
    /// [`Dispatcher::evict_weights`]: the one condemned check, read at
    /// admission and again when the driver picks a queued batch.
    fn condemns(&self, batch: &[GemmRequest]) -> bool {
        batch
            .iter()
            .any(|r| matches!(r.weights(), Operand::Handle(h) if self.condemned.contains(h)))
    }

    /// Take the batch the driver should run next out of its session's
    /// queue, or `None` when nothing is queued. Only the front of a
    /// session's queue is runnable (per-session FIFO); among those,
    /// priority desc, deadline asc (`None` = ∞), admission asc — except
    /// that after [`DECODE_BURST`] consecutive decode batches the best
    /// *prefill* batch wins (bounded aging).
    fn pick(&mut self) -> Option<(usize, Pending)> {
        let best_of = |class: Option<Priority>| {
            self.sessions
                .iter()
                .enumerate()
                .filter_map(|(slot, q)| Some((slot, q.as_ref()?.queued.front()?)))
                .filter(|(_, front)| class.is_none_or(|c| front.priority == c))
                .reduce(|best, next| if beats(next.1, best.1) { next } else { best })
        };
        let (mut slot, best) = best_of(None)?;
        if best.priority == Priority::Decode && self.decode_run >= DECODE_BURST {
            if let Some((aged, _)) = best_of(Some(Priority::Prefill)) {
                slot = aged;
            }
        }
        let q = self.sessions[slot].as_mut().expect("picked slot is live");
        let chosen = q.queued.pop_front().expect("picked queue is non-empty");
        self.note_picked(chosen.priority);
        Some((slot, chosen))
    }

    /// Book one queued batch's completion: files the result (unless the
    /// client is gone) and [`release`](Self::release)s its permits.
    fn complete(&mut self, slot: usize, seq: u64, result: Result<BatchOutcome, RequestError>) {
        let q = self.sessions[slot].as_mut().expect("in-flight batch keeps its slot live");
        if !q.closed {
            q.done.insert(seq, result);
        }
        self.release(slot);
    }

    /// Free one picked batch's in-flight permit and reap the slot if
    /// that was its last obligation.
    fn release(&mut self, slot: usize) {
        let q = self.sessions[slot].as_mut().expect("in-flight batch keeps its slot live");
        q.pending -= 1;
        self.maybe_reap(slot);
    }

    /// Book the pick of a batch of `priority`, by the driver or a
    /// direct caller (the aging rule's run length).
    fn note_picked(&mut self, priority: Priority) {
        self.decode_run = match priority {
            Priority::Decode => self.decode_run + 1,
            Priority::Prefill => 0,
        };
    }

    /// True when the one batch in flight is the only work in the
    /// system: no control queued, no other session (and no earlier
    /// batch of the same session) to be ordered against.
    fn lone_batch(&self) -> bool {
        // exactly one session has anything in flight, and exactly one
        // batch; stops at the second busy session it meets
        let mut busy = self.sessions.iter().flatten().map(|q| q.pending).filter(|&p| p > 0);
        self.controls.is_empty() && busy.next() == Some(1) && busy.next().is_none()
    }

    /// Free a closed session's slot once nothing is in flight for it.
    fn maybe_reap(&mut self, slot: usize) {
        if let Some(q) = &self.sessions[slot] {
            if q.closed && q.pending == 0 {
                self.sessions[slot] = None;
            }
        }
    }
}

/// Execute-order comparison: does `a` beat `b`?
fn beats(a: &Pending, b: &Pending) -> bool {
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
    /// The engine lock: the one backend, taken per batch and per
    /// eviction by the driver and per direct run by a client;
    /// [`Dispatcher::into_backend`] empties the slot after the joins.
    /// Lock order is `state` → `engine` (a direct run takes it under
    /// the state lock, atomically with its condemned check — the most
    /// it can wait for there is one eviction, every other holder has a
    /// batch in flight and so rules the direct path out); the driver
    /// never holds both.
    engine: Mutex<Option<B>>,
    /// Wakes the driver, its only waiter: batch filed, control queued,
    /// shutdown, death.
    driver_cv: Condvar,
    /// Wakes waiting clients: batch completed, death. Always
    /// `notify_all`: every session's `wait` parks here, each for its
    /// own ticket.
    done_cv: Condvar,
    /// Registration snapshot every submission validates against.
    weights: WeightSnapshot,
}

impl<B: CampBackend> Shared<B> {
    /// Lock the state, ignoring mutex poisoning: every mutation is
    /// atomic under the lock (queues stay consistent even if a caller
    /// panicked mid-`wait`), and shutdown must still work after a panic
    /// so `Drop` can join the driver.
    fn lock(&self) -> StateGuard<'_> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Lock the engine slot, ignoring poisoning like [`Shared::lock`]:
    /// whoever panicked on the backend already marked the dispatcher
    /// dead, and `Drop` must still reach the slot.
    fn engine(&self) -> MutexGuard<'_, Option<B>> {
        self.engine.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wait on `cv`, ignoring poisoning like [`Shared::lock`].
    fn wait<'a>(&self, cv: &Condvar, st: StateGuard<'a>) -> StateGuard<'a> {
        cv.wait(st).unwrap_or_else(|e| e.into_inner())
    }

    /// Mark the dispatcher dead and wake everyone.
    fn mark_dead(&self, who: &'static str) {
        let mut st = self.lock();
        st.dead = Some(who);
        self.driver_cv.notify_one();
        self.done_cv.notify_all();
    }
}

/// Notifies the dispatcher if the driver (or a client running its own
/// batch on the engine) unwinds, so clients blocked in
/// [`DispatchSession::wait`] fail fast instead of hanging.
struct DeathWatch<'a, B: CampBackend> {
    shared: &'a Shared<B>,
    who: &'static str,
    armed: bool,
}

impl<B: CampBackend> Drop for DeathWatch<'_, B> {
    fn drop(&mut self) {
        if self.armed {
            self.shared.mark_dead(self.who);
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

// ---- the driver thread ---------------------------------------------------

enum DriverAction {
    Evict(WeightHandle),
    Run(usize, Pending),
    Exit,
}

/// The engine slot's backend; only [`Dispatcher::into_backend`] empties
/// the slot, after the driver is joined and new runs are refused.
fn held<B>(engine: &mut Option<B>) -> &mut B {
    engine.as_mut().expect("the engine slot is emptied only after shutdown")
}

fn driver_loop<B: CampBackend>(shared: &Shared<B>) {
    let mut watch = DeathWatch { shared, who: "driver", armed: true };
    loop {
        let action = {
            let mut st = shared.lock();
            loop {
                if st.dead.is_some() {
                    break DriverAction::Exit;
                }
                // controls first: an eviction must not wait behind a
                // backlog of batches that will each fail against it
                if let Some(h) = st.controls.pop_front() {
                    break DriverAction::Evict(h);
                }
                if let Some((slot, chosen)) = st.pick() {
                    if st.condemns(&chosen.batch) {
                        // condemned while queued: fail the batch without
                        // touching the (possibly already evicted) panel
                        st.stats.stale_failures += 1;
                        st.complete(slot, chosen.seq, Err(RequestError::StaleHandle));
                        shared.done_cv.notify_all();
                        continue;
                    }
                    if chosen.deadline.is_some_and(|dl| Instant::now() > dl) {
                        // deadline already missed: computing it would
                        // only delay batches that can still make theirs
                        st.stats.shed += 1;
                        st.complete(slot, chosen.seq, Err(RequestError::Shed));
                        shared.done_cv.notify_all();
                        continue;
                    }
                    break DriverAction::Run(slot, chosen);
                }
                // nothing is filed once `shutdown` is set, so an empty
                // scan under it is final
                if st.shutdown {
                    break DriverAction::Exit;
                }
                st = shared.wait(&shared.driver_cv, st);
            }
        };
        // A poisoned engine lock ends the loop like `Exit`: a direct
        // run panicked on the backend, which may be half-updated and
        // must not run another batch; that client's watch marks the
        // dispatcher dead.
        match action {
            DriverAction::Exit => break,
            DriverAction::Evict(h) => {
                let Ok(mut engine) = shared.engine.lock() else { break };
                // under the engine lock this cannot race an execute; a
                // handle evicted behind the snapshot's back is already
                // an error, ignore it
                let _ = held(&mut engine).weights_mut().evict(h);
            }
            DriverAction::Run(slot, chosen) => {
                let Ok(mut engine) = shared.engine.lock() else { break };
                let result = held(&mut engine).execute_prepared(chosen.batch);
                // lock order: never the state lock under the engine's
                drop(engine);
                let mut st = shared.lock();
                st.stats.executed += 1;
                st.complete(slot, chosen.seq, Ok(result));
                shared.done_cv.notify_all();
            }
        }
    }
    watch.armed = false;
}

// ---- the client handle -----------------------------------------------------

/// One tenant's handle onto a shared [`Dispatcher`]: its own FIFO
/// queue, ticket space, admission bound and result map. Dropping the
/// handle cancels its still-queued batches and releases the slot once
/// the batch on the engine, if any, completes.
pub struct DispatchSession<B: CampBackend + Send + 'static> {
    shared: Arc<Shared<B>>,
    slot: usize,
    /// Process-unique identity stamped into this session's tickets.
    id: u64,
    next_seq: u64,
}

impl<B: CampBackend + Send + 'static> std::fmt::Debug for DispatchSession<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DispatchSession")
            .field("id", &self.id)
            .field("slot", &self.slot)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl<B: CampBackend + Send + 'static> DispatchSession<B> {
    /// Enqueue one batch at [`Priority::Prefill`] with no deadline; see
    /// [`DispatchSession::submit_with`].
    pub fn submit(&mut self, batch: Vec<GemmRequest>) -> Result<TicketId, RequestError> {
        self.submit_with(batch, Priority::Prefill, None)
    }

    /// Validate and enqueue one batch; returns with the ticket that will
    /// redeem its results as soon as the batch is filed. A session's
    /// batches execute in submission order; priority, deadline and
    /// admission order decide between sessions.
    ///
    /// Every request is validated against the registration snapshot
    /// taken when the dispatcher started — stale or foreign handles and
    /// malformed shapes are rejected here as [`RequestError`]s, and a
    /// handle condemned by [`Dispatcher::evict_weights`] rejects as
    /// [`RequestError::StaleHandle`]. A session already at its
    /// admission bound rejects with [`RequestError::Saturated`]
    /// (deterministically: the bound counts batches in flight, not
    /// queue occupancy, so it does not depend on how far the driver
    /// happens to have drained the queue). Nothing is enqueued on any
    /// error. Validation runs under no lock; the refusal checks, the
    /// booking and the filing run under one state-lock acquisition.
    ///
    /// # Panics
    /// Panics if the driver (or a client on the engine) has already
    /// died, or the dispatcher was shut down while this handle was kept
    /// alive.
    pub fn submit_with(
        &mut self,
        batch: Vec<GemmRequest>,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<TicketId, RequestError> {
        let seq = self.next_seq;
        let (mut st, pending) = self.shared.admit(self.slot, seq, batch, priority, deadline)?;
        self.next_seq += 1;
        self.shared.enqueue(&mut st, self.slot, pending);
        Ok(TicketId { session: self.id, seq })
    }

    /// Run one batch to completion and return its outcome: the blocking
    /// form of [`submit_with`](Self::submit_with) followed by
    /// [`wait`](Self::wait), with the same validation, admission bound,
    /// errors and counters.
    ///
    /// When the batch is the only work in the dispatcher — no session
    /// has a batch in flight (this one included) and no eviction is
    /// queued — the calling thread, which submitted it, also executes it
    /// on the engine, with no thread hand-off
    /// ([`DispatchStats::direct`]). Whenever there is anything to be
    /// ordered against, it queues behind it exactly like a submission,
    /// so priority order, aging, deadlines, per-session FIFO and
    /// admission are those of the queued path. A batch whose deadline
    /// has already passed is [`RequestError::Shed`] on either path.
    ///
    /// # Panics
    /// Panics if the driver (or a client on the engine) has died, or
    /// dies while this batch is queued, or the dispatcher was shut down
    /// while this handle was kept alive.
    pub fn run(
        &mut self,
        batch: Vec<GemmRequest>,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<BatchOutcome, RequestError> {
        let seq = self.next_seq;
        let (mut st, pending) = self.shared.admit(self.slot, seq, batch, priority, deadline)?;
        if !st.lone_batch() {
            self.next_seq += 1;
            self.shared.enqueue(&mut st, self.slot, pending);
            drop(st);
            return self.wait(TicketId { session: self.id, seq });
        }
        // the caller is the driver for this batch and books what it
        // would book, in the same order; no ticket is issued
        let shared = &*self.shared;
        st.note_picked(priority);
        if deadline.is_some_and(|dl| Instant::now() > dl) {
            st.stats.shed += 1;
            st.release(self.slot);
            return Err(RequestError::Shed);
        }
        // taken under the state lock, so no eviction can reach the
        // engine between the condemned check in `admit` and the execute
        let engine = shared.engine();
        drop(st);
        let mut watch = DeathWatch { shared, who: "client", armed: true };
        let outcome = {
            // moved in, so that an unwind frees the engine before the
            // watch takes the state lock
            let mut engine = engine;
            held(&mut engine).execute_prepared(pending.batch)
        };
        let mut st = shared.lock();
        st.stats.executed += 1;
        st.stats.direct += 1;
        st.release(self.slot);
        watch.armed = false;
        Ok(outcome)
    }

    /// A ticket's queue key, after verifying it belongs to this
    /// session.
    fn check_ticket(&self, ticket: TicketId) -> u64 {
        assert_eq!(ticket.session, self.id, "ticket was issued by a different session");
        assert!(ticket.seq < self.next_seq, "ticket was never issued by this session");
        ticket.seq
    }

    /// Non-blocking result check: `None` while the batch is still in
    /// the pipeline. The result is handed out exactly once — a second
    /// poll of the same ticket returns `None` again. `Some(Err(_))`
    /// reports a batch failed in flight: condemned by a racing
    /// [`Dispatcher::evict_weights`] ([`RequestError::StaleHandle`]) or
    /// picked after its deadline had passed ([`RequestError::Shed`]).
    pub fn poll(&mut self, ticket: TicketId) -> Option<Result<BatchOutcome, RequestError>> {
        let seq = self.check_ticket(ticket);
        let mut st = self.shared.lock();
        // completed results stay retrievable even after the dispatcher
        // died — only a still-pending ticket has to fail
        let q = self.shared.queue(&mut st, self.slot);
        if let Some(result) = q.done.remove(&seq) {
            q.mark_collected(seq);
            return Some(result);
        }
        if let Some(who) = st.dead {
            panic!("serving session is dead: {who} thread panicked");
        }
        None
    }

    /// Block until the batch completes; `Err` reports a batch failed in
    /// flight ([`RequestError::StaleHandle`] or [`RequestError::Shed`],
    /// as for [`poll`](Self::poll)). Each ticket can be waited on
    /// exactly once.
    ///
    /// # Panics
    /// Panics if the dispatcher died, or the ticket's result was
    /// already collected.
    pub fn wait(&mut self, ticket: TicketId) -> Result<BatchOutcome, RequestError> {
        let seq = self.check_ticket(ticket);
        let mut st = self.shared.lock();
        loop {
            let q = self.shared.queue(&mut st, self.slot);
            assert!(!q.is_collected(seq), "ticket result was already collected");
            if let Some(result) = q.done.remove(&seq) {
                q.mark_collected(seq);
                return result;
            }
            if let Some(who) = st.dead {
                panic!("serving session is dead: {who} thread panicked");
            }
            st = self.shared.wait(&self.shared.done_cv, st);
        }
    }

    /// Batches submitted whose results have not been collected yet
    /// (queued, computing, or done-but-unredeemed).
    pub fn in_flight(&self) -> usize {
        let mut st = self.shared.lock();
        let collected = self.shared.queue(&mut st, self.slot).collected_count();
        self.next_seq as usize - collected
    }

    /// This session's process-unique identity (the stamp in its
    /// tickets).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl<B: CampBackend> Shared<B> {
    /// Validation and admission control shared by every submission
    /// path. The batch is validated against the registration snapshot
    /// under no lock; then one state-lock acquisition refuses it or
    /// books it — an in-flight permit and its place in the global
    /// admission order — and the guard comes back still held, so the
    /// caller files (or runs) the batch atomically with its admission.
    /// Nothing is booked on any error.
    fn admit(
        &self,
        slot: usize,
        seq: u64,
        batch: Vec<GemmRequest>,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<(StateGuard<'_>, Pending), RequestError> {
        for r in &batch {
            r.resolve(&self.weights)?;
        }
        let mut st = self.lock();
        self.refuse(&mut st, slot, &batch)?;
        self.queue(&mut st, slot).pending += 1;
        let admit = st.admit_seq;
        st.admit_seq += 1;
        st.stats.submitted += 1;
        Ok((st, Pending { seq, batch, priority, deadline, admit }))
    }

    /// Everything that turns a valid batch away, in the order callers
    /// see it.
    fn refuse(
        &self,
        st: &mut StateGuard<'_>,
        slot: usize,
        batch: &[GemmRequest],
    ) -> Result<(), RequestError> {
        if let Some(who) = st.dead {
            panic!("serving session is dead: {who} thread panicked");
        }
        if st.shutdown {
            panic!("dispatcher is shut down");
        }
        if st.condemns(batch) {
            return Err(RequestError::StaleHandle);
        }
        let q = self.queue(st, slot);
        if q.pending >= q.depth {
            let depth = q.depth;
            st.stats.rejected += 1;
            return Err(RequestError::Saturated { depth });
        }
        Ok(())
    }

    /// File an admitted batch in its session's queue and wake the
    /// driver.
    fn enqueue(&self, st: &mut StateGuard<'_>, slot: usize, pending: Pending) {
        self.queue(st, slot).queued.push_back(pending);
        self.driver_cv.notify_one();
    }

    /// A live client's queue. The slot cannot be reaped while the
    /// client exists (reaping requires `closed`, set only on drop).
    fn queue<'a>(&self, st: &'a mut StateGuard<'_>, slot: usize) -> &'a mut SessQueue {
        st.sessions[slot].as_mut().expect("live client keeps its slot")
    }
}

impl<B: CampBackend + Send + 'static> Drop for DispatchSession<B> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        if let Some(q) = st.sessions[self.slot].as_mut() {
            q.closed = true;
            // cancel what the driver has not picked yet; a batch on the
            // engine runs to completion (its result is dropped)
            let cancelled = q.queued.len();
            q.pending -= cancelled;
            q.queued.clear();
            q.done.clear();
            st.stats.cancelled += cancelled as u64;
            st.maybe_reap(self.slot);
        }
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
    driver: Option<JoinHandle<()>>,
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
        let shared: Arc<Shared<B>> = Arc::new(Shared {
            state: Mutex::new(DispState {
                sessions: Vec::new(),
                controls: VecDeque::new(),
                condemned: HashSet::new(),
                admit_seq: 0,
                decode_run: 0,
                shutdown: false,
                dead: None,
                stats: Counters::default(),
            }),
            driver_cv: Condvar::new(),
            done_cv: Condvar::new(),
            weights: backend.weights().snapshot(),
            engine: Mutex::new(Some(backend)),
        });

        let driver_shared = Arc::clone(&shared);
        let driver = crate::sync::thread::Builder::new()
            .name("camp-dispatch-driver".into())
            .spawn(move || driver_loop(&driver_shared))
            .expect("failed to spawn dispatch driver");

        Dispatcher { shared, options, driver: Some(driver) }
    }

    /// Open a session at the dispatcher's default admission bound
    /// ([`DispatchOptions::queue_depth`]).
    pub fn session(&self) -> DispatchSession<B> {
        self.session_with_depth(self.options.queue_depth)
    }

    /// Open a session with its own admission bound: at `depth` batches
    /// in flight, further submissions return [`RequestError::Saturated`].
    pub fn session_with_depth(&self, depth: usize) -> DispatchSession<B> {
        assert!(depth >= 1, "a zero admission bound would reject everything");
        let mut st = self.shared.lock();
        let slot = match st.sessions.iter().position(Option::is_none) {
            Some(slot) => slot,
            None => {
                st.sessions.push(None);
                st.sessions.len() - 1
            }
        };
        st.sessions[slot] = Some(SessQueue::with_depth(depth));
        DispatchSession {
            shared: Arc::clone(&self.shared),
            slot,
            id: next_session_id(),
            next_seq: 0,
        }
    }

    /// Condemn a weight registration: the handle is rejected at every
    /// later submission, batches already queued against it fail with
    /// [`RequestError::StaleHandle`] instead of reaching the engine,
    /// and the driver evicts the backend registration in series with
    /// batch execution. Returns the registration's metadata, or
    /// [`RequestError::StaleHandle`] on a double eviction — a handle
    /// racing a live session errs, it never panics.
    pub fn evict_weights(&self, h: WeightHandle) -> Result<WeightMeta, RequestError> {
        let meta = self.shared.weights.meta(h)?;
        let mut st = self.shared.lock();
        if !st.condemned.insert(h) {
            return Err(RequestError::StaleHandle);
        }
        st.controls.push_back(h);
        st.stats.evictions += 1;
        self.shared.driver_cv.notify_one();
        Ok(meta)
    }

    /// Snapshot of the dispatcher's counters and gauges.
    pub fn stats(&self) -> DispatchStats {
        let st = self.shared.lock();
        DispatchStats {
            submitted: st.stats.submitted,
            executed: st.stats.executed,
            direct: st.stats.direct,
            cancelled: st.stats.cancelled,
            rejected: st.stats.rejected,
            stolen: 0,
            evictions: st.stats.evictions,
            stale_failures: st.stats.stale_failures,
            shed: st.stats.shed,
            staging_live: st.sessions.iter().flatten().map(|q| q.pending - q.queued.len()).sum(),
            ready_now: st.sessions.iter().flatten().map(|q| q.queued.len()).sum(),
            sessions_live: st.sessions.iter().flatten().count(),
        }
    }

    /// The options this dispatcher runs with.
    pub fn options(&self) -> DispatchOptions {
        self.options
    }

    /// Drain the pipeline (every batch still queued by a live session
    /// finishes; uncollected results are dropped when their sessions
    /// drop) and return the backend, weights and warm pools intact.
    /// Sessions kept alive across this call panic on their next
    /// submission.
    ///
    /// # Panics
    /// Panics if the backend panicked mid-batch, on the driver or under
    /// a [`DispatchSession::run`] caller.
    pub fn into_backend(mut self) -> B {
        self.join_driver().expect("dispatcher driver panicked");
        // blocks until a direct run still on the engine has finished;
        // no new one can start, `shutdown` is set
        let mut engine = self.shared.engine.lock().expect("a direct run panicked on the backend");
        engine.take().expect("the engine slot is emptied only here")
    }

    /// Signal shutdown and join the driver, returning its verdict.
    fn join_driver(&mut self) -> std::thread::Result<()> {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
            self.shared.driver_cv.notify_one();
        }
        self.driver.take().map_or(Ok(()), JoinHandle::join)
    }
}

impl<B: CampBackend + Send + 'static> Drop for Dispatcher<B> {
    fn drop(&mut self) {
        let _ = self.join_driver();
        // the backend goes with the dispatcher, not with the last
        // session handle that outlives it
        drop(self.shared.engine().take());
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

    /// Shared permit counter gating the mock driver: executions block
    /// until a permit is granted, so tests pin the pipeline in a known
    /// state and release it deterministically.
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
        ran_on: std::sync::Arc<std::sync::Mutex<Vec<std::thread::Thread>>>,
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
            self.ran_on.lock().unwrap().push(std::thread::current());
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

    /// Poll the dispatcher until `pred` holds (the driver is
    /// asynchronous; 5 s cap, far beyond any real hand-off latency).
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

    #[test]
    fn saturation_fires_deterministically_at_the_bound_and_recovers() {
        let (backend, gate, _log) = GateBackend::new(0);
        let dispatcher = Dispatcher::new(backend);
        let mut session = dispatcher.session_with_depth(3);

        // the bound counts batches in flight, not queue occupancy: with
        // the driver gated shut, exactly `depth` submissions are
        // admitted no matter how the driver interleaves
        let tickets: Vec<TicketId> =
            (0..3).map(|i| session.submit(vec![req(i + 1)]).expect("below the bound")).collect();
        // each was filed under the lock acquisition that booked its
        // permit: every admitted batch is queued or picked the moment
        // `submit` returns, no waiting for anybody
        let stats = dispatcher.stats();
        assert_eq!((stats.submitted, stats.staging_live + stats.ready_now), (3, 3));
        let err = session.submit(vec![req(99)]).unwrap_err();
        assert_eq!(err, RequestError::Saturated { depth: 3 });
        assert!(err.to_string().contains("bounded depth 3"), "{err}");
        // nothing was enqueued: still exactly 3 in flight
        assert_eq!(session.in_flight(), 3);
        let stats = dispatcher.stats();
        assert_eq!((stats.submitted, stats.rejected), (3, 1));

        // drain: the session recovers without leaking in-flight permits
        grant(&gate, 3);
        for t in tickets {
            assert_eq!(session.wait(t).expect("gated batches complete").outputs.len(), 1);
        }
        let stats = wait_for(&dispatcher, |s| s.staging_live == 0);
        assert_eq!(stats.executed, 3);
        grant(&gate, 1);
        let t = session.submit(vec![req(4)]).expect("drained sessions admit again");
        assert_eq!(session.wait(t).expect("admitted batch completes").outputs[0].m, 4);
    }

    #[test]
    fn decode_overtakes_queued_prefill() {
        let (backend, gate, log) = GateBackend::new(0);
        let dispatcher = Dispatcher::new(backend);
        let mut prefill = dispatcher.session();
        let mut decode = dispatcher.session();

        let p1 = prefill.submit(vec![req(1)]).unwrap();
        let p2 = prefill.submit(vec![req(2)]).unwrap();
        let d = decode.submit_with(vec![req(3)], Priority::Decode, None).unwrap();
        // pin the pipeline: one batch on the (gated) engine, the
        // other two queued
        wait_for(&dispatcher, |s| s.staging_live == 1 && s.ready_now == 2);

        grant(&gate, 3);
        assert_eq!(decode.wait(d).unwrap().outputs[0].m, 3);
        assert_eq!(prefill.wait(p1).unwrap().outputs[0].m, 1);
        assert_eq!(prefill.wait(p2).unwrap().outputs[0].m, 2);
        // the decode batch overtook the still-queued prefill batch;
        // whether prefill batch 1 reached the engine before the
        // decode one was filed is a benign race, so only the
        // relative order is asserted
        let log = log.lock().unwrap();
        let pos = |m| log.iter().position(|&x| x == m).unwrap();
        assert!(pos(3) < pos(2), "decode must beat the queued prefill batch: {log:?}");
        assert!(pos(1) < pos(2), "per-session FIFO must hold: {log:?}");
    }

    #[test]
    fn deadlines_order_equal_priority_work() {
        let (backend, gate, log) = GateBackend::new(0);
        let dispatcher = Dispatcher::new(backend);
        let mut a = dispatcher.session();
        let mut b = dispatcher.session();

        // a deadline that orders but cannot pass: were it missed on a
        // loaded box, the batch would be shed instead of ordered
        let deadline = Some(Instant::now() + std::time::Duration::from_secs(3600));
        let gate_batch = a.submit(vec![req(9)]).unwrap(); // occupies the engine
        let relaxed = a.submit_with(vec![req(1)], Priority::Prefill, None).unwrap();
        let urgent = b.submit_with(vec![req(2)], Priority::Prefill, deadline).unwrap();
        // pin: one batch on the (gated) engine — the gate batch, or the
        // deadline one if the driver woke late — and two queued
        wait_for(&dispatcher, |s| s.staging_live == 1 && s.ready_now == 2);

        grant(&gate, 3);
        assert!(a.wait(gate_batch).is_ok());
        assert!(a.wait(relaxed).is_ok());
        assert!(b.wait(urgent).is_ok());
        // the deadline batch beat the earlier-admitted no-deadline one
        let log = log.lock().unwrap();
        let pos = |m| log.iter().position(|&x| x == m).unwrap();
        assert!(pos(2) < pos(1), "earliest deadline must run first at equal priority: {log:?}");
    }

    #[test]
    fn missed_deadlines_are_shed_not_computed() {
        let (backend, gate, log) = GateBackend::new(0);
        let dispatcher = Dispatcher::new(backend);
        let mut session = dispatcher.session();

        // occupy the (gated) engine so the doomed batch waits queued;
        // it is this session's first batch, so it is picked first
        let blocker = session.submit_with(vec![req(9)], Priority::Decode, None).unwrap();
        let doomed =
            session.submit_with(vec![req(1)], Priority::Prefill, Some(Instant::now())).unwrap();
        let live = session
            .submit_with(
                vec![req(2)],
                Priority::Prefill,
                Some(Instant::now() + std::time::Duration::from_secs(3600)),
            )
            .unwrap();
        // pin: blocker on the engine, the other two queued behind it
        wait_for(&dispatcher, |s| s.staging_live == 1 && s.ready_now == 2);
        // let the already-expired deadline pass unambiguously
        std::thread::sleep(std::time::Duration::from_millis(5));

        // 3 permits offered, but the shed batch must not consume one
        grant(&gate, 3);
        assert_eq!(session.wait(doomed).unwrap_err(), RequestError::Shed);
        assert_eq!(session.wait(blocker).unwrap().outputs[0].m, 9);
        assert_eq!(session.wait(live).unwrap().outputs[0].m, 2);
        let stats = wait_for(&dispatcher, |s| s.staging_live == 0);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.executed, 2, "only the batches that can make their deadlines run");
        let log = log.lock().unwrap();
        assert_eq!(&*log, &[9, 2], "the shed batch must never reach the engine: {log:?}");
        assert!(RequestError::Shed.to_string().contains("shed"));
    }

    #[test]
    fn aging_bounds_prefill_starvation_under_a_decode_flood() {
        let (backend, gate, log) = GateBackend::new(0);
        let dispatcher = Dispatcher::new(backend);
        let mut d1 = dispatcher.session();
        let mut d2 = dispatcher.session();
        let mut p = dispatcher.session();

        let mut decode_tickets = Vec::new();
        for i in 0..6 {
            decode_tickets
                .push((0, d1.submit_with(vec![req(100 + i)], Priority::Decode, None).unwrap()));
            decode_tickets
                .push((1, d2.submit_with(vec![req(200 + i)], Priority::Decode, None).unwrap()));
        }
        // pin: one decode on the gated engine, eleven queued behind it
        // — the first executed batch is decode
        wait_for(&dispatcher, |s| s.staging_live == 1 && s.ready_now == 11);
        let pt = p.submit(vec![req(7)]).unwrap();

        grant(&gate, 13);
        for (who, t) in decode_tickets {
            let outcome = if who == 0 { d1.wait(t) } else { d2.wait(t) };
            assert!(outcome.is_ok());
        }
        assert!(p.wait(pt).is_ok());

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
        let (n, k) = (4, 16);
        let w1: Vec<i8> = (0..k * n).map(|i| (i % 15) as i8 - 7).collect();
        let w2: Vec<i8> = (0..k * n).map(|i| (i % 13) as i8 - 6).collect();
        let a: Vec<i8> = (0..2 * k).map(|i| (i % 11) as i8 - 5).collect();
        let mut engine = CampEngine::with_threads(1);
        let h1 = engine.weights_mut().register(n, k, &w1, DType::I8);
        let h2 = engine.weights_mut().register(n, k, &w2, DType::I8);

        let dispatcher = Dispatcher::new(engine);
        let mut session = dispatcher.session();
        let racing: Vec<TicketId> = (0..4)
            .map(|_| {
                session
                    .submit(vec![GemmRequest::with_weights(2, a.clone(), h1).unwrap()])
                    .expect("live handle admits")
            })
            .collect();

        let meta = dispatcher.evict_weights(h1).expect("first eviction succeeds");
        assert_eq!((meta.n, meta.k), (n, k));
        assert_eq!(dispatcher.evict_weights(h1).unwrap_err(), RequestError::StaleHandle);

        // post-condemnation submissions reject immediately ...
        let err =
            session.submit(vec![GemmRequest::with_weights(2, a.clone(), h1).unwrap()]).unwrap_err();
        assert_eq!(err, RequestError::StaleHandle);

        // ... and every batch racing the eviction either completed
        // before it or failed cleanly as stale — never a panic
        let mut completed = 0;
        for t in racing {
            match session.wait(t) {
                Ok(outcome) => {
                    completed += 1;
                    assert_eq!(outcome.outputs[0].c, gemm_i32_ref(2, n, k, &a, &w1));
                }
                Err(e) => assert_eq!(e, RequestError::StaleHandle),
            }
        }

        // the surviving registration still serves
        let t = session
            .submit(vec![GemmRequest::with_weights(2, a.clone(), h2).unwrap()])
            .expect("uncondemned handle admits");
        assert_eq!(session.wait(t).unwrap().outputs[0].c, gemm_i32_ref(2, n, k, &a, &w2));

        let stats = dispatcher.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.stale_failures, 4 - completed);
        drop(session);
        let mut engine = dispatcher.into_backend();
        // the driver really evicted the backend registration
        assert_eq!(engine.weights_mut().evict(h1).unwrap_err(), RequestError::StaleHandle);
        assert!(engine.weights_mut().evict(h2).is_ok());
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
    fn dropped_sessions_cancel_unclaimed_work_and_release_their_slot() {
        let (backend, gate, _log) = GateBackend::new(0);
        let dispatcher = Dispatcher::new(backend);
        let mut session = dispatcher.session_with_depth(64);
        for i in 0..5 {
            session.submit(vec![req(i + 1)]).unwrap();
        }
        // the driver holds one on the gated engine; 4 stay queued
        wait_for(&dispatcher, |s| s.staging_live == 1);
        drop(session);
        let stats = dispatcher.stats();
        assert_eq!(stats.cancelled, 4);
        assert_eq!(stats.sessions_live, 1, "in-flight work pins the slot");

        // the picked batch runs to completion; the slot is reaped after
        grant(&gate, 1);
        let stats = wait_for(&dispatcher, |s| s.sessions_live == 0);
        assert_eq!(stats.executed, 1);
        assert_eq!(stats.staging_live, 0, "no permits leak past a reap");

        // the freed slot is reused by the next session
        let mut again = dispatcher.session();
        grant(&gate, 1);
        let t = again.submit(vec![req(9)]).unwrap();
        assert_eq!(again.wait(t).unwrap().outputs[0].m, 9);
    }

    #[test]
    fn cross_session_tickets_fail_fast() {
        let (backend, gate, _log) = GateBackend::new(4);
        grant(&gate, 0);
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
        grant(&gate, 6);
        let dispatcher = Dispatcher::new(backend);
        let mut a = dispatcher.session();
        let mut b = dispatcher.session();
        for i in 0..3 {
            a.submit(vec![req(i + 1)]).unwrap();
            b.submit(vec![req(i + 10)]).unwrap();
        }
        // drain without collecting: every submitted batch must execute
        let _backend = dispatcher.into_backend();
        assert_eq!(log.lock().unwrap().len(), 6);
        drop(a);
        drop(b);
    }

    #[test]
    fn idle_run_executes_on_the_callers_thread() {
        let (backend, _gate, log) = GateBackend::new(2);
        let ran_on = backend.ran_on.clone();
        let dispatcher = Dispatcher::new(backend);
        let mut session = dispatcher.session();
        let mut other = dispatcher.session();

        let outcome = session.run(vec![req(5)], Priority::Decode, None).expect("idle run");
        assert_eq!(outcome.outputs[0].m, 5);
        // no hand-off: the stats are final the moment `run` returns
        let stats = dispatcher.stats();
        assert_eq!((stats.submitted, stats.executed, stats.direct), (1, 1, 1));
        assert_eq!((stats.stolen, stats.staging_live, stats.ready_now), (0, 0, 0));
        assert_eq!(session.in_flight(), 0);

        // the queued path, for contrast, runs on the driver thread
        let t = other.submit(vec![req(6)]).unwrap();
        assert_eq!(other.wait(t).unwrap().outputs[0].m, 6);
        assert_eq!(*log.lock().unwrap(), [5, 6]);
        let ran_on = ran_on.lock().unwrap();
        assert_eq!(ran_on[0].id(), std::thread::current().id());
        assert_ne!(ran_on[1].id(), ran_on[0].id());
        assert_eq!(dispatcher.stats().direct, 1);
    }

    #[test]
    fn run_queues_behind_a_busy_engine_and_decode_still_overtakes_prefill() {
        let (backend, gate, log) = GateBackend::new(0);
        let ran_on = backend.ran_on.clone();
        let dispatcher = Dispatcher::new(backend);
        let mut prefill = dispatcher.session();
        let mut decode = dispatcher.session();

        let p1 = prefill.submit(vec![req(1)]).unwrap();
        let p2 = prefill.submit(vec![req(2)]).unwrap();
        // pin: batch 1 held on the (gated) engine, batch 2 queued
        wait_for(&dispatcher, |s| s.staging_live == 1 && s.ready_now == 1);

        std::thread::scope(|scope| {
            let runner = scope.spawn(|| decode.run(vec![req(3)], Priority::Decode, None));
            // the run found somebody to be ordered against: it is
            // queued like any submission, and only then may batches go
            wait_for(&dispatcher, |s| s.staging_live == 1 && s.ready_now == 2);
            grant(&gate, 3);
            let outcome = runner.join().unwrap();
            assert_eq!(outcome.expect("queued run completes").outputs[0].m, 3);
            assert!(prefill.wait(p1).is_ok() && prefill.wait(p2).is_ok());
            assert_eq!(*log.lock().unwrap(), [1, 3, 2], "decode overtakes the queued prefill");
            let ran_on = ran_on.lock().unwrap();
            assert!(
                ran_on.iter().all(|t| t.name() == Some("camp-dispatch-driver")),
                "every queued batch runs on the one driver: {ran_on:?}"
            );
            assert!(ran_on.iter().all(|t| t.id() == ran_on[0].id()), "{ran_on:?}");
        });
        let stats = dispatcher.stats();
        assert_eq!((stats.executed, stats.direct, stats.staging_live), (3, 0, 0));
    }

    #[test]
    fn run_never_overtakes_its_own_sessions_earlier_submission() {
        let (backend, gate, log) = GateBackend::new(0);
        let dispatcher = Dispatcher::new(backend);
        let mut session = dispatcher.session();
        let first = session.submit(vec![req(1)]).unwrap();
        std::thread::scope(|scope| {
            // the gate opens only once the run has been admitted
            scope.spawn(|| {
                wait_for(&dispatcher, |s| s.submitted == 2);
                grant(&gate, 2);
            });
            // equal priority: per-session FIFO is what orders the two
            assert_eq!(session.run(vec![req(2)], Priority::Prefill, None).unwrap().outputs[0].m, 2);
        });
        assert_eq!(session.wait(first).unwrap().outputs[0].m, 1);
        assert_eq!(*log.lock().unwrap(), [1, 2]);
        assert_eq!(dispatcher.stats().direct, 0);
        assert_eq!(session.in_flight(), 0);
    }

    #[test]
    fn run_errs_and_counts_like_submit_then_wait() {
        // Saturated: the bound counts the batch held on the gated engine
        let (backend, gate, log) = GateBackend::new(0);
        let dispatcher = Dispatcher::new(backend);
        let mut session = dispatcher.session_with_depth(1);
        let blocker = session.submit(vec![req(1)]).unwrap();
        let saturated = RequestError::Saturated { depth: 1 };
        assert_eq!(session.run(vec![req(2)], Priority::Decode, None).unwrap_err(), saturated);
        assert_eq!(dispatcher.stats().rejected, 1);
        assert_eq!(session.submit(vec![req(2)]).unwrap_err(), saturated);
        let stats = dispatcher.stats();
        assert_eq!((stats.rejected, stats.submitted), (2, 1));
        grant(&gate, 1);
        assert!(session.wait(blocker).is_ok());

        // Shed: a deadline already past never reaches the engine (no
        // permit is left for it to take), on the caller's thread or the
        // driver's
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
        let stats = wait_for(&dispatcher, |s| s.staging_live == 0);
        assert_eq!((stats.shed, stats.submitted, stats.executed, stats.direct), (2, 3, 1, 0));
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
        assert_eq!((stats.submitted, stats.executed, stats.direct), (1, 1, 1));
        assert_eq!((stats.stale_failures, stats.staging_live), (0, 0));
        drop(session);
        // the eviction queued behind the direct run still reached the engine
        let mut engine = dispatcher.into_backend();
        assert_eq!(engine.weights_mut().evict(live).unwrap_err(), RequestError::StaleHandle);

        // the condemned check reads every request of a batch: a pair
        // whose second request carries the handle fails when condemned
        // while queued behind a gated batch, and is refused at `submit`
        // and `run`. The gate opens before any check, so a broken one
        // fails the test instead of parking the driver for good.
        let (mut backend, gate, log) = GateBackend::new(0);
        let h = backend.weights_mut().register(1, 1, &[1], DType::I8);
        let dispatcher = Dispatcher::new(backend);
        let mut session = dispatcher.session();
        let pair = || vec![req(2), GemmRequest::with_weights(2, vec![1i8; 2], h).unwrap()];
        let blocker = session.submit(vec![req(1)]).unwrap();
        wait_for(&dispatcher, |s| s.staging_live == 1);
        let queued = session.submit(pair()).expect("a live handle admits");
        dispatcher.evict_weights(h).unwrap();
        grant(&gate, 4);
        assert!(session.wait(blocker).is_ok());
        assert_eq!(session.wait(queued).unwrap_err(), RequestError::StaleHandle);
        assert_eq!(session.submit(pair()).unwrap_err(), RequestError::StaleHandle);
        let err = session.run(pair(), Priority::Decode, None).unwrap_err();
        assert_eq!(err, RequestError::StaleHandle);
        assert_eq!(*log.lock().unwrap(), [1], "a condemned pair reached the backend");
        let stats = dispatcher.stats();
        assert_eq!((stats.submitted, stats.executed, stats.stale_failures), (2, 1, 1));
    }

    /// One batch through the three entry points — `execute_batch` on the
    /// bare backend, a direct `run`, a queued `submit_with` → `wait`:
    /// the same outputs, equal to the reference, and the same stats
    /// (on the host engine: no B bytes packed for the dense m = 1 leg).
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
        let direct = session.run(batch.clone(), Priority::Decode, None).unwrap();
        let ticket = session.submit_with(batch, Priority::Decode, None).unwrap();
        let queued = session.wait(ticket).unwrap();
        for (got, want) in bare.outputs.iter().zip(&want) {
            assert_eq!(&got.c, want);
        }
        assert_eq!(bare.outputs.len(), want.len());
        if let Some(host) = bare.stats.as_host() {
            let panel = (n.div_ceil(4) * 4 * k.div_ceil(16) * 16) as u64;
            assert_eq!(host.packed_b_bytes, 2 * panel, "each of the blocked pair packs its B");
        }
        for (leg, outcome) in [("direct run", &direct), ("queued batch", &queued)] {
            assert!(outcome.outputs == bare.outputs, "a {leg} must match the bare backend");
            assert_eq!(outcome.stats, bare.stats, "a {leg} must report the bare backend's stats");
        }
        let stats = dispatcher.stats();
        assert_eq!((stats.executed, stats.direct, stats.staging_live), (2, 1, 0));
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
    fn a_backend_panic_under_a_direct_run_kills_the_dispatcher() {
        let (backend, gate, log) = GateBackend::new(0);
        let dispatcher = Dispatcher::new(backend);
        let mut doomed = dispatcher.session();
        let mut bystander = dispatcher.session();
        std::thread::scope(|scope| {
            // the poisoned batch goes direct and parks on the gate with
            // the engine lock held ...
            let runner = scope.spawn(|| {
                let batch = vec![req(POISON_M)];
                catch_unwind(AssertUnwindSafe(|| doomed.run(batch, Priority::Decode, None)))
            });
            wait_for(&dispatcher, |s| s.staging_live == 1);
            // ... a second tenant's batch queues up behind that lock
            let t = bystander.submit(vec![req(2)]).unwrap();
            wait_for(&dispatcher, |s| s.staging_live == 2 && s.ready_now == 0);
            let bystander = &mut bystander;
            let waiter = scope.spawn(move || catch_unwind(AssertUnwindSafe(|| bystander.wait(t))));
            grant(&gate, 1);
            assert!(panic_message(runner.join().unwrap()).contains("poisoned batch"));
            // fails fast instead of hanging, exactly as on a driver panic
            let msg = panic_message(waiter.join().unwrap());
            assert!(msg.contains("dead: client thread panicked"), "{msg}");
        });
        // nothing runs on the backend the panic left behind
        assert!(log.lock().unwrap().is_empty());
        let caught =
            catch_unwind(AssertUnwindSafe(|| doomed.run(vec![req(1)], Priority::Decode, None)));
        assert!(panic_message(caught).contains("dead: client thread panicked"));
        // Drop for Dispatcher still joins (it runs under this unwind)
        let caught = catch_unwind(AssertUnwindSafe(|| dispatcher.into_backend()));
        assert!(panic_message(caught).contains("direct run panicked"));
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
