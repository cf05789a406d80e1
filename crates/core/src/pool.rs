//! Persistent worker pool for the host-speed engine.
//!
//! The PR 1/PR 2 engine spawned fresh `std::thread::scope` workers on
//! *every* parallel GeMM call — fine for a benchmark harness, pure
//! overhead for a serving engine answering millions of small requests.
//! A [`WorkerPool`] spawns its threads once (per [`crate::CampEngine`])
//! and parks them on a condvar between calls; [`WorkerPool::run`]
//! enqueues a set of borrowed jobs and blocks until every one of them
//! has finished, which is what makes lending stack references to the
//! workers sound (the same completion guarantee `std::thread::scope`
//! provides, without the per-call spawn).
//!
//! Panics inside a job do not kill the pool: the worker catches the
//! unwind, the batch completes, and `run` re-raises a panic on the
//! submitting thread — so a poisoned request cannot wedge the engine.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

// the sync seam: std primitives normally, the camp-loom model checker
// under `--cfg loom` (see crate::sync and tests/model/)
use crate::sync::thread::JoinHandle;
use crate::sync::{Arc, Condvar, Mutex};

/// A borrowed job: a closure the submitting call owns for `'env`.
/// [`WorkerPool::run`] guarantees it finishes before returning, so the
/// pool may erase the lifetime internally.
pub type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

type StaticJob = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<StaticJob>,
    /// Jobs claimed by a worker over the pool's lifetime (monotonic). A
    /// claimed job always finishes — panics are caught inside the
    /// wrapper `run` builds — so after every `run` has returned this
    /// equals the number of jobs ever submitted, which is what lets
    /// serving tests assert the pool leaked no permits.
    jobs_run: u64,
    shutdown: bool,
}

struct SharedQueue {
    state: Mutex<QueueState>,
    work: Condvar,
}

/// Per-`run` completion latch: counts jobs still queued or executing,
/// and how many of them panicked.
struct Latch {
    state: Mutex<(usize, usize)>,
    done: Condvar,
}

impl Latch {
    fn new(pending: usize) -> Self {
        Latch { state: Mutex::new((pending, 0)), done: Condvar::new() }
    }

    fn job_finished(&self, panicked: bool) {
        let mut st = self.state.lock().expect("latch poisoned");
        st.0 -= 1;
        st.1 += panicked as usize;
        if st.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Block until every job of this run has finished; returns the
    /// number that panicked.
    fn wait(&self) -> usize {
        let mut st = self.state.lock().expect("latch poisoned");
        while st.0 > 0 {
            st = self.done.wait(st).expect("latch poisoned");
        }
        st.1
    }
}

/// Fixed set of persistent worker threads executing borrowed jobs; see
/// the [module docs](self).
///
/// ```
/// use camp_core::pool::Job;
/// use camp_core::WorkerPool;
///
/// let pool = WorkerPool::new(2);
/// let mut rows = vec![0u32; 4];
/// // the jobs borrow `rows` mutably: `run` returns only once all ran
/// let jobs: Vec<Job<'_>> =
///     rows.iter_mut().zip(1..).map(|(r, v)| -> Job<'_> { Box::new(move || *r = v) }).collect();
/// pool.run(jobs);
/// assert_eq!(rows, [1, 2, 3, 4]);
/// ```
pub struct WorkerPool {
    shared: Arc<SharedQueue>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.handles.len()).finish()
    }
}

impl WorkerPool {
    /// Spawn `workers` persistent threads (at least one), parked until
    /// the first [`WorkerPool::run`].
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(SharedQueue {
            state: Mutex::new(QueueState::default()),
            work: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                crate::sync::thread::Builder::new()
                    .name(format!("camp-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn engine worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Jobs currently enqueued and not yet claimed by a worker. Zero
    /// whenever no [`WorkerPool::run`] is in flight: `run` does not
    /// return before every job it queued has finished.
    pub fn queued_jobs(&self) -> usize {
        self.shared.state.lock().expect("worker pool poisoned").jobs.len()
    }

    /// Total jobs workers have claimed over the pool's lifetime
    /// (monotonic). Between runs this equals the number of jobs ever
    /// submitted — `queued_jobs() == 0 && jobs_run() == submitted` is
    /// the "no leaked permits" invariant the serving tests assert.
    pub fn jobs_run(&self) -> u64 {
        self.shared.state.lock().expect("worker pool poisoned").jobs_run
    }

    /// Execute `jobs` on the pool and block until all of them have
    /// finished. Jobs may borrow from the caller's stack: none of them
    /// outlives this call.
    ///
    /// # Panics
    /// Panics (after every job has finished) if any job panicked, so a
    /// failing worker surfaces on the submitting thread exactly like
    /// the scoped-thread path it replaces.
    pub fn run<'env>(&self, jobs: Vec<Job<'env>>) {
        if jobs.is_empty() {
            return;
        }
        let latch = Arc::new(Latch::new(jobs.len()));
        {
            let mut st = self.shared.state.lock().expect("worker pool poisoned");
            for job in jobs {
                let latch = Arc::clone(&latch);
                let wrapped: Job<'env> = Box::new(move || {
                    let panicked = catch_unwind(AssertUnwindSafe(job)).is_err();
                    latch.job_finished(panicked);
                });
                // SAFETY: `run` does not return until the latch reports
                // every job (queued *or* executing) finished, so the
                // closure — and everything it borrows for 'env — is
                // dead before the borrows it captures expire. This is
                // the std::thread::scope guarantee, amortized.
                let wrapped: StaticJob =
                    unsafe { std::mem::transmute::<Job<'env>, StaticJob>(wrapped) };
                st.jobs.push_back(wrapped);
            }
            self.shared.work.notify_all();
        }
        let panics = latch.wait();
        assert!(panics == 0, "{panics} engine worker job(s) panicked");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("worker pool poisoned");
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            // a worker that panicked outside a job already reported it
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &SharedQueue) {
    loop {
        let job = {
            let mut st = shared.state.lock().expect("worker pool poisoned");
            loop {
                if let Some(job) = st.jobs.pop_front() {
                    st.jobs_run += 1;
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared.work.wait(st).expect("worker pool poisoned");
            }
        };
        // panics are caught and counted inside the wrapper `run` built
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_borrow_the_callers_stack() {
        let pool = WorkerPool::new(4);
        let mut slots = vec![0usize; 16];
        let jobs: Vec<Job<'_>> = slots
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| -> Job<'_> { Box::new(move || *slot = i + 1) })
            .collect();
        pool.run(jobs);
        assert_eq!(slots, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_runs() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            let jobs: Vec<Job<'_>> = (0..3)
                .map(|_| -> Job<'_> {
                    Box::new(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            pool.run(jobs);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 150);
    }

    #[test]
    fn zero_worker_requests_still_get_one_thread() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let mut hit = false;
        pool.run(vec![Box::new(|| hit = true) as Job<'_>]);
        assert!(hit);
    }

    #[test]
    fn empty_run_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.run(Vec::new());
        assert_eq!((pool.queued_jobs(), pool.jobs_run()), (0, 0));
    }

    #[test]
    fn job_counters_balance_between_runs() {
        let pool = WorkerPool::new(3);
        for round in 1..=4u64 {
            let jobs: Vec<Job<'_>> = (0..5).map(|_| Box::new(|| ()) as Job<'_>).collect();
            pool.run(jobs);
            assert_eq!(pool.queued_jobs(), 0, "run returned with jobs still queued");
            assert_eq!(pool.jobs_run(), round * 5);
        }
    }

    #[test]
    fn job_panics_surface_on_the_submitter_and_spare_the_pool() {
        let pool = WorkerPool::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![
                Box::new(|| panic!("poisoned request")) as Job<'_>,
                Box::new(|| ()) as Job<'_>,
            ]);
        }));
        assert!(r.is_err(), "job panic must propagate to the submitter");
        // the pool survives and keeps executing later runs
        let mut ok = false;
        pool.run(vec![Box::new(|| ok = true) as Job<'_>]);
        assert!(ok);
    }

    #[test]
    fn more_jobs_than_workers_all_complete() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        let jobs: Vec<Job<'_>> = (0..100)
            .map(|_| -> Job<'_> {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        pool.run(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }
}
