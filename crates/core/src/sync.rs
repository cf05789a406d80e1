//! Synchronization seam for the concurrency core.
//!
//! [`pool`](crate::pool) and [`dispatch`](crate::dispatch) take every
//! mutex, condvar and thread primitive from this module instead of
//! `std` directly. A normal build re-exports `std::sync` /
//! `std::thread` — zero cost, identical types. Under
//! `RUSTFLAGS="--cfg loom"` the same names resolve to the `camp-loom`
//! exhaustive interleaving model checker, so the models in
//! `tests/model/` explore every schedule of the *real* `WorkerPool`
//! latch protocol and `Dispatcher` turn protocol, not a
//! re-implementation. Only the pool spawns threads: the dispatcher
//! runs every batch on the thread that submitted it, so its models
//! spawn the callers themselves.
//!
//! Keep the seam honest: only primitives whose interleavings the
//! models must explore belong here. Process-global bookkeeping that is
//! not part of a protocol (e.g. the session-id counter) stays on
//! `std::sync::atomic` deliberately.

#[cfg(loom)]
pub use loom::sync::{Arc, Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
pub use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Thread spawn/join seam; mirrors the `std::thread` subset the worker
/// pool uses.
pub mod thread {
    #[cfg(loom)]
    pub use loom::thread::{Builder, JoinHandle};
    #[cfg(not(loom))]
    pub use std::thread::{Builder, JoinHandle};
}
