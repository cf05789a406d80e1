//! Exhaustive concurrency models of the serving core, checked by the
//! `camp-loom` interleaving explorer (see `shims/loom`).
//!
//! These tests compile to an empty binary under a normal `cargo test`:
//! the whole suite is gated on the `loom` cfg, which also swaps
//! `camp_core::sync` from `std` primitives to the model checker. Run
//! them with:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p camp-core --test model
//! ```
//!
//! Each model drives the *real* `WorkerPool` / `Dispatcher` code — the
//! same latch, queues and condvars production uses — through every
//! thread interleaving up to a bounded preemption depth, so the
//! happens-before arguments written as `// SAFETY:` comments (the
//! lifetime-erasing transmute in `pool.rs` above all) are machine
//! checked, not just reviewed.

#![cfg(loom)]

mod dispatch_model;
mod pool_latch;
mod pool_panic;
mod seeded_bug;
