//! # camp-core — the CAMP architecture (paper's primary contribution)
//!
//! The layers, mirroring §3–§4 of the paper:
//!
//! * [`hybrid`] — the **hybrid multiplier**: a divide-and-conquer
//!   composition of 4-bit building blocks (Fig. 5, Eq. 1–2). One 8-bit
//!   multiply uses four 4-bit blocks; reconfigured, the same blocks
//!   perform four independent 4-bit multiplies. The model is bit-accurate
//!   and counts block activations for the area/energy model.
//! * [`structure`] — the static shape of the **CAMP functional unit**
//!   (Fig. 8/10: 8 lanes × 32 8-bit hybrid multipliers, intra- and
//!   inter-lane adders) that the area model prices. What the unit
//!   computes, the outer (Cartesian) product of a 4×k and a k×4
//!   register block, is the `camp` instruction's semantics:
//!   `camp_isa::machine::camp_outer_product`, the reference tile over
//!   sign-extended elements. The simulated machine computes it through
//!   the engine's own tile kernel (`HostKernel::tile_i8`, the same
//!   bits).
//! * [`engine`] — a host-speed **CAMP GeMM engine**: GotoBLAS-style
//!   blocked matrix multiplication whose micro-kernel is the `camp`
//!   instruction's semantics. This is the library a downstream user calls
//!   to run quantized GeMM the way the paper's modified ulmBLAS does. It
//!   shares `camp-gemm`'s blocked-loop skeleton and pack-buffer pool:
//!   one loop nest over two whole packed images (B's a registered
//!   panel, or a dense B's panel and A's rows, each packed by the
//!   computing worker, unit by unit, into its reused arenas), never
//!   packing inside the loops. [`engine::CampEngine`] optionally runs a batch's
//!   work units across a **persistent worker pool** ([`pool`]) with
//!   bit-identical results.
//!   For attention-style workloads of many small GeMMs,
//!   [`backend::CampBackend::execute_batch`] runs a whole batch of
//!   [`GemmRequest`]s per call, parallelizing across batch items (a
//!   weight matrix many requests share is registered once instead).
//! * [`dispatch`] — the **serving layer**: register weights once
//!   (`weights_mut().register(..)` on the backend's [`WeightRegistry`]
//!   packs B into a persistent panel), then serve request batches
//!   through the sessions of one [`dispatch::Dispatcher`], which owns
//!   the warm engine and spawns no thread: each batch is validated and
//!   executed on the thread that submitted it, in that thread's turn on
//!   the engine (the steady state packs zero B bytes per request). Any
//!   number of tenants share it — one-lock admission, per-session
//!   order, the turn handed by decode/prefill [`dispatch::Priority`]
//!   with deadlines and an aging bound, per-session admission control
//!   ([`RequestError::Saturated`]), and panic-free weight-eviction
//!   races.
//!
//! * [`backend`] — **one GeMM API** over interchangeable substrates:
//!   the [`backend::CampBackend`] trait, implemented by the host-speed
//!   [`CampEngine`] and the cycle-accurate [`backend::SimBackend`].
//!   Describe a problem once as a [`GemmRequest`], execute it on either
//!   substrate (bit-identically), branch on [`backend::ExecStats`] —
//!   and serve either one through [`backend::CampBackend::dispatch`].
//!
//! # Quickstart
//!
//! ```
//! use camp_core::backend::CampBackend;
//! use camp_core::{gemm_i32_ref, CampEngine, GemmRequest};
//!
//! let (m, n, k) = (5, 7, 33);
//! let a: Vec<i8> = (0..m * k).map(|i| (i % 17) as i8 - 8).collect();
//! let b: Vec<i8> = (0..k * n).map(|i| (i % 13) as i8 - 6).collect();
//! let req = GemmRequest::dense(m, n, k, a.clone(), b.clone()).unwrap();
//! let fast = CampEngine::new().execute(&req).unwrap();
//! assert_eq!(fast.output.c, gemm_i32_ref(m, n, k, &a, &b));
//! ```

pub mod backend;
pub mod dispatch;
pub mod engine;
pub mod hybrid;
pub mod pool;
pub mod structure;
pub mod sync;

pub use backend::{BatchOutcome, CampBackend, ExecStats, Outcome, Output, SimBackend};
pub use dispatch::{
    DispatchOptions, DispatchSession, DispatchStats, Dispatcher, Priority, TicketId,
};
pub use engine::{gemm_i32_ref, CampEngine, DType, EngineStats, WeightHandle, WeightMeta};
pub use hybrid::HybridMultiplier;
pub use pool::WorkerPool;
pub use structure::CampStructure;

pub use camp_gemm::request::{GemmRequest, GemmRequestBuilder, Operand, RequestError};
pub use camp_gemm::weights::{WeightRegistry, WeightSnapshot};

/// One session serving real backends, end to end (public API only; a
/// unit module so the suite keeps its test ids).
#[cfg(test)]
mod session {
    mod tests;
}
