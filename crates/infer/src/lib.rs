//! # camp-infer — end-to-end quantized LLM inference
//!
//! The paper stops at per-layer GeMM inventories (Fig. 14 / §5.2);
//! this crate turns them into served tokens. A [`Model`] built from a
//! [`TransformerConfig`] registers every per-layer weight matrix once
//! as a [`WeightHandle`](camp_core::WeightHandle) in the backend's
//! weight registry, a [`KvCache`] holds per-session K/V tensors with
//! append-on-decode, and an [`InferSession`] drives prefill and
//! GEMV-shaped (m = 1) decode steps through
//! [`GemmRequest`](camp_core::GemmRequest) batches
//! submitted to a [`Dispatcher`](camp_core::Dispatcher) tenant —
//! decode steps tagged [`Priority::Decode`](camp_core::Priority) so
//! that, when sessions contend for the engine, their decode steps get
//! the turn before waiting prefills.
//!
//! # Quantization contract
//!
//! Deterministic f32 weights (seeded
//! [`SplitMix64`](camp_gemm::reference::SplitMix64)) are quantized to
//! i8 with [`PerChannelQuantizer`](camp_quant::PerChannelQuantizer):
//! one f32 scale per *output channel* (per column of the k×n GeMM B
//! operand). Activations stay i8 end to end: every GeMM accumulates in
//! wrapping i32 and the host requantizes the accumulator back to i8
//! between layers with a per-channel multiplier proportional to that
//! channel's quantizer scale. All non-GeMM arithmetic (requantize,
//! causal mask, saturating residual adds, ReLU, argmax) runs on the
//! host in plain deterministic code, so a forward pass is **bit
//! identical** across backends whenever the GeMMs are — which the
//! backend-parity suite guarantees for `CampEngine` and `SimBackend`
//! at every thread count. Cross-validation against
//! [`gemm_i32_ref`](camp_gemm::reference::gemm_i32_ref) is structural:
//! wrap any executor in [`CheckedExec`] and every layer's GeMM output
//! is compared to the reference as it happens.
//!
//! # Decode == recompute, bit for bit
//!
//! The attention "softmax" stand-in is an elementwise static-scale
//! requantization with causal masking and **no row-max subtraction**,
//! and the context requantizer is normalized by the row's absolute
//! position — both are row-local, so the token computed for position
//! `t` by one KV-cached decode step is bit-identical to the one a full
//! prefill of positions `0..=t` computes for its last row. The
//! `infer_parity` proptest pins this on both backends.
//!
//! ```
//! use camp_core::backend::CampBackend;
//! use camp_core::CampEngine;
//! use camp_infer::{InferSession, Model};
//! use camp_models::TransformerConfig;
//! use std::sync::Arc;
//!
//! let cfg = TransformerConfig { hidden: 8, ff_dim: 16, heads: 2, layers: 2, seq_len: 16 };
//! let model = Arc::new(Model::new(cfg, 32, 7));
//! let mut engine = CampEngine::new();
//! let handles = Arc::new(model.register(&mut engine)); // before dispatch()
//! let dispatcher = engine.dispatch();
//! let mut session = InferSession::new(&dispatcher, model, handles);
//! let ticket = session.prefill(&[3, 1, 4, 1, 5]).unwrap();
//! let mut tokens = vec![ticket.first];
//! for _ in 0..4 {
//!     tokens.push(session.decode_step().unwrap());
//! }
//! assert_eq!(tokens.len(), 5);
//! ```

#![forbid(unsafe_code)]

pub mod forward;
pub mod kv;
pub mod model;
pub mod session;

pub use forward::{BOperand, BackendExec, CheckedExec, DispatchExec, GemmExec, InferGemm, RefExec};
pub use kv::{KvCache, KvPolicy};
pub use model::{Model, ModelHandles, ModelWeight, WeightId};
pub use session::{InferContext, InferError, InferSession, InferTicket};

pub use camp_models::TransformerConfig;
