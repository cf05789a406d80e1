//! The quantized forward pass and the executors that run its GeMMs.
//!
//! The crate-internal `forward` pass emits every GeMM of a
//! transformer block as an
//! [`InferGemm`] — activation bytes plus either a logical weight id or
//! a dense KV-derived operand — and hands batches to a [`GemmExec`].
//! The executors differ only in *who multiplies*:
//!
//! * [`DispatchExec`] submits [`GemmRequest`] batches to a
//!   [`Dispatcher`](camp_core::Dispatcher) tenant session (the serving
//!   path; decode steps tagged [`Priority::Decode`]),
//! * [`BackendExec`] calls [`CampBackend::execute_batch`] directly
//!   (host engine or cycle-accurate simulator),
//! * [`RefExec`] replays each GeMM on [`gemm_i32_ref`],
//! * [`CheckedExec`] wraps any of them and cross-validates every
//!   layer's output against the reference as it happens.
//!
//! Everything outside the GeMMs — requantization, causal masking,
//! saturating residual adds, ReLU, argmax — is plain deterministic
//! host code, so two executors that agree on GeMM outputs agree on
//! every token, bit for bit.

use std::sync::Arc;

use camp_core::backend::CampBackend;
use camp_core::dispatch::{DispatchSession, Priority};
use camp_core::GemmRequest;
use camp_gemm::reference::gemm_i32_ref;

use crate::kv::{arc_filled, head_block, KvCache};
use crate::model::{Model, ModelHandles, WeightId};
use crate::session::InferError;

/// The B-side of one inference GeMM.
#[derive(Debug, Clone)]
pub enum BOperand {
    /// A static model weight by logical id — each executor resolves it
    /// to its own backend's handle (or to the raw bytes).
    Weight(WeightId),
    /// A KV-derived dense operand (per-head Kᵀ or V), row-major k×n.
    Dense(Arc<[i8]>),
}

/// One GeMM of the forward pass, executor-agnostic.
#[derive(Debug, Clone)]
pub struct InferGemm {
    /// Rows of the activation / result.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Reduction depth.
    pub k: usize,
    /// Row-major m×k i8 activation.
    pub a: Arc<[i8]>,
    /// The weight side.
    pub b: BOperand,
}

/// Executes batches of inference GeMMs, returning each result as a
/// row-major m×n wrapping-i32 accumulator in submission order.
pub trait GemmExec {
    /// Run one batch.
    fn run(&mut self, batch: Vec<InferGemm>) -> Result<Vec<Vec<i32>>, InferError>;
}

/// Replay one GeMM on the scalar reference.
fn ref_gemm(model: &Model, g: &InferGemm) -> Vec<i32> {
    match &g.b {
        BOperand::Weight(id) => {
            let w = model.weight(*id);
            debug_assert_eq!((g.n, g.k), (w.n, w.k));
            gemm_i32_ref(g.m, g.n, g.k, &g.a, &w.q)
        }
        BOperand::Dense(b) => gemm_i32_ref(g.m, g.n, g.k, &g.a, b),
    }
}

/// The ground-truth executor: every GeMM on `gemm_i32_ref`.
#[derive(Debug)]
pub struct RefExec<'m> {
    model: &'m Model,
}

impl<'m> RefExec<'m> {
    /// Reference executor for `model` (needs the raw weight bytes).
    pub fn new(model: &'m Model) -> Self {
        RefExec { model }
    }
}

impl GemmExec for RefExec<'_> {
    fn run(&mut self, batch: Vec<InferGemm>) -> Result<Vec<Vec<i32>>, InferError> {
        Ok(batch.iter().map(|g| ref_gemm(self.model, g)).collect())
    }
}

/// Build the [`GemmRequest`]s for one batch against a backend's
/// registered handles.
fn to_requests(
    batch: &[InferGemm],
    handles: &ModelHandles,
) -> Result<Vec<GemmRequest>, InferError> {
    batch
        .iter()
        .map(|g| {
            match &g.b {
                BOperand::Weight(id) => {
                    GemmRequest::with_weights(g.m, g.a.clone(), handles.get(*id))
                }
                BOperand::Dense(b) => GemmRequest::dense(g.m, g.n, g.k, g.a.clone(), b.clone()),
            }
            .map_err(InferError::Request)
        })
        .collect()
}

/// Direct-to-backend executor: one [`CampBackend::execute_batch`] call
/// per batch. This is how the cycle-accurate simulator costs a decode
/// step, and the no-dispatcher baseline on the host engine.
#[derive(Debug)]
pub struct BackendExec<'a, B: CampBackend> {
    backend: &'a mut B,
    handles: &'a ModelHandles,
}

impl<'a, B: CampBackend> BackendExec<'a, B> {
    /// Executor over `backend`, whose registry holds `handles`.
    pub fn new(backend: &'a mut B, handles: &'a ModelHandles) -> Self {
        BackendExec { backend, handles }
    }
}

impl<B: CampBackend> GemmExec for BackendExec<'_, B> {
    fn run(&mut self, batch: Vec<InferGemm>) -> Result<Vec<Vec<i32>>, InferError> {
        let reqs = to_requests(&batch, self.handles)?;
        let outcome = self.backend.execute_batch(&reqs).map_err(InferError::Request)?;
        Ok(outcome.outputs.into_iter().map(|o| o.c).collect())
    }
}

/// The serving executor: batches go through a dispatcher tenant
/// session, tagged with this executor's priority.
#[derive(Debug)]
pub struct DispatchExec<'a, B: CampBackend + Send + 'static> {
    session: &'a mut DispatchSession<B>,
    handles: &'a ModelHandles,
    priority: Priority,
}

impl<'a, B: CampBackend + Send + 'static> DispatchExec<'a, B> {
    /// Executor submitting through `session` at `priority`.
    pub fn new(
        session: &'a mut DispatchSession<B>,
        handles: &'a ModelHandles,
        priority: Priority,
    ) -> Self {
        DispatchExec { session, handles, priority }
    }
}

impl<B: CampBackend + Send + 'static> GemmExec for DispatchExec<'_, B> {
    fn run(&mut self, batch: Vec<InferGemm>) -> Result<Vec<Vec<i32>>, InferError> {
        let reqs = to_requests(&batch, self.handles)?;
        let outcome = self.session.run(reqs, self.priority, None).map_err(InferError::Request)?;
        Ok(outcome.outputs.into_iter().map(|o| o.c).collect())
    }
}

/// Wraps any executor and cross-validates every GeMM output against
/// `gemm_i32_ref` — the per-layer reference check, made structural. A
/// mismatch surfaces as [`InferError::CrossCheck`] with the index of
/// the offending GeMM within its batch.
#[derive(Debug)]
pub struct CheckedExec<'m, E> {
    model: &'m Model,
    inner: E,
}

impl<'m, E: GemmExec> CheckedExec<'m, E> {
    /// Cross-checking wrapper around `inner`.
    pub fn new(model: &'m Model, inner: E) -> Self {
        CheckedExec { model, inner }
    }
}

impl<E: GemmExec> GemmExec for CheckedExec<'_, E> {
    fn run(&mut self, batch: Vec<InferGemm>) -> Result<Vec<Vec<i32>>, InferError> {
        let expected: Vec<Vec<i32>> = batch.iter().map(|g| ref_gemm(self.model, g)).collect();
        let got = self.inner.run(batch)?;
        for (op, (g, e)) in got.iter().zip(&expected).enumerate() {
            if g != e {
                return Err(InferError::CrossCheck { op });
            }
        }
        Ok(got)
    }
}

/// Round to nearest, ties away from zero, saturating to ±127 (NaN → 0):
/// `y.round().clamp(-127.0, 127.0) as i8` on every `f32` bit pattern,
/// without the libm `roundf` call — clamp first, then add the largest
/// `f32` below one half towards the sign and truncate — so the sweeps
/// below vectorize.
#[inline]
fn round_sat_i8(y: f32) -> i8 {
    let y = y.clamp(-127.0, 127.0);
    (y + 0.499_999_97f32.copysign(y)) as i32 as i8
}

/// Requantize one i32 accumulator back to i8.
#[inline]
fn requant(acc: i32, mult: f32) -> i8 {
    round_sat_i8(acc as f32 * mult)
}

/// Per-output-channel requantization of a row-major m×n accumulator.
fn requant_channels(acc: &[i32], m: usize, n: usize, mults: &[f32]) -> Vec<i8> {
    debug_assert_eq!(acc.len(), m * n);
    debug_assert_eq!(mults.len(), n);
    let mut out = vec![0i8; m * n];
    for i in 0..m {
        for c in 0..n {
            out[i * n + c] = requant(acc[i * n + c], mults[c]);
        }
    }
    out
}

/// Saturating i8 residual add, in place.
fn residual_add(x: &mut [i8], delta: &[i8]) {
    debug_assert_eq!(x.len(), delta.len());
    for (a, &b) in x.iter_mut().zip(delta) {
        *a = a.saturating_add(b);
    }
}

/// One forward pass over `tokens` occupying absolute positions
/// `start..start + tokens.len()`: embeds, runs every layer's GeMMs
/// through `exec` (appending this step's K/V rows to `kv`), and
/// returns the argmax token of the final position's logits.
///
/// Prefill and decode are the *same* function — a decode step is a
/// one-token call — which is what makes the decode-equals-recompute
/// parity structural rather than aspirational.
pub(crate) fn forward(
    model: &Model,
    exec: &mut dyn GemmExec,
    kv: &mut KvCache,
    start: usize,
    tokens: &[u32],
) -> Result<u32, InferError> {
    if tokens.is_empty() {
        return Err(InferError::EmptyPrompt);
    }
    for &t in tokens {
        if t as usize >= model.vocab() {
            return Err(InferError::TokenOutOfRange { token: t, vocab: model.vocab() });
        }
    }
    let cfg = model.config();
    let (d, heads, dh) = (cfg.hidden, cfg.heads, model.head_dim());
    let m = tokens.len();
    kv.ensure_room(m)?;

    let mut x: Vec<i8> = Vec::with_capacity(m * d);
    for (i, &t) in tokens.iter().enumerate() {
        x.extend_from_slice(&model.embed_row(t, start + i));
    }

    for l in 0..cfg.layers {
        let ids = model.layer(l);
        let xa: Arc<[i8]> = x.as_slice().into();
        let proj = exec.run(vec![
            InferGemm { m, n: d, k: d, a: xa.clone(), b: BOperand::Weight(ids.wq) },
            InferGemm { m, n: d, k: d, a: xa.clone(), b: BOperand::Weight(ids.wk) },
            InferGemm { m, n: d, k: d, a: xa, b: BOperand::Weight(ids.wv) },
        ])?;
        let q_act = requant_channels(&proj[0], m, d, &model.weight(ids.wq).mults);
        let k_act = requant_channels(&proj[1], m, d, &model.weight(ids.wk).mults);
        let v_act = requant_channels(&proj[2], m, d, &model.weight(ids.wv).mults);
        for i in 0..m {
            kv.push(l, &k_act[i * d..(i + 1) * d], &v_act[i * d..(i + 1) * d]);
        }
        let t_total = kv.layer_len(l);
        let base = kv.base();

        // per-head attention scores: (m × dₕ) · (dₕ × t)
        let scores = exec.run(
            (0..heads)
                .map(|h| InferGemm {
                    m,
                    n: t_total,
                    k: dh,
                    a: head_block(&q_act, d, h, dh),
                    b: BOperand::Dense(kv.k_head_t(l, h, dh)),
                })
                .collect(),
        )?;

        // the "softmax" stand-in: causal mask + static-scale requant,
        // no row-max subtraction — row-local, so prefill row i and the
        // decode step at position start+i compute identical probs
        let score_mult = model.score_mult();
        let probs: Vec<Arc<[i8]>> = scores
            .iter()
            .map(|acc| {
                arc_filled(m * t_total, |p| {
                    for i in 0..m {
                        let pos = start + i;
                        for j in 0..t_total {
                            if base + j <= pos {
                                p[i * t_total + j] = requant(acc[i * t_total + j], score_mult);
                            }
                        }
                    }
                })
            })
            .collect();

        // per-head context: (m × t) · (t × dₕ)
        let ctxs = exec.run(
            probs
                .into_iter()
                .enumerate()
                .map(|(h, a)| InferGemm {
                    m,
                    n: dh,
                    k: t_total,
                    a,
                    b: BOperand::Dense(kv.v_head(l, h, dh)),
                })
                .collect(),
        )?;
        let mut ctx = vec![0i8; m * d];
        for (h, acc) in ctxs.iter().enumerate() {
            for i in 0..m {
                let mult = model.ctx_mult(start + i);
                for c in 0..dh {
                    ctx[i * d + h * dh + c] = requant(acc[i * dh + c], mult);
                }
            }
        }

        let out = exec.run(vec![InferGemm {
            m,
            n: d,
            k: d,
            a: ctx.into(),
            b: BOperand::Weight(ids.wo),
        }])?;
        residual_add(&mut x, &requant_channels(&out[0], m, d, &model.weight(ids.wo).mults));

        let ff = cfg.ff_dim;
        let up = exec.run(vec![InferGemm {
            m,
            n: ff,
            k: d,
            a: x.as_slice().into(),
            b: BOperand::Weight(ids.wup),
        }])?;
        let mut u = requant_channels(&up[0], m, ff, &model.weight(ids.wup).mults);
        for v in &mut u {
            *v = (*v).max(0); // ReLU
        }
        let down = exec.run(vec![InferGemm {
            m,
            n: d,
            k: ff,
            a: u.into(),
            b: BOperand::Weight(ids.wdown),
        }])?;
        residual_add(&mut x, &requant_channels(&down[0], m, d, &model.weight(ids.wdown).mults));
    }

    // unembed only the final position: the one GEMV that turns the
    // hidden state into logits
    let last: Arc<[i8]> = x[(m - 1) * d..].into();
    let logits = exec.run(vec![InferGemm {
        m: 1,
        n: model.vocab(),
        k: d,
        a: last,
        b: BOperand::Weight(model.unembed_id()),
    }])?;
    Ok(argmax(&logits[0]))
}

/// Token selection: argmax over the logits, ties to the lowest index.
fn argmax(logits: &[i32]) -> u32 {
    let mut best = 0usize;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvPolicy;
    use camp_core::CampEngine;
    use camp_models::TransformerConfig;

    fn tiny() -> TransformerConfig {
        TransformerConfig { hidden: 8, ff_dim: 16, heads: 2, layers: 2, seq_len: 8 }
    }

    #[test]
    fn argmax_ties_to_lowest_index() {
        assert_eq!(argmax(&[1, 5, 5, 2]), 1);
        assert_eq!(argmax(&[-3]), 0);
    }

    #[test]
    fn round_sat_i8_is_round_then_clamp_on_every_kind_of_f32() {
        let old = |y: f32| y.round().clamp(-127.0, 127.0) as i8;
        let check = |y: f32| assert_eq!(round_sat_i8(y), old(y), "{y:e} ({:#010x})", y.to_bits());
        // a prime stride visits every exponent and both signs, NaN
        // payloads and subnormals included (all 2^32 patterns were
        // checked once, exhaustively, when the function was written)
        for bits in (0..=u32::MAX).step_by(1021) {
            check(f32::from_bits(bits));
        }
        // every rounding boundary the clamp leaves reachable, and the
        // first ones beyond it, two ulps to either side
        for k in -130..=130 {
            for half in [-0.5f32, 0.5] {
                let tie = (k as f32 + half).to_bits();
                for bits in tie - 2..=tie + 2 {
                    check(f32::from_bits(bits));
                }
            }
        }
        for y in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0] {
            check(y);
        }
    }

    #[test]
    fn engine_forward_cross_checks_against_reference_per_layer() {
        let model = Model::new(tiny(), 32, 11);
        let mut engine = CampEngine::new();
        let handles = model.register(&mut engine);
        let mut kv = KvCache::new(tiny().layers, tiny().hidden, 8, KvPolicy::Reject);
        let mut exec = CheckedExec::new(&model, BackendExec::new(&mut engine, &handles));
        let first = forward(&model, &mut exec, &mut kv, 0, &[3, 1, 4]).unwrap();
        assert!((first as usize) < model.vocab(), "served token must be in vocabulary");
        // decode a few steps; every GeMM of every layer is compared
        // to gemm_i32_ref inside the executor
        let mut tok = first;
        for step in 0..3 {
            tok = forward(&model, &mut exec, &mut kv, 3 + step, &[tok]).unwrap();
        }
        assert_eq!(kv.len(), 6);
    }

    #[test]
    fn token_stream_is_not_degenerate() {
        let model = Model::new(tiny(), 32, 5);
        let mut kv = KvCache::new(tiny().layers, tiny().hidden, 16, KvPolicy::Reject);
        let mut exec = RefExec::new(&model);
        let mut tok = forward(&model, &mut exec, &mut kv, 0, &[7, 2]).unwrap();
        let mut stream = vec![tok];
        for step in 0..8 {
            tok = forward(&model, &mut exec, &mut kv, 2 + step, &[tok]).unwrap();
            stream.push(tok);
        }
        let distinct: std::collections::BTreeSet<u32> = stream.iter().copied().collect();
        assert!(distinct.len() > 1, "requant scales collapsed the signal: {stream:?}");
    }

    #[test]
    fn rejects_bad_tokens_and_empty_prompts() {
        let model = Model::new(tiny(), 32, 5);
        let mut kv = KvCache::new(tiny().layers, tiny().hidden, 8, KvPolicy::Reject);
        let mut exec = RefExec::new(&model);
        assert!(matches!(
            forward(&model, &mut exec, &mut kv, 0, &[]),
            Err(InferError::EmptyPrompt)
        ));
        assert!(matches!(
            forward(&model, &mut exec, &mut kv, 0, &[99]),
            Err(InferError::TokenOutOfRange { token: 99, vocab: 32 })
        ));
        assert!(kv.is_empty(), "failed validation must not touch the cache");
    }
}
