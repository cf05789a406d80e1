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
//! every token, bit for bit. The requantization sweeps are
//! [`HostKernel`] entries, run at the host's vector width and
//! bit-identical on every tier.

use std::sync::Arc;

use camp_core::backend::CampBackend;
use camp_core::dispatch::{DispatchSession, Priority};
use camp_core::GemmRequest;
use camp_gemm::host::{HostKernel, Scale};
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

/// Rows of the context requant whose per-row multipliers one sweep
/// takes: a stack block, so the multipliers of a step cost no
/// allocation, and every step the benchmark model serves is one block.
const CTX_ROWS: usize = 256;

/// Run one batch; the executor must answer every GeMM of it (the
/// sweeps zip over the results, and a short zip would leave zeros).
fn run_batch(exec: &mut dyn GemmExec, batch: Vec<InferGemm>) -> Result<Vec<Vec<i32>>, InferError> {
    let sent = batch.len();
    let out = exec.run(batch)?;
    assert_eq!(out.len(), sent, "executor answered a different number of GeMMs than it was sent");
    Ok(out)
}

/// Run a batch of one GeMM and return its accumulator.
fn run_one(exec: &mut dyn GemmExec, gemm: InferGemm) -> Result<Vec<i32>, InferError> {
    Ok(run_batch(exec, vec![gemm])?.pop().expect("run_batch checked there is one result"))
}

/// One forward pass over `tokens` occupying absolute positions
/// `start..start + tokens.len()`: embeds, runs every layer's GeMMs
/// through `exec` (appending this step's K/V rows to `kv`), and
/// returns the argmax token of the final position's logits.
///
/// Prefill and decode are the *same* function — a decode step is a
/// one-token call — which is what makes the decode-equals-recompute
/// parity structural rather than aspirational.
///
/// The last layer computes K and V for every row, because the cache
/// keeps them, and carries only the final row through everything else:
/// Q, the per-head scores and context, the out-projection, up and down
/// are 1-row GeMMs there, and so are the logits. Every pass is
/// row-local (GeMM rows, requant, the causal prefix and `ctx_mult` at
/// the row's absolute position, the saturating residual, the ReLU), so
/// the token and every cached K/V byte are what carrying all rows would
/// give. A one-token step carries its one row in every layer.
///
/// A step that fails keeps every row of `kv` it found, except the
/// oldest ones a [`KvPolicy::Window`](crate::KvPolicy::Window) cache
/// evicted to make room, which the resubmitted step would evict anyway:
/// the rows the layers before the failing call had appended are
/// truncated away, so the caller may resubmit the same step.
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
    kv.ensure_room(tokens.len())?;
    let held = kv.len();
    let served = run_layers(model, exec, kv, start, tokens);
    if served.is_err() {
        for l in 0..model.config().layers {
            kv.truncate_rows(l, held);
        }
    }
    served
}

/// The body of [`forward`] once the step is validated and `kv` has
/// room: every `?` in here is an executor failure `forward` cleans up
/// after.
fn run_layers(
    model: &Model,
    exec: &mut dyn GemmExec,
    kv: &mut KvCache,
    start: usize,
    tokens: &[u32],
) -> Result<u32, InferError> {
    let cfg = model.config();
    let (d, ff, heads, dh) = (cfg.hidden, cfg.ff_dim, cfg.heads, model.head_dim());
    let m = tokens.len();
    let md = m * d;

    // the glue's sweeps run at the host's vector width
    let kern = HostKernel::detect();

    let mut x = vec![0i8; md];
    for (i, (&t, row)) in tokens.iter().zip(x.chunks_exact_mut(d)).enumerate() {
        model.embed_into(t, start + i, row);
    }
    // Q, K and V activations of the current layer, one m×d block each
    let mut qkv = vec![0i8; 3 * md];

    for l in 0..cfg.layers {
        // Rows this layer carries past its K/V: every row but in the
        // last layer, whose only reader is the final row's logits. The
        // cache still needs that layer's K/V for every row, and every
        // pass after them is row-local, so dropping the other rows
        // there changes no byte the step returns or caches.
        let rows = if l + 1 == cfg.layers { 1 } else { m };
        // step index of the first carried row: row i of this layer's
        // Q, scores and context sits at absolute position
        // `start + first + i`
        let first = m - rows;
        let ids = model.layer(l);
        let xa: Arc<[i8]> = x.as_slice().into();
        // Q reads the carried rows: K/V's operand itself unless the
        // layer carries fewer
        let mut xq = if rows == m { Arc::clone(&xa) } else { x[first * d..].into() };
        x.drain(..first * d);
        let qkv_ids = [ids.wq, ids.wk, ids.wv];
        let qkv_rows = [rows, m, m];
        let proj = run_batch(
            exec,
            qkv_ids
                .iter()
                .zip(qkv_rows)
                .zip([Arc::clone(&xq), Arc::clone(&xa), xa])
                .map(|((&id, m), a)| InferGemm { m, n: d, k: d, a, b: BOperand::Weight(id) })
                .collect(),
        )?;
        let outs = proj.into_iter().zip(qkv_ids).zip(qkv_rows).zip(qkv.chunks_exact_mut(md));
        for (((acc, id), r), dst) in outs {
            let scale = Scale::PerChannel(&model.weight(id).mults);
            kern.requant_into(&acc, scale, i8::MIN, &mut dst[..r * d]);
        }
        let (q_act, kv_act) = qkv.split_at(md);
        let (k_act, v_act) = kv_act.split_at(md);
        kv.push(kern, l, k_act, v_act);
        let t_total = kv.layer_len(l);
        let base = kv.base();

        // per-head attention scores: (rows × dₕ) · (dₕ × t)
        let scores = run_batch(
            exec,
            (0..heads)
                .map(|h| InferGemm {
                    m: rows,
                    n: t_total,
                    k: dh,
                    a: head_block(&q_act[..rows * d], d, h, dh),
                    b: BOperand::Dense(kv.k_head_t(l, h, dh)),
                })
                .collect(),
        )?;

        // the "softmax" stand-in: causal mask + static-scale requant,
        // no row-max subtraction — row-local, so prefill row i and the
        // decode step at position start+i compute identical probs. Row
        // i sees cached rows up to its own position: a prefix of the
        // row, the masked rest keeps the zero `arc_filled` gave it.
        let score_mult = Scale::Scalar(model.score_mult());
        let probs = scores.into_iter().map(|acc| {
            assert_eq!(acc.len(), rows * t_total, "scores: accumulator is not rows x t");
            arc_filled(rows * t_total, |p| {
                let lines = acc.chunks_exact(t_total).zip(p.chunks_exact_mut(t_total));
                for (i, (acc, p)) in lines.enumerate() {
                    let live = (start + first + i + 1 - base).min(t_total);
                    kern.requant_into(&acc[..live], score_mult, i8::MIN, &mut p[..live]);
                }
            })
        });

        // per-head context: (rows × t) · (t × dₕ)
        let ctxs = run_batch(
            exec,
            probs
                .enumerate()
                .map(|(h, a)| InferGemm {
                    m: rows,
                    n: dh,
                    k: t_total,
                    a,
                    b: BOperand::Dense(kv.v_head(l, h, dh)),
                })
                .collect(),
        )?;
        // each head's rows×dₕ block lands in its columns of the rows×d
        // operand the out-projection reads, normalized per row: one
        // sweep per head for every `CTX_ROWS` rows, whose multipliers
        // sit on the stack; the contexts are freed as soon as it is done
        for acc in &ctxs {
            assert_eq!(acc.len(), rows * dh, "context: accumulator is not rows x dh");
        }
        let ctx = arc_filled(rows * d, move |ctx| {
            let mut mults = [0f32; CTX_ROWS];
            for (b, ctx) in ctx.chunks_mut(CTX_ROWS * d).enumerate() {
                let (r0, n) = (b * CTX_ROWS, ctx.len() / d);
                for (i, mult) in mults[..n].iter_mut().enumerate() {
                    *mult = model.ctx_mult(start + first + r0 + i);
                }
                let scale = Scale::PerRow { mults: &mults[..n], stride: d };
                for (h, acc) in ctxs.iter().enumerate() {
                    let acc = &acc[r0 * dh..][..n * dh];
                    kern.requant_into(acc, scale, i8::MIN, &mut ctx[h * dh..]);
                }
            }
        });

        let out = InferGemm { m: rows, n: d, k: d, a: ctx, b: BOperand::Weight(ids.wo) };
        kern.requant_add_sat(&run_one(exec, out)?, &model.weight(ids.wo).mults, &mut x);

        // the up-projection reads x through Q's operand buffer: the
        // same rows × d bytes, which the executor let go of when it
        // answered
        match Arc::get_mut(&mut xq) {
            Some(buf) => buf.copy_from_slice(&x),
            None => xq = x.as_slice().into(),
        }
        let up = InferGemm { m: rows, n: ff, k: d, a: xq, b: BOperand::Weight(ids.wup) };
        let u = {
            let acc = run_one(exec, up)?;
            // ReLU is the sweep's floor
            let mults = Scale::PerChannel(&model.weight(ids.wup).mults);
            arc_filled(rows * ff, |u| kern.requant_into(&acc, mults, 0, u))
        };
        let down = InferGemm { m: rows, n: d, k: ff, a: u, b: BOperand::Weight(ids.wdown) };
        kern.requant_add_sat(&run_one(exec, down)?, &model.weight(ids.wdown).mults, &mut x);
    }

    // unembed only the final position: the one GEMV that turns the
    // hidden state into logits
    let logits = InferGemm {
        m: 1,
        n: model.vocab(),
        k: d,
        a: x[x.len() - d..].into(),
        b: BOperand::Weight(model.unembed_id()),
    };
    Ok(argmax(&run_one(exec, logits)?))
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
    use camp_core::{CampEngine, SimBackend};
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

    /// Prompt lengths on both sides of the skinny-m bound (8) and of 32,
    /// and the benchmark's 192-token prefill, which crosses K's
    /// 64-position block seams.
    const PROMPT_LENS: [usize; 9] = [1, 2, 7, 8, 9, 31, 32, 33, 192];

    /// Every layer's and head's Kᵀ then V view of `kv`.
    fn kv_views(kv: &KvCache, cfg: TransformerConfig, dh: usize) -> Vec<Arc<[i8]>> {
        (0..cfg.layers)
            .flat_map(|l| {
                (0..cfg.heads).flat_map(move |h| [kv.k_head_t(l, h, dh), kv.v_head(l, h, dh)])
            })
            .collect()
    }

    /// A prompt of `len` tokens, served as one prefill and one token at
    /// a time: the same first token and byte-identical K/V in every
    /// layer, though the prefill carries only its final row past the
    /// last layer's K/V.
    fn prefill_matches_token_by_token(
        model: &Model,
        exec: &mut dyn GemmExec,
        len: usize,
        what: &str,
    ) {
        let cfg = model.config();
        let vocab = model.vocab() as u32;
        let prompt: Vec<u32> = (0..len as u32).map(|i| (i * 37 + 11) % vocab).collect();
        let fresh = || KvCache::new(cfg.layers, cfg.hidden, len, KvPolicy::Reject);
        let mut whole = fresh();
        let first = forward(model, exec, &mut whole, 0, &prompt).unwrap();
        let mut stepped = fresh();
        let mut last = None;
        for (pos, &t) in prompt.iter().enumerate() {
            last = Some(forward(model, exec, &mut stepped, pos, &[t]).unwrap());
        }
        assert_eq!(Some(first), last, "{what}: first token of a {len}-token prompt");
        assert_eq!(whole.len(), len);
        let dh = model.head_dim();
        assert!(
            kv_views(&whole, cfg, dh) == kv_views(&stepped, cfg, dh),
            "{what}: K/V of a {len}-token prompt"
        );
    }

    /// Three layers, so a prefill has a first, a middle and a last
    /// layer; room for the longest prompt.
    fn parity_model() -> Model {
        let cfg = TransformerConfig { hidden: 32, ff_dim: 64, heads: 4, layers: 3, seq_len: 192 };
        Model::new(cfg, 48, 23)
    }

    #[test]
    fn a_prefill_serves_token_by_token_tokens_and_kv_on_the_reference() {
        let model = parity_model();
        for len in PROMPT_LENS {
            prefill_matches_token_by_token(&model, &mut RefExec::new(&model), len, "RefExec");
        }
    }

    #[test]
    fn a_prefill_serves_token_by_token_tokens_and_kv_on_every_host_tier() {
        let model = parity_model();
        for kernel in HostKernel::available() {
            let mut engine = CampEngine::with_threads_and_kernel(1, kernel);
            let handles = model.register(&mut engine);
            let mut exec = BackendExec::new(&mut engine, &handles);
            for len in PROMPT_LENS {
                prefill_matches_token_by_token(&model, &mut exec, len, kernel.tier().name());
            }
        }
    }

    #[test]
    fn a_prefill_serves_token_by_token_tokens_and_kv_on_the_simulator() {
        let cfg = TransformerConfig { hidden: 8, ff_dim: 16, heads: 2, layers: 2, seq_len: 192 };
        let model = Model::new(cfg, 24, 31);
        let mut sim = SimBackend::a64fx();
        let handles = model.register(&mut sim);
        let mut exec = BackendExec::new(&mut sim, &handles);
        for len in PROMPT_LENS {
            prefill_matches_token_by_token(&model, &mut exec, len, "SimBackend");
        }
    }

    /// Runs every batch on the reference and keeps it, so no operand
    /// the forward pass sent is ever free again.
    struct Keeper<'m> {
        inner: RefExec<'m>,
        batches: Vec<Vec<InferGemm>>,
    }

    impl GemmExec for Keeper<'_> {
        fn run(&mut self, batch: Vec<InferGemm>) -> Result<Vec<Vec<i32>>, InferError> {
            self.batches.push(batch.clone());
            self.inner.run(batch)
        }
    }

    #[test]
    fn a_prefills_last_layer_carries_one_row_past_its_kv() {
        // the benchmark model's four layers: 25 exec calls per step
        let cfg = TransformerConfig { hidden: 16, ff_dim: 32, heads: 2, layers: 4, seq_len: 64 };
        let (d, ff, dh) = (16, 32, 8);
        let model = Model::new(cfg, 40, 3);
        let m = 20;
        let prompt: Vec<u32> = (0..m as u32).map(|i| i * 7 % 40).collect();
        let mut tokens = Vec::new();
        let mut keeper = Keeper { inner: RefExec::new(&model), batches: Vec::new() };
        for exec in [&mut keeper as &mut dyn GemmExec, &mut RefExec::new(&model)] {
            let mut kv = KvCache::new(cfg.layers, d, 64, KvPolicy::Reject);
            let first = forward(&model, exec, &mut kv, 0, &prompt).unwrap();
            tokens.push([first, forward(&model, exec, &mut kv, m, &[first]).unwrap()]);
        }
        // the up-projection cannot reuse an operand the executor kept
        assert_eq!(tokens[0], tokens[1], "an executor that keeps its operands");

        // one step's calls, layer by layer, when its first layers carry
        // `m` rows over `t` cached positions
        let step = |m: usize, t: usize| {
            let mut want = Vec::new();
            for l in 0..cfg.layers {
                let r = if l + 1 == cfg.layers { 1 } else { m };
                want.extend([
                    vec![(r, d, d), (m, d, d), (m, d, d)],
                    vec![(r, t, dh); 2],
                    vec![(r, dh, t); 2],
                    vec![(r, d, d)],
                    vec![(r, ff, d)],
                    vec![(r, d, ff)],
                ]);
            }
            want.push(vec![(1, model.vocab(), d)]);
            want
        };
        let calls: Vec<Vec<_>> =
            keeper.batches.iter().map(|b| b.iter().map(|g| (g.m, g.n, g.k)).collect()).collect();
        let (prefill, decode) = calls.split_at(calls.len() / 2);
        assert_eq!(prefill.len(), 25, "exec calls per prefill");
        assert_eq!(prefill, step(m, m), "prefill: K/V at {m} rows, everything else at 1");
        assert_eq!(decode, step(1, m + 1), "decode: every GeMM at 1 row");
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
