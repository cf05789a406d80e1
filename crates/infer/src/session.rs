//! The serving facade: one [`InferSession`] per user, one dispatcher
//! tenant each, prefill at [`Priority::Prefill`] and decode steps at
//! [`Priority::Decode`] — so the dispatcher's turn order interleaves
//! many sessions' tokens over one engine without any cooperation
//! between them.

use std::fmt;
use std::sync::Arc;

use camp_core::backend::CampBackend;
use camp_core::dispatch::{DispatchSession, Dispatcher, Priority};
use camp_core::RequestError;

use crate::forward::{forward, DispatchExec, GemmExec};
use crate::kv::{KvCache, KvPolicy};
use crate::model::{Model, ModelHandles};

/// Everything that can go wrong while serving a token.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InferError {
    /// A GeMM was rejected or failed inside the backend/dispatcher.
    Request(RequestError),
    /// The KV cache is full and the policy is [`KvPolicy::Reject`],
    /// or one step is wider than the whole capacity.
    KvFull {
        /// Rows per layer the cache can hold.
        capacity: usize,
    },
    /// A prefill was called with no tokens, or a decode step before
    /// any prefill.
    EmptyPrompt,
    /// A prompt token outside the model's vocabulary.
    TokenOutOfRange {
        /// The offending token.
        token: u32,
        /// The model's vocabulary size.
        vocab: usize,
    },
    /// A [`CheckedExec`](crate::CheckedExec) caught a GeMM output that
    /// differs from `gemm_i32_ref`.
    CrossCheck {
        /// Index of the mismatching GeMM within its batch.
        op: usize,
    },
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::Request(e) => write!(f, "gemm request failed: {e}"),
            InferError::KvFull { capacity } => {
                write!(f, "KV cache full ({capacity} rows per layer) and policy is Reject")
            }
            InferError::EmptyPrompt => write!(f, "no tokens: prefill a prompt first"),
            InferError::TokenOutOfRange { token, vocab } => {
                write!(f, "token {token} outside vocabulary of {vocab}")
            }
            InferError::CrossCheck { op } => {
                write!(f, "GeMM {op} in batch diverged from gemm_i32_ref")
            }
        }
    }
}

impl std::error::Error for InferError {}

impl From<RequestError> for InferError {
    fn from(e: RequestError) -> Self {
        InferError::Request(e)
    }
}

/// Receipt of a completed prefill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferTicket {
    /// How many prompt tokens were consumed.
    pub prompt_len: usize,
    /// The first served token (argmax after the prompt's last
    /// position) — the seed for [`InferSession::decode_step`].
    pub first: u32,
}

/// Backend-agnostic decode state: the KV cache plus the position and
/// last-token cursors. [`InferSession`] wraps one of these around a
/// dispatcher tenant; tests and the simulator drive it with any
/// [`GemmExec`] directly.
#[derive(Debug, Clone)]
pub struct InferContext {
    kv: KvCache,
    pos: usize,
    last: Option<u32>,
}

impl InferContext {
    /// Fresh state over `kv`.
    pub fn new(kv: KvCache) -> Self {
        InferContext { kv, pos: 0, last: None }
    }

    /// Fresh state with the model's default cache: capacity `seq_len`,
    /// policy [`KvPolicy::Reject`]. A caller that wants another bound
    /// builds the [`KvCache`] and calls [`InferContext::new`].
    pub fn for_model(model: &Model) -> Self {
        let cfg = model.config();
        InferContext::new(KvCache::new(cfg.layers, cfg.hidden, cfg.seq_len, KvPolicy::Reject))
    }

    /// Next absolute position to be served.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The most recent token (prompt tail or last served).
    pub fn last_token(&self) -> Option<u32> {
        self.last
    }

    /// The cache (for capacity/occupancy introspection).
    pub fn kv(&self) -> &KvCache {
        &self.kv
    }

    /// Run a prefill over `prompt` with `exec`. Appends to any
    /// existing state, so multi-turn prompting works; positions keep
    /// counting up.
    pub fn prefill_with(
        &mut self,
        model: &Model,
        exec: &mut dyn GemmExec,
        prompt: &[u32],
    ) -> Result<InferTicket, InferError> {
        let first = forward(model, exec, &mut self.kv, self.pos, prompt)?;
        self.pos += prompt.len();
        self.last = Some(first);
        Ok(InferTicket { prompt_len: prompt.len(), first })
    }

    /// Serve one more token with `exec`: a single KV-cached m = 1
    /// forward over the previous token.
    pub fn decode_with(
        &mut self,
        model: &Model,
        exec: &mut dyn GemmExec,
    ) -> Result<u32, InferError> {
        let last = self.last.ok_or(InferError::EmptyPrompt)?;
        let tok = forward(model, exec, &mut self.kv, self.pos, &[last])?;
        self.pos += 1;
        self.last = Some(tok);
        Ok(tok)
    }
}

/// One user's inference session: a dispatcher tenant plus the model,
/// its registered handles, and the per-session KV cache.
///
/// Sessions are independent — create as many as you need, from any
/// thread; the dispatcher's turn order interleaves their prefill and
/// decode batches over the shared engine by priority.
#[derive(Debug)]
pub struct InferSession<B: CampBackend + Send + 'static> {
    model: Arc<Model>,
    handles: Arc<ModelHandles>,
    session: DispatchSession<B>,
    ctx: InferContext,
}

impl<B: CampBackend + Send + 'static> InferSession<B> {
    /// A session over `dispatcher` with the default KV cache (see
    /// [`InferContext::for_model`]). `handles` must come from
    /// registering `model` on the backend this dispatcher wraps,
    /// *before* the dispatcher was created.
    pub fn new(dispatcher: &Dispatcher<B>, model: Arc<Model>, handles: Arc<ModelHandles>) -> Self {
        let ctx = InferContext::for_model(&model);
        InferSession { model, handles, session: dispatcher.session(), ctx }
    }

    /// A session with an explicit KV cache (capacity/policy control).
    pub fn with_kv(
        dispatcher: &Dispatcher<B>,
        model: Arc<Model>,
        handles: Arc<ModelHandles>,
        kv: KvCache,
    ) -> Self {
        InferSession { model, handles, session: dispatcher.session(), ctx: InferContext::new(kv) }
    }

    /// The model this session serves.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Backend-agnostic decode state.
    pub fn context(&self) -> &InferContext {
        &self.ctx
    }

    /// Consume `prompt` (at [`Priority::Prefill`]) and return the
    /// ticket holding the first served token.
    pub fn prefill(&mut self, prompt: &[u32]) -> Result<InferTicket, InferError> {
        let mut exec = DispatchExec::new(&mut self.session, &self.handles, Priority::Prefill);
        self.ctx.prefill_with(&self.model, &mut exec, prompt)
    }

    /// Serve the next token: one GEMV-shaped (m = 1) KV-cached forward
    /// pass, every batch tagged [`Priority::Decode`] so the scheduler
    /// favors it over competing prefills.
    pub fn decode_step(&mut self) -> Result<u32, InferError> {
        let mut exec = DispatchExec::new(&mut self.session, &self.handles, Priority::Decode);
        self.ctx.decode_with(&self.model, &mut exec)
    }

    /// Serve `n` tokens (stops early only on error).
    pub fn generate(&mut self, n: usize) -> Result<Vec<u32>, InferError> {
        (0..n).map(|_| self.decode_step()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::{InferGemm, RefExec};
    use camp_core::backend::CampBackend;
    use camp_core::CampEngine;
    use camp_models::TransformerConfig;

    fn tiny() -> TransformerConfig {
        TransformerConfig { hidden: 8, ff_dim: 16, heads: 2, layers: 2, seq_len: 16 }
    }

    #[test]
    fn session_streams_tokens_through_the_dispatcher() {
        let model = Arc::new(Model::new(tiny(), 32, 3));
        let mut engine = CampEngine::new();
        let handles = Arc::new(model.register(&mut engine));
        let dispatcher = engine.dispatch();
        let mut s = InferSession::new(&dispatcher, Arc::clone(&model), Arc::clone(&handles));
        let ticket = s.prefill(&[1, 2, 3]).unwrap();
        assert_eq!(ticket.prompt_len, 3);
        let toks = s.generate(4).unwrap();
        assert_eq!(toks.len(), 4);
        assert_eq!(s.context().position(), 7);
        // the dispatcher path must agree with the pure reference
        let mut ctx = InferContext::for_model(&model);
        assert_eq!(ctx.kv().capacity(), model.config().seq_len, "and nothing else sets it");
        let mut exec = RefExec::new(&model);
        let t = ctx.prefill_with(&model, &mut exec, &[1, 2, 3]).unwrap();
        assert_eq!(t, ticket);
        for expect in &toks {
            assert_eq!(ctx.decode_with(&model, &mut exec).unwrap(), *expect);
        }
        // one tenant is never ordered against anybody: no batch waited
        // for the turn
        let stats = dispatcher.stats();
        assert!(stats.executed > 0);
        assert_eq!((stats.waited, stats.stolen), (0, 0));
        assert_eq!((stats.staging_live, stats.ready_now), (0, 0));
    }

    #[test]
    fn concurrent_sessions_share_one_engine() {
        let model = Arc::new(Model::new(tiny(), 32, 9));
        let mut engine = CampEngine::new();
        let handles = Arc::new(model.register(&mut engine));
        let dispatcher = engine.dispatch();
        let mut a = InferSession::new(&dispatcher, Arc::clone(&model), Arc::clone(&handles));
        let mut b = InferSession::new(&dispatcher, Arc::clone(&model), Arc::clone(&handles));
        a.prefill(&[4, 5]).unwrap();
        b.prefill(&[6, 7, 8]).unwrap();
        // interleave decode steps; each session's stream must match a
        // solo run of the same prompt on the reference executor
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        for _ in 0..3 {
            got_a.push(a.decode_step().unwrap());
            got_b.push(b.decode_step().unwrap());
        }
        for (prompt, got) in [(vec![4u32, 5], got_a), (vec![6, 7, 8], got_b)] {
            let mut ctx = InferContext::for_model(&model);
            let mut exec = RefExec::new(&model);
            ctx.prefill_with(&model, &mut exec, &prompt).unwrap();
            for expect in &got {
                assert_eq!(ctx.decode_with(&model, &mut exec).unwrap(), *expect);
            }
        }
        // two tenants taking turns on one thread never overlap either
        let stats = dispatcher.stats();
        assert_eq!((stats.waited, stats.staging_live), (0, 0));
    }

    #[test]
    fn concurrent_tenants_on_two_threads_match_the_reference() {
        let model = Arc::new(Model::new(tiny(), 32, 9));
        let mut engine = CampEngine::new();
        let handles = Arc::new(model.register(&mut engine));
        let dispatcher = engine.dispatch();
        let prompts = [vec![4u32, 5], vec![6, 7, 8]];
        // each batch waits for the turn or not depending on whether the
        // other tenant held it at that instant; the streams must not
        // depend on which
        let streams: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let tenants: Vec<_> = prompts
                .iter()
                .map(|prompt| {
                    let mut s =
                        InferSession::new(&dispatcher, Arc::clone(&model), Arc::clone(&handles));
                    scope.spawn(move || {
                        s.prefill(prompt).unwrap();
                        s.generate(6).unwrap()
                    })
                })
                .collect();
            tenants.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for (prompt, got) in prompts.iter().zip(&streams) {
            let mut ctx = InferContext::for_model(&model);
            let mut exec = RefExec::new(&model);
            ctx.prefill_with(&model, &mut exec, prompt).unwrap();
            for expect in got {
                assert_eq!(ctx.decode_with(&model, &mut exec).unwrap(), *expect);
            }
        }
        let stats = dispatcher.stats();
        assert_eq!((stats.executed, stats.staging_live), (stats.submitted, 0));
        assert!(stats.waited <= stats.executed);
    }

    #[test]
    fn decode_before_prefill_is_an_error() {
        let model = Model::new(tiny(), 32, 3);
        let mut ctx = InferContext::for_model(&model);
        let mut exec = RefExec::new(&model);
        assert!(matches!(ctx.decode_with(&model, &mut exec), Err(InferError::EmptyPrompt)));
    }

    #[test]
    fn kv_capacity_bounds_the_stream() {
        let model = Model::new(tiny(), 32, 3);
        let cfg = model.config();
        let kv = KvCache::new(cfg.layers, cfg.hidden, 4, KvPolicy::Reject);
        let mut ctx = InferContext::new(kv);
        let mut exec = RefExec::new(&model);
        ctx.prefill_with(&model, &mut exec, &[1, 2, 3]).unwrap();
        ctx.decode_with(&model, &mut exec).unwrap();
        assert_eq!(ctx.decode_with(&model, &mut exec), Err(InferError::KvFull { capacity: 4 }));
        // a sliding window keeps serving past the same capacity
        let kv = KvCache::new(cfg.layers, cfg.hidden, 4, KvPolicy::Window);
        let mut ctx = InferContext::new(kv);
        ctx.prefill_with(&model, &mut exec, &[1, 2, 3]).unwrap();
        for _ in 0..6 {
            ctx.decode_with(&model, &mut exec).unwrap();
        }
        assert_eq!(ctx.kv().len(), 4);
        assert_eq!(ctx.kv().base(), 5);
    }

    /// `RefExec`, except that call number `fail_at` (counted from 1
    /// over the executor's life) is refused once with `Shed`.
    struct FailOnce<'m> {
        inner: RefExec<'m>,
        calls: usize,
        fail_at: usize,
    }

    impl GemmExec for FailOnce<'_> {
        fn run(&mut self, batch: Vec<InferGemm>) -> Result<Vec<Vec<i32>>, InferError> {
            self.calls += 1;
            if self.calls == self.fail_at {
                return Err(InferError::Request(RequestError::Shed));
            }
            self.inner.run(batch)
        }
    }

    #[test]
    fn a_step_refused_at_any_call_can_be_resubmitted() {
        // `Shed` and `Saturated` mean "back off and resubmit": whichever
        // of a step's calls is refused, the retried step must continue
        // the uninterrupted stream from a cache whose rows end where the
        // position says — with a window evicting at capacity, too
        let cfg = TransformerConfig { hidden: 8, ff_dim: 16, heads: 2, layers: 4, seq_len: 32 };
        let prompt = [5, 9, 2, 30, 17, 1, 8, 11, 4, 23, 6, 19, 3];
        // refuse call k of the prefill, or (past 25) call k − 25 of the
        // first decode step
        check_resubmission(cfg, cfg.seq_len, KvPolicy::Reject, &prompt, 3, 2);
        // a capacity-6 window: the last three decode steps each evict
        // before they run, and any of their calls may be refused
        let cfg = TransformerConfig { layers: 2, ..tiny() };
        check_resubmission(cfg, 6, KvPolicy::Window, &[5, 9, 2], 6, 7);
    }

    /// Serve `prompt` plus `decodes` tokens once uninterrupted, then once
    /// per call of the first `steps` steps with that call refused.
    fn check_resubmission(
        cfg: TransformerConfig,
        capacity: usize,
        policy: KvPolicy,
        prompt: &[u32],
        decodes: usize,
        steps: usize,
    ) {
        let model = Model::new(cfg, 32, 3);
        let calls_per_step = 6 * cfg.layers + 1;
        let context = || InferContext::new(KvCache::new(cfg.layers, cfg.hidden, capacity, policy));

        let mut exec = FailOnce { inner: RefExec::new(&model), calls: 0, fail_at: 0 };
        let mut ctx = context();
        let mut expect = vec![ctx.prefill_with(&model, &mut exec, prompt).unwrap().first];
        for _ in 0..decodes {
            expect.push(ctx.decode_with(&model, &mut exec).unwrap());
        }
        assert_eq!(exec.calls, (1 + decodes) * calls_per_step, "calls per step");

        for fail_at in 1..=steps * calls_per_step {
            let mut exec = FailOnce { inner: RefExec::new(&model), calls: 0, fail_at };
            let mut ctx = context();
            let (mut got, mut refused) = (Vec::new(), 0);
            while got.len() < expect.len() {
                let before = (ctx.position(), ctx.last_token());
                let step = match got.len() {
                    0 => ctx.prefill_with(&model, &mut exec, prompt).map(|t| t.first),
                    _ => ctx.decode_with(&model, &mut exec),
                };
                match step {
                    Ok(tok) => got.push(tok),
                    Err(e) => {
                        assert_eq!(e, InferError::Request(RequestError::Shed));
                        refused += 1;
                        assert_eq!((ctx.position(), ctx.last_token()), before, "call {fail_at}");
                    }
                }
                let rows_end = ctx.kv().base() + ctx.kv().len();
                assert_eq!(rows_end, ctx.position(), "call {fail_at}: cache vs position");
            }
            assert_eq!(refused, 1, "call {fail_at} exists");
            assert_eq!(got, expect, "call {fail_at} refused once, then resubmitted");
        }
    }
}
