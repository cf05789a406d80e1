//! Transformer (LLM) workloads: BERT base/large, GPT-2 large, GPT-3
//! small — the Fig. 14 benchmark set.
//!
//! The paper evaluates "the matrix multiplications in the self-attention
//! and feed-forward layers" (§5.2) without listing dimensions, so the
//! GeMM shapes are derived from the public model configurations:
//!
//! | model | hidden d | FF dim | heads | layers |
//! |---|---|---|---|---|
//! | BERT base   | 768  | 3072 | 12 | 12 |
//! | BERT large  | 1024 | 4096 | 16 | 24 |
//! | GPT-2 large | 1280 | 5120 | 20 | 36 |
//! | GPT-3 small | 768  | 3072 | 12 | 12 |
//!
//! With sequence length `s` (default 128, a typical inference setting),
//! the self-attention (SA) projections are (s × d) · (d × d) GeMMs and
//! the feed-forward (FF) layers are (s × d) · (d × 4d) and
//! (s × 4d) · (4d × d).

use std::sync::Arc;

use crate::cnn::GemmShape;
use camp_core::backend::CampBackend;
use camp_core::{DType, GemmRequest, Operand, WeightHandle};
use camp_gemm::reference::SplitMix64;

/// Architecture hyper-parameters of one transformer model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Hidden (embedding) dimension.
    pub hidden: usize,
    /// Feed-forward inner dimension (usually 4 × hidden).
    pub ff_dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Encoder/decoder layer count.
    pub layers: usize,
    /// Evaluation sequence length.
    pub seq_len: usize,
}

impl TransformerConfig {
    /// The self-attention projection GeMMs for one layer: Q, K, V and
    /// output projections, each (s × d) · (d × d).
    pub fn self_attention_gemms(&self) -> Vec<GemmShape> {
        let d = self.hidden;
        let s = self.seq_len;
        vec![
            GemmShape::new(s, d, d), // Q
            GemmShape::new(s, d, d), // K
            GemmShape::new(s, d, d), // V
            GemmShape::new(s, d, d), // output projection
        ]
    }

    /// The attention score/context GeMMs, per head: (s × dₕ)·(dₕ × s)
    /// and (s × s)·(s × dₕ).
    pub fn attention_score_gemms(&self) -> Vec<GemmShape> {
        let dh = self.hidden / self.heads;
        let s = self.seq_len;
        vec![GemmShape::new(s, s, dh), GemmShape::new(s, dh, s)]
    }

    /// The feed-forward GeMMs for one layer: up- and down-projection.
    pub fn feed_forward_gemms(&self) -> Vec<GemmShape> {
        let s = self.seq_len;
        vec![
            GemmShape::new(s, self.ff_dim, self.hidden),
            GemmShape::new(s, self.hidden, self.ff_dim),
        ]
    }

    /// The representative SA GeMM used for Fig. 14's "SA" bar (the QKV
    /// projection dominates SA runtime at moderate sequence lengths).
    pub fn sa_shape(&self) -> GemmShape {
        GemmShape::new(self.seq_len, self.hidden, self.hidden)
    }

    /// The representative FF GeMM used for Fig. 14's "FF" bar.
    pub fn ff_shape(&self) -> GemmShape {
        GemmShape::new(self.seq_len, self.ff_dim, self.hidden)
    }

    /// Materialize the full per-head attention GeMM inventory of this
    /// configuration as a ready-to-run batch (the Fig. 14 self-attention
    /// workload, expanded per layer and head): for every layer the four
    /// (s×d)·(d×d) Q/K/V/output projections, then per head the
    /// (s×dₕ)·(dₕ×s) score and (s×s)·(s×dₕ) context products.
    ///
    /// Operands are synthetic quantized tensors (4-bit range, so the
    /// batch runs under both the `camp.s8` and `camp.s4` kernels),
    /// deterministic in `seed`. Weight matrices and per-head operands
    /// are shared across layers — the operand-reuse structure a batched
    /// engine deduplicates (a real checkpoint has distinct weights per
    /// layer, but QKV weights are still shared across that layer's
    /// heads; sharing across layers additionally exercises the dedup
    /// path without inflating the workload's memory footprint).
    pub fn attention_workload(&self, seed: u64) -> AttentionWorkload {
        let (s, d, dh) = (self.seq_len, self.hidden, self.hidden / self.heads);
        let mut rng = SplitMix64::new(seed);
        let mut tensor = |len: usize| -> Vec<i8> { rng.i8_vec(len, -8, 7) };
        AttentionWorkload {
            cfg: *self,
            x: tensor(s * d),
            weights: std::array::from_fn(|_| tensor(d * d)),
            q: (0..self.heads).map(|_| tensor(s * dh)).collect(),
            kt: (0..self.heads).map(|_| tensor(dh * s)).collect(),
            probs: (0..self.heads).map(|_| tensor(s * s)).collect(),
            v: (0..self.heads).map(|_| tensor(s * dh)).collect(),
        }
    }
}

/// Owned operand storage for one transformer's attention GeMM batch
/// (see [`TransformerConfig::attention_workload`]). The storage is the
/// *unique* tensor set; [`AttentionWorkload::gemm_requests`] expands it
/// into the full per-layer, per-head request list, with shared operands
/// sharing one buffer each.
#[derive(Debug, Clone)]
pub struct AttentionWorkload {
    cfg: TransformerConfig,
    /// s×d hidden activations (A of every projection).
    x: Vec<i8>,
    /// The four d×d projection weights: Q, K, V, output.
    weights: [Vec<i8>; 4],
    /// Per-head s×dₕ query blocks (A of the score product).
    q: Vec<Vec<i8>>,
    /// Per-head dₕ×s transposed key blocks (B of the score product).
    kt: Vec<Vec<i8>>,
    /// Per-head s×s attention probabilities (A of the context product).
    probs: Vec<Vec<i8>>,
    /// Per-head s×dₕ value blocks (B of the context product).
    v: Vec<Vec<i8>>,
}

impl AttentionWorkload {
    /// The configuration this workload was built from.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    /// Number of GeMMs in the batch: layers × (4 + 2·heads).
    pub fn len(&self) -> usize {
        self.cfg.layers * (4 + 2 * self.cfg.heads)
    }

    /// True for a zero-layer configuration.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total multiply-accumulate operations across the batch.
    pub fn total_macs(&self) -> u64 {
        let c = &self.cfg;
        let (s, d, dh) = (c.seq_len as u64, c.hidden as u64, (c.hidden / c.heads) as u64);
        // per layer: four s×d×d projections, then per head the s×s×dₕ
        // score and s×dₕ×s context products
        c.layers as u64 * (4 * s * d * d + c.heads as u64 * 2 * s * s * dh)
    }

    /// Register every unique B operand of this workload with a
    /// backend's weight registry — the four projection weights, and
    /// each head's Kᵀ and V blocks — packing each exactly **once per
    /// model** instead of once per call. Works on any
    /// [`CampBackend`] (the host engine pre-packs; the simulated
    /// backend keeps a raw mirror). The returned handle set drives
    /// [`AttentionWorkload::gemm_requests_with_handles`].
    pub fn register<B: CampBackend>(&self, backend: &mut B, dtype: DType) -> AttentionHandles {
        let (s, d, dh) = (self.cfg.seq_len, self.cfg.hidden, self.cfg.hidden / self.cfg.heads);
        AttentionHandles {
            // projection weights: k=d rows, n=d columns
            weights: std::array::from_fn(|i| {
                backend.register_weights(d, d, &self.weights[i], dtype)
            }),
            // score product B = Kᵀ (dh×s): k=dh, n=s
            kt: self.kt.iter().map(|t| backend.register_weights(s, dh, t, dtype)).collect(),
            // context product B = V (s×dh): k=s, n=dh
            v: self.v.iter().map(|t| backend.register_weights(dh, s, t, dtype)).collect(),
            dtype,
        }
    }

    /// The ready-to-run batch as typed [`GemmRequest`]s over **dense**
    /// operands, for any backend's `execute_batch`: every attention
    /// GeMM of every layer, in execution order — per layer the
    /// Q/K/V/output projections, then (score, context) per head. Unique
    /// tensors are converted to shared buffers once, so projections
    /// across layers share one weight buffer each and per-head operands
    /// repeat across layers — the operand identity the batch B-dedup
    /// keys on.
    pub fn gemm_requests(&self, dtype: DType) -> Vec<GemmRequest> {
        let (s, d, dh) = (self.cfg.seq_len, self.cfg.hidden, self.cfg.hidden / self.cfg.heads);
        let arc = |t: &Vec<i8>| -> Arc<[i8]> { Arc::from(&t[..]) };
        let x = arc(&self.x);
        let weights: Vec<Arc<[i8]>> = self.weights.iter().map(arc).collect();
        let q: Vec<Arc<[i8]>> = self.q.iter().map(arc).collect();
        let kt: Vec<Arc<[i8]>> = self.kt.iter().map(arc).collect();
        let probs: Vec<Arc<[i8]>> = self.probs.iter().map(arc).collect();
        let v: Vec<Arc<[i8]>> = self.v.iter().map(arc).collect();
        let dense = |m: usize, n: usize, k: usize, a: &Arc<[i8]>, b: &Arc<[i8]>| -> GemmRequest {
            GemmRequest::builder()
                .m(m)
                .n(n)
                .k(k)
                .activation(Arc::clone(a))
                .weights(Operand::Dense(Arc::clone(b)))
                .dtype(dtype)
                .build()
                .expect("attention workload shapes are coherent")
        };
        let mut out = Vec::with_capacity(self.len());
        for _layer in 0..self.cfg.layers {
            for w in &weights {
                out.push(dense(s, d, d, &x, w));
            }
            for head in 0..self.cfg.heads {
                out.push(dense(s, s, dh, &q[head], &kt[head]));
                out.push(dense(s, dh, s, &probs[head], &v[head]));
            }
        }
        out
    }

    /// The same inventory with every B operand referenced through its
    /// registered handle ([`AttentionWorkload::register`]): the host
    /// engine packs **zero** B bytes running it, per call, forever; a
    /// serving session submits these directly.
    pub fn gemm_requests_with_handles(&self, h: &AttentionHandles) -> Vec<GemmRequest> {
        let s = self.cfg.seq_len;
        let arc = |t: &Vec<i8>| -> Arc<[i8]> { Arc::from(&t[..]) };
        let x = arc(&self.x);
        let q: Vec<Arc<[i8]>> = self.q.iter().map(arc).collect();
        let probs: Vec<Arc<[i8]>> = self.probs.iter().map(arc).collect();
        let with = |m: usize, a: Arc<[i8]>, handle: WeightHandle| -> GemmRequest {
            GemmRequest::with_weights(m, a, handle).expect("attention workload shapes are coherent")
        };
        let mut out = Vec::with_capacity(self.len());
        for _layer in 0..self.cfg.layers {
            for w in &h.weights {
                out.push(with(s, Arc::clone(&x), *w));
            }
            for head in 0..self.cfg.heads {
                out.push(with(s, Arc::clone(&q[head]), h.kt[head]));
                out.push(with(s, Arc::clone(&probs[head]), h.v[head]));
            }
        }
        out
    }
}

/// Handles of one registered [`AttentionWorkload`] (see
/// [`AttentionWorkload::register`]): QKV/output projection weights plus
/// each head's Kᵀ and V blocks, all packed once for `dtype`'s kernel.
#[derive(Debug, Clone)]
pub struct AttentionHandles {
    /// The four d×d projection weights: Q, K, V, output.
    pub weights: [WeightHandle; 4],
    /// Per-head Kᵀ blocks (B of the score product).
    pub kt: Vec<WeightHandle>,
    /// Per-head V blocks (B of the context product).
    pub v: Vec<WeightHandle>,
    /// Kernel every handle was registered for.
    pub dtype: DType,
}

/// The four LLMs of the paper (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LlmModel {
    /// BERT base (110 M parameters).
    BertBase,
    /// BERT large (340 M).
    BertLarge,
    /// GPT-2 large (774 M).
    Gpt2Large,
    /// GPT-3 small (125 M).
    Gpt3Small,
}

impl LlmModel {
    /// All models in the paper's order.
    pub fn all() -> [LlmModel; 4] {
        [LlmModel::BertBase, LlmModel::BertLarge, LlmModel::Gpt2Large, LlmModel::Gpt3Small]
    }

    /// Display name matching Fig. 14.
    pub fn name(self) -> &'static str {
        match self {
            LlmModel::BertBase => "BERT Base",
            LlmModel::BertLarge => "BERT Large",
            LlmModel::Gpt2Large => "GPT-2 Large",
            LlmModel::Gpt3Small => "GPT-3 Small",
        }
    }

    /// Architecture configuration (sequence length 128).
    pub fn config(self) -> TransformerConfig {
        let (hidden, ff_dim, heads, layers) = match self {
            LlmModel::BertBase => (768, 3072, 12, 12),
            LlmModel::BertLarge => (1024, 4096, 16, 24),
            LlmModel::Gpt2Large => (1280, 5120, 20, 36),
            LlmModel::Gpt3Small => (768, 3072, 12, 12),
        };
        TransformerConfig { hidden, ff_dim, heads, layers, seq_len: 128 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_core::CampEngine;

    #[test]
    fn configs_match_public_models() {
        assert_eq!(LlmModel::BertBase.config().hidden, 768);
        assert_eq!(LlmModel::BertLarge.config().ff_dim, 4096);
        assert_eq!(LlmModel::Gpt2Large.config().heads, 20);
        assert_eq!(LlmModel::Gpt3Small.config().layers, 12);
    }

    #[test]
    fn sa_and_ff_shapes() {
        let c = LlmModel::BertBase.config();
        assert_eq!(c.sa_shape(), GemmShape::new(128, 768, 768));
        assert_eq!(c.ff_shape(), GemmShape::new(128, 3072, 768));
    }

    #[test]
    fn per_layer_gemm_inventory() {
        let c = LlmModel::BertLarge.config();
        assert_eq!(c.self_attention_gemms().len(), 4);
        assert_eq!(c.feed_forward_gemms().len(), 2);
        let score = c.attention_score_gemms();
        assert_eq!(score[0], GemmShape::new(128, 128, 64));
    }

    #[test]
    fn ff_is_heavier_than_sa() {
        for m in LlmModel::all() {
            let c = m.config();
            assert!(c.ff_shape().macs() > c.sa_shape().macs());
        }
    }

    fn tiny_config() -> TransformerConfig {
        TransformerConfig { hidden: 8, ff_dim: 32, heads: 2, layers: 3, seq_len: 4 }
    }

    /// (m, n, k) of a dense request.
    fn shape(r: &GemmRequest) -> (usize, usize, usize) {
        (r.m(), r.n().expect("dense n"), r.k().expect("dense k"))
    }

    /// The shared B buffer of a dense request.
    fn dense_b(r: &GemmRequest) -> &Arc<[i8]> {
        let Operand::Dense(b) = r.weights() else { panic!("dense operand expected") };
        b
    }

    #[test]
    fn attention_workload_inventory_matches_fig14_structure() {
        let cfg = tiny_config();
        let w = cfg.attention_workload(7);
        let requests = w.gemm_requests(DType::I8);
        assert_eq!(requests.len(), w.len());
        assert_eq!(w.len(), cfg.layers * (4 + 2 * cfg.heads));
        let per_layer = 4 + 2 * cfg.heads;
        for layer in 0..cfg.layers {
            let base = layer * per_layer;
            // four (s×d)·(d×d) projections ...
            for r in &requests[base..base + 4] {
                assert_eq!(shape(r), (cfg.seq_len, cfg.hidden, cfg.hidden));
            }
            // ... then per head the score and context products
            let dh = cfg.hidden / cfg.heads;
            for h in 0..cfg.heads {
                let (sm, sn, sk) = shape(&requests[base + 4 + 2 * h]);
                let (cm, cn, ck) = shape(&requests[base + 4 + 2 * h + 1]);
                assert_eq!((sm, sn, sk), (cfg.seq_len, cfg.seq_len, dh));
                assert_eq!((cm, cn, ck), (cfg.seq_len, dh, cfg.seq_len));
                let shapes = cfg.attention_score_gemms();
                assert_eq!(GemmShape::new(sm, sn, sk), shapes[0]);
                assert_eq!(GemmShape::new(cm, cn, ck), shapes[1]);
            }
        }
    }

    #[test]
    fn attention_workload_shares_weights_across_layers() {
        let cfg = tiny_config();
        let w = cfg.attention_workload(7);
        let requests = w.gemm_requests(DType::I8);
        let per_layer = 4 + 2 * cfg.heads;
        // every layer's Q projection must reuse the same B buffer (the
        // identity the batch dedup keys on), and so for each head's
        // operands
        for layer in 1..cfg.layers {
            for slot in 0..per_layer {
                assert!(
                    Arc::ptr_eq(
                        dense_b(&requests[slot]),
                        dense_b(&requests[layer * per_layer + slot])
                    ),
                    "layer {layer} slot {slot} must share B with layer 0"
                );
            }
        }
        // ... while the four projection weights are distinct operands
        for slot in 0..3 {
            assert!(!Arc::ptr_eq(dense_b(&requests[slot]), dense_b(&requests[slot + 1])));
        }
    }

    #[test]
    fn registered_workload_mirrors_the_slice_problems() {
        let cfg = tiny_config();
        let w = cfg.attention_workload(7);
        let mut eng = CampEngine::new();
        let handles = w.register(&mut eng, DType::I8);
        // one registration per unique operand: 4 weights + 2 per head
        assert_eq!(eng.registered_weights(), 4 + 2 * cfg.heads);
        let by_handle = w.gemm_requests_with_handles(&handles);
        let dense = w.gemm_requests(DType::I8);
        assert_eq!(by_handle.len(), dense.len());
        for (h, d) in by_handle.iter().zip(&dense) {
            assert_eq!(h.m(), d.m());
            assert_eq!(h.activation(), d.activation(), "both forms carry the same activation");
            let Operand::Handle(handle) = h.weights() else { panic!("handle operand expected") };
            let meta = eng.try_weight_meta(*handle).unwrap();
            assert_eq!((Some(meta.n), Some(meta.k)), (d.n(), d.k()), "registration shape");
        }
    }

    #[test]
    fn attention_workload_is_quantized_and_deterministic() {
        let cfg = tiny_config();
        let w1 = cfg.attention_workload(42);
        let w2 = cfg.attention_workload(42);
        let w3 = cfg.attention_workload(43);
        let (r1, r2, r3) =
            (w1.gemm_requests(DType::I8), w2.gemm_requests(DType::I8), w3.gemm_requests(DType::I8));
        assert_eq!(r1[0].activation(), r2[0].activation(), "same seed must reproduce the workload");
        assert_ne!(r1[0].activation(), r3[0].activation(), "different seeds must differ");
        let mut macs = 0;
        for r in &r1 {
            let (m, n, k) = shape(r);
            assert!(r.activation().iter().all(|&v| (-8..=7).contains(&v)), "4-bit range");
            assert!(dense_b(r).iter().all(|&v| (-8..=7).contains(&v)), "4-bit range");
            assert_eq!(r.activation().len(), m * k);
            assert_eq!(dense_b(r).len(), k * n);
            macs += (m * n * k) as u64;
        }
        assert_eq!(w1.total_macs(), macs);
        assert!(!w1.is_empty());
    }
}
