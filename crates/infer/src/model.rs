//! The quantized transformer model: deterministic weight generation,
//! per-channel i8 quantization, and one-time backend registration.
//!
//! A [`Model`] owns every weight matrix in quantized row-major k×n
//! form (the GeMM B-operand layout) together with the per-output-
//! channel f32 scales the [`PerChannelQuantizer`] fitted, plus the
//! requantization multipliers derived from them. The raw bytes stay in
//! the model so the reference executor can replay any layer against
//! [`gemm_i32_ref`](camp_gemm::reference::gemm_i32_ref); backends get
//! the same bytes exactly once via [`Model::register`].

use std::sync::Arc;

use camp_core::backend::CampBackend;
use camp_core::{DType, WeightHandle};
use camp_gemm::reference::SplitMix64;
use camp_models::TransformerConfig;
use camp_quant::PerChannelQuantizer;

/// Logical index of one weight matrix inside a [`Model`] — stable
/// across backends, unlike the per-backend [`WeightHandle`]s a
/// [`ModelHandles`] maps it to.
pub type WeightId = usize;

/// Target RMS of i8 activations between layers; embeddings are drawn
/// uniformly from [-8, 7] whose RMS is ≈ 4.6, and every requantizer is
/// normalized to keep that band through the stack (clamping to the
/// full i8 range handles the tails).
const ACT_RMS: f64 = 4.6;

/// One quantized weight matrix: k×n i8 bytes (GeMM B layout), the
/// per-output-channel f32 scales, and the requant multipliers that
/// fold those scales into the i32→i8 step on the activation path.
#[derive(Debug, Clone)]
pub struct ModelWeight {
    /// Output channels (GeMM n).
    pub n: usize,
    /// Reduction depth (GeMM k).
    pub k: usize,
    /// Quantized bytes, row-major k×n — exactly what
    /// a backend's registry ([`CampBackend::weights_mut`]) and
    /// `gemm_i32_ref` consume.
    pub q: Arc<[i8]>,
    /// Per-output-channel quantizer scales (len n).
    pub scales: Vec<f32>,
    /// Per-output-channel i32→i8 requant multipliers (len n),
    /// proportional to `scales` and normalized per matrix so the
    /// activation RMS band survives the layer.
    pub mults: Vec<f32>,
}

/// The six weight matrices of one transformer layer, by [`WeightId`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct LayerIds {
    pub wq: WeightId,
    pub wk: WeightId,
    pub wv: WeightId,
    pub wo: WeightId,
    pub wup: WeightId,
    pub wdown: WeightId,
}

/// A quantized transformer built from a [`TransformerConfig`]:
/// embedding tables, per-layer projection and feed-forward weights,
/// and the unembedding matrix, all generated deterministically from a
/// seed and quantized per output channel.
#[derive(Debug)]
pub struct Model {
    cfg: TransformerConfig,
    vocab: usize,
    seed: u64,
    /// Token embedding table, row-major vocab×hidden i8.
    embed: Vec<i8>,
    /// Positional embedding table, row-major seq_len×hidden i8.
    pos: Vec<i8>,
    weights: Vec<ModelWeight>,
    layers: Vec<LayerIds>,
    unembed: WeightId,
    /// Static attention-score requant multiplier (head dim is fixed).
    score_mult: f32,
}

impl Model {
    /// Build a model with `vocab` output tokens from deterministic
    /// seeded weights. The same `(cfg, vocab, seed)` triple always
    /// yields bit-identical weights, scales and multipliers, on every
    /// platform.
    ///
    /// # Panics
    /// Panics when `hidden` is not divisible by `heads` or any
    /// dimension is zero.
    pub fn new(cfg: TransformerConfig, vocab: usize, seed: u64) -> Model {
        assert!(cfg.hidden > 0 && cfg.ff_dim > 0 && cfg.layers > 0 && cfg.seq_len > 0);
        assert!(
            cfg.heads > 0 && cfg.hidden.is_multiple_of(cfg.heads),
            "hidden must split across heads"
        );
        assert!(vocab > 0, "empty vocabulary");
        let d = cfg.hidden;
        let mut rng = SplitMix64::new(seed);
        let embed = rng.i8_vec(vocab * d, -8, 7);
        let pos = rng.i8_vec(cfg.seq_len * d, -8, 7);
        let mut weights = Vec::with_capacity(cfg.layers * 6 + 1);
        let mut push = |rng: &mut SplitMix64, n: usize, k: usize| -> WeightId {
            weights.push(quantize_weight(rng, n, k));
            weights.len() - 1
        };
        let layers = (0..cfg.layers)
            .map(|_| LayerIds {
                wq: push(&mut rng, d, d),
                wk: push(&mut rng, d, d),
                wv: push(&mut rng, d, d),
                wo: push(&mut rng, d, d),
                wup: push(&mut rng, cfg.ff_dim, d),
                wdown: push(&mut rng, d, cfg.ff_dim),
            })
            .collect();
        let unembed = push(&mut rng, vocab, d);
        let dh = d / cfg.heads;
        // score acc sums dh products of two RMS-4.6 i8 operands; pull
        // it back to the activation band before it becomes the probs
        let score_mult = (ACT_RMS / ((dh as f64).sqrt() * ACT_RMS * ACT_RMS)) as f32;
        Model { cfg, vocab, seed, embed, pos, weights, layers, unembed, score_mult }
    }

    /// The architecture this model instantiates.
    pub fn config(&self) -> TransformerConfig {
        self.cfg
    }

    /// Output vocabulary size (valid tokens are `0..vocab`).
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// The seed the weights were generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Head dimension dₕ = hidden / heads.
    pub fn head_dim(&self) -> usize {
        self.cfg.hidden / self.cfg.heads
    }

    /// One weight matrix by id (see [`ModelWeight`]).
    pub fn weight(&self, id: WeightId) -> &ModelWeight {
        &self.weights[id]
    }

    /// How many weight matrices the model registers.
    pub fn weight_count(&self) -> usize {
        self.weights.len()
    }

    pub(crate) fn layer(&self, l: usize) -> LayerIds {
        self.layers[l]
    }

    pub(crate) fn unembed_id(&self) -> WeightId {
        self.unembed
    }

    pub(crate) fn score_mult(&self) -> f32 {
        self.score_mult
    }

    /// Context requantizer for the row at absolute position `pos`: the
    /// causal mask leaves `pos + 1` live terms in the context GeMM's
    /// reduction, so normalization depends only on the row's absolute
    /// position — identical whether the row is computed by a prefill
    /// or by a KV-cached decode step (the parity invariant).
    pub(crate) fn ctx_mult(&self, pos: usize) -> f32 {
        (ACT_RMS / (((pos + 1) as f64).sqrt() * ACT_RMS * ACT_RMS)) as f32
    }

    /// Write the embedding row for `token` at absolute position `pos`
    /// into `row` (`hidden` bytes): token row plus positional row,
    /// saturating i8. Positions beyond `seq_len` wrap around the
    /// positional table (only reachable with the sliding-window KV
    /// policy).
    pub(crate) fn embed_into(&self, token: u32, pos: usize, row: &mut [i8]) {
        let d = self.cfg.hidden;
        assert_eq!(row.len(), d, "an embedding row is hidden bytes wide");
        let tok = &self.embed[token as usize * d..(token as usize + 1) * d];
        let p = pos % self.cfg.seq_len;
        let pe = &self.pos[p * d..(p + 1) * d];
        for ((out, &t), &e) in row.iter_mut().zip(tok).zip(pe) {
            *out = t.saturating_add(e);
        }
    }

    /// Register every weight matrix into `backend`'s registry
    /// ([`CampBackend::weights_mut`]), in [`WeightId`] order. Call this
    /// **before** creating the backend's dispatcher — the dispatcher
    /// validates requests against the registration snapshot taken when
    /// it starts.
    pub fn register<B: CampBackend>(&self, backend: &mut B) -> ModelHandles {
        let handles = self
            .weights
            .iter()
            .map(|w| backend.weights_mut().register(w.n, w.k, &w.q, DType::I8))
            .collect();
        ModelHandles { handles }
    }
}

/// The per-backend [`WeightHandle`]s of one registered [`Model`],
/// indexed by [`WeightId`]. Handles are only meaningful on the backend
/// (or dispatcher wrapping it) they were registered with.
#[derive(Debug, Clone)]
pub struct ModelHandles {
    handles: Vec<WeightHandle>,
}

impl ModelHandles {
    /// The backend handle for one weight matrix.
    pub fn get(&self, id: WeightId) -> WeightHandle {
        self.handles[id]
    }

    /// Number of registered matrices.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether no weights were registered.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }
}

/// Generate one n-output-channel × k weight matrix: deterministic f32
/// values with per-channel amplitudes (so per-channel quantization is
/// load-bearing, not a no-op), fitted and quantized per output channel,
/// then transposed into the k×n GeMM B layout.
fn quantize_weight(rng: &mut SplitMix64, n: usize, k: usize) -> ModelWeight {
    // channel-major n×k f32 weights: each output channel is one row,
    // which is exactly the layout PerChannelQuantizer::fit expects
    let mut wt = Vec::with_capacity(n * k);
    for c in 0..n {
        let amp = 0.02 * (1.0 + (c % 5) as f32);
        for _ in 0..k {
            // 24 high bits of the stream mapped onto [-1, 1)
            let u = (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
            wt.push(amp * (2.0 * u - 1.0));
        }
    }
    let quantizer = PerChannelQuantizer::fit(&wt, k, 8);
    let qt = quantizer.quantize_all(&wt);
    let scales: Vec<f32> = (0..n).map(|c| quantizer.scale(c)).collect();
    let mut q = vec![0i8; k * n];
    for c in 0..n {
        for r in 0..k {
            q[r * n + c] = qt[c * k + r];
        }
    }
    let mults = requant_mults(&scales, &qt, k);
    ModelWeight { n, k, q: q.into(), scales, mults }
}

/// Per-channel i32→i8 requant multipliers: proportional to the
/// channel's quantizer scale (dequantization is honest per channel)
/// and normalized per matrix so an RMS-[`ACT_RMS`] input activation
/// comes out in the same band.
fn requant_mults(scales: &[f32], qt: &[i8], k: usize) -> Vec<f32> {
    let mut mean = 0.0f64;
    for (c, row) in qt.chunks_exact(k).enumerate() {
        let ms = row.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>() / k as f64;
        mean += ms.sqrt() * f64::from(scales[c]);
    }
    mean /= scales.len() as f64;
    // acc_rms[c] ≈ √k · ACT_RMS · rms(q[c]); out[c] = acc · s[c] · g,
    // so g normalizes the *mean* channel to ACT_RMS while preserving
    // the per-channel scale ratios
    let g = 1.0 / ((k as f64).sqrt() * mean.max(1e-12));
    scales.iter().map(|&s| (f64::from(s) * g) as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TransformerConfig {
        TransformerConfig { hidden: 8, ff_dim: 16, heads: 2, layers: 2, seq_len: 8 }
    }

    #[test]
    fn model_is_deterministic() {
        let a = Model::new(tiny(), 32, 42);
        let b = Model::new(tiny(), 32, 42);
        assert_eq!(a.embed, b.embed);
        assert_eq!(a.pos, b.pos);
        for (x, y) in a.weights.iter().zip(&b.weights) {
            assert_eq!(x.q, y.q);
            assert_eq!(x.scales, y.scales);
            assert_eq!(x.mults, y.mults);
        }
        let c = Model::new(tiny(), 32, 43);
        assert_ne!(a.weights[0].q, c.weights[0].q, "seed must matter");
    }

    #[test]
    fn weight_layout_matches_config() {
        let m = Model::new(tiny(), 32, 7);
        assert_eq!(m.weight_count(), 2 * 6 + 1);
        let l = m.layer(0);
        let wq = m.weight(l.wq);
        assert_eq!((wq.n, wq.k), (8, 8));
        let wup = m.weight(l.wup);
        assert_eq!((wup.n, wup.k), (16, 8));
        let wdown = m.weight(l.wdown);
        assert_eq!((wdown.n, wdown.k), (8, 16));
        let un = m.weight(m.unembed_id());
        assert_eq!((un.n, un.k), (32, 8));
        for w in &m.weights {
            assert_eq!(w.q.len(), w.n * w.k);
            assert_eq!(w.scales.len(), w.n);
            assert_eq!(w.mults.len(), w.n);
            assert!(w.mults.iter().all(|&f| f.is_finite() && f > 0.0));
        }
    }

    #[test]
    fn quantization_respects_per_channel_scales() {
        let m = Model::new(tiny(), 32, 7);
        let w = m.weight(0);
        // channels were generated with 5 distinct amplitudes, so the
        // fitted per-channel scales must not all collapse to one value
        let first = w.scales[0];
        assert!(w.scales.iter().any(|&s| (s - first).abs() > 1e-9));
        // mults stay proportional to scales within one matrix
        let ratio = w.mults[0] / w.scales[0];
        for (mlt, s) in w.mults.iter().zip(&w.scales) {
            assert!((mlt / s - ratio).abs() < 1e-3 * ratio.abs());
        }
    }
}
