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

use crate::cnn::GemmShape;

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
    /// The representative SA GeMM used for Fig. 14's "SA" bar (the QKV
    /// projection dominates SA runtime at moderate sequence lengths).
    pub fn sa_shape(&self) -> GemmShape {
        GemmShape::new(self.seq_len, self.hidden, self.hidden)
    }

    /// The representative FF GeMM used for Fig. 14's "FF" bar.
    pub fn ff_shape(&self) -> GemmShape {
        GemmShape::new(self.seq_len, self.ff_dim, self.hidden)
    }
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
    fn ff_is_heavier_than_sa() {
        for m in LlmModel::all() {
            let c = m.config();
            assert!(c.ff_shape().macs() > c.sa_shape().macs());
        }
    }
}
