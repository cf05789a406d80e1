//! # camp-models — the paper's workload zoo
//!
//! * [`cnn`] — the CNN layer GeMM dimensions of Table 3 (AlexNet, SMM,
//!   ResNet, VGG, MobileNet), transcribed exactly;
//! * [`transformer`] — BERT base/large, GPT-2 large and GPT-3 small
//!   configurations and the self-attention / feed-forward GeMM shapes the
//!   paper evaluates (Fig. 14); `camp-infer`'s `Model` serves tokens
//!   from the same configurations;
//! * [`conv`] — a convolution layer description, the `im2col` transform
//!   (§2.1) and a direct convolution reference to validate it, plus the
//!   Table 4 edge benchmark convolution.

pub mod cnn;
pub mod conv;
pub mod networks;
pub mod transformer;

pub use cnn::{Benchmark, GemmShape};
pub use conv::{im2col, Conv2d, Tensor3};
pub use networks::ConvLayer;
pub use transformer::{LlmModel, TransformerConfig};
