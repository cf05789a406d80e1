//! # camp-cache — set-associative cache hierarchy simulator
//!
//! Models the memory hierarchies of the paper's two evaluation platforms
//! (Table 2):
//!
//! * **A64FX-like**: 64 KB 8-way L1D (4-cycle load-to-use), 8 MB 16-way
//!   shared L2 (37-cycle), HBM2 main memory, stride prefetchers at L1/L2;
//! * **edge RISC-V SoC** (Sargantana-like): 32 KB L1D, 512 KB L2, LPDDR
//!   main memory, no prefetch.
//!
//! The simulator is usable in two modes:
//!
//! * **execution-driven** — `camp-pipeline` calls [`Hierarchy::access`]
//!   for every memory instruction and uses the returned latency;
//! * **trace-driven** — the Fig. 1 cache-miss-rate experiment replays
//!   address traces generated analytically by `camp-gemm` without running
//!   a pipeline at all.
//!
//! # Example
//!
//! ```
//! use camp_cache::{Hierarchy, HierarchyConfig};
//!
//! let mut h = Hierarchy::new(HierarchyConfig::a64fx());
//! // A streaming read of 1 MiB: the stride prefetcher hides most misses.
//! for i in 0..(1 << 20) / 64 {
//!     h.access(i * 64, 64, false, 0);
//! }
//! assert!(h.l1d().stats().demand_miss_rate() < 0.20);
//! ```

mod cache;
mod config;
mod hierarchy;
mod prefetch;
mod stats;

pub use cache::Cache;
pub use config::{CacheConfig, HierarchyConfig};
pub use hierarchy::{AccessOutcome, Hierarchy};
pub use prefetch::StridePrefetcher;
pub use stats::CacheStats;
