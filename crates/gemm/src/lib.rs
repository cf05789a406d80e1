//! # camp-gemm — blocked GeMM kernels over the simulated vector machine
//!
//! Implements the software half of the paper's co-design: a
//! GotoBLAS/ulmBLAS-style blocked matrix multiplication (Fig. 3) whose
//! packing routines and macro-kernels are *simulated programs* written in
//! the VVA assembly of `camp-isa`, timed by `camp-pipeline`.
//!
//! Every method evaluated in the paper's §5.3 is implemented:
//!
//! | [`Method`] | paper baseline | data | register tile |
//! |---|---|---|---|
//! | `Camp8` | CAMP 8-bit | i8 | 4×4, k-step 16 (one `camp.s8`) |
//! | `Camp4` | CAMP 4-bit | i4 | 4×4, k-step 32 (one `camp.s4`) |
//! | `HandvInt32` | handv-int32 / edge BLIS-int32 | i32 | 4×16 |
//! | `HandvInt8` | handv-int8 (overflow-unsafe) | i8 | 4×64 |
//! | `Gemmlowp` | gemmlowp-like widening int8 | i8 | 4×32, k-step 2 |
//! | `OpenblasF32` | OpenBLAS SGEMM-like | f32 | 8×32 |
//! | `Mmla` | Arm FEAT_I8MM `smmla` kernel | i8 | 8×8, k-step 8 |
//!
//! The five-loop cache blocking runs on the host (3 outer loops, the
//! shared [`loops`] iterators) and dispatches simulated packing programs
//! and macro-kernels (inner 2 loops plus micro-kernel — >99.9 % of
//! dynamic instructions) on a [`camp_pipeline::Simulator`]. Every (jc, pc)
//! block unit starts from the freshly built simulator state — zeroed
//! machine memory, cold caches; the driver resets one simulator between
//! units — so units are independent and their statistics simply add up.
//! A [`SimSession`] keeps that simulator across calls, with a memo of
//! each unit shape's statistics: a repeated shape runs on the functional
//! machine alone instead of being timed again.
//!
//! Everything kernel-specific is a `match` on [`Method`] in [`method`] —
//! geometry, element/accumulator types, default kc, and the packing and
//! macro-kernel programs a session assembles once — so [`driver`]
//! is a single generic skeleton and a new kernel plugs in without
//! touching it (see the README's "The simulated kernel table" section).
//! The same skeleton —
//! [`loops::BlockPlan`], [`loops::small_path`], the block iterators and
//! the packed-image offset formulas of [`batch`] — and the
//! [`workspace::PackPool`] arenas also back `camp-core`'s host-speed
//! engine, which walks that nest over two whole packed images (it packs
//! nothing inside the loops; the simulated driver packs per block,
//! because that traffic is what it measures). The engine's native
//! micro-kernels live in [`host`]: a [`HostKernel`] tier (scalar / AVX2 /
//! AVX-512 / AVX-512 VNNI / AMX-INT8) selected once from a [`CpuFeatures`]
//! runtime probe.
//!
//! The Fig. 1 address traces in `camp-bench` walk the same [`loops`]
//! iterators, replayed against `camp-cache` without a pipeline.
//!
//! # Example
//!
//! ```
//! use camp_gemm::{simulate_gemm, GemmOptions, Method};
//! use camp_pipeline::CoreConfig;
//!
//! let r = simulate_gemm(CoreConfig::a64fx(), Method::Camp8, 32, 32, 64, &GemmOptions::default());
//! assert!(r.correct);
//! assert!(r.stats.cycles > 0);
//! ```

pub mod batch;
pub mod driver;
pub mod host;
pub mod kernels;
pub mod loops;
pub mod method;
pub mod pack;
pub mod reference;
pub mod request;
pub mod weights;
pub mod workspace;

pub use driver::{simulate_gemm, CMatrix, GemmOptions, GemmResult, SimSession};
pub use host::{CpuFeatures, HostKernel, HostTier, KernelInfo};
pub use method::{AccKind, ElemKind, KernelGeometry, Method};
pub use reference::{gemm_f32_ref, gemm_i32_ref, gemm_i8_wrapping_ref, SplitMix64};
pub use request::{GemmRequest, GemmRequestBuilder, Operand, RequestError, ResolvedRequest};
pub use weights::{DType, WeightHandle, WeightMeta, WeightRegistry, WeightSnapshot};
pub use workspace::PackPool;
