//! Host-speed micro-kernel tier with runtime CPU-feature dispatch.
//!
//! The [`crate::dispatch::MicroKernel`] descriptors select *simulated*
//! kernels — programs in the virtual vector ISA, timed by the pipeline
//! model. This module is the host-silicon analogue: a [`HostKernel`]
//! is a table of native micro-kernels (portable scalar, AVX2, AVX-512,
//! NEON) selected **once** from a [`CpuFeatures`] runtime probe and then
//! dispatched through plain function pointers on the hot path. The
//! pire/BLIS pattern: per-architecture micro-kernel + pack modules
//! behind a single runtime-dispatched seam.
//!
//! Three kernel families live behind the table:
//!
//! * **`tile_i8`** — the widening i8→i32 dot-product micro-kernel. It
//!   consumes one packed 4-row A panel and 4-column B panel across the
//!   *whole* depth block in a single call (so SIMD accumulators live in
//!   registers across the k loop), producing exactly the arithmetic of
//!   the `camp` instruction: wrapping i32 accumulation of exact i8×i8
//!   products. Wrapping addition is associative and commutative and the
//!   products are exact, so every tier is **bit-identical** by
//!   construction, regardless of how a tier reorders the summation.
//! * **`run_small_m` / `run_small_n`** — pire-style skinny paths (see
//!   [`crate::loops::small_path`]) that bypass the full Goto nest for
//!   GEMV-shaped serving GeMMs: decode steps (m ≤ 8) and narrow
//!   projections (n ≤ 8) skip A-packing and the padded register tile.
//! * **`f32` FMA kernels** — a self-contained float subsystem
//!   ([`HostGemmF32`] / [`gemm_f32`]) with per-tier register-block
//!   geometry (MR×NR). Float addition is *not* associative, so bit
//!   identity is pinned down differently: every tier computes each
//!   output element as one fused-multiply-add chain over `l` ascending
//!   (`acc = fma(a, b, acc)`). The scalar tier uses [`f32::mul_add`]
//!   (correctly rounded), AVX2 uses `vfmadd`, NEON uses `vfma` — the
//!   same chain in the same order, hence the same bits, which the
//!   parity proptests assert.
//!
//! Cache blocking (`mc`/`nc`/`kc`) is env-tunable via `CAMP_MC`,
//! `CAMP_NC` and `CAMP_KC` (validated; see [`int_blocking`] /
//! [`f32_blocking`]); `CAMP_FORCE_TIER={scalar,avx2,avx512,neon}` pins
//! dispatch to a specific tier (panicking if the CPU cannot run it),
//! and the older `CAMP_FORCE_SCALAR=1` remains as the scalar shorthand
//! (the CI job that keeps the fallback honest). The integer path keeps
//! one packed-panel layout across tiers — the 4-wide camp panel layout
//! shared with the weight registry and the serving session — so a
//! panel packed by any component is consumable by every tier. Tiers
//! differ only in how many adjacent panels one register-tile call
//! consumes (`int_nr/4`, see [`HostKernel::tile_i8_wide`]) and in how
//! the pack routines themselves are vectorized ([`HostKernel::pack_a_block`]
//! etc. — byte-identical images, SIMD-built).

// GEMM entry points naturally take (m, n, k, a, b, c) plus plan/tier
// context, and the kernel table's value is precisely its bare fn types.
#![allow(clippy::too_many_arguments, clippy::type_complexity)]

pub mod scalar;
pub mod small;

#[cfg(target_arch = "x86_64")]
pub mod avx2;
#[cfg(target_arch = "x86_64")]
pub mod avx512;
#[cfg(target_arch = "aarch64")]
pub mod neon;

use std::fmt;
use std::sync::OnceLock;

use crate::loops::{for_each_b_block, for_each_row_strip, BlockPlan};
use crate::weights::HOST_BLOCKING;

pub use small::SmallB;

// ---- runtime feature probe ------------------------------------------------

/// What the host CPU can do, probed once at engine construction. The
/// probe is cheap and honest: on x86_64 it asks the OS/CPUID via
/// `is_x86_feature_detected!`; on aarch64 NEON is architecturally
/// guaranteed; everywhere else every flag is false and the scalar tier
/// serves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuFeatures {
    /// AVX2 256-bit integer/float SIMD (x86_64).
    pub avx2: bool,
    /// FMA3 fused multiply-add (x86_64; required for the AVX2 tier's
    /// f32 kernels).
    pub fma: bool,
    /// AVX-512 foundation (512-bit f32/i32 lanes; x86_64).
    pub avx512f: bool,
    /// AVX-512 byte/word instructions (zmm `vpshufb`/`vpmaddwd`;
    /// required, with `avx512f` and `avx512vl`, for the AVX-512 tier).
    pub avx512bw: bool,
    /// AVX-512 vector-length extensions (EVEX at 128/256-bit widths).
    pub avx512vl: bool,
    /// NEON/ASIMD (aarch64, architecturally mandatory).
    pub neon: bool,
}

impl CpuFeatures {
    /// Probe the running CPU.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            CpuFeatures {
                avx2: is_x86_feature_detected!("avx2"),
                fma: is_x86_feature_detected!("fma"),
                avx512f: is_x86_feature_detected!("avx512f"),
                avx512bw: is_x86_feature_detected!("avx512bw"),
                avx512vl: is_x86_feature_detected!("avx512vl"),
                neon: false,
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            CpuFeatures { neon: true, ..CpuFeatures::default() }
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            CpuFeatures::default()
        }
    }

    /// True when this feature set admits the AVX-512 tier: the 512-bit
    /// foundation plus byte/word ops and vector-length extensions, and
    /// the AVX2+FMA the tier's fold/pack code paths lean on.
    pub fn has_avx512_tier(&self) -> bool {
        self.avx512f && self.avx512bw && self.avx512vl && self.avx2 && self.fma
    }

    /// Space-separated list of detected features, or `"portable"`.
    pub fn summary(&self) -> String {
        let mut out = Vec::new();
        if self.avx2 {
            out.push("avx2");
        }
        if self.fma {
            out.push("fma");
        }
        if self.avx512f {
            out.push("avx512f");
        }
        if self.avx512bw {
            out.push("avx512bw");
        }
        if self.avx512vl {
            out.push("avx512vl");
        }
        if self.neon {
            out.push("neon");
        }
        if out.is_empty() {
            "portable".to_string()
        } else {
            out.join(" ")
        }
    }
}

// ---- tiers ----------------------------------------------------------------

/// The implemented host-kernel tiers, best-first per architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostTier {
    /// Portable scalar Rust — always available, the bit-identity
    /// reference every SIMD tier is property-tested against.
    Scalar,
    /// x86_64 AVX2 (+FMA for f32): `vpshufb`/`vpmaddwd` widening i8
    /// tile (4×8 widened), 4×16 `vfmadd` f32 tile.
    Avx2,
    /// x86_64 AVX-512 (F+BW+VL): zmm `vpshufb`/`vpmaddwd` widening i8
    /// tile (4×16 widened), 8×32 `vfmadd` f32 tile.
    Avx512,
    /// aarch64 NEON: `smlal`-lane widening i8 tile, 4×8 `vfma` f32
    /// tile.
    Neon,
}

impl HostTier {
    /// Stable lowercase name (used in logs, benches, `BENCH_*.json`,
    /// and the `CAMP_FORCE_TIER` knob).
    pub fn name(self) -> &'static str {
        match self {
            HostTier::Scalar => "scalar",
            HostTier::Avx2 => "avx2",
            HostTier::Avx512 => "avx512",
            HostTier::Neon => "neon",
        }
    }

    /// True for the vectorized tiers.
    pub fn is_simd(self) -> bool {
        !matches!(self, HostTier::Scalar)
    }
}

// ---- the kernel table -----------------------------------------------------

/// One selected host-kernel tier: a table of function pointers filled
/// in by the tier module, dispatched once at engine construction (see
/// [`HostKernel::detect`]) and called directly ever after — no
/// per-call feature checks on the hot path.
///
/// Integer kernels operate on the shared 4×4 camp panel layout
/// ([`crate::weights::pack_a_block`] / [`crate::weights::pack_b_block`]),
/// so pre-packed weights and staged panels are tier-portable. The f32
/// kernels have per-tier register-block geometry (`f32_tile_shape`)
/// over their own packed layout, private to [`HostGemmF32`].
pub struct HostKernel {
    tier: HostTier,
    /// Whole-depth 4×4 widening integer tile kernel: `pa`/`pb` are one
    /// packed A panel and B panel of `kcb` k-values (`kcb*4` bytes,
    /// `kcb` a multiple of 8); accumulates into `acc` with wrapping
    /// i32 adds.
    pub(crate) tile_i8: fn(&[i8], &[i8], &mut [[i32; 4]; 4]),
    /// Widened register tile: one packed A panel against `int_nr/4`
    /// *adjacent* packed B panels per call (`pb` is their contiguous
    /// concatenation, `acc[q*4+i][j]` the tile for panel `q`). Same
    /// panel layout, same wrapping arithmetic — just more columns held
    /// in registers per A-side load/widen.
    pub(crate) tile_i8_wide: fn(&[i8], &[i8], &mut [[i32; 4]]),
    /// Columns of the widened integer register tile (4 on tiers with no
    /// widening headroom, 8 on AVX2, 16 on AVX-512). Always a multiple
    /// of 4: the packed-panel layout itself never changes.
    pub(crate) int_nr: usize,
    /// Skinny-m kernel over *raw* row-major operands (no packing at
    /// all): `(m, n, k, a, b, c)`, accumulating into `c`.
    pub(crate) small_m_dense: fn(usize, usize, usize, &[i8], &[i8], &mut [i32]),
    /// Panel matrix-vector primitive of the skinny paths:
    /// `acc[j] += Σ_l a_row[l]·panel[l*4+j]` (wrapping) over one
    /// 4-column packed B panel, `a_row.len()` k-values deep.
    pub(crate) panel_mav: fn(&mut [i32; 4], &[i8], &[i8]),
    /// f32 register tile: `(pa, pb, kcb, acc)` with `acc` an
    /// `mr×nr` row-major scratch; each element is continued as a
    /// single fma chain over `l` ascending.
    pub(crate) f32_tile: fn(&[f32], &[f32], usize, &mut [f32]),
    /// Skinny-m f32 kernel over raw operands, same fma-chain contract.
    pub(crate) f32_small_m: fn(usize, usize, usize, &[f32], &[f32], &mut [f32]),
    /// (MR, NR) of `f32_tile`.
    pub(crate) f32_mr: usize,
    pub(crate) f32_nr: usize,
    /// Tier-accelerated [`scalar::pack_a_block`]: byte-identical packed
    /// image (the scalar packer is the layout reference).
    pub(crate) pack_a: fn(&mut [i8], &[i8], usize, usize, usize, usize, usize),
    /// Tier-accelerated [`scalar::pack_b_block`]; byte-identical.
    pub(crate) pack_b: fn(&mut [i8], &[i8], usize, usize, usize, usize, usize),
    /// Tier-accelerated [`scalar::pack_nibbles`]; byte-identical.
    pub(crate) pack_nibbles: fn(&[i8]) -> Vec<i8>,
}

impl fmt::Debug for HostKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostKernel")
            .field("tier", &self.tier)
            .field("f32_tile", &(self.f32_mr, self.f32_nr))
            .finish()
    }
}

static SCALAR: HostKernel = HostKernel {
    tier: HostTier::Scalar,
    tile_i8: scalar::tile_i8,
    tile_i8_wide: scalar::tile_i8_wide,
    int_nr: 4,
    small_m_dense: scalar::small_m_dense,
    panel_mav: scalar::panel_mav,
    f32_tile: scalar::f32_tile,
    f32_small_m: scalar::f32_small_m,
    f32_mr: 4,
    f32_nr: 4,
    pack_a: scalar::pack_a_block,
    pack_b: scalar::pack_b_block,
    pack_nibbles: scalar::pack_nibbles,
};

#[cfg(target_arch = "x86_64")]
static AVX2: HostKernel = HostKernel {
    tier: HostTier::Avx2,
    tile_i8: avx2::tile_i8,
    tile_i8_wide: avx2::tile_i8_wide,
    int_nr: 8,
    small_m_dense: avx2::small_m_dense,
    panel_mav: avx2::panel_mav,
    f32_tile: avx2::f32_tile,
    f32_small_m: avx2::f32_small_m,
    f32_mr: 4,
    f32_nr: 16,
    pack_a: avx2::pack_a_block,
    pack_b: avx2::pack_b_block,
    pack_nibbles: avx2::pack_nibbles,
};

// The AVX-512 tier reuses the AVX2 packers: packing is bandwidth-bound,
// with nothing for the extra vector width to amortize, and the AVX-512
// feature gate implies AVX2. Only the kernels where width buys
// arithmetic throughput are zmm-specific.
#[cfg(target_arch = "x86_64")]
static AVX512: HostKernel = HostKernel {
    tier: HostTier::Avx512,
    tile_i8: avx512::tile_i8,
    tile_i8_wide: avx512::tile_i8_wide,
    int_nr: 16,
    small_m_dense: avx512::small_m_dense,
    panel_mav: avx512::panel_mav,
    f32_tile: avx512::f32_tile,
    f32_small_m: avx512::f32_small_m,
    f32_mr: 8,
    f32_nr: 32,
    pack_a: avx2::pack_a_block,
    pack_b: avx2::pack_b_block,
    pack_nibbles: avx2::pack_nibbles,
};

#[cfg(target_arch = "aarch64")]
static NEON: HostKernel = HostKernel {
    tier: HostTier::Neon,
    tile_i8: neon::tile_i8,
    tile_i8_wide: scalar::tile_i8_wide,
    int_nr: 4,
    small_m_dense: neon::small_m_dense,
    panel_mav: neon::panel_mav,
    f32_tile: neon::f32_tile,
    f32_small_m: neon::f32_small_m,
    f32_mr: 4,
    f32_nr: 8,
    pack_a: scalar::pack_a_block,
    pack_b: scalar::pack_b_block,
    pack_nibbles: scalar::pack_nibbles,
};

/// True when `CAMP_FORCE_SCALAR` pins dispatch to the portable tier
/// (any non-empty value other than `0`). Read once per process.
pub fn force_scalar() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| match std::env::var("CAMP_FORCE_SCALAR") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    })
}

/// Parse a `CAMP_FORCE_TIER` value. Pure so validation is unit-testable
/// without process-global env mutation; empty/unset means "no pin".
pub(crate) fn parse_forced_tier(raw: Option<String>) -> Result<Option<HostTier>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.trim() {
        "" => Ok(None),
        "scalar" => Ok(Some(HostTier::Scalar)),
        "avx2" => Ok(Some(HostTier::Avx2)),
        "avx512" => Ok(Some(HostTier::Avx512)),
        "neon" => Ok(Some(HostTier::Neon)),
        other => {
            Err(format!("CAMP_FORCE_TIER must be one of scalar|avx2|avx512|neon, got {other:?}"))
        }
    }
}

/// The tier `CAMP_FORCE_TIER` pins dispatch to, if any — the superset
/// of [`force_scalar`] (which remains as the scalar shorthand). Read
/// and validated once per process.
///
/// # Panics
/// Panics (once, at first use) on an unrecognized tier name, or when
/// `CAMP_FORCE_SCALAR` and `CAMP_FORCE_TIER` contradict each other —
/// loud beats a silently ignored pin.
pub fn forced_tier() -> Option<HostTier> {
    static FORCED: OnceLock<Option<HostTier>> = OnceLock::new();
    *FORCED.get_or_init(|| {
        let tier = parse_forced_tier(std::env::var("CAMP_FORCE_TIER").ok())
            .unwrap_or_else(|e| panic!("invalid tier override: {e}"));
        match (force_scalar(), tier) {
            (false, t) => t,
            (true, None | Some(HostTier::Scalar)) => Some(HostTier::Scalar),
            (true, Some(other)) => panic!(
                "CAMP_FORCE_SCALAR conflicts with CAMP_FORCE_TIER={}: unset one of them",
                other.name()
            ),
        }
    })
}

impl HostKernel {
    /// The best tier for the running CPU, honoring `CAMP_FORCE_TIER`
    /// and `CAMP_FORCE_SCALAR`. Probed once per process; the result is
    /// a `'static` table the engine stores and dispatches through
    /// directly.
    ///
    /// # Panics
    /// Panics when a forced tier is not runnable on this CPU/build — a
    /// pin that silently fell back would invalidate whatever the caller
    /// was trying to measure.
    pub fn detect() -> &'static HostKernel {
        static CHOSEN: OnceLock<&'static HostKernel> = OnceLock::new();
        CHOSEN.get_or_init(|| match forced_tier() {
            Some(tier) => HostKernel::for_tier(tier).unwrap_or_else(|| {
                panic!("CAMP_FORCE_TIER={}: this CPU/build cannot run that tier", tier.name())
            }),
            None => HostKernel::best_for(CpuFeatures::detect()),
        })
    }

    /// The best tier a feature set admits (ignores the environment).
    pub fn best_for(features: CpuFeatures) -> &'static HostKernel {
        #[cfg(target_arch = "x86_64")]
        {
            if features.has_avx512_tier() {
                return &AVX512;
            }
            if features.avx2 && features.fma {
                return &AVX2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        if features.neon {
            return &NEON;
        }
        let _ = features;
        &SCALAR
    }

    /// The always-available portable tier.
    pub fn scalar() -> &'static HostKernel {
        &SCALAR
    }

    /// A specific tier, if this machine can run it. This is the
    /// programmatic seam the parity proptests use to pit every
    /// available tier against scalar *within one process* (the env
    /// override can't vary per test).
    pub fn for_tier(tier: HostTier) -> Option<&'static HostKernel> {
        let f = CpuFeatures::detect();
        match tier {
            HostTier::Scalar => Some(&SCALAR),
            #[cfg(target_arch = "x86_64")]
            HostTier::Avx2 if f.avx2 && f.fma => Some(&AVX2),
            #[cfg(target_arch = "x86_64")]
            HostTier::Avx512 if f.has_avx512_tier() => Some(&AVX512),
            #[cfg(target_arch = "aarch64")]
            HostTier::Neon if f.neon => Some(&NEON),
            _ => None,
        }
    }

    /// Every tier the running CPU can execute (scalar first).
    pub fn available() -> Vec<&'static HostKernel> {
        [HostTier::Scalar, HostTier::Avx2, HostTier::Avx512, HostTier::Neon]
            .into_iter()
            .filter_map(HostKernel::for_tier)
            .collect()
    }

    /// This kernel's tier.
    pub fn tier(&self) -> HostTier {
        self.tier
    }

    /// Introspection record: tier, probed features, geometry, blocking.
    pub fn info(&self) -> KernelInfo {
        KernelInfo {
            tier: self.tier.name().to_string(),
            simd: self.tier.is_simd(),
            features: CpuFeatures::detect(),
            int_tile_i8: self.int_tile_shape(),
            int_tile_i4: self.int_tile_shape(),
            f32_tile: (self.f32_mr, self.f32_nr),
            int_blocking: int_blocking(),
            f32_blocking: f32_blocking(self.tier),
        }
    }

    /// (MR, NR) of this tier's f32 register tile.
    pub fn f32_tile_shape(&self) -> (usize, usize) {
        (self.f32_mr, self.f32_nr)
    }

    /// (MR, NR) of this tier's widened integer register tile — MR is
    /// always 4 (the packed-panel layout), NR is `int_nr`. i8 and i4
    /// share it: i4 operands are widened to i8 panels before the tile.
    pub fn int_tile_shape(&self) -> (usize, usize) {
        (4, self.int_nr)
    }

    /// Columns of the widened integer register tile (`int_nr/4`
    /// adjacent packed panels per [`HostKernel::tile_i8_wide`] call).
    pub fn int_nr(&self) -> usize {
        self.int_nr
    }

    /// Run the whole-depth integer tile kernel over one packed A/B
    /// panel pair (`kcb*4` bytes each, `kcb` a multiple of 8).
    pub fn tile_i8(&self, pa: &[i8], pb: &[i8], acc: &mut [[i32; 4]; 4]) {
        debug_assert_eq!(pa.len(), pb.len(), "panel depths must match");
        debug_assert_eq!(pa.len() % 32, 0, "panel depth must be a multiple of 8 k-values");
        (self.tile_i8)(pa, pb, acc)
    }

    /// Run the widened integer tile: one packed A panel against the
    /// `int_nr/4` adjacent B panels concatenated in `pb`, accumulating
    /// into `acc[q*4+i]` for panel `q`. Bit-identical to `int_nr/4`
    /// [`HostKernel::tile_i8`] calls (wrapping adds commute).
    pub fn tile_i8_wide(&self, pa: &[i8], pb: &[i8], acc: &mut [[i32; 4]]) {
        debug_assert_eq!(acc.len(), self.int_nr, "acc must cover the full widened tile");
        debug_assert_eq!(pb.len(), (self.int_nr / 4) * pa.len(), "pb must hold int_nr/4 panels");
        debug_assert_eq!(pa.len() % 32, 0, "panel depth must be a multiple of 8 k-values");
        (self.tile_i8_wide)(pa, pb, acc)
    }

    /// Pack a block of row-major B into 4-column panels through this
    /// tier's vectorized packer. Byte-identical to
    /// [`scalar::pack_b_block`] (proptested), so packed images remain
    /// tier-portable.
    pub fn pack_b_block(
        &self,
        buf: &mut [i8],
        b: &[i8],
        n: usize,
        k: usize,
        jc: usize,
        pc: usize,
        kcb: usize,
    ) {
        (self.pack_b)(buf, b, n, k, jc, pc, kcb)
    }

    /// Pack a block of row-major A into 4-row panels through this
    /// tier's vectorized packer; byte-identical to
    /// [`scalar::pack_a_block`].
    pub fn pack_a_block(
        &self,
        buf: &mut [i8],
        a: &[i8],
        m: usize,
        k: usize,
        ic: usize,
        pc: usize,
        kcb: usize,
    ) {
        (self.pack_a)(buf, a, m, k, ic, pc, kcb)
    }

    /// Pack 4-bit values two per byte through this tier's vectorized
    /// packer; byte-identical to [`scalar::pack_nibbles`].
    pub fn pack_nibbles(&self, vals: &[i8]) -> Vec<i8> {
        (self.pack_nibbles)(vals)
    }

    /// Skinny-m integer path (`m ≤` [`crate::loops::SMALL_M_MAX`]):
    /// consume raw A directly, B either raw row-major or as a fully
    /// pre-packed shared panel. Accumulates into `c` with wrapping
    /// adds — bit-identical to the blocked tile path.
    pub fn run_small_m(
        &self,
        m: usize,
        n: usize,
        k: usize,
        plan: &BlockPlan,
        a: &[i8],
        b: SmallB<'_>,
        c: &mut [i32],
    ) {
        small::run_small_m(self, m, n, k, plan, a, b, c)
    }

    /// Skinny-n integer path (`n ≤` [`crate::loops::SMALL_N_MAX`]):
    /// raw A against a fully pre-packed B panel image.
    pub fn run_small_n(
        &self,
        m: usize,
        n: usize,
        k: usize,
        plan: &BlockPlan,
        a: &[i8],
        bpanel: &[i8],
        c: &mut [i32],
    ) {
        small::run_small_n(self, m, n, k, plan, a, bpanel, c)
    }
}

// ---- introspection --------------------------------------------------------

/// What kernel produced a number: selected tier, probed CPU features,
/// register-tile geometry and active cache blocking. Exposed through
/// `CampEngine::kernel_info()` (and `CampBackend::kernel_info`) so
/// serving logs and `BENCH_*.json` rows can record their substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelInfo {
    /// Tier name (`"scalar"`, `"avx2"`, `"neon"`, or a backend-synth
    /// name like `"sim-cycle-accurate"`).
    pub tier: String,
    /// True when the tier uses SIMD.
    pub simd: bool,
    /// The probed CPU features.
    pub features: CpuFeatures,
    /// i8 widened integer register tile (MR always 4 — the packed-panel
    /// layout — NR the tier's widened column count).
    pub int_tile_i8: (usize, usize),
    /// i4 integer register tile. i4 operands are unpacked to i8 panels,
    /// so this currently mirrors `int_tile_i8`; it is reported
    /// separately because the dtypes may diverge (e.g. a future VNNI
    /// nibble kernel) and bench consumers key on dtype.
    pub int_tile_i4: (usize, usize),
    /// f32 register tile (per tier).
    pub f32_tile: (usize, usize),
    /// Active integer-path (mc, nc, kc).
    pub int_blocking: (usize, usize, usize),
    /// Active f32-path (mc, nc, kc).
    pub f32_blocking: (usize, usize, usize),
}

impl fmt::Display for KernelInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} kernel (features: {}; i8 tile {}x{} i4 tile {}x{} blocking {}/{}/{}; f32 tile {}x{} blocking {}/{}/{})",
            self.tier,
            self.features.summary(),
            self.int_tile_i8.0,
            self.int_tile_i8.1,
            self.int_tile_i4.0,
            self.int_tile_i4.1,
            self.int_blocking.0,
            self.int_blocking.1,
            self.int_blocking.2,
            self.f32_tile.0,
            self.f32_tile.1,
            self.f32_blocking.0,
            self.f32_blocking.1,
            self.f32_blocking.2,
        )
    }
}

// ---- env-tunable cache blocking -------------------------------------------

/// Parse the `CAMP_MC`/`CAMP_NC`/`CAMP_KC` overrides from an
/// environment accessor. Pure so the validation is unit-testable
/// without process-global env mutation; values must be positive
/// integers (they are re-aligned to the register tile and k-step by
/// [`BlockPlan::new`], so any positive value is layout-safe).
pub(crate) fn parse_blocking_overrides(
    get: impl Fn(&str) -> Option<String>,
) -> Result<(Option<usize>, Option<usize>, Option<usize>), String> {
    let one = |name: &str| -> Result<Option<usize>, String> {
        match get(name) {
            None => Ok(None),
            Some(raw) => match raw.trim().parse::<usize>() {
                Ok(v) if v >= 1 => Ok(Some(v)),
                _ => Err(format!(
                    "{name} must be a positive integer (cache-block size in elements), got {raw:?}"
                )),
            },
        }
    };
    Ok((one("CAMP_MC")?, one("CAMP_NC")?, one("CAMP_KC")?))
}

/// The process-wide blocking overrides, read and validated once.
///
/// # Panics
/// Panics (once, at first use) on a malformed override — loud beats a
/// silently ignored tuning knob.
fn blocking_overrides() -> (Option<usize>, Option<usize>, Option<usize>) {
    static CACHE: OnceLock<(Option<usize>, Option<usize>, Option<usize>)> = OnceLock::new();
    *CACHE.get_or_init(|| {
        parse_blocking_overrides(|name| std::env::var(name).ok())
            .unwrap_or_else(|e| panic!("invalid cache-blocking override: {e}"))
    })
}

fn apply_overrides(
    (mc, nc, kc): (Option<usize>, Option<usize>, Option<usize>),
    default: (usize, usize, usize),
) -> (usize, usize, usize) {
    (mc.unwrap_or(default.0), nc.unwrap_or(default.1), kc.unwrap_or(default.2))
}

/// Integer-path cache blocking: `CAMP_MC`/`CAMP_NC`/`CAMP_KC` over the
/// [`HOST_BLOCKING`] defaults. One set for **all** tiers — the integer
/// packed-panel layout is shared with the weight registry and the
/// serving session, and the layout depends on the blocking, so it must
/// not vary with the dispatched tier.
pub fn int_blocking() -> (usize, usize, usize) {
    apply_overrides(blocking_overrides(), HOST_BLOCKING)
}

/// f32-path cache blocking for a tier: the env overrides over per-tier
/// defaults sized for the tier's register tile. The f32 packed layout
/// is private to [`HostGemmF32`], so tiers are free to differ here.
pub fn f32_blocking(tier: HostTier) -> (usize, usize, usize) {
    let default = match tier {
        HostTier::Scalar => (64, 256, 256),
        HostTier::Avx2 => (96, 1024, 256),
        HostTier::Avx512 => (128, 1024, 256),
        HostTier::Neon => (96, 512, 256),
    };
    apply_overrides(blocking_overrides(), default)
}

// ---- f32 subsystem --------------------------------------------------------

/// m at or below which the f32 path skips the blocked nest entirely
/// (raw-operand fma kernel, no packing).
pub const SMALL_M_F32: usize = 4;

/// Upper bound of `mr*nr` across tiers (the macro loop's stack
/// scratch); the AVX-512 tier's 8×32 tile is the current maximum.
const MAX_F32_TILE: usize = 256;

/// Debug-build scratch-audit sentinel: a quiet-NaN bit pattern with an
/// improbable payload. Reused scratch (the context's `pa`/`pb` pack
/// buffers, the `MAX_F32_TILE` tile accumulator) is poured full of
/// this before each refill; the asserts downstream then prove the
/// packers overwrite every element of their exactly-sized block (no
/// stale panel from a previous, larger shape survives into a read) and
/// the unsafe tile kernels never touch scratch outside their `mr×nr`
/// window. Release builds compile all of it out.
const SCRATCH_SENTINEL: u32 = 0xFFC0_1DEA;

/// Fill with the sentinel (debug builds only — no-op in release).
#[inline]
fn poison_scratch(buf: &mut [f32]) {
    if cfg!(debug_assertions) {
        buf.fill(f32::from_bits(SCRATCH_SENTINEL));
    }
}

/// True when no sentinel survives, i.e. the packer wrote every element
/// of the exactly-sized block it was handed.
#[inline]
fn scratch_fully_written(buf: &[f32]) -> bool {
    buf.iter().all(|v| v.to_bits() != SCRATCH_SENTINEL)
}

/// True when every element still holds the sentinel — the tile kernel
/// stayed inside its window.
#[inline]
fn scratch_untouched(buf: &[f32]) -> bool {
    buf.iter().all(|v| v.to_bits() == SCRATCH_SENTINEL)
}

fn pack_a_f32(
    buf: &mut [f32],
    a: &[f32],
    m: usize,
    k: usize,
    ic: usize,
    pc: usize,
    kcb: usize,
    mr: usize,
) {
    let panel = kcb * mr;
    for (p, pbuf) in buf.chunks_exact_mut(panel).enumerate() {
        let i0 = ic + p * mr;
        for l in 0..kcb {
            let lg = pc + l;
            for (rx, out) in pbuf[l * mr..l * mr + mr].iter_mut().enumerate() {
                let i = i0 + rx;
                *out = if lg < k && i < m { a[i * k + lg] } else { 0.0 };
            }
        }
    }
}

fn pack_b_f32(
    buf: &mut [f32],
    b: &[f32],
    n: usize,
    k: usize,
    jc: usize,
    pc: usize,
    kcb: usize,
    nr: usize,
) {
    let panel = kcb * nr;
    for (q, pbuf) in buf.chunks_exact_mut(panel).enumerate() {
        let j0 = jc + q * nr;
        for l in 0..kcb {
            let lg = pc + l;
            for (cx, out) in pbuf[l * nr..l * nr + nr].iter_mut().enumerate() {
                let j = j0 + cx;
                *out = if lg < k && j < n { b[lg * n + j] } else { 0.0 };
            }
        }
    }
}

/// Reusable f32 GeMM context over a dispatched [`HostKernel`]: owns the
/// pack scratch so steady-state calls are allocation-free once warm.
///
/// Semantics: `C[i][j]` is one fused-multiply-add chain
/// `acc = fma(A[i][l], B[l][j], acc)` over `l` ascending from `+0.0` —
/// exactly [`crate::reference::gemm_f32_fma_ref`], and **bit-identical
/// across tiers** (the parity proptests pin this). Zero-padding is
/// exact: `fma(0, b, acc) == acc` for every finite `acc` the chain can
/// produce.
#[derive(Debug)]
pub struct HostGemmF32 {
    kernel: &'static HostKernel,
    pa: Vec<f32>,
    pb: Vec<f32>,
}

impl Default for HostGemmF32 {
    fn default() -> Self {
        HostGemmF32::new()
    }
}

impl HostGemmF32 {
    /// Context over the detected best tier.
    pub fn new() -> Self {
        HostGemmF32::with_kernel(HostKernel::detect())
    }

    /// Context pinned to a specific kernel (parity tests, benches).
    pub fn with_kernel(kernel: &'static HostKernel) -> Self {
        HostGemmF32 { kernel, pa: Vec::new(), pb: Vec::new() }
    }

    /// The dispatched kernel.
    pub fn kernel(&self) -> &'static HostKernel {
        self.kernel
    }

    /// Row-major m×n C = A·B (A m×k, B k×n row-major).
    ///
    /// # Panics
    /// Panics if slice lengths do not match the dimensions.
    pub fn gemm(&mut self, m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0f32; m * n];
        self.gemm_into(m, n, k, a, b, &mut c);
        c
    }

    /// [`HostGemmF32::gemm`] into a caller-owned buffer (overwritten).
    pub fn gemm_into(&mut self, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        assert_eq!(a.len(), m * k, "A must be m×k");
        assert_eq!(b.len(), k * n, "B must be k×n");
        assert_eq!(c.len(), m * n, "C must be m×n");
        c.fill(0.0);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        if m <= SMALL_M_F32 {
            (self.kernel.f32_small_m)(m, n, k, a, b, c);
            return;
        }
        let (mr, nr) = (self.kernel.f32_mr, self.kernel.f32_nr);
        let plan = BlockPlan::new(m, n, k, mr, nr, 1, f32_blocking(self.kernel.tier));
        if self.pb.len() < plan.nc * plan.kc {
            self.pb.resize(plan.nc * plan.kc, 0.0);
        }
        if self.pa.len() < plan.mc * plan.kc {
            self.pa.resize(plan.mc * plan.kc, 0.0);
        }
        let HostGemmF32 { kernel, pa, pb } = self;
        let mut acc = [0f32; MAX_F32_TILE];
        poison_scratch(&mut acc);
        for_each_b_block(&plan, |jc, ncb, pc, kcb| {
            poison_scratch(&mut pb[..ncb * kcb]);
            pack_b_f32(&mut pb[..ncb * kcb], b, n, k, jc, pc, kcb, nr);
            debug_assert!(
                scratch_fully_written(&pb[..ncb * kcb]),
                "pack_b_f32 left stale scratch inside its exactly-sized {ncb}x{kcb} block"
            );
            for_each_row_strip(&plan, |ic, mcb| {
                poison_scratch(&mut pa[..mcb * kcb]);
                pack_a_f32(&mut pa[..mcb * kcb], a, m, k, ic, pc, kcb, mr);
                debug_assert!(
                    scratch_fully_written(&pa[..mcb * kcb]),
                    "pack_a_f32 left stale scratch inside its exactly-sized {mcb}x{kcb} block"
                );
                for q in 0..ncb / nr {
                    let pbp = &pb[q * kcb * nr..(q + 1) * kcb * nr];
                    for p in 0..mcb / mr {
                        let pap = &pa[p * kcb * mr..(p + 1) * kcb * mr];
                        // Continue each element's fma chain from the
                        // value previous k blocks left in C (first
                        // block: the +0.0 the chain starts from), so
                        // blocked and skinny paths fold identically.
                        let i0 = ic + p * mr;
                        let j0 = jc + q * nr;
                        for r in 0..mr {
                            for s in 0..nr {
                                let (i, j) = (i0 + r, j0 + s);
                                acc[r * nr + s] = if i < m && j < n { c[i * n + j] } else { 0.0 };
                            }
                        }
                        (kernel.f32_tile)(pap, pbp, kcb, &mut acc[..mr * nr]);
                        debug_assert!(
                            scratch_untouched(&acc[mr * nr..]),
                            "f32 tile kernel wrote outside its {mr}x{nr} scratch window"
                        );
                        for r in 0..mr {
                            let i = i0 + r;
                            if i >= m {
                                break;
                            }
                            for s in 0..nr {
                                let j = j0 + s;
                                if j < n {
                                    c[i * n + j] = acc[r * nr + s];
                                }
                            }
                        }
                    }
                }
            });
        });
    }
}

/// One-shot f32 GeMM on the detected best tier; see [`HostGemmF32`].
pub fn gemm_f32(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    HostGemmF32::new().gemm(m, n, k, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{gemm_f32_fma_ref, gemm_i32_ref, SplitMix64};

    fn f32_vec(r: &mut SplitMix64, len: usize) -> Vec<f32> {
        (0..len).map(|_| (r.next_i8(-64, 64) as f32) * 0.25).collect()
    }

    #[test]
    fn detect_returns_a_usable_tier() {
        let hk = HostKernel::detect();
        // scalar must always be reachable, and the detected tier must
        // be among the available set
        assert!(HostKernel::available().iter().any(|k| k.tier() == hk.tier()));
        assert_eq!(HostKernel::scalar().tier(), HostTier::Scalar);
        assert!(HostKernel::for_tier(HostTier::Scalar).is_some());
    }

    #[test]
    fn kernel_info_reports_tier_and_blocking() {
        let info = HostKernel::scalar().info();
        assert_eq!(info.tier, "scalar");
        assert!(!info.simd);
        assert_eq!(info.int_tile_i8, (4, 4));
        assert_eq!(info.int_tile_i4, (4, 4));
        assert_eq!(info.int_blocking, int_blocking());
        let text = info.to_string();
        assert!(text.contains("scalar"), "{text}");
        assert!(text.contains("blocking"), "{text}");
        // widened tiles are per tier, but MR and the panel layout never
        // change: every tier's tile is 4×(multiple of 4)
        for hk in HostKernel::available() {
            let (mr, nr) = hk.int_tile_shape();
            assert_eq!(mr, 4, "{:?}", hk.tier());
            assert_eq!(nr % 4, 0, "{:?}", hk.tier());
            assert_eq!(hk.info().int_tile_i8, (mr, nr));
        }
    }

    #[test]
    fn forced_tier_parser_validates() {
        assert_eq!(parse_forced_tier(None).unwrap(), None);
        assert_eq!(parse_forced_tier(Some("".into())).unwrap(), None);
        assert_eq!(parse_forced_tier(Some(" scalar ".into())).unwrap(), Some(HostTier::Scalar));
        assert_eq!(parse_forced_tier(Some("avx2".into())).unwrap(), Some(HostTier::Avx2));
        assert_eq!(parse_forced_tier(Some("avx512".into())).unwrap(), Some(HostTier::Avx512));
        assert_eq!(parse_forced_tier(Some("neon".into())).unwrap(), Some(HostTier::Neon));
        for bad in ["AVX2", "sse", "1", "scalar,avx2"] {
            let err = parse_forced_tier(Some(bad.to_string())).unwrap_err();
            assert!(err.contains("CAMP_FORCE_TIER"), "{err}");
        }
    }

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(HostTier::Scalar.name(), "scalar");
        assert_eq!(HostTier::Avx2.name(), "avx2");
        assert_eq!(HostTier::Avx512.name(), "avx512");
        assert_eq!(HostTier::Neon.name(), "neon");
        assert!(HostTier::Avx2.is_simd());
        assert!(HostTier::Avx512.is_simd());
        assert!(!HostTier::Scalar.is_simd());
    }

    #[test]
    fn blocking_override_parser_validates() {
        let none = parse_blocking_overrides(|_| None).unwrap();
        assert_eq!(none, (None, None, None));
        let all = parse_blocking_overrides(|name| match name {
            "CAMP_MC" => Some("64".into()),
            "CAMP_NC" => Some(" 128 ".into()),
            "CAMP_KC" => Some("512".into()),
            _ => None,
        })
        .unwrap();
        assert_eq!(all, (Some(64), Some(128), Some(512)));
        for bad in ["0", "-3", "huge", "", "12.5"] {
            let err = parse_blocking_overrides(|name| (name == "CAMP_KC").then(|| bad.to_string()))
                .unwrap_err();
            assert!(err.contains("CAMP_KC"), "{err}");
        }
        // overrides apply over any default
        assert_eq!(apply_overrides((Some(8), None, Some(32)), (1, 2, 3)), (8, 2, 32));
    }

    #[test]
    fn f32_blocking_is_per_tier_but_env_shared() {
        assert_ne!(f32_blocking(HostTier::Scalar), f32_blocking(HostTier::Avx2));
        // the int path is one layout for all tiers
        let info_a = HostKernel::scalar().info();
        assert_eq!(info_a.int_blocking, int_blocking());
    }

    #[test]
    fn f32_gemm_matches_the_fma_reference_bitwise() {
        let mut r = SplitMix64::new(11);
        let mut ctx = HostGemmF32::new();
        for (m, n, k) in [(1, 1, 1), (3, 5, 7), (4, 16, 9), (13, 21, 40), (32, 48, 65)] {
            let a = f32_vec(&mut r, m * k);
            let b = f32_vec(&mut r, k * n);
            let c = ctx.gemm(m, n, k, &a, &b);
            let want = gemm_f32_fma_ref(m, n, k, &a, &b);
            assert!(
                c.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{m}x{n}x{k} diverged from the fma reference"
            );
        }
    }

    #[test]
    fn f32_zero_dims_are_degenerate() {
        let mut ctx = HostGemmF32::new();
        assert!(ctx.gemm(0, 4, 4, &[], &f32_vec(&mut SplitMix64::new(1), 16)).is_empty());
        let c = ctx.gemm(2, 2, 0, &[], &[]);
        assert_eq!(c, vec![0.0; 4]);
    }

    #[test]
    fn f32_context_is_allocation_free_when_warm() {
        // same shape twice: the second call must not regrow scratch
        let mut r = SplitMix64::new(5);
        let (m, n, k) = (24, 40, 33);
        let a = f32_vec(&mut r, m * k);
        let b = f32_vec(&mut r, k * n);
        let mut ctx = HostGemmF32::new();
        let first = ctx.gemm(m, n, k, &a, &b);
        let (cap_a, cap_b) = (ctx.pa.capacity(), ctx.pb.capacity());
        let second = ctx.gemm(m, n, k, &a, &b);
        assert_eq!(first, second);
        assert_eq!((ctx.pa.capacity(), ctx.pb.capacity()), (cap_a, cap_b));
    }

    #[test]
    fn warm_scratch_never_leaks_into_a_smaller_problem() {
        // A big blocked shape grows `pa`/`pb` to their high-water mark
        // and fills them with nonzero panels. Every later, smaller
        // problem on the warm context — one blocked, one skinny-m —
        // must be bit-identical to a fresh context (and the fma
        // reference): the packers own exactly-sized sub-slices, so no
        // stale panel tail from the big shape can reach a read. The
        // debug-build sentinel audit in `gemm_into` checks the same
        // property per block; this pins it end-to-end in any build.
        for hk in HostKernel::available() {
            let mut r = SplitMix64::new(0x5C4A_7C11);
            let mut warm = HostGemmF32::with_kernel(hk);
            let (bm, bn, bk) = (96, 80, 70);
            let big_a = f32_vec(&mut r, bm * bk);
            let big_b = f32_vec(&mut r, bk * bn);
            warm.gemm(bm, bn, bk, &big_a, &big_b);
            for (m, n, k) in [(12, 9, 5), (2, 17, 7)] {
                let a = f32_vec(&mut r, m * k);
                let b = f32_vec(&mut r, k * n);
                let from_warm = warm.gemm(m, n, k, &a, &b);
                let from_fresh = HostGemmF32::with_kernel(hk).gemm(m, n, k, &a, &b);
                assert_eq!(from_warm, from_fresh, "{m}x{n}x{k} on {}", hk.tier().name());
                assert_eq!(from_warm, gemm_f32_fma_ref(m, n, k, &a, &b));
            }
        }
    }

    #[test]
    fn every_available_tier_matches_scalar_int_semantics() {
        // quick deterministic cross-check (the proptest suite does the
        // heavy lifting): every tier's tile kernel equals the camp
        // reference on a packed panel pair
        let mut r = SplitMix64::new(77);
        let kcb = 64;
        let pa = r.i8_vec(kcb * 4, -128, 127);
        let pb = r.i8_vec(kcb * 4, -128, 127);
        let mut want = [[0i32; 4]; 4];
        HostKernel::scalar().tile_i8(&pa, &pb, &mut want);
        for hk in HostKernel::available() {
            let mut got = [[0i32; 4]; 4];
            hk.tile_i8(&pa, &pb, &mut got);
            assert_eq!(got, want, "tier {:?}", hk.tier());
        }
        // and the scalar tile is the 4x4 gemm it claims to be
        let want_ref = gemm_i32_ref(4, 4, kcb, &unpack_a(&pa, kcb), &unpack_b(&pb, kcb));
        let flat: Vec<i32> = want.iter().flatten().copied().collect();
        assert_eq!(flat, want_ref);
    }

    fn unpack_a(pa: &[i8], kcb: usize) -> Vec<i8> {
        let mut a = vec![0i8; 4 * kcb];
        for l in 0..kcb {
            for i in 0..4 {
                a[i * kcb + l] = pa[l * 4 + i];
            }
        }
        a
    }

    fn unpack_b(pb: &[i8], kcb: usize) -> Vec<i8> {
        let mut b = vec![0i8; kcb * 4];
        for l in 0..kcb {
            b[l * 4..l * 4 + 4].copy_from_slice(&pb[l * 4..l * 4 + 4]);
        }
        b
    }
}
