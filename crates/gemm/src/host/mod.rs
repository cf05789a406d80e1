//! Host-speed micro-kernel tier with runtime CPU-feature dispatch.
//!
//! A [`crate::method::Method`] names a *simulated* kernel — programs in
//! the virtual vector ISA, timed by the pipeline model. This module is
//! what the host engine runs instead: a [`HostKernel`] is a table of
//! native micro-kernels (portable scalar, AVX2, AVX-512, AVX-512 VNNI,
//! AMX-INT8, NEON) selected **once** from a [`CpuFeatures`] runtime probe and then
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
//! * **the blocked macro-kernel** — [`HostKernel::run_blocked`], one
//!   work unit's loop nest over a whole packed A image and B's panel
//!   image. Every tier but `amx` walks the shared panels through its
//!   register tile (`blocked.rs`); `amx` owns its A image's layout and
//!   runs 2×2 `tdpbssd` tiles over the same B panels (`amx.rs`).
//! * **`requant_into` / `requant_add_sat`** — the inference glue's
//!   i32→i8 sweeps between GeMMs ([`Scale`]): one scalar body that the
//!   SIMD tiers recompile at their own vector width, bit-identical on
//!   every tier.
//!
//! Cache blocking (`mc`/`nc`/`kc`) is the constant
//! [`HOST_BLOCKING`], one set for every tier: the packed-panel layout
//! depends on it and is shared with the weight registry, so it must
//! not vary with the dispatched tier (or with the operator's shell).
//! `CAMP_FORCE_TIER={scalar,avx2,avx512,avx512vnni,amx,neon}` pins dispatch to a
//! specific tier, panicking on an unknown name or a tier the CPU
//! cannot run — the one environment value in the workspace that fails
//! loudly (`docs/KNOBS.md`). The integer path keeps
//! one packed-panel layout across tiers — the 4-wide camp panel layout
//! shared with the weight registry and the serving session — so a
//! panel packed by any component is consumable by every tier. Tiers
//! differ only in how many adjacent panels one register-tile call
//! consumes (`int_nr/4`, see [`HostKernel::tile_i8_into`]; the skinny
//! paths' grouped panel primitive takes the same group) and in how an
//! entry is vectorized — except A's image on the blocked route, which
//! a tier with its own macro-kernel lays out its own way (so an A image
//! is built by [`HostKernel::prepack_a`] of the kernel that reads it).
//! Each entry is either hand-written per tier — the register tiles,
//! the grouped panel kernel, AVX2's A packer, `amx`'s nest — or one
//! portable body in `scalar.rs` / `requant.rs` that `recompile!`
//! compiles again at each SIMD tier's width; byte-identical images and
//! bit-identical results either way.

// GEMM entry points naturally take (m, n, k, a, b, c) plus plan/tier
// context, and the kernel table's value is precisely its bare fn types.
#![allow(clippy::too_many_arguments, clippy::type_complexity)]

/// A SIMD tier's copies of the portable bodies (`scalar.rs`,
/// `requant.rs`): for each `fn name(args) = body;` line, an `unsafe fn`
/// under `#[target_feature(enable = $features)]` whose whole code is a
/// call of the `#[inline(always)]` body — so LLVM compiles that body
/// again, vectorized at the tier's width — and the safe table entry
/// `name`, which calls it after a debug check of the runtime probe.
macro_rules! recompile {
    ($features:literal, $probe:expr;
     $( fn $name:ident($($arg:ident: $ty:ty),* $(,)?) = $body:path; )*) => {
        $(
            /// A table entry: its portable body, recompiled with this
            /// tier's features (`recompile!` in `host/mod.rs`).
            pub(super) fn $name($($arg: $ty),*) {
                // SAFETY: the body is safe code; the features are the one
                // precondition of calling the copy compiled with them.
                #[target_feature(enable = $features)]
                unsafe fn recompiled($($arg: $ty),*) {
                    $body($($arg),*)
                }
                debug_assert!($probe, concat!(stringify!($name), " dispatched without ", $features));
                // SAFETY: the HostKernel table routes to this entry only
                // after the runtime probe found `$features` (debug-asserted
                // above).
                unsafe { recompiled($($arg),*) }
            }
        )*
    };
}

mod blocked;
mod requant;
pub mod scalar;
pub mod small;

#[cfg(target_arch = "x86_64")]
mod amx;
#[cfg(target_arch = "x86_64")]
pub mod avx2;
#[cfg(target_arch = "x86_64")]
pub mod avx512;
#[cfg(target_arch = "aarch64")]
pub mod neon;

use std::fmt;
use std::sync::OnceLock;

use crate::loops::BlockPlan;
use crate::weights::HOST_BLOCKING;

pub use blocked::AImage;
pub use requant::Scale;
pub use small::SmallB;

#[cfg(target_arch = "x86_64")]
use avx512::QUAD_TRANSPOSE;

// ---- runtime feature probe ------------------------------------------------

/// What the host CPU can do, probed once at engine construction. The
/// probe is cheap and honest: on x86_64 it asks the OS/CPUID via
/// `is_x86_feature_detected!` (and, for AMX, CPUID leaf 7 plus the
/// OS's tile-data grant); on aarch64 NEON is architecturally
/// guaranteed; everywhere else every flag is false and the scalar tier
/// serves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuFeatures {
    /// AVX2 256-bit integer/float SIMD (x86_64).
    pub avx2: bool,
    /// FMA3 fused multiply-add (x86_64; part of the AVX2 tier's
    /// feature gate).
    pub fma: bool,
    /// AVX-512 foundation (512-bit i32 lanes; x86_64).
    pub avx512f: bool,
    /// AVX-512 byte/word instructions (zmm `vpshufb`/`vpmaddwd`;
    /// required, with `avx512f` and `avx512vl`, for the AVX-512 tier).
    pub avx512bw: bool,
    /// AVX-512 vector-length extensions (EVEX at 128/256-bit widths).
    pub avx512vl: bool,
    /// AVX-512 VNNI (`vpdpbusd`: four u8×i8 products accumulated into
    /// an i32 lane in one issue — what separates the `avx512vnni` tier
    /// from `avx512`).
    pub avx512vnni: bool,
    /// AMX-TILE and AMX-INT8 (`tdpbssd`: a 16×64-byte by 16×64-byte
    /// i8 tile product into a 16×16 i32 tile), *and* the OS's grant of
    /// tile data to this process (Linux `arch_prctl`, requested once per
    /// process by the probe) — what separates the `amx` tier from
    /// `avx512vnni`.
    pub amx_int8: bool,
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
                avx512vnni: is_x86_feature_detected!("avx512vnni"),
                // `is_x86_feature_detected!("amx-int8")` is unstable
                amx_int8: amx::tiles_usable(),
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

    /// True when this feature set admits the AVX-512 VNNI tier: the
    /// AVX-512 tier's gate plus `vpdpbusd`.
    pub fn has_avx512vnni_tier(&self) -> bool {
        self.has_avx512_tier() && self.avx512vnni
    }

    /// True when this feature set admits the AMX tier: the AVX-512 VNNI
    /// tier's gate (its table is the `amx` table's base) plus usable
    /// AMX-INT8 tiles.
    pub fn has_amx_tier(&self) -> bool {
        self.has_avx512vnni_tier() && self.amx_int8
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
        if self.avx512vnni {
            out.push("avx512vnni");
        }
        if self.amx_int8 {
            out.push("amx_int8");
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
    /// Portable scalar Rust — always available; most of its entries are
    /// the very bodies the SIMD tiers recompile at their width.
    Scalar,
    /// x86_64 AVX2 (+FMA): `vpshufb`/`vpmaddwd` widening i8 tile
    /// (4×8 widened).
    Avx2,
    /// x86_64 AVX-512 (F+BW+VL): zmm `vpshufb`/`vpmaddwd` widening i8
    /// tile (4×16 widened).
    Avx512,
    /// x86_64 AVX-512 with VNNI: the [`HostTier::Avx512`] table with a
    /// `vpdpbusd` 4×16 tile — multiply, widen and accumulate in one
    /// issue, the commodity analogue of `camp.s8`.
    Avx512Vnni,
    /// x86_64 AMX-INT8: the [`HostTier::Avx512Vnni`] table plus its own
    /// blocked macro-kernel, 2×2 `tdpbssd` tiles (32×32 of C per step)
    /// over its own A image and the shared B panels.
    Amx,
    /// aarch64 NEON: `smlal`-lane widening i8 tile.
    Neon,
}

impl HostTier {
    /// Stable lowercase name (used in logs, `benchmark/` results files
    /// and the `CAMP_FORCE_TIER` knob).
    pub fn name(self) -> &'static str {
        match self {
            HostTier::Scalar => "scalar",
            HostTier::Avx2 => "avx2",
            HostTier::Avx512 => "avx512",
            HostTier::Avx512Vnni => "avx512vnni",
            HostTier::Amx => "amx",
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
/// ([`HostKernel::pack_a_block`] / [`HostKernel::pack_b_block`]),
/// so pre-packed weights and B panels are tier-portable. A blocked
/// request's A image is the one exception: a tier with its own
/// macro-kernel reads A in its own layout.
pub struct HostKernel {
    tier: HostTier,
    /// Whole-depth 4×4 widening integer tile kernel: `pa`/`pb` are one
    /// packed A panel and B panel of `kcb` k-values (`kcb*4` bytes,
    /// `kcb` a multiple of 8); accumulates into `acc` with wrapping
    /// i32 adds.
    pub(crate) tile_i8: fn(&[i8], &[i8], &mut [[i32; 4]; 4]),
    /// Widened register tile, accumulated where it belongs:
    /// `(pa, pb, c, ldc)` — one packed A panel against `int_nr/4`
    /// *adjacent* packed B panels (`pb` is their contiguous
    /// concatenation), `c[i*ldc + q*4 + j] += Σ_l pa[l*4+i]·pb_q[l*4+j]`
    /// (wrapping) for the four rows `i` and panel `q`'s columns `j`;
    /// `c` holds at least `3*ldc + int_nr` elements. Same panel layout,
    /// same wrapping arithmetic as [`HostKernel::tile_i8`] — more
    /// columns held in registers per A-side load, and a result that
    /// lands in the caller's row-major matrix as whole-row vector adds
    /// instead of in a staging tile.
    pub(crate) tile_i8_into: fn(&[i8], &[i8], &mut [i32], usize),
    /// Columns of the widened integer register tile (4 on tiers with no
    /// widening headroom, 8 on AVX2, 16 on both AVX-512 tiers). Always a
    /// multiple of 4: the packed-panel layout itself never changes.
    pub(crate) int_nr: usize,
    /// Skinny-m kernel over *raw* row-major operands (no packing at
    /// all): `(m, n, k, a, b, c)`, accumulating into `c`.
    pub(crate) small_m_dense: fn(usize, usize, usize, &[i8], &[i8], &mut [i32]),
    /// Grouped panel primitive of the skinny paths, the one kernel the
    /// panel walk calls: `(acc, a, lda, kreal, panels, npanels)`.
    /// `rows = acc.len() / npanels` (1..=4) raw A rows, row `i` at
    /// `a[i*lda..i*lda + kreal]`, against `npanels` *adjacent* packed B
    /// panels concatenated in `panels` (`stride = panels.len() /
    /// npanels` bytes each: 4 columns × the block's padded depth, at
    /// least `kreal`):
    /// `acc[i*npanels + q][j] += Σ_{l<kreal} a[i*lda + l]·panels[q*stride + l*4 + j]`
    /// (wrapping). For any `npanels` up to its group (`int_nr/4`) a SIMD
    /// tier prepares each 16 A bytes once for the whole group, loads
    /// each B vector once for all rows, keeps `rows × npanels` vertical
    /// accumulators and prefetches, one line per B load, the
    /// `panels.len()` bytes that *follow* `panels` — the walk's next
    /// group, or nothing anyone reads: a prefetch is a hint, the
    /// address is never dereferenced. The `kreal % 16` tail (`% 8` on
    /// AVX2) runs the one-panel [`scalar::panel_mav`] body.
    pub(crate) panel_group: fn(&mut [[i32; 4]], &[i8], usize, usize, &[i8], usize),
    /// A-block packer: [`crate::reference::pack_a_ref`]'s image, byte
    /// for byte, on every tier.
    pub(crate) pack_a: fn(&mut [i8], &[i8], usize, usize, usize, usize, usize),
    /// B-block packer: [`crate::reference::pack_b_ref`]'s image.
    pub(crate) pack_b: fn(&mut [i8], &[i8], usize, usize, usize, usize, usize),
    /// Requantization into a destination, with a floor: `(acc, scale,
    /// floor, dst)` — see [`HostKernel::requant_into`]. Every tier runs
    /// the one scalar body of the `requant` module, the SIMD tiers
    /// recompiled at their vector width.
    pub(crate) requant_into: fn(&[i32], Scale<'_>, i8, &mut [i8]),
    /// Saturating residual add: `(acc, mults, x)` — see
    /// [`HostKernel::requant_add_sat`]; the same one body.
    pub(crate) requant_add_sat: fn(&[i32], &[f32], &mut [i8]),
    /// The tier's own blocked macro-kernel and the A image it reads;
    /// `None` runs the shared panel nest over
    /// [`HostKernel::tile_i8_into`] on the shared A panels.
    pub(crate) macro_kernel: Option<MacroKernel>,
}

/// A tier's own blocked route: the A image layout its nest reads (a
/// tier-specific image, built by the same two builders as the shared
/// one — `prepare` or the unit's arena — through
/// [`HostKernel::prepack_a`]) and the nest itself.
#[derive(Clone, Copy)]
pub(crate) struct MacroKernel {
    /// Rows × columns of C one step of the nest computes.
    pub(crate) tile: (usize, usize),
    /// Bytes of the A image under a plan.
    pub(crate) a_len: fn(&BlockPlan) -> usize,
    /// Build the A image: `(dst, a, m, k, plan)`, `dst` exactly
    /// `a_len(plan)` bytes.
    pub(crate) pack_a: fn(&mut [i8], &[i8], usize, usize, &BlockPlan),
    /// Bytes of per-worker scratch one nest under a plan uses.
    pub(crate) scratch_len: fn(&BlockPlan) -> usize,
    /// The nest: `(n, plan, a, b, c, scratch)`, [`HostKernel::run_blocked`]'s
    /// contract.
    pub(crate) run: fn(usize, &BlockPlan, AImage<'_>, &[i8], &mut [i32], &mut [i8]),
}

impl fmt::Debug for HostKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostKernel")
            .field("tier", &self.tier)
            .field("int_nr", &self.int_nr)
            .finish()
    }
}

static SCALAR: HostKernel = HostKernel {
    tier: HostTier::Scalar,
    tile_i8: scalar::tile_i8,
    tile_i8_into: scalar::tile_i8_into,
    int_nr: 4,
    small_m_dense: scalar::small_m_dense,
    panel_group: |acc, a, lda, kreal, panels, npanels| {
        scalar::panel_group_with(scalar::panel_mav, 0, acc, a, lda, kreal, panels, npanels)
    },
    pack_a: scalar::pack_a_block,
    pack_b: scalar::pack_b_block,
    requant_into: requant::requant_into,
    requant_add_sat: requant::requant_add_sat,
    macro_kernel: None,
};

// Hand-written for AVX2: the 4×8 tile (the 4×4 tile is its one-panel
// instance), the grouped panel kernel and the A packer's byte
// transposes. Every other entry is a portable body recompiled at ymm
// width (`recompile!`).
#[cfg(target_arch = "x86_64")]
static AVX2: HostKernel = HostKernel {
    tier: HostTier::Avx2,
    tile_i8: avx2::tile_i8,
    tile_i8_into: |pa, pb, c, ldc| scalar::tile_into_with(avx2::tile_i8_wide, 8, pa, pb, c, ldc),
    int_nr: 8,
    small_m_dense: avx2::small_m_dense,
    panel_group: avx2::panel_group,
    pack_a: avx2::pack_a_block,
    pack_b: avx2::pack_b_block,
    requant_into: avx2::requant_into,
    requant_add_sat: avx2::requant_add_sat,
    macro_kernel: None,
};

// Only the kernels where vector width buys arithmetic are hand-written
// for AVX-512: the 4×16 tile (the 4×4 tile is its one-panel instance)
// and the grouped panel kernel. The A packer is AVX2's: recompiled at
// zmm width, the portable body lost to its 16-byte transposes once the
// block leaves L1. Every other entry is a portable body recompiled at
// zmm width (`recompile!`).
#[cfg(target_arch = "x86_64")]
static AVX512: HostKernel = HostKernel {
    tier: HostTier::Avx512,
    tile_i8: avx512::tile_i8,
    tile_i8_into: avx512::tile_i8_into,
    int_nr: 16,
    small_m_dense: avx512::small_m_dense,
    panel_group: avx512::panel_group,
    pack_a: avx2::pack_a_block,
    pack_b: avx512::pack_b_block,
    requant_into: avx512::requant_into,
    requant_add_sat: avx512::requant_add_sat,
    macro_kernel: None,
};

// The VNNI tier is the AVX-512 table with one entry swapped: the tile
// that serves every blocked GeMM. The 4×4 tile only sees trailing panel
// groups. The skinny kernels keep widening: in isolation they are below
// their roofs and a `vpdpbusd` group kernel reads faster, but the
// served m = 1 decode walk is bound by L3 bandwidth in situ, where it
// buys no end-to-end time (docs/HOST_KERNELS.md, "The grouped panel walk").
#[cfg(target_arch = "x86_64")]
static AVX512VNNI: HostKernel =
    HostKernel { tier: HostTier::Avx512Vnni, tile_i8_into: avx512::tile_i8_into_vnni, ..AVX512 };

// The AMX tier is the VNNI table plus its own blocked macro-kernel:
// every blocked GeMM runs on `tdpbssd` tiles over the registry's
// unchanged 4-wide B panels, with A in the tier's own image. Everything
// else — decode's skinny kernels, the shared packers, requant, and the
// `tile_i8` the simulator borrows — is the VNNI tier's code.
#[cfg(target_arch = "x86_64")]
static AMX: HostKernel =
    HostKernel { tier: HostTier::Amx, macro_kernel: Some(amx::MACRO_KERNEL), ..AVX512VNNI };

#[cfg(target_arch = "aarch64")]
static NEON: HostKernel = HostKernel {
    tier: HostTier::Neon,
    tile_i8: neon::tile_i8,
    tile_i8_into: scalar::tile_i8_into,
    int_nr: 4,
    small_m_dense: neon::small_m_dense,
    panel_group: |acc, a, lda, kreal, panels, npanels| {
        scalar::panel_group_with(neon::panel_mav, 0, acc, a, lda, kreal, panels, npanels)
    },
    pack_a: scalar::pack_a_block,
    pack_b: scalar::pack_b_block,
    requant_into: requant::requant_into,
    requant_add_sat: requant::requant_add_sat,
    macro_kernel: None,
};

/// Parse a `CAMP_FORCE_TIER` value. Pure so validation is unit-testable
/// without process-global env mutation; empty/unset means "no pin".
pub(crate) fn parse_forced_tier(raw: Option<String>) -> Result<Option<HostTier>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.trim() {
        "" => Ok(None),
        "scalar" => Ok(Some(HostTier::Scalar)),
        "avx2" => Ok(Some(HostTier::Avx2)),
        "avx512" => Ok(Some(HostTier::Avx512)),
        "avx512vnni" => Ok(Some(HostTier::Avx512Vnni)),
        "amx" => Ok(Some(HostTier::Amx)),
        "neon" => Ok(Some(HostTier::Neon)),
        other => Err(format!(
            "CAMP_FORCE_TIER must be one of scalar|avx2|avx512|avx512vnni|amx|neon, got {other:?}"
        )),
    }
}

/// The tier `CAMP_FORCE_TIER` pins dispatch to, if any. Read and
/// validated once per process.
///
/// # Panics
/// Panics (once, at first use) on an unrecognized tier name — a pin
/// that was silently ignored would invalidate what it was set to
/// measure.
pub fn forced_tier() -> Option<HostTier> {
    static FORCED: OnceLock<Option<HostTier>> = OnceLock::new();
    *FORCED.get_or_init(|| {
        parse_forced_tier(std::env::var("CAMP_FORCE_TIER").ok())
            .unwrap_or_else(|e| panic!("invalid tier override: {e}"))
    })
}

impl HostKernel {
    /// The best tier for the running CPU, honoring `CAMP_FORCE_TIER`.
    /// Probed once per process; the result is a `'static` table the
    /// engine stores and dispatches through directly.
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
            if features.has_amx_tier() {
                return &AMX;
            }
            if features.has_avx512vnni_tier() {
                return &AVX512VNNI;
            }
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
    /// programmatic seam the parity proptests use to run every
    /// available tier against the references *within one process* (the
    /// env override can't vary per test).
    pub fn for_tier(tier: HostTier) -> Option<&'static HostKernel> {
        let f = CpuFeatures::detect();
        match tier {
            HostTier::Scalar => Some(&SCALAR),
            #[cfg(target_arch = "x86_64")]
            HostTier::Avx2 if f.avx2 && f.fma => Some(&AVX2),
            #[cfg(target_arch = "x86_64")]
            HostTier::Avx512 if f.has_avx512_tier() => Some(&AVX512),
            #[cfg(target_arch = "x86_64")]
            HostTier::Avx512Vnni if f.has_avx512vnni_tier() => Some(&AVX512VNNI),
            #[cfg(target_arch = "x86_64")]
            HostTier::Amx if f.has_amx_tier() => Some(&AMX),
            #[cfg(target_arch = "aarch64")]
            HostTier::Neon if f.neon => Some(&NEON),
            _ => None,
        }
    }

    /// Every tier the running CPU can execute (scalar first).
    pub fn available() -> Vec<&'static HostKernel> {
        use HostTier::*;
        [Scalar, Avx2, Avx512, Avx512Vnni, Amx, Neon]
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
            int_tile: self.macro_kernel.map_or((4, self.int_nr), |mk| mk.tile),
            int_blocking: HOST_BLOCKING,
        }
    }

    /// Columns of the widened integer register tile (`int_nr/4`
    /// adjacent packed panels per [`HostKernel::tile_i8_into`] call).
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
    /// `int_nr/4` adjacent B panels concatenated in `pb`, accumulated
    /// into four rows of a row-major matrix —
    /// `c[i*ldc + q*4 + j]` for row `i`, panel `q`, column `j`, with
    /// `ldc >= int_nr` and `c.len() >= 3*ldc + int_nr`. Bit-identical to
    /// `int_nr/4` [`HostKernel::tile_i8`] calls (wrapping adds commute).
    pub fn tile_i8_into(&self, pa: &[i8], pb: &[i8], c: &mut [i32], ldc: usize) {
        debug_assert_eq!(pb.len(), (self.int_nr / 4) * pa.len(), "pb must hold int_nr/4 panels");
        debug_assert_eq!(pa.len() % 32, 0, "panel depth must be a multiple of 8 k-values");
        debug_assert!(ldc >= self.int_nr, "rows of the tile must not overlap");
        (self.tile_i8_into)(pa, pb, c, ldc)
    }

    /// [`HostKernel::tile_i8_into`] with the result as `int_nr/4`
    /// separate 4×4 tiles, `acc[q*4+i][j]` for panel `q`: the widened
    /// tile computed into a row-major staging tile and added to `acc`.
    /// The blocked nest does not come through here; the kernel probes
    /// and parity tests that want the tile by itself do.
    pub fn tile_i8_wide(&self, pa: &[i8], pb: &[i8], acc: &mut [[i32; 4]]) {
        let nr = self.int_nr;
        assert_eq!(acc.len(), nr, "acc must cover the full widened tile");
        // four rows of the widest tier's 16 columns
        let mut rows = [0i32; 4 * 16];
        self.tile_i8_into(pa, pb, &mut rows[..4 * nr], nr);
        for (q, sub) in acc.chunks_exact_mut(4).enumerate() {
            for (i, out) in sub.iter_mut().enumerate() {
                for (o, &v) in out.iter_mut().zip(&rows[i * nr + q * 4..][..4]) {
                    *o = o.wrapping_add(v);
                }
            }
        }
    }

    /// Bytes of the A image [`HostKernel::prepack_a`] builds under
    /// `plan`: `mp·kp` in the shared panel layout, the tier's own size
    /// on a tier with its own macro-kernel.
    pub fn packed_a_len(&self, plan: &BlockPlan) -> usize {
        self.macro_kernel.map_or(crate::batch::packed_a_bytes(plan), |mk| (mk.a_len)(plan))
    }

    /// Bytes of per-worker scratch [`HostKernel::run_blocked`] may need
    /// for a unit under `plan`: 0 on a tier without its own
    /// macro-kernel.
    pub fn blocked_scratch_len(&self, plan: &BlockPlan) -> usize {
        self.macro_kernel.map_or(0, |mk| (mk.scratch_len)(plan))
    }

    /// Build the whole A image this kernel's blocked route reads, for
    /// the m×k row-major `a` under `plan`, into `dst`
    /// ([`HostKernel::packed_a_len`] bytes). In the shared layout that
    /// is every (ic, pc) block in [`crate::loops::for_each_a_block`]
    /// order at [`crate::batch::packed_a_offset`], byte-identical to
    /// [`crate::reference::pack_a_ref`]'s blocks; a tier with its own
    /// macro-kernel builds that kernel's own layout. Both of the host
    /// engine's A image builders are this function: `prepare` on the
    /// submitting thread and a row-split work unit over its own rows.
    pub fn prepack_a(&self, dst: &mut [i8], a: &[i8], m: usize, k: usize, plan: &BlockPlan) {
        if let Some(mk) = self.macro_kernel {
            return (mk.pack_a)(dst, a, m, k, plan);
        }
        crate::loops::for_each_a_block(plan, |ic, mcb, pc, kcb| {
            let off = crate::batch::packed_a_offset(plan.kp, ic, mcb, pc);
            (self.pack_a)(&mut dst[off..off + mcb * kcb], a, m, k, ic, pc, kcb);
        });
    }

    /// Pack every (jc, pc) block of the k×n row-major `b` through this
    /// tier's packer, in the blocked loops' visit order
    /// ([`crate::loops::for_each_b_block`]), into `dst` (sized by
    /// [`crate::batch::packed_b_bytes`]); a macro-kernel reads block
    /// (jc, pc) at [`crate::batch::packed_b_offset`]. The image is the
    /// same on every tier.
    pub fn prepack_b(&self, dst: &mut [i8], b: &[i8], n: usize, k: usize, plan: &BlockPlan) {
        crate::loops::for_each_b_block(plan, |jc, ncb, pc, kcb| {
            let off = crate::batch::packed_b_offset(plan.kp, jc, ncb, pc);
            (self.pack_b)(&mut dst[off..off + ncb * kcb], b, n, k, jc, pc, kcb);
        });
    }

    /// The blocked macro-kernel of one work unit: `c` (`rows`×`n`,
    /// row-major, `rows = c.len() / n`) accumulates, with wrapping adds,
    /// the unit's rows of `a` — an image [`HostKernel::prepack_a`] of
    /// *this* kernel built — times `b`, the whole packed B image under
    /// `plan` (the unit's plan: `rows`, `n`, k). Nothing is packed in
    /// here; `scratch` ([`HostKernel::blocked_scratch_len`] bytes at
    /// least) is the tier's to overwrite.
    pub fn run_blocked(
        &self,
        n: usize,
        plan: &BlockPlan,
        a: AImage<'_>,
        b: &[i8],
        c: &mut [i32],
        scratch: &mut [i8],
    ) {
        match self.macro_kernel {
            Some(mk) => (mk.run)(n, plan, a, b, c, scratch),
            None => blocked::panel_nest(self, n, plan, a, b, c),
        }
    }

    /// Pack a block of row-major B into 4-column panels through this
    /// tier's packer. Byte-identical to [`crate::reference::pack_b_ref`]
    /// (proptested), so packed images remain tier-portable.
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
    /// tier's packer; byte-identical to [`crate::reference::pack_a_ref`].
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

    /// Requantize the i32 accumulator `acc` back to i8 into `dst`,
    /// never below `floor` (`0` folds a ReLU into the sweep; `i8::MIN`
    /// is no floor — a requantized value is at least −127). Each element
    /// is `acc · mult` rounded to nearest, ties away from zero, clamped
    /// to ±127, NaN → 0, with `mult` per channel, for every element or
    /// per row as `scale` says. Bit-identical on every tier.
    ///
    /// # Panics
    /// When `acc` and `dst` do not have the shape `scale` describes.
    pub fn requant_into(&self, acc: &[i32], scale: Scale<'_>, floor: i8, dst: &mut [i8]) {
        (self.requant_into)(acc, scale, floor, dst)
    }

    /// The residual connection: requantize `acc` per output channel (as
    /// [`HostKernel::requant_into`] does) and add it, saturating, onto
    /// the hidden state `x` in place. Bit-identical on every tier.
    ///
    /// # Panics
    /// When `acc` and `x` differ in length or are not whole rows of
    /// `mults.len()` columns.
    pub fn requant_add_sat(&self, acc: &[i32], mults: &[f32], x: &mut [i8]) {
        (self.requant_add_sat)(acc, mults, x)
    }
}

// ---- introspection --------------------------------------------------------

/// What kernel produced a number: selected tier, probed CPU features,
/// register-tile geometry and active cache blocking. Exposed through
/// `CampEngine::kernel_info()` (and `CampBackend::kernel_info`) so
/// serving logs and `benchmark/` results files can record their
/// substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelInfo {
    /// Tier name (`"scalar"`, `"avx2"`, `"avx512"`, `"avx512vnni"`,
    /// `"amx"`, `"neon"`, or the simulated backend's `"sim-camp"`).
    pub tier: String,
    /// True when the tier uses SIMD.
    pub simd: bool,
    /// The probed CPU features.
    pub features: CpuFeatures,
    /// The C tile one step of the blocked nest computes: 4 × the tier's
    /// widened column count on the shared panel nest (MR is the
    /// packed-panel layout's 4), the tier's own tile where it has its
    /// own macro-kernel (32×32 on `amx`). i8 and i4 share it: i4
    /// operands are widened to i8 before the tile.
    pub int_tile: (usize, usize),
    /// Integer-path (mc, nc, kc): [`HOST_BLOCKING`] on the host.
    pub int_blocking: (usize, usize, usize),
}

impl fmt::Display for KernelInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} kernel (features: {}; int tile {}x{} blocking {}/{}/{})",
            self.tier,
            self.features.summary(),
            self.int_tile.0,
            self.int_tile.1,
            self.int_blocking.0,
            self.int_blocking.1,
            self.int_blocking.2,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{gemm_i32_ref, SplitMix64};

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
        assert_eq!(info.int_tile, (4, 4));
        assert_eq!(info.int_blocking, HOST_BLOCKING);
        let text = info.to_string();
        assert!(text.contains("scalar"), "{text}");
        assert!(text.contains("int tile 4x4"), "{text}");
        assert!(text.contains("blocking"), "{text}");
        // widened tiles are per tier, but MR and the panel layout never
        // change: every panel-nest tier's tile is 4×(multiple of 4); a
        // tier with its own macro-kernel reports that kernel's tile
        for hk in HostKernel::available() {
            let tile = hk.macro_kernel.map_or((4, hk.int_nr()), |mk| mk.tile);
            assert_eq!(hk.info().int_tile, tile, "{:?}", hk.tier());
            assert_eq!(hk.int_nr() % 4, 0, "{:?}", hk.tier());
        }
        #[cfg(target_arch = "x86_64")]
        assert_eq!(AMX.info().int_tile, (32, 32));
    }

    #[test]
    fn forced_tier_parser_validates() {
        assert_eq!(parse_forced_tier(None).unwrap(), None);
        assert_eq!(parse_forced_tier(Some("".into())).unwrap(), None);
        assert_eq!(parse_forced_tier(Some(" scalar ".into())).unwrap(), Some(HostTier::Scalar));
        assert_eq!(parse_forced_tier(Some("avx2".into())).unwrap(), Some(HostTier::Avx2));
        assert_eq!(parse_forced_tier(Some("avx512".into())).unwrap(), Some(HostTier::Avx512));
        assert_eq!(
            parse_forced_tier(Some("avx512vnni".into())).unwrap(),
            Some(HostTier::Avx512Vnni)
        );
        assert_eq!(parse_forced_tier(Some("amx".into())).unwrap(), Some(HostTier::Amx));
        assert_eq!(parse_forced_tier(Some("neon".into())).unwrap(), Some(HostTier::Neon));
        for bad in ["AVX2", "sse", "1", "scalar,avx2", "avx512_vnni", "vnni", "amx_int8", "AMX"] {
            let err = parse_forced_tier(Some(bad.to_string())).unwrap_err();
            assert!(err.contains("CAMP_FORCE_TIER"), "{err}");
            assert!(err.contains("scalar|avx2|avx512|avx512vnni|amx|neon"), "{err}");
        }
    }

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(HostTier::Scalar.name(), "scalar");
        assert_eq!(HostTier::Avx2.name(), "avx2");
        assert_eq!(HostTier::Avx512.name(), "avx512");
        assert_eq!(HostTier::Avx512Vnni.name(), "avx512vnni");
        assert_eq!(HostTier::Amx.name(), "amx");
        assert_eq!(HostTier::Neon.name(), "neon");
        assert!(HostTier::Amx.is_simd());
        assert!(HostTier::Avx2.is_simd());
        assert!(HostTier::Avx512.is_simd());
        assert!(HostTier::Avx512Vnni.is_simd());
        assert!(!HostTier::Scalar.is_simd());
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
