//! x86_64 AMX-INT8 tier: the blocked macro-kernel on Intel AMX tiles.
//!
//! The `amx` table is the `avx512vnni` table plus one entry, this
//! module's [`MACRO_KERNEL`]: the registry's 4-wide B panels, every
//! skinny kernel, the packers of the shared layout and the requant
//! sweeps are the VNNI tier's code. Only the blocked route differs.
//!
//! * **A** arrives as this tier's own image ([`pack_a`]): per depth
//!   block, the rows in 32-row strips, each strip a run of 64-deep
//!   chunks of 32 rows × 64 bytes (row-major, zero-padded past the last
//!   row and the last k-value). A chunk is two A tiles, each 16 rows at
//!   a 64-byte stride.
//! * **B** stays the shared 4-wide panel image. Each (jc, pc) block is
//!   re-laid once per nest visit into the worker's scratch arena as
//!   16-column VNNI-4 groups ([`relayout_b`]): row `r` of a group holds
//!   the k-values `4r..4r+4` of each of its 16 columns — one
//!   `QUAD_TRANSPOSE` `vpshufb` per 4 panels × 4 k-values.
//! * **C**: one step is 2×2 `tdpbssd` tiles, 32×32 of C over the whole
//!   depth block, stored to a 32×32 staging tile and added into C with
//!   masked vector adds ([`add_block`]).
//!
//! `tdpbssd` multiplies signed by signed bytes, so there is no bias fold
//! (the VNNI tile's `^ 0x80`), and it accumulates in wrapping i32 — the
//! products are exact, the four-product dot and the tile accumulate
//! wrap, never saturate — so the nest is bit-identical to every other
//! tier (docs/HOST_KERNELS.md, "The AMX tile").

#![cfg(target_arch = "x86_64")]

use std::arch::asm;
use std::arch::x86_64::*;
use std::sync::OnceLock;

use super::blocked::AImage;
use super::{MacroKernel, QUAD_TRANSPOSE};
use crate::batch::packed_b_offset;
use crate::loops::{for_each_b_block, round_up, BlockPlan};

/// Rows of A (and of C) one step reads: two 16-row tiles.
const STRIP: usize = 32;
/// Columns of C one step computes: two 16-column tiles.
const COLS: usize = 32;
/// k-values one tile row holds: 64 bytes.
const DEPTH: usize = 64;

/// The `amx` tier's blocked route (see [`MacroKernel`]).
pub(super) const MACRO_KERNEL: MacroKernel =
    MacroKernel { tile: (STRIP, COLS), a_len, pack_a, scratch_len, run: nest };

/// Whether this process can run AMX-INT8 tiles, probed once per
/// process: CPUID.(EAX=7,ECX=0):EDX bits 24 (AMX-TILE) and 25
/// (AMX-INT8), and then the OS's grant of tile data. Linux hands out the
/// XTILEDATA state component only on request,
/// `arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)`, which covers
/// every thread of the process; without it the first tile instruction
/// faults.
pub(super) fn tiles_usable() -> bool {
    static USABLE: OnceLock<bool> = OnceLock::new();
    *USABLE.get_or_init(|| {
        // leaf 7 reads as zeros where it is not implemented
        let leaf7 = __cpuid_count(7, 0);
        leaf7.edx & (0b11 << 24) == 0b11 << 24 && request_tile_data()
    })
}

#[cfg(target_os = "linux")]
fn request_tile_data() -> bool {
    const SYS_ARCH_PRCTL: i64 = 158;
    const ARCH_REQ_XCOMP_PERM: i64 = 0x1023;
    const XFEATURE_XTILEDATA: i64 = 18;
    let ret: i64;
    // SAFETY: a raw `arch_prctl` system call with the x86_64 Linux
    // convention (number and return in rax, arguments in rdi/rsi; the
    // kernel clobbers rcx and r11). The request only extends this
    // process's permitted xsave state; it touches no memory of ours.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") SYS_ARCH_PRCTL => ret,
            in("rdi") ARCH_REQ_XCOMP_PERM,
            in("rsi") XFEATURE_XTILEDATA,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(target_os = "linux"))]
fn request_tile_data() -> bool {
    false
}

/// The depth blocks of `plan` as `(pc, kcb, kcb rounded up to DEPTH)`.
fn depth_blocks(plan: &BlockPlan) -> impl Iterator<Item = (usize, usize, usize)> {
    let (kp, kc) = (plan.kp, plan.kc);
    (0..kp).step_by(kc.max(1)).map(move |pc| {
        let kcb = kc.min(kp - pc);
        (pc, kcb, round_up(kcb, DEPTH))
    })
}

/// Byte offset of depth block `pc`'s strips in an image under `plan`:
/// every earlier block is a whole `kc` deep.
fn block_offset(plan: &BlockPlan, pc: usize) -> usize {
    round_up(plan.mp, STRIP) * (pc / plan.kc) * round_up(plan.kc, DEPTH)
}

/// Bytes of the A image under `plan`: 32-row strips × each depth block
/// rounded up to whole 64-deep chunks.
fn a_len(plan: &BlockPlan) -> usize {
    round_up(plan.mp, STRIP) * depth_blocks(plan).map(|(_, _, kcbp)| kcbp).sum::<usize>()
}

/// Scratch one nest needs: one re-laid (jc, pc) B block, its columns
/// rounded up to a whole 32-column step.
fn scratch_len(plan: &BlockPlan) -> usize {
    round_up(plan.nc, COLS) * round_up(plan.kc, DEPTH)
}

/// Build the A image of the m×k row-major `a` under `plan`
/// ([`crate::reference::pack_a_amx_ref`] byte for byte): depth block
/// by depth block, 32-row strips of 64-deep chunks, row `i` of a chunk
/// at `i·64`, zero past row `m` and past each block's last k-value.
fn pack_a(dst: &mut [i8], a: &[i8], m: usize, k: usize, plan: &BlockPlan) {
    assert_eq!(dst.len(), a_len(plan), "dst must be the whole image");
    assert!(a.len() >= m * k, "A must hold m rows of k");
    let mut blocks = &mut dst[..];
    for (pc, kcb, kcbp) in depth_blocks(plan) {
        let (block, rest) = blocks.split_at_mut(round_up(plan.mp, STRIP) * kcbp);
        blocks = rest;
        let end = k.min(pc + kcb);
        for (s, strip) in block.chunks_exact_mut(STRIP * kcbp).enumerate() {
            for (ch, chunk) in strip.chunks_exact_mut(STRIP * DEPTH).enumerate() {
                let l0 = pc + ch * DEPTH;
                let live = end.saturating_sub(l0).min(DEPTH);
                for (i, row) in chunk.chunks_exact_mut(DEPTH).enumerate() {
                    let r = s * STRIP + i;
                    let live = if r < m { live } else { 0 };
                    if live > 0 {
                        row[..live].copy_from_slice(&a[r * k + l0..][..live]);
                    }
                    row[live..].fill(0);
                }
            }
        }
    }
}

/// The tile palette every nest runs: eight tiles of 16 rows × 64 bytes
/// (C in tmm0–3, A in tmm4–5, B in tmm6–7).
#[repr(C, align(64))]
struct TileConfig([u8; 64]);

static TILE_CONFIG: TileConfig = {
    let mut cfg = [0u8; 64];
    cfg[0] = 1; // palette 1
    let mut t = 0;
    while t < 8 {
        cfg[16 + 2 * t] = 64; // bytes per row (u16, little-endian)
        cfg[48 + t] = 16; // rows
        t += 1;
    }
    TileConfig(cfg)
};

/// The configured tile state of one nest: `ldtilecfg` when made,
/// `tilerelease` when dropped (also on unwind), so a thread leaves no
/// tile state behind between nests.
struct Tiles;

impl Tiles {
    fn load() -> Tiles {
        debug_assert!(tiles_usable(), "amx nest without AMX tiles");
        // SAFETY: the `amx` table, this module's only caller, is selected
        // only when CPUID reports AMX-TILE/AMX-INT8 and the OS granted
        // tile data (debug-asserted above); `TILE_CONFIG` is a valid
        // 64-byte palette-1 configuration.
        unsafe { asm!("ldtilecfg [{}]", in(reg) &TILE_CONFIG, options(nostack, readonly)) };
        Tiles
    }
}

impl Drop for Tiles {
    fn drop(&mut self) {
        // SAFETY: tiles were configured by `load` on this thread (same
        // AMX gate); `tilerelease` only returns them to the init state.
        unsafe { asm!("tilerelease", options(nostack, nomem)) };
    }
}

/// The `amx` blocked nest of one work unit: `c` (`rows`×`n`, row-major)
/// accumulates the unit's rows of `a`'s AMX image times `b`'s whole
/// 4-wide panel image. Per (jc, pc) block: re-lay B into `scratch`,
/// then every 32-column step against every 32-row strip of the image
/// that holds unit rows, 2×2 `tdpbssd` tiles over the whole block.
fn nest(n: usize, plan: &BlockPlan, a: AImage<'_>, b: &[i8], c: &mut [i32], scratch: &mut [i8]) {
    let rows = c.len() / n;
    let (image, row0) = (a.plan, a.row0);
    assert_eq!((image.kp, image.kc), (plan.kp, plan.kc), "A and B must share depth blocks");
    assert_eq!(a.bytes.len(), a_len(&image), "A must be a whole amx image");
    assert!(row0 + rows <= image.mp, "the unit's rows must lie in the image");
    assert!(b.len() >= plan.np * plan.kp, "B must be the whole panel image");
    assert!(scratch.len() >= scratch_len(plan), "scratch must hold one re-laid block");
    assert!(
        plan.kc.is_multiple_of(16) && plan.kp.is_multiple_of(16),
        "depth blocks are whole 16-k steps"
    );
    let (first, last) = (row0 / STRIP, (row0 + rows).div_ceil(STRIP));
    let _tiles = Tiles::load();
    // every step's four tile stores overwrite all of it
    let mut staging = Staging([0; STRIP * COLS]);
    for_each_b_block(plan, |jc, ncb, pc, kcb| {
        let kcbp = round_up(kcb, DEPTH);
        let bblock = &b[packed_b_offset(plan.kp, jc, ncb, pc)..][..ncb * kcb];
        let group = kcbp * 16;
        let steps = ncb.div_ceil(COLS);
        let groups = &mut scratch[..2 * steps * group];
        // SAFETY: the AMX gate implies the AVX-512 F+BW gate of the
        // VNNI table this tier extends; `relayout_b`'s sizes are the
        // block's and `groups` holds `2·steps` groups of `kcbp/4` rows.
        unsafe { relayout_b(bblock, ncb, kcb, kcbp, groups) };
        let ablock = &a.bytes[block_offset(&image, pc)..][..round_up(image.mp, STRIP) * kcbp];
        for step in 0..steps {
            let j0 = jc + step * COLS;
            let (b0, b1) = groups[2 * step * group..][..2 * group].split_at(group);
            for s in first..last {
                let strip = &ablock[s * STRIP * kcbp..][..STRIP * kcbp];
                // SAFETY: tiles are configured (`_tiles`); `strip` is 32
                // rows of `kcbp` bytes and `b0`/`b1` are `kcbp/4` rows of
                // 64 bytes, so each of the `kcbp/64` chunk's tile loads
                // (16 rows × 64 bytes at stride 64) stays inside them,
                // and the staging tile holds the four 16×16 stores.
                unsafe { tile_step(strip, b0, b1, &mut staging) };
                // the unit's rows of this strip, and C's columns of the step
                let lo = (s * STRIP).max(row0);
                let hi = (s * STRIP + STRIP).min(row0 + rows);
                let cols = (n - j0).min(COLS);
                let dst = &mut c[(lo - row0) * n + j0..][..(hi - lo - 1) * n + cols];
                // SAFETY: AVX-512 F as above; `dst` holds `hi - lo` rows
                // of `cols ≤ 32` elements at stride `n`, and the staging
                // rows `lo - s·32 .. hi - s·32` lie in the 32×32 tile.
                unsafe { add_block(dst, n, &staging, lo - s * STRIP, hi - lo, cols) };
            }
        }
    });
}

/// A 32×32 i32 C block as the four tiles store it: tmm0 at (0, 0), tmm1
/// at (0, 16), tmm2 at (16, 0), tmm3 at (16, 16), row stride 128 bytes.
#[repr(C, align(64))]
struct Staging([i32; STRIP * COLS]);

// SAFETY: the tiles must be configured as `TILE_CONFIG` on this thread;
// `a` holds 32 rows × `kcbp` bytes as `kcbp/64` chunks of 32×64, `b0`
// and `b1` hold `kcbp/4` rows of 64 bytes each (`kcbp` a non-zero
// multiple of 64), so every `tileloadd` (16 rows × 64 bytes, stride 64)
// reads inside them; the four `tilestored`s write exactly `out`.
#[inline]
unsafe fn tile_step(a: &[i8], b0: &[i8], b1: &[i8], out: &mut Staging) {
    let chunks = b0.len() / (16 * DEPTH);
    debug_assert!(chunks > 0 && a.len() == chunks * STRIP * DEPTH && b1.len() == b0.len());
    asm!(
        "tilezero tmm0",
        "tilezero tmm1",
        "tilezero tmm2",
        "tilezero tmm3",
        "2:",
        "tileloadd tmm4, [{a} + {s}*1]",
        "tileloadd tmm5, [{a} + {s}*1 + 1024]",
        "tileloadd tmm6, [{b0} + {s}*1]",
        "tileloadd tmm7, [{b1} + {s}*1]",
        "tdpbssd tmm0, tmm4, tmm6",
        "tdpbssd tmm1, tmm4, tmm7",
        "tdpbssd tmm2, tmm5, tmm6",
        "tdpbssd tmm3, tmm5, tmm7",
        "add {a}, 2048",
        "add {b0}, 1024",
        "add {b1}, 1024",
        "dec {n}",
        "jnz 2b",
        "tilestored [{o} + {so}*1], tmm0",
        "tilestored [{o} + {so}*1 + 64], tmm1",
        "tilestored [{o} + {so}*1 + 2048], tmm2",
        "tilestored [{o} + {so}*1 + 2112], tmm3",
        a = inout(reg) a.as_ptr() => _,
        b0 = inout(reg) b0.as_ptr() => _,
        b1 = inout(reg) b1.as_ptr() => _,
        n = inout(reg) chunks => _,
        s = in(reg) DEPTH,
        o = in(reg) out.0.as_mut_ptr(),
        so = in(reg) COLS * 4,
        options(nostack),
    );
}

// SAFETY: requires AVX512F+AVX512BW. `block` is one (jc, pc) block of
// the panel image, `ncb/4` panels of `kcb·4` bytes (`kcb` a multiple of
// 16, so each 64-byte load is 16 whole k-values of one panel); `out`
// holds `out.len() / (kcbp·16)` groups of `kcbp/4` rows × 64 bytes, at
// least `ncb/16` of them, and every store lands in its group.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn relayout_b(block: &[i8], ncb: usize, kcb: usize, kcbp: usize, out: &mut [i8]) {
    let (panels, panel, group) = (ncb / 4, kcb * 4, kcbp * 16);
    debug_assert!(
        kcb.is_multiple_of(16) && block.len() == ncb * kcb && out.len().is_multiple_of(group)
    );
    let transpose = _mm512_loadu_epi8(QUAD_TRANSPOSE.as_ptr());
    for (g, dst) in out.chunks_exact_mut(group).enumerate() {
        let dst = dst.as_mut_ptr();
        for t in 0..kcb / 16 {
            // 16 k-values of the group's four panels (zero past the block)
            let mut v = [_mm512_setzero_si512(); 4];
            for (q, lane) in v.iter_mut().enumerate() {
                if 4 * g + q < panels {
                    *lane = _mm512_loadu_epi8(block.as_ptr().add((4 * g + q) * panel + t * 64));
                }
            }
            // 128-bit lane r of every panel (k-values 16t+4r..+4) into
            // one vector, panel q in lane q; `vpshufb` then turns each
            // lane's 4 k × 4 columns into 4 columns × 4 k
            let lo01 = _mm512_shuffle_i32x4::<0x44>(v[0], v[1]);
            let hi01 = _mm512_shuffle_i32x4::<0xEE>(v[0], v[1]);
            let lo23 = _mm512_shuffle_i32x4::<0x44>(v[2], v[3]);
            let hi23 = _mm512_shuffle_i32x4::<0xEE>(v[2], v[3]);
            let quads = [
                _mm512_shuffle_i32x4::<0x88>(lo01, lo23),
                _mm512_shuffle_i32x4::<0xDD>(lo01, lo23),
                _mm512_shuffle_i32x4::<0x88>(hi01, hi23),
                _mm512_shuffle_i32x4::<0xDD>(hi01, hi23),
            ];
            for (r, quad) in quads.into_iter().enumerate() {
                let row = dst.add((4 * t + r) * 64);
                _mm512_storeu_epi8(row, _mm512_shuffle_epi8(quad, transpose));
            }
        }
        for r in kcb / 4..kcbp / 4 {
            _mm512_storeu_epi8(dst.add(r * 64), _mm512_setzero_si512());
        }
    }
}

// SAFETY: requires AVX512F. `dst` holds `rows` rows of `cols ≤ 32`
// elements at stride `ldc` (the last row need only hold `cols`), and
// `top + rows ≤ 32`; the masked loads and stores touch exactly those.
#[target_feature(enable = "avx512f")]
unsafe fn add_block(
    dst: &mut [i32],
    ldc: usize,
    staging: &Staging,
    top: usize,
    rows: usize,
    cols: usize,
) {
    debug_assert!(cols <= COLS && top + rows <= STRIP && dst.len() >= (rows - 1) * ldc + cols);
    let live = |from: usize| (u32::MAX >> (32 - cols.saturating_sub(from).min(16))) as __mmask16;
    let (m0, m1) = (live(0), if cols > 16 { live(16) } else { 0 });
    for i in 0..rows {
        let src = staging.0.as_ptr().add((top + i) * COLS);
        let row = dst.as_mut_ptr().add(i * ldc);
        for (half, mask) in [(0, m0), (16, m1)] {
            if mask == 0 {
                continue;
            }
            let sums = _mm512_add_epi32(
                _mm512_maskz_loadu_epi32(mask, row.add(half)),
                _mm512_loadu_epi32(src.add(half)),
            );
            _mm512_mask_storeu_epi32(row.add(half), mask, sums);
        }
    }
}
