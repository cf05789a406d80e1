//! The blocked route's macro-kernel: one work unit's loop nest over two
//! whole packed images, A's (built before the nest by
//! [`super::HostKernel::prepack_a`], by `prepare` or in the unit's
//! arena) and B's (a registered weight panel or a batch panel). Nothing
//! is packed in here.
//!
//! Every tier but `amx` runs the panel nest: the 4-row A panels of the
//! shared layout against B's 4-column panels, `int_nr/4` panels per
//! register-tile call. The `amx` tier owns its A layout and runs its own
//! nest (`amx.rs`) over the same B image.

use std::mem::MaybeUninit;

use crate::batch::{packed_a_offset, packed_b_offset};
use crate::loops::{for_each_b_block, for_each_row_strip, BlockPlan};

use super::{zeroed, HostKernel};

/// A whole packed A image as one work unit reads it: every depth block
/// of the image's rows, laid out by [`HostKernel::prepack_a`] under
/// `plan` (the image's own plan — a whole request's, or the unit's when
/// the unit packed its own rows), and `row0`, the image row the unit's
/// rows start at (a multiple of 4).
#[derive(Clone, Copy, Debug)]
pub struct AImage<'a> {
    /// The image, exactly [`HostKernel::packed_a_len`] of `plan` long.
    pub bytes: &'a [i8],
    /// The plan the image was packed under.
    pub plan: BlockPlan,
    /// The image row of the unit's first row.
    pub row0: usize,
}

impl AImage<'_> {
    /// The packed 4-row panels (`4·kcb` bytes each, in row order) of
    /// the unit's row strip `ic..ic + mcb`, depth block `(pc, kcb)`, in
    /// the shared panel layout. The unit's strips need not coincide with
    /// the strips the image was packed in: a strip is at most as tall as
    /// the image's, so it is one contiguous run of panels, or two around
    /// one strip boundary (the second run is empty otherwise).
    fn strip(&self, ic: usize, mcb: usize, pc: usize, kcb: usize) -> (&[i8], &[i8]) {
        let BlockPlan { mp, kp, mc, .. } = self.plan;
        let run = |row: usize, rows: usize| {
            let strip = row - row % mc;
            let off = packed_a_offset(kp, strip, mc.min(mp - strip), pc) + (row - strip) * kcb;
            &self.bytes[off..off + rows * kcb]
        };
        let row = self.row0 + ic;
        let head = mcb.min(mc - row % mc);
        (run(row, head), if head < mcb { run(row + head, mcb - head) } else { &[] })
    }
}

/// The shared-layout nest of one work unit: `c` (`rows`×`n`, row-major)
/// is zeroed, then accumulates the unit's rows of `a`'s panel image
/// times `b`'s whole packed image, one register tile
/// ([`HostKernel::tile_i8_into`]) at a time, and is returned
/// initialised.
pub(super) fn panel_nest<'c>(
    hk: &HostKernel,
    n: usize,
    plan: &BlockPlan,
    a: AImage<'_>,
    b: &[i8],
    c: &'c mut [MaybeUninit<i32>],
) -> &'c mut [i32] {
    // the tiles add into C, so C starts at zero
    let c = zeroed(c);
    let rows = c.len() / n;
    // B panels are walked in groups sized to the tier's widened
    // register tile (`int_nr/4` adjacent 4-col panels per wide call); a
    // trailing group narrower than the tile falls back to the 4x4
    // kernel panel by panel.
    let nwp = hk.int_nr() / 4;
    for_each_b_block(plan, |jc, ncb, pc, kcb| {
        let off = packed_b_offset(plan.kp, jc, ncb, pc);
        let bblock = &b[off..off + ncb * kcb];
        let panel = kcb * 4;
        let qpanels = ncb / 4;
        for_each_row_strip(plan, |ic, mcb| {
            let (head, tail) = a.strip(ic, mcb, pc, kcb);
            let head_panels = head.len() / panel;
            let mut q = 0;
            while q < qpanels {
                let group = if q + nwp <= qpanels { nwp } else { 1 };
                let width = group * 4;
                let pb = &bblock[q * panel..(q + group) * panel];
                for p in 0..mcb / 4 {
                    let pa = match p.checked_sub(head_panels) {
                        None => &head[p * panel..(p + 1) * panel],
                        Some(t) => &tail[t * panel..(t + 1) * panel],
                    };
                    // the part of the tile that is C, not zero padding
                    // past the bottom or right edge
                    let (i0, j0) = (ic + p * 4, jc + q * 4);
                    let (live_rows, live_cols) = ((rows - i0).min(4), (n - j0).min(width));
                    if group > 1 && live_rows == 4 && live_cols == width {
                        // interior wide tile: the dispatched tier holds
                        // all `group` subtiles in registers across the k
                        // loop and adds them into C (read-modify-write
                        // across k blocks) as four whole rows
                        hk.tile_i8_into(pa, pb, &mut c[i0 * n + j0..], n);
                        continue;
                    }
                    // an edge tile or the 4x4 kernel: through a
                    // row-major staging tile, clipped to its live part
                    let mut tile = [[0i32; 4]; 16];
                    if group > 1 {
                        hk.tile_i8_into(pa, pb, tile[..width].as_flattened_mut(), width);
                    } else {
                        hk.tile_i8(pa, pb, (&mut tile[..4]).try_into().expect("four rows"));
                    }
                    let tile = tile.as_flattened();
                    for rx in 0..live_rows {
                        let crow = &mut c[(i0 + rx) * n + j0..][..live_cols];
                        for (cv, &v) in crow.iter_mut().zip(&tile[rx * width..]) {
                            *cv = cv.wrapping_add(v);
                        }
                    }
                }
                q += group;
            }
        });
    });
    c
}
