//! The blocked route's macro-kernel: one work unit's loop nest over two
//! whole packed images, A's (the unit's own rows, packed before the
//! nest by [`super::HostKernel::prepack_a`] into its worker's arena)
//! and B's (a registered weight panel, or the dense B the unit packed
//! into its worker's arena). Nothing is packed in here.
//!
//! Every tier but `amx` runs the panel nest: the 4-row A panels of the
//! shared layout against B's 4-column panels, `int_nr/4` panels per
//! register-tile call. The `amx` tier owns its A layout and runs its own
//! nest (`amx.rs`) over the same B image.

use std::mem::MaybeUninit;

use crate::batch::{packed_a_offset, packed_b_offset};
use crate::loops::{for_each_b_block, for_each_row_strip, BlockPlan};

use super::{zeroed, HostKernel};

/// The shared-layout nest of one work unit: `c` (`rows`×`n`, row-major)
/// is zeroed, then accumulates `a`, the unit's panel image under
/// `plan`, times `b`'s whole packed image, one register tile
/// ([`HostKernel::tile_i8_into`]) at a time, and is returned
/// initialised.
pub(super) fn panel_nest<'c>(
    hk: &HostKernel,
    n: usize,
    plan: &BlockPlan,
    a: &[i8],
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
            let ablock = &a[packed_a_offset(plan.kp, ic, mcb, pc)..][..mcb * kcb];
            let mut q = 0;
            while q < qpanels {
                let group = if q + nwp <= qpanels { nwp } else { 1 };
                let width = group * 4;
                let pb = &bblock[q * panel..(q + group) * panel];
                for p in 0..mcb / 4 {
                    let pa = &ablock[p * panel..(p + 1) * panel];
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
