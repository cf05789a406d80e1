//! Packing-program builders.
//!
//! GotoBLAS packs the A block into column-major mR-row panels and the B
//! block into row-major nR-column panels before the macro-kernel runs
//! (the `Pack Ai` / `Pack Bp` stages of Fig. 3). These are simulated
//! programs so their instruction and memory traffic is part of every
//! result, exactly as it is for the paper's ulmBLAS-based measurements.
//!
//! Register conventions (the host driver sets these before each
//! invocation):
//!
//! * `x10` — source base (row-copy packers)
//! * `x11` — destination pointer
//! * `x12` — iteration count
//! * `x13` — source row stride in bytes
//! * `x14` — pre-scaled row-advance stride (variant-specific)
//! * `x20..x27` — source row pointers (gather packers)

use camp_isa::asm::Assembler;
use camp_isa::inst::Program;
use camp_isa::reg::{S, V};

/// Gather-pack `mr` matrix rows into a column-major panel: one element
/// of width `elem_w` per row per step.
///
/// Row pointers live in `x20..x20+mr-1`; destination advances
/// `mr*elem_w` per step; `x12` counts steps.
///
/// # Panics
/// Panics if `mr > 8` or `elem_w` is not 1, 2, 4 or 8.
pub fn pack_a_rows(mr: usize, elem_w: u8) -> Program {
    assert!(mr <= 8, "at most 8 row pointers");
    assert!(matches!(elem_w, 1 | 2 | 4 | 8));
    let mut a = Assembler::new(format!("pack_a_{mr}x{elem_w}"));
    a.label("top");
    for r in 0..mr {
        let rp = S(20 + r as u8);
        a.load_s(S(28), rp, 0, elem_w);
        a.store_s(S(28), S(11), (r as i64) * elem_w as i64, elem_w);
        a.addi(rp, rp, elem_w as i64);
    }
    a.addi(S(11), S(11), (mr as i64) * elem_w as i64);
    a.addi(S(12), S(12), -1);
    a.bne(S(12), S(0), "top");
    a.finish()
}

/// Copy-pack `row_bytes` contiguous bytes per source row into a dense
/// panel (used for B panels whose rows are already contiguous).
///
/// `x10` source (advances by `x13` per row), `x11` destination
/// (advances by `row_bytes`), `x12` row count.
///
/// # Panics
/// Panics unless `row_bytes` is 2, 4, 64 or 128.
pub fn pack_b_rows(row_bytes: usize) -> Program {
    let mut a = Assembler::new(format!("pack_b_{row_bytes}"));
    a.label("top");
    match row_bytes {
        2 => {
            a.load_s(S(28), S(10), 0, 2);
            a.store_s(S(28), S(11), 0, 2);
        }
        4 => {
            a.lw(S(28), S(10), 0);
            a.store_s(S(28), S(11), 0, 4);
        }
        64 => {
            a.vload(V(0), S(10), 0);
            a.vstore(V(0), S(11), 0);
        }
        128 => {
            a.vload(V(0), S(10), 0);
            a.vstore(V(0), S(11), 0);
            a.vload(V(1), S(10), 64);
            a.vstore(V(1), S(11), 64);
        }
        other => panic!("unsupported pack row width {other}"),
    }
    a.add(S(10), S(10), S(13));
    a.addi(S(11), S(11), row_bytes as i64);
    a.addi(S(12), S(12), -1);
    a.bne(S(12), S(0), "top");
    a.finish()
}

/// Nibble-pack pass for the 4-bit CAMP path: compresses `x12` output
/// bytes from 2× as many i8 values (each in [-8, 7]) at `x10` into the
/// packed-nibble panel at `x11`.
pub fn nibble_pack() -> Program {
    let mut a = Assembler::new("nibble_pack");
    a.label("top");
    a.lb(S(28), S(10), 0);
    a.lb(S(29), S(10), 1);
    a.andi(S(28), S(28), 0x0f);
    a.slli(S(29), S(29), 4);
    a.andi(S(29), S(29), 0xf0);
    a.add(S(28), S(28), S(29));
    a.store_s(S(28), S(11), 0, 1);
    a.addi(S(10), S(10), 2);
    a.addi(S(11), S(11), 1);
    a.addi(S(12), S(12), -1);
    a.bne(S(12), S(0), "top");
    a.finish()
}

/// Unrolled narrow-row B pack for the CAMP panels (4 or 2 bytes per
/// panel row): four k-rows per iteration through four source row
/// pointers (`x20..x23`, advancing by `x14 = 4·ldb`), destination `x11`,
/// iteration count `x12` (= rows/4).
pub fn pack_b_rows4(row_bytes: u8) -> Program {
    assert!(matches!(row_bytes, 2 | 4));
    let w = row_bytes as i64;
    let mut a = Assembler::new(format!("pack_b4_{row_bytes}"));
    a.label("top");
    for r in 0..4u8 {
        a.load_s(S(28), S(20 + r), 0, row_bytes);
        a.store_s(S(28), S(11), r as i64 * w, row_bytes);
    }
    for r in 0..4u8 {
        a.add(S(20 + r), S(20 + r), S(14));
    }
    a.addi(S(11), S(11), 4 * w);
    a.addi(S(12), S(12), -1);
    a.bne(S(12), S(0), "top");
    a.finish()
}

/// Vectorized 4-row panel transpose (the optimized-pack path real BLAS
/// libraries use): interleaves four source rows at `granule`-byte
/// granularity via two levels of `zip`, producing the column-major panel
/// 64 bytes of source per row at a time.
///
/// * granule 1 — byte panels (CAMP-8bit, handv-int8): 64 columns/chunk
/// * granule 2 — k-pair panels (gemmlowp): 32 pairs/chunk
/// * granule 4 — word panels (handv-int32): 16 columns/chunk
///
/// Row pointers in `x20..x23` (advance 64 bytes per chunk), destination
/// `x11`, chunk count `x12`.
pub fn pack_a_transpose4(granule: u8) -> Program {
    assert!(matches!(granule, 1 | 2 | 4));
    let mut a = Assembler::new(format!("pack_a_zip4_g{granule}"));
    a.label("top");
    for r in 0..4u8 {
        a.vload(V(r), S(20 + r), 0);
    }
    a.vzip(V(4), V(0), V(2), granule, false);
    a.vzip(V(5), V(0), V(2), granule, true);
    a.vzip(V(6), V(1), V(3), granule, false);
    a.vzip(V(7), V(1), V(3), granule, true);
    a.vzip(V(8), V(4), V(6), granule, false);
    a.vzip(V(9), V(4), V(6), granule, true);
    a.vzip(V(10), V(5), V(7), granule, false);
    a.vzip(V(11), V(5), V(7), granule, true);
    for (i, v) in [8u8, 9, 10, 11].into_iter().enumerate() {
        a.vstore(V(v), S(11), i as i64 * 64);
    }
    for r in 0..4u8 {
        a.addi(S(20 + r), S(20 + r), 64);
    }
    a.addi(S(11), S(11), 256);
    a.addi(S(12), S(12), -1);
    a.bne(S(12), S(0), "top");
    a.finish()
}

/// Vectorized 8-row word-panel transpose (OpenBLAS-style f32 pack):
/// three zip levels over 8 source rows, 16 columns per chunk.
///
/// Row pointers in `x20..x27`, destination `x11`, chunk count `x12`.
pub fn pack_a_transpose8_words() -> Program {
    let mut a = Assembler::new("pack_a_zip8_w");
    a.label("top");
    for r in 0..8u8 {
        a.vload(V(r), S(20 + r), 0);
    }
    // level 1: evens (r0 r4), (r2 r6); odds (r1 r5), (r3 r7)
    a.vzip(V(8), V(0), V(4), 4, false); // a
    a.vzip(V(9), V(0), V(4), 4, true); // a'
    a.vzip(V(10), V(2), V(6), 4, false); // b
    a.vzip(V(11), V(2), V(6), 4, true); // b'
    a.vzip(V(12), V(1), V(5), 4, false); // c
    a.vzip(V(13), V(1), V(5), 4, true); // c'
    a.vzip(V(14), V(3), V(7), 4, false); // d
    a.vzip(V(15), V(3), V(7), 4, true); // d'
                                        // level 2
    a.vzip(V(16), V(8), V(10), 4, false); // e  (evens cols 0-3)
    a.vzip(V(17), V(8), V(10), 4, true); // e' (evens cols 4-7)
    a.vzip(V(18), V(12), V(14), 4, false); // f  (odds cols 0-3)
    a.vzip(V(19), V(12), V(14), 4, true); // f' (odds cols 4-7)
    a.vzip(V(20), V(9), V(11), 4, false); // g  (evens cols 8-11)
    a.vzip(V(21), V(9), V(11), 4, true); // g' (evens cols 12-15)
    a.vzip(V(22), V(13), V(15), 4, false); // h
    a.vzip(V(23), V(13), V(15), 4, true); // h'
                                          // level 3: full column interleave
    a.vzip(V(24), V(16), V(18), 4, false); // cols 0-1
    a.vzip(V(25), V(16), V(18), 4, true); // cols 2-3
    a.vzip(V(26), V(17), V(19), 4, false); // cols 4-5
    a.vzip(V(27), V(17), V(19), 4, true); // cols 6-7
    a.vzip(V(28), V(20), V(22), 4, false); // cols 8-9
    a.vzip(V(29), V(20), V(22), 4, true); // cols 10-11
    a.vzip(V(30), V(21), V(23), 4, false); // cols 12-13
    a.vzip(V(31), V(21), V(23), 4, true); // cols 14-15
    for (i, v) in (24u8..32).enumerate() {
        a.vstore(V(v), S(11), i as i64 * 64);
    }
    for r in 0..8u8 {
        a.addi(S(20 + r), S(20 + r), 64);
    }
    a.addi(S(11), S(11), 512);
    a.addi(S(12), S(12), -1);
    a.bne(S(12), S(0), "top");
    a.finish()
}

/// Vectorized 4-bit CAMP A pack: unpacks four nibble-packed rows,
/// byte-transposes them and re-packs pairwise into the column-major
/// nibble panel — 128 k-columns per chunk.
///
/// Row pointers in `x20..x23` (advance 64 bytes/chunk), destination
/// `x11`, chunk count `x12`.
pub fn pack_a_camp4_vec() -> Program {
    let mut a = Assembler::new("pack_a_camp4_vec");
    a.label("top");
    for r in 0..4u8 {
        a.vload(V(r), S(20 + r), 0);
    }
    for (half, hi) in [(0u8, false), (1, true)] {
        // unpack this half: rows as 64 consecutive i8 columns
        for r in 0..4u8 {
            a.vunpack4(V(4 + r), V(r), hi);
        }
        // byte transpose
        a.vzip(V(8), V(4), V(6), 1, false);
        a.vzip(V(9), V(4), V(6), 1, true);
        a.vzip(V(10), V(5), V(7), 1, false);
        a.vzip(V(11), V(5), V(7), 1, true);
        a.vzip(V(12), V(8), V(10), 1, false); // cols 0-15 col-major
        a.vzip(V(13), V(8), V(10), 1, true); // cols 16-31
        a.vzip(V(14), V(9), V(11), 1, false); // cols 32-47
        a.vzip(V(15), V(9), V(11), 1, true); // cols 48-63
                                             // pairwise nibble re-pack: 2 bytes per column
        a.vpack4(V(16), V(12), V(13));
        a.vpack4(V(17), V(14), V(15));
        a.vstore(V(16), S(11), half as i64 * 128);
        a.vstore(V(17), S(11), half as i64 * 128 + 64);
    }
    for r in 0..4u8 {
        a.addi(S(20 + r), S(20 + r), 64);
    }
    a.addi(S(11), S(11), 256);
    a.addi(S(12), S(12), -1);
    a.bne(S(12), S(0), "top");
    a.finish()
}

/// Vectorized gemmlowp B pack: one byte-zip of two k-rows produces the
/// pair-interleaved layout for two adjacent 32-column panels at once.
///
/// `x20`/`x21` source row-pair pointers (advance by `x14 = 2·ldb`),
/// `x11` even-panel destination, `x15` odd-panel destination (both
/// advance 64 bytes per pair), `x12` pair count.
pub fn pack_b_gemmlowp_vec() -> Program {
    let mut a = Assembler::new("pack_b_lowp_vec");
    a.label("top");
    a.vload(V(0), S(20), 0);
    a.vload(V(1), S(21), 0);
    a.vzip(V(2), V(0), V(1), 1, false);
    a.vzip(V(3), V(0), V(1), 1, true);
    a.vstore(V(2), S(11), 0);
    a.vstore(V(3), S(15), 0);
    a.add(S(20), S(20), S(14));
    a.add(S(21), S(21), S(14));
    a.addi(S(11), S(11), 64);
    a.addi(S(15), S(15), 64);
    a.addi(S(12), S(12), -1);
    a.bne(S(12), S(0), "top");
    a.finish()
}

/// 4-bit CAMP A pack: converts four row-major nibble-packed source rows
/// (byte pointers in `x20..x23`) into the column-major nibble panel the
/// `camp.s4` operand expects (column l of the panel holds rows 0–3 in
/// nibble-index order). Processes two k-columns (one source byte per
/// row) per iteration; `x12` counts k-pairs.
pub fn pack_a_camp4() -> Program {
    let mut a = Assembler::new("pack_a_camp4");
    a.label("top");
    // load one byte from each row: holds nibbles for columns l (lo) and
    // l+1 (hi)
    for r in 0..4u8 {
        a.lb(S(24 + r), S(20 + r), 0);
    }
    // four output bytes: (col, row-pair) = (l, 0–1), (l, 2–3),
    // (l+1, 0–1), (l+1, 2–3)
    for (slot, (hi_col, pair)) in
        [(false, 0u8), (false, 2), (true, 0), (true, 2)].into_iter().enumerate()
    {
        let lo_src = S(24 + pair);
        let hi_src = S(24 + pair + 1);
        if hi_col {
            a.srli(S(28), lo_src, 4);
            a.andi(S(28), S(28), 0x0f);
            a.srli(S(29), hi_src, 4);
            a.andi(S(29), S(29), 0x0f);
        } else {
            a.andi(S(28), lo_src, 0x0f);
            a.andi(S(29), hi_src, 0x0f);
        }
        a.slli(S(29), S(29), 4);
        a.add(S(28), S(28), S(29));
        let out_off = match slot {
            0 => 0, // col l rows 0-1
            1 => 1, // col l rows 2-3
            2 => 2, // col l+1 rows 0-1
            _ => 3, // col l+1 rows 2-3
        };
        a.store_s(S(28), S(11), out_off, 1);
    }
    for r in 0..4u8 {
        a.addi(S(20 + r), S(20 + r), 1);
    }
    a.addi(S(11), S(11), 4);
    a.addi(S(12), S(12), -1);
    a.bne(S(12), S(0), "top");
    a.finish()
}

/// gemmlowp-style interleaved B pack: for each k-pair, emits
/// `{B[2p][j], B[2p+1][j]}` byte pairs for `nr` columns.
///
/// `x20`/`x21` point at the two source rows (advance by `x14 = 2·ldb`),
/// `x11` destination, `x12` pair count.
pub fn pack_b_gemmlowp(nr: usize) -> Program {
    let mut a = Assembler::new(format!("pack_b_lowp_{nr}"));
    a.label("top");
    for j in 0..nr {
        a.lb(S(28), S(20), j as i64);
        a.store_s(S(28), S(11), 2 * j as i64, 1);
        a.lb(S(28), S(21), j as i64);
        a.store_s(S(28), S(11), 2 * j as i64 + 1, 1);
    }
    a.add(S(20), S(20), S(14));
    a.add(S(21), S(21), S(14));
    a.addi(S(11), S(11), 2 * nr as i64);
    a.addi(S(12), S(12), -1);
    a.bne(S(12), S(0), "top");
    a.finish()
}

/// gemmlowp-style A pack: per k-pair, 2 consecutive elements of each of
/// 4 rows (`x20..x23`, advancing by 2), giving 8 bytes per step.
pub fn pack_a_gemmlowp() -> Program {
    let mut a = Assembler::new("pack_a_lowp");
    a.label("top");
    for r in 0..4u8 {
        let rp = S(20 + r);
        a.load_s(S(28), rp, 0, 2);
        a.store_s(S(28), S(11), r as i64 * 2, 2);
        a.addi(rp, rp, 2);
    }
    a.addi(S(11), S(11), 8);
    a.addi(S(12), S(12), -1);
    a.bne(S(12), S(0), "top");
    a.finish()
}

/// MMLA B pack: per 8-k octet, transposes an 8×8 byte block so each of 8
/// columns becomes a contiguous 8-byte run (the `2×8 · (2×8)ᵀ` operand
/// layout that FEAT_I8MM requires; cf. §7.2 — "this layout conflicts with
/// the GotoBLAS algorithm ... by modifying the packing strategy").
///
/// `x20..x27` point at 8 consecutive source k-rows (advance by
/// `x14 = 8·ldb`), `x11` destination, `x12` octet count.
pub fn pack_b_mmla() -> Program {
    let mut a = Assembler::new("pack_b_mmla");
    a.label("top");
    for c in 0..8u8 {
        for t in 0..8u8 {
            a.lb(S(28), S(20 + t), c as i64);
            a.store_s(S(28), S(11), c as i64 * 8 + t as i64, 1);
        }
    }
    for t in 0..8u8 {
        a.add(S(20 + t), S(20 + t), S(14));
    }
    a.addi(S(11), S(11), 64);
    a.addi(S(12), S(12), -1);
    a.bne(S(12), S(0), "top");
    a.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_isa::machine::Machine;

    fn mach() -> Machine {
        Machine::new(1 << 16)
    }

    #[test]
    fn pack_a_transposes_rows_to_col_major() {
        let mut m = mach();
        // A: 4 rows × 8 cols i8 at 0x100, row stride 8
        for r in 0..4 {
            for c in 0..8 {
                m.write_i8(0x100 + r * 8 + c, (10 * r + c) as i8);
            }
        }
        let p = pack_a_rows(4, 1);
        for r in 0..4u8 {
            m.set_x(S(20 + r), 0x100 + r as u64 * 8);
        }
        m.set_x(S(11), 0x400);
        m.set_x(S(12), 8);
        m.run(&p, 10_000).unwrap();
        // col-major: dst[l*4 + r] = A[r][l]
        for l in 0..8 {
            for r in 0..4 {
                assert_eq!(m.read_i8(0x400 + l * 4 + r), (10 * r + l) as i8);
            }
        }
    }

    #[test]
    fn pack_b_rows_copies_with_stride() {
        let mut m = mach();
        // B rows of 4 bytes at stride 32
        for l in 0..5 {
            for j in 0..4 {
                m.write_i8(0x200 + l * 32 + j, (l * 4 + j) as i8);
            }
        }
        let p = pack_b_rows(4);
        m.set_x(S(10), 0x200);
        m.set_x(S(11), 0x800);
        m.set_x(S(12), 5);
        m.set_x(S(13), 32);
        m.run(&p, 10_000).unwrap();
        for i in 0..20 {
            assert_eq!(m.read_i8(0x800 + i), i as i8);
        }
    }

    #[test]
    fn pack_b_rows_vector_variant() {
        let mut m = mach();
        for l in 0..3u64 {
            for j in 0..64u64 {
                m.write_i8(0x400 + l * 100 + j, (l + j) as i8);
            }
        }
        let p = pack_b_rows(64);
        m.set_x(S(10), 0x400);
        m.set_x(S(11), 0x1000);
        m.set_x(S(12), 3);
        m.set_x(S(13), 100);
        m.run(&p, 10_000).unwrap();
        for l in 0..3u64 {
            for j in 0..64u64 {
                assert_eq!(m.read_i8(0x1000 + l * 64 + j), (l + j) as i8);
            }
        }
    }

    #[test]
    fn nibble_pack_compresses_pairs() {
        let mut m = mach();
        let vals: [i8; 8] = [-8, 7, 0, -1, 3, -3, 5, 2];
        for (i, &v) in vals.iter().enumerate() {
            m.write_i8(0x100 + i as u64, v);
        }
        let p = nibble_pack();
        m.set_x(S(10), 0x100);
        m.set_x(S(11), 0x200);
        m.set_x(S(12), 4);
        m.run(&p, 1000).unwrap();
        for i in 0..4 {
            let b = m.read_i8(0x200 + i as u64) as u8;
            let lo = ((b & 0xf) << 4) as i8 >> 4;
            let hi = (b >> 4) as i8 | if b & 0x80 != 0 { -16 } else { 0 };
            assert_eq!(lo, vals[2 * i]);
            assert_eq!(hi, vals[2 * i + 1]);
        }
    }

    /// Run a scalar packer and its vectorized counterpart on the same
    /// source and compare outputs byte for byte.
    fn compare_packs(
        scalar: &camp_isa::inst::Program,
        vec: &camp_isa::inst::Program,
        rows: usize,
        row_stride: u64,
        scalar_count: u64,
        vec_count: u64,
        out_bytes: usize,
    ) {
        let mut m = mach();
        for r in 0..rows as u64 {
            for c in 0..row_stride {
                m.write_i8(0x1000 + r * row_stride + c, (r as i64 * 67 + c as i64 * 13) as i8);
            }
        }
        for r in 0..rows as u8 {
            m.set_x(S(20 + r), 0x1000 + r as u64 * row_stride);
        }
        m.set_x(S(11), 0x4000);
        m.set_x(S(12), scalar_count);
        m.run(scalar, 1_000_000).unwrap();
        for r in 0..rows as u8 {
            m.set_x(S(20 + r), 0x1000 + r as u64 * row_stride);
        }
        m.set_x(S(11), 0x8000);
        m.set_x(S(12), vec_count);
        m.run(vec, 1_000_000).unwrap();
        for i in 0..out_bytes as u64 {
            assert_eq!(m.read_i8(0x4000 + i), m.read_i8(0x8000 + i), "mismatch at packed byte {i}");
        }
    }

    #[test]
    fn zip4_byte_pack_matches_scalar() {
        // 4 rows × 128 byte columns
        compare_packs(&pack_a_rows(4, 1), &pack_a_transpose4(1), 4, 256, 128, 2, 4 * 128);
    }

    #[test]
    fn zip4_word_pack_matches_scalar() {
        // 4 rows × 32 word columns (128 bytes per row)
        compare_packs(&pack_a_rows(4, 4), &pack_a_transpose4(4), 4, 256, 32, 2, 4 * 32 * 4);
    }

    #[test]
    fn zip4_pair_pack_matches_scalar_gemmlowp() {
        // 4 rows × 64 pairs (128 bytes per row)
        compare_packs(&pack_a_gemmlowp(), &pack_a_transpose4(2), 4, 256, 64, 2, 4 * 64 * 2);
    }

    #[test]
    fn zip8_word_pack_matches_scalar() {
        // 8 rows × 32 word columns
        compare_packs(&pack_a_rows(8, 4), &pack_a_transpose8_words(), 8, 256, 32, 2, 8 * 32 * 4);
    }

    #[test]
    fn camp4_vec_pack_matches_scalar() {
        // 4 rows × 256 nibble columns (128 bytes per row, nibble-packed)
        compare_packs(&pack_a_camp4(), &pack_a_camp4_vec(), 4, 256, 128, 2, 4 * 256 / 2);
    }

    #[test]
    fn gemmlowp_b_vec_pack_matches_scalar_two_panels() {
        let mut m = mach();
        // 8 k-rows × 64 cols, ldb 64
        for l in 0..8u64 {
            for j in 0..64u64 {
                m.write_i8(0x1000 + l * 64 + j, (l * 64 + j) as i8);
            }
        }
        // scalar: panel 0 (cols 0..32) and panel 1 (cols 32..64)
        let scalar = pack_b_gemmlowp(32);
        for (panel, dst) in [(0u64, 0x4000u64), (32, 0x4000 + 4 * 8 * 32)] {
            m.set_x(S(20), 0x1000 + panel);
            m.set_x(S(21), 0x1040 + panel);
            m.set_x(S(11), dst);
            m.set_x(S(12), 4);
            m.set_x(S(14), 128);
            m.run(&scalar, 100_000).unwrap();
        }
        // vectorized: both panels at once
        let vec = pack_b_gemmlowp_vec();
        m.set_x(S(20), 0x1000);
        m.set_x(S(21), 0x1040);
        m.set_x(S(11), 0x8000);
        m.set_x(S(15), 0x8000 + 4 * 8 * 32);
        m.set_x(S(12), 4);
        m.set_x(S(14), 128);
        m.run(&vec, 100_000).unwrap();
        for i in 0..(8 * 64) as u64 {
            assert_eq!(m.read_i8(0x4000 + i), m.read_i8(0x8000 + i), "byte {i}");
        }
    }

    #[test]
    fn camp4_a_pack_builds_column_major_nibbles() {
        let mut m = mach();
        // 4 rows × 8 cols of 4-bit values, nibble-packed row-major
        // (4 bytes per row), row stride 4
        let val = |r: usize, l: usize| ((r * 8 + l) % 16) as u8;
        for r in 0..4u64 {
            for p in 0..4u64 {
                let lo = val(r as usize, 2 * p as usize);
                let hi = val(r as usize, 2 * p as usize + 1);
                m.write_i8(0x100 + r * 4 + p, (lo | (hi << 4)) as i8);
            }
        }
        let p = pack_a_camp4();
        for r in 0..4u8 {
            m.set_x(S(20 + r), 0x100 + r as u64 * 4);
        }
        m.set_x(S(11), 0x400);
        m.set_x(S(12), 4); // 8 columns = 4 pairs
        m.run(&p, 10_000).unwrap();
        // panel nibble n = l*4 + r must hold val(r, l)
        for l in 0..8 {
            for r in 0..4 {
                let n = l * 4 + r;
                let byte = m.read_i8(0x400 + (n / 2) as u64) as u8;
                let nib = if n % 2 == 0 { byte & 0xf } else { byte >> 4 };
                assert_eq!(nib, val(r, l), "l={l} r={r}");
            }
        }
    }

    #[test]
    fn pack_b_rows_two_byte_variant() {
        let mut m = mach();
        for l in 0..6u64 {
            m.write_i8(0x700 + l * 8, l as i8);
            m.write_i8(0x700 + l * 8 + 1, (l + 100) as i8);
        }
        let p = pack_b_rows(2);
        m.set_x(S(10), 0x700);
        m.set_x(S(11), 0xd00);
        m.set_x(S(12), 6);
        m.set_x(S(13), 8);
        m.run(&p, 1000).unwrap();
        for l in 0..6u64 {
            assert_eq!(m.read_i8(0xd00 + l * 2), l as i8);
            assert_eq!(m.read_i8(0xd00 + l * 2 + 1), (l + 100) as i8);
        }
    }

    #[test]
    fn gemmlowp_b_pack_interleaves_k_pairs() {
        let mut m = mach();
        // 4 k-rows × 8 cols at stride 16
        for l in 0..4 {
            for j in 0..8 {
                m.write_i8(0x300 + l * 16 + j, (l * 8 + j) as i8);
            }
        }
        let p = pack_b_gemmlowp(8);
        m.set_x(S(20), 0x300);
        m.set_x(S(21), 0x310);
        m.set_x(S(11), 0x900);
        m.set_x(S(12), 2);
        m.set_x(S(14), 32);
        m.run(&p, 10_000).unwrap();
        // pair 0: {B[0][j], B[1][j]}
        for j in 0..8 {
            assert_eq!(m.read_i8(0x900 + 2 * j), j as i8);
            assert_eq!(m.read_i8(0x900 + 2 * j + 1), (8 + j) as i8);
        }
        // pair 1 starts at 16: {B[2][j], B[3][j]}
        for j in 0..8 {
            assert_eq!(m.read_i8(0x910 + 2 * j), (16 + j) as i8);
            assert_eq!(m.read_i8(0x910 + 2 * j + 1), (24 + j) as i8);
        }
    }

    #[test]
    fn gemmlowp_a_pack_pairs_rows() {
        let mut m = mach();
        for r in 0..4 {
            for l in 0..4 {
                m.write_i8(0x500 + r * 16 + l, (r * 4 + l) as i8);
            }
        }
        let p = pack_a_gemmlowp();
        for r in 0..4u8 {
            m.set_x(S(20 + r), 0x500 + r as u64 * 16);
        }
        m.set_x(S(11), 0xa00);
        m.set_x(S(12), 2);
        m.run(&p, 1000).unwrap();
        // pair 0: rows 0..4 elements (0,1)
        for r in 0..4 {
            assert_eq!(m.read_i8(0xa00 + r * 2), (r * 4) as i8);
            assert_eq!(m.read_i8(0xa00 + r * 2 + 1), (r * 4 + 1) as i8);
        }
        // pair 1 at offset 8: elements (2,3)
        for r in 0..4 {
            assert_eq!(m.read_i8(0xa08 + r * 2), (r * 4 + 2) as i8);
        }
    }

    #[test]
    fn mmla_b_pack_transposes_octets() {
        let mut m = mach();
        // 8 k-rows × 8 cols, ldb 8
        for l in 0..8 {
            for c in 0..8 {
                m.write_i8(0x600 + l * 8 + c, (l * 8 + c) as i8);
            }
        }
        let p = pack_b_mmla();
        for t in 0..8u8 {
            m.set_x(S(20 + t), 0x600 + t as u64 * 8);
        }
        m.set_x(S(11), 0xc00);
        m.set_x(S(12), 1);
        m.set_x(S(14), 64);
        m.run(&p, 10_000).unwrap();
        // dst[c*8 + t] = B[t][c]
        for c in 0..8 {
            for t in 0..8 {
                assert_eq!(m.read_i8(0xc00 + c * 8 + t), (t * 8 + c) as i8);
            }
        }
    }
}
