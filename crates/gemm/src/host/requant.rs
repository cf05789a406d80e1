//! The glue between two GeMMs: i32 accumulators back to i8 activations.
//!
//! A quantized forward pass requantizes every GeMM result before the
//! next GeMM reads it — Q/K/V, attention scores, contexts, the ReLU'd
//! feed-forward, two saturating residual adds. Those sweeps are the
//! host's non-GeMM time, so they are table entries like the kernels:
//! the body is defined **once**, here, in scalar code; the scalar
//! table calls it as it is, and the AVX2 and AVX-512 tables call
//! it through a `#[target_feature]` wrapper that recompiles the *same*
//! body at their vector width. Every element sees the same IEEE
//! operations in the same order on every tier (Rust never contracts a
//! multiply and an add into an FMA), so every tier is bit-identical.

/// The multiplier of a requantization sweep.
#[derive(Debug, Clone, Copy)]
pub enum Scale<'a> {
    /// One multiplier per output channel: the accumulator is whole rows
    /// of `mults.len()` columns, and so is the destination.
    PerChannel(&'a [f32]),
    /// One multiplier for every element; accumulator and destination
    /// have one shape.
    Scalar(f32),
    /// One multiplier per row: the accumulator is `mults.len()` rows of
    /// equal width `w`, and destination row `i` is the `w` bytes at
    /// `i * stride` — a column block of a wider matrix. The destination
    /// holds those rows: its last row may stop short of `stride`, but
    /// not of `w`.
    PerRow {
        /// Row `i`'s multiplier.
        mults: &'a [f32],
        /// Distance between the starts of two destination rows.
        stride: usize,
    },
}

/// Round to nearest, ties away from zero, saturating to ±127 (NaN → 0):
/// `y.round().clamp(-127.0, 127.0) as i8` on every `f32` bit pattern
/// (the `#[ignore]`d test below walks all 2³² of them).
///
/// Three steps make the float→int conversion *provably in range*, which
/// is what lets every sweep vectorize: squash NaN to zero, clamp to
/// ±127, add the largest `f32` below one half towards the sign — the
/// sum is finite and within ±127.5, so truncating it can neither
/// overflow nor meet a NaN. A plain `as i32` has to handle both (it
/// saturates), and LLVM lowers that saturating cast one lane at a time
/// on every x86 tier. The clamp is `max` then `min` against constants,
/// not `clamp`: LLVM folds the squash into the `min`'s NaN mask, one
/// uop per vector fewer.
#[inline(always)]
// with `clamp`, the squash stays a masked move of its own (see above)
#[allow(clippy::manual_clamp)]
fn round_sat_i8(y: f32) -> i8 {
    let y = if y.is_nan() { 0.0 } else { y };
    let y = y.max(-127.0).min(127.0);
    let y = y + 0.499_999_97f32.copysign(y);
    // SAFETY: `y` is not NaN (squashed above; the clamp and the add of
    // a finite constant cannot make one) and lies within ±127.5 (the
    // clamp, plus less than one half), so its truncation fits an `i32`
    // — the two requirements of `to_int_unchecked`.
    unsafe { y.to_int_unchecked::<i32>() as i8 }
}

/// Requantize one i32 accumulator back to i8.
#[inline(always)]
fn requant(acc: i32, mult: f32) -> i8 {
    round_sat_i8(acc as f32 * mult)
}

const SHAPE: &str = "requant: accumulator and destination differ in shape";

/// One pass over an accumulator: `put(slot, q)` for every element's
/// requantized value `q` and the slot of `dst` in the same place.
/// Shapes are checked once per call — a short `zip` must not silently
/// leave part of `dst` as it was.
#[inline(always)]
fn sweep(acc: &[i32], scale: Scale<'_>, dst: &mut [i8], put: impl Fn(&mut i8, i8)) {
    let row = |acc: &[i32], dst: &mut [i8], mult: f32| {
        for (d, &a) in dst.iter_mut().zip(acc) {
            put(d, requant(a, mult));
        }
    };
    match scale {
        Scale::PerChannel(mults) => {
            assert_eq!(acc.len(), dst.len(), "{SHAPE}");
            let n = mults.len();
            assert!(n > 0 && acc.len().is_multiple_of(n), "requant: ragged rows");
            for (acc, dst) in acc.chunks_exact(n).zip(dst.chunks_exact_mut(n)) {
                for ((d, &a), &mult) in dst.iter_mut().zip(acc).zip(mults) {
                    put(d, requant(a, mult));
                }
            }
        }
        Scale::Scalar(mult) => {
            assert_eq!(acc.len(), dst.len(), "{SHAPE}");
            row(acc, dst, mult);
        }
        Scale::PerRow { mults, stride } => {
            let rows = mults.len();
            assert!(rows > 0 && acc.len().is_multiple_of(rows), "requant: ragged rows");
            let w = acc.len() / rows;
            let (first, last) = ((rows - 1) * stride, rows * stride);
            assert!(w <= stride && (first + w..=last).contains(&dst.len()), "{SHAPE}");
            for (i, &mult) in mults.iter().enumerate() {
                row(&acc[i * w..][..w], &mut dst[i * stride..][..w], mult);
            }
        }
    }
}

/// Requantize the accumulator `acc` into `dst`, element for element,
/// never below `floor` (`0` folds a ReLU into the sweep; `i8::MIN` is
/// no floor, a requantized value is at least −127).
///
/// # Panics
/// When `acc` and `dst` do not have the shape `scale` describes.
#[inline(always)]
pub(super) fn requant_into(acc: &[i32], scale: Scale<'_>, floor: i8, dst: &mut [i8]) {
    sweep(acc, scale, dst, |d, q| *d = q.max(floor));
}

/// The residual connection: requantize `acc` per output channel and
/// add it, saturating, onto the hidden state `x` in place.
///
/// # Panics
/// When `acc` and `x` differ in length or are not whole rows of
/// `mults.len()` columns.
#[inline(always)]
pub(super) fn requant_add_sat(acc: &[i32], mults: &[f32], x: &mut [i8]) {
    sweep(acc, Scale::PerChannel(mults), x, |x, q| *x = x.saturating_add(q));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::SplitMix64;

    /// What `round_sat_i8` replaced, and the per-element oracle of the
    /// sweeps: libm rounding, clamp, saturating cast.
    fn round_then_clamp(y: f32) -> i8 {
        y.round().clamp(-127.0, 127.0) as i8
    }

    #[track_caller]
    fn check_round(y: f32) {
        assert_eq!(round_sat_i8(y), round_then_clamp(y), "{y:e} ({:#010x})", y.to_bits());
    }

    #[test]
    fn round_sat_i8_is_round_then_clamp_on_every_kind_of_f32() {
        // a prime stride visits every exponent and both signs, NaN
        // payloads and subnormals included (the ignored test below
        // visits all 2^32 patterns)
        for bits in (0..=u32::MAX).step_by(1021) {
            check_round(f32::from_bits(bits));
        }
        // every rounding boundary the clamp leaves reachable, and the
        // first ones beyond it, two ulps to either side
        for k in -130..=130 {
            for half in [-0.5f32, 0.5] {
                let tie = (k as f32 + half).to_bits();
                for bits in tie - 2..=tie + 2 {
                    check_round(f32::from_bits(bits));
                }
            }
        }
        for y in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0] {
            check_round(y);
        }
    }

    /// The soundness argument of the `unsafe` conversion, run rather
    /// than read: `cargo test --release -p camp-gemm -- --ignored`
    /// (about twenty seconds; CI runs it).
    #[test]
    #[ignore = "walks all 2^32 f32 bit patterns: run in release"]
    fn round_sat_i8_equals_round_then_clamp_on_all_f32() {
        for bits in 0..=u32::MAX {
            check_round(f32::from_bits(bits));
        }
    }

    const ACC_EDGES: [i32; 7] = [i32::MIN, i32::MAX, 0, 1, -1, 127, -128];
    const MULT_EDGES: [f32; 11] = [
        0.0,
        -0.0,
        -0.37,
        1.0,
        1e-40, // subnormal
        -1e-40,
        f32::MIN_POSITIVE,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        5.9e-8, // i32::MAX lands near the clamp
    ];
    const X_EDGES: [i8; 5] = [127, -127, -128, 0, 1];

    /// An edge value half of the time, `random` of fresh bits otherwise.
    fn edge_or<T: Copy>(rng: &mut SplitMix64, edges: &[T], random: impl FnOnce(u64) -> T) -> T {
        let r = rng.next_u64();
        if r.is_multiple_of(2) {
            edges[(r >> 1) as usize % edges.len()]
        } else {
            random(r >> 8)
        }
    }

    /// An m×n accumulator, n multipliers and an m×n hidden state; the
    /// random halves are sized so that `acc · mult` mostly lands inside
    /// ±127, where the rounding matters.
    fn sweep_case(rng: &mut SplitMix64, m: usize, n: usize) -> (Vec<i32>, Vec<f32>, Vec<i8>) {
        let mults =
            (0..n).map(|_| edge_or(rng, &MULT_EDGES, |r| (r % 2001) as f32 * 1e-4 - 0.1)).collect();
        let acc =
            (0..m * n).map(|_| edge_or(rng, &ACC_EDGES, |r| (r % 8001) as i32 - 4000)).collect();
        let x = (0..m * n).map(|_| edge_or(rng, &X_EDGES, |r| r as i8)).collect();
        (acc, mults, x)
    }

    /// Both sweeps on one case, against requant per element, then ReLU
    /// as a second pass, then the saturating add as a third.
    fn check_sweeps(n: usize, acc: &[i32], mults: &[f32], x: &[i8]) {
        let m = acc.len() / n;
        let old = |i: usize, mult: f32| round_then_clamp(acc[i] as f32 * mult);
        for floor in [i8::MIN, 0] {
            let mut got = vec![99i8; m * n];
            requant_into(acc, Scale::PerChannel(mults), floor, &mut got);
            let want: Vec<i8> = (0..m * n).map(|i| old(i, mults[i % n]).max(floor)).collect();
            assert_eq!(got, want, "per-channel {m}x{n} floor {floor}");

            let mult = mults[m % n];
            requant_into(acc, Scale::Scalar(mult), floor, &mut got);
            let want: Vec<i8> = (0..m * n).map(|i| old(i, mult).max(floor)).collect();
            assert_eq!(got, want, "scalar {m}x{n} mult {mult:e} floor {floor}");
        }
        let mut got = x.to_vec();
        requant_add_sat(acc, mults, &mut got);
        let want: Vec<i8> = (0..m * n).map(|i| x[i].saturating_add(old(i, mults[i % n]))).collect();
        assert_eq!(got, want, "residual {m}x{n}");
    }

    #[test]
    fn the_sweeps_equal_the_composition_of_the_passes_they_replaced() {
        let mut rng = SplitMix64::new(24);
        for m in 1..=9 {
            for n in [1, 3, 15, 16, 17, 64, 100, 1024] {
                let (acc, mults, x) = sweep_case(&mut rng, m, n);
                check_sweeps(n, &acc, &mults, &x);
            }
        }
        // every accumulator edge against every multiplier edge, `0 · inf`
        // (the one way a NaN reaches the conversion) among them
        let n = MULT_EDGES.len();
        let acc: Vec<i32> = ACC_EDGES.iter().flat_map(|&a| [a; MULT_EDGES.len()]).collect();
        assert!((acc[2 * n + 7] as f32 * MULT_EDGES[7]).is_nan());
        let (_, _, x) = sweep_case(&mut rng, ACC_EDGES.len(), n);
        check_sweeps(n, &acc, &MULT_EDGES, &x);
    }

    #[test]
    #[should_panic(expected = "differ in shape")]
    fn a_short_destination_is_a_panic_not_a_row_of_zeros() {
        requant_into(&[1, 2, 3, 4], Scale::Scalar(1.0), i8::MIN, &mut [0; 3]);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn a_ragged_accumulator_is_a_panic_not_a_dropped_tail() {
        requant_add_sat(&[1, 2, 3, 4, 5], &[1.0, 1.0], &mut [0; 5]);
    }

    #[test]
    fn a_per_row_destination_must_hold_exactly_its_rows() {
        // two rows of two, at stride 3: five to six bytes hold them
        let scale = Scale::PerRow { mults: &[1.0, 1.0], stride: 3 };
        for (len, holds) in [(4, false), (5, true), (6, true), (7, false)] {
            let run = || requant_into(&[1, 2, 3, 4], scale, i8::MIN, &mut vec![0; len]);
            assert_eq!(std::panic::catch_unwind(run).is_ok(), holds, "{len} bytes");
        }
        let narrow = Scale::PerRow { mults: &[1.0, 1.0], stride: 1 };
        let run = || requant_into(&[1, 2, 3, 4], narrow, i8::MIN, &mut [0; 3]);
        assert!(std::panic::catch_unwind(run).is_err(), "rows may not overlap");
    }
}
