//! The hybrid multiplier (§3, Fig. 5).
//!
//! A 2n-bit product is decomposed as
//!
//! ```text
//! A = a1·2ⁿ + a0,  B = b1·2ⁿ + b0
//! P = a1b1·2²ⁿ + (a1b0 + a0b1)·2ⁿ + a0b0          (Eq. 2)
//! ```
//!
//! recursively down to 4-bit building blocks (the paper picks 4 bits as
//! the smallest width that keeps CNN/LLM accuracy reasonable, Fig. 7).
//! For signed operands the most-significant part is signed and the rest
//! unsigned, so building blocks come in signed×signed, signed×unsigned
//! and unsigned×unsigned flavors — real implementations use a sign-control
//! input on one shared block, which is what we model.
//!
//! The model is bit-accurate (verified exhaustively for 8×8 and by
//! property tests up to 32×32) and counts every building-block activation
//! and adder bit so `camp-energy` can derive area and energy.

/// Width of the building block in bits.
pub const BLOCK_BITS: u32 = 4;

/// Activity counters for one [`HybridMultiplier`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridActivity {
    /// 4-bit building-block multiplications performed.
    pub block_mults: u64,
    /// Adder invocations in the recombination trees (one per partial-
    /// product merge).
    pub recombine_adds: u64,
}

impl HybridActivity {
    /// Fold counters from another multiplier instance.
    pub fn merge(&mut self, other: &HybridActivity) {
        self.block_mults += other.block_mults;
        self.recombine_adds += other.recombine_adds;
    }
}

/// Bit-accurate hybrid multiplier with activity accounting.
#[derive(Debug, Clone, Default)]
pub struct HybridMultiplier {
    activity: HybridActivity,
}

impl HybridMultiplier {
    /// New multiplier with zeroed activity counters.
    pub fn new() -> Self {
        HybridMultiplier::default()
    }

    /// Activity counters accumulated so far.
    pub fn activity(&self) -> &HybridActivity {
        &self.activity
    }

    /// Number of 4-bit blocks needed for one `bits × bits` multiply.
    ///
    /// Halving the operand width quarters the block count — the scaling
    /// that makes the multiplier "align naturally" with outer products
    /// (§3): 8-bit → 4 blocks, 16-bit → 16 blocks.
    pub fn blocks_for(bits: u32) -> u64 {
        let per_side = (bits / BLOCK_BITS).max(1) as u64;
        per_side * per_side
    }

    /// 4-bit signed × signed building block (also models the
    /// signed/unsigned flavors internally via sign control).
    fn block_mul(&mut self, a: i64, b: i64) -> i64 {
        debug_assert!((-8..8).contains(&a), "block operand {a} out of 4-bit range");
        debug_assert!((-8..8).contains(&b), "block operand {b} out of 4-bit range");
        self.activity.block_mults += 1;
        a * b
    }

    fn block_mul_su(&mut self, a_signed: i64, b_unsigned: i64) -> i64 {
        debug_assert!((-8..8).contains(&a_signed));
        debug_assert!((0..16).contains(&b_unsigned));
        self.activity.block_mults += 1;
        a_signed * b_unsigned
    }

    fn block_mul_uu(&mut self, a: i64, b: i64) -> i64 {
        debug_assert!((0..16).contains(&a));
        debug_assert!((0..16).contains(&b));
        self.activity.block_mults += 1;
        a * b
    }

    /// Unsigned `bits × bits` multiply built recursively from 4-bit blocks.
    fn mul_unsigned(&mut self, bits: u32, a: u64, b: u64) -> u64 {
        debug_assert!(bits.is_power_of_two() && bits >= BLOCK_BITS);
        debug_assert!(bits == 64 || a < (1 << bits), "operand wider than {bits} bits");
        if bits == BLOCK_BITS {
            return self.block_mul_uu(a as i64, b as i64) as u64;
        }
        let half = bits / 2;
        let mask = (1u64 << half) - 1;
        let (a1, a0) = (a >> half, a & mask);
        let (b1, b0) = (b >> half, b & mask);
        let hh = self.mul_unsigned(half, a1, b1);
        let hl = self.mul_unsigned(half, a1, b0);
        let lh = self.mul_unsigned(half, a0, b1);
        let ll = self.mul_unsigned(half, a0, b0);
        self.activity.recombine_adds += 3;
        (hh << bits).wrapping_add((hl.wrapping_add(lh)) << half).wrapping_add(ll)
    }

    /// Signed `bits × bits` multiply built recursively from 4-bit blocks.
    ///
    /// The top sub-operand is treated as signed, the bottom as unsigned
    /// (two's-complement split), matching the hardware's sign-control
    /// scheme.
    fn mul_signed(&mut self, bits: u32, a: i64, b: i64) -> i64 {
        debug_assert!(bits.is_power_of_two() && bits >= BLOCK_BITS);
        let min = -(1i64 << (bits - 1));
        let max = (1i64 << (bits - 1)) - 1;
        debug_assert!(a >= min && a <= max, "operand {a} outside {bits}-bit signed range");
        debug_assert!(b >= min && b <= max, "operand {b} outside {bits}-bit signed range");
        if bits == BLOCK_BITS {
            return self.block_mul(a, b);
        }
        let half = bits / 2;
        let mask = (1i64 << half) - 1;
        let (a1, a0) = (a >> half, a & mask); // a1 signed, a0 unsigned
        let (b1, b0) = (b >> half, b & mask);
        let hh = self.mul_signed(half, a1, b1);
        let hl = self.mul_signed_unsigned(half, a1, b0);
        let lh = self.mul_signed_unsigned(half, b1, a0);
        let ll = self.mul_unsigned(half, a0 as u64, b0 as u64) as i64;
        self.activity.recombine_adds += 3;
        (hh << bits) + ((hl + lh) << half) + ll
    }

    fn mul_signed_unsigned(&mut self, bits: u32, s: i64, u: i64) -> i64 {
        if bits == BLOCK_BITS {
            return self.block_mul_su(s, u);
        }
        let half = bits / 2;
        let mask = (1i64 << half) - 1;
        let (s1, s0) = (s >> half, s & mask);
        let (u1, u0) = (u >> half, u & mask);
        let hh = self.mul_signed_unsigned(half, s1, u1);
        let hl = self.mul_signed_unsigned(half, s1, u0);
        let lh = self.mul_unsigned(half, s0 as u64, u1 as u64) as i64;
        let ll = self.mul_unsigned(half, s0 as u64, u0 as u64) as i64;
        self.activity.recombine_adds += 3;
        (hh << bits) + ((hl + lh) << half) + ll
    }

    /// 8-bit signed multiply (one "8-bit hybrid multiplier" of the CAMP
    /// lane, internally four 4-bit blocks).
    pub fn mul_i8(&mut self, a: i8, b: i8) -> i16 {
        self.mul_signed(8, a as i64, b as i64) as i16
    }

    /// 16-bit signed multiply (sixteen blocks; exercised by the tiling
    /// generality tests — the paper notes the block width is a design
    /// parameter).
    pub fn mul_i16(&mut self, a: i16, b: i16) -> i32 {
        self.mul_signed(16, a as i64, b as i64) as i32
    }

    /// 32-bit signed multiply (64 blocks).
    pub fn mul_i32(&mut self, a: i32, b: i32) -> i64 {
        self.mul_signed(32, a as i64, b as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_i8() {
        let mut h = HybridMultiplier::new();
        for a in i8::MIN..=i8::MAX {
            for b in i8::MIN..=i8::MAX {
                assert_eq!(h.mul_i8(a, b), a as i16 * b as i16, "{a} * {b}");
            }
        }
    }

    #[test]
    fn exhaustive_i4() {
        // the 4-bit building block every wider multiply recurses into
        let mut h = HybridMultiplier::new();
        for a in -8..8 {
            for b in -8..8 {
                assert_eq!(h.mul_signed(4, a, b), a * b);
            }
        }
    }

    #[test]
    fn i16_boundaries() {
        let mut h = HybridMultiplier::new();
        for &a in &[i16::MIN, -1, 0, 1, i16::MAX, 12345, -321] {
            for &b in &[i16::MIN, -1, 0, 1, i16::MAX, -9876, 77] {
                assert_eq!(h.mul_i16(a, b), a as i32 * b as i32, "{a} * {b}");
            }
        }
    }

    #[test]
    fn i32_boundaries() {
        let mut h = HybridMultiplier::new();
        for &a in &[i32::MIN, -1, 0, 1, i32::MAX, 123456789, -987654321] {
            for &b in &[i32::MIN, -1, 0, 1, i32::MAX, -5, 7] {
                assert_eq!(h.mul_i32(a, b), a as i64 * b as i64, "{a} * {b}");
            }
        }
    }

    #[test]
    fn block_count_scaling() {
        assert_eq!(HybridMultiplier::blocks_for(4), 1);
        assert_eq!(HybridMultiplier::blocks_for(8), 4);
        assert_eq!(HybridMultiplier::blocks_for(16), 16);
        assert_eq!(HybridMultiplier::blocks_for(32), 64);
    }

    #[test]
    fn activity_counts_blocks() {
        let mut h = HybridMultiplier::new();
        assert_eq!(h.activity(), &HybridActivity::default());
        h.mul_i8(3, -5);
        assert_eq!(h.activity().block_mults, 4);
        assert_eq!(h.activity().recombine_adds, 3);
        h.mul_i8(1, 1);
        assert_eq!(h.activity(), &HybridActivity { block_mults: 8, recombine_adds: 6 });
    }

    #[test]
    fn sixteen_bit_uses_sixteen_blocks() {
        let mut h = HybridMultiplier::new();
        h.mul_i16(-20000, 31111);
        assert_eq!(h.activity().block_mults, 16);
    }

    #[test]
    fn activity_merge() {
        let mut a = HybridActivity { block_mults: 1, recombine_adds: 2 };
        a.merge(&HybridActivity { block_mults: 10, recombine_adds: 20 });
        assert_eq!(a.block_mults, 11);
        assert_eq!(a.recombine_adds, 22);
    }
}
