//! Fig. 5: the hybrid multiplier — exhaustive correctness self-check and
//! the divide-and-conquer block scaling that aligns it with outer
//! products (§3).

use camp_bench::header;
use camp_core::hybrid::HybridMultiplier;

pub fn main() {
    header("Fig. 5", "Hybrid multiplier: structure, scaling and self-check");

    // exhaustive 8×8 self-check
    let mut h = HybridMultiplier::new();
    let mut checked = 0u64;
    for a in i8::MIN..=i8::MAX {
        for b in i8::MIN..=i8::MAX {
            assert_eq!(h.mul_i8(a, b), a as i16 * b as i16);
            checked += 1;
        }
    }
    println!("exhaustive 8-bit check: {checked} products OK");
    println!(
        "activity: {} 4-bit block mults ({} per product), {} recombine adds",
        h.activity().block_mults,
        h.activity().block_mults / checked,
        h.activity().recombine_adds
    );

    println!("\nblock scaling (Eq. 2: halving width quarters the blocks):");
    println!("{:>8} {:>12}", "bits", "4-bit blocks");
    for bits in [4u32, 8, 16, 32] {
        println!("{bits:>8} {:>12}", HybridMultiplier::blocks_for(bits));
    }

    println!("\nouter-product alignment (the §3 insight):");
    println!("  8-bit mode: 256 8-bit products/issue × 4 blocks = 1024 blocks (100% of array)");
    println!("  4-bit mode: 512 4-bit products/issue × 1 block  =  512 blocks ( 50% of array)");
    println!("  halving operand width doubles vector elements and quadruples pairwise");
    println!("  products — matching the recursive multiplier decomposition exactly.");
}
