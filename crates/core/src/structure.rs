//! Structural description of the CAMP hardware block (Fig. 8/10).
//!
//! These counts drive the analytic area model in `camp-energy` and the
//! utilization numbers `ablation` prints (`docs/SIMULATOR.md`,
//! "Idealizations and substitutions").

use crate::hybrid::BLOCK_BITS;

/// Static structure of one CAMP unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampStructure {
    /// Number of 64-bit lanes (8 for a 512-bit vector register).
    pub lanes: usize,
    /// 8-bit hybrid multipliers per lane (32 in the paper).
    pub mult8_per_lane: usize,
    /// Intra-lane adders (one per output index).
    pub intra_lane_adders: usize,
    /// Shared inter-lane accumulators (one per output index).
    pub inter_lane_accumulators: usize,
    /// Auxiliary (accumulation) register width in bits.
    pub aux_register_bits: usize,
}

impl Default for CampStructure {
    fn default() -> Self {
        CampStructure::paper()
    }
}

impl CampStructure {
    /// The configuration evaluated in the paper: 8 lanes × 32 8-bit
    /// multipliers, 16 intra-lane adders, 16 inter-lane accumulators and
    /// a 512-bit auxiliary register (4×4 × 32-bit).
    pub fn paper() -> Self {
        CampStructure {
            lanes: 8,
            mult8_per_lane: 32,
            intra_lane_adders: 16,
            inter_lane_accumulators: 16,
            aux_register_bits: 512,
        }
    }

    /// Total 8-bit multipliers.
    pub fn total_mult8(&self) -> usize {
        self.lanes * self.mult8_per_lane
    }

    /// Total 4-bit building blocks (each 8-bit multiplier holds four).
    pub fn total_blocks(&self) -> usize {
        self.total_mult8() * (8 / BLOCK_BITS as usize) * (8 / BLOCK_BITS as usize)
    }

    /// Useful multiplies per issue in 8-bit mode (4×4 tile × k = 16).
    pub fn useful_mults_i8(&self) -> usize {
        16 * 16
    }

    /// Useful multiplies per issue in 4-bit mode (4×4 tile × k = 32).
    pub fn useful_mults_i4(&self) -> usize {
        16 * 32
    }

    /// Multiplier-array utilization in 8-bit mode (1.0 in the paper's
    /// design: all 256 8-bit multipliers produce useful products).
    pub fn utilization_i8(&self) -> f64 {
        self.useful_mults_i8() as f64 / self.total_mult8() as f64
    }

    /// Block utilization in 4-bit mode (0.5: the Cartesian array provides
    /// 1024 4-bit products, 512 are architecturally useful).
    pub fn utilization_i4(&self) -> f64 {
        self.useful_mults_i4() as f64 / self.total_blocks() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_totals() {
        let s = CampStructure::paper();
        assert_eq!(s.total_mult8(), 256);
        assert_eq!(s.total_blocks(), 1024);
    }

    #[test]
    fn utilizations() {
        let s = CampStructure::paper();
        assert!((s.utilization_i8() - 1.0).abs() < 1e-12);
        assert!((s.utilization_i4() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(CampStructure::default(), CampStructure::paper());
    }
}
