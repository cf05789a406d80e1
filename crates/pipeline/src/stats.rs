//! Simulation statistics: everything the figure harnesses consume.

use crate::config::{FuKind, NUM_FU_KINDS};
use camp_cache::CacheStats;
use camp_isa::inst::InstClass;

/// Aggregated statistics of a simulated run (or several runs — the
/// blocked-GeMM driver accumulates across program invocations).
///
/// [`SimStats::merge`] composes stats blocks **sequentially**: every
/// field adds, `cycles` included — one core running the blocks back to
/// back, the paper's frame of reference. It is associative and
/// commutative, so the totals do not depend on how the blocked driver
/// groups its per-unit stats (see `docs/SIMULATOR.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total cycles (max completion time across all instructions).
    pub cycles: u64,
    /// Dynamic instruction count.
    pub insts: u64,
    /// Dynamic counts by class: indexed like `class_index`.
    pub class_counts: [u64; 8],
    /// Multiply-accumulate operations represented by the executed
    /// instructions (for GOPS accounting).
    pub macs: u64,
    /// Stall cycles whose binding constraint was a busy arithmetic FU or
    /// an arithmetic producer.
    pub stall_fu: u64,
    /// Stall cycles waiting for load data or a load port.
    pub stall_read: u64,
    /// Stall cycles waiting for the store buffer or a store port.
    pub stall_write: u64,
    /// Busy cycles per FU kind (occupancy × issues).
    pub fu_busy: [u64; NUM_FU_KINDS],
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// `camp` issues in 8-bit mode.
    pub camp_issues_i8: u64,
    /// `camp` issues in 4-bit mode.
    pub camp_issues_i4: u64,
    /// L1D statistics snapshot.
    pub l1d: CacheStats,
    /// L2 statistics snapshot.
    pub l2: CacheStats,
    /// Main-memory reads (line fills).
    pub mem_reads: u64,
    /// Main-memory writes (writebacks).
    pub mem_writes: u64,
}

/// Dense index for an [`InstClass`].
pub(crate) fn class_index(c: InstClass) -> usize {
    match c {
        InstClass::ScalarAlu => 0,
        InstClass::ScalarMem => 1,
        InstClass::Branch => 2,
        InstClass::VLoad => 3,
        InstClass::VStore => 4,
        InstClass::VAlu => 5,
        InstClass::VMul => 6,
        InstClass::Camp => 7,
    }
}

impl SimStats {
    /// Dynamic count of one instruction class.
    pub fn count(&self, c: InstClass) -> u64 {
        self.class_counts[class_index(c)]
    }

    /// Vector loads (the "R" column of Fig. 17).
    pub fn vector_reads(&self) -> u64 {
        self.count(InstClass::VLoad)
    }

    /// Vector stores (the "W" column of Fig. 17).
    pub fn vector_writes(&self) -> u64 {
        self.count(InstClass::VStore)
    }

    /// Vector arithmetic instructions including CAMP (the "Alu" column of
    /// Fig. 17).
    pub fn vector_alu(&self) -> u64 {
        self.count(InstClass::VAlu) + self.count(InstClass::VMul) + self.count(InstClass::Camp)
    }

    /// All vector-unit instructions.
    pub fn vector_insts(&self) -> u64 {
        self.vector_reads() + self.vector_writes() + self.vector_alu()
    }

    /// Busy *rate* of one FU kind: busy cycles divided by `cycles ×
    /// units`, i.e. 1.0 means every unit of the pool was busy every cycle.
    pub fn fu_busy_rate(&self, kind: FuKind, units: u32) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.fu_busy[kind.index()] as f64 / (self.cycles as f64 * units.max(1) as f64)
        }
    }

    /// Total attributed stall cycles.
    pub fn stall_total(&self) -> u64 {
        self.stall_fu + self.stall_read + self.stall_write
    }

    /// Proportion of stalls in each category (FU, Read, Write); zeros if
    /// there were no stalls.
    pub fn stall_proportions(&self) -> (f64, f64, f64) {
        let t = self.stall_total();
        if t == 0 {
            (0.0, 0.0, 0.0)
        } else {
            (
                self.stall_fu as f64 / t as f64,
                self.stall_read as f64 / t as f64,
                self.stall_write as f64 / t as f64,
            )
        }
    }

    /// Giga-operations per second at `freq_ghz` (2 ops per MAC, the
    /// convention the paper's GOPS numbers use).
    pub fn gops(&self, freq_ghz: f64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            2.0 * self.macs as f64 / self.cycles as f64 * freq_ghz
        }
    }

    /// Fold another stats block into this one **sequentially**: every
    /// field adds, cycles included — used when the driver runs packing
    /// programs and macro-kernels back to back on one machine, and to
    /// fold the block units of a GeMM (and the GeMMs of a batch) into
    /// the single-core total.
    pub fn merge(&mut self, other: &SimStats) {
        self.cycles += other.cycles;
        self.insts += other.insts;
        for i in 0..self.class_counts.len() {
            self.class_counts[i] += other.class_counts[i];
        }
        self.macs += other.macs;
        self.stall_fu += other.stall_fu;
        self.stall_read += other.stall_read;
        self.stall_write += other.stall_write;
        for i in 0..NUM_FU_KINDS {
            self.fu_busy[i] += other.fu_busy[i];
        }
        self.mispredicts += other.mispredicts;
        self.camp_issues_i8 += other.camp_issues_i8;
        self.camp_issues_i4 += other.camp_issues_i4;
        self.l1d.merge(&other.l1d);
        self.l2.merge(&other.l2);
        self.mem_reads += other.mem_reads;
        self.mem_writes += other.mem_writes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_dense_and_unique() {
        let classes = [
            InstClass::ScalarAlu,
            InstClass::ScalarMem,
            InstClass::Branch,
            InstClass::VLoad,
            InstClass::VStore,
            InstClass::VAlu,
            InstClass::VMul,
            InstClass::Camp,
        ];
        let mut seen = [false; 8];
        for c in classes {
            let i = class_index(c);
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn vector_groupings() {
        let mut s = SimStats::default();
        s.class_counts[class_index(InstClass::VLoad)] = 10;
        s.class_counts[class_index(InstClass::VStore)] = 5;
        s.class_counts[class_index(InstClass::VAlu)] = 3;
        s.class_counts[class_index(InstClass::VMul)] = 4;
        s.class_counts[class_index(InstClass::Camp)] = 2;
        assert_eq!(s.vector_reads(), 10);
        assert_eq!(s.vector_writes(), 5);
        assert_eq!(s.vector_alu(), 9);
        assert_eq!(s.vector_insts(), 24);
    }

    #[test]
    fn busy_rate_normalizes_by_units() {
        let mut s = SimStats { cycles: 100, ..SimStats::default() };
        s.fu_busy[FuKind::VMul.index()] = 100;
        assert!((s.fu_busy_rate(FuKind::VMul, 1) - 1.0).abs() < 1e-12);
        assert!((s.fu_busy_rate(FuKind::VMul, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stall_proportions_sum_to_one() {
        let s = SimStats { stall_fu: 10, stall_read: 30, stall_write: 60, ..SimStats::default() };
        let (f, r, w) = s.stall_proportions();
        assert!((f + r + w - 1.0).abs() < 1e-12);
        assert!((w - 0.6).abs() < 1e-12);
    }

    #[test]
    fn gops_accounting() {
        let s = SimStats { cycles: 1000, macs: 8000, ..SimStats::default() };
        // 8 MACs/cycle × 2 ops × 2 GHz = 32 GOPS
        assert!((s.gops(2.0) - 32.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SimStats { cycles: 10, insts: 5, ..SimStats::default() };
        let b = SimStats { cycles: 20, insts: 7, stall_read: 3, ..SimStats::default() };
        a.merge(&b);
        assert_eq!(a.cycles, 30);
        assert_eq!(a.insts, 12);
        assert_eq!(a.stall_read, 3);
    }

    /// A stats block with every field non-trivially populated, varied by
    /// `seed` so merge-law tests cannot pass by symmetry.
    fn dense(seed: u64) -> SimStats {
        let mut s = SimStats {
            cycles: 100 + seed * 37,
            insts: 50 + seed * 11,
            macs: seed * 1000 + 1,
            stall_fu: seed + 2,
            stall_read: seed * 2 + 3,
            stall_write: seed * 5 + 1,
            mispredicts: seed + 1,
            camp_issues_i8: seed * 13,
            camp_issues_i4: seed * 17,
            l1d: CacheStats {
                accesses: seed * 100 + 9,
                misses: seed * 10 + 1,
                ..CacheStats::default()
            },
            l2: CacheStats {
                accesses: seed * 60 + 4,
                misses: seed * 6 + 2,
                ..CacheStats::default()
            },
            mem_reads: seed * 4,
            mem_writes: seed * 3,
            ..SimStats::default()
        };
        for (i, c) in s.class_counts.iter_mut().enumerate() {
            *c = seed * 3 + i as u64;
        }
        for (i, f) in s.fu_busy.iter_mut().enumerate() {
            *f = seed * 7 + i as u64;
        }
        s
    }

    #[test]
    fn both_merges_are_associative() {
        let (a, b, c) = (dense(1), dense(5), dense(9));
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right, "(a·b)·c must equal a·(b·c)");
    }

    #[test]
    fn both_merges_are_commutative() {
        // so the totals do not depend on the order units are folded in
        let (a, b) = (dense(2), dense(7));
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "a·b must equal b·a");
    }
}
