//! Two-level hierarchy with main memory and prefetching.

use crate::cache::Cache;
use crate::config::HierarchyConfig;
use crate::prefetch::{StridePrefetcher, MAX_DEGREE};

/// Result of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Load-to-use latency in cycles for this access.
    pub latency: u32,
    /// True if every line touched hit in L1.
    pub l1_hit: bool,
    /// True if the access was satisfied at or above L2.
    pub l2_hit: bool,
}

/// L1D + L2 + main memory, with stride prefetchers where configured.
///
/// Prefetches are modeled as *timely*: a prefetched line that has arrived
/// before its demand access produces an L1 hit. This idealization is noted
/// in `docs/SIMULATOR.md` ("Idealizations and substitutions"); it matches
/// how the paper's gem5 configuration largely hides streaming misses
/// behind its stride prefetchers.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1d: Cache,
    l2: Cache,
    l1_prefetcher: StridePrefetcher,
    l2_prefetcher: StridePrefetcher,
    mem_reads: u64,
    mem_writes: u64,
}

impl Hierarchy {
    /// Build the hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Hierarchy {
            cfg,
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l1_prefetcher: StridePrefetcher::new(64, 2),
            l2_prefetcher: StridePrefetcher::new(64, 4),
            mem_reads: 0,
            mem_writes: 0,
        }
    }

    /// The L1 data cache.
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The unified L2.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Main-memory read transactions (L2 line fills).
    pub fn mem_reads(&self) -> u64 {
        self.mem_reads
    }

    /// Main-memory write transactions (L2 writebacks).
    pub fn mem_writes(&self) -> u64 {
        self.mem_writes
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Reset all statistics, keeping cache contents (warmup discard).
    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.mem_reads = 0;
        self.mem_writes = 0;
    }

    /// Return to the state of `Hierarchy::new` with this configuration:
    /// cold caches, untrained prefetchers, zero statistics and memory
    /// traffic.
    pub fn clear(&mut self) {
        self.l1d.clear();
        self.l2.clear();
        self.l1_prefetcher.clear();
        self.l2_prefetcher.clear();
        self.mem_reads = 0;
        self.mem_writes = 0;
    }

    /// Bring one line (identified by any byte address within it) into L1,
    /// going through L2 / memory as needed. Returns (l1_hit, l2_hit).
    fn access_line(&mut self, addr: u64, is_store: bool, is_prefetch: bool) -> (bool, bool) {
        let out1 = self.l1d.access(addr, is_store, is_prefetch);
        if let Some(ev) = out1.evicted {
            if ev.dirty {
                if let Some(ev2) = self.l2.write_back(ev.line_addr) {
                    if ev2.dirty {
                        self.mem_writes += 1;
                    }
                }
            }
        }
        if out1.hit {
            return (true, true);
        }
        // L1 miss -> L2 (demand, even if the L1 request was a prefetch:
        // the stats distinction only matters at the level that counts it)
        let out2 = self.l2.access(addr, false, is_prefetch);
        if let Some(ev) = out2.evicted {
            if ev.dirty {
                self.mem_writes += 1;
            }
        }
        if !out2.hit {
            self.mem_reads += 1;
        }
        (false, out2.hit)
    }

    /// Perform a demand access of `size` bytes at `addr` from the memory
    /// instruction at `pc`, training the prefetchers and returning the
    /// load-to-use latency.
    pub fn access(&mut self, addr: u64, size: u32, is_store: bool, pc: u64) -> AccessOutcome {
        let line = self.cfg.l1d.line_bytes as u64;
        let first = self.l1d.line_of(addr);
        let last = self.l1d.line_of(addr + (size.max(1) as u64 - 1));

        let mut all_l1 = true;
        let mut all_l2 = true;
        let mut a = first;
        loop {
            let (h1, h2) = self.access_line(a, is_store, false);
            all_l1 &= h1;
            all_l2 &= h2;
            if a == last {
                break;
            }
            a += line;
        }

        // Train L1 prefetcher on the demand stream.
        if self.cfg.l1d.prefetch {
            let mut out = [0u64; MAX_DEGREE];
            let n = self.l1_prefetcher.train(pc, addr, &mut out);
            for &pa in &out[..n] {
                // A target inside the demand's own lines cannot miss: the
                // loop above just made them resident, and the targets come
                // nearest first, so no prefetch fill precedes this one.
                if (first..=last).contains(&self.l1d.line_of(pa)) {
                    debug_assert!(self.l1d.probe(pa), "a demanded line left L1");
                } else if !self.l1d.probe(pa) {
                    self.access_line(pa, false, true);
                }
            }
        }
        // Train L2 prefetcher on L1 misses.
        if self.cfg.l2.prefetch && !all_l1 {
            let mut out = [0u64; MAX_DEGREE];
            let n = self.l2_prefetcher.train(pc, addr, &mut out);
            for &pa in &out[..n] {
                if !self.l2.probe(pa) {
                    let out2 = self.l2.access(pa, false, true);
                    if let Some(ev) = out2.evicted {
                        if ev.dirty {
                            self.mem_writes += 1;
                        }
                    }
                }
            }
        }

        let latency = if all_l1 {
            self.cfg.l1d.hit_latency
        } else if all_l2 {
            self.cfg.l1d.hit_latency + self.cfg.l2.hit_latency
        } else {
            self.cfg.l1d.hit_latency + self.cfg.l2.hit_latency + self.cfg.mem_latency
        };
        AccessOutcome { latency, l1_hit: all_l1, l2_hit: all_l2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, HierarchyConfig};

    fn small_cfg(prefetch: bool) -> HierarchyConfig {
        HierarchyConfig {
            l1d: CacheConfig {
                size_bytes: 1 << 10,
                assoc: 2,
                line_bytes: 64,
                hit_latency: 2,
                prefetch,
            },
            l2: CacheConfig {
                size_bytes: 8 << 10,
                assoc: 4,
                line_bytes: 64,
                hit_latency: 10,
                prefetch,
            },
            mem_latency: 100,
        }
    }

    #[test]
    fn latency_tiers() {
        let mut h = Hierarchy::new(small_cfg(false));
        let miss = h.access(0, 8, false, 1);
        assert_eq!(miss.latency, 112); // 2 + 10 + 100
        let hit = h.access(0, 8, false, 1);
        assert_eq!(hit.latency, 2);
        // evict from tiny L1 but keep in L2: touch enough conflicting sets
        for i in 1..64 {
            h.access(i * 64, 8, false, 1);
        }
        let l2hit = h.access(0, 8, false, 1);
        assert_eq!(l2hit.latency, 12);
    }

    #[test]
    fn spanning_access_touches_two_lines() {
        let mut h = Hierarchy::new(small_cfg(false));
        let out = h.access(60, 8, false, 1); // crosses 64-byte boundary
        assert!(!out.l1_hit);
        assert_eq!(h.l1d().stats().accesses, 2);
    }

    #[test]
    fn streaming_with_prefetch_mostly_hits() {
        let mut h = Hierarchy::new(small_cfg(true));
        for i in 0..4096u64 {
            h.access(i * 64, 64, false, 42);
        }
        let mr = h.l1d().stats().demand_miss_rate();
        assert!(mr < 0.10, "streaming miss rate {mr} too high with prefetcher");
    }

    #[test]
    fn streaming_without_prefetch_always_misses() {
        let mut h = Hierarchy::new(small_cfg(false));
        for i in 0..4096u64 {
            h.access(i * 64, 64, false, 42);
        }
        let mr = h.l1d().stats().demand_miss_rate();
        assert!(mr > 0.99, "cold streaming should miss every line, got {mr}");
    }

    #[test]
    fn dirty_l1_eviction_reaches_l2_then_memory() {
        let mut h = Hierarchy::new(small_cfg(false));
        // write a line, evict it from L1 (conflict), then flood L2
        h.access(0, 8, true, 1);
        for i in 1..=16u64 {
            h.access(i * 1024, 8, false, 1); // same L1 set (1KB/2-way/64B = 8 sets)
        }
        assert!(h.l1d().stats().writebacks >= 1);
        // now flood L2 so the dirty line leaves L2 too
        for i in 0..1024u64 {
            h.access((1 << 20) + i * 64, 8, false, 1);
        }
        assert!(h.mem_writes() >= 1);
    }

    #[test]
    fn reuse_within_l2_workingset() {
        let mut h = Hierarchy::new(small_cfg(false));
        // 4 KiB working set fits L2 (8 KiB) but not L1 (1 KiB)
        for _round in 0..8 {
            for i in 0..64u64 {
                h.access(i * 64, 8, false, 1);
            }
        }
        let s2 = h.l2().stats();
        assert!(s2.hit_rate() > 0.8, "L2 should absorb reuse, hit rate {}", s2.hit_rate());
        assert_eq!(h.mem_reads(), 64); // only cold fills
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut h = Hierarchy::new(small_cfg(false));
        h.access(0, 8, false, 1);
        h.reset_stats();
        assert_eq!(h.l1d().stats().accesses, 0);
        assert_eq!(h.mem_reads(), 0);
    }

    #[test]
    fn presets_construct() {
        let _ = Hierarchy::new(HierarchyConfig::a64fx());
        let _ = Hierarchy::new(HierarchyConfig::edge_riscv());
    }
}
