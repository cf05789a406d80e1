//! A single set-associative, write-back, write-allocate cache level.

use crate::config::CacheConfig;
use crate::stats::CacheStats;

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Byte address of the first byte of the evicted line.
    pub line_addr: u64,
    /// True if the line was dirty (requires a writeback).
    pub dirty: bool,
}

/// Outcome of a line access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineOutcome {
    /// True on hit.
    pub hit: bool,
    /// True if the line was originally installed by the prefetcher.
    pub was_prefetched: bool,
    /// Line evicted to make room (miss only).
    pub evicted: Option<Evicted>,
}

/// The tag of an invalid way. A tag is an address shifted right by at
/// least one bit ([`Cache::new`] refuses one-byte lines), so no address
/// produces it.
const INVALID: u64 = u64::MAX;

/// One cache level with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    line_shift: u32,
    set_mask: u64,
    // way-major arrays, indexed set * assoc + way
    tags: Vec<u64>,
    dirty: Vec<bool>,
    pref: Vec<bool>,
    stamp: Vec<u64>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache from its configuration.
    ///
    /// # Panics
    /// Panics on inconsistent geometry (see [`CacheConfig::sets`]) and
    /// on lines shorter than two bytes.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_bytes >= 2, "line size {} is under two bytes", cfg.line_bytes);
        let sets = cfg.sets();
        let n = sets * cfg.assoc;
        Cache {
            cfg,
            sets,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
            tags: vec![INVALID; n],
            dirty: vec![false; n],
            pref: vec![false; n],
            stamp: vec![0; n],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// This level's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset statistics (contents are preserved — used to discard warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Return to the state of `Cache::new` with this configuration:
    /// every way invalid, LRU clock and statistics at zero. An invalid
    /// way's dirty, prefetch and LRU fields are never read before the
    /// fill that installs a line writes them, so only the tags are reset.
    pub fn clear(&mut self) {
        self.tags.fill(INVALID);
        self.tick = 0;
        self.stats = CacheStats::default();
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.cfg.line_bytes
    }

    /// Byte address of the line containing `addr`.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.sets.trailing_zeros())
    }

    /// Check residency without updating any state.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.cfg.assoc;
        self.tags[base..base + self.cfg.assoc].contains(&tag)
    }

    /// Perform a demand or prefetch access to the line containing `addr`.
    ///
    /// On a miss the line is installed (write-allocate), possibly evicting
    /// the LRU way, which is reported so the hierarchy can write it back.
    pub fn access(&mut self, addr: u64, is_store: bool, is_prefetch: bool) -> LineOutcome {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.cfg.assoc;

        // hit?
        for w in 0..self.cfg.assoc {
            let i = base + w;
            if self.tags[i] == tag {
                self.stamp[i] = self.tick;
                let was_prefetched = self.pref[i];
                if is_store {
                    self.dirty[i] = true;
                }
                if !is_prefetch {
                    self.stats.accesses += 1;
                    self.stats.hits += 1;
                    if was_prefetched {
                        self.stats.prefetch_hits += 1;
                        self.pref[i] = false; // count once
                    }
                }
                return LineOutcome { hit: true, was_prefetched, evicted: None };
            }
        }

        // miss: choose victim (invalid way first, then LRU)
        let mut victim = base;
        let mut best = u64::MAX;
        for w in 0..self.cfg.assoc {
            let i = base + w;
            if self.tags[i] == INVALID {
                victim = i;
                break;
            }
            if self.stamp[i] < best {
                best = self.stamp[i];
                victim = i;
            }
        }

        let evicted = if self.tags[victim] != INVALID {
            let old_line =
                (self.tags[victim] << self.sets.trailing_zeros() | set as u64) << self.line_shift;
            self.stats.evictions += 1;
            if self.dirty[victim] {
                self.stats.writebacks += 1;
            }
            Some(Evicted { line_addr: old_line, dirty: self.dirty[victim] })
        } else {
            None
        };

        self.tags[victim] = tag;
        self.dirty[victim] = is_store;
        self.pref[victim] = is_prefetch;
        self.stamp[victim] = self.tick;
        if !is_prefetch {
            self.stats.accesses += 1;
            self.stats.misses += 1;
        } else {
            self.stats.prefetches_issued += 1;
        }
        LineOutcome { hit: false, was_prefetched: false, evicted }
    }

    /// Install a writeback from an upper level: marks the line dirty,
    /// without touching demand statistics. Returns an eviction if one was
    /// needed to make room.
    pub fn write_back(&mut self, addr: u64) -> Option<Evicted> {
        // A writeback that hits just dirties the line.
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.cfg.assoc;
        for w in 0..self.cfg.assoc {
            let i = base + w;
            if self.tags[i] == tag {
                self.dirty[i] = true;
                self.stamp[i] = self.tick;
                return None;
            }
        }
        // Miss: allocate without stats (treated as a fill from above).
        let out = self.access(addr, true, true);
        // undo the prefetch-issued count: this was a writeback, not a prefetch
        self.stats.prefetches_issued -= 1;
        out.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 16-byte lines = 128 B
        Cache::new(CacheConfig {
            size_bytes: 128,
            assoc: 2,
            line_bytes: 16,
            hit_latency: 1,
            prefetch: false,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x40, false, false).hit);
        assert!(c.access(0x4f, false, false).hit); // same line
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // set 0 lines: addresses with (addr/16) % 4 == 0 -> 0x000, 0x040, 0x080
        c.access(0x000, false, false);
        c.access(0x040, false, false);
        c.access(0x000, false, false); // touch 0x000 so 0x040 is LRU
        let out = c.access(0x080, false, false);
        assert_eq!(out.evicted, Some(Evicted { line_addr: 0x040, dirty: false }));
        assert!(c.probe(0x000));
        assert!(!c.probe(0x040));
        assert!(c.probe(0x080));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0x000, true, false); // store -> dirty
        c.access(0x040, false, false);
        let out = c.access(0x080, false, false);
        assert_eq!(out.evicted, Some(Evicted { line_addr: 0x000, dirty: true }));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn prefetch_fills_do_not_count_as_demand() {
        let mut c = tiny();
        c.access(0x100, false, true); // prefetch
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.stats().prefetches_issued, 1);
        let out = c.access(0x100, false, false);
        assert!(out.hit);
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0x200, false, false);
        c.access(0x200, true, false);
        c.access(0x240, false, false);
        let out = c.access(0x280, false, false);
        // evicted line 0x200 must be dirty from the store hit
        assert!(out.evicted.unwrap().dirty);
    }

    #[test]
    fn write_back_dirties_resident_line() {
        let mut c = tiny();
        c.access(0x000, false, false);
        assert!(c.write_back(0x000).is_none());
        c.access(0x040, false, false);
        let out = c.access(0x080, false, false);
        assert!(out.evicted.unwrap().dirty);
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut c = tiny();
        c.access(0x0, false, false);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0x0, false, false).hit);
    }

    #[test]
    fn a_cleared_cache_behaves_like_a_new_one() {
        // fill every way with a mix of clean, dirty and prefetched lines
        let mut used = tiny();
        for (i, addr) in (0..0x400u64).step_by(0x10).enumerate() {
            used.access(addr, i % 3 == 0, i % 5 == 0);
        }
        used.clear();
        assert_eq!(*used.stats(), CacheStats::default());
        let fresh = tiny();
        for addr in (0..0x400u64).step_by(0x10) {
            assert_eq!(used.probe(addr), fresh.probe(addr), "probe {addr:#x}");
        }
        // the same stream from here on: same outcomes (hits, victims,
        // dirtiness, prefetch credit), same stats
        let mut fresh = fresh;
        let stream = [0x000, 0x040, 0x000, 0x080, 0x0c0, 0x100, 0x040, 0x010, 0x050, 0x090];
        for (i, &addr) in stream.iter().enumerate() {
            let (st, pf) = (i % 2 == 1, i % 4 == 3);
            assert_eq!(used.access(addr, st, pf), fresh.access(addr, st, pf), "access {i}");
        }
        assert_eq!(used.write_back(0x200), fresh.write_back(0x200));
        assert_eq!(used.stats(), fresh.stats());
    }

    #[test]
    fn line_of_masks_offset() {
        let c = tiny();
        assert_eq!(c.line_of(0x47), 0x40);
        assert_eq!(c.line_bytes(), 16);
    }
}
