//! The host-speed engine's reusable pack-buffer pool ([`PackPool`]) for
//! its packed A images and B panels.
//!
//! The pool's contract is that the steady state allocates nothing:
//! buffers grow to their high-water mark once and are recycled from
//! then on, which [`PackPool::allocations`] makes observable:
//!
//! ```
//! use camp_gemm::PackPool;
//!
//! let mut pool = PackPool::new();
//! pool.arenas(1024, 512, 0).0.fill(1);
//! let warm = pool.allocations();
//! for _ in 0..100 {
//!     pool.arenas(1024, 512, 0); // same-size requests reuse the buffers
//! }
//! assert_eq!(pool.allocations(), warm, "steady state is allocation-free");
//! ```

/// Reusable host-side pack buffers for one GeMM worker.
///
/// A work unit of the host engine packs what it reads before its loop
/// nest runs: its rows into one whole A image, a dense B into one whole
/// panel. Allocating those per request puts an allocator round-trip
/// (and, at these sizes, an mmap/munmap cycle) on the compute path; a
/// `PackPool` instead grows each of its three arenas — the A image, the
/// B panel and the scratch of a tier whose macro-kernel re-lays B
/// blocks on the fly — to its high-water mark once and hands out slices
/// from then on ([`PackPool::arenas`]). [`PackPool::allocations`] counts
/// actual growths so tests can assert the steady state allocates
/// nothing. One pool serves one worker: the parallel engine path gives
/// each thread its own.
#[derive(Debug, Default)]
pub struct PackPool {
    a: Vec<i8>,
    b: Vec<i8>,
    scratch: Vec<i8>,
    allocations: u64,
}

impl PackPool {
    /// Empty pool; buffers grow on first use.
    pub fn new() -> Self {
        PackPool::default()
    }

    /// Borrow the A-image arena (exactly `a_bytes`), the B-panel arena
    /// (exactly `b_bytes`) and the kernel scratch arena (exactly
    /// `scratch_bytes`) at once, growing any that is too small. Contents
    /// are unspecified: packers must write every byte they later read
    /// (zero-padding included). Each arena is a high-water mark; a
    /// returned slice never exposes the tail a larger, earlier image
    /// left behind.
    pub fn arenas(
        &mut self,
        a_bytes: usize,
        b_bytes: usize,
        scratch_bytes: usize,
    ) -> (&mut [i8], &mut [i8], &mut [i8]) {
        for (arena, bytes) in
            [(&mut self.a, a_bytes), (&mut self.b, b_bytes), (&mut self.scratch, scratch_bytes)]
        {
            if arena.len() < bytes {
                arena.resize(bytes, 0);
                self.allocations += 1;
            }
        }
        (&mut self.a[..a_bytes], &mut self.b[..b_bytes], &mut self.scratch[..scratch_bytes])
    }

    /// Number of buffer growths since construction. Flat across calls
    /// ⇒ the hot loop is allocation-free.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_pool_reuses_buffers() {
        let mut p = PackPool::new();
        let _ = p.arenas(1024, 0, 0);
        assert_eq!(p.allocations(), 1);
        // same or smaller requests are served without allocating
        for _ in 0..10 {
            let _ = p.arenas(1024, 0, 0);
            let _ = p.arenas(512, 0, 0);
        }
        assert_eq!(p.allocations(), 1);
        // a larger request grows once
        assert_eq!(p.arenas(2048, 0, 0).0.len(), 2048);
        assert_eq!(p.allocations(), 2);
    }

    #[test]
    fn buffers_are_sized_to_the_packed_block_not_the_high_water_mark() {
        let mut p = PackPool::new();
        p.arenas(1024, 0, 0).0.fill(7);
        // a smaller image packed after a larger one must not expose the
        // stale tail of the previous one
        let a = p.arenas(64, 0, 0).0;
        assert_eq!(a.len(), 64);
        a.fill(1);
        assert!(p.arenas(64, 0, 0).0.iter().all(|&v| v == 1));
    }

    #[test]
    fn the_scratch_arena_grows_apart_from_the_a_arena() {
        // three arenas, each grown on its own and none aliasing another
        let mut p = PackPool::new();
        let (a, b, s) = p.arenas(64, 96, 128);
        a.fill(1);
        b.fill(2);
        s.fill(3);
        assert_eq!((a.len(), b.len(), s.len()), (64, 96, 128));
        assert_eq!(p.allocations(), 3);
        // smaller requests, one arena unused: served from the grown ones
        let (a, b, s) = p.arenas(32, 48, 0);
        assert!(a.iter().all(|&v| v == 1) && b.iter().all(|&v| v == 2) && s.is_empty());
        assert_eq!(p.allocations(), 3);
        // the B arena grows alone
        assert_eq!(p.arenas(0, 200, 0).1.len(), 200);
        assert_eq!(p.allocations(), 4);
    }
}
