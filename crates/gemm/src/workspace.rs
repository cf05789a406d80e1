//! Buffer management for both GeMM halves: a bump allocator laying out
//! matrices in *simulated* machine memory ([`Workspace`]), and a
//! reusable *host-side* pack-buffer pool ([`PackPool`]) for the
//! host-speed engine's packed A images and B panels.
//!
//! The pool's contract is that the steady state allocates nothing:
//! buffers grow to their high-water mark once and are recycled from
//! then on, which [`PackPool::allocations`] makes observable:
//!
//! ```
//! use camp_gemm::PackPool;
//!
//! let mut pool = PackPool::new();
//! pool.a_and_scratch(1024, 0).0.fill(1);
//! let warm = pool.allocations();
//! for _ in 0..100 {
//!     pool.a_and_scratch(1024, 0); // same-size requests reuse the buffer
//! }
//! assert_eq!(pool.allocations(), warm, "steady state is allocation-free");
//! ```

/// Address-space planner for one simulated GeMM.
#[derive(Debug, Clone)]
pub struct Workspace {
    next: u64,
}

impl Workspace {
    /// Start allocating at a small offset (address 0 is left unused so a
    /// zero register is never a valid pointer).
    pub fn new() -> Self {
        Workspace { next: 256 }
    }

    /// Reserve `bytes` aligned to `align` (power of two); returns the base
    /// address.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        debug_assert!(align.is_power_of_two());
        let base = (self.next + align - 1) & !(align - 1);
        self.next = base + bytes;
        base
    }

    /// Total bytes consumed so far (machine memory must be at least this).
    pub fn total(&self) -> u64 {
        self.next
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace::new()
    }
}

/// Reusable host-side pack buffers for one GeMM worker.
///
/// A blocked work unit of the host engine packs its rows into one whole
/// A image before its loop nest runs. Allocating that per
/// request puts an allocator round-trip (and, at these sizes, an
/// mmap/munmap cycle) on the compute path; a `PackPool` instead grows
/// its A-image arena to the high-water mark once and hands out slices
/// from then on. [`PackPool::allocations`] counts actual growths so
/// tests can assert the steady state allocates nothing.
///
/// One pool serves one worker: the parallel engine path gives each
/// thread its own arena. Alongside the A-image arena, a pool also owns
/// an arena of long-lived *panels* ([`PackPool::alloc_panel`]) for
/// callers that must keep several packed B operands alive at once —
/// the batched engine deduplicates shared weight matrices by packing
/// each unique B into one panel and pointing every batch item at it —
/// and a kernel scratch arena ([`PackPool::a_and_scratch`]) for a tier
/// whose macro-kernel re-lays B blocks on the fly.
#[derive(Debug, Default)]
pub struct PackPool {
    a: Vec<i8>,
    scratch: Vec<i8>,
    /// Panel storage (high-water length, never truncated) and the
    /// logical size of each live panel's current allocation.
    panels: Vec<Vec<i8>>,
    panel_lens: Vec<usize>,
    live_panels: usize,
    allocations: u64,
}

/// Handle to one pool-owned panel (see [`PackPool::alloc_panel`]).
/// Valid until the next [`PackPool::reset_panels`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanelId(usize);

impl PackPool {
    /// Empty pool; buffers grow on first use.
    pub fn new() -> Self {
        PackPool::default()
    }

    /// Borrow the A-image arena (exactly `a_bytes`) and the kernel
    /// scratch arena (exactly `scratch_bytes`) at once, growing either
    /// if needed. Contents of both are unspecified: packers must write
    /// every byte they later read (zero-padding included). Each arena is
    /// a high-water mark; a returned slice never exposes the tail a
    /// larger, earlier image left behind.
    pub fn a_and_scratch(
        &mut self,
        a_bytes: usize,
        scratch_bytes: usize,
    ) -> (&mut [i8], &mut [i8]) {
        for (arena, bytes) in [(&mut self.a, a_bytes), (&mut self.scratch, scratch_bytes)] {
            if arena.len() < bytes {
                arena.resize(bytes, 0);
                self.allocations += 1;
            }
        }
        (&mut self.a[..a_bytes], &mut self.scratch[..scratch_bytes])
    }

    /// Invalidate all panel handles and recycle their storage. Call at
    /// the start of a batch; previously grown panel buffers are reused,
    /// so a steady-state batch loop allocates nothing.
    pub fn reset_panels(&mut self) {
        self.live_panels = 0;
    }

    /// Allocate a pool-owned panel of exactly `bytes` bytes and return
    /// its handle. Contents are unspecified (packers must write every
    /// byte they later read), so the steady state neither allocates nor
    /// zero-fills: storage stays at its high-water length and only the
    /// logical size is recorded. Unlike the A-image arena, any number
    /// of panels can be live at once.
    pub fn alloc_panel(&mut self, bytes: usize) -> PanelId {
        if self.live_panels == self.panels.len() {
            self.panels.push(Vec::new());
            self.panel_lens.push(0);
        }
        let panel = &mut self.panels[self.live_panels];
        if panel.len() < bytes {
            panel.resize(bytes, 0);
            self.allocations += 1;
        }
        self.panel_lens[self.live_panels] = bytes;
        self.live_panels += 1;
        PanelId(self.live_panels - 1)
    }

    /// Mutable access to a live panel (for packing).
    ///
    /// # Panics
    /// Panics if `id` is not live (allocated since the last reset).
    pub fn panel_mut(&mut self, id: PanelId) -> &mut [i8] {
        assert!(id.0 < self.live_panels, "stale PanelId");
        &mut self.panels[id.0][..self.panel_lens[id.0]]
    }

    /// Read-only access to a live panel (for the macro-kernel).
    ///
    /// # Panics
    /// Panics if `id` is not live (allocated since the last reset).
    pub fn panel(&self, id: PanelId) -> &[i8] {
        assert!(id.0 < self.live_panels, "stale PanelId");
        &self.panels[id.0][..self.panel_lens[id.0]]
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
    fn allocations_are_aligned_and_disjoint() {
        let mut w = Workspace::new();
        let a = w.alloc(100, 64);
        let b = w.alloc(50, 64);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 100);
        assert!(w.total() >= b + 50);
    }

    #[test]
    fn zero_page_is_reserved() {
        let mut w = Workspace::new();
        assert!(w.alloc(1, 1) >= 256);
    }

    #[test]
    fn pack_pool_reuses_buffers() {
        let mut p = PackPool::new();
        let _ = p.a_and_scratch(1024, 0);
        assert_eq!(p.allocations(), 1);
        // same or smaller requests are served without allocating
        for _ in 0..10 {
            let _ = p.a_and_scratch(1024, 0);
            let _ = p.a_and_scratch(512, 0);
        }
        assert_eq!(p.allocations(), 1);
        // a larger request grows once
        assert_eq!(p.a_and_scratch(2048, 0).0.len(), 2048);
        assert_eq!(p.allocations(), 2);
    }

    #[test]
    fn buffers_are_sized_to_the_packed_block_not_the_high_water_mark() {
        let mut p = PackPool::new();
        p.a_and_scratch(1024, 0).0.fill(7);
        // a smaller image packed after a larger one must not expose the
        // stale tail of the previous one
        let a = p.a_and_scratch(64, 0).0;
        assert_eq!(a.len(), 64);
        a.fill(1);
        assert!(p.a_and_scratch(64, 0).0.iter().all(|&v| v == 1));
    }

    #[test]
    fn the_scratch_arena_grows_apart_from_the_a_arena() {
        let mut p = PackPool::new();
        let (a, s) = p.a_and_scratch(64, 128);
        a.fill(1);
        s.fill(2);
        assert_eq!((a.len(), s.len()), (64, 128));
        assert_eq!(p.allocations(), 2);
        // no scratch, a smaller image: served from the grown arenas
        let (a, s) = p.a_and_scratch(32, 0);
        assert!(a.iter().all(|&v| v == 1) && s.is_empty());
        assert_eq!(p.allocations(), 2);
    }

    #[test]
    fn multiple_panels_are_live_simultaneously() {
        let mut p = PackPool::new();
        let one = p.alloc_panel(16);
        let two = p.alloc_panel(32);
        p.panel_mut(one).fill(1);
        p.panel_mut(two).fill(2);
        assert_eq!(p.panel(one).len(), 16);
        assert_eq!(p.panel(two).len(), 32);
        assert!(p.panel(one).iter().all(|&v| v == 1), "panels must not alias");
        let grown = p.allocations();
        // steady state: same-size reallocation after reset is free
        p.reset_panels();
        let one2 = p.alloc_panel(16);
        let two2 = p.alloc_panel(32);
        assert_eq!(p.panel(one2).len(), 16);
        assert_eq!(p.panel(two2).len(), 32);
        assert_eq!(p.allocations(), grown, "panel reuse must not allocate");
    }

    #[test]
    #[should_panic(expected = "stale PanelId")]
    fn stale_panel_handles_are_rejected() {
        let mut p = PackPool::new();
        let id = p.alloc_panel(8);
        p.reset_panels();
        let _ = p.panel(id);
    }
}
