//! Per-session K/V cache: per-layer tensors with append-on-decode and
//! a capacity/eviction policy, laid out the way attention reads them.
//!
//! A prefill appends `s` positions, a decode step appends one; the
//! attention GeMMs consume per-head views as dense B-side operands,
//! since (unlike the static weights) they grow every step. Each view is
//! rebuilt every step, so each side is stored in the order its view
//! wants:
//!
//! * **K** is *channel-major* in fixed blocks of 64 positions
//!   (`hidden × 64` bytes per block, appended as positions arrive).
//!   A step's positions are appended together, one
//!   [`HostKernel::k_append`] per block they reach — row-major rows
//!   transposed into the block in registers at the tier's vector width
//!   — and a head's transposed dₕ×t score operand — the crate-internal
//!   `k_head_t` — is dₕ rows of contiguous runs, one per block.
//! * **V** is row-major `t × hidden`; `v_head`'s t×dₕ context operand
//!   is t runs of dₕ bytes.
//!
//! Both accessors copy those runs straight into the one `Arc<[i8]>`
//! allocation the request carries (`arc_filled`), and the engine reads
//! a skinny request's dense B in place — a decode step moves each K/V
//! byte once on its way to the kernel. Memory is proportional to the
//! positions held, never to the configured capacity.

use std::sync::Arc;

use camp_gemm::host::{HostKernel, K_BLOCK};

use crate::session::InferError;

/// What to do when appending would exceed the cache's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KvPolicy {
    /// Refuse the step with [`InferError::KvFull`]; the session keeps
    /// its state and the caller decides (default).
    #[default]
    Reject,
    /// Sliding window: evict the oldest rows from every layer to make
    /// room. Positions keep counting up; the causal mask simply sees a
    /// truncated history. This breaks the decode-equals-recompute
    /// bit-parity guarantee once eviction kicks in — by construction,
    /// the recompute would see rows the window dropped. A step that
    /// fails after evicting gets its own rows taken back, not the
    /// evicted ones: the retry sees the window it would have seen had
    /// it succeeded.
    Window,
}

/// One zero-filled `Arc<[i8]>` allocation of `len` bytes, written in
/// place by `fill` — building a `Vec` first and converting it copies
/// every byte a second time.
pub(crate) fn arc_filled(len: usize, fill: impl FnOnce(&mut [i8])) -> Arc<[i8]> {
    let mut out: Arc<[i8]> = std::iter::repeat_n(0i8, len).collect();
    fill(Arc::get_mut(&mut out).expect("a fresh allocation has one owner"));
    out
}

/// The per-head column block `[head·dₕ, (head+1)·dₕ)` of a row-major
/// matrix of width `d`, as one operand allocation.
pub(crate) fn head_block(x: &[i8], d: usize, head: usize, dh: usize) -> Arc<[i8]> {
    arc_filled(x.len() / d * dh, |out| {
        for (dst, row) in out.chunks_exact_mut(dh).zip(x.chunks_exact(d)) {
            dst.copy_from_slice(&row[head * dh..][..dh]);
        }
    })
}

/// Per-layer K/V storage for one inference session.
#[derive(Debug, Clone)]
pub struct KvCache {
    /// Per-layer K, channel-major in blocks of [`K_BLOCK`] positions:
    /// position `j` of channel `c` is byte
    /// `(j / K_BLOCK)·hidden·K_BLOCK + c·K_BLOCK + j % K_BLOCK`.
    /// Bytes past the layer's length in the last block are unspecified.
    k: Vec<Vec<i8>>,
    /// Per-layer V, row-major `len × hidden`.
    v: Vec<Vec<i8>>,
    hidden: usize,
    capacity: usize,
    policy: KvPolicy,
    /// Absolute position of row 0 (nonzero only after Window eviction).
    base: usize,
}

impl KvCache {
    /// An empty cache for `layers` layers of width `hidden`, holding at
    /// most `capacity` rows per layer. Nothing is allocated until rows
    /// arrive, whatever the capacity.
    ///
    /// # Panics
    /// Panics when `capacity` or `hidden` is zero.
    pub fn new(layers: usize, hidden: usize, capacity: usize, policy: KvPolicy) -> KvCache {
        assert!(capacity > 0, "KV capacity must be at least one row");
        assert!(hidden > 0, "KV row width must be nonzero");
        KvCache {
            k: vec![Vec::new(); layers],
            v: vec![Vec::new(); layers],
            hidden,
            capacity,
            policy,
            base: 0,
        }
    }

    /// Rows currently cached per layer.
    pub fn len(&self) -> usize {
        self.v.first().map_or(0, |l| l.len() / self.hidden)
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum rows per layer.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The eviction policy.
    pub fn policy(&self) -> KvPolicy {
        self.policy
    }

    /// Absolute position of the oldest cached row (nonzero only after
    /// [`KvPolicy::Window`] eviction).
    pub fn base(&self) -> usize {
        self.base
    }

    /// Drop everything but keep the configuration; positions restart
    /// at zero.
    pub fn clear(&mut self) {
        for l in self.k.iter_mut().chain(self.v.iter_mut()) {
            l.clear();
        }
        self.base = 0;
    }

    /// Make room for `rows` new positions before a forward pass:
    /// either error ([`KvPolicy::Reject`]) or evict the oldest rows
    /// from every layer ([`KvPolicy::Window`]). A step larger than the
    /// whole capacity is refused under either policy.
    pub(crate) fn ensure_room(&mut self, rows: usize) -> Result<(), InferError> {
        if rows > self.capacity {
            return Err(InferError::KvFull { capacity: self.capacity });
        }
        let held = self.len();
        if rows <= self.capacity - held {
            return Ok(());
        }
        let evict = held - (self.capacity - rows);
        match self.policy {
            KvPolicy::Reject => Err(InferError::KvFull { capacity: self.capacity }),
            KvPolicy::Window => {
                for (k, v) in self.k.iter_mut().zip(&mut self.v) {
                    relay_k(k, self.hidden, held, evict);
                    v.drain(..evict * self.hidden);
                }
                self.base += evict;
                Ok(())
            }
        }
    }

    /// Append positions to `layer`: `k_rows` and `v_rows` are the same
    /// number of row-major `hidden`-wide rows, one per position. Callers
    /// must have reserved space with [`KvCache::ensure_room`] first.
    ///
    /// K is filled one block at a time, by `kern`'s
    /// [`HostKernel::k_append`] of the block's new positions (up to 64).
    /// Blocks are allocated one at a time as the positions reach them,
    /// and V grows row by row, so a multi-row append asks the heap for
    /// exactly what as many one-row appends would.
    pub(crate) fn push(&mut self, kern: &HostKernel, layer: usize, k_rows: &[i8], v_rows: &[i8]) {
        let hidden = self.hidden;
        assert!(
            k_rows.len() == v_rows.len() && k_rows.len().is_multiple_of(hidden),
            "K and V must be the same whole rows"
        );
        let (t0, rows) = (self.layer_len(layer), k_rows.len() / hidden);
        let k = &mut self.k[layer];
        let mut done = 0;
        while done < rows {
            let t = t0 + done;
            if t.is_multiple_of(K_BLOCK) {
                k.resize(k.len() + hidden * K_BLOCK, 0);
            }
            let (off, run) = (t % K_BLOCK, (K_BLOCK - t % K_BLOCK).min(rows - done));
            let block = &mut k[(t / K_BLOCK) * hidden * K_BLOCK..][..hidden * K_BLOCK];
            kern.k_append(block, &k_rows[done * hidden..][..run * hidden], hidden, off);
            done += run;
        }
        for v_row in v_rows.chunks_exact(hidden) {
            self.v[layer].extend_from_slice(v_row);
        }
    }

    /// Forget every row of `layer` past its first `len`: how a failed
    /// step takes back the rows it had appended. V is cut exactly; K
    /// drops its whole trailing blocks and keeps the partial one, whose
    /// bytes past `len` the next [`KvCache::push`] overwrites.
    pub(crate) fn truncate_rows(&mut self, layer: usize, len: usize) {
        debug_assert!(len <= self.layer_len(layer));
        self.k[layer].truncate(len.div_ceil(K_BLOCK) * self.hidden * K_BLOCK);
        self.v[layer].truncate(len * self.hidden);
    }

    /// Rows currently cached in one specific layer — differs from
    /// [`KvCache::len`] only mid-forward, while later layers have not
    /// been pushed yet.
    pub(crate) fn layer_len(&self, layer: usize) -> usize {
        self.v[layer].len() / self.hidden
    }

    /// The transposed per-head key operand Kᵀ (dₕ × t) for the
    /// attention score GeMM, as a dense B-side operand.
    pub(crate) fn k_head_t(&self, layer: usize, head: usize, dh: usize) -> Arc<[i8]> {
        let t = self.layer_len(layer);
        let blocks = self.k[layer].chunks_exact(self.hidden * K_BLOCK);
        arc_filled(dh * t, |out| {
            for (b, block) in blocks.enumerate() {
                let run = K_BLOCK.min(t - b * K_BLOCK);
                let channels = block[head * dh * K_BLOCK..].chunks_exact(K_BLOCK);
                for (row, src) in out.chunks_exact_mut(t).zip(channels) {
                    row[b * K_BLOCK..][..run].copy_from_slice(&src[..run]);
                }
            }
        })
    }

    /// The per-head value operand V (t × dₕ) for the attention context
    /// GeMM, as a dense B-side operand.
    pub(crate) fn v_head(&self, layer: usize, head: usize, dh: usize) -> Arc<[i8]> {
        head_block(&self.v[layer], self.hidden, head, dh)
    }
}

/// Drop the oldest `evict` of a K layer's `held` positions and re-lay
/// the survivors from position 0, in place. New block `nb` of a channel
/// is old positions `nb·K_BLOCK + evict ..`, which straddle at most two
/// old blocks, neither of them before `nb` — so walking blocks upwards
/// only ever reads bytes that have not been overwritten yet.
fn relay_k(k: &mut Vec<i8>, hidden: usize, held: usize, evict: usize) {
    let block = hidden * K_BLOCK;
    let keep = held - evict;
    for nb in 0..keep.div_ceil(K_BLOCK) {
        let old = nb * K_BLOCK + evict;
        let (ob, op) = (old / K_BLOCK, old % K_BLOCK);
        let first = (K_BLOCK - op).min(held - old);
        let second = (K_BLOCK - first).min(held - old - first);
        for c in 0..hidden {
            let dst = nb * block + c * K_BLOCK;
            let src = ob * block + c * K_BLOCK + op;
            k.copy_within(src..src + first, dst);
            if second > 0 {
                let src = (ob + 1) * block + c * K_BLOCK;
                k.copy_within(src..src + second, dst + first);
            }
        }
    }
    k.truncate(keep.div_ceil(K_BLOCK) * block);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar tier: the byte-loop append the tier tests below hold
    /// every other tier's to.
    fn scalar() -> &'static HostKernel {
        HostKernel::scalar()
    }

    #[test]
    fn append_and_views() {
        let mut kv = KvCache::new(1, 4, 8, KvPolicy::Reject);
        assert!(kv.is_empty());
        kv.ensure_room(2).unwrap();
        kv.push(scalar(), 0, &[1, 2, 3, 4], &[5, 6, 7, 8]);
        kv.push(scalar(), 0, &[9, 10, 11, 12], &[13, 14, 15, 16]);
        assert_eq!(kv.len(), 2);
        // two heads of dh = 2: head 1 covers columns 2..4
        let kt = kv.k_head_t(0, 1, 2);
        assert_eq!(&kt[..], &[3, 11, 4, 12], "dh x t transpose");
        let v = kv.v_head(0, 1, 2);
        assert_eq!(&v[..], &[7, 8, 15, 16], "t x dh slice");
    }

    #[test]
    fn reject_policy_errors_when_full() {
        let mut kv = KvCache::new(2, 4, 2, KvPolicy::Reject);
        kv.ensure_room(2).unwrap();
        for l in 0..2 {
            kv.push(scalar(), l, &[0; 4], &[0; 4]);
            kv.push(scalar(), l, &[0; 4], &[0; 4]);
        }
        let err = kv.ensure_room(1).unwrap_err();
        assert!(matches!(err, InferError::KvFull { capacity: 2 }));
        assert_eq!(kv.len(), 2, "a rejected step must not disturb the cache");
        assert_eq!(kv.base(), 0);
    }

    #[test]
    fn window_policy_evicts_oldest() {
        let mut kv = KvCache::new(1, 2, 2, KvPolicy::Window);
        kv.ensure_room(2).unwrap();
        kv.push(scalar(), 0, &[1, 1], &[1, 1]);
        kv.push(scalar(), 0, &[2, 2], &[2, 2]);
        kv.ensure_room(1).unwrap();
        kv.push(scalar(), 0, &[3, 3], &[3, 3]);
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.base(), 1, "row 0 now holds absolute position 1");
        let kt = kv.k_head_t(0, 0, 2);
        assert_eq!(&kt[..], &[2, 3, 2, 3]);
        // a step wider than the whole window is refused even here
        assert!(kv.ensure_room(3).is_err());
    }

    /// Deterministic K and V rows for absolute position `pos`.
    fn rows(pos: usize, hidden: usize) -> (Vec<i8>, Vec<i8>) {
        let byte = |c: usize, salt: usize| ((pos * 31 + c * 7 + salt) % 251) as i8;
        ((0..hidden).map(|c| byte(c, 0)).collect(), (0..hidden).map(|c| byte(c, 13)).collect())
    }

    /// Append absolute positions `from..to` to layer 0 in one step.
    fn step(kv: &mut KvCache, kern: &HostKernel, from: usize, to: usize) {
        kv.ensure_room(to - from).unwrap();
        let (k, v) = block(from, to, kv.hidden);
        kv.push(kern, 0, &k, &v);
    }

    /// A one-layer cache fed absolute positions `from..to` in steps of
    /// `width` positions through `kern`.
    fn fed(
        kern: &HostKernel,
        hidden: usize,
        capacity: usize,
        policy: KvPolicy,
        (from, to): (usize, usize),
        width: usize,
    ) -> KvCache {
        let mut kv = KvCache::new(1, hidden, capacity, policy);
        for pos in (from..to).step_by(width) {
            step(&mut kv, kern, pos, to.min(pos + width));
        }
        kv
    }

    /// The K and V rows of absolute positions `from..to`, stacked.
    fn block(from: usize, to: usize, hidden: usize) -> (Vec<i8>, Vec<i8>) {
        let (mut ks, mut vs) = (Vec::new(), Vec::new());
        for pos in from..to {
            let (k, v) = rows(pos, hidden);
            ks.extend(k);
            vs.extend(v);
        }
        (ks, vs)
    }

    /// Every head's Kᵀ then V view of layer 0.
    fn views(kv: &KvCache, heads: usize, dh: usize) -> Vec<Arc<[i8]>> {
        (0..heads).flat_map(|h| [kv.k_head_t(0, h, dh), kv.v_head(0, h, dh)]).collect()
    }

    /// Every head's views of `kv` against the row-major definition: the
    /// cache holds absolute positions `base..base + len`.
    fn assert_views_are_the_rows(kv: &KvCache, heads: usize, dh: usize, what: &str) {
        let (t, base) = (kv.len(), kv.base());
        for h in 0..heads {
            let (kt, v) = (kv.k_head_t(0, h, dh), kv.v_head(0, h, dh));
            assert_eq!((kt.len(), v.len()), (dh * t, t * dh));
            for j in 0..t {
                let (k_row, v_row) = rows(base + j, kv.hidden);
                for r in 0..dh {
                    assert_eq!(kt[r * t + j], k_row[h * dh + r], "{what}: Kt h={h} r={r} j={j}");
                    assert_eq!(v[j * dh + r], v_row[h * dh + r], "{what}: V h={h} r={r} j={j}");
                }
            }
        }
    }

    #[test]
    fn views_match_the_row_major_definition_across_block_seams() {
        let (hidden, heads, dh) = (12, 3, 4);
        for t in [1, 63, 64, 65, 129] {
            // fed one position at a time, and as a decode step then a
            // prefill-sized step that starts mid-block
            let mut stepped = KvCache::new(1, hidden, 256, KvPolicy::Reject);
            step(&mut stepped, scalar(), 0, 1);
            step(&mut stepped, scalar(), 1, t);
            for kv in [fed(scalar(), hidden, 256, KvPolicy::Reject, (0, t), 1), stepped] {
                assert_eq!(kv.len(), t);
                assert_views_are_the_rows(&kv, heads, dh, &format!("t={t}"));
            }
        }
    }

    /// Every tier's append, at widths with and without a channel tail
    /// past the last group of 16: a 5-row step, then a 192-row prefill
    /// that starts mid-block and crosses three block seams, then decode
    /// rows landing mid-block — every view the row-major definition, and
    /// every K byte the scalar tier's.
    #[test]
    fn every_tier_appends_prefills_and_decode_rows_across_block_seams() {
        for (hidden, heads) in [(256, 4), (40, 5)] {
            let dh = hidden / heads;
            let mut want = KvCache::new(1, hidden, 256, KvPolicy::Reject);
            for (from, to) in [(0, 5), (5, 197), (197, 198), (198, 199)] {
                step(&mut want, scalar(), from, to);
            }
            for kern in HostKernel::available() {
                let mut kv = KvCache::new(1, hidden, 256, KvPolicy::Reject);
                for (from, to) in [(0, 5), (5, 197), (197, 198), (198, 199)] {
                    step(&mut kv, kern, from, to);
                    let what = format!("{} hidden={hidden} t={to}", kern.tier().name());
                    assert_views_are_the_rows(&kv, heads, dh, &what);
                }
                assert_eq!(kv.k, want.k, "{} hidden={hidden}: K bytes", kern.tier().name());
                // a whole block at once: two 32-row steps per block
                let kv = fed(kern, hidden, 256, KvPolicy::Reject, (0, 192), 64);
                let what = format!("{} hidden={hidden} whole blocks", kern.tier().name());
                assert_views_are_the_rows(&kv, heads, dh, &what);
            }
        }
    }

    #[test]
    fn window_eviction_equals_a_fresh_cache_of_the_survivors() {
        // capacities that make the eviction land mid-block, on a block
        // seam, and more than one block deep; a prefill-sized step too;
        // fed a whole block per step (vector width on every SIMD tier)
        // and one position at a time, on every tier
        let (hidden, heads, dh) = (24, 2, 12);
        for kern in HostKernel::available() {
            for (capacity, fed_to, step_rows) in
                [(70, 70, 1), (70, 70, 5), (64, 64, 64), (130, 130, 67), (192, 192, 40)]
            {
                for width in [1, 64] {
                    let what = format!("{} capacity {capacity} width {width}", kern.tier().name());
                    let policy = KvPolicy::Window;
                    let mut kv = fed(kern, hidden, capacity, policy, (0, fed_to), width);
                    let end = fed_to + step_rows;
                    step(&mut kv, kern, fed_to, end);
                    assert_eq!((kv.len(), kv.base()), (capacity, end - capacity), "{what}");
                    let fresh =
                        fed(scalar(), hidden, capacity, KvPolicy::Reject, (end - capacity, end), 1);
                    assert_eq!(views(&kv, heads, dh), views(&fresh, heads, dh), "{what}");
                    assert_views_are_the_rows(&kv, heads, dh, &what);
                    // and the window keeps sliding one position at a time
                    step(&mut kv, kern, end, end + 1);
                    let survivors = (end + 1 - capacity, end + 1);
                    let fresh = fed(scalar(), hidden, capacity, KvPolicy::Reject, survivors, 1);
                    assert_eq!(views(&kv, heads, dh), views(&fresh, heads, dh), "{what}");
                }
            }
        }
    }

    #[test]
    fn reject_at_capacity_leaves_the_views_byte_identical() {
        let (hidden, heads, dh) = (8, 2, 4);
        let mut kv = fed(scalar(), hidden, 65, KvPolicy::Reject, (0, 65), 1);
        let before = views(&kv, heads, dh);
        assert!(matches!(kv.ensure_room(1), Err(InferError::KvFull { capacity: 65 })));
        assert!(matches!(kv.ensure_room(66), Err(InferError::KvFull { capacity: 65 })));
        assert_eq!((kv.len(), kv.base()), (65, 0));
        assert_eq!(views(&kv, heads, dh), before);
    }

    #[test]
    fn an_unbounded_capacity_allocates_nothing_up_front() {
        // a capacity is a bound, not a reservation: memory follows rows held
        let mut kv = KvCache::new(4, 256, usize::MAX, KvPolicy::Window);
        assert!(kv.k.iter().chain(&kv.v).all(|l| l.capacity() == 0));
        kv.ensure_room(1).unwrap();
        kv.push(HostKernel::detect(), 0, &[1; 256], &[2; 256]);
        assert_eq!(kv.k[0].len(), 256 * K_BLOCK, "one block per 64 positions held");
        assert_eq!(kv.v[0].len(), 256);
    }
}
