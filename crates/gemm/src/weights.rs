//! Pre-packed weight registry and the host-side packing routines it
//! shares with `camp-core`'s engine.
//!
//! A serving workload multiplies the *same* quantized weight matrices
//! against millions of distinct activations. Re-packing B on every call
//! is pure overhead: the packed image of a k×n operand depends only on
//! (n, k), the kernel's k-step and the blocking — never on the
//! activation — so it can be built exactly once and consumed forever.
//! [`WeightRegistry::register`] packs a weight matrix into a panel the
//! registration owns and returns a copyable [`WeightHandle`]; every
//! later GeMM against that handle runs with **zero B-packing**.
//!
//! This module is also where the host engine's shared packed layouts
//! meet the registry: [`prepack_b`] lays out a whole B in the blocked
//! loops' visit order (offsets from [`crate::batch::packed_b_offset`])
//! through the detected tier's block packers, and [`host_block_plan`]
//! pins the blocking factors. A registry packs every panel through
//! [`prepack_b`]: B's panel image is the same on every tier, so a
//! pre-packed panel is bit-identical to what per-block packing would
//! have produced, whichever tier reads it, and results cannot diverge
//! (A's image is not the registry's business: each blocked work unit
//! packs its own rows for the engine's kernel):
//!
//! ```
//! use camp_gemm::batch::packed_b_bytes;
//! use camp_gemm::weights::{host_block_plan, prepack_b, DType, WeightRegistry};
//!
//! let (n, k) = (8, 40);
//! let w: Vec<i8> = (0..k * n).map(|i| (i % 15) as i8 - 7).collect();
//!
//! let mut registry = WeightRegistry::new();
//! let handle = registry.register(n, k, &w, DType::I8);
//!
//! // the registered panel is exactly a standalone prepack of the operand
//! let plan = host_block_plan(1, n, k, DType::I8.k_step());
//! let mut expect = vec![0i8; packed_b_bytes(&plan)];
//! prepack_b(&mut expect, &w, n, k, &plan);
//! assert_eq!(registry.panel(handle).1, &expect[..]);
//! ```
//!
//! (`CampEngine::register_weights` and handle-operand `GemmRequest`s in
//! `camp-core` wrap this registry behind the engine API — see their
//! doctests.)

use std::sync::Arc;

use crate::batch::packed_b_bytes;
use crate::host::HostKernel;
use crate::loops::BlockPlan;
use crate::request::RequestError;

/// The host engine's cache blocking: (mc, nc, kc), multiples of the
/// 4×4 register tile and both camp k-steps. A constant, not a setting:
/// every host-side packer goes through [`host_block_plan`], so
/// pre-packed panels and per-block packing always agree on layout.
pub const HOST_BLOCKING: (usize, usize, usize) = (128, 256, 2048);

/// The [`BlockPlan`] every host-side GeMM over a 4×4 camp tile uses.
/// B-panel layout depends only on `n`, `k`, `k_step` and the blocking
/// (never `m` or the dispatched [`crate::host::HostKernel`] tier), so
/// a plan built here for any `m` indexes the same packed B image.
pub fn host_block_plan(m: usize, n: usize, k: usize, k_step: usize) -> BlockPlan {
    BlockPlan::new(m, n, k, 4, 4, k_step, HOST_BLOCKING)
}

/// Element type a problem runs under — selects the camp kernel
/// (`camp.s8` vs `camp.s4`) and with it the packed-operand layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 8-bit operands, 16 k-steps per `camp.s8` issue.
    I8,
    /// 4-bit operands (stored one per byte, values in [-8, 7]),
    /// 32 k-steps per `camp.s4` issue.
    I4,
}

impl DType {
    /// k-values one camp issue of this dtype consumes.
    pub fn k_step(self) -> usize {
        match self {
            DType::I8 => 16,
            DType::I4 => 32,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DType::I8 => "i8",
            DType::I4 => "i4",
        }
    }
}

/// Copyable handle to one registered weight matrix, valid until that
/// registration is evicted ([`WeightRegistry::evict`] /
/// [`WeightRegistry::clear`]). Handles are stamped with their
/// registry's identity *and* their slot's generation: using one against
/// a different engine's registry, or after its registration was
/// evicted, fails with a typed [`RequestError`]
/// ([`RequestError::StaleHandle`] after eviction) instead of silently
/// multiplying the wrong weights when shapes happen to coincide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WeightHandle {
    registry: u64,
    index: usize,
    generation: u64,
}

impl WeightHandle {
    /// Slot index of this handle in its registry.
    pub fn index(self) -> usize {
        self.index
    }

    /// Identity of the registry that issued this handle (see
    /// [`WeightRegistry::id`]).
    pub fn registry(self) -> u64 {
        self.registry
    }

    /// Generation of the slot when this handle was issued; a slot
    /// re-used after eviction carries a higher generation, which is how
    /// stale handles are detected.
    pub fn generation(self) -> u64 {
        self.generation
    }
}

/// Submit-time view of a registry: registry identity plus the
/// generation and metadata of every live slot. A serving session
/// validates submissions against this snapshot without holding the
/// backend, and [`crate::request::GemmRequest::resolve`] reads handle
/// shapes out of it.
#[derive(Debug, Clone)]
pub struct WeightSnapshot {
    registry: u64,
    entries: Vec<Option<(u64, WeightMeta)>>,
}

impl WeightSnapshot {
    /// An empty snapshot tied to no registry (every handle is foreign).
    pub fn empty() -> Self {
        WeightSnapshot { registry: u64::MAX, entries: Vec::new() }
    }

    /// Shape/dtype of a handle's registration at snapshot time, or why
    /// the handle is invalid.
    pub fn meta(&self, h: WeightHandle) -> Result<WeightMeta, RequestError> {
        if h.registry != self.registry {
            return Err(RequestError::ForeignHandle);
        }
        match self.entries.get(h.index) {
            None => Err(RequestError::UnknownHandle),
            Some(None) => Err(RequestError::StaleHandle),
            Some(Some((generation, meta))) => {
                if *generation == h.generation {
                    Ok(*meta)
                } else {
                    Err(RequestError::StaleHandle)
                }
            }
        }
    }

    /// Live registrations in the snapshot.
    pub fn live(&self) -> usize {
        self.entries.iter().flatten().count()
    }
}

/// Shape and dtype of one registered weight matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightMeta {
    /// Columns of the weight matrix (N of the GeMM).
    pub n: usize,
    /// Rows of the weight matrix (K of the GeMM).
    pub k: usize,
    /// Kernel the panel was packed for.
    pub dtype: DType,
}

impl WeightMeta {
    /// Multiply-accumulates of one m-row GeMM against this weight.
    pub fn macs(&self, m: usize) -> u64 {
        m as u64 * self.n as u64 * self.k as u64
    }
}

/// One live registration: its shape and the bytes it owns, freed when
/// the entry is dropped.
#[derive(Debug)]
struct Entry {
    meta: WeightMeta,
    bytes: Stored,
}

/// What a registration keeps, by registry mode.
#[derive(Debug)]
enum Stored {
    /// The host-packed panel, exactly [`packed_b_bytes`] long.
    Packed(Box<[i8]>),
    /// Raw row-major k×n bytes (raw-mirror mode: the simulated backend
    /// stages these into machine memory).
    Raw(Arc<[i8]>),
}

impl Entry {
    fn resident(&self) -> u64 {
        match &self.bytes {
            Stored::Packed(p) => p.len() as u64,
            Stored::Raw(r) => r.len() as u64,
        }
    }
}

/// One registry slot: its current generation plus the live entry, if
/// any. Evicting clears the entry; re-registering into the slot bumps
/// the generation, which is what invalidates outstanding handles.
#[derive(Debug)]
struct Slot {
    generation: u64,
    entry: Option<Entry>,
}

/// Registry of pre-packed B operands: each registration packs the
/// weight once into a panel the registration owns; lookups are index reads.
/// Long-lived serving engines can drop stale layers with
/// [`WeightRegistry::evict`] / [`WeightRegistry::clear`] — evicted
/// storage is freed and the slot is recycled under a new generation, so
/// outstanding handles to the old registration fail loudly instead of
/// reading the new occupant.
///
/// [`WeightRegistry::raw_mirror`] builds the *simulated* flavor of the
/// registry: identical handle semantics (identity, generations,
/// eviction), but registrations keep the raw weight bytes (for staging
/// into simulated machine memory) instead of a host-packed panel.
#[derive(Debug)]
pub struct WeightRegistry {
    id: u64,
    slots: Vec<Slot>,
    /// Evicted slot indices awaiting re-use.
    free: Vec<usize>,
    packed_bytes: u64,
    resident_bytes: u64,
    /// Raw-mirror mode: keep raw bytes, skip host packing.
    raw_mode: bool,
}

impl Default for WeightRegistry {
    fn default() -> Self {
        WeightRegistry::new()
    }
}

impl WeightRegistry {
    /// Empty host registry (packed panels) with a process-unique
    /// identity.
    pub fn new() -> Self {
        WeightRegistry::with_mode(false)
    }

    /// Empty **raw-mirror** registry: registrations keep the raw
    /// row-major weight bytes (readable via [`WeightRegistry::raw`])
    /// and pack no host panels — the storage mode of the simulated
    /// backend's weight registry.
    pub fn raw_mirror() -> Self {
        WeightRegistry::with_mode(true)
    }

    fn with_mode(raw_mode: bool) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(0);
        WeightRegistry {
            id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
            slots: Vec::new(),
            free: Vec::new(),
            packed_bytes: 0,
            resident_bytes: 0,
            raw_mode,
        }
    }

    /// Process-unique identity stamped into every handle this registry
    /// issues.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Pack the row-major k×n weight matrix `b` for `dtype`'s kernel and
    /// keep the panel alive until the registration is evicted.
    /// Zero-dimension weights register an empty panel (their GeMMs are
    /// degenerate). In raw-mirror mode the raw bytes are kept instead of
    /// a packed panel.
    ///
    /// # Panics
    /// Panics if `b.len() != k * n`.
    pub fn register(&mut self, n: usize, k: usize, b: &[i8], dtype: DType) -> WeightHandle {
        assert_eq!(b.len(), k * n, "weights must be k×n");
        let bytes = if self.raw_mode {
            Stored::Raw(Arc::from(b))
        } else {
            let plan = host_block_plan(4, n, k, dtype.k_step());
            let len = if n == 0 || k == 0 { 0 } else { packed_b_bytes(&plan) };
            let mut panel = vec![0i8; len].into_boxed_slice();
            prepack_b(&mut panel, b, n, k, &plan);
            self.packed_bytes += len as u64;
            Stored::Packed(panel)
        };
        let entry = Entry { meta: WeightMeta { n, k, dtype }, bytes };
        self.resident_bytes += entry.resident();
        let index = match self.free.pop() {
            Some(index) => {
                // re-use the evicted slot under a fresh generation, so
                // handles to the old occupant read as stale
                let slot = &mut self.slots[index];
                slot.generation += 1;
                slot.entry = Some(entry);
                index
            }
            None => {
                self.slots.push(Slot { generation: 0, entry: Some(entry) });
                self.slots.len() - 1
            }
        };
        WeightHandle { registry: self.id, index, generation: self.slots[index].generation }
    }

    /// Fallible lookup: the entry behind a handle, or why the handle is
    /// invalid.
    fn try_entry(&self, h: WeightHandle) -> Result<&Entry, RequestError> {
        if h.registry != self.id {
            return Err(RequestError::ForeignHandle);
        }
        let slot = self.slots.get(h.index).ok_or(RequestError::UnknownHandle)?;
        if slot.generation != h.generation {
            return Err(RequestError::StaleHandle);
        }
        slot.entry.as_ref().ok_or(RequestError::StaleHandle)
    }

    /// Shape/dtype of a registered weight, or why the handle is
    /// invalid ([`RequestError::StaleHandle`] after eviction).
    pub fn try_meta(&self, h: WeightHandle) -> Result<WeightMeta, RequestError> {
        Ok(self.try_entry(h)?.meta)
    }

    /// A registered weight's shape and its packed panel, ready for any
    /// worker to consume at [`crate::batch::packed_b_offset`] offsets.
    ///
    /// # Panics
    /// Panics on a foreign, unknown or evicted handle, and in
    /// raw-mirror mode (no packed panels exist there).
    pub fn panel(&self, h: WeightHandle) -> (WeightMeta, &[i8]) {
        let entry = self.try_entry(h).unwrap_or_else(|e| panic!("{e}"));
        match &entry.bytes {
            Stored::Packed(panel) => (entry.meta, panel),
            Stored::Raw(_) => panic!("raw-mirror registries hold no packed panels"),
        }
    }

    /// The raw row-major k×n bytes of a registration (raw-mirror mode
    /// only; host registries keep only the packed form).
    pub fn raw(&self, h: WeightHandle) -> Result<Arc<[i8]>, RequestError> {
        match &self.try_entry(h)?.bytes {
            Stored::Raw(raw) => Ok(raw.clone()),
            Stored::Packed(_) => {
                Err(RequestError::Unsupported("registry does not retain raw weight bytes"))
            }
        }
    }

    /// Drop one registration: its storage is freed, later uses of the
    /// handle are stale, and the slot is recycled by a future
    /// [`WeightRegistry::register`] under a new generation.
    pub fn evict(&mut self, h: WeightHandle) -> Result<WeightMeta, RequestError> {
        // validate first so a bad handle cannot free anything
        self.try_entry(h)?;
        let slot = &mut self.slots[h.index];
        let entry = slot.entry.take().expect("validated live entry");
        self.resident_bytes -= entry.resident();
        self.free.push(h.index);
        Ok(entry.meta)
    }

    /// Evict every live registration (a serving engine dropping a whole
    /// stale model). Outstanding handles all become stale.
    pub fn clear(&mut self) {
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if let Some(entry) = slot.entry.take() {
                self.resident_bytes -= entry.resident();
                self.free.push(index);
            }
        }
    }

    /// Number of live registrations.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.entry.is_some()).count()
    }

    /// True when nothing is registered (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes packed at registration time, cumulatively (one-time
    /// cost the steady state never pays again; not decreased by
    /// eviction — see [`WeightRegistry::resident_bytes`]).
    pub fn packed_bytes(&self) -> u64 {
        self.packed_bytes
    }

    /// Bytes currently resident for live registrations; eviction
    /// returns them, which is the point of registry hygiene on
    /// long-lived serving engines.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Submit-time snapshot of every slot (identity, generations,
    /// metadata) — what a serving session validates requests against.
    pub fn snapshot(&self) -> WeightSnapshot {
        WeightSnapshot {
            registry: self.id,
            entries: self
                .slots
                .iter()
                .map(|s| s.entry.as_ref().map(|e| (s.generation, e.meta)))
                .collect(),
        }
    }
}

/// Pack every (jc, pc) block of B in the blocked loops' visit order
/// into `dst` (sized by [`packed_b_bytes`]) through the detected
/// kernel: [`HostKernel::prepack_b`], whose image is the same on every
/// tier.
pub fn prepack_b(dst: &mut [i8], b: &[i8], n: usize, k: usize, plan: &BlockPlan) {
    HostKernel::detect().prepack_b(dst, b, n, k, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{packed_a_bytes, packed_a_offset};
    use crate::loops::for_each_a_block;

    fn fill(len: usize, seed: i32) -> Vec<i8> {
        (0..len).map(|i| ((i as i32 * seed) % 16 - 8) as i8).collect()
    }

    #[test]
    fn dtype_k_steps_match_the_camp_issues() {
        assert_eq!(DType::I8.k_step(), 16);
        assert_eq!(DType::I4.k_step(), 32);
        assert_ne!(DType::I8.name(), DType::I4.name());
    }

    #[test]
    fn register_packs_once_and_serves_forever() {
        let (n, k) = (10, 33);
        let b = fill(k * n, 7);
        let mut reg = WeightRegistry::new();
        let h = reg.register(n, k, &b, DType::I8);
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
        let meta = reg.try_meta(h).unwrap();
        assert_eq!((meta.n, meta.k, meta.dtype), (n, k, DType::I8));
        assert_eq!(meta.macs(5), 5 * n as u64 * k as u64);
        // panel bytes equal a standalone prepack of the same operand
        let plan = host_block_plan(1, n, k, 16);
        let mut expect = vec![0i8; packed_b_bytes(&plan)];
        prepack_b(&mut expect, &b, n, k, &plan);
        assert_eq!(reg.panel(h).1, &expect[..]);
        assert_eq!(reg.packed_bytes(), expect.len() as u64);
    }

    #[test]
    fn i4_and_i8_registrations_pack_distinct_layouts() {
        // k between the two k-steps: padded depth (and so panel size)
        // must differ between the kernels
        let (n, k) = (4, 20);
        let b = fill(k * n, 5);
        let mut reg = WeightRegistry::new();
        let h8 = reg.register(n, k, &b, DType::I8);
        let h4 = reg.register(n, k, &b, DType::I4);
        assert_eq!(reg.panel(h8).1.len(), 4 * 32); // kp = 32 under k-step 16
        assert_eq!(reg.panel(h4).1.len(), 4 * 32); // kp = 32 under k-step 32
        assert_eq!(reg.snapshot().live(), 2);
        assert_eq!(reg.snapshot().meta(h4).unwrap().dtype, DType::I4);
    }

    #[test]
    fn zero_dim_weights_register_empty_panels() {
        let mut reg = WeightRegistry::new();
        let h = reg.register(0, 8, &[], DType::I8);
        assert!(reg.panel(h).1.is_empty());
        let h2 = reg.register(4, 0, &[], DType::I4);
        assert!(reg.panel(h2).1.is_empty());
        assert_eq!(reg.packed_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "issued by a different registry")]
    fn foreign_handles_are_rejected_even_when_shapes_coincide() {
        // the dangerous case: the other registry has an entry with the
        // same index and shape — without the identity stamp this would
        // silently multiply the wrong weights
        let mut reg = WeightRegistry::new();
        let h = reg.register(4, 4, &fill(16, 3), DType::I8);
        let mut other = WeightRegistry::new();
        let _ = other.register(4, 4, &fill(16, 7), DType::I8);
        assert_eq!(other.try_meta(h).unwrap_err(), RequestError::ForeignHandle);
        let _ = other.panel(h);
    }

    #[test]
    fn evicted_handles_go_stale_and_free_storage() {
        let (n, k) = (8, 40);
        let mut reg = WeightRegistry::new();
        let h1 = reg.register(n, k, &fill(k * n, 3), DType::I8);
        let h2 = reg.register(n, k, &fill(k * n, 7), DType::I8);
        assert_eq!(reg.len(), 2);
        let resident = reg.resident_bytes();
        assert!(resident > 0);

        let meta = reg.evict(h1).expect("live handle evicts");
        assert_eq!((meta.n, meta.k), (n, k));
        assert_eq!(reg.len(), 1);
        assert!(reg.resident_bytes() < resident, "eviction must return bytes");
        // the stale handle errs through the fallible surface ...
        assert_eq!(reg.try_meta(h1).unwrap_err(), RequestError::StaleHandle);
        assert_eq!(reg.evict(h1).unwrap_err(), RequestError::StaleHandle);
        // ... while the survivor stays valid
        assert!(reg.try_meta(h2).is_ok());
        assert!(!reg.panel(h2).1.is_empty());
    }

    #[test]
    fn recycled_slots_change_generation() {
        // the dangerous case: a new registration re-uses the evicted
        // slot, so without generations the stale handle would silently
        // read the *new* weights
        let mut reg = WeightRegistry::new();
        let old = reg.register(4, 16, &fill(64, 3), DType::I8);
        reg.evict(old).unwrap();
        let new = reg.register(4, 16, &fill(64, 9), DType::I8);
        assert_eq!(old.index(), new.index(), "slot must be recycled");
        assert_ne!(old.generation(), new.generation());
        assert_eq!(reg.try_meta(old).unwrap_err(), RequestError::StaleHandle);
        assert!(reg.try_meta(new).is_ok());
    }

    #[test]
    fn clear_evicts_everything() {
        let mut reg = WeightRegistry::new();
        let hs: Vec<_> = (0..3).map(|i| reg.register(4, 16, &fill(64, 3 + i), DType::I8)).collect();
        reg.clear();
        assert!(reg.is_empty());
        assert_eq!(reg.resident_bytes(), 0);
        for h in hs {
            assert_eq!(reg.try_meta(h).unwrap_err(), RequestError::StaleHandle);
        }
        // the registry keeps working after a clear
        let h = reg.register(4, 16, &fill(64, 11), DType::I8);
        assert!(reg.try_meta(h).is_ok());
    }

    #[test]
    fn raw_mirror_registries_keep_the_bytes_not_panels() {
        let (n, k) = (6, 24);
        let b = fill(k * n, 5);
        let mut reg = WeightRegistry::raw_mirror();
        let h = reg.register(n, k, &b, DType::I4);
        assert_eq!(&reg.raw(h).unwrap()[..], &b[..]);
        assert_eq!(reg.packed_bytes(), 0, "raw mirrors pack nothing");
        assert_eq!(reg.resident_bytes(), (k * n) as u64);
        // the host registry, conversely, has no raw bytes to give
        let mut host = WeightRegistry::new();
        let hh = host.register(n, k, &b, DType::I8);
        assert!(host.raw(hh).is_err());
    }

    #[test]
    fn snapshots_resolve_handles_like_the_registry() {
        let mut reg = WeightRegistry::new();
        let h1 = reg.register(4, 16, &fill(64, 3), DType::I8);
        let h2 = reg.register(8, 32, &fill(256, 5), DType::I4);
        reg.evict(h1).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.live(), 1);
        assert_eq!(snap.meta(h1).unwrap_err(), RequestError::StaleHandle);
        assert_eq!(snap.meta(h2), reg.try_meta(h2));
        let foreign = WeightRegistry::new().snapshot();
        assert_eq!(foreign.meta(h2).unwrap_err(), RequestError::ForeignHandle);
        assert!(WeightSnapshot::empty().meta(h2).is_err());
    }

    #[test]
    fn prepacked_a_blocks_match_per_block_packing() {
        let (m, k) = (13, 70);
        let a = fill(m * k, 11);
        let plan = host_block_plan(m, 8, k, 16);
        let mut packed = vec![99i8; packed_a_bytes(&plan)];
        HostKernel::scalar().prepack_a(&mut packed, &a, m, k, &plan);
        // every (ic, pc) block read at its offset equals a fresh
        // per-block pack of the same coordinates
        for_each_a_block(&plan, |ic, mcb, pc, kcb| {
            let mut fresh = vec![0i8; mcb * kcb];
            HostKernel::scalar().pack_a_block(&mut fresh, &a, m, k, ic, pc, kcb);
            let off = packed_a_offset(plan.kp, ic, mcb, pc);
            assert_eq!(&packed[off..off + mcb * kcb], &fresh[..], "block ({ic}, {pc})");
        });
    }

    #[test]
    fn the_host_plan_is_a_pure_function_of_its_arguments() {
        for (m, n, k, s) in [(1, 8, 40, 16), (13, 300, 2100, 16), (129, 4, 20, 32), (0, 0, 0, 16)] {
            let want = BlockPlan::new(m, n, k, 4, 4, s, HOST_BLOCKING);
            assert_eq!(host_block_plan(m, n, k, s), want, "{m}x{n}x{k}/{s}");
        }
    }

    #[test]
    fn host_plan_b_layout_is_independent_of_m() {
        let (n, k) = (300, 2100); // spans several (jc, pc) blocks
        for m in [1, 4, 129, 1000] {
            let p = host_block_plan(m, n, k, 16);
            let q = host_block_plan(4, n, k, 16);
            assert_eq!((p.np, p.kp, p.nc, p.kc), (q.np, q.kp, q.nc, q.kc), "m={m}");
        }
    }
}
