//! Host-speed CAMP GeMM engine.
//!
//! This is the downstream-facing library API: blocked integer matrix
//! multiplication whose micro-kernel is the `camp` instruction semantics
//! (§4.1, Fig. 9). Operands are packed exactly the way the simulated
//! kernels pack them — A into 4×k column-major panels, B into k×4
//! row-major panels — and the inner loop consumes 16 (i8) or 32 (i4)
//! k-steps per "issue", mirroring `camp_s64` in the paper's Fig. 9
//! listing. Results are bit-identical to a plain i32 GeMM (wrapping
//! accumulation), which the test-suite and property tests verify.
//!
//! # One nest, one image builder
//!
//! The engine shares `camp-gemm`'s blocked-loop skeleton
//! ([`camp_gemm::loops`]: the `BlockPlan`, [`small_path`] and the
//! block iterators) with the simulated §5.3 driver. Its loop nest never
//! packs A: a blocked work unit is one [`HostKernel::run_blocked`] call —
//! `for_each_b_block` × row strips over **two whole packed images** —
//! and every A movement happens before the first tile-kernel call (the
//! `amx` tier re-lays each B block into its scratch inside the nest).
//!
//! * **B's image** is a registered weight panel
//!   ([`CampEngine::register_weights`]) or a panel the batch packed once
//!   per distinct dense operand into the engine's shared arena.
//! * **A's image** has one builder: every blocked unit — a whole request,
//!   or one row range of a request at or above `BATCH_ROW_SPLIT_MACS`
//!   (8 Mi MACs) — packs its own rows once, with
//!   [`HostKernel::prepack_a`] of the engine's own kernel (the shared
//!   4-row panels, or the `amx` tier's own layout), into the reused
//!   [`PackPool`] arena of the worker that computes it, just before its
//!   nest runs — as GotoBLAS-style kernels pack A inside the GeMM
//!   routine. (Packing every request on the submitting thread was
//!   measured and rejected: a fresh 48–196 KB heap buffer per large
//!   request tips the allocator into a map–fault–unmap cycle; see
//!   docs/ARCHITECTURE.md.)
//! * **C** is allocated once per request, per batch, and written by its
//!   units, never zero-filled up front: a blocked unit's
//!   [`HostKernel::run_blocked`] writes every element of its rows (the
//!   `amx` nest stores its first depth block instead of adding it, the
//!   panel nest zero-fills its own rows first), a skinny unit zeroes its
//!   rows and accumulates. A degenerate request's result is final as
//!   allocated.
//!
//! A batch is a list of **units** — rows `r0..r1` of one request — run
//! by one function: a plain loop on the calling thread when there is
//! one worker or one unit, longest-processing-time-first over the
//! **persistent worker pool** ([`crate::pool::WorkerPool`], spawned
//! once per engine by [`CampEngine::with_threads`]) otherwise. Row
//! ranges are multiples of the 4-row register tile, so every 4×4 tile
//! is computed by exactly one unit with identical arithmetic and the
//! result is bit-identical for any worker count. The arenas make the
//! steady state allocation-free ([`CampEngine::pack_allocations`]
//! exposes the growth counter) apart from the result matrices.
//!
//! # Pre-packed weights
//!
//! A serving workload multiplies the same quantized weights against
//! millions of activations. [`CampEngine::register_weights`] packs a
//! weight matrix once into the engine's [`WeightRegistry`] and returns
//! a copyable [`WeightHandle`]; handle-operand [`GemmRequest`]s then
//! run with **zero B-packing** — [`EngineStats::packed_b_bytes`] stays
//! 0 on the steady state, which the test-suite asserts.
//!
//! # Batched GeMM
//!
//! Transformer attention is dominated by *many small* GeMMs per step —
//! per-head (s×dₕ)·(dₕ×s) score and (s×s)·(s×dₕ) context products,
//! 12–20 heads per layer (§5.2, Fig. 14) — shapes where per-call setup
//! and operand re-packing swamp compute.
//! A batch of requests amortizes all of it, and there is one way to run
//! one: [`CampBackend::execute_prepared`](crate::backend::CampBackend::execute_prepared)
//! over the validated requests as they were submitted, each one's shape
//! read from the request (dense B) or from its registration (a handle).
//! `execute_batch`, a dispatcher session's direct `run` and its queued
//! `submit` → `wait` are that call made from different threads, so
//! results *and* [`EngineStats`] are the same whichever way a batch
//! came in:
//!
//! * **B deduplication** (`execute_prepared`, which sees the whole batch
//!   and owns the arena) — requests sharing one dense B buffer under
//!   one (n, k, k-step) pack it once into a pool-owned panel reused
//!   across the batch (skinny-n requests included); a skinny-m request
//!   (m ≤ 8) reads its dense B **in place** — a single-use operand such
//!   as an attention head's Kᵀ or V is never copied into a panel just
//!   to be read once — and requests carrying a [`WeightHandle`] skip
//!   packing entirely;
//! * **skinny routes** — a request's route is a property of its overall
//!   shape ([`small_path`]), never of a row range: skinny requests read
//!   the raw activation through the tier's small kernels and build no A
//!   image at all;
//! * **cross-item parallelism** — small problems are distributed across
//!   the persistent workers whole, in the same pass as the row ranges
//!   of the large ones;
//! * **bit-identity** — batch results equal the scalar reference,
//!   element for element.
//!
//! Each request's own [`DType`] wins, so one batch can mix i4 and i8
//! problems. For streaming many batches,
//! [`CampBackend::dispatch`](crate::backend::CampBackend::dispatch)
//! upgrades the engine into a [`crate::dispatch::Dispatcher`]. A
//! request's dense B is packed by whichever thread holds the engine,
//! not by the submitter: served weights are registered handles, and the
//! dense B of served traffic is attention K/V, a few KiB per head,
//! which decode steps read in place.

use camp_gemm::batch::{packed_a_bytes, packed_b_bytes};
use camp_gemm::host::{zeroed, HostKernel, KernelInfo, SmallB};
use camp_gemm::loops::{small_path, SmallPath};
use camp_gemm::request::{GemmRequest, Operand, RequestError, ResolvedRequest};
use camp_gemm::weights::{host_block_plan, WeightRegistry, WeightSnapshot};
use camp_gemm::workspace::{PackPool, PanelId};
use std::collections::{HashMap, HashSet};
use std::mem::MaybeUninit;

use crate::backend::{Output, VALIDATED};
use crate::pool::{Job, WorkerPool};

pub use camp_gemm::gemm_i32_ref;
pub use camp_gemm::weights::{DType, WeightHandle, WeightMeta};

/// MAC count at or above which a request is split into row ranges, one
/// per worker, and below which it runs as one unit. Below it, the
/// per-item fan-out costs more than it buys (the attention
/// score/context products are ~1 M MACs); above it, a single problem
/// has enough rows to keep every worker busy on its own.
pub(crate) const BATCH_ROW_SPLIT_MACS: u64 = 8 * 1024 * 1024;

/// Per-call statistics of the engine (what the instruction stream would
/// have contained).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// `camp` issues.
    pub camp_issues: u64,
    /// 64-byte vector loads: operand fetches, plus one C-tile read per
    /// tile visit on k blocks after the first (the read-modify-write
    /// accumulation deep-k shapes require).
    pub vector_loads: u64,
    /// 64-byte vector stores (result tiles, once per tile per k block).
    pub vector_stores: u64,
    /// Bytes of A's canonical packed image (activations — paid per
    /// request): one rule, `mp·kp` per non-degenerate request — the
    /// shared 4-row panel layout's size — on every route, tier, thread
    /// count and entry point. A blocked request's image is built exactly
    /// once, unit by unit in the workers' arenas, in the engine's tier's
    /// layout, so on `amx` the bytes actually packed are that tier's
    /// larger image ([`HostKernel::packed_a_len`]: rows rounded up to
    /// 32, each depth block to 64); a skinny request packs none on the
    /// host and reports the canonical tile stream's figure.
    pub packed_a_bytes: u64,
    /// Bytes the engine actually moved packing B panels, deduplicated:
    /// each *distinct* dense B that a blocked or skinny-n request of
    /// the batch reads (same buffer, same (n, k, k-step)) is packed
    /// once, whichever entry point ran the batch. A skinny-m request
    /// reads its dense B in place and adds 0 (`camp_issues` /
    /// `vector_*` still report the canonical stream), and requests
    /// against a registered [`WeightHandle`] pack **nothing** — this
    /// stays 0 on the serving steady state.
    pub packed_b_bytes: u64,
    /// Multiply-accumulate operations represented.
    pub macs: u64,
    /// Requests classified onto the skinny small-m fast path (m ≤ 8 —
    /// the GEMV-shaped decode steps). Like every counter here this is a
    /// property of the *problem* (the request's overall shape), not of
    /// the schedule: one count per non-degenerate request, identical
    /// across tiers, thread counts and entry points.
    pub small_m_routed: u64,
    /// Requests classified onto the skinny small-n fast path.
    pub small_n_routed: u64,
    /// Requests classified onto the blocked (Goto-nest) path.
    pub blocked_routed: u64,
}

impl EngineStats {
    /// Total pack traffic, A and B panels combined.
    pub fn packed_bytes(&self) -> u64 {
        self.packed_a_bytes + self.packed_b_bytes
    }

    fn merge(&mut self, other: &EngineStats) {
        self.camp_issues += other.camp_issues;
        self.vector_loads += other.vector_loads;
        self.vector_stores += other.vector_stores;
        self.packed_a_bytes += other.packed_a_bytes;
        self.packed_b_bytes += other.packed_b_bytes;
        self.macs += other.macs;
        self.small_m_routed += other.small_m_routed;
        self.small_n_routed += other.small_n_routed;
        self.blocked_routed += other.blocked_routed;
    }
}

/// Whether [`debug_check_i4`] looks at operands of `dtype` at all.
fn checks_i4(dtype: DType) -> bool {
    cfg!(debug_assertions) && dtype == DType::I4
}

/// Debug-build guard for the `camp.s4` kernel's operand contract:
/// values must fit 4 bits. The host tiers run i4 through the same
/// widening i8 arithmetic (the math is identical on 4-bit-safe
/// operands), so the range check lives at the engine entry points
/// instead of inside the micro-kernel.
fn debug_check_i4(dtype: DType, what: &str, vals: &[i8]) {
    if checks_i4(dtype) {
        if let Some(v) = vals.iter().find(|v| !(-8..8).contains(*v)) {
            panic!("i4 {what} operand {v} out of range");
        }
    }
}

/// The [`EngineStats`] of one non-degenerate request: its route, and
/// the camp instruction stream of running it through the blocked tile
/// path, computed arithmetically from the plan — every 4×4 tile issues
/// once per k-step and loads two operands per issue; each k block
/// stores the tile once and, after the first, reads it back first; A's
/// canonical image is `mp·kp` bytes (the shared panel layout's, whatever
/// layout the tier packs). This *is* the engine's accounting on every
/// route: stats are a property of the *problem* (shape, dtype), not of
/// which host schedule computed it or how its rows were split, so the
/// counters stay comparable across paths, thread counts and entry
/// points by construction. B is not a property of the request — a
/// panel's bytes are accounted once, by whoever packed it.
fn request_stats(m: usize, n: usize, k: usize, k_step: usize) -> EngineStats {
    let plan = host_block_plan(m, n, k, k_step);
    let tiles = ((plan.mp / 4) * (plan.np / 4)) as u64;
    let k_blocks = plan.kp.div_ceil(plan.kc) as u64;
    let camp_issues = tiles * (plan.kp / k_step) as u64;
    let mut s = EngineStats {
        camp_issues,
        vector_loads: 2 * camp_issues + tiles * (k_blocks - 1),
        vector_stores: tiles * k_blocks,
        packed_a_bytes: packed_a_bytes(&plan) as u64,
        macs: (m * n * k) as u64,
        ..EngineStats::default()
    };
    match small_path(m, n) {
        Some(SmallPath::SmallM) => s.small_m_routed = 1,
        Some(SmallPath::SmallN) => s.small_n_routed = 1,
        None => s.blocked_routed = 1,
    }
    s
}

/// Row-range height of an m-row problem split across up to `threads`
/// workers: a multiple of the 4-row register tile, so every unit owns
/// whole tiles.
fn row_partition(m: usize, threads: usize) -> usize {
    m.div_ceil(threads).div_ceil(4) * 4
}

/// Whether a non-degenerate request is split into [`row_partition`]
/// ranges instead of running whole: at or above
/// [`BATCH_ROW_SPLIT_MACS`], unless it is skinny-m — ranges are
/// multiples of the 4-row register tile, so even a huge GEMV-shaped
/// decode item gains nothing from splitting and runs whole on the small-m
/// kernel, parallel across batch items. A pure function of the shape.
fn row_splits(m: usize, n: usize, k: usize) -> bool {
    m as u64 * n as u64 * k as u64 >= BATCH_ROW_SPLIT_MACS
        && small_path(m, n) != Some(SmallPath::SmallM)
}

/// The route a request's units take, decided once per batch by
/// [`CampEngine::compute_batch`] from its shape ([`small_path`]) and where
/// its B lives. `P` is a packed B panel: its bytes when the units run,
/// a [`Panel`] while the batch's dense B are still being packed.
#[derive(Clone, Copy)]
enum Route<'a, P = &'a [i8]> {
    /// Skinny-m: raw A rows against B read dense in place or as a
    /// registered panel (a skinny-m request's dense B is never packed).
    SmallM(SmallB<'a>),
    /// Skinny-n: raw A rows against a panel.
    SmallN(P),
    /// The blocked nest over a panel, each unit's rows packed into its
    /// worker's arena.
    Blocked(P),
}

/// A panel-reading route's B before the batch arena is complete.
#[derive(Clone, Copy)]
enum Panel<'a> {
    /// A registered weight's panel.
    Registered(&'a [i8]),
    /// A dense B packed into the batch arena.
    Shared(PanelId),
}

impl<'a, P> Route<'a, P> {
    fn map_panel<Q>(self, f: impl FnOnce(P) -> Q) -> Route<'a, Q> {
        match self {
            Route::SmallM(b) => Route::SmallM(b),
            Route::SmallN(b) => Route::SmallN(f(b)),
            Route::Blocked(b) => Route::Blocked(f(b)),
        }
    }
}

/// One non-degenerate request of a batch as its work units read it: its
/// width and depth, the raw activation and its [`Route`].
#[derive(Clone, Copy)]
struct Item<'a> {
    n: usize,
    k: usize,
    k_step: usize,
    a: &'a [i8],
    route: Route<'a>,
}

/// The batch's unit of scheduling: rows `r0..r0 + c.len() / n` of one
/// item, writing straight into that item's pre-allocated, uninitialised
/// result; [`run_unit`] writes every element of `c`.
struct Unit<'a> {
    item: Item<'a>,
    r0: usize,
    c: &'a mut [MaybeUninit<i32>],
}

impl Unit<'_> {
    fn macs(&self) -> u64 {
        (self.c.len() * self.item.k) as u64
    }
}

/// Run one unit on its *item's* [`Route`]: the skinny fast paths for
/// GEMV-shaped items — raw A rows feed the tier's small kernels
/// directly, no A image, no padded register tile — and the tier's
/// blocked macro-kernel ([`HostKernel::run_blocked`]) otherwise, over
/// this unit's rows packed once into `pool`'s arena before the nest
/// starts (the arena also holds the nest's scratch, where the tier
/// needs one). Either way every element of the unit's C is written: the
/// skinny kernels accumulate into a C zeroed here, the blocked
/// macro-kernel writes its C whole. Bit-identity across routes and row
/// ranges is structural — exact products, wrapping i32 accumulation.
fn run_unit(unit: Unit<'_>, pool: &mut PackPool, hk: &'static HostKernel) {
    let Unit { item: it, r0, c } = unit;
    let rows = c.len() / it.n;
    let a_rows = &it.a[r0 * it.k..(r0 + rows) * it.k];
    let plan = host_block_plan(rows, it.n, it.k, it.k_step);
    match it.route {
        Route::SmallM(b) => hk.run_small_m(rows, it.n, it.k, &plan, a_rows, b, zeroed(c)),
        Route::SmallN(b) => hk.run_small_n(rows, it.n, it.k, &plan, a_rows, b, zeroed(c)),
        Route::Blocked(b) => {
            let (image, scratch) =
                pool.a_and_scratch(hk.packed_a_len(&plan), hk.blocked_scratch_len(&plan));
            hk.prepack_a(image, a_rows, rows, it.k, &plan);
            hk.run_blocked(it.n, &plan, image, b, c, scratch);
        }
    }
}

/// Run a batch's units. One worker or one unit: a plain loop on the
/// calling thread. Otherwise longest-processing-time greedy — biggest
/// units first onto the least-loaded worker — over the persistent pool,
/// one job and one arena per worker.
fn run_units(
    mut units: Vec<Unit<'_>>,
    pools: &mut Vec<PackPool>,
    wp: Option<&WorkerPool>,
    hk: &'static HostKernel,
) {
    let workers = wp.map_or(1, WorkerPool::workers).min(units.len()).max(1);
    if pools.len() < workers {
        pools.resize_with(workers, PackPool::new);
    }
    let Some(wp) = wp.filter(|_| workers > 1) else {
        for unit in units {
            run_unit(unit, &mut pools[0], hk);
        }
        return;
    };
    units.sort_by_key(|u| std::cmp::Reverse(u.macs()));
    let mut bins: Vec<(u64, Vec<Unit<'_>>)> = (0..workers).map(|_| (0, Vec::new())).collect();
    for unit in units {
        let bin = bins.iter_mut().min_by_key(|bin| bin.0).expect("workers > 0");
        bin.0 += unit.macs();
        bin.1.push(unit);
    }
    let jobs: Vec<Job<'_>> = bins
        .into_iter()
        .zip(pools.iter_mut())
        .map(|((_, bin), pool)| -> Job<'_> {
            Box::new(move || {
                for unit in bin {
                    run_unit(unit, pool, hk);
                }
            })
        })
        .collect();
    wp.run(jobs);
}

/// Reusable host-speed GeMM engine: a persistent worker pool spawned
/// once at construction, one A-image arena per worker, a shared arena
/// for the batch's packed B panels, and a [`WeightRegistry`] of
/// pre-packed weights for serving workloads. The compute path allocates
/// nothing once the pools are warm (each request still allocates its
/// m×n result vector).
#[derive(Debug)]
pub struct CampEngine {
    threads: usize,
    /// Host micro-kernel tier, dispatched once at construction from
    /// the [`camp_gemm::host::CpuFeatures`] probe (or pinned by
    /// [`CampEngine::with_threads_and_kernel`] /
    /// `CAMP_FORCE_TIER`). Every integer kernel call in this
    /// engine goes through this table.
    host: &'static HostKernel,
    pools: Vec<PackPool>,
    /// Arena for the batch's deduplicated dense B panels, shared
    /// read-only across workers.
    shared: PackPool,
    /// Pre-packed weights (serving steady state packs no B at all).
    weights: WeightRegistry,
    /// Persistent workers; `None` for a serial engine. Behind an `Arc`
    /// so the pool is sharable outside the engine ([`CampEngine::worker_pool`])
    /// — the simulated driver schedules its block units on the same
    /// threads the host path computes on.
    workers: Option<std::sync::Arc<WorkerPool>>,
}

impl Default for CampEngine {
    fn default() -> Self {
        CampEngine::new()
    }
}

impl CampEngine {
    /// Serial engine (one worker, no pool threads).
    pub fn new() -> Self {
        CampEngine::with_threads(1)
    }

    /// Engine running up to `threads` workers over the row ranges and
    /// whole items of a batch; `0` means one worker per available core
    /// (the shared [`crate::backend::resolve_threads`] clamp: the
    /// resolved count is never below 1, since a zero worker count would
    /// divide by zero in the row partition). The worker threads are
    /// spawned **once** here — parallel calls only enqueue jobs on the
    /// persistent pool.
    pub fn with_threads(threads: usize) -> Self {
        CampEngine::with_threads_and_kernel(threads, HostKernel::detect())
    }

    /// [`CampEngine::with_threads`] pinned to a specific host-kernel
    /// tier instead of the detected best one. This is how the parity
    /// test-suite runs every available tier against the scalar
    /// reference *within one process*; production code should let
    /// [`HostKernel::detect`] choose (it honors `CAMP_FORCE_TIER`).
    pub fn with_threads_and_kernel(threads: usize, kernel: &'static HostKernel) -> Self {
        let threads = crate::backend::resolve_threads(threads);
        let workers = (threads > 1).then(|| std::sync::Arc::new(WorkerPool::new(threads)));
        CampEngine {
            threads,
            host: kernel,
            pools: Vec::new(),
            shared: PackPool::new(),
            weights: WeightRegistry::new(),
            workers,
        }
    }

    /// Engine honoring the `CAMP_THREADS` environment variable (see
    /// [`crate::backend::host_threads_from_env`]; unset means one
    /// worker per available core) — the one thread-configuration story
    /// every harness shares.
    pub fn from_env() -> Self {
        CampEngine::with_threads(crate::backend::host_threads_from_env())
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Which host-kernel tier this engine dispatches to, with the
    /// probed CPU features, register-tile geometry and active cache
    /// blocking — so serving logs and benches can record which kernel
    /// produced a number.
    ///
    /// ```
    /// let engine = camp_core::CampEngine::new();
    /// let info = engine.kernel_info();
    /// assert!(["scalar", "avx2", "avx512", "avx512vnni", "amx", "neon"].contains(&info.tier.as_str()));
    /// println!("{info}"); // e.g. "avx2 kernel (features: avx2 fma; ...)"
    /// ```
    pub fn kernel_info(&self) -> KernelInfo {
        self.host.info()
    }

    /// The dispatched host-kernel table itself.
    pub fn host_kernel(&self) -> &'static HostKernel {
        self.host
    }

    /// A handle to the engine's persistent worker pool, or `None` for a
    /// serial engine: its [`WorkerPool::queued_jobs`] /
    /// [`WorkerPool::jobs_run`] counters let serving tests assert that
    /// draining a [`crate::dispatch::Dispatcher`] leaves no jobs queued
    /// — the "no leaked pool permits" invariant.
    pub fn worker_pool(&self) -> Option<std::sync::Arc<WorkerPool>> {
        self.workers.clone()
    }

    /// Total pack-buffer growths across the per-worker A-image arenas
    /// and the shared B-panel arena. Flat across same-shape calls ⇒ the
    /// compute path is allocation-free. Weight registration (a one-time cost) is
    /// accounted separately by [`CampEngine::registered_weight_bytes`].
    pub fn pack_allocations(&self) -> u64 {
        self.pools.iter().map(PackPool::allocations).sum::<u64>() + self.shared.allocations()
    }

    // ---- pre-packed weight registry ----

    /// Pack the row-major k×n weight matrix `b` once for `dtype`'s
    /// kernel and keep the panel alive for the engine's lifetime. Every
    /// later call against the returned handle performs zero B-packing.
    ///
    /// ```
    /// use camp_core::{CampEngine, DType};
    ///
    /// let (n, k) = (8, 32);
    /// let w: Vec<i8> = (0..k * n).map(|i| (i % 15) as i8 - 7).collect();
    ///
    /// let mut engine = CampEngine::new();
    /// let weights = engine.register_weights(n, k, &w, DType::I8);
    /// assert_eq!(engine.registered_weights(), 1);
    /// assert_eq!(engine.try_weight_meta(weights).unwrap().k, k);
    /// ```
    ///
    /// # Panics
    /// Panics if `b.len() != k * n`.
    pub fn register_weights(&mut self, n: usize, k: usize, b: &[i8], dtype: DType) -> WeightHandle {
        self.weights.register(n, k, b, dtype)
    }

    /// Shape/dtype of a registered weight, or why the handle is invalid
    /// ([`RequestError::StaleHandle`] after eviction).
    pub fn try_weight_meta(&self, h: WeightHandle) -> Result<WeightMeta, RequestError> {
        self.weights.try_meta(h)
    }

    /// Drop one registered weight: its packed panel is freed, and later
    /// uses of the handle fail ([`RequestError::StaleHandle`] through
    /// the request API) instead of multiplying stale or recycled
    /// weights. Long-lived serving engines use this to drop stale
    /// layers without restarting.
    pub fn evict_weights(&mut self, h: WeightHandle) -> Result<WeightMeta, RequestError> {
        self.weights.evict(h)
    }

    /// Drop every registered weight (e.g. before loading a new model
    /// into a long-lived engine).
    pub fn clear_weights(&mut self) {
        self.weights.clear()
    }

    /// Submit-time snapshot of the weight registry — what a serving
    /// [`crate::dispatch::Dispatcher`] validates requests against.
    pub fn weight_snapshot(&self) -> WeightSnapshot {
        self.weights.snapshot()
    }

    /// Number of live registered weights.
    pub fn registered_weights(&self) -> usize {
        self.weights.len()
    }

    /// Total bytes packed at registration time (one-time; never paid on
    /// the steady-state request path, and not decreased by eviction —
    /// see [`CampEngine::resident_weight_bytes`]).
    pub fn registered_weight_bytes(&self) -> u64 {
        self.weights.packed_bytes()
    }

    /// Bytes currently resident for live registrations; eviction
    /// returns them.
    pub fn resident_weight_bytes(&self) -> u64 {
        self.weights.resident_bytes()
    }

    /// `benchmark/src/probe.rs` is its only reader; ROADMAP item 2 deletes it.
    #[doc(hidden)]
    pub fn prepare(req: GemmRequest, _weights: &WeightSnapshot) -> GemmRequest {
        req
    }

    /// Compute one batch of validated requests — the engine's only
    /// batch path, whichever entry point built it. A request's shape is
    /// its own when its B is dense, and its registration's, read from
    /// the entry that holds its panel, when B is a handle. B first,
    /// because it spans requests: a skinny-m request reads its dense B
    /// in place; each *distinct* dense B of the others (buffer identity
    /// plus (n, k, k-step), which fix the packed layout) is packed once
    /// into the shared arena for all of its sharers; registered panels
    /// are consumed as they are. Then every non-degenerate request
    /// becomes work units — itself, or its [`row_partition`] ranges
    /// when it [`row_splits`] — over its pre-allocated result, and
    /// [`run_units`] runs them. Returns one [`Output`] per request plus
    /// the batch's merged stats.
    pub(crate) fn compute_batch(&mut self, reqs: &[GemmRequest]) -> (Vec<Output>, EngineStats) {
        let mut total = EngineStats::default();
        self.shared.reset_panels();
        let mut panel_of: HashMap<(*const i8, usize, usize, usize), PanelId> = HashMap::new();
        // Debug builds range-check each distinct i4 operand once,
        // whichever route its readers take.
        let mut checked_i4: HashSet<*const i8> = HashSet::new();
        // Each request's shape, and the route of a non-degenerate one.
        let routes: Vec<(ResolvedRequest, Option<Route<'_, Panel<'_>>>)> = reqs
            .iter()
            .map(|req| {
                let (r, b) = match req.weights() {
                    // resolving a dense request reads no registry
                    Operand::Dense(b) => {
                        (req.resolve(&WeightSnapshot::empty()).expect(VALIDATED), SmallB::Dense(b))
                    }
                    Operand::Handle(h) => {
                        let (meta, panel) = self.weights.panel(*h);
                        let (n, k, dtype) = (meta.n, meta.k, meta.dtype);
                        (ResolvedRequest { m: req.m(), n, k, dtype }, SmallB::Panel(panel))
                    }
                };
                if r.is_degenerate() {
                    return (r, None);
                }
                if let SmallB::Dense(b) = b {
                    if checks_i4(r.dtype) && checked_i4.insert(b.as_ptr()) {
                        debug_check_i4(r.dtype, "B", b);
                    }
                }
                let mut panel = || match b {
                    SmallB::Panel(p) => Panel::Registered(p),
                    SmallB::Dense(b) => {
                        let k_step = r.dtype.k_step();
                        Panel::Shared(
                            *panel_of.entry((b.as_ptr(), r.n, r.k, k_step)).or_insert_with(|| {
                                let plan = host_block_plan(r.m, r.n, r.k, k_step);
                                let id = self.shared.alloc_panel(packed_b_bytes(&plan));
                                let panel = self.shared.panel_mut(id);
                                self.host.prepack_b(panel, b, r.n, r.k, &plan);
                                total.packed_b_bytes += packed_b_bytes(&plan) as u64;
                                id
                            }),
                        )
                    }
                };
                let route = match small_path(r.m, r.n) {
                    // The small-m row sweep streams the raw row-major
                    // operand once; skinny-n items keep packing — their
                    // B is at most 8 columns wide, every one of the
                    // m > 8 rows re-reads it, and pack-then-panel-walk
                    // measured faster than a no-pack kernel there.
                    Some(SmallPath::SmallM) => Route::SmallM(b),
                    Some(SmallPath::SmallN) => Route::SmallN(panel()),
                    None => Route::Blocked(panel()),
                };
                (r, Some(route))
            })
            .collect();

        // Every result exists up front. A degenerate one is final as
        // allocated (all-zero when only k is 0, empty otherwise); any
        // other is allocated without a fill, and its units write every
        // element (`run_unit`): the blocked nest stores C whole instead
        // of adding into zeros, so a result is written once, not
        // zero-filled, read back and written again.
        let mut results: Vec<Output> = routes
            .iter()
            .map(|(r, route)| {
                let c = match route {
                    None => vec![0i32; r.m * r.n],
                    Some(_) => Vec::with_capacity(r.m * r.n),
                };
                Output::new(c, r.m, r.n)
            })
            .collect();
        let mut units: Vec<Unit<'_>> = Vec::with_capacity(reqs.len());
        for ((req, out), &(r, route)) in reqs.iter().zip(&mut results).zip(&routes) {
            let Some(route) = route else { continue };
            debug_check_i4(r.dtype, "A", req.activation());
            let k_step = r.dtype.k_step();
            total.merge(&request_stats(r.m, r.n, r.k, k_step));
            let route = route.map_panel(|p| match p {
                Panel::Registered(b) => b,
                Panel::Shared(id) => self.shared.panel(id),
            });
            let item = Item { n: r.n, k: r.k, k_step, a: req.activation(), route };
            let rows_per =
                if row_splits(r.m, r.n, r.k) { row_partition(r.m, self.threads) } else { r.m };
            let c = &mut out.c.spare_capacity_mut()[..r.m * r.n];
            units.extend(c.chunks_mut(rows_per * r.n).enumerate().map(|(i, c)| Unit {
                item,
                r0: i * rows_per,
                c,
            }));
        }
        run_units(units, &mut self.pools, self.workers.as_deref(), self.host);
        for out in &mut results {
            // SAFETY: the capacity holds `m·n` elements, and every one is
            // initialised: a degenerate result was allocated whole, and a
            // computed one's units tile its rows, each writing all of its
            // own (`run_unit`). `run_units` returns only once every unit
            // has returned — a panicking unit unwinds out of it, past
            // this line, leaving the result empty.
            unsafe { out.c.set_len(out.m * out.n) };
        }
        (results, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_gemm::weights::HOST_BLOCKING;
    use std::sync::Arc;

    const MC: usize = HOST_BLOCKING.0;
    const NC: usize = HOST_BLOCKING.1;
    const KC: usize = HOST_BLOCKING.2;

    use crate::backend::CampBackend;
    use DType::{I4, I8};

    fn fill(len: usize, seed: i32, modulus: i32, offset: i32) -> Vec<i8> {
        (0..len).map(|i| ((i as i32 * seed) % modulus + offset) as i8).collect()
    }

    /// A dense request under `dtype`'s kernel; pass `Arc` clones to
    /// share an operand between requests.
    fn dense(
        (m, n, k): (usize, usize, usize),
        a: impl Into<Arc<[i8]>>,
        b: impl Into<Arc<[i8]>>,
        dtype: DType,
    ) -> GemmRequest {
        GemmRequest::builder()
            .m(m)
            .n(n)
            .k(k)
            .activation(a)
            .weights(Operand::from_dense(b))
            .dtype(dtype)
            .build()
            .unwrap()
    }

    /// `CampBackend::execute_batch`, unwrapped to per-request C matrices
    /// and the host stats.
    fn run_batch(eng: &mut CampEngine, reqs: &[GemmRequest]) -> (Vec<Vec<i32>>, EngineStats) {
        let out = eng.execute_batch(reqs).expect("well-formed batch");
        let stats = *out.stats.as_host().expect("host engine ran");
        (out.outputs.into_iter().map(|o| o.c).collect(), stats)
    }

    /// `CampBackend::execute`, unwrapped the same way.
    fn run_one(eng: &mut CampEngine, req: &GemmRequest) -> (Vec<i32>, EngineStats) {
        let out = eng.execute(req).expect("well-formed request");
        (out.output.c, *out.stats.as_host().expect("host engine ran"))
    }

    /// One dense GeMM through `execute`.
    fn gemm(
        eng: &mut CampEngine,
        shape: (usize, usize, usize),
        a: &[i8],
        b: &[i8],
        dtype: DType,
    ) -> (Vec<i32>, EngineStats) {
        run_one(eng, &dense(shape, a.to_vec(), b.to_vec(), dtype))
    }

    /// One registered-weight GeMM through `execute`.
    fn handle_gemm(
        eng: &mut CampEngine,
        m: usize,
        a: &[i8],
        h: WeightHandle,
    ) -> (Vec<i32>, EngineStats) {
        run_one(eng, &GemmRequest::with_weights(m, a.to_vec(), h).unwrap())
    }

    #[test]
    fn small_exact() {
        let a = vec![1i8, 2, 3, 4, 5, 6]; // 2x3
        let b = vec![7i8, 8, 9, 10, 11, 12]; // 3x2
        let c = gemm(&mut CampEngine::new(), (2, 2, 3), &a, &b, I8).0;
        assert_eq!(c, vec![58, 64, 139, 154]);
    }

    #[test]
    fn matches_reference_various_shapes() {
        for &(m, n, k) in
            &[(1, 1, 1), (4, 4, 16), (5, 7, 33), (12, 9, 64), (17, 3, 100), (3, 17, 5)]
        {
            let a = fill(m * k, 31, 200, -100);
            let b = fill(k * n, 17, 200, -100);
            assert_eq!(
                gemm(&mut CampEngine::new(), (m, n, k), &a, &b, I8).0,
                gemm_i32_ref(m, n, k, &a, &b),
                "shape {m}x{n}x{k}"
            );
        }
    }

    #[test]
    fn i4_matches_reference() {
        for &(m, n, k) in &[(4, 4, 32), (6, 10, 45), (9, 5, 96)] {
            let a = fill(m * k, 7, 16, -8);
            let b = fill(k * n, 5, 16, -8);
            assert_eq!(
                gemm(&mut CampEngine::new(), (m, n, k), &a, &b, I4).0,
                gemm_i32_ref(m, n, k, &a, &b),
                "shape {m}x{n}x{k}"
            );
        }
    }

    #[test]
    fn stats_count_issues() {
        // 8×8×32: 4 tiles × 2 k-chunks = 8 camp issues, 16 loads
        let a = fill(8 * 32, 3, 10, -5);
        let b = fill(32 * 8, 5, 10, -5);
        let (_, s) = gemm(&mut CampEngine::new(), (8, 8, 32), &a, &b, I8);
        assert_eq!(s.camp_issues, 8);
        assert_eq!(s.vector_loads, 16);
        assert_eq!(s.vector_stores, 4);
        assert_eq!(s.macs, 8 * 8 * 32);
        assert_eq!(s.packed_bytes(), s.packed_a_bytes + s.packed_b_bytes);
    }

    #[test]
    fn i4_needs_half_the_issues() {
        let a = fill(8 * 32, 3, 16, -8);
        let b = fill(32 * 8, 5, 16, -8);
        let (_, s8) = gemm(&mut CampEngine::new(), (8, 8, 32), &a, &b, I8);
        let (_, s4) = gemm(&mut CampEngine::new(), (8, 8, 32), &a, &b, I4);
        assert_eq!(s4.camp_issues * 2, s8.camp_issues);
    }

    #[test]
    fn ragged_edges_are_zero_padded_correctly() {
        let (m, n, k) = (5, 5, 17);
        let a = fill(m * k, 11, 40, -20);
        let b = fill(k * n, 13, 40, -20);
        assert_eq!(
            gemm(&mut CampEngine::new(), (m, n, k), &a, &b, I8).0,
            gemm_i32_ref(m, n, k, &a, &b)
        );
    }

    #[test]
    fn zero_dimensions_return_degenerate_results() {
        // no dimension combination may panic, serial or parallel
        let mut eng = CampEngine::new();
        assert!(gemm(&mut eng, (0, 4, 4), &[], &[0; 16], I8).0.is_empty());
        assert!(gemm(&mut eng, (4, 0, 4), &[0; 16], &[], I8).0.is_empty());
        assert_eq!(gemm(&mut eng, (4, 4, 0), &[], &[], I8).0, vec![0; 16]);
        assert!(gemm(&mut eng, (0, 0, 0), &[], &[], I8).0.is_empty());
        assert_eq!(gemm(&mut CampEngine::with_threads(8), (4, 4, 0), &[], &[], I8).0, vec![0; 16]);
        assert_eq!(gemm(&mut eng, (4, 4, 0), &[], &[], I4).0, vec![0; 16]);
        let (_, s) = gemm(&mut eng, (0, 4, 4), &[], &[0; 16], I8);
        assert_eq!(s, EngineStats::default());
    }

    #[test]
    fn extreme_values_wrap_like_reference() {
        let a = vec![i8::MIN; 4 * 16];
        let b = vec![i8::MIN; 16 * 4];
        assert_eq!(
            gemm(&mut CampEngine::new(), (4, 4, 16), &a, &b, I8).0,
            gemm_i32_ref(4, 4, 16, &a, &b)
        );
    }

    #[test]
    fn multi_block_shapes_match_reference() {
        // exceed MC/NC/KC so every loop level blocks at least twice
        let (m, n, k) = (2 * MC + 5, NC + 9, KC + 33);
        let a = fill(m * k, 31, 15, -8);
        let b = fill(k * n, 17, 15, -8);
        assert_eq!(
            gemm(&mut CampEngine::new(), (m, n, k), &a, &b, I8).0,
            gemm_i32_ref(m, n, k, &a, &b)
        );
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let (m, n, k) = (37, 29, 65);
        let a = fill(m * k, 13, 200, -100);
        let b = fill(k * n, 7, 200, -100);
        let serial = gemm(&mut CampEngine::new(), (m, n, k), &a, &b, I8).0;
        assert_eq!(serial, gemm_i32_ref(m, n, k, &a, &b));
        for threads in [2, 3, 4, 16, 64] {
            assert_eq!(
                gemm(&mut CampEngine::with_threads(threads), (m, n, k), &a, &b, I8).0,
                serial,
                "threads={threads}"
            );
        }
        let a4 = fill(m * k, 13, 16, -8);
        let b4 = fill(k * n, 7, 16, -8);
        assert_eq!(
            gemm(&mut CampEngine::with_threads(3), (m, n, k), &a4, &b4, I4).0,
            gemm(&mut CampEngine::new(), (m, n, k), &a4, &b4, I4).0
        );
    }

    #[test]
    fn more_threads_than_row_tiles_is_fine() {
        let (m, n, k) = (6, 4, 16);
        let a = fill(m * k, 3, 10, -5);
        let b = fill(k * n, 5, 10, -5);
        assert_eq!(
            gemm(&mut CampEngine::with_threads(32), (m, n, k), &a, &b, I8).0,
            gemm_i32_ref(m, n, k, &a, &b)
        );
    }

    #[test]
    fn zero_threads_resolve_to_at_least_one_worker() {
        // with_threads(0) means "all cores" and must clamp to >= 1 so
        // the row partition can never divide by zero
        let eng = CampEngine::with_threads(0);
        assert!(eng.threads() >= 1, "0 threads must resolve to >= 1");
        let a = fill(4 * 4, 3, 10, -5);
        let b = fill(4 * 4, 5, 10, -5);
        assert_eq!(
            gemm(&mut CampEngine::with_threads(0), (4, 4, 4), &a, &b, I8).0,
            gemm_i32_ref(4, 4, 4, &a, &b)
        );
    }

    #[test]
    fn persistent_pool_is_reused_across_calls() {
        // one engine, many parallel calls over different shapes: the
        // pool is spawned once and every result stays bit-identical
        let mut eng = CampEngine::with_threads(4);
        for &(m, n, k) in &[(37, 29, 65), (8, 8, 32), (64, 48, 160), (5, 7, 33)] {
            let a = fill(m * k, 13, 200, -100);
            let b = fill(k * n, 7, 200, -100);
            assert_eq!(
                gemm(&mut eng, (m, n, k), &a, &b, I8).0,
                gemm_i32_ref(m, n, k, &a, &b),
                "{m}x{n}x{k}"
            );
        }
    }

    #[test]
    fn hot_loop_is_allocation_free_after_warm_up() {
        let (m, n, k) = (64, 48, 160);
        let a = fill(m * k, 9, 30, -15);
        let b = fill(k * n, 11, 30, -15);
        let mut engine = CampEngine::new();
        let first = gemm(&mut engine, (m, n, k), &a, &b, I8).0;
        let warm = engine.pack_allocations();
        assert!(warm > 0, "first call must populate the pool");
        for _ in 0..5 {
            let again = gemm(&mut engine, (m, n, k), &a, &b, I8).0;
            assert_eq!(again, first);
        }
        assert_eq!(engine.pack_allocations(), warm, "steady state must not allocate");
    }

    #[test]
    fn deep_k_stats_count_rmw_traffic() {
        // one 4×4 tile, k spanning two KC blocks: the second block's
        // tile visit adds a C read; stores happen once per visit
        let k = 2 * KC;
        let a = fill(4 * k, 3, 16, -8);
        let b = fill(k * 4, 5, 16, -8);
        let (c, s) = gemm(&mut CampEngine::new(), (4, 4, k), &a, &b, I8);
        assert_eq!(c, gemm_i32_ref(4, 4, k, &a, &b));
        assert_eq!(s.camp_issues, (k / 16) as u64);
        assert_eq!(s.vector_stores, 2);
        assert_eq!(s.vector_loads, 2 * s.camp_issues + 1);
    }

    #[test]
    fn default_engine_is_usable() {
        // Default must normalize like new(); a zero worker count would
        // divide by zero in the row partition.
        let a = fill(4 * 4, 3, 10, -5);
        let b = fill(4 * 4, 5, 10, -5);
        assert_eq!(
            gemm(&mut CampEngine::default(), (4, 4, 4), &a, &b, I8).0,
            gemm_i32_ref(4, 4, 4, &a, &b)
        );
    }

    #[test]
    fn parallel_stats_preserve_totals() {
        let (m, n, k) = (32, 16, 64);
        let a = fill(m * k, 3, 10, -5);
        let b = fill(k * n, 5, 10, -5);
        let mut eng = CampEngine::with_threads(4);
        let (_, s) = gemm(&mut eng, (m, n, k), &a, &b, I8);
        assert_eq!(s.macs, (m * n * k) as u64);
        // every 4×4 tile is issued by exactly one worker, and B is
        // packed once into the shared panel — the whole stats block
        // matches the serial run, packing traffic included
        let (_, serial) = gemm(&mut CampEngine::new(), (m, n, k), &a, &b, I8);
        assert_eq!(s.camp_issues, serial.camp_issues);
        assert_eq!(s.vector_stores, serial.vector_stores);
        assert_eq!(s.vector_loads, serial.vector_loads);
        assert_eq!(
            s.packed_b_bytes, serial.packed_b_bytes,
            "parallel B packing must be deduplicated"
        );
        assert_eq!(s, serial);
    }

    #[test]
    fn parallel_packed_bytes_stay_deduplicated_across_blocked_shapes() {
        // shapes spanning several (jc, pc) blocks so the shared panel
        // holds more than one block
        let (m, n, k) = (96, NC + 12, KC / 4 + 40);
        let a = fill(m * k, 7, 30, -15);
        let b = fill(k * n, 11, 30, -15);
        let (c_serial, serial) = gemm(&mut CampEngine::new(), (m, n, k), &a, &b, I8);
        let mut eng = CampEngine::with_threads(5);
        let (c_par, par) = gemm(&mut eng, (m, n, k), &a, &b, I8);
        assert_eq!(c_par, c_serial);
        assert_eq!(par, serial);
    }

    // ---- one nest, one image builder ----

    /// Units over `c` for the row ranges `bounds[i]..bounds[i + 1]` of
    /// `item`.
    fn units_over<'a>(
        item: Item<'a>,
        bounds: &[usize],
        c: &'a mut [MaybeUninit<i32>],
    ) -> Vec<Unit<'a>> {
        let mut rest = c;
        bounds
            .windows(2)
            .map(|w| {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut((w[1] - w[0]) * item.n);
                rest = tail;
                Unit { item, r0: w[0], c: head }
            })
            .collect()
    }

    #[test]
    fn any_row_partition_computes_the_reference_on_either_a_image() {
        // (m, 4-aligned range bounds): a ragged tail, a range crossing
        // an mc-row strip boundary of the request, uneven ranges
        let mut cases: Vec<(usize, Vec<usize>)> = vec![
            (37, vec![0, 37]),
            (37, vec![0, 4, 24, 37]),
            (192, vec![0, 96, 192]),
            (192, vec![0, 100, 192]),
            (2 * MC + 5, vec![0, MC - 4, MC + 8, 2 * MC + 5]),
        ];
        // the engine's own partition, up to more workers than 4-row
        // tiles (every range one tile)
        for threads in [2, 3, 5, 64] {
            let rows_per = row_partition(37, threads);
            cases.push((37, (0..37).step_by(rows_per).chain([37]).collect()));
        }
        let (n, k) = (20, 70);
        let wp = WorkerPool::new(3);
        for hk in HostKernel::available() {
            for dtype in [I8, I4] {
                let k_step = dtype.k_step();
                let w = fill(k * n, 5, 16, -8);
                // B as a registered panel and as a batch panel
                let mut registry = WeightRegistry::new();
                let h = registry.register(n, k, &w, dtype);
                let mut shared = PackPool::new();
                let plan = host_block_plan(1, n, k, k_step);
                let id = shared.alloc_panel(packed_b_bytes(&plan));
                hk.prepack_b(shared.panel_mut(id), &w, n, k, &plan);
                for (m, bounds) in &cases {
                    let m = *m;
                    let a = fill(m * k, 3, 16, -8);
                    let want = gemm_i32_ref(m, n, k, &a, &w);
                    // each unit packs its range into its worker's arena
                    for b in [registry.panel(h).1, shared.panel(id)] {
                        let item = Item { n, k, k_step, a: &a, route: Route::Blocked(b) };
                        for pool in [None, Some(&wp)] {
                            // units overwrite their C: start from garbage
                            let mut c = vec![MaybeUninit::new(0x5A5A_5A5A); m * n];
                            let mut arenas = Vec::new();
                            run_units(units_over(item, bounds, &mut c), &mut arenas, pool, hk);
                            // SAFETY: the fill above initialised every
                            // element, and units write only values.
                            let c: Vec<i32> =
                                c.iter().map(|v| unsafe { v.assume_init() }).collect();
                            assert_eq!(
                                c,
                                want,
                                "{} {dtype:?} m={m} ranges {bounds:?} pooled={}",
                                hk.tier().name(),
                                pool.is_some()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_tier_serves_interior_and_edge_tiles_of_the_nest() {
        // full-range operands on every tier the CPU has, so each wide
        // tile's two ways back into C are both served: whole 16-wide
        // rows (interior), and the clipped staging tile — bottom edge
        // (m = 13, 130), right edge and the narrow trailing panel group
        // (n = 37, 100), a group that is all of the second column block
        // (n = 272 > NC) — summed over a second depth block (k > KC)
        let mut r = camp_gemm::SplitMix64::new(23);
        for (m, n, k) in [(13, 37, 72), (192, 100, 64), (192, 192, 64), (130, NC + 16, KC + 52)] {
            let a = r.i8_vec(m * k, -128, 127);
            let b = r.i8_vec(k * n, -128, 127);
            let want = gemm_i32_ref(m, n, k, &a, &b);
            for hk in HostKernel::available() {
                let mut eng = CampEngine::with_threads_and_kernel(1, hk);
                let (c, stats) = gemm(&mut eng, (m, n, k), &a, &b, I8);
                assert_eq!(c, want, "{} at {m}x{n}x{k}", hk.tier().name());
                assert_eq!(stats.blocked_routed, 1);
            }
        }
    }

    #[test]
    fn stats_follow_one_rule_at_every_thread_count() {
        // above the row-split threshold (ragged), exactly on it, and
        // just under it (one unit)
        for (m, n, k) in [(160, 160, 500), (32, 1024, 256), (32, 1024, 255)] {
            let macs = (m * n * k) as u64;
            let a = fill(m * k, 3, 16, -8);
            let w = fill(k * n, 5, 16, -8);
            let want = gemm_i32_ref(m, n, k, &a, &w);
            let plan = host_block_plan(m, n, k, 16);
            let mut serial = None;
            for threads in [1, 2, 3, 5, 64] {
                let mut eng = CampEngine::with_threads(threads);
                let h = eng.register_weights(n, k, &w, I8);
                let req = GemmRequest::with_weights(m, a.clone(), h).unwrap();
                let (c, s) = run_one(&mut eng, &req);
                assert_eq!(c, want, "{m}x{n}x{k} threads={threads}");
                assert_eq!(s.packed_a_bytes, (plan.mp * plan.kp) as u64, "A's canonical image");
                assert_eq!(s.packed_b_bytes, 0, "a handle packs no B");
                assert_eq!((s.macs, s.blocked_routed), (macs, 1));
                assert_eq!(*serial.get_or_insert(s), s, "{m}x{n}x{k} threads={threads}");
            }
        }
    }

    #[test]
    fn row_split_requests_reuse_their_workers_arena() {
        // doc_prefill's QKV / out-proj GeMM (12.6 M MACs, row-split) and
        // its attention-score GeMM (2.4 M MACs, one unit): A's image is
        // built in the worker arenas either way
        let (m, n, k) = (192, 256, 256);
        let w = fill(k * n, 5, 16, -8);
        let a = fill(m * k, 3, 16, -8);
        let (qm, qn, qk) = (192, 192, 64);
        assert!(((qm * qn * qk) as u64) < BATCH_ROW_SPLIT_MACS);
        let q = fill(qm * qk, 13, 16, -8);
        let kt = fill(qk * qn, 17, 16, -8);
        for threads in [1, 2] {
            let mut eng = CampEngine::with_threads(threads);
            let h = eng.register_weights(n, k, &w, I8);
            let req = GemmRequest::with_weights(m, a.clone(), h).unwrap();
            let score = dense((qm, qn, qk), q.clone(), kt.clone(), I8);
            let first = run_one(&mut eng, &req).0;
            assert_eq!(first, gemm_i32_ref(m, n, k, &a, &w));
            let first_score = run_one(&mut eng, &score).0;
            assert_eq!(first_score, reference(&score));
            let warm = eng.pack_allocations();
            for _ in 0..10 {
                assert_eq!(run_one(&mut eng, &req).0, first);
                assert_eq!(run_one(&mut eng, &score).0, first_score);
            }
            // a smaller (ragged) image after the larger one: the arena's
            // high-water tail holds the big request's panels and must
            // not be read
            let (sm, sn, sk) = (37, 1024, 250);
            assert!((sm * sn * sk) as u64 >= BATCH_ROW_SPLIT_MACS);
            let sw = fill(sk * sn, 7, 16, -8);
            let sa = fill(sm * sk, 11, 16, -8);
            let sh = eng.register_weights(sn, sk, &sw, I8);
            let small = GemmRequest::with_weights(sm, sa.clone(), sh).unwrap();
            assert_eq!(run_one(&mut eng, &small).0, gemm_i32_ref(sm, sn, sk, &sa, &sw));
            assert_eq!(eng.pack_allocations(), warm, "threads={threads}: arenas must not regrow");
        }
    }

    #[test]
    fn a_single_unit_batch_runs_on_the_calling_thread() {
        // pool threads run nothing but pool jobs, so an unchanged
        // `jobs_run` means the unit ran right here
        let mut eng = CampEngine::with_threads(4);
        let pool = eng.worker_pool().expect("a 4-thread engine has a pool");
        let blocked = dense((12, 9, 16), fill(12 * 16, 7, 16, -8), fill(16 * 9, 11, 16, -8), I8);
        let gemv = dense((1, 16, 64), fill(64, 7, 16, -8), fill(64 * 16, 11, 16, -8), I8);
        for req in [&blocked, &gemv] {
            assert_eq!(run_one(&mut eng, req).0, reference(req));
            assert_eq!((pool.jobs_run(), pool.queued_jobs()), (0, 0), "one unit enqueues nothing");
        }
        // the probe is live: two units do go to the pool, one job each
        let _ = run_batch(&mut eng, &[blocked, gemv]);
        assert_eq!((pool.jobs_run(), pool.queued_jobs()), (2, 0));
    }

    // ---- pre-packed weight registry ----

    #[test]
    fn handle_calls_match_the_slice_api_and_pack_no_b() {
        let (n, k) = (20, 33);
        let w = fill(k * n, 5, 16, -8);
        for threads in [1, 3, 8] {
            let mut eng = CampEngine::with_threads(threads);
            let h = eng.register_weights(n, k, &w, DType::I8);
            assert_eq!(eng.registered_weights(), 1);
            assert!(eng.registered_weight_bytes() > 0);
            for m in [1, 6, 17] {
                let a = fill(m * k, 3, 16, -8);
                let (c, s) = handle_gemm(&mut eng, m, &a, h);
                assert_eq!(c, gemm_i32_ref(m, n, k, &a, &w), "threads={threads} m={m}");
                assert_eq!(c, gemm(&mut eng, (m, n, k), &a, &w, I8).0, "threads={threads} m={m}");
                assert_eq!(s.packed_b_bytes, 0, "handle calls must never pack B");
                assert!(s.packed_a_bytes > 0, "A is still packed per call");
            }
        }
    }

    #[test]
    fn i4_handles_run_the_i4_kernel() {
        let (n, k) = (10, 40);
        let w = fill(k * n, 5, 16, -8);
        let a = fill(7 * k, 3, 16, -8);
        let mut eng = CampEngine::with_threads(2);
        let h = eng.register_weights(n, k, &w, DType::I4);
        assert_eq!(eng.try_weight_meta(h).unwrap().dtype, DType::I4);
        let (c, s) = handle_gemm(&mut eng, 7, &a, h);
        assert_eq!(c, gemm_i32_ref(7, n, k, &a, &w));
        assert_eq!(s, gemm(&mut eng, (7, n, k), &a, &w, I4).1, "the handle carries the i4 k-step");
    }

    #[test]
    fn steady_state_handle_calls_have_zero_packed_b_bytes() {
        // the acceptance criterion: after warmup, repeated calls
        // against a registered weight move zero B-pack bytes and
        // allocate nothing
        let (n, k) = (48, 64);
        let w = fill(k * n, 7, 16, -8);
        let a = fill(32 * k, 3, 16, -8);
        let mut eng = CampEngine::with_threads(4);
        let h = eng.register_weights(n, k, &w, DType::I8);
        let (first, warm_stats) = handle_gemm(&mut eng, 32, &a, h);
        assert_eq!(warm_stats.packed_b_bytes, 0);
        let warm_allocs = eng.pack_allocations();
        for _ in 0..5 {
            let (c, s) = handle_gemm(&mut eng, 32, &a, h);
            assert_eq!(c, first);
            assert_eq!(s.packed_b_bytes, 0, "steady state must not pack B");
        }
        assert_eq!(eng.pack_allocations(), warm_allocs, "steady state must not allocate");
    }

    #[test]
    fn handle_problems_in_batches_skip_packing() {
        let (n, k) = (20, 33);
        let w = fill(k * n, 5, 16, -8);
        let a1 = fill(6 * k, 3, 16, -8);
        let a2 = fill(9 * k, 7, 16, -8);
        let mut eng = CampEngine::with_threads(2);
        let h = eng.register_weights(n, k, &w, DType::I8);
        let reqs = [
            GemmRequest::with_weights(6, a1.clone(), h).unwrap(),
            GemmRequest::with_weights(9, a2.clone(), h).unwrap(),
        ];
        let (cs, stats) = run_batch(&mut eng, &reqs);
        assert_eq!(cs[0], gemm_i32_ref(6, n, k, &a1, &w));
        assert_eq!(cs[1], gemm_i32_ref(9, n, k, &a2, &w));
        assert_eq!(stats.packed_b_bytes, 0, "registered weights must not repack in batches");
    }

    // ---- batched API ----

    /// Ragged shapes, one shared-B pair, one zero-dim request.
    fn mixed_requests(dtype: DType) -> Vec<GemmRequest> {
        let b0: Arc<[i8]> = fill(33 * 7, 5, 16, -8).into();
        vec![
            dense((5, 7, 33), fill(5 * 33, 3, 16, -8), Arc::clone(&b0), dtype),
            dense((12, 9, 16), fill(12 * 16, 7, 16, -8), fill(16 * 9, 11, 16, -8), dtype),
            dense((8, 7, 33), fill(8 * 33, 13, 16, -8), b0, dtype), // shares B with request 0
            dense((4, 4, 0), vec![], vec![], dtype),                // degenerate
        ]
    }

    /// The reference product of a [`dense`] request's own operands.
    fn reference(req: &GemmRequest) -> Vec<i32> {
        let Operand::Dense(b) = req.weights() else { panic!("dense request expected") };
        gemm_i32_ref(req.m(), req.n().unwrap(), req.k().unwrap(), req.activation(), b)
    }

    #[test]
    fn batch_is_bit_identical_to_per_call_loop() {
        for threads in [1, 2, 3, 8, 64] {
            let mut eng = CampEngine::with_threads(threads);
            let mut oracle = CampEngine::with_threads(threads);
            // i4 path too (the operands are 4-bit safe)
            for dtype in [I8, I4] {
                let reqs = mixed_requests(dtype);
                let batch = run_batch(&mut eng, &reqs).0;
                assert_eq!(batch.len(), reqs.len());
                for (c, r) in batch.iter().zip(&reqs) {
                    assert_eq!(c, &run_one(&mut oracle, r).0, "{dtype:?} threads={threads}");
                    assert_eq!(c, &reference(r), "{dtype:?} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn mixed_dtype_batch_runs_each_problem_under_its_own_kernel() {
        let a1: Arc<[i8]> = fill(5 * 33, 3, 16, -8).into();
        let b1: Arc<[i8]> = fill(33 * 7, 5, 16, -8).into();
        let a2 = fill(6 * 40, 7, 16, -8);
        let b2 = fill(40 * 9, 11, 16, -8);
        let reqs = [
            dense((5, 7, 33), Arc::clone(&a1), Arc::clone(&b1), I8),
            dense((6, 9, 40), a2.clone(), b2.clone(), I4),
            dense((5, 7, 33), Arc::clone(&a1), Arc::clone(&b1), I4), // same B, other kernel
        ];
        for threads in [1, 2, 8] {
            let mut eng = CampEngine::with_threads(threads);
            let (cs, stats) = run_batch(&mut eng, &reqs);
            for (c, r) in cs.iter().zip(&reqs) {
                assert_eq!(c, &reference(r), "threads={threads}");
            }
            // both dtypes issue camp instructions; the shared operand
            // is packed per kernel (layouts differ), never per problem
            assert!(stats.camp_issues > 0);
        }
    }

    #[test]
    fn mixed_dtype_batch_packs_shared_b_once_per_kernel() {
        // the same operand under i8 and i4 needs two packed layouts
        // (different padded depths) but each exactly once — on blocked
        // shapes: a skinny-m request would read the operand raw
        let (m, n, k) = (9, 12, 48);
        let w: Arc<[i8]> = fill(k * n, 5, 16, -8).into();
        let a: Arc<[i8]> = fill(m * k, 3, 16, -8).into();
        let reqs = [
            dense((m, n, k), Arc::clone(&a), Arc::clone(&w), I8),
            dense((m, n, k), Arc::clone(&a), Arc::clone(&w), I4),
            dense((m, n, k), Arc::clone(&a), Arc::clone(&w), I8), // dedups with request 0
        ];
        let mut eng = CampEngine::new();
        let (_, stats) = run_batch(&mut eng, &reqs);
        let packed_once = (n.div_ceil(4) * 4 * k.div_ceil(16) * 16) as u64;
        let packed_once_i4 = (n.div_ceil(4) * 4 * k.div_ceil(32) * 32) as u64;
        assert_eq!(stats.packed_b_bytes, packed_once + packed_once_i4);
    }

    #[test]
    fn batch_zero_dim_problems_are_degenerate_not_fatal() {
        let b = fill(4 * 4, 3, 10, -5);
        let reqs = [
            dense((0, 4, 4), vec![], b.clone(), I8),
            dense((4, 0, 4), b.clone(), vec![], I8),
            dense((4, 4, 0), vec![], vec![], I8),
        ];
        let mut eng = CampEngine::with_threads(2);
        let (cs, stats) = run_batch(&mut eng, &reqs);
        assert!(cs[0].is_empty());
        assert!(cs[1].is_empty());
        assert_eq!(cs[2], vec![0; 16], "k=0 must produce a zero-filled m×n C");
        assert_eq!(stats, EngineStats::default(), "degenerate batch runs no kernels");
    }

    #[test]
    fn batch_dedups_shared_b_packing() {
        // three blocked problems over one weight matrix: B must be
        // packed once
        let (n, k) = (20, 33);
        let w: Arc<[i8]> = fill(k * n, 5, 16, -8).into();
        let on = |m: usize, seed, w: &Arc<[i8]>| {
            dense((m, n, k), fill(m * k, seed, 16, -8), Arc::clone(w), I8)
        };
        let reqs = [on(10, 3, &w), on(9, 7, &w), on(12, 11, &w)];
        let mut eng = CampEngine::new();
        let (_, batch) = run_batch(&mut eng, &reqs);
        // packed B bytes of one problem = padded n × padded k
        let b_packed_once = (n.div_ceil(4) * 4 * k.div_ceil(16) * 16) as u64;
        assert_eq!(
            batch.packed_b_bytes, b_packed_once,
            "three problems over one weight matrix must pack B exactly once"
        );

        // sharing is buffer identity plus the packed shape: an
        // equal-valued but distinct buffer, and the same buffer under a
        // transposed (n, k), are each packed separately — while m never
        // matters (the three requests above differ in it)
        let twin: Arc<[i8]> = w.to_vec().into();
        let transposed = dense((10, k, n), fill(10 * n, 3, 16, -8), Arc::clone(&w), I8);
        let (_, s) = run_batch(&mut eng, &[on(10, 3, &w), on(10, 3, &twin), transposed]);
        let transposed_once = (k.div_ceil(4) * 4 * n.div_ceil(16) * 16) as u64;
        assert_eq!(s.packed_b_bytes, 2 * b_packed_once + transposed_once);

        // a skinny request reads the operand in place: sharing it with a
        // blocked request packs it exactly once, for the blocked one,
        // and skinny requests alone pack nothing
        let mixed = [on(6, 3, &w), on(9, 7, &w)];
        let (cs, s) = run_batch(&mut eng, &mixed);
        assert_eq!(s.packed_b_bytes, b_packed_once);
        assert_eq!((s.small_m_routed, s.blocked_routed), (1, 1));
        for (c, r) in cs.iter().zip(&mixed) {
            assert_eq!(c, &reference(r));
        }
        let (_, s) = run_batch(&mut eng, &[on(6, 3, &w), on(5, 11, &w)]);
        assert_eq!(s.packed_b_bytes, 0);
    }

    #[test]
    fn batch_row_splits_large_problems_identically() {
        // straddle BATCH_ROW_SPLIT_MACS: one problem above (split into
        // row ranges), one below (one whole unit); both run in one pass
        let big = (160, 160, 512); // 13.1 M MACs
        assert!((big.0 * big.1 * big.2) as u64 >= BATCH_ROW_SPLIT_MACS);
        let small = (16, 16, 64);
        let reqs = [
            dense(big, fill(big.0 * big.2, 3, 16, -8), fill(big.2 * big.1, 5, 16, -8), I8),
            dense(
                small,
                fill(small.0 * small.2, 7, 16, -8),
                fill(small.2 * small.1, 11, 16, -8),
                I8,
            ),
        ];
        let mut eng = CampEngine::with_threads(4);
        let batch = run_batch(&mut eng, &reqs).0;
        assert_eq!(batch[0], reference(&reqs[0]));
        assert_eq!(batch[1], reference(&reqs[1]));
    }

    #[test]
    fn decode_shaped_gemms_never_take_the_blocked_path() {
        use crate::dispatch::{DispatchOptions, Dispatcher, Priority};

        // a 1×n×k GEMV above BATCH_ROW_SPLIT_MACS: the MAC rule alone
        // would row-split it — onto one worker, since m = 1 cannot
        // split — and run it through the blocked nest
        let (n, k) = (2048, 4096);
        assert!((n * k) as u64 >= BATCH_ROW_SPLIT_MACS);
        let w = fill(k * n, 5, 16, -8);
        let a = fill(k, 3, 16, -8);
        let asml = fill(64, 7, 16, -8);
        let wsml = fill(64 * 16, 11, 16, -8);
        let big_ref = gemm_i32_ref(1, n, k, &a, &w);

        let mut eng = CampEngine::with_threads(4);
        let h = eng.register_weights(n, k, &w, DType::I8);
        let cold = eng.pack_allocations();

        // the batch path
        let reqs = [
            GemmRequest::with_weights(1, a.clone(), h).unwrap(),
            dense((1, 16, 64), asml.clone(), wsml.clone(), I8),
        ];
        let (cs, stats) = run_batch(&mut eng, &reqs);
        assert_eq!(cs[0], big_ref);
        assert_eq!(cs[1], gemm_i32_ref(1, 16, 64, &asml, &wsml));
        assert_eq!(
            (stats.small_m_routed, stats.small_n_routed, stats.blocked_routed),
            (2, 0, 0),
            "every decode-shaped item must classify onto the small-m path"
        );

        // dense decode-shaped requests (attention's per-head GEMVs) read
        // B in place: nothing is packed, so no arena ever grows for them
        assert_eq!(stats.packed_b_bytes, 0);
        for _ in 0..3 {
            let (cs, s) = run_batch(&mut eng, &reqs[1..]);
            assert_eq!(cs[0], gemm_i32_ref(1, 16, 64, &asml, &wsml));
            assert_eq!((s.small_m_routed, s.packed_b_bytes), (1, 0));
        }
        assert_eq!(eng.pack_allocations(), cold, "a dense m = 1 request must not touch an arena");

        let req = GemmRequest::with_weights(1, a.clone(), h).unwrap();
        let bare = eng.execute(&req).unwrap().stats;

        // the dispatch path (the serving decode steps)
        let dispatcher = Dispatcher::with_options(eng, DispatchOptions { queue_depth: 4 });
        let mut session = dispatcher.session();
        let t = session.submit_with(vec![req], Priority::Decode, None).unwrap();
        let out = session.wait(t).unwrap();
        assert_eq!(out.outputs[0].c, big_ref);
        let s = out.stats.as_host().expect("host engine ran");
        assert_eq!(
            (s.small_m_routed, s.blocked_routed),
            (1, 0),
            "a served decode step must never take the blocked path"
        );
        assert_eq!(out.stats, bare, "a queued decode step reports the bare engine's stats");
        drop(session);
        let _ = dispatcher.into_backend();
    }

    #[test]
    fn batch_hot_loop_is_allocation_free_after_warm_up() {
        let reqs = mixed_requests(I8);
        let mut eng = CampEngine::with_threads(2);
        let first = run_batch(&mut eng, &reqs).0;
        let warm = eng.pack_allocations();
        assert!(warm > 0);
        for _ in 0..3 {
            assert_eq!(run_batch(&mut eng, &reqs).0, first);
        }
        assert_eq!(eng.pack_allocations(), warm, "steady-state batches must not allocate");
    }
}
