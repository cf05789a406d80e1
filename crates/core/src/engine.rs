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
//! The engine shares `camp-gemm`'s blocked-loop skeleton
//! ([`camp_gemm::loops`]) with the simulated §5.3 driver and packs into
//! a reusable [`PackPool`] instead of allocating per panel, so the hot
//! loop is allocation-free after warm-up ([`CampEngine::pack_allocations`]
//! exposes the growth counter) apart from the result matrices and the
//! staged A of blocked requests. An opt-in parallel path
//! ([`CampEngine::with_threads`] or the `*_parallel` helpers) splits the
//! row dimension across a **persistent worker pool**
//! ([`crate::pool::WorkerPool`]) — the Goto split of the macro loop.
//! Workers are spawned once per engine and parked between calls, so a
//! serving workload pays thread-spawn cost once, not per request. B is
//! packed exactly once per call into a shared read-only panel that every
//! worker consumes, and results are bit-identical to the serial path
//! because every 4×4 tile is computed by exactly one worker with
//! identical arithmetic.
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
//! one: [`CampBackend::prepare`](crate::backend::CampBackend::prepare)
//! each request, then
//! [`CampBackend::execute_prepared`](crate::backend::CampBackend::execute_prepared)
//! the batch. `execute_batch`, a dispatcher session's direct `run` and
//! its queued `submit` → `wait` are that pair called from different
//! threads, so results *and* [`EngineStats`] are the same whichever way
//! a batch came in:
//!
//! * **B deduplication** (`execute_prepared`, which sees the whole batch
//!   and owns the arena) — blocked requests sharing one dense B buffer
//!   under one (n, k, k-step) pack it once into a pool-owned panel
//!   reused across the batch (skinny-n requests included); a skinny-m
//!   request (m ≤ 8, below the row-split threshold) reads its dense B
//!   **in place** — a single-use operand such as an attention head's
//!   Kᵀ or V is never copied into a panel just to be read once — and
//!   requests carrying a [`WeightHandle`] skip packing entirely;
//! * **A pre-packing** (`prepare`, per request, needs no engine) — a
//!   request that will run whole on the blocked path gets its A packed
//!   once up front into a staging buffer allocated per request; skinny
//!   requests read the raw activation, row-split requests are packed
//!   by the workers that own the rows;
//! * **cross-item parallelism** — small problems are distributed across
//!   the persistent workers whole; problems above a MAC-count threshold
//!   fall back to the row-partition split;
//! * **bit-identity** — batch results equal the scalar reference,
//!   element for element.
//!
//! Each request's own [`DType`] wins, so one batch can mix i4 and i8
//! problems. For streaming many batches,
//! [`CampBackend::dispatch`](crate::backend::CampBackend::dispatch)
//! upgrades the engine into a [`crate::dispatch::Dispatcher`] whose
//! sessions run `prepare` on the submitting thread, overlapping the
//! A-packing of one batch with the compute of the previous one. A
//! blocked request's dense B is then packed by whichever thread holds
//! the engine, not by the submitter: served weights are registered
//! handles, and the dense B of served traffic is attention K/V, a few
//! KiB per head, which decode steps read in place.

use camp_gemm::batch::{packed_a_bytes, packed_a_offset, packed_b_bytes, packed_b_offset};
use camp_gemm::host::{HostKernel, KernelInfo, SmallB};
use camp_gemm::loops::{
    for_each_b_block, for_each_row_strip, run_blocked, small_path, BlockPlan, BlockSink, SmallPath,
};
use camp_gemm::request::{GemmRequest, Operand, RequestError};
use camp_gemm::weights::{
    host_block_plan, pack_a_block, pack_b_block, prepack_a, prepack_b, WeightRegistry,
    WeightSnapshot,
};
use camp_gemm::workspace::{PackPool, PanelId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::pool::{Job, WorkerPool};

pub use camp_gemm::gemm_i32_ref;
pub use camp_gemm::weights::{DType, WeightHandle, WeightMeta};

/// MAC count above which a batch item is row-partitioned across all
/// workers instead of sharing one worker with other items. Below it,
/// the per-item fan-out costs more than it buys (the attention
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
    /// Bytes moved packing A panels (activations — paid per request).
    /// A request below the row-split threshold packs its A exactly
    /// once, `mp·kp` bytes, in `prepare`; a skinny request packs none
    /// on the host and reports the canonical tile stream's figure; a
    /// row-split request is packed block by block by the workers, once
    /// per column strip. Identical across entry points.
    pub packed_a_bytes: u64,
    /// Bytes the engine actually moved packing B panels, deduplicated:
    /// each *distinct* dense B that a blocked, skinny-n or row-split
    /// request of the batch reads (same buffer, same (n, k, k-step)) is
    /// packed once, whichever entry point ran the batch. A skinny-m
    /// request reads its dense B in place and adds 0 (`camp_issues` /
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

    /// Count one request's route classification from its overall shape
    /// (degenerate requests run no kernel and count nowhere). Stamped
    /// once per request at the entry points — never per row chunk — so
    /// the counters stay schedule-invariant.
    fn stamp_route(&mut self, m: usize, n: usize, k: usize) {
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        match small_path(m, n) {
            Some(SmallPath::SmallM) => self.small_m_routed += 1,
            Some(SmallPath::SmallN) => self.small_n_routed += 1,
            None => self.blocked_routed += 1,
        }
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

/// The [`EngineStats`] of running a problem through the blocked tile
/// path, computed arithmetically from the plan. This *is* the tile
/// path's accounting — same block traversal, same per-tile issue,
/// load and store counts — kept as one closed form so the skinny fast
/// paths ([`camp_gemm::host`]'s `run_small_m`/`run_small_n`) report
/// the canonical camp instruction stream for their problem even though
/// they execute a cheaper host schedule. Stats stay a property of the
/// *problem* (shape, dtype, operand placement), not of which host
/// schedule computed it, so counters remain comparable across paths
/// and stable under dispatch changes. A unit test pins this helper to
/// the instrumented blocked path.
fn tile_path_stats(
    m: usize,
    n: usize,
    k: usize,
    k_step: usize,
    plan: &BlockPlan,
    shared_b: bool,
    shared_a: bool,
) -> EngineStats {
    let mut s = EngineStats { macs: (m * n * k) as u64, ..EngineStats::default() };
    for_each_b_block(plan, |_jc, ncb, pc, kcb| {
        if !shared_b {
            s.packed_b_bytes += (ncb * kcb) as u64;
        }
        for_each_row_strip(plan, |_ic, mcb| {
            if !shared_a {
                s.packed_a_bytes += (mcb * kcb) as u64;
            }
            let tiles = ((mcb / 4) * (ncb / 4)) as u64;
            let steps = (kcb / k_step) as u64;
            s.camp_issues += tiles * steps;
            s.vector_loads += tiles * (2 * steps + u64::from(pc > 0));
            s.vector_stores += tiles;
        });
    });
    s
}

/// Host backend of the shared blocked-loop skeleton: packs blocks into
/// the pool's buffers and runs the camp issue loop as the macro-kernel.
/// With `shared_b` set, B arrives fully pre-packed (see
/// [`camp_gemm::weights::prepack_b`]) and the per-block B pack becomes
/// a no-op; `shared_a` does the same for an A packed whole by
/// [`StagedRequest::stage`].
struct HostBackend<'a> {
    a: &'a [i8],
    b: &'a [i8],
    c: &'a mut [i32],
    m: usize,
    n: usize,
    k: usize,
    /// Padded depth of the plan (for shared-panel block offsets).
    kp: usize,
    k_step: usize,
    hk: &'static HostKernel,
    pool: &'a mut PackPool,
    shared_b: Option<&'a [i8]>,
    shared_a: Option<&'a [i8]>,
    stats: EngineStats,
}

impl BlockSink for HostBackend<'_> {
    fn pack_b(&mut self, jc: usize, ncb: usize, pc: usize, kcb: usize) {
        if self.shared_b.is_some() {
            // B was packed once for all workers/batch items (or at
            // weight-registration time); the pack traffic is accounted
            // exactly once by whoever packed it.
            return;
        }
        let buf = self.pool.b_buffer(ncb * kcb);
        pack_b_block(buf, self.b, self.n, self.k, jc, pc, kcb);
        self.stats.packed_b_bytes += (ncb * kcb) as u64;
    }

    fn pack_a(&mut self, ic: usize, mcb: usize, pc: usize, kcb: usize) {
        if self.shared_a.is_some() {
            // A was packed whole in `prepare`; `run_staged` accounts
            // the traffic.
            return;
        }
        let buf = self.pool.a_buffer(mcb * kcb);
        pack_a_block(buf, self.a, self.m, self.k, ic, pc, kcb);
        self.stats.packed_a_bytes += (mcb * kcb) as u64;
    }

    fn macro_kernel(
        &mut self,
        ic: usize,
        mcb: usize,
        jc: usize,
        ncb: usize,
        pc: usize,
        kcb: usize,
    ) {
        let panel = kcb * 4;
        let (own_a, own_b) = self.pool.buffers();
        let abuf = match self.shared_a {
            Some(packed) => {
                let off = packed_a_offset(self.kp, ic, mcb, pc);
                &packed[off..off + mcb * kcb]
            }
            None => own_a,
        };
        let bbuf = match self.shared_b {
            Some(packed) => {
                let off = packed_b_offset(self.kp, jc, ncb, pc);
                &packed[off..off + ncb * kcb]
            }
            None => own_b,
        };
        // Walk the B panels in groups sized to the tier's widened
        // register tile (`int_nr/4` adjacent 4-col panels per wide
        // call); a trailing group narrower than the tile falls back to
        // the 4x4 kernel panel-by-panel. The stats are per 4x4
        // subtile either way, so the counters are routing-invariant:
        // one issue per k-step per subtile, two operand loads each.
        let nwp = self.hk.int_nr() / 4;
        let qpanels = ncb / 4;
        let steps = (kcb / self.k_step) as u64;
        let mut q = 0;
        while q < qpanels {
            let group = if q + nwp <= qpanels { nwp } else { 1 };
            let pb = &bbuf[q * panel..(q + group) * panel];
            for p in 0..mcb / 4 {
                let pa = &abuf[p * panel..(p + 1) * panel];
                let mut acc = [[0i32; 4]; 16];
                let acc = &mut acc[..group * 4];
                if group > 1 {
                    // One wide call covers `group` subtiles (the
                    // dispatched tier holds all of them in registers
                    // across the k loop).
                    self.hk.tile_i8_wide(pa, pb, acc);
                } else {
                    let sub: &mut [[i32; 4]; 4] = (&mut acc[..4]).try_into().unwrap();
                    self.hk.tile_i8(pa, pb, sub);
                }
                self.stats.camp_issues += group as u64 * steps;
                self.stats.vector_loads += group as u64 * 2 * steps;
                // k blocks after the first read C back before storing
                // (read-modify-write); the first visit stores into a
                // zeroed C, so the stream has no load there.
                if pc > 0 {
                    self.stats.vector_loads += group as u64;
                }
                self.stats.vector_stores += group as u64;
                // accumulate each subtile into C (read-modify-write
                // across k blocks), clipping the zero-padded edge
                for (sq, sub) in acc.chunks_exact(4).enumerate() {
                    for (rx, row) in sub.iter().enumerate() {
                        let i = ic + p * 4 + rx;
                        if i >= self.m {
                            break;
                        }
                        for (cx, &v) in row.iter().enumerate() {
                            let j = jc + (q + sq) * 4 + cx;
                            if j < self.n {
                                let idx = i * self.n + j;
                                self.c[idx] = self.c[idx].wrapping_add(v);
                            }
                        }
                    }
                }
            }
            q += group;
        }
    }
}

/// Run one worker's row range: the skinny fast paths for GEMV-shaped
/// problems ([`small_path`]), the blocked loops otherwise. With
/// `shared_b` / `shared_a`, the operand is consumed from the caller's
/// pre-packed panel instead of being packed per block.
#[allow(clippy::too_many_arguments)]
fn gemm_range(
    m: usize,
    n: usize,
    k: usize,
    a: &[i8],
    b: &[i8],
    c: &mut [i32],
    pool: &mut PackPool,
    k_step: usize,
    hk: &'static HostKernel,
    shared_b: Option<&[i8]>,
    shared_a: Option<&[i8]>,
) -> EngineStats {
    let plan = host_block_plan(m, n, k, k_step);
    if let Some(path) = small_path(m, n) {
        // Skinny problems skip the Goto nest: raw A rows feed the
        // tier's small kernels directly (no A packing, no padded
        // register tile). Bit-identity with the blocked path is
        // structural — exact products, wrapping i32 accumulation.
        // Stats report the canonical camp stream for the problem (see
        // [`tile_path_stats`]) but no B pack: a panel was accounted by
        // whoever packed it, a raw B (small-m only) is read in place.
        // `shared_a` is never set here ([`StagedRequest::stage`] packs
        // no A for a skinny shape).
        match path {
            SmallPath::SmallM => {
                let bsrc = match shared_b {
                    Some(panel) => SmallB::Panel(panel),
                    None => SmallB::Dense(b),
                };
                hk.run_small_m(m, n, k, &plan, a, bsrc, c);
            }
            SmallPath::SmallN => {
                let panel = shared_b.expect("a skinny-n item always arrives with its B packed");
                hk.run_small_n(m, n, k, &plan, a, panel, c);
            }
        }
        return tile_path_stats(m, n, k, k_step, &plan, true, shared_a.is_some());
    }
    let mut backend = HostBackend {
        a,
        b,
        c,
        m,
        n,
        k,
        kp: plan.kp,
        k_step,
        hk,
        pool,
        shared_b,
        shared_a,
        stats: EngineStats { macs: (m * n * k) as u64, ..EngineStats::default() },
    };
    run_blocked(&plan, &mut backend);
    backend.stats
}

/// Worker row-chunk height (a multiple of the 4-row register tile, so
/// every worker owns whole tiles) and the resulting worker count for an
/// m-row problem across up to `threads` workers. The single source of
/// truth for the row split: `gemm` uses the worker count to decide
/// whether to pre-pack a shared B panel, and [`gemm_partitioned`] uses
/// the same numbers to chunk the work.
fn row_partition(m: usize, threads: usize) -> (usize, usize) {
    let rows_per = m.div_ceil(threads).div_ceil(4) * 4;
    (rows_per, m.div_ceil(rows_per))
}

/// Execute jobs on the persistent pool, or inline when the engine is
/// serial (no pool exists).
fn run_jobs(wp: Option<&WorkerPool>, jobs: Vec<Job<'_>>) {
    match wp {
        Some(wp) => wp.run(jobs),
        None => {
            for job in jobs {
                job();
            }
        }
    }
}

/// Row partition of the macro loop across up to `threads` workers on
/// the persistent pool: chunks are multiples of the 4-row tile so every
/// worker owns whole register tiles, which (with wrapping i32
/// accumulation) makes the result bit-identical to the serial path for
/// any worker count.
#[allow(clippy::too_many_arguments)]
fn gemm_partitioned(
    m: usize,
    n: usize,
    k: usize,
    a: &[i8],
    b: &[i8],
    c: &mut [i32],
    pools: &mut Vec<PackPool>,
    wp: Option<&WorkerPool>,
    threads: usize,
    k_step: usize,
    hk: &'static HostKernel,
    shared_b: Option<&[i8]>,
) -> EngineStats {
    let (rows_per, workers) = row_partition(m, threads);
    while pools.len() < workers {
        pools.push(PackPool::new());
    }
    let mut total = EngineStats::default();
    if workers == 1 {
        total.merge(&gemm_range(m, n, k, a, b, c, &mut pools[0], k_step, hk, shared_b, None));
        return total;
    }
    let mut slots: Vec<Option<EngineStats>> = vec![None; workers];
    let jobs: Vec<Job<'_>> = c
        .chunks_mut(rows_per * n)
        .zip(a.chunks(rows_per * k))
        .zip(pools.iter_mut())
        .zip(slots.iter_mut())
        .map(|(((c_chunk, a_chunk), pool), slot)| -> Job<'_> {
            Box::new(move || {
                let m_local = c_chunk.len() / n;
                *slot = Some(gemm_range(
                    m_local, n, k, a_chunk, b, c_chunk, pool, k_step, hk, shared_b, None,
                ));
            })
        })
        .collect();
    run_jobs(wp, jobs);
    for s in slots.iter().flatten() {
        total.merge(s);
    }
    total
}

/// Whether a non-degenerate batch item is row-partitioned across all
/// workers instead of running whole on one: at or above
/// [`BATCH_ROW_SPLIT_MACS`], unless m ≤ 4 — [`row_partition`] chunks in
/// multiples of the 4-row register tile, so even a huge GEMV-shaped
/// (m = 1) decode item gains nothing from the partitioned path and runs
/// whole on the skinny small-m kernel, parallel across batch items.
fn row_splits(m: usize, n: usize, k: usize) -> bool {
    m as u64 * n as u64 * k as u64 >= BATCH_ROW_SPLIT_MACS && m > 4
}

/// Whether the engine reads a request's dense B in place instead of
/// packing it: the item takes the skinny small-m path (whose row sweep
/// streams the raw row-major operand once) and runs whole on one
/// worker. Skinny-n items keep packing — their B is at most 8 columns
/// wide and every one of the m > 8 rows re-reads it, and the
/// pack-then-panel-walk measured faster than a no-pack kernel there.
/// A pure function of the shape, so the route — and with it the stats —
/// is the same on every entry point, tier and thread count.
fn reads_dense_b_in_place(m: usize, n: usize, k: usize) -> bool {
    small_path(m, n) == Some(SmallPath::SmallM) && !row_splits(m, n, k)
}

/// One non-degenerate work unit of a batch: its effective kernel, its B
/// as a pre-packed panel or (skinny-m, dense) as the raw operand, and a
/// pre-packed A where [`StagedRequest::stage`] made one.
struct WorkItem<'a> {
    slot: usize,
    m: usize,
    n: usize,
    k: usize,
    k_step: usize,
    a: &'a [i8],
    /// Fully pre-packed A; consumed only on the cross-item path (the
    /// row-split path partitions rows, whose per-worker plans index A
    /// differently).
    shared_a: Option<&'a [i8]>,
    /// Raw row-major B, read only where `shared_b` is `None`
    /// ([`reads_dense_b_in_place`]); empty otherwise.
    b: &'a [i8],
    shared_b: Option<&'a [i8]>,
}

impl WorkItem<'_> {
    fn macs(&self) -> u64 {
        self.m as u64 * self.n as u64 * self.k as u64
    }
}

/// Shared dispatch of a batch of work items: problems above
/// [`BATCH_ROW_SPLIT_MACS`] are row-partitioned across all workers,
/// the rest are distributed whole across the persistent workers.
/// Each result lands in `results[item.slot]`.
fn run_work_items(
    items: Vec<WorkItem<'_>>,
    results: &mut [Vec<i32>],
    pools: &mut Vec<PackPool>,
    wp: Option<&WorkerPool>,
    threads: usize,
    hk: &'static HostKernel,
) -> EngineStats {
    let mut total = EngineStats::default();
    let mut small = Vec::with_capacity(items.len());
    for it in items {
        total.stamp_route(it.m, it.n, it.k);
        if !row_splits(it.m, it.n, it.k) {
            small.push(it);
            continue;
        }
        let mut c = vec![0i32; it.m * it.n];
        total.merge(&gemm_partitioned(
            it.m,
            it.n,
            it.k,
            it.a,
            it.b,
            &mut c,
            pools,
            wp,
            threads,
            it.k_step,
            hk,
            it.shared_b,
        ));
        results[it.slot] = c;
    }
    total.merge(&run_small_items(small, results, pools, wp, threads, hk));
    total
}

/// Distribute small items across the persistent workers
/// (longest-processing-time greedy — biggest problems first onto the
/// least-loaded worker) and write each result into `results[item.slot]`.
fn run_small_items(
    items: Vec<WorkItem<'_>>,
    results: &mut [Vec<i32>],
    pools: &mut Vec<PackPool>,
    wp: Option<&WorkerPool>,
    threads: usize,
    hk: &'static HostKernel,
) -> EngineStats {
    let mut total = EngineStats::default();
    if items.is_empty() {
        return total;
    }
    let workers = threads.min(items.len()).max(1);
    while pools.len() < workers {
        pools.push(PackPool::new());
    }
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(items[i].macs()));
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); workers];
    let mut load = vec![0u64; workers];
    for i in order {
        let w = (0..workers).min_by_key(|&w| load[w]).expect("workers > 0");
        assignment[w].push(i);
        load[w] += items[i].macs();
    }
    let items = &items;
    let mut cells: Vec<Vec<(usize, Vec<i32>, EngineStats)>> = vec![Vec::new(); workers];
    let jobs: Vec<Job<'_>> = assignment
        .iter()
        .zip(pools.iter_mut())
        .zip(cells.iter_mut())
        .map(|((list, pool), cell)| -> Job<'_> {
            Box::new(move || {
                for &i in list {
                    let it = &items[i];
                    let mut c = vec![0i32; it.m * it.n];
                    let s = gemm_range(
                        it.m,
                        it.n,
                        it.k,
                        it.a,
                        it.b,
                        &mut c,
                        pool,
                        it.k_step,
                        hk,
                        it.shared_b,
                        it.shared_a,
                    );
                    cell.push((it.slot, c, s));
                }
            })
        })
        .collect();
    // a single worker runs its one job inline, same code path
    run_jobs(if workers > 1 { wp } else { None }, jobs);
    for (slot, c, s) in cells.into_iter().flatten() {
        results[slot] = c;
        total.merge(&s);
    }
    total
}

/// The B side of a staged request.
#[derive(Debug)]
pub(crate) enum StagedB {
    /// Registered weight: the pre-packed panel is consumed directly,
    /// zero B-packing on the compute path.
    Handle(WeightHandle),
    /// Dense weights, carried raw: [`CampEngine::run_staged`] sees the
    /// whole batch and owns the arena, so it packs each distinct
    /// operand once for all of its sharers that read a panel;
    /// skinny-m requests read it as it is.
    Dense(Arc<[i8]>),
}

/// One prepared request of a batch — the host engine's
/// `CampBackend::Prepared` form: the resolved shape, both operands, and
/// a fully pre-packed A for requests that will take the blocked
/// cross-item path (the only path that reads one).
#[derive(Debug)]
pub struct StagedRequest {
    pub(crate) m: usize,
    pub(crate) n: usize,
    pub(crate) k: usize,
    pub(crate) dtype: DType,
    pub(crate) a: Arc<[i8]>,
    pub(crate) packed_a: Option<Vec<i8>>,
    pub(crate) b: StagedB,
}

impl StagedRequest {
    /// Prepare one *validated* request (no engine needed, so a
    /// dispatcher session's caller runs this on its own thread while
    /// the engine computes somebody's previous batch; a staged blocked
    /// request then holds its raw A plus an equally sized packed A
    /// until it has run): resolve its shape and pre-pack A when the
    /// request will run whole on the blocked path — below the row-split
    /// threshold (row-split requests are packed by the workers that own
    /// the rows) and not skinny (the small-m/small-n kernels read the
    /// raw activation).
    pub(crate) fn stage(req: GemmRequest, weights: &WeightSnapshot) -> StagedRequest {
        let r = req.resolve(weights).expect("session requests are validated at submit");
        let b = match req.weights() {
            Operand::Handle(h) => StagedB::Handle(*h),
            Operand::Dense(b) => StagedB::Dense(Arc::clone(b)),
        };
        let a = req.activation_arc();
        let blocked_whole =
            !r.is_degenerate() && !row_splits(r.m, r.n, r.k) && small_path(r.m, r.n).is_none();
        let packed_a = blocked_whole.then(|| {
            let plan = host_block_plan(r.m, r.n, r.k, r.dtype.k_step());
            let mut buf = vec![0i8; packed_a_bytes(&plan)];
            prepack_a(&mut buf, &a, r.m, r.k, &plan);
            buf
        });
        StagedRequest { m: r.m, n: r.n, k: r.k, dtype: r.dtype, a, packed_a, b }
    }

    pub(crate) fn is_degenerate(&self) -> bool {
        self.m == 0 || self.n == 0 || self.k == 0
    }
}

/// Reusable host-speed GeMM engine: a persistent worker pool spawned
/// once at construction, one pack-pool arena per worker, a shared arena
/// for per-call pre-packed B panels, and a [`WeightRegistry`] of
/// pre-packed weights for serving workloads. The packing hot loop
/// allocates nothing once the pools are warm (each request still
/// allocates its m×n result vector, and a blocked one its staged A).
#[derive(Debug)]
pub struct CampEngine {
    threads: usize,
    /// Host micro-kernel tier, dispatched once at construction from
    /// the [`camp_gemm::host::CpuFeatures`] probe (or pinned by
    /// [`CampEngine::with_threads_and_kernel`] /
    /// `CAMP_FORCE_SCALAR=1`). Every integer kernel call in this
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

    /// Engine running up to `threads` workers over row partitions of
    /// the Goto macro loop; `0` means one worker per available core
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
    /// [`HostKernel::detect`] choose (it honors `CAMP_FORCE_SCALAR`).
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
    /// assert!(["scalar", "avx2", "avx512", "neon"].contains(&info.tier.as_str()));
    /// println!("{info}"); // e.g. "avx2 kernel (features: avx2 fma; ...)"
    /// ```
    pub fn kernel_info(&self) -> KernelInfo {
        self.host.info()
    }

    /// The dispatched host-kernel table itself (the f32 subsystem
    /// [`camp_gemm::host::HostGemmF32`] takes it directly).
    pub fn host_kernel(&self) -> &'static HostKernel {
        self.host
    }

    /// A sharable handle to the engine's persistent worker pool, or
    /// `None` for a serial engine. The pool implements
    /// [`camp_gemm::SimScheduler`], so the *simulated* driver
    /// (`simulate_gemm_on` / `simulate_gemm_batch_on`) can schedule its
    /// independent (jc, pc) block units on the same threads that serve
    /// the host-speed path — one thread budget for both halves, which
    /// is how the figure harnesses run `--sim-threads N` sweeps.
    ///
    /// The pool's [`WorkerPool::queued_jobs`] / [`WorkerPool::jobs_run`]
    /// counters let serving tests assert that draining a
    /// [`crate::dispatch::Dispatcher`] leaves no jobs queued — the
    /// "no leaked pool permits" invariant.
    pub fn worker_pool(&self) -> Option<std::sync::Arc<WorkerPool>> {
        self.workers.clone()
    }

    /// Total pack-buffer growths across the per-worker and shared
    /// arenas. Flat across same-shape calls ⇒ the hot loop is
    /// allocation-free. Weight registration (a one-time cost) is
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
    /// assert_eq!(engine.weight_meta(weights).k, k);
    /// ```
    ///
    /// # Panics
    /// Panics if `b.len() != k * n`.
    pub fn register_weights(&mut self, n: usize, k: usize, b: &[i8], dtype: DType) -> WeightHandle {
        self.weights.register(n, k, b, dtype)
    }

    /// Shape/dtype of a registered weight.
    ///
    /// # Panics
    /// Panics on a foreign, unknown or evicted handle; use
    /// [`CampEngine::try_weight_meta`] for a `Result`.
    pub fn weight_meta(&self, h: WeightHandle) -> WeightMeta {
        self.weights.meta(h)
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

    /// Single registered-weight GeMM, bypassing the batch machinery:
    /// the reference path the test suite pins the request/batch
    /// surfaces against (stats included — `packed_b_bytes` must be 0).
    #[cfg(test)]
    fn handle_gemm(&mut self, m: usize, a: &[i8], h: WeightHandle) -> (Vec<i32>, EngineStats) {
        let meta = self.weights.meta(h);
        assert_eq!(a.len(), m * meta.k, "A must be m×k");
        let mut c = vec![0i32; m * meta.n];
        if m == 0 || meta.n == 0 || meta.k == 0 {
            return (c, EngineStats::default());
        }
        debug_check_i4(meta.dtype, "activation", a);
        let mut stats = gemm_partitioned(
            m,
            meta.n,
            meta.k,
            a,
            &[],
            &mut c,
            &mut self.pools,
            self.workers.as_deref(),
            self.threads,
            meta.dtype.k_step(),
            self.host,
            Some(self.weights.panel(h)),
        );
        stats.stamp_route(m, meta.n, meta.k);
        (c, stats)
    }

    /// Single dense GeMM, bypassing the batch machinery: the reference
    /// path the test suite pins the request/batch surfaces against
    /// (bit-identical results, comparable stats).
    #[cfg(test)]
    fn gemm(
        &mut self,
        m: usize,
        n: usize,
        k: usize,
        a: &[i8],
        b: &[i8],
        dtype: DType,
    ) -> (Vec<i32>, EngineStats) {
        assert_eq!(a.len(), m * k, "A must be m×k");
        assert_eq!(b.len(), k * n, "B must be k×n");
        let mut c = vec![0i32; m * n];
        if m == 0 || n == 0 || k == 0 {
            return (c, EngineStats::default());
        }
        debug_check_i4(dtype, "A", a);
        debug_check_i4(dtype, "B", b);
        let k_step = dtype.k_step();

        let mut total = EngineStats::default();
        let (_, workers) = row_partition(m, self.threads);
        let panel_id = if workers > 1 || small_path(m, n) == Some(SmallPath::SmallN) {
            // Pack B once into a shared read-only panel instead of once
            // per worker (the skinny-n walk only reads panels) — the
            // packing traffic below is everything the whole call moves
            // for B.
            let plan = host_block_plan(m, n, k, k_step);
            self.shared.reset_panels();
            let id = self.shared.alloc_panel(packed_b_bytes(&plan));
            prepack_b(self.shared.panel_mut(id), b, n, k, &plan);
            total.packed_b_bytes += packed_b_bytes(&plan) as u64;
            Some(id)
        } else {
            None
        };
        let shared_b = panel_id.map(|id| self.shared.panel(id));
        total.merge(&gemm_partitioned(
            m,
            n,
            k,
            a,
            b,
            &mut c,
            &mut self.pools,
            self.workers.as_deref(),
            self.threads,
            k_step,
            self.host,
            shared_b,
        ));
        total.stamp_route(m, n, k);
        (c, total)
    }

    /// Compute one prepared batch — the engine's only batch path,
    /// whichever entry point built it: a skinny-m request reads its dense
    /// B in place ([`reads_dense_b_in_place`]); each *distinct* dense B
    /// of the others (buffer identity plus (n, k, k-step), which fix
    /// the packed layout) is packed once into the shared arena for all
    /// of its sharers, registered B panels are consumed as they are, A
    /// comes pre-packed where [`StagedRequest::stage`] provided it, and
    /// oversized requests are row-partitioned. Returns one row-major C
    /// per request plus the batch's merged stats.
    pub(crate) fn run_staged(&mut self, reqs: &[StagedRequest]) -> (Vec<Vec<i32>>, EngineStats) {
        let mut total = EngineStats::default();
        self.shared.reset_panels();
        let mut panel_of: HashMap<(*const i8, usize, usize, usize), PanelId> = HashMap::new();
        // Debug builds range-check each distinct i4 operand once,
        // whichever route its readers take.
        let mut checked_i4: HashSet<*const i8> = HashSet::new();
        let panels: Vec<Option<PanelId>> = reqs
            .iter()
            .map(|r| match &r.b {
                StagedB::Dense(b) if !r.is_degenerate() => {
                    if checks_i4(r.dtype) && checked_i4.insert(b.as_ptr()) {
                        debug_check_i4(r.dtype, "B", b);
                    }
                    if reads_dense_b_in_place(r.m, r.n, r.k) {
                        return None;
                    }
                    let k_step = r.dtype.k_step();
                    Some(*panel_of.entry((b.as_ptr(), r.n, r.k, k_step)).or_insert_with(|| {
                        let plan = host_block_plan(r.m, r.n, r.k, k_step);
                        let id = self.shared.alloc_panel(packed_b_bytes(&plan));
                        prepack_b(self.shared.panel_mut(id), b, r.n, r.k, &plan);
                        total.packed_b_bytes += packed_b_bytes(&plan) as u64;
                        id
                    }))
                }
                _ => None,
            })
            .collect();

        // Degenerate results exist up front (all-zero when only k is 0,
        // empty otherwise); real results are filled below.
        let mut results: Vec<Vec<i32>> = reqs
            .iter()
            .map(|r| if r.is_degenerate() { vec![0i32; r.m * r.n] } else { Vec::new() })
            .collect();
        let shared = &self.shared;
        let weights = &self.weights;

        let items: Vec<WorkItem<'_>> = reqs
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_degenerate())
            .map(|(i, r)| {
                debug_check_i4(r.dtype, "A", &r.a);
                total.packed_a_bytes += r.packed_a.as_ref().map_or(0, |p| p.len() as u64);
                let (b, shared_b): (&[i8], _) = match (&r.b, panels[i]) {
                    (StagedB::Handle(h), _) => (&[], Some(weights.panel(*h))),
                    (StagedB::Dense(_), Some(id)) => (&[], Some(shared.panel(id))),
                    (StagedB::Dense(b), None) => (b, None),
                };
                WorkItem {
                    slot: i,
                    m: r.m,
                    n: r.n,
                    k: r.k,
                    k_step: r.dtype.k_step(),
                    a: &r.a,
                    shared_a: r.packed_a.as_deref(),
                    b,
                    shared_b,
                }
            })
            .collect();
        total.merge(&run_work_items(
            items,
            &mut results,
            &mut self.pools,
            self.workers.as_deref(),
            self.threads,
            self.host,
        ));
        (results, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_gemm::weights::HOST_BLOCKING;

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

    /// The per-call oracle over a [`dense`] request's own operands.
    fn per_call(eng: &mut CampEngine, req: &GemmRequest) -> (Vec<i32>, EngineStats) {
        let Operand::Dense(b) = req.weights() else { panic!("dense request expected") };
        let (m, n, k) = (req.m(), req.n().unwrap(), req.k().unwrap());
        eng.gemm(m, n, k, req.activation(), b, req.dtype().unwrap())
    }

    #[test]
    fn small_exact() {
        let a = vec![1i8, 2, 3, 4, 5, 6]; // 2x3
        let b = vec![7i8, 8, 9, 10, 11, 12]; // 3x2
        let c = CampEngine::new().gemm(2, 2, 3, &a, &b, I8).0;
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
                CampEngine::new().gemm(m, n, k, &a, &b, I8).0,
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
                CampEngine::new().gemm(m, n, k, &a, &b, I4).0,
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
        let (_, s) = CampEngine::new().gemm(8, 8, 32, &a, &b, I8);
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
        let (_, s8) = CampEngine::new().gemm(8, 8, 32, &a, &b, I8);
        let (_, s4) = CampEngine::new().gemm(8, 8, 32, &a, &b, I4);
        assert_eq!(s4.camp_issues * 2, s8.camp_issues);
    }

    #[test]
    fn ragged_edges_are_zero_padded_correctly() {
        let (m, n, k) = (5, 5, 17);
        let a = fill(m * k, 11, 40, -20);
        let b = fill(k * n, 13, 40, -20);
        assert_eq!(CampEngine::new().gemm(m, n, k, &a, &b, I8).0, gemm_i32_ref(m, n, k, &a, &b));
    }

    #[test]
    #[should_panic(expected = "A must be m×k")]
    fn wrong_a_len_panics() {
        let _ = CampEngine::new().gemm(2, 2, 2, &[0; 3], &[0; 4], I8).0;
    }

    #[test]
    fn zero_dimensions_return_degenerate_results() {
        // no dimension combination may panic, serial or parallel
        assert!(CampEngine::new().gemm(0, 4, 4, &[], &[0; 16], I8).0.is_empty());
        assert!(CampEngine::new().gemm(4, 0, 4, &[0; 16], &[], I8).0.is_empty());
        assert_eq!(CampEngine::new().gemm(4, 4, 0, &[], &[], I8).0, vec![0; 16]);
        assert!(CampEngine::new().gemm(0, 0, 0, &[], &[], I8).0.is_empty());
        assert_eq!(CampEngine::with_threads(8).gemm(4, 4, 0, &[], &[], I8).0, vec![0; 16]);
        assert_eq!(CampEngine::new().gemm(4, 4, 0, &[], &[], I4).0, vec![0; 16]);
        let (_, s) = CampEngine::new().gemm(0, 4, 4, &[], &[0; 16], I8);
        assert_eq!(s, EngineStats::default());
    }

    #[test]
    fn extreme_values_wrap_like_reference() {
        let a = vec![i8::MIN; 4 * 16];
        let b = vec![i8::MIN; 16 * 4];
        assert_eq!(CampEngine::new().gemm(4, 4, 16, &a, &b, I8).0, gemm_i32_ref(4, 4, 16, &a, &b));
    }

    #[test]
    fn multi_block_shapes_match_reference() {
        // exceed MC/NC/KC so every loop level blocks at least twice
        let (m, n, k) = (2 * MC + 5, NC + 9, KC + 33);
        let a = fill(m * k, 31, 15, -8);
        let b = fill(k * n, 17, 15, -8);
        assert_eq!(CampEngine::new().gemm(m, n, k, &a, &b, I8).0, gemm_i32_ref(m, n, k, &a, &b));
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let (m, n, k) = (37, 29, 65);
        let a = fill(m * k, 13, 200, -100);
        let b = fill(k * n, 7, 200, -100);
        let serial = CampEngine::new().gemm(m, n, k, &a, &b, I8).0;
        for threads in [2, 3, 4, 16, 64] {
            assert_eq!(
                CampEngine::with_threads(threads).gemm(m, n, k, &a, &b, I8).0,
                serial,
                "threads={threads}"
            );
        }
        let a4 = fill(m * k, 13, 16, -8);
        let b4 = fill(k * n, 7, 16, -8);
        assert_eq!(
            CampEngine::with_threads(3).gemm(m, n, k, &a4, &b4, I4).0,
            CampEngine::new().gemm(m, n, k, &a4, &b4, I4).0
        );
    }

    #[test]
    fn more_threads_than_row_tiles_is_fine() {
        let (m, n, k) = (6, 4, 16);
        let a = fill(m * k, 3, 10, -5);
        let b = fill(k * n, 5, 10, -5);
        assert_eq!(
            CampEngine::with_threads(32).gemm(m, n, k, &a, &b, I8).0,
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
            CampEngine::with_threads(0).gemm(4, 4, 4, &a, &b, I8).0,
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
                eng.gemm(m, n, k, &a, &b, I8).0,
                CampEngine::new().gemm(m, n, k, &a, &b, I8).0,
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
        let first = engine.gemm(m, n, k, &a, &b, I8).0;
        let warm = engine.pack_allocations();
        assert!(warm > 0, "first call must populate the pool");
        for _ in 0..5 {
            let again = engine.gemm(m, n, k, &a, &b, I8).0;
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
        let (c, s) = CampEngine::new().gemm(4, 4, k, &a, &b, I8);
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
            CampEngine::default().gemm(4, 4, 4, &a, &b, I8).0,
            gemm_i32_ref(4, 4, 4, &a, &b)
        );
    }

    #[test]
    fn parallel_stats_preserve_totals() {
        let (m, n, k) = (32, 16, 64);
        let a = fill(m * k, 3, 10, -5);
        let b = fill(k * n, 5, 10, -5);
        let mut eng = CampEngine::with_threads(4);
        let (_, s) = eng.gemm(m, n, k, &a, &b, I8);
        assert_eq!(s.macs, (m * n * k) as u64);
        // every 4×4 tile is issued by exactly one worker, and B is
        // packed once into the shared panel — the whole stats block
        // matches the serial run, packing traffic included
        let (_, serial) = CampEngine::new().gemm(m, n, k, &a, &b, I8);
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
        let (c_serial, serial) = CampEngine::new().gemm(m, n, k, &a, &b, I8);
        let mut eng = CampEngine::with_threads(5);
        let (c_par, par) = eng.gemm(m, n, k, &a, &b, I8);
        assert_eq!(c_par, c_serial);
        assert_eq!(par, serial);
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
                let (c, s) = eng.handle_gemm(m, &a, h);
                assert_eq!(
                    c,
                    CampEngine::new().gemm(m, n, k, &a, &w, I8).0,
                    "threads={threads} m={m}"
                );
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
        assert_eq!(eng.weight_meta(h).dtype, DType::I4);
        assert_eq!(eng.handle_gemm(7, &a, h).0, CampEngine::new().gemm(7, n, k, &a, &w, I4).0);
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
        let (first, warm_stats) = eng.handle_gemm(32, &a, h);
        assert_eq!(warm_stats.packed_b_bytes, 0);
        let warm_allocs = eng.pack_allocations();
        for _ in 0..5 {
            let (c, s) = eng.handle_gemm(32, &a, h);
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
        assert_eq!(cs[0], CampEngine::new().gemm(6, n, k, &a1, &w, I8).0);
        assert_eq!(cs[1], CampEngine::new().gemm(9, n, k, &a2, &w, I8).0);
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
                    assert_eq!(c, &per_call(&mut oracle, r).0, "{dtype:?} threads={threads}");
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
            assert_eq!(
                cs[0],
                CampEngine::new().gemm(5, 7, 33, &a1, &b1, I8).0,
                "threads={threads}"
            );
            assert_eq!(
                cs[1],
                CampEngine::new().gemm(6, 9, 40, &a2, &b2, I4).0,
                "threads={threads}"
            );
            assert_eq!(
                cs[2],
                CampEngine::new().gemm(5, 7, 33, &a1, &b1, I4).0,
                "threads={threads}"
            );
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
        let mut per_call_packed = 0;
        for r in &reqs {
            per_call_packed += per_call(&mut CampEngine::new(), r).1.packed_b_bytes;
        }
        assert_eq!(per_call_packed, 3 * b_packed_once, "the per-call loop packs B per problem");

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
            assert_eq!(c, &gemm_i32_ref(r.m(), n, k, r.activation(), &w));
        }
        let (_, s) = run_batch(&mut eng, &[on(6, 3, &w), on(5, 11, &w)]);
        assert_eq!(s.packed_b_bytes, 0);
    }

    #[test]
    fn batch_row_splits_large_problems_identically() {
        // straddle BATCH_ROW_SPLIT_MACS: one problem above (row-split
        // path), one below (cross-item path); both must match per-call
        let big = (160, 160, 512); // 13.1 M MACs
        assert!((big.0 * big.1 * big.2) as u64 >= BATCH_ROW_SPLIT_MACS);
        let small = (16, 16, 64);
        let ab = fill(big.0 * big.2, 3, 16, -8);
        let bb = fill(big.2 * big.1, 5, 16, -8);
        let asml = fill(small.0 * small.2, 7, 16, -8);
        let bsml = fill(small.2 * small.1, 11, 16, -8);
        let reqs =
            [dense(big, ab.clone(), bb.clone(), I8), dense(small, asml.clone(), bsml.clone(), I8)];
        let mut eng = CampEngine::with_threads(4);
        let batch = run_batch(&mut eng, &reqs).0;
        assert_eq!(batch[0], CampEngine::new().gemm(big.0, big.1, big.2, &ab, &bb, I8).0);
        assert_eq!(batch[1], CampEngine::new().gemm(small.0, small.1, small.2, &asml, &bsml, I8).0);
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

        // the skinny kernels read the raw activation, so the prepared
        // form of a decode request carries no packed A
        let req = GemmRequest::with_weights(1, a.clone(), h).unwrap();
        let staged = CampEngine::prepare(req.clone(), &eng.weight_snapshot());
        assert!(staged.packed_a.is_none(), "nothing reads a staged A on the small-m path");
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
