//! Host-side blocked-GeMM driver: a single generic skeleton over the
//! §5.3 methods, decomposed into independent block units.
//!
//! The driver owns what is common to every method — dimension clamping
//! and padding, memory layout, operand staging, the GotoBLAS loop nest
//! (via [`crate::loops`]), macro-kernel invocation and verification —
//! and asks [`Method`] for everything kernel-specific: its
//! [`Method::geometry`], [`Method::default_kc`] and the
//! [`Method::programs`] it assembles once per problem. It contains no
//! per-method tables: adding a kernel touches only [`crate::method`].
//!
//! # Block-unit decomposition
//!
//! A simulated GeMM is decomposed into one *unit* per (jc, pc) block of
//! the blocked loops. Each unit starts from the **freshly built**
//! [`Simulator`] state (zeroed machine memory, cold caches; one
//! simulator per [`SimSession`], [`Simulator::reset`] between units): it
//! packs its B block, then walks every row strip (pack A +
//! macro-kernel) of that block, and finally folds its [`SimStats`] and
//! its partial-C contribution into the GeMM's result. Units run in order
//! on the calling thread.
//!
//! # The count memo
//!
//! A unit starts from the reset simulator, staging writes memory
//! without touching timing state, and every program branches only on
//! loop counters and addresses memory only through the [`BlockPlan`].
//! So a unit's [`SimStats`] are a function of the method, the plan and
//! the unit on the session's core, whatever the operand bytes
//! (`tests/proptests.rs` checks it for every method on both cores). A
//! [`SimSession`] therefore times each (method, plan, unit) once and
//! keeps its stats; a later unit with the same key runs its programs on
//! the functional machine alone (the packed bytes and its partial C) and
//! takes its stats from the memo.
//!
//! The decomposition defines the result. Partial C blocks merge on the
//! host in a fixed order (depth-ascending per column strip, the order
//! the serial read-modify-write would apply them), and every unit's
//! stats fold into the result with [`SimStats::merge`]: the reported
//! `cycles` are what **one core** running all units back to back takes
//! — the paper's frame of reference. See `docs/SIMULATOR.md` for the
//! full contract.
//!
//! [`SimSession::simulate`] runs the same machinery over one
//! [`GemmProblem`]'s own operands. A batch is that call once per
//! problem with the stats merged, and every problem packs its own B (as
//! the paper's kernels do on every call): no problem's counts depend on
//! what else is in its batch.

use crate::batch::GemmProblem;
use crate::host::scalar::pack_nibbles;
use crate::loops::{for_each_b_block, for_each_row_strip, BlockPlan};
use crate::method::{run_program, AccKind, ElemKind, KernelGeometry, Method, PackBCtx, Programs};
use crate::reference::{gemm_f32_ref, gemm_i32_ref, gemm_i8_wrapping_ref, SplitMix64};
use crate::weights::DType;
use crate::workspace::Workspace;
use camp_isa::reg::S;
use camp_pipeline::{CoreConfig, CoreKind, SimStats, Simulator};
use std::collections::HashMap;

/// Options for [`simulate_gemm`].
#[derive(Debug, Clone, Copy)]
pub struct GemmOptions {
    /// Workload RNG seed.
    pub seed: u64,
    /// Maximum m·n·k the simulator will run exactly; larger problems are
    /// clamped structure-preservingly (all methods identically, so
    /// normalized metrics are unaffected).
    pub mac_budget: u64,
    /// Cache-blocking override (mc, nc, kc); defaults depend on the core.
    pub blocking: Option<(usize, usize, usize)>,
    /// Verify results against the host reference.
    pub verify: bool,
}

impl Default for GemmOptions {
    fn default() -> Self {
        GemmOptions { seed: 0xC0FF_EE00, mac_budget: 48_000_000, blocking: None, verify: true }
    }
}

// ---- results --------------------------------------------------------------

/// The C matrix a simulated GeMM produced, in the accumulator type of
/// the kernel that ran ([`AccKind`]); row-major over the padded
/// `m × n` of the [`GemmResult`] that carries it.
#[derive(Debug, Clone, PartialEq)]
pub enum CMatrix {
    /// Wrapping 8-bit accumulation (the overflow-unsafe baseline).
    I8(Vec<i8>),
    /// 32-bit integer accumulation.
    I32(Vec<i32>),
    /// f32 accumulation.
    F32(Vec<f32>),
}

impl CMatrix {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            CMatrix::I8(v) => v.len(),
            CMatrix::I32(v) => v.len(),
            CMatrix::F32(v) => v.len(),
        }
    }

    /// True when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn zeros(acc: AccKind, len: usize) -> Self {
        match acc {
            AccKind::I8Wrapping => CMatrix::I8(vec![0; len]),
            AccKind::I32 => CMatrix::I32(vec![0; len]),
            AccKind::F32 => CMatrix::F32(vec![0.0; len]),
        }
    }

    /// Add a finished unit's partial C — columns `[jc, jc + ncb)` of
    /// every row, read out of simulated memory at `c_base` with row
    /// stride `ldc` — into this full `mp × np` matrix. Integer
    /// accumulation wraps (matching the kernels); f32 partials are
    /// applied in the order units finish — depth-ascending per column
    /// strip, the order the serial read-modify-write applies them.
    fn accumulate(&mut self, sim: &Simulator, c_base: u64, ldc: u64, np: usize, spec: UnitSpec) {
        let machine = sim.machine();
        let cols = spec.jc..spec.jc + spec.ncb;
        let at = |i: usize, j: usize, elem: usize| c_base + i as u64 * ldc + (j * elem) as u64;
        match self {
            CMatrix::I8(c) => {
                for (i, row) in c.chunks_exact_mut(np).enumerate() {
                    for j in cols.clone() {
                        row[j] = row[j].wrapping_add(machine.read_i8(at(i, j, 1)));
                    }
                }
            }
            CMatrix::I32(c) => {
                for (i, row) in c.chunks_exact_mut(np).enumerate() {
                    for j in cols.clone() {
                        row[j] = row[j].wrapping_add(machine.read_i32(at(i, j, 4)));
                    }
                }
            }
            CMatrix::F32(c) => {
                for (i, row) in c.chunks_exact_mut(np).enumerate() {
                    for j in cols.clone() {
                        row[j] += machine.read_f32(at(i, j, 4));
                    }
                }
            }
        }
    }
}

/// Result of one simulated GeMM.
#[derive(Debug, Clone)]
pub struct GemmResult {
    /// Pipeline/cache statistics summed over every block unit
    /// ([`SimStats::merge`]): `cycles` is one core running all blocks
    /// back to back.
    pub stats: SimStats,
    /// The computed C matrix (padded `m × n`, row-major).
    pub c: CMatrix,
    /// True if the simulated result matched the host reference (always
    /// true when verification is disabled).
    pub correct: bool,
    /// Simulated dimensions after clamping and tile padding.
    pub m: usize,
    /// Simulated n.
    pub n: usize,
    /// Simulated k.
    pub k: usize,
    /// True if the requested problem was clamped to fit the MAC budget.
    pub clamped: bool,
    /// Effective GOPS at the core's clock (2 ops per MAC over
    /// `stats.cycles`) — comparable to the paper's single-core numbers.
    pub gops: f64,
}

fn clamp_dims(
    mut m: usize,
    mut n: usize,
    mut k: usize,
    budget: u64,
) -> (usize, usize, usize, bool) {
    let mut clamped = false;
    while (m as u64) * (n as u64) * (k as u64) > budget {
        if m >= n && m >= k && m > 16 {
            m /= 2;
        } else if n >= k && n > 16 {
            n /= 2;
        } else if k > 16 {
            k /= 2;
        } else {
            break;
        }
        clamped = true;
    }
    (m, n, k, clamped)
}

struct Buffers {
    a_base: u64,
    b_base: u64,
    c_base: u64,
    apack: u64,
    bpack: u64,
    scratch: u64,
    total: u64,
}

fn layout(geo: &KernelGeometry, plan: &BlockPlan) -> Buffers {
    let mut w = Workspace::new();
    let a_base = w.alloc(geo.elem.row_bytes(plan.mp * plan.kp) as u64, 64);
    let b_base = w.alloc(geo.elem.row_bytes(plan.kp * plan.np) as u64, 64);
    let c_base = w.alloc((plan.mp * plan.np * geo.acc.c_elem_bytes()) as u64, 64);
    let apack = w.alloc((plan.mc / geo.mr * geo.a_panel_bytes(plan.kc)) as u64, 64);
    let bpack = w.alloc((plan.nc / geo.nr * geo.b_panel_bytes(plan.kc)) as u64, 64);
    let scratch = w.alloc(64, 64);
    let total = w.total() + 4096;
    Buffers { a_base, b_base, c_base, apack, bpack, scratch, total }
}

/// Stage only the A elements a (pc, kcb) unit reads — k-columns
/// `[pc, pc + kcb)` of every row — at the addresses they would occupy
/// in a fully staged operand, so programs see identical pointers.
/// Staging writes machine memory directly (it never touches the cache
/// model), so partial staging is invisible to the simulated stats;
/// it only removes redundant host-side setup work per unit.
fn stage_a_unit(
    sim: &mut Simulator,
    geo: &KernelGeometry,
    bufs: &Buffers,
    a: &[i8],
    plan: &BlockPlan,
    spec: UnitSpec,
) {
    for i in 0..plan.mp {
        let row = i * plan.kp;
        stage_range(sim, geo.elem, bufs.a_base, a, row + spec.pc, row + spec.pc + spec.kcb);
    }
}

/// Stage only the B rows a (pc, kcb) unit reads — k-rows
/// `[pc, pc + kcb)`, a contiguous row-major span.
fn stage_b_unit(
    sim: &mut Simulator,
    geo: &KernelGeometry,
    bufs: &Buffers,
    b: &[i8],
    plan: &BlockPlan,
    spec: UnitSpec,
) {
    stage_range(sim, geo.elem, bufs.b_base, b, spec.pc * plan.np, (spec.pc + spec.kcb) * plan.np);
}

/// Write elements `[start, end)` of a row-major matrix into simulated
/// memory in the kernel's storage format, at the same addresses a full
/// staging would have used. For nibble-packed data, `start` must be
/// even (block boundaries always are: pc is a k-unit multiple and np a
/// tile multiple, both even for the i4 kernels) so the range begins on
/// a byte boundary.
fn stage_range(
    sim: &mut Simulator,
    elem: ElemKind,
    base: u64,
    vals: &[i8],
    start: usize,
    end: usize,
) {
    let mm = sim.machine_mut();
    match elem {
        ElemKind::I4Nibble => {
            // 4-bit data lives nibble-packed in main memory (two values
            // per byte, row-major), as a quantized deployment stores it.
            debug_assert_eq!(start % 2, 0, "nibble staging must start on a byte boundary");
            let byte0 = (start / 2) as u64;
            for (i, &byte) in pack_nibbles(&vals[start..end]).iter().enumerate() {
                mm.write_i8(base + byte0 + i as u64, byte);
            }
        }
        ElemKind::I8 => {
            for (i, &v) in vals[start..end].iter().enumerate() {
                mm.write_i8(base + (start + i) as u64, v);
            }
        }
        ElemKind::F32 => {
            for (i, &v) in vals[start..end].iter().enumerate() {
                mm.write_f32(base + (start + i) as u64 * 4, v as f32);
            }
        }
        ElemKind::I32 => {
            for (i, &v) in vals[start..end].iter().enumerate() {
                mm.write_i32(base + (start + i) as u64 * 4, v as i32);
            }
        }
    }
}

/// The simulation backend of the shared loop skeleton: packs blocks and
/// runs macro-kernels as simulated programs against one persistent
/// machine + cache state (reset for each block unit), borrowing the
/// programs its problem assembled. Every program runs through the
/// timing model when `timed`, on the functional machine alone when not.
struct BlockSim<'s, 'p> {
    sim: &'s mut Simulator,
    geo: KernelGeometry,
    bufs: Buffers,
    lda: u64,
    ldb: u64,
    ldc: u64,
    programs: &'p Programs,
    timed: bool,
}

impl BlockSim<'_, '_> {
    /// Source bytes covering `cols` k-columns of A.
    fn a_col_bytes(&self, cols: usize) -> u64 {
        self.geo.elem.row_bytes(cols) as u64
    }

    fn set_a_row_ptrs(&mut self, ic: usize, panel: usize, pc: usize, col_off: u64) {
        let mr = self.geo.mr;
        let base_col = self.a_col_bytes(pc);
        let mm = self.sim.machine_mut();
        for r in 0..mr as u8 {
            mm.set_x(
                S(20 + r),
                self.bufs.a_base
                    + (ic + panel * mr + r as usize) as u64 * self.lda
                    + base_col
                    + col_off,
            );
        }
    }

    fn pack_b(&mut self, spec: UnitSpec) {
        let ctx = PackBCtx {
            b_base: self.bufs.b_base,
            bpack: self.bufs.bpack,
            ldb: self.ldb,
            jc: spec.jc,
            ncb: spec.ncb,
            pc: spec.pc,
            kcb: spec.kcb,
        };
        self.programs.pack_b.run(self.sim, &ctx, &self.geo, self.timed);
    }

    fn pack_a(&mut self, ic: usize, mcb: usize, pc: usize, kcb: usize) {
        let plan = &self.programs.pack_a;
        let per_kcol = self.geo.a_panel_bytes_per_kcol();
        for p in 0..mcb / self.geo.mr {
            let dst = self.bufs.apack + (p * self.geo.a_panel_bytes(kcb)) as u64;
            // vectorized bulk pass over whole chunks, as optimized BLAS
            // packs do ...
            let mut done_cols = 0usize;
            if let Some((vec_prog, cols_per_chunk)) = &plan.vector {
                let chunks = kcb / cols_per_chunk;
                if chunks > 0 {
                    self.set_a_row_ptrs(ic, p, pc, 0);
                    let mm = self.sim.machine_mut();
                    mm.set_x(S(11), dst);
                    mm.set_x(S(12), chunks as u64);
                    run_program(self.sim, vec_prog, self.timed, "pack A (vector)");
                    done_cols = chunks * cols_per_chunk;
                }
            }
            // ... then the scalar gather covers the sub-chunk tail
            let tail = kcb - done_cols;
            if tail > 0 {
                let col_off = self.a_col_bytes(done_cols);
                self.set_a_row_ptrs(ic, p, pc, col_off);
                let mm = self.sim.machine_mut();
                mm.set_x(S(11), dst + (done_cols * per_kcol) as u64);
                mm.set_x(S(12), (tail / plan.scalar_cols_per_iter) as u64);
                run_program(self.sim, &plan.scalar, self.timed, "pack A (tail)");
            }
        }
    }

    fn macro_kernel(
        &mut self,
        ic: usize,
        mcb: usize,
        jc: usize,
        ncb: usize,
        _pc: usize,
        kcb: usize,
    ) {
        let geo = &self.geo;
        let mm = self.sim.machine_mut();
        mm.set_x(S(1), self.bufs.apack);
        mm.set_x(S(2), self.bufs.bpack);
        mm.set_x(
            S(3),
            self.bufs.c_base + ic as u64 * self.ldc + (jc * geo.acc.c_elem_bytes()) as u64,
        );
        // one macro k-iteration consumes k_unit values (k-step × unroll)
        mm.set_x(S(4), (kcb / geo.k_unit) as u64);
        mm.set_x(S(5), (mcb / geo.mr) as u64);
        mm.set_x(S(6), (ncb / geo.nr) as u64);
        mm.set_x(S(7), self.ldc);
        mm.set_x(S(8), geo.b_panel_bytes(kcb) as u64);
        mm.set_x(S(9), geo.a_panel_bytes(kcb) as u64);
        mm.set_x(S(30), self.bufs.scratch);
        run_program(self.sim, &self.programs.macro_kernel, self.timed, "macro kernel");
    }
}

// ---- the block-unit decomposition -----------------------------------------

/// One independent work unit of the decomposition: a (jc, pc) block of
/// the blocked loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct UnitSpec {
    jc: usize,
    ncb: usize,
    pc: usize,
    kcb: usize,
}

/// Simulate one (jc, pc) block unit of `ctx` on `sim`, first
/// [`reset`](Simulator::reset) to the freshly built state (zeroed
/// memory sized for the problem, cold caches, zero stats): stage the
/// operands, pack B, then pack A and run the macro-kernel for every row
/// strip. Deterministic and self-contained — nothing of an earlier unit
/// survives the reset: the driver's unit of work. When `memo` holds the
/// unit's stats, every program runs on the functional machine alone and
/// the memo's stats are returned; otherwise the unit is timed and its
/// stats are inserted. Adds the unit's partial C into `c`.
fn simulate_unit(
    sim: &mut Simulator,
    memo: &mut CountMemo,
    ctx: &ProblemCtx,
    spec: UnitSpec,
    c: &mut CMatrix,
) -> SimStats {
    let plan = &ctx.plan;
    let geo = ctx.method.geometry();
    let bufs = layout(&geo, plan);
    sim.reset(bufs.total as usize);
    stage_a_unit(sim, &geo, &bufs, &ctx.a_host, plan, spec);
    stage_b_unit(sim, &geo, &bufs, &ctx.b_host, plan, spec);
    let key = (ctx.method, *plan, spec);
    let memoized = memo.get(&key).copied();
    let mut backend = BlockSim {
        sim,
        geo,
        lda: geo.elem.row_bytes(plan.kp) as u64,
        ldb: geo.elem.row_bytes(plan.np) as u64,
        ldc: (plan.np * geo.acc.c_elem_bytes()) as u64,
        programs: &ctx.programs,
        bufs,
        timed: memoized.is_none(),
    };
    backend.pack_b(spec);
    for_each_row_strip(plan, |ic, mcb| {
        backend.pack_a(ic, mcb, spec.pc, spec.kcb);
        backend.macro_kernel(ic, mcb, spec.jc, spec.ncb, spec.pc, spec.kcb);
    });
    c.accumulate(backend.sim, backend.bufs.c_base, backend.ldc, plan.np, spec);
    memoized.unwrap_or_else(|| {
        let stats = *backend.sim.stats();
        if memo.len() == SimSession::MEMO_UNITS {
            memo.clear();
        }
        memo.insert(key, stats);
        stats
    })
}

// ---- problems -------------------------------------------------------------

/// One fully planned problem: padded operands, block plan and the
/// method's programs (assembled once, borrowed by every unit).
struct ProblemCtx {
    method: Method,
    programs: Programs,
    plan: BlockPlan,
    /// Padded `mp × kp` A, row-major.
    a_host: Vec<i8>,
    /// Padded `kp × np` B, row-major.
    b_host: Vec<i8>,
    clamped: bool,
}

/// The (mc, nc, kc) `method` blocks with on `core` when
/// [`GemmOptions::blocking`] is `None`: mc/nc by core kind, kc from
/// [`Method::default_kc`].
pub fn default_blocking(core: CoreConfig, method: Method) -> (usize, usize, usize) {
    let kc = method.default_kc(core.kind);
    match core.kind {
        CoreKind::InOrder => (64, 128, kc),
        CoreKind::OutOfOrder => (128, 512, kc),
    }
}

fn block_plan_for(
    core: CoreConfig,
    method: Method,
    m: usize,
    n: usize,
    k: usize,
    opts: &GemmOptions,
) -> BlockPlan {
    let geo = method.geometry();
    let blocking = opts.blocking.unwrap_or_else(|| default_blocking(core, method));
    BlockPlan::new(m, n, k, geo.mr, geo.nr, geo.k_unit, blocking)
}

/// A zero-dimension problem: an empty plan, so no unit runs and the
/// result is empty.
fn degenerate_ctx(method: Method) -> ProblemCtx {
    let plan = BlockPlan::new(0, 0, 0, 1, 1, 1, (1, 1, 1));
    ctx_from_plan(method, plan, Vec::new(), Vec::new(), false)
}

fn ctx_from_plan(
    method: Method,
    plan: BlockPlan,
    a_host: Vec<i8>,
    b_host: Vec<i8>,
    clamped: bool,
) -> ProblemCtx {
    ProblemCtx { method, programs: method.programs(), plan, a_host, b_host, clamped }
}

/// Plan a seeded-random problem (the figure harness workload): same RNG
/// stream as every prior revision of the driver, padded into the plan.
fn rng_ctx(
    core: CoreConfig,
    method: Method,
    m: usize,
    n: usize,
    k: usize,
    opts: &GemmOptions,
) -> ProblemCtx {
    if m == 0 || n == 0 || k == 0 {
        return degenerate_ctx(method);
    }
    let (m, n, k, clamped) = clamp_dims(m, n, k, opts.mac_budget);
    let plan = block_plan_for(core, method, m, n, k, opts);
    let (mp, np, kp) = (plan.mp, plan.np, plan.kp);
    let mut rng = SplitMix64::new(opts.seed);
    let mut a_host = vec![0i8; mp * kp];
    for i in 0..m {
        for l in 0..k {
            a_host[i * kp + l] = rng.next_i8(-8, 7);
        }
    }
    let mut b_host = vec![0i8; kp * np];
    for l in 0..k {
        for j in 0..n {
            b_host[l * np + j] = rng.next_i8(-8, 7);
        }
    }
    ctx_from_plan(method, plan, a_host, b_host, clamped)
}

/// Plan one problem from its [`GemmProblem`] descriptor: the
/// problem's own operands (not RNG), the camp kernel its dtype selects,
/// clamped to the MAC budget like any simulated problem.
fn problem_ctx(core: CoreConfig, p: &GemmProblem<'_>, opts: &GemmOptions) -> ProblemCtx {
    let method = Method::for_dtype(p.dtype);
    if p.is_degenerate() {
        return degenerate_ctx(method);
    }
    assert_eq!(p.a.len(), p.m * p.k, "A must be m×k");
    assert_eq!(p.b.len(), p.k * p.n, "B must be k×n");
    if p.dtype == DType::I4 {
        debug_assert!(
            p.a.iter().chain(p.b.iter()).all(|v| (-8..8).contains(v)),
            "i4 problems need operand values in [-8, 7]"
        );
    }
    let (m2, n2, k2, clamped) = clamp_dims(p.m, p.n, p.k, opts.mac_budget);
    let plan = block_plan_for(core, method, m2, n2, k2, opts);
    let (mp, np, kp) = (plan.mp, plan.np, plan.kp);
    let mut a_host = vec![0i8; mp * kp];
    for i in 0..m2 {
        a_host[i * kp..i * kp + k2].copy_from_slice(&p.a[i * p.k..i * p.k + k2]);
    }
    let mut b_host = vec![0i8; kp * np];
    for l in 0..k2 {
        b_host[l * np..l * np + n2].copy_from_slice(&p.b[l * p.n..l * p.n + n2]);
    }
    ctx_from_plan(method, plan, a_host, b_host, clamped)
}

// ---- the count memo ---------------------------------------------------------

/// What a unit's [`SimStats`] are a function of on one core: the
/// method, the plan (every simulated address) and the unit.
type UnitKey = (Method, BlockPlan, UnitSpec);

/// The stats of every unit a session has timed, by [`UnitKey`].
type CountMemo = HashMap<UnitKey, SimStats>;

/// One [`Simulator`] and the count memo, kept from call to call: what a
/// long-lived simulated backend holds, so that every GeMM reuses one
/// simulator (reset between block units) and every (method, plan, unit)
/// is timed once, then run on the functional machine alone with its
/// stats from the memo (see the module docs). [`simulate_gemm`] is a
/// new session and one call.
///
/// The memo keys on shapes, never on bytes or handles, so nothing has
/// to be evicted from it when a weight leaves its registry. It holds at
/// most [`SimSession::MEMO_UNITS`] entries; a miss that finds it full
/// empties it first.
pub struct SimSession {
    sim: Simulator,
    memo: CountMemo,
}

impl std::fmt::Debug for SimSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSession")
            .field("core", &self.sim.config().name)
            .field("memoized_units", &self.memoized_units())
            .finish_non_exhaustive()
    }
}

impl SimSession {
    /// Units the count memo holds at most.
    pub const MEMO_UNITS: usize = 256;

    /// A session simulating `core`, its memo empty.
    pub fn new(core: CoreConfig) -> Self {
        SimSession { sim: Simulator::new(core, 0), memo: CountMemo::new() }
    }

    /// Simulate one GeMM over its **own** operands (not the seeded RNG
    /// workload of [`simulate_gemm`]) under the camp kernel its
    /// [`DType`] selects, as the host engine does for a request's. The
    /// problem packs its own B, and a unit the memo holds counts exactly
    /// what timing it would. The result is therefore the same on any
    /// session, whatever ran on it before; a batch is one call per
    /// problem, its stats their [`SimStats::merge`]. i4 problems need
    /// operand values in [-8, 7], like the host engine's i4 kernel.
    ///
    /// # Panics
    /// Panics on mis-sized operands.
    pub fn simulate(&mut self, problem: &GemmProblem<'_>, opts: &GemmOptions) -> GemmResult {
        let ctx = problem_ctx(*self.sim.config(), problem, opts);
        self.run(&ctx, opts)
    }

    /// Units whose stats the memo holds: one per (method, plan, unit)
    /// timed since the memo was last emptied.
    pub fn memoized_units(&self) -> usize {
        self.memo.len()
    }

    /// Run `ctx`'s (jc, pc) units in the blocked loops' visit order (jc
    /// outer, pc inner), folding each unit's stats and partial C into
    /// the result as it finishes — so a column strip's partial C folds
    /// depth-ascending. Verifies the result against the host reference
    /// when `opts.verify` is set.
    fn run(&mut self, ctx: &ProblemCtx, opts: &GemmOptions) -> GemmResult {
        let plan = &ctx.plan;
        let mut stats = SimStats::default();
        let mut c = CMatrix::zeros(ctx.method.geometry().acc, plan.mp * plan.np);
        for_each_b_block(plan, |jc, ncb, pc, kcb| {
            let spec = UnitSpec { jc, ncb, pc, kcb };
            stats.merge(&simulate_unit(&mut self.sim, &mut self.memo, ctx, spec, &mut c));
        });
        GemmResult {
            stats,
            correct: !opts.verify || verify_host(ctx, &c),
            c,
            m: plan.mp,
            n: plan.np,
            k: plan.kp,
            clamped: ctx.clamped,
            gops: stats.gops(self.sim.config().freq_ghz),
        }
    }
}

/// True when `c` is what the host reference computes from `ctx`'s
/// padded operands.
fn verify_host(ctx: &ProblemCtx, c: &CMatrix) -> bool {
    let (mp, np, kp) = (ctx.plan.mp, ctx.plan.np, ctx.plan.kp);
    match c {
        CMatrix::I8(c) => *c == gemm_i8_wrapping_ref(mp, np, kp, &ctx.a_host, &ctx.b_host),
        CMatrix::I32(c) => *c == gemm_i32_ref(mp, np, kp, &ctx.a_host, &ctx.b_host),
        CMatrix::F32(c) => {
            let af: Vec<f32> = ctx.a_host.iter().map(|&v| v as f32).collect();
            let bf: Vec<f32> = ctx.b_host.iter().map(|&v| v as f32).collect();
            *c == gemm_f32_ref(mp, np, kp, &af, &bf)
        }
    }
}

// ---- public entry points --------------------------------------------------

/// Simulate one blocked GeMM of `method` on `core` for an m×n×k
/// problem, one (jc, pc) block unit after another.
///
/// Returns merged statistics, the computed [`CMatrix`] and a
/// correctness verdict against the host reference. Units are
/// deterministic, self-contained simulations merged in a fixed order,
/// so the block decomposition alone defines the result. Problems
/// larger than `opts.mac_budget` MACs are clamped (identically for
/// every method). Zero-dimension problems are degenerate, not an error:
/// they return an all-zero [`GemmResult`] (no simulated work),
/// consistent with the host engine's empty result.
///
/// # Panics
/// Panics if the simulated machine faults (a bug in the kernels — every
/// kernel is covered by tests).
pub fn simulate_gemm(
    core: CoreConfig,
    method: Method,
    m: usize,
    n: usize,
    k: usize,
    opts: &GemmOptions,
) -> GemmResult {
    SimSession::new(core).run(&rng_ctx(core, method, m, n, k, opts), opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(core: CoreConfig, method: Method, m: usize, n: usize, k: usize) -> GemmResult {
        let r = simulate_gemm(core, method, m, n, k, &GemmOptions::default());
        assert!(r.correct, "{} produced wrong results at {m}x{n}x{k}", method.name());
        assert!(r.stats.cycles > 0);
        r
    }

    #[test]
    fn camp8_correct_small() {
        check(CoreConfig::a64fx(), Method::Camp8, 16, 16, 32);
    }

    #[test]
    fn camp4_correct_small() {
        check(CoreConfig::a64fx(), Method::Camp4, 16, 16, 64);
    }

    #[test]
    fn handv_int32_correct_small() {
        check(CoreConfig::a64fx(), Method::HandvInt32, 16, 32, 16);
    }

    #[test]
    fn handv_int8_correct_small() {
        check(CoreConfig::a64fx(), Method::HandvInt8, 8, 64, 16);
    }

    #[test]
    fn gemmlowp_correct_small() {
        check(CoreConfig::a64fx(), Method::Gemmlowp, 8, 32, 16);
    }

    #[test]
    fn openblas_correct_small() {
        check(CoreConfig::a64fx(), Method::OpenblasF32, 16, 32, 8);
    }

    #[test]
    fn mmla_correct_small() {
        check(CoreConfig::a64fx(), Method::Mmla, 16, 16, 16);
    }

    #[test]
    fn all_methods_correct_on_edge_core() {
        for method in Method::all() {
            let r = simulate_gemm(
                CoreConfig::edge_riscv(),
                method,
                24,
                24,
                40,
                &GemmOptions::default(),
            );
            assert!(r.correct, "{} wrong on edge core", method.name());
        }
    }

    #[test]
    fn all_dispatchers_correct_on_ragged_shapes() {
        // m, n, k deliberately not multiples of any kernel's mr/nr/k_step;
        // verification inside simulate_gemm cross-checks every dispatcher
        // against gemm_i32_ref / gemm_i8_wrapping_ref / gemm_f32_ref.
        for (m, n, k) in [(5, 7, 19), (13, 3, 41), (9, 33, 27)] {
            for method in Method::all() {
                let r =
                    simulate_gemm(CoreConfig::a64fx(), method, m, n, k, &GemmOptions::default());
                assert!(r.correct, "{} wrong at ragged {m}x{n}x{k}", method.name());
                let geo = method.geometry();
                assert_eq!(r.m % geo.mr, 0);
                assert_eq!(r.n % geo.nr, 0);
                assert_eq!(r.k % geo.k_unit, 0);
            }
        }
    }

    #[test]
    fn ragged_dims_are_padded() {
        let r = check(CoreConfig::a64fx(), Method::Camp8, 5, 7, 19);
        assert_eq!(r.m, 8);
        assert_eq!(r.n, 8);
        assert_eq!(r.k, 128); // rounded to the unrolled k-unit
    }

    #[test]
    fn camp8_beats_openblas_at_paper_scale_k() {
        // The paper's CNN/LLM layers have k in the hundreds-to-thousands;
        // the CAMP advantage comes from the k-loop, so use a deep problem.
        let opts = GemmOptions::default();
        let camp = simulate_gemm(CoreConfig::a64fx(), Method::Camp8, 128, 128, 512, &opts);
        let blas = simulate_gemm(CoreConfig::a64fx(), Method::OpenblasF32, 128, 128, 512, &opts);
        assert!(camp.correct && blas.correct);
        assert!(
            camp.stats.cycles * 2 < blas.stats.cycles,
            "CAMP ({}) should clearly beat OpenBLAS ({})",
            camp.stats.cycles,
            blas.stats.cycles
        );
    }

    #[test]
    fn camp4_uses_fewer_instructions_than_camp8() {
        let opts = GemmOptions::default();
        let c8 = simulate_gemm(CoreConfig::a64fx(), Method::Camp8, 64, 64, 512, &opts);
        let c4 = simulate_gemm(CoreConfig::a64fx(), Method::Camp4, 64, 64, 512, &opts);
        assert!(c4.correct && c8.correct);
        assert!(
            c4.stats.insts < c8.stats.insts,
            "camp4 {} insts vs camp8 {}",
            c4.stats.insts,
            c8.stats.insts
        );
        assert!(c4.stats.cycles < c8.stats.cycles);
    }

    #[test]
    fn clamping_kicks_in() {
        let opts = GemmOptions { mac_budget: 1_000_000, verify: false, ..GemmOptions::default() };
        let r = simulate_gemm(CoreConfig::a64fx(), Method::Camp8, 1024, 1024, 1024, &opts);
        assert!(r.clamped);
        assert!((r.m * r.n * r.k) as u64 <= 2_000_000);
    }

    #[test]
    fn zero_dimension_returns_empty_result() {
        // zero-dim problems are degenerate, not a panic: no simulated
        // work, verdict trivially correct (matches the host engine)
        for (m, n, k) in [(0, 16, 16), (16, 0, 16), (16, 16, 0), (0, 0, 0)] {
            for method in [Method::Camp8, Method::Camp4, Method::OpenblasF32] {
                let r =
                    simulate_gemm(CoreConfig::a64fx(), method, m, n, k, &GemmOptions::default());
                assert!(r.correct, "{} at {m}x{n}x{k}", method.name());
                assert_eq!(r.stats.cycles, 0);
                assert_eq!(r.stats.insts, 0);
                assert_eq!((r.m, r.n, r.k), (0, 0, 0));
                assert!(!r.clamped);
                assert!(r.c.is_empty());
            }
        }
    }

    #[test]
    fn pack_nibbles_handles_odd_length() {
        // even: two values per byte, low nibble first
        assert_eq!(pack_nibbles(&[1, 2, 3, 4]), vec![0x21, 0x43]);
        // odd: the trailing element must survive in the low nibble
        let packed = pack_nibbles(&[1, 2, 3]);
        assert_eq!(packed, vec![0x21, 0x03]);
        // negative values pack as their 4-bit two's complement
        let packed = pack_nibbles(&[-1, -8, 7]);
        assert_eq!(packed, vec![0x8fu8 as i8, 0x07]);
        // empty stays empty
        assert!(pack_nibbles(&[]).is_empty());
    }

    #[test]
    fn odd_length_i4_staging_preserves_last_element() {
        // an odd element count must round-trip: the final value lands in
        // the low nibble of the last byte instead of being dropped
        let vals: Vec<i8> = (0..9).map(|i| (i % 16) - 8).collect();
        let packed = pack_nibbles(&vals);
        assert_eq!(packed.len(), 5);
        let mut unpacked = Vec::new();
        for &b in &packed {
            unpacked.push(((b as u8 & 0x0f) as i8) << 4 >> 4);
            unpacked.push(((b as u8 >> 4) as i8) << 4 >> 4);
        }
        assert_eq!(&unpacked[..9], &vals[..], "odd trailing element lost");
        assert_eq!(unpacked[9], 0, "pad nibble must read as zero");
    }

    #[test]
    fn multi_block_k_accumulates_correctly() {
        // kp > kc forces partial-C merging across depth units
        let opts = GemmOptions { blocking: Some((32, 64, 32)), ..GemmOptions::default() };
        let r = simulate_gemm(CoreConfig::a64fx(), Method::Camp8, 32, 32, 96, &opts);
        assert!(r.correct);
        let r = simulate_gemm(CoreConfig::a64fx(), Method::HandvInt32, 32, 32, 96, &opts);
        assert!(r.correct);
    }

    fn fill(len: usize, seed: i32) -> Vec<i8> {
        (0..len).map(|i| ((i as i32 * seed) % 16 - 8) as i8).collect()
    }

    #[test]
    fn batch_matches_standalone_per_problem() {
        // one session runs a mixed-dtype batch in which two problems
        // share one B buffer: each problem answers exactly like a fresh
        // session's solo run of it, its own B pack included
        let (m1, n1, k1) = (9, 11, 40);
        let (m2, n2, k2) = (5, 7, 19);
        let a1 = fill(m1 * k1, 3);
        let b1 = fill(k1 * n1, 5);
        let a2 = fill(m2 * k2, 7);
        let b2 = fill(k2 * n2, 11);
        let a3 = fill(m1 * k1, 9);
        let problems = [
            GemmProblem::new(m1, n1, k1, &a1, &b1),
            GemmProblem::new(m2, n2, k2, &a2, &b2).with_dtype(DType::I4),
            GemmProblem::new(m1, n1, k1, &a3, &b1),
        ];
        let (core, opts) = (CoreConfig::a64fx(), GemmOptions::default());
        let mut session = SimSession::new(core);
        for p in &problems {
            let r = session.simulate(p, &opts);
            assert!(r.correct, "batch problem {}x{}x{} wrong", p.m, p.n, p.k);
            let solo = SimSession::new(core).simulate(p, &opts);
            assert_eq!(solo.c, r.c);
            assert_eq!(solo.stats, r.stats);
        }
    }

    #[test]
    fn batch_accepts_degenerate_problems() {
        let a = fill(8, 3);
        let b = fill(8, 5);
        let opts = GemmOptions::default();
        let mut session = SimSession::new(CoreConfig::a64fx());
        let empty = session.simulate(&GemmProblem::new(0, 4, 2, &[], &b), &opts);
        assert!(empty.c.is_empty());
        assert_eq!(empty.stats.cycles, 0);
        assert!(session.simulate(&GemmProblem::new(2, 4, 2, &a[..4], &b), &opts).correct);
    }

    #[test]
    fn a_memo_hit_computes_its_own_c_with_the_timed_counts() {
        // two operand sets of one multi-unit shape on one session: the
        // second hits every unit the first timed, yet computes its own C
        // and counts what a fresh session times
        let (m, n, k) = (13, 70, 260);
        let opts = GemmOptions { blocking: Some((32, 64, 32)), ..GemmOptions::default() };
        let (a1, b1) = (fill(m * k, 3), fill(k * n, 5));
        let (a2, b2) = (fill(m * k, 7), fill(k * n, 11));
        let core = CoreConfig::edge_riscv();
        for dtype in [DType::I8, DType::I4] {
            let problem = |a, b| GemmProblem::new(m, n, k, a, b).with_dtype(dtype);
            let mut session = SimSession::new(core);
            assert!(session.simulate(&problem(&a1, &b1), &opts).correct, "{dtype:?}");
            let units = session.memoized_units();
            assert!(units > 1, "{dtype:?}: {units} units");
            let warm = session.simulate(&problem(&a2, &b2), &opts);
            assert_eq!(session.memoized_units(), units, "{dtype:?}: every unit hits");
            let cold = SimSession::new(core).simulate(&problem(&a2, &b2), &opts);
            assert!(warm.correct, "{dtype:?}");
            assert_eq!((&warm.c, warm.stats), (&cold.c, cold.stats), "{dtype:?}");
        }
    }
}
