//! Allocation as a counted row: what one served token asks of the heap,
//! on the host engine and on the simulator, and what one simulated
//! program run asks of it.
//!
//! A counting `#[global_allocator]` (this binary only) measures heap
//! calls and bytes per steady-state decode token and per 192-token
//! prefill of the benchmark-sized model on `BackendExec` over
//! `CampEngine::with_threads(1)` — one thread, so every allocation of
//! the step is made by the measuring thread and the counts repeat
//! exactly —, heap calls per warm decode step of the `sim_token` model
//! on `SimBackend` (1933 when every batch built its own simulator, 1621
//! once the backend kept one, 1397 since each request is one
//! `SimSession::simulate` call that folds every block unit's partial C
//! straight into its result: no per-unit C buffer, no per-batch side
//! vectors, no zero-filled placeholder output per request, and 237
//! since a `SimSession` assembles each method's programs once: each of
//! the step's 29 GeMMs used to assemble its method's four programs
//! again, 40 heap calls a GeMM), and per warm `Simulator::run` of a
//! CAMP B-pack loop, which must make none (the simulator keeps its
//! decoded program and timing queues between runs). The numbers are
//! pinned as literals: a change that adds an allocation to any of these
//! paths edits this file and says so.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use camp::core::{CampEngine, SimBackend};
use camp::infer::{BackendExec, InferContext, Model};
use camp::isa::asm::Assembler;
use camp::isa::reg::S;
use camp::models::TransformerConfig;
use camp::pipeline::{CoreConfig, Simulator};

/// Heap traffic of the measuring thread since [`measure`] began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tally {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    allocs: usize,
    /// Bytes those calls asked for.
    bytes: usize,
    /// Bytes allocated minus bytes freed (negative when the window
    /// frees what was allocated before it).
    live: isize,
    /// High-water mark of `live`.
    peak: isize,
}

const ZERO: Tally = Tally { allocs: 0, bytes: 0, live: 0, peak: 0 };

thread_local! {
    // const-initialised and `Drop`-free: touching them never allocates
    // and never registers a TLS destructor, so the allocator itself may
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static TALLY: Cell<Tally> = const { Cell::new(ZERO) };
}

fn record(grown: usize, freed: usize, calls: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            TALLY.with(|t| {
                let mut v = t.get();
                v.allocs += calls;
                v.bytes += grown;
                v.live += grown as isize - freed as isize;
                v.peak = v.peak.max(v.live);
                t.set(v);
            });
        }
    });
}

struct Counting;

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// `Drop`-free thread-locals and can neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: (each method below) the caller owes this allocator what
    // `GlobalAlloc` says it owes `System`: a valid `layout`, and for
    // `realloc`/`dealloc` a live block of that layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0, 1);
        // SAFETY: see the impl.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0, 1);
        // SAFETY: see the impl.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: as `alloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, layout.size(), 1);
        // SAFETY: see the impl.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: as `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, layout.size(), 0);
        // SAFETY: see the impl.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The heap traffic `f` causes on this thread.
fn measure(f: impl FnOnce()) -> Tally {
    TALLY.with(|t| t.set(ZERO));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    TALLY.with(Cell::get)
}

/// The benchmark's host model (`benchmark/src/workload.rs`).
const CFG: TransformerConfig =
    TransformerConfig { hidden: 256, ff_dim: 1024, heads: 4, layers: 4, seq_len: 256 };
const VOCAB: usize = 256;

fn prompt(len: usize, vocab: usize) -> Vec<u32> {
    (0..len as u32).map(|i| (i * 37 + 11) % vocab as u32).collect()
}

/// Decode tokens in the measured window: positions 36..52 of a
/// 32-token prompt, clear of every K block seam (64) and V growth
/// (row 33, row 65), so each token costs the same number of calls.
const DECODE_TOKENS: usize = 16;

/// What the commit before PR 24 (a fresh `Vec` per requant sweep)
/// measured with this file: 372 calls and 207 608 bytes per decode
/// token; 665 calls, 16 980 792 bytes and this peak per prefill. The
/// destination-passing glue has to stay under both bars.
const PARENT_ALLOCS_PER_DECODE_TOKEN: usize = 372;
const PARENT_PREFILL_PEAK_BYTES: isize = 3_680_344;

// The counters are per thread, so the two tests cannot see each other's
// allocations.
#[test]
fn heap_calls_per_decode_token_and_per_prefill_are_pinned() {
    let model = Model::new(CFG, VOCAB, 7);
    let mut engine = CampEngine::with_threads(1);
    let handles = model.register(&mut engine);
    let mut exec = BackendExec::new(&mut engine, &handles);

    let mut ctx = InferContext::for_model(&model);
    ctx.prefill_with(&model, &mut exec, &prompt(32, VOCAB)).expect("prefill");
    for _ in 0..4 {
        ctx.decode_with(&model, &mut exec).expect("warm-up decode");
    }
    let decode = measure(|| {
        for _ in 0..DECODE_TOKENS {
            ctx.decode_with(&model, &mut exec).expect("decode");
        }
    });

    // the engine's arenas are warm from the first prompt; the KV cache
    // of the fresh context grows inside the window, as it does for
    // every served request
    let doc = prompt(192, VOCAB);
    let mut ctx = InferContext::for_model(&model);
    let prefill = measure(|| {
        ctx.prefill_with(&model, &mut exec, &doc).expect("prefill");
    });

    // identical in debug and release and under every CAMP_FORCE_TIER:
    // the engine's allocations do not depend on the kernel tier. PR 26
    // took one call and `hidden` bytes off per token of a step, and
    // nothing else: the embedding is written straight into the hidden
    // state instead of through a fresh `Vec` per token (341 → 340 per
    // decode token, 634 → 442 per 192-token prefill). `Output` lost its
    // `clamped` flag and shrank from 48 to 40 bytes, so `BackendExec`'s
    // `outputs.into_iter().map(|o| o.c).collect()` no longer reuses the
    // buffer for the 24-byte `Vec<i32>`s as it is but shrinks it with a
    // `realloc` (40 n bytes hold a whole number of `Vec`s only when n is
    // a multiple of three), while the engine computes into its `Output`s directly
    // instead of collecting them from a `Vec<Vec<i32>>`, one call fewer
    // per batch: 340 → 336 per decode token, 442 → 438 per prefill.
    // Since `prepare` packs nothing, a prefill's attention score and
    // context GeMMs (below the row-split threshold) pack A into the
    // engine's warm arena instead of a staged `Vec` each, 4 layers × 4
    // heads × 2 = 32 calls and 786 432 bytes fewer (438 → 406 per
    // prefill), and the staged request lost its image fields, 3 648
    // bytes fewer per step across its batches' staged lists (decode
    // 3 178 112 → 3 119 744 bytes, peak 18 576 → 18 320); calls per
    // decode token and the prefill's peak are unchanged.
    let per_token = 336;
    assert_eq!(
        decode,
        Tally { allocs: per_token * DECODE_TOKENS, bytes: 3_119_744, live: 0, peak: 18_320 },
        "a steady-state decode token costs a constant number of heap calls and keeps nothing"
    );
    // what stays live is the K/V the prompt left in its cache
    assert_eq!(prefill, Tally { allocs: 406, bytes: 14_323_688, live: 729_088, peak: 1_957_920 });
    assert!(per_token < PARENT_ALLOCS_PER_DECODE_TOKEN);
    assert!(prefill.peak < PARENT_PREFILL_PEAK_BYTES);
}

/// `benchmark/`'s `sim_token` model (`benchmark/src/workload.rs`).
const SIM_CFG: TransformerConfig =
    TransformerConfig { hidden: 128, ff_dim: 256, heads: 4, layers: 2, seq_len: 64 };
const SIM_VOCAB: usize = 64;

/// Heap calls of one warm decode step of [`SIM_CFG`] on `SimBackend`:
/// now (the requests' inputs and outputs; no program assembly and no
/// padded operands, which the session keeps), and at the commit before
/// the backend kept one simulator, which built one
/// (caches, prefetchers, machine, queues) for each of the step's 13
/// batches. 179 before `Output` lost its `clamped` flag: since then
/// `BackendExec` shrinks the 40-byte `Output` buffer into its 24-byte
/// `Vec<i32>`s with a `realloc` (in place at 48 bytes), one call per
/// batch but for those of three requests.
const SIM_ALLOCS_PER_DECODE_STEP: usize = 190;
const PARENT_SIM_ALLOCS_PER_DECODE_STEP: usize = 1933;

#[test]
fn a_warm_simulated_decode_step_is_pinned() {
    let model = Model::new(SIM_CFG, SIM_VOCAB, 7);
    let mut sim = SimBackend::a64fx();
    let handles = model.register(&mut sim);
    let mut exec = BackendExec::new(&mut sim, &handles);
    let mut ctx = InferContext::for_model(&model);
    ctx.prefill_with(&model, &mut exec, &prompt(8, SIM_VOCAB)).expect("prefill");
    // the first decode step timed the m = 1 units; these take their
    // counts from the memo
    for _ in 0..3 {
        ctx.decode_with(&model, &mut exec).expect("warm-up decode");
    }
    let mut step = || {
        measure(|| {
            ctx.decode_with(&model, &mut exec).expect("decode");
        })
    };
    // the attention operands grow by a row per step, so the bytes move
    // from step to step; the calls do not, and nothing stays live
    let calls = [step(), step()].map(|t| (t.allocs, t.live));
    assert_eq!(calls, [(SIM_ALLOCS_PER_DECODE_STEP, 0); 2]);
    const { assert!(SIM_ALLOCS_PER_DECODE_STEP < PARENT_SIM_ALLOCS_PER_DECODE_STEP) };
}

#[test]
fn a_warm_simulator_run_makes_no_heap_calls() {
    // the CAMP B-pack inner loop: four k-rows of 4 bytes per iteration
    // through four source row pointers, scalar loads and stores only
    let mut a = Assembler::new("camp_pack_b");
    a.label("top");
    for r in 0..4u8 {
        a.load_s(S(28), S(20 + r), 0, 4);
        a.store_s(S(28), S(11), r as i64 * 4, 4);
    }
    for r in 0..4u8 {
        a.add(S(20 + r), S(20 + r), S(14));
    }
    a.addi(S(11), S(11), 16);
    a.addi(S(12), S(12), -1);
    a.bne(S(12), S(0), "top");
    let prog = a.finish();

    let (ldb, rows) = (256u64, 64u64);
    let mut sim = Simulator::new(CoreConfig::a64fx(), 1 << 16);
    let run = |sim: &mut Simulator| {
        let mm = sim.machine_mut();
        for r in 0..4u8 {
            mm.set_x(S(20 + r), r as u64 * ldb);
        }
        mm.set_x(S(11), rows * ldb);
        mm.set_x(S(12), rows / 4);
        mm.set_x(S(14), 4 * ldb);
        sim.run(&prog, 1 << 20).expect("pack loop");
    };
    run(&mut sim);
    let warm = measure(|| {
        for _ in 0..100 {
            run(&mut sim);
        }
    });
    assert_eq!(warm, ZERO, "a warm Simulator::run allocates");
    assert_eq!(sim.stats().insts, 101 * (rows / 4) * 15);
}
