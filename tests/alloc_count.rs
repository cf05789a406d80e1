//! Allocation as a counted row: what one served token asks of the heap,
//! on the host engine and on the simulator, and what one simulated
//! program run asks of it.
//!
//! A counting `#[global_allocator]` (this binary only) measures heap
//! calls and bytes per steady-state decode token and per 192-token
//! prefill of the benchmark-sized model on `BackendExec` over
//! `CampEngine::with_threads(1)` — one thread, so every allocation of
//! the step is made by the measuring thread and the counts repeat
//! exactly — and on `DispatchExec` over one session of a dispatcher of
//! that engine (every batch runs on its caller, the measuring thread
//! too), heap calls per warm decode step of the `sim_token` model on
//! `SimBackend`, and per warm `Simulator::run` of a CAMP B-pack loop,
//! which must make none (the simulator keeps its decoded program and
//! timing queues between runs).
//!
//! The numbers are pinned as exact literals, identical in debug and
//! release and under every `CAMP_FORCE_TIER` (no allocation depends on
//! the kernel tier). A change that adds or removes a heap call on any of
//! these paths re-pins the literals it moves and names each one, with
//! its old and new value and why, in CHANGES.md, which holds every pin's
//! history. The `PARENT_*` constants are the pins before the last
//! re-pin: no pin may rise above them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use camp::core::dispatch::{Dispatcher, Priority};
use camp::core::{CampEngine, SimBackend};
use camp::infer::{BackendExec, DispatchExec, GemmExec, InferContext, Model};
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

/// Whether no field of `now` rose above `parent`'s: calls, bytes and
/// peak (`live` is pinned exactly).
fn no_higher(now: Tally, parent: Tally) -> bool {
    now.allocs <= parent.allocs && now.bytes <= parent.bytes && now.peak <= parent.peak
}

/// Heap traffic of [`DECODE_TOKENS`] steady-state decode tokens on
/// `exec`, after a 32-token prompt and four warm-up tokens.
fn decode_tally(model: &Model, exec: &mut dyn GemmExec) -> Tally {
    let mut ctx = InferContext::for_model(model);
    ctx.prefill_with(model, exec, &prompt(32, VOCAB)).expect("prefill");
    for _ in 0..4 {
        ctx.decode_with(model, exec).expect("warm-up decode");
    }
    measure(|| {
        for _ in 0..DECODE_TOKENS {
            ctx.decode_with(model, exec).expect("decode");
        }
    })
}

/// Heap traffic of a fresh context's 192-token prefill on `exec`. The
/// engine's arenas are warm from an earlier prompt; the KV cache grows
/// inside the window, as it does for every served request.
fn prefill_tally(model: &Model, exec: &mut dyn GemmExec) -> Tally {
    let doc = prompt(192, VOCAB);
    let mut ctx = InferContext::for_model(model);
    measure(|| {
        ctx.prefill_with(model, exec, &doc).expect("prefill");
    })
}

// The counters are per thread, so the tests cannot see each other's
// allocations.
#[test]
fn heap_calls_per_decode_token_and_per_prefill_are_pinned() {
    let model = Model::new(CFG, VOCAB, 7);
    let mut engine = CampEngine::with_threads(1);
    let handles = model.register(&mut engine);
    let mut exec = BackendExec::new(&mut engine, &handles);
    let decode = decode_tally(&model, &mut exec);
    let prefill = prefill_tally(&model, &mut exec);

    let per_token = 311;
    let want = Tally { allocs: per_token * DECODE_TOKENS, bytes: 2_821_632, live: 0, peak: 17_616 };
    assert_eq!(
        decode, want,
        "a steady-state decode token costs a constant number of heap calls and keeps nothing"
    );
    // what stays live is the K/V the prompt left in its cache
    assert_eq!(prefill, Tally { allocs: 362, bytes: 14_264_000, live: 698_368, peak: 1_927_200 });
    assert!(no_higher(want, PARENT_DECODE) && no_higher(prefill, PARENT_PREFILL));
}

/// `BackendExec`'s pins before each work unit packed the dense B it
/// reads (a batch packed each distinct dense B into a shared arena,
/// through a pointer-keyed map).
const PARENT_DECODE: Tally =
    Tally { allocs: 311 * DECODE_TOKENS, bytes: 2_843_520, live: 0, peak: 17_712 };
const PARENT_PREFILL: Tally =
    Tally { allocs: 381, bytes: 14_306_424, live: 729_088, peak: 1_957_920 };

/// The same tokens on `chat_decode`'s served path: `DispatchExec` over
/// the one session of a dispatcher, so every batch finds the turn free
/// and runs on this thread (validation, admission, the turn and the
/// engine's batch). Fewer calls than on `BackendExec`: a session hands
/// the engine the batch it owns, where `execute_batch` copies the
/// borrowed requests per batch.
#[test]
fn heap_calls_on_the_dispatchers_uncontended_turn_are_pinned() {
    let model = Model::new(CFG, VOCAB, 7);
    let mut engine = CampEngine::with_threads(1);
    let handles = model.register(&mut engine);
    let dispatcher = Dispatcher::new(engine);
    let mut session = dispatcher.session();
    let decode =
        decode_tally(&model, &mut DispatchExec::new(&mut session, &handles, Priority::Decode));
    let prefill =
        prefill_tally(&model, &mut DispatchExec::new(&mut session, &handles, Priority::Prefill));
    let stats = dispatcher.stats();
    assert!(stats.executed > 0);
    assert_eq!(stats.waited, 0, "a lone tenant never waits for the turn");
    let per_token = 286;
    let want = Tally { allocs: per_token * DECODE_TOKENS, bytes: 2_734_080, live: 0, peak: 17_232 };
    assert_eq!(
        decode, want,
        "a steady-state decode token costs a constant number of heap calls and keeps nothing"
    );
    assert_eq!(prefill, Tally { allocs: 337, bytes: 14_258_528, live: 698_368, peak: 1_927_200 });
    assert!(no_higher(want, PARENT_DISPATCH_DECODE) && no_higher(prefill, PARENT_DISPATCH_PREFILL));
}

/// `DispatchExec`'s pins before each work unit packed the dense B it
/// reads (as for [`PARENT_DECODE`]).
const PARENT_DISPATCH_DECODE: Tally =
    Tally { allocs: 286 * DECODE_TOKENS, bytes: 2_755_968, live: 0, peak: 17_328 };
const PARENT_DISPATCH_PREFILL: Tally =
    Tally { allocs: 356, bytes: 14_300_952, live: 729_088, peak: 1_957_920 };

/// `benchmark/`'s `sim_token` model (`benchmark/src/workload.rs`).
const SIM_CFG: TransformerConfig =
    TransformerConfig { hidden: 128, ff_dim: 256, heads: 4, layers: 2, seq_len: 64 };
const SIM_VOCAB: usize = 64;

/// Heap calls of one warm decode step of [`SIM_CFG`] on `SimBackend`:
/// the requests' inputs and outputs (the session keeps its programs and
/// padded operands), and the pin before batches validated against the
/// registry in place (`execute_batch` and `execute_prepared` each copied
/// a registry snapshot per batch).
const SIM_ALLOCS_PER_DECODE_STEP: usize = 164;
const PARENT_SIM_ALLOCS_PER_DECODE_STEP: usize = 190;

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
    const { assert!(SIM_ALLOCS_PER_DECODE_STEP <= PARENT_SIM_ALLOCS_PER_DECODE_STEP) };
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
