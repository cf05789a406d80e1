//! Allocation as a counted row: what one served token asks of the heap.
//!
//! A counting `#[global_allocator]` (this binary only) measures heap
//! calls and bytes per steady-state decode token and per 192-token
//! prefill of the benchmark-sized model on `BackendExec` over
//! `CampEngine::with_threads(1)` — one thread, so every allocation of
//! the step is made by the measuring thread and the counts repeat
//! exactly. The numbers are pinned as literals: a change that adds an
//! allocation to the served path edits this file and says so.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use camp::core::CampEngine;
use camp::infer::{BackendExec, InferContext, Model};
use camp::models::TransformerConfig;

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

fn prompt(len: usize) -> Vec<u32> {
    (0..len as u32).map(|i| (i * 37 + 11) % VOCAB as u32).collect()
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

// One test, so no sibling test thread shares the engine or the clock;
// the counters are per thread regardless.
#[test]
fn heap_calls_per_decode_token_and_per_prefill_are_pinned() {
    let model = Model::new(CFG, VOCAB, 7);
    let mut engine = CampEngine::with_threads(1);
    let handles = model.register(&mut engine);
    let mut exec = BackendExec::new(&mut engine, &handles);

    let mut ctx = InferContext::for_model(&model);
    ctx.prefill_with(&model, &mut exec, &prompt(32)).expect("prefill");
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
    let doc = prompt(192);
    let mut ctx = InferContext::for_model(&model);
    let prefill = measure(|| {
        ctx.prefill_with(&model, &mut exec, &doc).expect("prefill");
    });

    // identical in debug and release and under every CAMP_FORCE_TIER:
    // the engine's allocations do not depend on the kernel tier. PR 26
    // took one call and `hidden` bytes off per token of a step, and
    // nothing else: the embedding is written straight into the hidden
    // state instead of through a fresh `Vec` per token (341 → 340 per
    // decode token, 634 → 442 per 192-token prefill).
    let per_token = 340;
    assert_eq!(
        decode,
        Tally { allocs: per_token * DECODE_TOKENS, bytes: 3_161_984, live: 0, peak: 18_416 },
        "a steady-state decode token costs a constant number of heap calls and keeps nothing"
    );
    // what stays live is the K/V the prompt left in its cache
    assert_eq!(prefill, Tally { allocs: 442, bytes: 15_112_760, live: 729_088, peak: 1_957_920 });
    assert!(per_token < PARENT_ALLOCS_PER_DECODE_TOKEN);
    assert!(prefill.peak < PARENT_PREFILL_PEAK_BYTES);
}
