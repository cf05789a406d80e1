//! Cross-crate tests of the simulated driver: exact counts, not a
//! tolerance. The simulator is deterministic and its (jc, pc) block
//! units run in order, each from a freshly reset `Simulator`, merged in a
//! fixed order — so the decomposition defines every count pinned here,
//! for every §5.3 method on both cores, on ragged shapes, for a batch
//! whose problems share B buffers yet each count as if run alone (see
//! `docs/SIMULATOR.md`), for the CAMP-vs-OpenBLAS speed-up the
//! paper headlines, and for one request served on `SimBackend`, whose
//! repeated unit shapes (the count memo) must count exactly like timed
//! ones.

use camp::core::{CampBackend, GemmRequest, SimBackend};
use camp::gemm::{simulate_gemm, GemmOptions, Method, SimSession};
use camp::infer::{
    BOperand, GemmExec, InferContext, InferError, InferGemm, Model, ModelHandles, RefExec,
};
use camp::models::{LlmModel, TransformerConfig};
use camp::pipeline::{CoreConfig, SimStats};

/// Blocking that splits modest problems into several column strips and
/// several depth blocks for every kernel geometry.
fn multi_unit_opts() -> GemmOptions {
    GemmOptions { blocking: Some((16, 32, 128)), ..GemmOptions::default() }
}

/// `[cycles, insts, macs, stall_fu, stall_read, stall_write, l1d demand
/// misses]`: the columns every pinned table holds.
fn counts(s: &SimStats) -> [u64; 7] {
    [s.cycles, s.insts, s.macs, s.stall_fu, s.stall_read, s.stall_write, s.l1d.misses]
}

/// [`counts`] of 20×70×260 under [`multi_unit_opts`], one row per
/// [`Method::all`] entry. A row moves only when the model of the core,
/// the caches or that method's kernel changes — say so in the PR.
type Pinned = [[u64; 7]; 7];

const PINNED_A64FX: Pinned = [
    [27627, 57708, 553608, 141728, 76083, 56415, 355], // CAMP-8bit
    [26646, 54333, 553608, 201023, 75920, 56463, 250], // CAMP-4bit
    [37115, 88738, 416180, 919196, 203399, 36, 428],   // handv-int32
    [16172, 34452, 665672, 365810, 79808, 0, 192],     // handv-int8
    [67101, 112833, 499308, 632053, 144226, 2001123, 711], // gemmlowp
    [34212, 87078, 599112, 1360255, 110111, 47031, 591], // OpenBLAS
    [50091, 88713, 456408, 208716, 196954, 1374900, 768], // MMLA
];

const PINNED_EDGE_RISCV: Pinned = [
    [258426, 57708, 553608, 6390, 211008, 990, 2697], // CAMP-8bit
    [176571, 54333, 553608, 8550, 129888, 270, 1557], // CAMP-4bit
    [457269, 88738, 416180, 9405, 391264, 2640, 5602], // handv-int32
    [156058, 34452, 665672, 2250, 132640, 440, 1562], // handv-int8
    [318837, 112833, 499308, 86535, 169710, 660, 2133], // gemmlowp
    [525891, 87078, 599112, 62837, 415980, 3888, 6842], // OpenBLAS
    [277209, 88713, 456408, 28809, 197088, 0, 2280],  // MMLA
];

#[test]
fn every_method_on_both_cores_matches_its_pinned_counts() {
    // ragged on purpose: no dimension is a multiple of any kernel's
    // mr/nr/k-step, so padding and edge blocks are all exercised
    let (m, n, k) = (20, 70, 260);
    for (core, pinned) in
        [(CoreConfig::a64fx(), PINNED_A64FX), (CoreConfig::edge_riscv(), PINNED_EDGE_RISCV)]
    {
        for (method, pin) in Method::all().into_iter().zip(pinned) {
            let r = simulate_gemm(core, method, m, n, k, &multi_unit_opts());
            assert!(r.correct, "{} wrong", method.name());
            assert_eq!(
                counts(&r.stats),
                pin,
                "{} on {}: pinned counts moved",
                method.name(),
                core.name
            );
        }
    }
}

#[test]
fn a_second_ragged_shape_is_correct_for_both_reference_extremes() {
    // integer camp and the f32 baseline, whose C merge uses
    // floating-point accumulation
    for method in [Method::Camp8, Method::OpenblasF32] {
        let r = simulate_gemm(CoreConfig::a64fx(), method, 13, 37, 141, &multi_unit_opts());
        assert!(r.correct, "{}", method.name());
    }
}

fn fill(len: usize, seed: i32) -> Vec<i8> {
    (0..len).map(|i| ((i as i32 * seed) % 16 - 8) as i8).collect()
}

/// [`counts`] of the [`check_batch`] batch total, then of each of its
/// four problems, under `GemmOptions::default()` at n×k = 12×48 (one
/// unit per problem) and under [`multi_unit_opts`] at 70×260 (several
/// units). Problems 0–2 differ in A (and #1 in B) but count alike.
const PINNED_BATCH_ONE_UNIT: [[u64; 7]; 5] = [
    [4432, 8706, 49212, 34383, 6978, 22360, 33],
    [1109, 2196, 12303, 7663, 1771, 5590, 9],
    [1109, 2196, 12303, 7663, 1771, 5590, 9],
    [1109, 2196, 12303, 7663, 1771, 5590, 9], // packs the B #0 packed too
    [1105, 2118, 12303, 11394, 1665, 5590, 6],
];

const PINNED_BATCH_MULTI_UNIT: [[u64; 7]; 5] = [
    [72018, 153414, 885816, 404866, 185032, 225708, 799],
    [18002, 38691, 221454, 90375, 45706, 56415, 208],
    [18002, 38691, 221454, 90375, 45706, 56415, 208],
    [18002, 38691, 221454, 90375, 45706, 56415, 208],
    [18012, 37341, 221454, 133741, 47914, 56463, 175],
];

/// Attention-style inventory of 6-row problems against n×k weights,
/// simulated in order on one session: three sharing one weight buffer
/// (#0, #2 and, under the i4 kernel, #3) and #1 on another. Every
/// problem packs its own B, so each counts exactly what a fresh
/// session's solo run of it counts, and the batch total is their merge.
fn check_batch(n: usize, k: usize, opts: &GemmOptions, pinned: &[[u64; 7]; 5]) {
    let w_shared = fill(k * n, 5);
    let w_other = fill(k * n, 9);
    let acts: Vec<Vec<i8>> = (0..4).map(|i| fill(6 * k, 3 + 2 * i)).collect();
    let problems = [
        (Method::Camp8, &acts[0], &w_shared),
        (Method::Camp8, &acts[1], &w_other),
        (Method::Camp8, &acts[2], &w_shared),
        (Method::Camp4, &acts[3], &w_shared),
    ];
    let core = CoreConfig::a64fx();
    let mut session = SimSession::new(core);
    let mut total = SimStats::default();
    for (i, (method, a, b)) in problems.into_iter().enumerate() {
        let r = session.simulate(method, (6, n, k), a, b, opts);
        assert!(r.correct, "problem {i} wrong");
        assert_eq!(counts(&r.stats), pinned[i + 1], "problem {i} moved");
        let solo = SimSession::new(core).simulate(method, (6, n, k), a, b, opts);
        assert_eq!((&r.c, r.stats), (&solo.c, solo.stats), "problem {i} vs solo");
        // the i4/i8 problems really ran under different kernels
        assert_eq!(r.stats.camp_issues_i8 > 0, method == Method::Camp8, "problem {i}");
        assert_eq!(r.stats.camp_issues_i4 > 0, method == Method::Camp4, "problem {i}");
        total.merge(&r.stats);
    }
    assert_eq!(counts(&total), pinned[0], "batch total moved");
}

#[test]
fn a_batch_counts_as_its_problems_run_alone() {
    check_batch(12, 48, &GemmOptions::default(), &PINNED_BATCH_ONE_UNIT);
    check_batch(70, 260, &multi_unit_opts(), &PINNED_BATCH_MULTI_UNIT);
}

/// Cycles of the OpenBLAS-f32-like baseline, `Camp8` and `Camp4` on
/// BERT-base's feed-forward GeMM, clamped to 8 M MACs on the A64FX-like
/// core under the default seed: exactly the inputs of `benchmark/`'s
/// `sim.camp8_speedup_x` / `sim.camp4_speedup_x`, the paper's headline
/// ratio as this model reproduces it.
const PINNED_SPEEDUP_CYCLES: [u64; 3] = [173414, 82817, 73376];

#[test]
fn the_headline_speedups_match_their_pinned_cycles() {
    let shape = LlmModel::BertBase.config().ff_shape();
    let opts = GemmOptions { mac_budget: 8_000_000, verify: false, ..GemmOptions::default() };
    let cycles = [Method::OpenblasF32, Method::Camp8, Method::Camp4].map(|method| {
        simulate_gemm(CoreConfig::a64fx(), method, shape.m, shape.n, shape.k, &opts).stats.cycles
    });
    assert_eq!(cycles, PINNED_SPEEDUP_CYCLES, "[OpenBLAS, CAMP-8bit, CAMP-4bit] cycles moved");
    let speedup = |i: usize| format!("{:.2}", cycles[0] as f64 / cycles[i] as f64);
    assert_eq!([speedup(1), speedup(2)], ["2.09", "2.36"], "CAMP-8bit / CAMP-4bit speed-up");
}

/// `benchmark/`'s `sim_token` model and request shape: prompt 32, then
/// 15 decode steps.
const SIM_MODEL: TransformerConfig =
    TransformerConfig { hidden: 128, ff_dim: 256, heads: 4, layers: 2, seq_len: 64 };
const SIM_VOCAB: usize = 64;
const DECODE_STEPS: usize = 15;

/// Runs inference batches on a [`SimBackend`], summing their stats.
struct Tally<'a> {
    backend: &'a mut SimBackend,
    handles: &'a ModelHandles,
    stats: SimStats,
}

impl GemmExec for Tally<'_> {
    fn run(&mut self, batch: Vec<InferGemm>) -> Result<Vec<Vec<i32>>, InferError> {
        let reqs = batch
            .iter()
            .map(|g| match &g.b {
                BOperand::Weight(id) => {
                    GemmRequest::with_weights(g.m, g.a.clone(), self.handles.get(*id))
                }
                BOperand::Dense(b) => GemmRequest::dense(g.m, g.n, g.k, g.a.clone(), b.clone()),
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(InferError::Request)?;
        let outcome = self.backend.execute_batch(&reqs).map_err(InferError::Request)?;
        self.stats.merge(outcome.stats.as_sim().expect("the simulator reports SimStats"));
        Ok(outcome.outputs.into_iter().map(|o| o.c).collect())
    }
}

/// `[cycles, insts, macs, stall_fu, stall_read, stall_write, l1d
/// accesses, l2 accesses]` of a served phase.
fn served_counts(s: &SimStats) -> [u64; 8] {
    [
        s.cycles,
        s.insts,
        s.macs,
        s.stall_fu,
        s.stall_read,
        s.stall_write,
        s.l1d.accesses,
        s.l2.accesses,
    ]
}

/// [`served_counts`] of the prefill, then of the 15 decode steps, of
/// the request [`a_served_request_matches_its_pinned_counts`] serves.
/// The decode row was recorded at the commit before `SimBackend` kept
/// one simulator and a memo, which built a fresh simulator per batch
/// and timed every unit; the prefill row since a prefill's last layer
/// carries only its final row past K/V.
const PINNED_SERVED: [[u64; 8]; 2] = [
    [228369, 662881, 6855216, 863358, 470781, 504933, 373584, 1003],
    [1889076, 5946129, 20769648, 5509069, 2754986, 7762307, 3211488, 6324],
];

#[test]
fn a_served_request_matches_its_pinned_counts() {
    let model = Model::new(SIM_MODEL, SIM_VOCAB, 7);
    let mut backend = SimBackend::a64fx();
    let handles = model.register(&mut backend);
    let prompt: Vec<u32> = (0..32).map(|i| (i * 37 + 11) % SIM_VOCAB as u32).collect();

    let mut ctx = InferContext::for_model(&model);
    let mut exec = Tally { backend: &mut backend, handles: &handles, stats: SimStats::default() };
    let mut tokens = vec![ctx.prefill_with(&model, &mut exec, &prompt).expect("prefill").first];
    let prefill = std::mem::take(&mut exec.stats);
    for _ in 0..DECODE_STEPS {
        tokens.push(ctx.decode_with(&model, &mut exec).expect("decode"));
    }
    assert_eq!(
        [served_counts(&prefill), served_counts(&exec.stats)],
        PINNED_SERVED,
        "[prefill, decode] counts moved"
    );

    let mut ctx = InferContext::for_model(&model);
    let mut reference = RefExec::new(&model);
    let mut want = vec![ctx.prefill_with(&model, &mut reference, &prompt).unwrap().first];
    for _ in 0..DECODE_STEPS {
        want.push(ctx.decode_with(&model, &mut reference).unwrap());
    }
    assert_eq!(tokens, want, "the simulator serves gemm_i32_ref's stream");
}
