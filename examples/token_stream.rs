//! Serving tokens: prompt → prefill → KV-cached decode, end to end.
//!
//! Builds a small quantized transformer, registers its weights with
//! the host engine, wraps the engine in a dispatcher, and streams
//! tokens from two concurrent `InferSession` tenants — then replays
//! one stream on the cycle-accurate simulator and on the pure
//! `gemm_i32_ref` executor to show all three agree bit for bit. The
//! simulator serves the stream twice: the warm request must report
//! exactly the cold one's simulated statistics.
//!
//! ```sh
//! cargo run --release --example token_stream
//! ```

use std::sync::Arc;

use camp::core::backend::{CampBackend, SimBackend};
use camp::core::{CampEngine, GemmRequest};
use camp::infer::{
    BOperand, CheckedExec, GemmExec, InferContext, InferError, InferGemm, InferSession, Model,
    ModelHandles, RefExec,
};
use camp::models::TransformerConfig;
use camp::pipeline::{CoreConfig, SimStats};

fn main() {
    let cfg = TransformerConfig { hidden: 32, ff_dim: 64, heads: 4, layers: 3, seq_len: 64 };
    let vocab = 64;
    let model = Arc::new(Model::new(cfg, vocab, 0xCA3D));
    println!(
        "model: {} layers x d={} ({} heads), ff={}, vocab={} -> {} weight matrices",
        cfg.layers,
        cfg.hidden,
        cfg.heads,
        cfg.ff_dim,
        vocab,
        model.weight_count()
    );

    // register once, then wrap the engine in a dispatcher: handles are
    // validated against the snapshot taken when the dispatcher starts
    let mut engine = CampEngine::from_env();
    let handles = Arc::new(model.register(&mut engine));
    let dispatcher = engine.dispatch();

    // two users, one engine: each session is its own dispatcher tenant
    let mut alice = InferSession::new(&dispatcher, Arc::clone(&model), Arc::clone(&handles));
    let mut bob = InferSession::new(&dispatcher, Arc::clone(&model), Arc::clone(&handles));

    let prompt_a: Vec<u32> = vec![7, 21, 42, 3];
    let prompt_b: Vec<u32> = vec![1, 2, 3, 4, 5];
    let ta = alice.prefill(&prompt_a).expect("prefill A");
    let tb = bob.prefill(&prompt_b).expect("prefill B");

    // interleaved decode: the scheduler batches across tenants, decode
    // steps tagged Priority::Decode
    let mut stream_a = vec![ta.first];
    let mut stream_b = vec![tb.first];
    for _ in 0..8 {
        stream_a.push(alice.decode_step().expect("decode A"));
        stream_b.push(bob.decode_step().expect("decode B"));
    }
    println!("alice {:?} -> {:?}", prompt_a, stream_a);
    println!("bob   {:?} -> {:?}", prompt_b, stream_b);

    let stats = dispatcher.stats();
    println!(
        "dispatcher: {} batches submitted, {} executed, {} shed",
        stats.submitted, stats.executed, stats.shed
    );

    // replay alice's stream on the pure reference executor
    let mut ctx = InferContext::for_model(&model);
    let mut reference = RefExec::new(&model);
    let mut ref_stream = vec![ctx.prefill_with(&model, &mut reference, &prompt_a).unwrap().first];
    for _ in 0..8 {
        ref_stream.push(ctx.decode_with(&model, &mut reference).unwrap());
    }
    assert_eq!(stream_a, ref_stream, "dispatcher path must match gemm_i32_ref");

    // ... and on the cycle-accurate simulator, twice on one backend: the
    // second request runs every unit shape the first one timed on the
    // functional machine alone, its counts from the memo, and must count
    // every cycle and instruction the same
    let mut sim = SimBackend::new(CoreConfig::a64fx());
    let sim_handles = model.register(&mut sim);
    let (sim_stream, cold) = serve_on_sim(&mut sim, &model, &sim_handles, &prompt_a, 8);
    let (warm_stream, warm) = serve_on_sim(&mut sim, &model, &sim_handles, &prompt_a, 8);
    assert_eq!(stream_a, sim_stream, "simulator must serve the same tokens");
    assert_eq!(warm_stream, sim_stream);
    assert_eq!(warm, cold, "a warm simulated request must count exactly like the cold one");
    println!("parity: host == simulator == gemm_i32_ref, bit for bit");
    println!("simulator: {} cycles per request, cold and warm alike", cold.cycles);
}

/// Serve `prompt` and `steps` decode steps on `sim`, cross-checking every
/// layer's GeMM output against the reference as it happens: the stream
/// and the simulated statistics of the whole request.
fn serve_on_sim(
    sim: &mut SimBackend,
    model: &Model,
    handles: &ModelHandles,
    prompt: &[u32],
    steps: usize,
) -> (Vec<u32>, SimStats) {
    let mut stats = SimStats::default();
    let mut exec = CheckedExec::new(model, Tallied { sim, handles, stats: &mut stats });
    let mut ctx = InferContext::for_model(model);
    let mut stream = vec![ctx.prefill_with(model, &mut exec, prompt).unwrap().first];
    for _ in 0..steps {
        stream.push(ctx.decode_with(model, &mut exec).unwrap());
    }
    (stream, stats)
}

/// `BackendExec` on the simulator, summing every batch's `SimStats`.
struct Tallied<'a> {
    sim: &'a mut SimBackend,
    handles: &'a ModelHandles,
    stats: &'a mut SimStats,
}

impl GemmExec for Tallied<'_> {
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
        let outcome = self.sim.execute_batch(&reqs).map_err(InferError::Request)?;
        self.stats.merge(outcome.stats.as_sim().expect("the simulator reports SimStats"));
        Ok(outcome.outputs.into_iter().map(|o| o.c).collect())
    }
}
