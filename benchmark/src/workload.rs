//! The four workloads: what each one serves, through which path, and
//! the seeded prompts and `RefExec` golden streams it is checked with.

use camp_gemm::reference::SplitMix64;
use camp_infer::{InferContext, InferError, Model, RefExec};
use camp_models::TransformerConfig;

/// Prompts per pool; clients walk the pool round-robin.
pub const POOL_PROMPTS: usize = 8;

/// The model every host workload serves.
pub const HOST_MODEL: TransformerConfig =
    TransformerConfig { hidden: 256, ff_dim: 1024, heads: 4, layers: 4, seq_len: 256 };
const HOST_VOCAB: usize = 256;

/// The model small enough to serve on the cycle-accurate simulator.
pub const SIM_MODEL: TransformerConfig =
    TransformerConfig { hidden: 128, ff_dim: 256, heads: 4, layers: 2, seq_len: 64 };
const SIM_VOCAB: usize = 64;

/// Which executor path serves the workload's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `InferSession` tenants on a `Dispatcher<CampEngine>`.
    Dispatcher,
    /// `InferContext` + `BackendExec` on the bare `CampEngine`.
    Engine,
    /// `InferContext` on `SimBackend::a64fx()`.
    Sim,
}

/// One closed-loop client: the same short request over and over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientSpec {
    pub prompt_len: usize,
    /// Tokens served per request, the prefill's first token included.
    pub generate: usize,
}

/// A benchmark workload. The names are final: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChatDecode,
    DocPrefill,
    EngineDirect,
    SimToken,
}

const CHAT: ClientSpec = ClientSpec { prompt_len: 32, generate: 64 };

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ChatDecode, Workload::DocPrefill, Workload::EngineDirect, Workload::SimToken];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChatDecode => "chat_decode",
            Workload::DocPrefill => "doc_prefill",
            Workload::EngineDirect => "engine_direct",
            Workload::SimToken => "sim_token",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ChatDecode => {
                "1 client, prompt 32 / generate 64 through one dispatcher session: 25 blocking \
                 round trips per m=1 token, so dispatch cost dominates and kernels barely matter"
            }
            Workload::DocPrefill => {
                "1 client, prompt 192 / generate 4 through the dispatcher: m=192 blocked GeMMs, \
                 so tile kernels and A-packing dominate and dispatch cost barely matters"
            }
            Workload::EngineDirect => {
                "chat_decode's requests on the bare engine, no dispatcher: infer glue plus \
                 skinny kernels; a dispatcher change predicts no change here"
            }
            Workload::SimToken => {
                "a small model served on the cycle-accurate simulator: simulated cycles must not \
                 move unless the model changes, and host time guards simulator speed"
            }
        }
    }

    pub fn path(self) -> Path {
        match self {
            Workload::EngineDirect => Path::Engine,
            Workload::SimToken => Path::Sim,
            _ => Path::Dispatcher,
        }
    }

    /// The model configuration and vocabulary served.
    pub fn model(self) -> (TransformerConfig, usize) {
        match self {
            Workload::SimToken => (SIM_MODEL, SIM_VOCAB),
            _ => (HOST_MODEL, HOST_VOCAB),
        }
    }

    /// The client whose tokens, gaps and first-token times are reported.
    pub fn client(self) -> ClientSpec {
        match self {
            Workload::DocPrefill => ClientSpec { prompt_len: 192, generate: 4 },
            Workload::SimToken => ClientSpec { prompt_len: 32, generate: 16 },
            _ => CHAT,
        }
    }

    /// The prefill-only client that `chat_decode`'s traced run serves
    /// beside the main one for one round: back-to-back 192-token
    /// prefills at prefill priority on the same dispatcher, to read
    /// what a decode stream pays for queueing behind them.
    pub fn contender(self) -> Option<ClientSpec> {
        (self == Workload::ChatDecode).then_some(ClientSpec { prompt_len: 192, generate: 1 })
    }
}

/// `POOL_PROMPTS` prompts of `len` tokens below `vocab`, from `seed`.
pub fn prompt_pool(seed: u64, len: usize, vocab: usize) -> Vec<Vec<u32>> {
    let mut rng = SplitMix64::new(seed);
    (0..POOL_PROMPTS)
        .map(|_| (0..len).map(|_| (rng.next_u64() % vocab as u64) as u32).collect())
        .collect()
}

/// The token stream `RefExec` serves for `prompt`: the ground truth
/// every served request is compared with.
pub fn golden_stream(
    model: &Model,
    prompt: &[u32],
    generate: usize,
) -> Result<Vec<u32>, InferError> {
    let mut ctx = InferContext::for_model(model);
    let mut exec = RefExec::new(model);
    let mut tokens = vec![ctx.prefill_with(model, &mut exec, prompt)?.first];
    for _ in 1..generate {
        tokens.push(ctx.decode_with(model, &mut exec)?);
    }
    Ok(tokens)
}

/// One client's inputs: its prompt pool and the golden stream of each.
#[derive(Debug, Clone)]
pub struct ClientInputs {
    pub spec: ClientSpec,
    pub prompts: Vec<Vec<u32>>,
    pub golden: Vec<Vec<u32>>,
}

impl ClientInputs {
    /// Draw the pool from `seed` and compute its golden streams, half
    /// the pool per thread: nothing is being measured yet, and the
    /// scalar reference is the slowest thing the benchmark runs.
    pub fn new(model: &Model, spec: ClientSpec, seed: u64) -> Result<Self, InferError> {
        let prompts = prompt_pool(seed, spec.prompt_len, model.vocab());
        let stream = |p: &Vec<u32>| golden_stream(model, p, spec.generate);
        let (front, back) = prompts.split_at(prompts.len() / 2);
        let golden = std::thread::scope(|s| {
            let back = s.spawn(|| back.iter().map(stream).collect::<Result<Vec<_>, _>>());
            let mut golden = front.iter().map(stream).collect::<Result<Vec<_>, _>>()?;
            golden.extend(back.join().expect("golden-stream thread panicked")?);
            Ok::<_, InferError>(golden)
        })?;
        Ok(ClientInputs { spec, prompts, golden })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}: why is {} chars", w.name(), w.why().len());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn pools_depend_only_on_the_seed() {
        let a = prompt_pool(7, 32, 256);
        assert_eq!(a, prompt_pool(7, 32, 256));
        assert_ne!(a, prompt_pool(8, 32, 256));
        assert_eq!(a.len(), POOL_PROMPTS);
        assert!(a.iter().all(|p| p.len() == 32 && p.iter().all(|&t| t < 256)));
    }

    #[test]
    fn golden_streams_keep_pool_order() {
        let cfg = TransformerConfig { hidden: 8, ff_dim: 16, heads: 2, layers: 1, seq_len: 16 };
        let model = Model::new(cfg, 32, 5);
        let spec = ClientSpec { prompt_len: 4, generate: 3 };
        let inputs = ClientInputs::new(&model, spec, 11).unwrap();
        assert_eq!(inputs.golden.len(), POOL_PROMPTS);
        for (prompt, golden) in inputs.prompts.iter().zip(&inputs.golden) {
            assert_eq!(*golden, golden_stream(&model, prompt, 3).unwrap());
        }
    }

    #[test]
    fn every_request_fits_its_kv_cache() {
        for w in Workload::ALL {
            let (cfg, _) = w.model();
            for c in [Some(w.client()), w.contender()].into_iter().flatten() {
                assert!(c.prompt_len + c.generate - 1 <= cfg.seq_len, "{}", w.name());
            }
        }
    }
}
