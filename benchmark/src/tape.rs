//! The traced executor and the *tape* it records: the `InferGemm`
//! batches one request sent down, with the outputs that came back, so
//! each lower layer can be replayed alone against exactly that work.

use std::time::{Duration, Instant};

use camp_core::dispatch::Priority;
use camp_core::{GemmRequest, RequestError};
use camp_infer::{BOperand, GemmExec, InferError, InferGemm, ModelHandles};

use crate::span::Tracer;

/// Which kind of forward pass a batch belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Prefill,
    Decode,
}

impl Phase {
    /// The scheduling class the serving facade gives this phase.
    pub fn priority(self) -> Priority {
        match self {
            Phase::Prefill => Priority::Prefill,
            Phase::Decode => Priority::Decode,
        }
    }

    /// Name of the span around one forward pass of this phase.
    pub fn step_span(self) -> &'static str {
        match self {
            Phase::Prefill => "infer.prefill",
            Phase::Decode => "infer.decode_step",
        }
    }
}

/// One `GemmExec::run` call as the executor saw it.
#[derive(Debug, Clone)]
pub struct TapeEntry {
    pub phase: Phase,
    /// How long the caller computed between the previous call's return
    /// (or the step's start) and this call.
    pub think: Duration,
    pub batch: Vec<InferGemm>,
    pub outputs: Vec<Vec<i32>>,
}

/// Per-thread trace state: the spans, and the tape while it is armed.
#[derive(Debug)]
pub struct Recorder {
    pub tracer: Tracer,
    pub tape: Vec<TapeEntry>,
    /// Record batches and outputs onto the tape (one request's worth:
    /// cloning outputs costs time the other requests should not pay).
    pub taping: bool,
    pub phase: Phase,
    /// When the caller last got control back: the step's start, or the
    /// previous `exec.run`'s return.
    pub resumed: Instant,
}

impl Recorder {
    pub fn new(tracer: Tracer) -> Self {
        Recorder {
            tracer,
            tape: Vec::new(),
            taping: false,
            phase: Phase::Prefill,
            resumed: Instant::now(),
        }
    }
}

/// Wraps the product's executor: one `exec.run` span per call, plus the
/// tape entry when the recorder is taping.
pub struct TracedExec<'r, E> {
    pub inner: E,
    pub rec: &'r mut Recorder,
}

impl<E: GemmExec> GemmExec for TracedExec<'_, E> {
    fn run(&mut self, batch: Vec<InferGemm>) -> Result<Vec<Vec<i32>>, InferError> {
        let think = self.rec.resumed.elapsed();
        let kept = self.rec.taping.then(|| batch.clone());
        let id = self.rec.tracer.open("exec.run");
        let out = self.inner.run(batch);
        self.rec.tracer.close(id);
        if let (Some(batch), Ok(outputs)) = (kept, &out) {
            let phase = self.rec.phase;
            self.rec.tape.push(TapeEntry { phase, think, batch, outputs: outputs.clone() });
        }
        self.rec.resumed = Instant::now();
        out
    }
}

/// Plays a tape's outputs back without multiplying anything, so a
/// forward pass over it costs only the `infer` layer's own work.
pub struct CannedExec {
    outputs: std::vec::IntoIter<Vec<Vec<i32>>>,
}

impl CannedExec {
    /// An executor answering the calls of one replayed request, in
    /// order, from `tape` (cloned here, outside any timed region).
    pub fn new(tape: &[TapeEntry]) -> Self {
        let outputs: Vec<_> = tape.iter().map(|e| e.outputs.clone()).collect();
        CannedExec { outputs: outputs.into_iter() }
    }
}

impl GemmExec for CannedExec {
    fn run(&mut self, _batch: Vec<InferGemm>) -> Result<Vec<Vec<i32>>, InferError> {
        Ok(self.outputs.next().expect("replay makes exactly the calls the tape recorded"))
    }
}

/// Build the backend requests for one batch against registered handles
/// (what the product's executors do before submitting).
pub fn to_requests(
    batch: &[InferGemm],
    handles: &ModelHandles,
) -> Result<Vec<GemmRequest>, RequestError> {
    batch
        .iter()
        .map(|g| match &g.b {
            BOperand::Weight(id) => GemmRequest::with_weights(g.m, g.a.clone(), handles.get(*id)),
            BOperand::Dense(b) => GemmRequest::dense(g.m, g.n, g.k, g.a.clone(), b.clone()),
        })
        .collect()
}

/// Exact work counts of a set of batches, from their shapes alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// `GemmExec::run` calls.
    pub exec_calls: u64,
    /// GeMMs in those calls.
    pub gemms: u64,
    /// Multiply-accumulates, Σ m·n·k.
    pub macs: u64,
    /// Bytes of dense (KV-derived) B operands materialised, Σ k·n.
    pub dense_b_bytes: u64,
}

impl WorkCounts {
    /// Count `batches`.
    pub fn of<'a>(batches: impl IntoIterator<Item = &'a [InferGemm]>) -> Self {
        let mut c = WorkCounts::default();
        for batch in batches {
            c.exec_calls += 1;
            for g in batch {
                c.gemms += 1;
                c.macs += (g.m * g.n * g.k) as u64;
                if matches!(g.b, BOperand::Dense(_)) {
                    c.dense_b_bytes += (g.k * g.n) as u64;
                }
            }
        }
        c
    }
}

/// Whether every GeMM of `batch` multiplies against a registered weight.
pub fn handle_backed(batch: &[InferGemm]) -> bool {
    batch.iter().all(|g| matches!(g.b, BOperand::Weight(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn gemm(m: usize, n: usize, k: usize, dense: bool) -> InferGemm {
        let b =
            if dense { BOperand::Dense(Arc::from(vec![0i8; k * n])) } else { BOperand::Weight(0) };
        InferGemm { m, n, k, a: Arc::from(vec![0i8; m * k]), b }
    }

    #[test]
    fn work_counts_follow_the_shapes() {
        // a decode step's projection call (3 weight GEMVs at d = 8)
        // and its score call (2 heads against 5 cached positions)
        let proj = vec![gemm(1, 8, 8, false), gemm(1, 8, 8, false), gemm(1, 8, 8, false)];
        let scores = vec![gemm(1, 5, 4, true), gemm(1, 5, 4, true)];
        let c = WorkCounts::of([proj.as_slice(), scores.as_slice()]);
        assert_eq!(
            c,
            WorkCounts { exec_calls: 2, gemms: 5, macs: 3 * 64 + 2 * 20, dense_b_bytes: 2 * 20 }
        );
        assert!(handle_backed(&proj) && !handle_backed(&scores));
        assert_eq!(WorkCounts::of(std::iter::empty::<&[InferGemm]>()), WorkCounts::default());
    }

    /// Doubles every activation sum, so outputs are checkable by hand.
    struct Doubler;
    impl GemmExec for Doubler {
        fn run(&mut self, batch: Vec<InferGemm>) -> Result<Vec<Vec<i32>>, InferError> {
            Ok(batch
                .iter()
                .map(|g| vec![2 * g.a.iter().map(|&v| i32::from(v)).sum::<i32>()])
                .collect())
        }
    }

    #[test]
    fn traced_exec_records_spans_always_and_tape_when_armed() {
        let mut rec = Recorder::new(Tracer::new(Instant::now()));
        let batch = || {
            vec![InferGemm { m: 1, n: 1, k: 2, a: Arc::from(vec![3i8, 4]), b: BOperand::Weight(0) }]
        };
        let mut exec = TracedExec { inner: Doubler, rec: &mut rec };
        assert_eq!(exec.run(batch()).unwrap(), vec![vec![14]]);
        rec.taping = true;
        rec.phase = Phase::Decode;
        let mut exec = TracedExec { inner: Doubler, rec: &mut rec };
        exec.run(batch()).unwrap();
        assert_eq!(rec.tracer.spans().len(), 2);
        assert!(rec.tracer.spans().iter().all(|s| s.name == "exec.run"));
        assert_eq!(rec.tape.len(), 1);
        assert_eq!((rec.tape[0].phase, &rec.tape[0].outputs), (Phase::Decode, &vec![vec![14]]));

        // the canned executor hands the recorded outputs back in order
        let mut canned = CannedExec::new(&rec.tape);
        assert_eq!(canned.run(Vec::new()).unwrap(), vec![vec![14]]);
    }
}
