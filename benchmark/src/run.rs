//! One workload, start to finish: the untraced run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer
//! ones and checks that the layers' counts agree.

use std::time::Instant;

use camp_core::dispatch::DispatchStats;
use camp_infer::Model;

use crate::clock::REFERENCE_PASS_US;
use crate::machine::{peak_rss_mb, reset_peak_rss};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::probe::{
    gemm_probes, phase_median, replay_dispatch, replay_engine, replay_glue, DispatchReplay,
    EngineReplay, Glue,
};
use crate::serve::{run_round, set_up, ClientRun, Inputs, Round, RoundPlan};
use crate::sim::{self, SimTally};
use crate::span::{self_times_ns, Span};
use crate::stats::{
    highest_supported_tail, median, of_rounds, percentile, percentile_of_rounds, sorted, Reported,
};
use crate::tape::{Phase, TapeEntry, WorkCounts};
use crate::workload::{ClientInputs, Path, Workload};

/// Seconds of the discarded warm-up round (pools grown, pages faulted).
const WARM_UP_SECS: f64 = 1.0;

/// Set-ups timed per untraced run, the rounds' own included: `setup_s`
/// is a few tens of milliseconds, so its median needs more than the
/// samples the rounds give.
const SETUP_SAMPLES: usize = 15;

/// How much to measure.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Measured rounds of an untraced run, and the seconds of each.
    pub rounds: usize,
    pub round_secs: f64,
    /// Seconds of each round of a traced run.
    pub traced_round_secs: f64,
}

/// What one run of one workload produced.
pub struct WorkloadResult {
    pub workload: Workload,
    pub traced: bool,
    /// Every metric of the run's kind, in declaration order.
    pub metrics: Vec<(MetricDef, Reported)>,
    /// Requests attempted and failed, per measured round.
    pub rounds: Vec<(u64, u64)>,
    /// Anything that makes the run's numbers untrustworthy: a failed
    /// request, counts that disagree between layers, simulated
    /// statistics that moved between requests.
    pub problems: Vec<String>,
    /// Remarks printed under the metrics.
    pub notes: Vec<String>,
    /// Seconds spent computing the golden streams (not in `setup_s`).
    pub golden_s: f64,
    /// The spans of a traced run.
    pub spans: Vec<Span>,
}

impl WorkloadResult {
    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.1).sum()
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.problems.is_empty()
    }
}

/// Seeds of the prompt pools, derived from the run's seed.
fn pool_seed(seed: u64, client: u64) -> u64 {
    seed ^ (0x70_6f_6f_6c << 8 | client)
}

/// The clients' prompt pools and golden streams; the contending client's
/// only when a round will run it.
fn make_inputs(workload: Workload, seed: u64, contended: bool) -> (Inputs, f64) {
    let t = Instant::now();
    let (cfg, vocab) = workload.model();
    let model = Model::new(cfg, vocab, seed);
    let client = |spec, n| {
        ClientInputs::new(&model, spec, pool_seed(seed, n))
            .expect("RefExec serves every pool prompt: they fit the vocabulary and the KV cache")
    };
    let inputs = Inputs {
        main: client(workload.client(), 0),
        background: workload.contender().filter(|_| contended).map(|spec| client(spec, 1)),
    };
    (inputs, t.elapsed().as_secs_f64())
}

fn plan(secs: f64, traced: bool, contended: bool) -> RoundPlan {
    RoundPlan { secs, traced, contended }
}

/// Tokens served per second the client spent in requests, as measured.
fn tokens_per_s(c: &ClientRun) -> f64 {
    c.served as f64 / c.busy_s
}

/// `count` per second the client spent in requests, at the reference
/// clock.
fn per_ref_second(count: u64, c: &ClientRun) -> f64 {
    count as f64 / c.busy_ref_s
}

/// Record what a round says about correctness.
fn audit(round: &Round, label: &str, problems: &mut Vec<String>) {
    if let Some(e) = round.first_error() {
        problems.push(format!("{label}: {e}"));
    }
    if let Some(DispatchStats { staging_live, .. }) = round.dispatch {
        if staging_live != 0 {
            problems.push(format!("{label}: staging_live = {staging_live} after the drain"));
        }
    }
}

/// Every request of `sim_token` runs the same shapes, and the simulator
/// is deterministic: any difference between requests' statistics means
/// simulated results depend on something they must not.
fn audit_sim(tallies: &[SimTally], problems: &mut Vec<String>) {
    if let Some(first) = tallies.first() {
        let moved = tallies.iter().filter(|t| t.simulated() != first.simulated()).count();
        if moved > 0 {
            problems.push(format!(
                "simulated statistics of {moved} of {} requests differ from the first request's",
                tallies.len()
            ));
        }
    }
}

/// CPU time the hypervisor withheld, per round: the first thing to
/// look at when a run's numbers are off.
fn steal_note<'a>(rounds: impl IntoIterator<Item = &'a Round>) -> Option<String> {
    let shares: Vec<String> = rounds
        .into_iter()
        .map(|r| r.steal_share.map(|s| format!("{:.1}%", s * 100.0)))
        .collect::<Option<_>>()?;
    Some(format!("CPU time stolen by the hypervisor per round: {}", shares.join(", ")))
}

/// Core speed per round against the reference clock: what the clock
/// meter read, and so the factor between a round's measured timings and
/// the reported ones.
fn speed_note<'a>(rounds: impl IntoIterator<Item = &'a Round>) -> String {
    let speeds: Vec<String> = rounds.into_iter().map(|r| format!("{:.3}", r.speed)).collect();
    format!(
        "core speed per round, 1 = a clock-meter pass in {REFERENCE_PASS_US} us: {}",
        speeds.join(", ")
    )
}

fn exact(value: f64) -> Reported {
    Reported { value, min: value, max: value, samples: 0 }
}

// ---- untraced --------------------------------------------------------------

/// The end-to-end run: one discarded warm-up round, then
/// `config.rounds` rounds, each on a backend set up from scratch. Every
/// timing is reported at the reference clock (see [`crate::clock`]).
pub fn run_untraced(workload: Workload, config: RunConfig) -> WorkloadResult {
    let (inputs, golden_s) = make_inputs(workload, config.seed, false);
    reset_peak_rss();
    let mut problems = Vec::new();
    let warm_up = run_round(
        workload,
        config.seed,
        &inputs,
        plan(WARM_UP_SECS.min(config.round_secs), false, false),
    );
    audit(&warm_up, "warm-up", &mut problems);
    let mut sim_tallies = warm_up.sim;

    let rounds: Vec<Round> = (0..config.rounds)
        .map(|r| {
            let round =
                run_round(workload, config.seed, &inputs, plan(config.round_secs, false, false));
            audit(&round, &format!("round {r}"), &mut problems);
            round
        })
        .collect();
    sim_tallies.extend(rounds.iter().flat_map(|r| r.sim.iter().copied()));
    audit_sim(&sim_tallies, &mut problems);

    let per_round = |f: &dyn Fn(&Round) -> f64, samples: usize| {
        of_rounds(&rounds.iter().map(f).collect::<Vec<_>>(), samples)
    };
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    while setups.len() < SETUP_SAMPLES.min(3 * config.rounds) {
        // dropping the set-up joins the dispatcher's threads
        let s = set_up(workload, config.seed);
        setups.push(s.setup_s * s.speed);
    }
    let requests: usize = rounds.iter().map(|r| r.main.requests as usize).sum();
    let itl: Vec<&[f64]> = rounds.iter().map(|r| r.main.itl_ref_ms.as_slice()).collect();
    let ttft: Vec<&[f64]> = rounds.iter().map(|r| r.main.ttft_ref_ms.as_slice()).collect();
    let peak = peak_rss_mb().expect("peak_rss_mb needs /proc/self/status (Linux)");
    let value = |name: &str| -> Reported {
        match name {
            "tokens_per_s" => per_round(&|r| per_ref_second(r.main.served, &r.main), requests),
            "itl_p50_ms" => percentile_of_rounds(&itl, 50.0),
            "itl_p90_ms" => percentile_of_rounds(&itl, 90.0),
            "ttft_p50_ms" => percentile_of_rounds(&ttft, 50.0),
            "ttft_p90_ms" => percentile_of_rounds(&ttft, 90.0),
            "prefill_tokens_per_s" => {
                per_round(&|r| per_ref_second(r.main.prompt_tokens, &r.main), requests)
            }
            "cpu_ms_per_token" => per_round(
                &|r| {
                    let cpu = r.cpu_s.expect("cpu_ms_per_token needs /proc/self/stat (Linux)");
                    cpu * r.speed * 1e3 / r.tokens_processed() as f64
                },
                requests,
            ),
            "peak_rss_mb" => Reported { value: peak, min: peak, max: peak, samples: 1 },
            "setup_s" => of_rounds(&setups, setups.len()),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        }
    };
    let metrics = END_TO_END.iter().map(|(d, _)| (*d, value(d.name))).collect();

    let gaps = itl.iter().map(|r| r.len()).min().unwrap_or(0);
    let firsts = ttft.iter().map(|r| r.len()).min().unwrap_or(0);
    let tail = |n| highest_supported_tail(n).map_or("none".to_string(), |p| format!("p{p}"));
    let mut notes = vec![format!(
        "highest percentile a single round supports: token gaps {} ({gaps}/round), first tokens {} \
         ({firsts}/round); an unsupported p90 is taken over all rounds' samples pooled",
        tail(gaps),
        tail(firsts)
    )];
    notes.push(speed_note(&rounds));
    notes.extend(steal_note(&rounds));
    WorkloadResult {
        workload,
        traced: false,
        metrics,
        rounds: rounds.iter().map(|r| (r.attempted(), r.failed())).collect(),
        problems,
        notes,
        golden_s,
        spans: Vec::new(),
    }
}

// ---- traced ----------------------------------------------------------------

/// Durations of the main client's forward passes and of the
/// `GemmExec::run` calls under them, from its spans.
struct StepTimes {
    /// `(phase, step seconds, seconds inside exec.run, request)`.
    steps: Vec<Step>,
    /// Seconds of every `exec.run` under a decode step.
    decode_runs: Vec<f64>,
}

type Step = (Phase, f64, f64, u32);

fn step_times(spans: &[Span]) -> StepTimes {
    let secs = |ns: u64| ns as f64 / 1e9;
    // a step's children are its exec.run calls, so what its self time
    // leaves of its duration is the time spent inside them
    let self_ns = self_times_ns(spans);
    let phase_of = |s: &Span| match s.name {
        "infer.prefill" => Some(Phase::Prefill),
        "infer.decode_step" => Some(Phase::Decode),
        _ => None,
    };
    let steps = spans
        .iter()
        .zip(&self_ns)
        .filter_map(|(s, &own)| {
            let d = s.duration_ns();
            phase_of(s).map(|phase| (phase, secs(d), secs(d - own), s.request))
        })
        .collect();
    let decode_runs = spans
        .iter()
        .filter(|s| s.name == "exec.run")
        .filter(|s| s.parent.is_some_and(|p| phase_of(&spans[p as usize]) == Some(Phase::Decode)))
        .map(|s| secs(s.duration_ns()))
        .collect();
    StepTimes { steps, decode_runs }
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// The per-layer run: an untraced and a traced round of the workload
/// (and, where it has a contender, a traced round beside it), then the
/// taped request replayed against each lower layer alone. Per-layer
/// timings are as measured, not converted to the reference clock.
pub fn run_traced(workload: Workload, config: RunConfig) -> WorkloadResult {
    let (inputs, golden_s) = make_inputs(workload, config.seed, true);
    let mut problems = Vec::new();
    let mut notes = Vec::new();
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let secs = config.traced_round_secs;
    let round = |traced, contended, label: &str, problems: &mut Vec<String>| {
        let r = run_round(workload, config.seed, &inputs, plan(secs, traced, contended));
        audit(&r, label, problems);
        r
    };

    let warm_up =
        run_round(workload, config.seed, &inputs, plan(WARM_UP_SECS.min(secs), false, false));
    audit(&warm_up, "warm-up", &mut problems);
    let untraced = round(false, false, "untraced round", &mut problems);
    let mut traced = round(true, false, "traced round", &mut problems);
    let mut rounds = vec![&untraced, &traced];
    let mut contended =
        inputs.background.as_ref().map(|_| round(true, true, "contended round", &mut problems));
    rounds.extend(contended.as_ref());
    notes.push(speed_note(rounds.iter().copied()));
    notes.extend(steal_note(rounds.iter().copied()));
    let rounds: Vec<(u64, u64)> = rounds.iter().map(|r| (r.attempted(), r.failed())).collect();

    let [mut rec, _] = traced.recorders.take().expect("a traced round records");
    let tape = std::mem::take(&mut rec.tape);
    let spec = inputs.main.spec;
    let served_per_request = spec.generate as f64;
    let times = step_times(rec.tracer.spans());

    // ---- infer: the spans around forward passes and exec.run calls ----
    let of_phase = |phase| -> Vec<f64> {
        times.steps.iter().filter(|s| s.0 == phase).map(|s| s.1 * 1e3).collect()
    };
    out.push(("infer.step_ms_decode", median_or_zero(&of_phase(Phase::Decode))));
    out.push(("infer.step_ms_prefill", median_or_zero(&of_phase(Phase::Prefill))));
    let step_total: f64 = times.steps.iter().map(|s| s.1).sum();
    let run_total: f64 = times.steps.iter().map(|s| s.2).sum();
    out.push(("infer.gemm_wait_share", run_total / step_total));
    out.push(("infer.itl_p99_ms", percentile(&sorted(&untraced.main.itl_ms), 99.0)));

    // ---- infer: exact counts of the taped request ----
    let counts = WorkCounts::of(tape.iter().map(|e| e.batch.as_slice()));
    out.push(("infer.exec_calls_per_token", counts.exec_calls as f64 / served_per_request));
    out.push(("infer.gemms_per_token", counts.gemms as f64 / served_per_request));
    out.push(("infer.macs_per_token", counts.macs as f64 / served_per_request));
    out.push(("infer.kv_bytes_per_token", counts.dense_b_bytes as f64 / served_per_request));

    // ---- infer alone: the taped request over canned outputs ----
    let (cfg, vocab) = workload.model();
    let model = Model::new(cfg, vocab, config.seed);
    let glue = replay_glue(&model, &tape, &inputs.main.prompts[0], spec.generate, &mut rec.tracer)
        .expect("the canned replay repeats a request that already succeeded");
    let Glue { prefill_s, decode_s } = &glue;
    let glue_us = if decode_s.is_empty() { *prefill_s } else { median(decode_s) } * 1e6;
    out.push(("infer.glue_us_per_token", glue_us));
    // closure of the attribution: step time not explained by the glue
    // measured alone plus the time inside exec.run. The taped request
    // paid for cloning its outputs, so it is left out when others exist.
    let taped_only = times.steps.iter().all(|s| s.3 == 0);
    let (mut step_sum, mut explained) = (0.0, 0.0);
    let mut decode_index = 0;
    for &(phase, step, run, request) in &times.steps {
        let g = match phase {
            Phase::Prefill => {
                decode_index = 0;
                *prefill_s
            }
            Phase::Decode => {
                decode_index += 1;
                decode_s[decode_index - 1]
            }
        };
        if taped_only || request != 0 {
            step_sum += step;
            explained += run + g;
        }
    }
    out.push(("infer.unattributed_share", (step_sum - explained).abs() / step_sum));

    // ---- dispatch: counters of the traced round, then the idle replay ----
    let tokens_traced = traced.main.served as f64;
    if let Some(stats) = &traced.dispatch {
        let batches_per_token = stats.executed as f64 / tokens_traced;
        out.push(("dispatch.batches_per_token", batches_per_token));
        out.push(("dispatch.stolen_share", stats.stolen as f64 / stats.executed.max(1) as f64));
        out.push(("dispatch.rejected", stats.rejected as f64));
        out.push(("dispatch.shed", stats.shed as f64));
        out.push(("dispatch.stale_failures", stats.stale_failures as f64));
        let calls_per_token = counts.exec_calls as f64 / served_per_request;
        if batches_per_token != calls_per_token {
            problems.push(format!(
                "dispatch.batches_per_token {batches_per_token} != infer.exec_calls_per_token \
                 {calls_per_token}"
            ));
        }
    }
    let engine = (workload.path() != Path::Sim).then(|| {
        replay_engine(workload, config.seed, &tape, &mut rec.tracer)
            .expect("the engine replay repeats batches that already succeeded")
    });
    if workload.path() == Path::Dispatcher {
        let replay = replay_dispatch(workload, config.seed, &tape, &mut rec.tracer)
            .expect("the dispatcher replay repeats batches that already succeeded");
        let engine = engine.as_ref().expect("dispatcher workloads are host workloads");
        dispatch_metrics(&tape, &replay, engine, &mut out, &mut problems);
        // does the decomposition close? the layers measured alone,
        // added up, against the token gap the user sees
        let roundtrip = phase_median(&tape, &replay.roundtrip_us, Phase::Decode);
        let calls = counts.exec_calls as f64 / served_per_request;
        let predicted_ms = (glue_us + calls * roundtrip) / 1e3;
        let itl_p50 = percentile(&sorted(&untraced.main.itl_ms), 50.0);
        notes.push(format!(
            "closure: infer.glue_us_per_token {glue_us:.1} + {calls} calls x \
             dispatch.roundtrip_us_decode {roundtrip:.1} = {predicted_ms:.3} ms per token, \
             {:.0}% of the untraced round's itl p50 {itl_p50:.3} ms",
            predicted_ms / itl_p50 * 100.0
        ));
    }
    // the same traced client with and without the competing prefills
    if let Some(contended) = &mut contended {
        let [beside, contender] = contended.recorders.take().expect("a traced round records");
        let waits = |t: &StepTimes| median_or_zero(&t.decode_runs) * 1e6;
        out.push((
            "dispatch.queue_wait_us_decode",
            waits(&step_times(beside.tracer.spans())) - waits(&times),
        ));
        out.push((
            "dispatch.decode_slowdown_x",
            tokens_per_s(&traced.main) / tokens_per_s(&contended.main),
        ));
        rec.tracer.absorb(beside.tracer);
        rec.tracer.absorb(contender.tracer);
    }

    // ---- engine and gemm ----
    if let Some(engine) = &engine {
        let gemm = gemm_probes(&mut rec.tracer);
        let small_m_gops = gemm[1].1;
        out.extend(gemm);
        engine_metrics(&tape, engine, served_per_request, small_m_gops, &mut out);
        out.push(("engine.register_ms", median(&[untraced.register_s, traced.register_s]) * 1e3));
        if engine.macs != counts.macs {
            problems.push(format!(
                "engine counted {} MACs for the taped request, its shapes give {}",
                engine.macs, counts.macs
            ));
        }
        if engine.packed_b_bytes_handle_backed != 0 {
            problems.push(format!(
                "{} B bytes packed for batches of registered weights; they are pre-packed",
                engine.packed_b_bytes_handle_backed
            ));
        }
        if engine.mismatches != 0 {
            problems
                .push(format!("{} engine replay outputs differ from the tape", engine.mismatches));
        }
    }

    // ---- sim ----
    if workload.path() == Path::Sim {
        let mut all = warm_up.sim.clone();
        all.extend(&untraced.sim);
        all.extend(&traced.sim);
        audit_sim(&all, &mut problems);
        let mut sum = SimTally::default();
        traced.sim.iter().for_each(|t| sum.add(t));
        let per_request = (spec.prompt_len + spec.generate) as u64;
        out.extend(sim::metrics(
            &sum,
            traced.sim.len() as u64,
            per_request,
            spec.generate as u64 - 1,
        ));
        let t0 = Instant::now();
        let (camp8, camp4) = sim::camp_speedups();
        rec.tracer.record("sim.camp_speedups", t0, Instant::now());
        out.push(("sim.camp8_speedup_x", camp8));
        out.push(("sim.camp4_speedup_x", camp4));
    }

    out.push((
        "trace_overhead_share",
        1.0 - tokens_per_s(&traced.main) / tokens_per_s(&untraced.main),
    ));
    notes.push(format!(
        "taped request: {} exec calls, {} GeMMs, {} MACs; traced round {} requests, untraced {}",
        counts.exec_calls, counts.gemms, counts.macs, traced.main.requests, untraced.main.requests
    ));

    let metrics = PER_LAYER
        .iter()
        .map(|d| {
            let v = out.iter().find(|(n, _)| *n == d.name).map_or(0.0, |&(_, v)| v);
            (*d, exact(v))
        })
        .collect();
    assert!(
        out.iter().all(|(n, _)| PER_LAYER.iter().any(|d| d.name == *n)),
        "every measured per-layer metric is a declared one"
    );
    let spans = rec.tracer.into_spans();
    WorkloadResult { workload, traced: true, metrics, rounds, problems, notes, golden_s, spans }
}

fn dispatch_metrics(
    tape: &[TapeEntry],
    replay: &DispatchReplay,
    engine: &EngineReplay,
    out: &mut Vec<(&'static str, f64)>,
    problems: &mut Vec<String>,
) {
    out.push((
        "dispatch.roundtrip_us_decode",
        phase_median(tape, &replay.roundtrip_us, Phase::Decode),
    ));
    out.push((
        "dispatch.roundtrip_us_prefill",
        phase_median(tape, &replay.roundtrip_us, Phase::Prefill),
    ));
    out.push(("dispatch.submit_us", median(&replay.submit_us)));
    let overhead: Vec<f64> =
        replay.roundtrip_us.iter().zip(&engine.exec_us).map(|(r, e)| r - e).collect();
    out.push(("dispatch.overhead_us_per_batch", median(&overhead)));
    if replay.mismatches != 0 {
        problems
            .push(format!("{} dispatcher replay outputs differ from the tape", replay.mismatches));
    }
    if replay.staging_live_after != 0 {
        problems.push(format!(
            "staging_live = {} after the replay session closed",
            replay.staging_live_after
        ));
    }
}

fn engine_metrics(
    tape: &[TapeEntry],
    engine: &EngineReplay,
    served_per_request: f64,
    small_m_gops: f64,
    out: &mut Vec<(&'static str, f64)>,
) {
    out.push(("engine.exec_us_decode_batch", phase_median(tape, &engine.exec_us, Phase::Decode)));
    out.push(("engine.exec_us_prefill_batch", phase_median(tape, &engine.exec_us, Phase::Prefill)));
    out.push(("engine.prepare_us", median(&engine.prepare_us)));
    out.push(("engine.execute_prepared_us", median(&engine.execute_prepared_us)));
    let gops = |phase| {
        let (mut macs, mut us) = (0u64, 0.0);
        for (e, t) in tape.iter().zip(&engine.exec_us).filter(|(e, _)| e.phase == phase) {
            macs += WorkCounts::of([e.batch.as_slice()]).macs;
            us += t;
        }
        if us == 0.0 {
            0.0
        } else {
            2.0 * macs as f64 / us / 1e3
        }
    };
    let gops_decode = gops(Phase::Decode);
    out.push(("engine.gops_decode", gops_decode));
    out.push(("engine.gops_prefill", gops(Phase::Prefill)));
    out.push(("engine.kernel_efficiency_decode", gops_decode / small_m_gops));
    out.push((
        "engine.packed_a_bytes_per_token",
        engine.packed_a_bytes as f64 / served_per_request,
    ));
    out.push((
        "engine.packed_b_bytes_per_token",
        engine.packed_b_bytes as f64 / served_per_request,
    ));
    out.push(("engine.small_m_share", engine.small_m_routed as f64 / engine.routed.max(1) as f64));
    out.push(("engine.macs_per_token", engine.macs as f64 / served_per_request));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn step_times_sum_the_runs_under_each_step() {
        let s = 1_000_000_000;
        let spans = vec![
            span("request", 0, 10 * s, None),
            span("infer.prefill", 0, 4 * s, Some(0)),
            span("exec.run", s, 2 * s, Some(1)),
            span("exec.run", 2 * s, 3 * s, Some(1)),
            span("infer.decode_step", 4 * s, 6 * s, Some(0)),
            span("exec.run", 4 * s, 5 * s, Some(4)),
        ];
        let t = step_times(&spans);
        assert_eq!(t.steps, vec![(Phase::Prefill, 4.0, 2.0, 0), (Phase::Decode, 2.0, 1.0, 0)]);
        assert_eq!(t.decode_runs, vec![1.0]);
    }
}
