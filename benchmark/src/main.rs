//! # camp-benchmark — the repository's layered serving benchmark
//!
//! Four stationary closed-loop workloads served through the product's
//! public surface, measured end to end (untraced) and layer by layer
//! (traced, from outside). See `README.md` beside this package for the
//! workloads, the metrics and how the layers' numbers add up.
//!
//! ```text
//! camp-benchmark --seed <u64> [--workload <name>] [--trace <0|1>] [--seconds <n>] [--quick]
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` each
//! runs untraced and then traced. With both given, the last line of
//! standard output is the single JSON object the benchmark driver reads.

mod clock;
mod json;
mod machine;
mod metrics;
mod probe;
mod report;
mod run;
mod serve;
mod sim;
mod span;
mod stats;
mod tape;
mod workload;

use std::path::Path;
use std::process::ExitCode;

use run::{run_traced, run_untraced, RunConfig, WorkloadResult};
use workload::Workload;

/// Measured rounds of an untraced run; `--seconds` is split evenly
/// over them.
const ROUNDS: usize = 10;
/// A traced run's rounds (two, or three with a contender) last
/// `--seconds` over this each.
const TRACED_ROUND_SHARE: f64 = 5.0;
/// Default `--seconds`, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 25;

struct Args {
    seed: u64,
    workload: Option<Workload>,
    trace: Option<bool>,
    seconds: u64,
    quick: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed =
        Args { seed: 1, workload: None, trace: None, seconds: DEFAULT_SECONDS, quick: false };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--workload" => {
                let name = value()?;
                let known = || Workload::ALL.map(Workload::name).join(", ");
                parsed.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}; one of {}", known()))?,
                );
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("camp-benchmark: {e}");
            eprintln!(
                "usage: camp-benchmark --seed <u64> [--workload <name>] [--trace <0|1>] \
                 [--seconds <1..60>] [--quick]"
            );
            return ExitCode::from(2);
        }
    };
    // --quick: one round of one second, for smoke use; its numbers are
    // never comparable to a full run's
    let config = if args.quick {
        RunConfig { seed: args.seed, rounds: 1, round_secs: 1.0, traced_round_secs: 1.0 }
    } else {
        RunConfig {
            seed: args.seed,
            rounds: ROUNDS,
            round_secs: args.seconds as f64 / ROUNDS as f64,
            traced_round_secs: args.seconds as f64 / TRACED_ROUND_SHARE,
        }
    };
    let machine = machine::describe();
    println!(
        "camp-benchmark: seed {} | {} rounds x {} s, traced rounds {} s{} | client threads <= 2, \
         engine threads 1",
        config.seed,
        config.rounds,
        config.round_secs,
        config.traced_round_secs,
        if args.quick { " | QUICK (not comparable)" } else { "" }
    );
    println!("machine: {}", machine.render());

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let passes = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut results: Vec<WorkloadResult> = Vec::new();
    for &traced in &passes {
        for &w in &workloads {
            let r = if traced { run_traced(w, config) } else { run_untraced(w, config) };
            report::print_result(&r);
            if traced {
                let path = out_dir.join(format!("trace-{}.json", w.name()));
                match span::write_trace(&path, w.name(), &r.spans) {
                    Ok(()) => println!("  trace: {} spans in {}", r.spans.len(), path.display()),
                    Err(e) => eprintln!("camp-benchmark: cannot write {}: {e}", path.display()),
                }
            }
            results.push(r);
        }
    }

    let stem = args.workload.map_or("results".to_string(), |w| format!("results-{}", w.name()));
    let path = out_dir.join(format!("{stem}.json"));
    let doc = report::results_json(config, args.quick, &machine, &results);
    match std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, doc.render() + "\n"))
    {
        Ok(()) => println!("\nresults: {}", path.display()),
        Err(e) => eprintln!("camp-benchmark: cannot write {}: {e}", path.display()),
    }

    let all_correct = results.iter().all(WorkloadResult::correct);
    if !all_correct {
        println!("FAILED: a request failed, or the layers' counts disagree (see PROBLEM lines)");
    }
    if let (Some(_), Some(_), [only]) = (args.workload, args.trace, results.as_slice()) {
        println!("{}", report::driver_line(only));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse(&[
            "--workload",
            "doc_prefill",
            "--seed",
            "42",
            "--seconds",
            "25",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.seed, a.workload, a.trace, a.seconds, a.quick),
            (42, Some(Workload::DocPrefill), Some(true), 25, false)
        );
        let a = parse(&["--quick"]).unwrap();
        assert_eq!((a.workload, a.trace, a.quick), (None, None, true));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--seed"],
            &["--seed", "-1"],
            &["--rounds", "3"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }
}
