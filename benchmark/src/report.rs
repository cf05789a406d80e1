//! Printing results by name with units, the results file, and the one
//! line of JSON the benchmark driver reads.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::run::{RunConfig, WorkloadResult};

/// Print one workload's metrics, counts, notes and problems.
pub fn print_result(r: &WorkloadResult) {
    let kind = if r.traced { "traced, per layer" } else { "untraced, end to end" };
    println!("\n== {} ({kind}): {}", r.workload.name(), r.workload.why());
    for (d, rep) in &r.metrics {
        let bound = END_TO_END
            .iter()
            .find(|(e, _)| e.name == d.name)
            .map_or(String::new(), |(_, b)| format!(", may worsen {:.0}%", b * 100.0));
        let spread = if rep.samples > 0 {
            format!("  [rounds {:.6}..{:.6}, n={}]", rep.min, rep.max, rep.samples)
        } else {
            String::new()
        };
        println!(
            "  {:<34} {:>16.6} {:<8}{spread}  ({} is better{bound})",
            d.name,
            rep.value,
            d.unit,
            d.better.as_str()
        );
    }
    let rounds: Vec<String> =
        r.rounds.iter().map(|(a, f)| format!("{a} attempted/{} ok/{f} failed", a - f)).collect();
    println!("  requests per round: {}", rounds.join("; "));
    println!(
        "  failed_share {:.6} ({} of {}); golden streams took {:.3} s",
        r.failed() as f64 / r.attempted().max(1) as f64,
        r.failed(),
        r.attempted(),
        r.golden_s
    );
    for n in &r.notes {
        println!("  note: {n}");
    }
    for p in &r.problems {
        println!("  PROBLEM: {p}");
    }
}

fn result_json(r: &WorkloadResult) -> Json {
    let metrics = r.metrics.iter().map(|(d, rep)| {
        let mut fields = vec![("value", Json::Num(rep.value)), ("unit", Json::str(d.unit))];
        if rep.samples > 0 {
            fields.extend([
                ("min", Json::Num(rep.min)),
                ("max", Json::Num(rep.max)),
                ("samples", Json::Num(rep.samples as f64)),
            ]);
        }
        (d.name, Json::obj(fields))
    });
    let strings = |v: &[String]| Json::Arr(v.iter().map(Json::str).collect());
    Json::obj([
        ("workload", Json::str(r.workload.name())),
        ("traced", Json::Bool(r.traced)),
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted() as f64)),
        ("failed", Json::Num(r.failed() as f64)),
        (
            "rounds",
            Json::Arr(
                r.rounds
                    .iter()
                    .map(|&(a, f)| {
                        Json::obj([
                            ("attempted", Json::Num(a as f64)),
                            ("failed", Json::Num(f as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("golden_s", Json::Num(r.golden_s)),
        ("metrics", Json::obj(metrics)),
        ("problems", strings(&r.problems)),
        ("notes", strings(&r.notes)),
    ])
}

/// The results file: configuration, machine, and every run made.
pub fn results_json(
    config: RunConfig,
    quick: bool,
    machine: &Json,
    results: &[WorkloadResult],
) -> Json {
    Json::obj([
        ("schema", Json::Num(1.0)),
        // a u64 seed does not survive a trip through f64
        ("seed", Json::Str(config.seed.to_string())),
        ("quick", Json::Bool(quick)),
        ("rounds", Json::Num(config.rounds as f64)),
        ("round_secs", Json::Num(config.round_secs)),
        ("traced_round_secs", Json::Num(config.traced_round_secs)),
        ("machine", machine.clone()),
        ("results", Json::Arr(results.iter().map(result_json).collect())),
    ])
}

/// The line the benchmark driver parses: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric as `{value, unit}`.
pub fn driver_line(r: &WorkloadResult) -> String {
    let metrics = r.metrics.iter().map(|(d, rep)| {
        (d.name, Json::obj([("value", Json::Num(rep.value)), ("unit", Json::str(d.unit))]))
    });
    Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted() as f64)),
        ("failed", Json::Num(r.failed() as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::stats::Reported;
    use crate::workload::Workload;

    fn sample() -> WorkloadResult {
        let (tokens, _) = END_TO_END[0];
        WorkloadResult {
            workload: Workload::ChatDecode,
            traced: false,
            metrics: vec![
                (tokens, Reported { value: 461.25, min: 455.0, max: 470.5, samples: 135 }),
                (PER_LAYER[4], Reported { value: 25.0, min: 25.0, max: 25.0, samples: 0 }),
            ],
            rounds: vec![(27, 0), (28, 1)],
            problems: vec!["round 1: request 3: \"bad\"".to_string()],
            notes: Vec::new(),
            golden_s: 0.75,
            spans: Vec::new(),
        }
    }

    #[test]
    fn results_file_round_trips() {
        let config =
            RunConfig { seed: u64::MAX, rounds: 10, round_secs: 2.5, traced_round_secs: 5.0 };
        let machine = Json::obj([("nproc", Json::Num(2.0))]);
        let doc = results_json(config, true, &machine, &[sample()]);
        let back = Json::parse(&doc.render()).expect("the writer emits valid JSON");
        assert_eq!(back, doc);
        assert_eq!(back.get("seed"), Some(&Json::str("18446744073709551615")));
        assert_eq!(back.get("quick"), Some(&Json::Bool(true)));
        let Some(Json::Arr(results)) = back.get("results") else { panic!("results array") };
        let r = &results[0];
        assert_eq!(r.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(r.get("attempted").and_then(Json::as_f64), Some(55.0));
        let tokens = r.get("metrics").and_then(|m| m.get("tokens_per_s")).expect("metric by name");
        assert_eq!(tokens.get("value").and_then(Json::as_f64), Some(461.25));
        assert_eq!(tokens.get("samples").and_then(Json::as_f64), Some(135.0));
        let calls = r.get("metrics").and_then(|m| m.get("infer.exec_calls_per_token")).unwrap();
        assert_eq!(calls.get("min"), None, "exact counts carry no spread");
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = driver_line(&sample());
        assert!(!line.contains('\n'));
        let Json::Obj(pairs) = Json::parse(&line).unwrap() else { panic!("an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Json::Obj(metric) = &pairs[3].1.get("tokens_per_s").unwrap() else { panic!() };
        let keys: Vec<&str> = metric.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["value", "unit"]);
    }
}
