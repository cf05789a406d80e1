//! Every metric the benchmark reports, by name: unit, direction and —
//! for the end-to-end ones — the share of the parent's median by which
//! a change may worsen it. `BENCHMARK.json` at the repository root
//! carries the same table; a test keeps the two in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// The end-to-end metrics (untraced runs) with their regression bounds.
/// Every workload reports every one of them. The bounds are the largest
/// the benchmark contract allows: on the 2-vCPU VM this was sized on,
/// the host's clock and the hypervisor move a single-threaded run by
/// 15–30% between identical runs (README, "Measured spreads").
pub const END_TO_END: &[(MetricDef, f64)] = &[
    (higher("tokens_per_s", "1/s"), 0.25),
    (lower("itl_p50_ms", "ms"), 0.25),
    (lower("itl_p90_ms", "ms"), 0.25),
    (lower("ttft_p50_ms", "ms"), 0.25),
    (lower("ttft_p90_ms", "ms"), 0.25),
    (higher("prefill_tokens_per_s", "1/s"), 0.25),
    (lower("cpu_ms_per_token", "ms"), 0.25),
    (lower("peak_rss_mb", "MiB"), 0.25),
    (lower("setup_s", "s"), 0.25),
];

/// The per-layer metrics (traced runs), `layer.metric`. A metric of a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    lower("infer.step_ms_decode", "ms"),
    lower("infer.step_ms_prefill", "ms"),
    lower("infer.gemm_wait_share", "share"),
    lower("infer.glue_us_per_token", "us"),
    lower("infer.exec_calls_per_token", "count"),
    lower("infer.gemms_per_token", "count"),
    lower("infer.macs_per_token", "count"),
    lower("infer.kv_bytes_per_token", "bytes"),
    lower("infer.itl_p99_ms", "ms"),
    lower("infer.unattributed_share", "share"),
    lower("dispatch.roundtrip_us_decode", "us"),
    lower("dispatch.roundtrip_us_prefill", "us"),
    lower("dispatch.submit_us", "us"),
    lower("dispatch.overhead_us_per_batch", "us"),
    lower("dispatch.queue_wait_us_decode", "us"),
    lower("dispatch.decode_slowdown_x", "x"),
    lower("dispatch.batches_per_token", "count"),
    lower("dispatch.stolen_share", "share"),
    lower("dispatch.rejected", "count"),
    lower("dispatch.shed", "count"),
    lower("dispatch.stale_failures", "count"),
    lower("engine.exec_us_decode_batch", "us"),
    lower("engine.exec_us_prefill_batch", "us"),
    lower("engine.prepare_us", "us"),
    lower("engine.execute_prepared_us", "us"),
    higher("engine.gops_decode", "Gop/s"),
    higher("engine.gops_prefill", "Gop/s"),
    higher("engine.kernel_efficiency_decode", "share"),
    lower("engine.packed_a_bytes_per_token", "bytes"),
    lower("engine.packed_b_bytes_per_token", "bytes"),
    higher("engine.small_m_share", "share"),
    lower("engine.macs_per_token", "count"),
    lower("engine.register_ms", "ms"),
    higher("gemm.tile_gops", "Gop/s"),
    higher("gemm.small_m_gops", "Gop/s"),
    higher("gemm.pack_a_gbs", "GB/s"),
    higher("gemm.pack_b_gbs", "GB/s"),
    lower("sim.cycles_per_token", "cycles"),
    higher("sim.minst_per_s", "M/s"),
    lower("sim.cycles_prefill", "cycles"),
    lower("sim.cycles_per_decode_token", "cycles"),
    lower("sim.insts_per_token", "count"),
    higher("sim.ipc", "1/cycle"),
    lower("sim.stall_fu_share", "share"),
    lower("sim.stall_read_share", "share"),
    lower("sim.l1d_miss_rate", "share"),
    lower("sim.host_ms_per_gemm", "ms"),
    higher("sim.camp8_speedup_x", "x"),
    higher("sim.camp4_speedup_x", "x"),
    lower("trace_overhead_share", "share"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::Workload;
    use std::collections::BTreeSet;

    /// Whether `name` is made of letters, digits, `_`, `.` and `-` only,
    /// starts with a letter or digit and has at most 64 characters —
    /// what the benchmark contract lets a metric or workload be called.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let defs = END_TO_END.iter().map(|(d, _)| d).chain(PER_LAYER);
        let mut seen = BTreeSet::new();
        for d in defs {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(seen.insert(d.name), "duplicate metric {:?}", d.name);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(d.unit.len() <= 16 && d.unit.chars().all(unit_ok), "bad unit {:?}", d.unit);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && seen.insert(w.name()), "bad workload {:?}", w.name());
        }
        assert!(END_TO_END.iter().all(|&(_, bound)| (0.0..=0.25).contains(&bound)));
    }

    #[test]
    fn name_rule_rejects_what_the_contract_rejects() {
        assert!(valid_name("infer.step_ms_decode") && valid_name("9lives") && valid_name("a-b"));
        assert!(!valid_name("") && !valid_name(".hidden") && !valid_name("tokens/s"));
        assert!(!valid_name("with space") && !valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses");
        let rows = |key: &str| match doc.get(key) {
            Some(Json::Arr(rows)) => rows.clone(),
            other => panic!("{key} must be an array, got {other:?}"),
        };
        let text = |row: &Json, key: &str| match row.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key} must be a string, got {other:?}"),
        };
        let declared: Vec<_> = rows("end_to_end")
            .iter()
            .map(|r| {
                let bound = r.get("bound").and_then(Json::as_f64).expect("bound");
                (text(r, "name"), text(r, "unit"), text(r, "better"), Some(bound))
            })
            .chain(
                rows("per_layer")
                    .iter()
                    .map(|r| (text(r, "name"), text(r, "unit"), text(r, "better"), None)),
            )
            .collect();
        let own: Vec<_> = END_TO_END
            .iter()
            .map(|(d, b)| (d, Some(*b)))
            .chain(PER_LAYER.iter().map(|d| (d, None)))
            .map(|(d, b)| {
                (d.name.to_string(), d.unit.to_string(), d.better.as_str().to_string(), b)
            })
            .collect();
        assert_eq!(declared, own);
        let workloads: Vec<_> =
            rows("workloads").iter().map(|r| (text(r, "name"), text(r, "why"))).collect();
        let own: Vec<_> =
            Workload::ALL.iter().map(|w| (w.name().to_string(), w.why().to_string())).collect();
        assert_eq!(workloads, own);
    }
}
