//! The names, units and directions of every metric the benchmark prints.
//! `BENCHMARK.json` lists exactly these (a unit test compares them), and the
//! README's glossary defines each; later issues cite a claim as
//! "`metric` on `workload`".

use std::collections::BTreeMap;

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

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

const fn bounded(def: MetricDef, bound: f64) -> MetricDef {
    MetricDef { bound, ..def }
}

/// What a user of the system sees; each is defined on every workload (the
/// README's matrix says how) and gated by the bound in `BENCHMARK.json`.
/// The timings are fast-path estimates (10th percentile of a round, best
/// tenth of its 50 ms slices): the host steals CPU in bursts that move a
/// median by 2× and these by under a tenth. The medians the issue named are
/// printed under `client.*`, ungated.
pub const END_TO_END: &[MetricDef] = &[
    bounded(lo("setup_s", "s"), 0.25),
    bounded(lo("latency_p10_us", "us"), 0.25),
    bounded(hi("goodput_rps", "1/s"), 0.25),
    bounded(lo("rss_mb", "MiB"), 0.20),
];

/// Single-layer metrics, printed by the traced run. Not gated; 0 where a
/// metric does not apply to the workload (`serve.*` on `sweep_qsnr`).
pub const PER_LAYER: &[MetricDef] = &[
    // mx_serve, from ServeStats deltas and timing submit/wait.
    lo("serve.submit_call_us", "us"),
    lo("serve.hop_overhead_us", "us"),
    lo("serve.internal_p50_us", "us"),
    hi("serve.mean_batch", "count"),
    hi("serve.batch_full_share", "ratio"),
    lo("serve.plans_compiled", "count"),
    hi("serve.plan_hit_share", "ratio"),
    lo("serve.packs_performed", "count"),
    hi("serve.packs_avoided", "count"),
    lo("serve.shed_share", "ratio"),
    lo("serve.expired", "count"),
    lo("serve.pad_waste_share", "ratio"),
    // mx_models::zoo
    lo("zoo.compile_plan_us", "us"),
    lo("zoo.compile_plan_cold_us", "us"),
    lo("zoo.forward_dynamic_us", "us"),
    lo("zoo.plan_token_us", "us"),
    // mx_nn::plan
    lo("plan.execute_us.dense_m1", "us"),
    lo("plan.execute_us.dense_m32", "us"),
    lo("plan.execute_us.gpt_b1_l4", "us"),
    lo("plan.execute_us.gpt_b1_l8", "us"),
    lo("plan.execute_us.gpt_b1_l16", "us"),
    lo("plan.self_us.dense_m1", "us"),
    lo("plan.self_us.dense_m32", "us"),
    lo("plan.self_us.gpt_b1_l4", "us"),
    lo("plan.self_us.gpt_b1_l8", "us"),
    lo("plan.self_us.gpt_b1_l16", "us"),
    lo("plan.vs_dynamic_ratio.dense_m1", "ratio"),
    lo("plan.vs_dynamic_ratio.dense_m32", "ratio"),
    lo("plan.vs_dynamic_ratio.gpt_b1_l4", "ratio"),
    lo("plan.vs_dynamic_ratio.gpt_b1_l8", "ratio"),
    lo("plan.vs_dynamic_ratio.gpt_b1_l16", "ratio"),
    lo("plan.arena_bytes", "B"),
    lo("plan.templates", "count"),
    lo("plan.instances", "count"),
    // mx_nn::qflow
    lo("qflow.matmul_cached_us", "us"),
    lo("qflow.cache_overhead_us", "us"),
    // mx_core::gemm
    lo("gemm.fused_us.m1", "us"),
    lo("gemm.fused_us.m32", "us"),
    lo("gemm.twopass_us.m128", "us"),
    lo("gemm.small_us.m16_k32_n32", "us"),
    hi("gemm.gmacs_per_s.m1", "GMAC/s"),
    hi("gemm.gmacs_per_s.m32", "GMAC/s"),
    hi("gemm.gmacs_per_s.m128", "GMAC/s"),
    hi("gemm.gmacs_per_s.m16_k32_n32", "GMAC/s"),
    lo("gemm.bytes_per_call.m1", "B"),
    lo("gemm.bytes_per_call.m32", "B"),
    lo("gemm.bytes_per_call.m128", "B"),
    lo("gemm.bytes_per_call.m16_k32_n32", "B"),
    lo("gemm.vs_fgemm_ratio.m1", "ratio"),
    lo("gemm.vs_fgemm_ratio.m32", "ratio"),
    hi("gemm.threads1_vs_auto_ratio.m32", "ratio"),
    hi("gemm.threads1_vs_auto_ratio.m16_k32_n32", "ratio"),
    // mx_core::gemm::pack
    lo("pack.cols_ms", "ms"),
    lo("pack.packed_bytes", "B"),
    // mx_core::engine
    hi("engine.qdq_melem_per_s.mx9", "Melem/s"),
    hi("engine.qdq_melem_per_s.mx6", "Melem/s"),
    hi("engine.qdq_melem_per_s.mx4", "Melem/s"),
    hi("engine.encode_melem_per_s", "Melem/s"),
    hi("engine.decode_melem_per_s", "Melem/s"),
    // mx_core::fgemm (ratio base only)
    lo("fgemm.us.m1", "us"),
    lo("fgemm.us.m32", "us"),
    // mx_core::parallel
    lo("parallel.spawns_per_req", "count"),
    hi("parallel.map_speedup", "ratio"),
    // mx_sweep / mx_core::qsnr
    lo("sweep.point_ms", "ms"),
    lo("qsnr.measure_ms", "ms"),
    hi("sweep.qsnr_checksum", "count"),
    hi("sweep.configs_per_s", "1/s"),
    // process
    lo("proc.cpu_ms_per_req", "ms"),
    lo("proc.threads_peak", "count"),
    // load generator
    lo("client.rtt_p50_us", "us"),
    lo("client.burst_p50_us", "us"),
    lo("client.latency_p50_us", "us"),
    lo("client.rtt_p90_us", "us"),
    lo("client.rtt_p99_us", "us"),
    lo("client.rtt_max_us", "us"),
    hi("client.throughput_rps", "1/s"),
    hi("client.goodput_mean_rps", "1/s"),
    hi("client.offered", "count"),
    hi("client.answered", "count"),
    lo("client.shed", "count"),
    lo("client.expired", "count"),
    lo("client.errors", "count"),
    lo("client.mismatches", "count"),
    lo("client.failed_share", "ratio"),
    lo("client.late_share", "ratio"),
    lo("client.max_late_us", "us"),
    lo("client.round_spread", "ratio"),
    lo("client.trace_overhead_share", "ratio"),
    // derived from the traced round's replay
    hi("trace.gemm_share", "ratio"),
    hi("trace.plan_share", "ratio"),
    hi("trace.spans", "count"),
];

/// The definition of `name`, in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Named values. Only names from the tables can be set: a typo is a bug in
/// this program and panics in the smoke test rather than printing a metric
/// nothing else knows.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "metric {name:?} is not in the tables");
        // JSON holds no NaN or infinity; a ratio over an empty round is 0.
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The value, 0 when the workload does not produce this metric.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    pub fn extend(&mut self, other: &Metrics) {
        self.0.extend(other.0.iter().map(|(k, v)| (*k, *v)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_obey_the_contract_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(unit_ok(d.unit), "{}: {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        let setup = def("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` is written by hand; this keeps it and the tables
    /// from drifting apart.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let flat: String = text.split_whitespace().collect();
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = flat.find(&format!("\"{section}\":[")).expect(section);
            let body = &flat[start..];
            let body = &body[..body.find(']').expect("section closes")];
            assert_eq!(body.matches("\"name\":").count(), table.len(), "{section}");
            for d in table {
                let mut entry = format!(
                    "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                    d.name,
                    d.unit,
                    d.better.as_str()
                );
                if section == "end_to_end" {
                    assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
                    entry.push_str(&format!(",\"bound\":{}}}", d.bound));
                } else {
                    entry.push('}');
                }
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
        }
        for w in crate::workload::Workload::ALL {
            assert!(flat.contains(&format!("{{\"name\":\"{}\",\"why\":", w.name())));
        }
    }

    #[test]
    fn unknown_names_are_rejected_and_non_finite_values_zeroed() {
        let mut m = Metrics::default();
        m.set("latency_p10_us", f64::NAN);
        assert_eq!(m.get("latency_p10_us"), 0.0);
        assert!(m.has("latency_p10_us") && !m.has("setup_s"));
        assert_eq!(m.get("setup_s"), 0.0);
        assert!(
            std::panic::catch_unwind(|| Metrics::default().set("no.such.metric", 1.0)).is_err()
        );
    }
}
