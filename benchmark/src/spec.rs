//! The benchmark's declared surface: workload and metric names with unit and
//! direction. `../BENCHMARK.json` carries the same declarations for the
//! driver; `tests::declarations_match_benchmark_json` holds the two equal in
//! both directions.

/// Default workload seed (the driver passes its own).
pub const DEFAULT_SEED: u64 = 42;

/// Default measuring time of one pass; equals `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;

/// Compute-pool width the round workloads are pinned to (`nproc` of the box
/// the workloads were sized on). `cell_purchase100` has its own, see
/// `cell::POOL_WIDTH`.
pub const POOL_WIDTH: usize = 2;

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDecl {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen;
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// The four workloads, in run order.
pub const WORKLOADS: [&str; 4] = ["fcnn_dinar", "vgg_ldp", "comm_wdp_i8", "cell_purchase100"];

/// End-to-end metrics: every workload reports every one, from the untraced
/// pass.
pub const END_TO_END: [MetricDecl; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("round_min_s", "s", Better::Lower, 0.25),
    e2e("samples_per_s", "1/s", Better::Higher, 0.25),
    e2e("client_peak_mem_bytes", "B", Better::Lower, 0.05),
];

/// Per-layer metrics: every workload reports every one, from the traced
/// pass; a layer a workload does not reach reads 0.
pub const PER_LAYER: [MetricDecl; 63] = [
    higher("tensor.matmul_gflops", "GFLOP/s"),
    higher("tensor.matmul_t_gflops", "GFLOP/s"),
    higher("tensor.t_matmul_gflops", "GFLOP/s"),
    higher("tensor.achieved_gflops", "GFLOP/s"),
    lower("tensor.matmul_flops_per_round", "count"),
    lower("tensor.matmul_calls_per_round", "count"),
    lower("tensor.im2col_s", "s"),
    lower("tensor.col2im_s", "s"),
    lower("tensor.im2col_bytes_per_round", "B"),
    lower("tensor.col2im_bytes_per_round", "B"),
    lower("tensor.fill_normal_ns_per_elem", "ns"),
    lower("tensor.rng_samples_per_round", "count"),
    lower("tensor.param_copy_bytes_per_round", "B"),
    lower("tensor.param_share_calls_per_round", "count"),
    lower("nn.forward_s", "s"),
    lower("nn.backward_s", "s"),
    lower("nn.optim_step_s", "s"),
    lower("nn.bwd_fwd_ratio", "ratio"),
    lower("nn.param_count", "count"),
    lower("nn.forward_eval_s", "s"),
    lower("nn.encode_f32_s", "s"),
    lower("nn.encode_quant_i8_s", "s"),
    lower("nn.encode_sign1_s", "s"),
    lower("nn.decode_f32_s", "s"),
    lower("nn.decode_quant_i8_s", "s"),
    lower("nn.decode_sign1_s", "s"),
    lower("data.generate_s", "s"),
    lower("data.split_s", "s"),
    lower("data.partition_s", "s"),
    lower("fl.receive_global_s", "s"),
    lower("fl.train_local_s", "s"),
    lower("fl.produce_update_s", "s"),
    lower("fl.aggregate_s", "s"),
    lower("fl.engine_overhead_s", "s"),
    lower("fl.round_p50_s", "s"),
    lower("fl.round_p90_s", "s"),
    lower("fl.round_max_s", "s"),
    higher("fl.width_speedup", "ratio"),
    lower("fl.updates_attempted", "count"),
    higher("fl.updates_aggregated", "count"),
    lower("fl.updates_dropped", "count"),
    lower("fl.frames_per_round", "count"),
    lower("fl.uplink_bytes_per_round", "B"),
    lower("fl.downlink_bytes_per_round", "B"),
    lower("fl.net_sim_round_s", "s"),
    lower("defenses.wdp.upload_s", "s"),
    lower("defenses.gc.upload_s", "s"),
    lower("defenses.sa.upload_s", "s"),
    lower("defenses.cdp.aggregate_s", "s"),
    lower("defenses.ldp.step_s", "s"),
    lower("defenses.ldp.step_overhead_ratio", "ratio"),
    lower("core.personalize_s", "s"),
    lower("core.obfuscate_s", "s"),
    lower("core.sensitivity_s", "s"),
    lower("attacks.shadow_fit_s", "s"),
    lower("attacks.evaluate_s", "s"),
    lower("attacks.evaluations", "count"),
    lower("consensus.vote_s", "s"),
    lower("harness.train_defense_s", "s"),
    lower("harness.cell_s", "s"),
    higher("harness.prepare_width_speedup", "ratio"),
    lower("bench.trace_overhead_ratio", "ratio"),
    lower("bench.traced_rounds", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_tensor::json::Json;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("entry without `{key}`: {}", entry.dump()))
    }

    fn declared(json: &Json, section: &str) -> BTreeSet<(String, String, String, String)> {
        json.get(section)
            .and_then(Json::as_arr)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64);
                (
                    field(m, "name").to_string(),
                    field(m, "unit").to_string(),
                    field(m, "better").to_string(),
                    format!("{bound:?}"),
                )
            })
            .collect()
    }

    fn in_code(decls: &[MetricDecl]) -> BTreeSet<(String, String, String, String)> {
        decls
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    format!("{:?}", m.bound),
                )
            })
            .collect()
    }

    #[test]
    fn declarations_match_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(declared(&json, "end_to_end"), in_code(&END_TO_END));
        assert_eq!(declared(&json, "per_layer"), in_code(&PER_LAYER));
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads is an array")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_u64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for name in WORKLOADS {
            assert!(name_ok(name), "workload name {name}");
            assert!(seen.insert(name), "name {name} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "metric name {}", m.name);
            assert!(unit_ok(m.unit), "unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "name {} used twice", m.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
