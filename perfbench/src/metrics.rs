//! Metric names, units and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run. Every workload prints
/// all of them; a layer the workload leaves idle reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("feeds.parse_ms", "ms"),
    ("feeds.parse_ms.plaintext", "ms"),
    ("feeds.parse_ms.csv", "ms"),
    ("feeds.parse_ms.misp_json", "ms"),
    ("feeds.records", "count"),
    ("core.ingest_ms", "ms"),
    ("core.filter_ms", "ms"),
    ("core.dedup_ms", "ms"),
    ("core.compose_ms", "ms"),
    ("core.enrich_ms", "ms"),
    ("core.reduce_ms", "ms"),
    ("core.publish_ms", "ms"),
    ("core.records_in", "count"),
    ("core.dedup_kept_ratio", "ratio"),
    ("core.eiocs", "count"),
    ("core.rioc_ratio", "ratio"),
    ("core.riocs", "count"),
    ("dashboard.pump_ms", "ms"),
    ("dashboard.render_ms", "ms"),
    ("dashboard.decode_failures", "count"),
    ("misp.write_ms", "ms"),
    ("share.export_ms", "ms"),
    ("share.cache_lookups", "count"),
    ("share.cache_hit_ratio", "ratio"),
    ("search.sync_ms", "ms"),
    ("search.sync_reindexed", "count"),
    ("search.query_ms", "ms"),
    ("search.hits_per_query", "count"),
    ("decay.sweep_ms", "ms"),
    ("decay.sweeps", "count"),
    ("decay.flipped", "count"),
    ("taxii.push_ms", "ms"),
    ("taxii.roundtrip_ms", "ms"),
    ("taxii.decode_ms", "ms"),
    ("taxii.page_bytes", "bytes"),
    ("taxii.page_requests", "count"),
    ("taxii.page_cache_hit_ratio", "ratio"),
    ("taxii.walk_objects", "count"),
    ("taxii.objects_missed", "count"),
    ("serve.frames_in", "count"),
    ("serve.frames_out", "count"),
    ("self_ms.feeds", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.dashboard", "ms"),
    ("self_ms.misp", "ms"),
    ("self_ms.share", "ms"),
    ("self_ms.search", "ms"),
    ("self_ms.decay", "ms"),
    ("self_ms.taxii", "ms"),
    ("self_ms.unattributed", "ms"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Span layers and the metric their per-operation self time is
/// reported as.
pub const LAYERS: &[(&str, &str)] = &[
    ("feeds", "self_ms.feeds"),
    ("core", "self_ms.core"),
    ("dashboard", "self_ms.dashboard"),
    ("misp", "self_ms.misp"),
    ("share", "self_ms.share"),
    ("search", "self_ms.search"),
    ("decay", "self_ms.decay"),
    ("taxii", "self_ms.taxii"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets one metric. Panics on a name outside both lists, so a typo
    /// cannot silently print a 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// of `declared` with its unit (unset ones read 0).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[(&'static str, &'static str)],
    values: &Values,
) -> String {
    let mut metrics = serde_json::Map::new();
    for (name, unit) in declared {
        let value = values.get(name).unwrap_or(0.0);
        metrics.insert(*name, serde_json::json!({ "value": value, "unit": unit }));
    }
    serde_json::json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": serde_json::Value::Object(metrics),
    })
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared_in_benchmark_json(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        doc[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_owned(),
                    m["unit"].as_str().unwrap().to_owned(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn lists_match_benchmark_json() {
        assert_eq!(declared_in_benchmark_json("end_to_end"), owned(END_TO_END));
        assert_eq!(declared_in_benchmark_json("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn every_layer_has_a_self_time_metric() {
        for (layer, name) in LAYERS {
            assert_eq!(name.strip_prefix("self_ms."), Some(*layer));
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
        }
    }

    #[test]
    fn result_line_prints_every_declared_metric() {
        let mut values = Values::default();
        values.set("ops_per_s", 12.5);
        let line = result_line(true, 10, 1, END_TO_END, &values);
        let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(doc["attempted"], 10);
        assert_eq!(doc["failed"], 1);
        assert_eq!(doc["correct"], true);
        assert_eq!(doc["metrics"]["ops_per_s"]["value"], 12.5);
        assert_eq!(doc["metrics"]["ops_per_s"]["unit"], "1/s");
        assert_eq!(doc["metrics"]["setup_s"]["value"], 0.0);
        assert_eq!(doc["metrics"].as_object().unwrap().len(), END_TO_END.len());
    }
}
