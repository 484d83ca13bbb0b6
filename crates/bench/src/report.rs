//! Regeneration of every table and figure of the paper, as printable
//! report sections. The `report` binary prints these; `EXPERIMENTS.md`
//! records one run.

use std::fmt::Write as _;
use std::time::Instant;

use cais_core::baseline::{evaluate_detection, labeled_population, Approach};
use cais_core::heuristics::{
    feature_names, score, vulnerability, FeatureValue, HeuristicKind, WeightScheme,
};
use cais_core::EvaluationContext;
use cais_dashboard::{render, DashboardState, NodeView, SecurityIssue};
use cais_infra::inventory::Inventory;
use cais_infra::NodeId;

use crate::workloads;

/// Table I: the worked threat-score example.
pub fn table1() -> String {
    let mut out = String::from("## Table I — Threat Score computation example\n\n");
    let weights = WeightScheme::fixed(vec![0.10, 0.25, 0.40, 0.15, 0.10]);
    let cases = [
        ("H1", [3, 4, 3, 1, 5], 3.15),
        ("H2", [5, 2, 2, 4, 0], 1.92),
        ("H3", [1, 1, 2, 3, 3], 1.90),
    ];
    let _ = writeln!(out, "| heuristic | X | paper TS | measured TS | match |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (name, values, paper) in cases {
        let ts = score::threat_score(&values.map(FeatureValue::scored), &weights);
        let _ = writeln!(
            out,
            "| {name} | {values:?} | {paper:.2} | {:.2} | {} |",
            ts.total(),
            if (ts.total() - paper).abs() < 1e-9 {
                "✓"
            } else {
                "✗"
            },
        );
    }
    out
}

/// Table II: the heuristic feature sets.
pub fn table2() -> String {
    let mut out = String::from("## Table II — Heuristic feature sets\n\n");
    for kind in HeuristicKind::ALL {
        let _ = writeln!(out, "* **{kind}**: {}", feature_names(kind).join(", "));
    }
    out
}

/// Table III: the infrastructure inventory fixture.
pub fn table3() -> String {
    let mut out = String::from("## Table III — Infrastructure inventory\n\n");
    let inventory = Inventory::paper_table3();
    let _ = writeln!(out, "| node | name | applications |");
    let _ = writeln!(out, "|---|---|---|");
    for node in inventory.nodes() {
        let _ = writeln!(
            out,
            "| {} | {} | {} |",
            node.id,
            node.name,
            node.applications.join(", ")
        );
    }
    let _ = writeln!(
        out,
        "| all | — | {} (common keyword) |",
        inventory.common_keywords().join(", ")
    );
    out
}

/// Table IV: the vulnerability attribute/score bands, probed through
/// the live scoring functions.
pub fn table4() -> String {
    let ctx = EvaluationContext::paper_use_case();
    let mut out = String::from("## Table IV — Vulnerability feature scoring bands (probed)\n\n");
    let probe = |build: &dyn Fn(&mut cais_stix::sdo::VulnerabilityBuilder)| {
        let mut builder = cais_stix::sdo::Vulnerability::builder("probe");
        builder
            .created(ctx.now.add_days(-400))
            .modified(ctx.now.add_days(-400));
        build(&mut builder);
        vulnerability::evaluate_features(&builder.build(), &ctx)
    };
    let fmt = |v: FeatureValue| match v {
        FeatureValue::Empty => "empty".to_owned(),
        FeatureValue::Scored(x) => x.to_string(),
    };
    let _ = writeln!(out, "| feature | attribute | score |");
    let _ = writeln!(out, "|---|---|---|");
    for (os, label) in [
        ("windows", "windows"),
        ("debian", "linux family"),
        ("solaris", "other"),
    ] {
        let values = probe(&|b| {
            b.operating_system(os);
        });
        let _ = writeln!(out, "| operating_system | {label} | {} |", fmt(values[0]));
    }
    let fresh = probe(&|b| {
        b.created(ctx.now.add_millis(-3_600_000))
            .modified(ctx.now.add_millis(-3_600_000));
    });
    let _ = writeln!(out, "| modified_created | last_24h | {} |", fmt(fresh[4]));
    let year_old = probe(&|b| {
        b.created(ctx.now.add_days(-200))
            .modified(ctx.now.add_days(-200));
    });
    let _ = writeln!(
        out,
        "| modified_created | last_year | {} |",
        fmt(year_old[4])
    );
    let refs = probe(&|b| {
        b.external_reference(cais_stix::common::ExternalReference::cve("CVE-2017-9805"))
            .external_reference(cais_stix::common::ExternalReference::capec("CAPEC-586"));
    });
    let _ = writeln!(
        out,
        "| external_references | multi_known_ref | {} |",
        fmt(refs[7])
    );
    for (cvss, label) in [
        (9.8, "critical"),
        (8.1, "high"),
        (5.0, "medium"),
        (2.0, "low"),
    ] {
        let values = probe(&|b| {
            b.external_reference(cais_stix::common::ExternalReference::cve("CVE-2099-9999"))
                .cvss_score(cvss);
        });
        let _ = writeln!(out, "| cve | CVE with {label} CVSS | {} |", fmt(values[8]));
    }
    out
}

/// Table V: the full RCE use-case scoring run.
pub fn table5() -> String {
    let ctx = EvaluationContext::paper_use_case();
    let ts = vulnerability::evaluate(&vulnerability::paper_rce_ioc(), &ctx);
    let mut out = String::from("## Table V — RCE use-case threat score\n\n");
    let paper_xi = ["3", "1", "2", "1", "2", "1", "—", "5", "4"];
    let paper_pi = [
        0.0952, 0.0952, 0.1429, 0.0952, 0.0476, 0.0476, 0.0, 0.2738, 0.2024,
    ];
    let _ = writeln!(out, "| feature | paper Xi | Xi | paper Pi | Pi |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (i, line) in ts.breakdown().lines.iter().enumerate() {
        let xi = match line.value {
            FeatureValue::Empty => "—".to_owned(),
            FeatureValue::Scored(v) => v.to_string(),
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.4} | {:.4} |",
            line.feature, paper_xi[i], xi, paper_pi[i], line.weight
        );
    }
    let _ = writeln!(
        out,
        "\n* completeness Cp = {:.4} (paper: 8/9 = 0.8889)",
        ts.completeness()
    );
    if let Some(totals) = ts.breakdown().criteria_totals {
        let _ = writeln!(
            out,
            "* criteria point totals: R={} A={} T={} V={} (evaluated features sum = {})",
            totals.relevance,
            totals.accuracy,
            totals.timeliness,
            totals.variety,
            totals.total()
        );
    }
    let _ = writeln!(
        out,
        "* **TS(RCE) = {:.4}** (paper: 2.7406; exact closed form 8/9 × 259/84 = {:.4})",
        ts.total(),
        8.0 / 9.0 * 259.0 / 84.0
    );
    out
}

/// Fig. 1: the architecture exercised end to end, with stage counters
/// and throughput.
pub fn fig1() -> String {
    let mut out = String::from("## Fig. 1 — Architecture / pipeline throughput\n\n");
    let _ = writeln!(
        out,
        "| feeds | records | dup rate | dropped | cIoCs | rIoCs | records/s |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    for (feeds, per_feed, dup) in [(2usize, 250usize, 0.1f64), (4, 250, 0.3), (8, 250, 0.5)] {
        let mut platform = workloads::platform();
        let mut records =
            workloads::record_stream(7, feeds, per_feed, dup, 0.2, platform.context().now);
        records.push(workloads::struts_advisory(platform.context()));
        let total = records.len();
        let start = Instant::now();
        let report = platform.ingest_feed_records(records).expect("ingestion");
        let elapsed = start.elapsed().as_secs_f64();
        let _ = writeln!(
            out,
            "| {} | {} | {:.0}% | {} | {} | {} | {:.0} |",
            feeds,
            total,
            dup * 100.0,
            report.duplicates_dropped,
            report.ciocs,
            report.riocs,
            total as f64 / elapsed,
        );
    }
    out
}

/// Fig. 2: the dashboard, rendered.
pub fn fig2() -> String {
    let mut platform = workloads::platform();
    let inventory = Inventory::paper_table3();
    let packets = cais_infra::sensors::nids::generate_traffic(
        5,
        400,
        0.1,
        &inventory,
        platform.context().now,
    );
    platform.ingest_packets(&packets);
    platform
        .ingest_feed_records(vec![workloads::struts_advisory(platform.context())])
        .expect("ingestion");
    let mut state = DashboardState::new(inventory);
    for alarm in platform.context().alarms.read().iter() {
        state.apply_alarm(alarm.clone());
    }
    for rioc in platform.riocs() {
        state.apply_rioc(rioc.clone());
    }
    let mut out = String::from("## Fig. 2 — Dashboard\n\n```text\n");
    out.push_str(&render::ascii(&state));
    out.push_str("```\n");
    out
}

/// Fig. 3: node visualization data for the affected node.
pub fn fig3() -> String {
    let mut platform = workloads::platform();
    platform
        .ingest_feed_records(vec![workloads::struts_advisory(platform.context())])
        .expect("ingestion");
    let mut state = DashboardState::new(Inventory::paper_table3());
    for rioc in platform.riocs() {
        state.apply_rioc(rioc.clone());
    }
    let view = NodeView::build(&state, NodeId(4)).expect("node 4");
    let mut out = String::from("## Fig. 3 — Node visualization data\n\n");
    let _ = writeln!(out, "* node: {} ({:?})", view.name, view.node_type);
    let _ = writeln!(out, "* operating system: {}", view.operating_system);
    let _ = writeln!(out, "* known IPs: {:?}", view.known_ips);
    let _ = writeln!(out, "* networks: {:?}", view.networks);
    let _ = writeln!(
        out,
        "* badge: alarms={} rIoCs={}",
        view.badge.alarm_count(),
        view.badge.riocs
    );
    for line in &view.rioc_summaries {
        let _ = writeln!(out, "* rIoC: {line}");
    }
    out
}

/// Fig. 4: the security-issue detail.
pub fn fig4() -> String {
    let mut platform = workloads::platform();
    platform
        .ingest_feed_records(vec![workloads::struts_advisory(platform.context())])
        .expect("ingestion");
    let rioc = &platform.riocs()[0];
    let issue = SecurityIssue::from_rioc(rioc, &Inventory::paper_table3());
    let mut out = String::from("## Fig. 4 — Security issue detail\n\n");
    let _ = writeln!(out, "* CVE: {}", issue.cve.as_deref().unwrap_or("-"));
    let _ = writeln!(out, "* description: {}", issue.description);
    let _ = writeln!(
        out,
        "* affected: {} on {}",
        issue.affected_application.as_deref().unwrap_or("-"),
        issue.affected_nodes.join(", ")
    );
    let _ = writeln!(
        out,
        "* threat score: {:.4} [{}]",
        issue.threat_score, issue.priority
    );
    let _ = writeln!(out, "* stored eIoC: MISP event {:?}", issue.misp_event_id);
    out
}

/// Prose II-A: deduplication/aggregation load reduction across a
/// duplication-rate sweep.
pub fn dedup_sweep() -> String {
    let mut out = String::from("## Dedup/aggregation — analyst-load reduction\n\n");
    let _ = writeln!(
        out,
        "| dup rate | overlap | in | out (unique) | reduction |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (dup, overlap) in [(0.0, 0.0), (0.2, 0.2), (0.4, 0.3), (0.6, 0.4), (0.8, 0.5)] {
        let mut platform = workloads::platform();
        let records = workloads::record_stream(3, 4, 300, dup, overlap, platform.context().now);
        let total = records.len();
        let report = platform.ingest_feed_records(records).expect("ingestion");
        let kept = report.records_in - report.duplicates_dropped;
        let _ = writeln!(
            out,
            "| {:.0}% | {:.0}% | {} | {} | {:.1}% |",
            dup * 100.0,
            overlap * 100.0,
            total,
            kept,
            100.0 * report.duplicates_dropped as f64 / total as f64,
        );
    }
    out
}

/// Prose III: eIoC→rIoC size reduction.
pub fn reduction_ratio() -> String {
    let mut platform = workloads::platform();
    platform
        .ingest_feed_records(vec![workloads::struts_advisory(platform.context())])
        .expect("ingestion");
    let eioc = &platform.eiocs()[0];
    let rioc = &platform.riocs()[0];
    let eioc_bytes = serde_json::to_string(eioc).expect("eioc json").len();
    let rioc_bytes = serde_json::to_string(rioc).expect("rioc json").len();
    let mut out = String::from("## rIoC size reduction\n\n");
    let _ = writeln!(out, "* eIoC (stored/shared form): {eioc_bytes} bytes");
    let _ = writeln!(out, "* rIoC (dashboard form): {rioc_bytes} bytes");
    let _ = writeln!(
        out,
        "* reduction: {:.1}× smaller",
        eioc_bytes as f64 / rioc_bytes as f64
    );
    out
}

/// Future work: detection / false-positive / false-negative comparison
/// against the static baseline.
pub fn baseline_comparison() -> String {
    let ctx = EvaluationContext::paper_use_case();
    let population = labeled_population(11, 600, 0.3, &ctx);
    let aware = evaluate_detection(Approach::ContextAware, &population, &ctx);
    let fixed = evaluate_detection(Approach::Static { threshold: 3.5 }, &population, &ctx);
    let mut out = String::from("## Context-aware vs static detection\n\n");
    let _ = writeln!(
        out,
        "| approach | detection | FP rate | precision | TP/FP/FN/TN |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (name, m) in [
        ("context-aware (rIoC)", aware),
        ("static (CVSS ≥ 3.5)", fixed),
    ] {
        let _ = writeln!(
            out,
            "| {name} | {:.1}% | {:.1}% | {:.1}% | {}/{}/{}/{} |",
            m.detection_rate() * 100.0,
            m.false_positive_rate() * 100.0,
            m.precision() * 100.0,
            m.true_positives,
            m.false_positives,
            m.false_negatives,
            m.true_negatives,
        );
    }
    out
}

/// Section II-A: the NLP triage component — classification and
/// infrastructure-aware relevance tagging.
pub fn nlp_triage() -> String {
    use cais_nlp::relevance;
    let mut out = String::from("## NLP triage (Section II-A)\n\n");
    let products: Vec<String> = Inventory::paper_table3()
        .all_applications()
        .into_iter()
        .map(str::to_owned)
        .collect();
    let samples = [
        "Remote code execution exploit published for Apache Struts",
        "Nueva fuga de información tras acceso no autorizado a GitLab",
        "Ransomware campaign hits SharePoint deployments",
        "Quarterly earnings beat analyst expectations",
    ];
    let _ = writeln!(out, "| text | relevant | confidence | matched products |");
    let _ = writeln!(out, "|---|---|---|---|");
    for sample in samples {
        let tag = relevance::tag(sample, &products);
        let _ = writeln!(
            out,
            "| {} | {} | {:.2} | {} |",
            sample,
            if tag.relevant { "yes" } else { "no" },
            tag.confidence,
            if tag.matched_products.is_empty() {
                "—".to_owned()
            } else {
                tag.matched_products.join(", ")
            },
        );
    }
    out
}

/// Detection replay: shared indicators firing on live traffic and the
/// resulting score delta.
pub fn detection_replay() -> String {
    use cais_infra::sensors::nids;
    let mut out = String::from("## Detection replay (indicators → sightings → scores)\n\n");
    let mut platform = workloads::platform();
    let stamp = platform.context().now.add_days(-1);
    let mut indicator =
        cais_stix::sdo::Indicator::builder("[ipv4-addr:value = '203.0.113.77']", stamp);
    indicator
        .name("partner-c2")
        .label("malicious-activity")
        .created(stamp)
        .modified(stamp);
    let bundle = cais_stix::Bundle::new(vec![indicator.build().into()]);
    platform.ingest_stix_bundle(&bundle).expect("ingest bundle");
    let packet = nids::Packet {
        at: platform.context().now,
        src_ip: "203.0.113.77".into(),
        dst_ip: "192.168.1.11".into(),
        dst_port: 443,
        payload: "tls".into(),
    };
    platform.ingest_packets(&[packet]);
    let _ = writeln!(out, "* indicators armed: {}", platform.armed_indicators());
    let _ = writeln!(out, "* detections fired: {}", platform.detections().len());

    // Score the corroborated advisory vs a cold platform.
    let advisory = |p: &cais_core::Platform| {
        cais_feeds::FeedRecord::new(
            cais_common::Observable::new(cais_common::ObservableKind::Ipv4, "203.0.113.77"),
            cais_feeds::ThreatCategory::CommandAndControl,
            "partner-feed",
            p.context().now.add_days(-2),
        )
        .with_description("emotet c2 node")
    };
    platform
        .ingest_feed_records(vec![advisory(&platform)])
        .expect("ingest");
    let corroborated = platform.eiocs().last().expect("eioc").score();
    let mut cold = workloads::platform();
    cold.ingest_feed_records(vec![advisory(&cold)])
        .expect("ingest");
    let cold_score = cold.eiocs().last().expect("eioc").score();
    let _ = writeln!(
        out,
        "* corroborated advisory: TS={corroborated:.4} vs cold TS={cold_score:.4} \
         (+{:.4} from infrastructure confirmation)",
        corroborated - cold_score
    );
    out
}

/// Measured inputs for [`pipeline_bench_doc`], produced by the
/// `pipeline_json` binary: one parallel ingestion round over a seeded
/// synthetic workload.
#[derive(Debug, Clone)]
pub struct PipelineBenchMeasurement {
    /// Seed of the synthetic record stream.
    pub seed: u64,
    /// Synthetic feeds in the stream.
    pub feeds: usize,
    /// Records generated per feed.
    pub records_per_feed: usize,
    /// Records offered to the platform (after duplication/overlap).
    pub records: usize,
    /// Worker threads of the parallel ingest path.
    pub workers: usize,
    /// The round's report, including per-stage wall times.
    pub report: cais_core::PlatformReport,
    /// The platform's telemetry after the round.
    pub telemetry: cais_telemetry::Snapshot,
}

/// The `BENCH_pipeline.json` schema: workload shape, top-line counters
/// and total stage time (whose records/s is the headline
/// [`crate::compare`] guards), per-stage throughput, and the platform's
/// telemetry snapshot.
pub fn pipeline_bench_doc(m: &PipelineBenchMeasurement) -> serde_json::Value {
    let report = &m.report;
    let stages: Vec<_> = report
        .stages
        .stages()
        .into_iter()
        .map(|(name, stage)| {
            serde_json::json!({
                "stage": name,
                "records_in": stage.records_in,
                "records_out": stage.records_out,
                "dropped": stage.dropped,
                "wall_nanos": stage.wall_nanos,
                "input_throughput_rps": stage.throughput(),
                "output_throughput_rps": stage.output_throughput(),
            })
        })
        .collect();
    serde_json::json!({
        "benchmark": "pipeline_json",
        "workload": {
            "seed": m.seed,
            "feeds": m.feeds,
            "records_per_feed": m.records_per_feed,
            "records": m.records,
            "workers": m.workers,
        },
        "totals": {
            "records_in": report.records_in,
            "nlp_filtered": report.nlp_filtered,
            "benign_filtered": report.benign_filtered,
            "duplicates_dropped": report.duplicates_dropped,
            "ciocs": report.ciocs,
            "eiocs": report.eiocs,
            "riocs": report.riocs,
            "total_nanos": report.stages.total_nanos(),
        },
        "stages": stages,
        "telemetry": serde_json::to_value(&m.telemetry).expect("snapshot serializes"),
    })
}

/// Measured inputs for [`reduce_bench_doc`], produced by the
/// `reduce_json` binary (and reproducible via the `reduce_scale`
/// criterion bench).
#[derive(Debug, Clone, Copy)]
pub struct ReduceBenchMeasurement {
    /// Fleet size of the synthetic inventory.
    pub nodes: usize,
    /// eIoCs pushed through the indexed reducer.
    pub eiocs: usize,
    /// eIoCs pushed through the linear baseline (a prefix slice; the
    /// full population would take minutes at baseline speed).
    pub linear_sample: usize,
    /// Wall time of the indexed pass over all `eiocs`.
    pub indexed_nanos: u64,
    /// Wall time of the linear pass over `linear_sample` eIoCs.
    pub linear_nanos: u64,
    /// rIoCs the indexed pass produced.
    pub riocs: usize,
    /// Reducer cache stats after the indexed pass.
    pub stats: cais_core::ReduceCacheStats,
}

impl ReduceBenchMeasurement {
    /// Per-eIoC wall time of the indexed reducer.
    pub fn indexed_nanos_per_eioc(&self) -> f64 {
        self.indexed_nanos as f64 / self.eiocs.max(1) as f64
    }

    /// Per-eIoC wall time of the linear baseline.
    pub fn linear_nanos_per_eioc(&self) -> f64 {
        self.linear_nanos as f64 / self.linear_sample.max(1) as f64
    }

    /// Per-eIoC speedup of the index over the linear scan.
    pub fn speedup(&self) -> f64 {
        self.linear_nanos_per_eioc() / self.indexed_nanos_per_eioc().max(f64::MIN_POSITIVE)
    }
}

/// The committed `BENCH_reduce.json` schema: workload shape, both
/// passes' absolute and per-element timings, the derived speedup and
/// the reducer's cache counters. CI uploads this as an artifact for
/// trend tracking next to `BENCH_pipeline.json`.
pub fn reduce_bench_doc(m: &ReduceBenchMeasurement) -> serde_json::Value {
    serde_json::json!({
        "benchmark": "reduce_json",
        "workload": {
            "nodes": m.nodes,
            "eiocs": m.eiocs,
            "linear_sample": m.linear_sample,
        },
        "indexed": {
            "wall_nanos": m.indexed_nanos,
            "nanos_per_eioc": m.indexed_nanos_per_eioc(),
            "eiocs_per_sec": 1e9 / m.indexed_nanos_per_eioc().max(f64::MIN_POSITIVE),
            "riocs": m.riocs,
        },
        "linear_baseline": {
            "wall_nanos": m.linear_nanos,
            "nanos_per_eioc": m.linear_nanos_per_eioc(),
            "eiocs_per_sec": 1e9 / m.linear_nanos_per_eioc().max(f64::MIN_POSITIVE),
        },
        "speedup": m.speedup(),
        "caches": {
            "index_rebuilds": m.stats.index_rebuilds,
            "cve_memo_hits": m.stats.cve_memo_hits,
            "cve_memo_misses": m.stats.cve_memo_misses,
            "match_memo_hits": m.stats.match_memo_hits,
            "match_memo_misses": m.stats.match_memo_misses,
            "match_memo_evictions": m.stats.match_memo_evictions,
        },
    })
}

/// Measured inputs for [`share_bench_doc`], produced by the
/// `share_json` binary (and reproducible via the `share_scale`
/// criterion bench).
#[derive(Debug, Clone, Copy)]
pub struct ShareBenchMeasurement {
    /// Events in the store.
    pub events: usize,
    /// Total pulls performed (cold + warm).
    pub pulls: usize,
    /// Events mutated between the warm and churn pulls.
    pub churned: usize,
    /// Wall time of the naive full re-serialization pull.
    pub naive_nanos: u64,
    /// Wall time of the first cached pull (all misses).
    pub cold_nanos: u64,
    /// Best wall time among repeat pulls of the unchanged store.
    pub warm_nanos: u64,
    /// Wall time of the pull after churning `churned` events.
    pub churn_nanos: u64,
    /// Size of one pull's output.
    pub pull_bytes: usize,
    /// Whether cached pull bytes matched the naive export exactly.
    pub equivalent: bool,
    /// Whether serial and parallel STIX bundle assembly agreed.
    pub stix_parallel_matches: bool,
    /// Share-cache counters after the run.
    pub stats: cais_misp::ShareCacheStats,
}

impl ShareBenchMeasurement {
    /// Warm-pull speedup over the naive full re-serialization.
    pub fn warm_speedup(&self) -> f64 {
        self.naive_nanos as f64 / (self.warm_nanos as f64).max(1.0)
    }

    /// Churn-pull speedup over the naive full re-serialization.
    pub fn churn_speedup(&self) -> f64 {
        self.naive_nanos as f64 / (self.churn_nanos as f64).max(1.0)
    }
}

/// The committed `BENCH_share.json` schema: workload shape, the naive
/// baseline and the cold/warm/churn cached pulls, derived speedups,
/// the byte-equivalence verdicts and the share-cache counters. CI
/// uploads this as an artifact next to `BENCH_pipeline.json` and
/// `BENCH_reduce.json`.
pub fn share_bench_doc(m: &ShareBenchMeasurement) -> serde_json::Value {
    serde_json::json!({
        "benchmark": "share_json",
        "workload": {
            "events": m.events,
            "pulls": m.pulls,
            "churned": m.churned,
        },
        "naive": { "wall_nanos": m.naive_nanos },
        "cold": { "wall_nanos": m.cold_nanos },
        "warm": {
            "wall_nanos": m.warm_nanos,
            "speedup_vs_naive": m.warm_speedup(),
        },
        "churn": {
            "wall_nanos": m.churn_nanos,
            "speedup_vs_naive": m.churn_speedup(),
        },
        "pull_bytes": m.pull_bytes,
        "equivalence": {
            "cached_matches_naive": m.equivalent,
            "stix_serial_matches_parallel": m.stix_parallel_matches,
        },
        "caches": {
            "hits": m.stats.hits,
            "misses": m.stats.misses,
            "evictions": m.stats.evictions,
            "entries": m.stats.entries,
            "bytes": m.stats.bytes,
            "assembled_hits": m.stats.assembled_hits,
            "assembled_misses": m.stats.assembled_misses,
        },
    })
}

/// Measured inputs for [`decay_bench_doc`], produced by the
/// `decay_json` binary.
#[derive(Debug, Clone, Copy)]
pub struct DecayBenchMeasurement {
    /// Events in the store.
    pub events: usize,
    /// Events mutated between the warm passes (version churn).
    pub churned: usize,
    /// Sightings recorded before the passes.
    pub sightings: usize,
    /// Wall time of the from-scratch rescore (every base re-derived).
    pub full_nanos: u64,
    /// Wall time of the first incremental pass (cold: all bases derived).
    pub cold_nanos: u64,
    /// Best wall time among incremental passes after churn.
    pub incremental_nanos: u64,
    /// Events whose base was re-derived in the measured incremental pass.
    pub rebased: usize,
    /// Events whose cached base was reused in that pass.
    pub reused: usize,
    /// Events expired (below threshold) after the final pass.
    pub expired: usize,
    /// Whether incremental and from-scratch scores matched exactly.
    pub equivalent: bool,
}

impl DecayBenchMeasurement {
    /// Incremental-pass speedup over the from-scratch rescore.
    pub fn speedup(&self) -> f64 {
        self.full_nanos as f64 / (self.incremental_nanos as f64).max(1.0)
    }

    /// Events scored per second on the incremental path.
    pub fn incremental_events_per_sec(&self) -> f64 {
        self.events as f64 / (self.incremental_nanos as f64 / 1e9).max(f64::MIN_POSITIVE)
    }
}

/// The committed `BENCH_decay.json` schema: workload shape, the
/// from-scratch baseline, the cold and post-churn incremental passes,
/// the derived speedup and the equivalence verdict. CI uploads this as
/// an artifact next to the other `BENCH_*.json` files.
pub fn decay_bench_doc(m: &DecayBenchMeasurement) -> serde_json::Value {
    serde_json::json!({
        "benchmark": "decay_json",
        "workload": {
            "events": m.events,
            "churned": m.churned,
            "sightings": m.sightings,
        },
        "full": { "wall_nanos": m.full_nanos },
        "cold": { "wall_nanos": m.cold_nanos },
        "incremental": {
            "wall_nanos": m.incremental_nanos,
            "events_per_sec": m.incremental_events_per_sec(),
            "rebased": m.rebased,
            "reused": m.reused,
        },
        "expired": m.expired,
        "speedup": m.speedup(),
        "equivalence": { "incremental_matches_full": m.equivalent },
    })
}

/// Measured inputs for [`trace_bench_doc`], produced by the
/// `trace_json` binary: the same seeded ingest workload run with
/// tracing disabled (baseline), fully traced, and 1-in-N sampled, each
/// timed as the best of `reps` fresh-platform passes.
#[derive(Debug, Clone, Copy)]
pub struct TraceBenchMeasurement {
    /// Feed records ingested per pass (across all rounds).
    pub records: usize,
    /// Ingestion rounds per pass.
    pub rounds: usize,
    /// Fresh-platform repetitions per configuration (best kept).
    pub reps: usize,
    /// Worker threads of the parallel ingest path.
    pub workers: usize,
    /// Best wall time with the tracer disabled.
    pub baseline_nanos: u64,
    /// Best wall time with full causal tracing (every root sampled).
    pub traced_nanos: u64,
    /// Best wall time with 1-in-`sample_every` root sampling.
    pub sampled_nanos: u64,
    /// The sampling stride of the sampled configuration.
    pub sample_every: u64,
    /// Spans buffered across all subsystem rings after a traced pass.
    pub spans_recorded: usize,
}

impl TraceBenchMeasurement {
    /// Percent overhead of full tracing over the disabled baseline.
    pub fn traced_overhead_pct(&self) -> f64 {
        (self.traced_nanos as f64 / (self.baseline_nanos as f64).max(1.0) - 1.0) * 100.0
    }

    /// Percent overhead of sampled tracing over the disabled baseline.
    pub fn sampled_overhead_pct(&self) -> f64 {
        (self.sampled_nanos as f64 / (self.baseline_nanos as f64).max(1.0) - 1.0) * 100.0
    }

    /// Records ingested per second with full tracing — the headline
    /// [`crate::compare`] guards.
    pub fn traced_records_per_sec(&self) -> f64 {
        self.records as f64 / (self.traced_nanos as f64 / 1e9).max(f64::MIN_POSITIVE)
    }

    /// Records ingested per second with tracing disabled.
    pub fn baseline_records_per_sec(&self) -> f64 {
        self.records as f64 / (self.baseline_nanos as f64 / 1e9).max(f64::MIN_POSITIVE)
    }
}

/// The committed `BENCH_trace.json` schema: workload shape, the three
/// timed configurations and the derived overhead percentages, plus the
/// bar the run is held to (<5% full-tracing overhead; sampling no
/// slower than full tracing). CI uploads this as an artifact next to
/// the other `BENCH_*.json` files.
pub fn trace_bench_doc(m: &TraceBenchMeasurement) -> serde_json::Value {
    serde_json::json!({
        "benchmark": "trace_json",
        "workload": {
            "records": m.records,
            "rounds": m.rounds,
            "reps": m.reps,
            "workers": m.workers,
        },
        "baseline": {
            "wall_nanos": m.baseline_nanos,
            "records_per_sec": m.baseline_records_per_sec(),
        },
        "traced": {
            "wall_nanos": m.traced_nanos,
            "records_per_sec": m.traced_records_per_sec(),
            "overhead_pct": m.traced_overhead_pct(),
            "spans_recorded": m.spans_recorded,
        },
        "sampled": {
            "wall_nanos": m.sampled_nanos,
            "overhead_pct": m.sampled_overhead_pct(),
            "sample_every": m.sample_every,
        },
        "bar": {
            "max_overhead_pct": 5.0,
            "within": m.traced_overhead_pct() < 5.0,
            "sampled_not_slower": m.sampled_nanos as f64 <= m.traced_nanos as f64 * 1.10,
        },
    })
}

/// Measured inputs for [`serve_bench_doc`], produced by the `loadgen`
/// binary: a poll-churn pull workload (connect → pull → close, the
/// HTTP-polling shape real TAXII consumers have) driven at
/// `connections` concurrent connections against the multiplexed core,
/// plus a high-scale mixed ingest/pull/search/scrape run.
#[derive(Debug, Clone, Copy)]
pub struct ServeBenchMeasurement {
    /// Concurrent connections during the poll churn.
    pub connections: usize,
    /// Completed pull polls of the churn.
    pub polls: usize,
    /// Wall time for the multiplexed core to serve all polls.
    pub multiplexed_nanos: u64,
    /// Client-observed p50 request→response latency on the core, from
    /// the log₂ histograms.
    pub p50_nanos: u64,
    /// Client-observed p95 latency on the core.
    pub p95_nanos: u64,
    /// Client-observed p99 latency on the core.
    pub p99_nanos: u64,
    /// Completed search polls (match-filtered pulls) in the high-scale
    /// mixed run.
    pub search_polls: u64,
    /// Client-observed p50 latency of the mixed run's search polls.
    pub search_p50_nanos: u64,
    /// Client-observed p95 latency of the search polls.
    pub search_p95_nanos: u64,
    /// Client-observed p99 latency of the search polls.
    pub search_p99_nanos: u64,
    /// Concurrent connections of the high-scale mixed run.
    pub high_scale_connections: usize,
    /// Responses the high-scale run expected (one per connection).
    pub high_scale_expected: u64,
    /// Responses the high-scale run actually received.
    pub high_scale_responses: u64,
    /// Wall time of the high-scale run.
    pub high_scale_nanos: u64,
}

impl ServeBenchMeasurement {
    /// Polls served per second by the multiplexed core — the headline
    /// [`crate::compare`] guards.
    pub fn multiplexed_polls_per_sec(&self) -> f64 {
        self.polls as f64 / (self.multiplexed_nanos as f64 / 1e9).max(f64::MIN_POSITIVE)
    }

    /// Responses the high-scale run failed to receive.
    pub fn high_scale_dropped(&self) -> u64 {
        self.high_scale_expected
            .saturating_sub(self.high_scale_responses)
    }
}

/// The committed `BENCH_serve.json` schema: the churn workload, the
/// core's throughput and client-observed latency percentiles, the mixed
/// run's match-filtered search-poll latency percentiles, the high-scale
/// zero-drop run, and the bar the run is held to (zero dropped
/// responses at high scale). CI uploads this as an artifact next to the
/// other `BENCH_*.json` files.
pub fn serve_bench_doc(m: &ServeBenchMeasurement) -> serde_json::Value {
    serde_json::json!({
        "benchmark": "serve_json",
        "workload": {
            "connections": m.connections,
            "polls": m.polls,
            "scenario": "poll-churn pull (connect, pull, close)",
        },
        "multiplexed": {
            "wall_nanos": m.multiplexed_nanos,
            "polls_per_sec": m.multiplexed_polls_per_sec(),
            "latency": {
                "p50_nanos": m.p50_nanos,
                "p95_nanos": m.p95_nanos,
                "p99_nanos": m.p99_nanos,
            },
        },
        "search": {
            "responses": m.search_polls,
            "latency": {
                "p50_nanos": m.search_p50_nanos,
                "p95_nanos": m.search_p95_nanos,
                "p99_nanos": m.search_p99_nanos,
            },
        },
        "high_scale": {
            "connections": m.high_scale_connections,
            "expected_responses": m.high_scale_expected,
            "responses": m.high_scale_responses,
            "dropped": m.high_scale_dropped(),
            "wall_nanos": m.high_scale_nanos,
        },
        "bar": {
            "zero_dropped": m.high_scale_dropped() == 0,
        },
    })
}

/// Measured inputs for [`federation_bench_doc`], produced by the
/// `federation_json` binary: a mesh of real framed-TCP federation
/// peers run to the policy-filtered fixpoint twice — fault-free
/// (timed: the sync-throughput headline) and under seeded wire chaos
/// (the convergence-robustness half of the claim).
#[derive(Debug, Clone, Copy)]
pub struct FederationBenchMeasurement {
    /// Peers in the mesh.
    pub peers: usize,
    /// Events seeded round-robin across the peers.
    pub events: usize,
    /// Rounds the fault-free run needed to reach quiescence.
    pub healthy_rounds: u32,
    /// Wall time of the fault-free run to quiescence.
    pub healthy_nanos: u64,
    /// Push frames the fault-free run sent.
    pub healthy_frames: u64,
    /// Event deliveries (receiver-side inserts) across all peers in
    /// the fault-free run.
    pub delivered: u64,
    /// Rounds the chaos run needed to reach quiescence.
    pub chaos_rounds: u32,
    /// Wall time of the chaos run to quiescence.
    pub chaos_nanos: u64,
    /// Frames that failed delivery under chaos.
    pub chaos_failures: u64,
    /// Delivery retries the chaos run spent.
    pub chaos_retries: u64,
    /// Whether the chaos run reached quiescence inside its budget.
    pub chaos_converged: bool,
    /// Whether the chaos run's canonical views byte-match the
    /// fault-free run's — the path-independence claim.
    pub fixpoints_match: bool,
    /// Cross-tenant leaks found across both runs (must be 0).
    pub leaks: usize,
}

impl FederationBenchMeasurement {
    /// Event deliveries per second in the fault-free run — the
    /// headline [`crate::compare`] guards.
    pub fn deliveries_per_sec(&self) -> f64 {
        self.delivered as f64 / (self.healthy_nanos as f64 / 1e9).max(f64::MIN_POSITIVE)
    }

    /// Extra rounds the chaos schedule cost over the fault-free run.
    pub fn chaos_round_overhead(&self) -> u32 {
        self.chaos_rounds.saturating_sub(self.healthy_rounds)
    }
}

/// The committed `BENCH_federation.json` schema: mesh shape, the
/// fault-free run's throughput, the chaos run's cost, and the bars the
/// run is held to (both runs converge, byte-identical fixpoints, zero
/// leaks). CI uploads this as an artifact next to the other
/// `BENCH_*.json` files.
pub fn federation_bench_doc(m: &FederationBenchMeasurement) -> serde_json::Value {
    serde_json::json!({
        "benchmark": "federation_json",
        "workload": {
            "peers": m.peers,
            "topology": "mesh",
            "events": m.events,
        },
        "healthy": {
            "wall_nanos": m.healthy_nanos,
            "rounds": m.healthy_rounds,
            "frames": m.healthy_frames,
            "delivered": m.delivered,
            "deliveries_per_sec": m.deliveries_per_sec(),
        },
        "chaos": {
            "wall_nanos": m.chaos_nanos,
            "rounds": m.chaos_rounds,
            "round_overhead": m.chaos_round_overhead(),
            "failures": m.chaos_failures,
            "retries": m.chaos_retries,
            "converged": m.chaos_converged,
        },
        "bar": {
            "chaos_converged": m.chaos_converged,
            "fixpoints_match": m.fixpoints_match,
            "zero_leaks": m.leaks == 0,
            "within": m.chaos_converged && m.fixpoints_match && m.leaks == 0,
        },
    })
}

/// Client-observed p99 ceiling, in nanoseconds, for one indexed query
/// over the million-attribute population — the sub-millisecond bar the
/// `search_json` run is held to while churn writers run concurrently.
pub const SEARCH_BAR_MAX_P99_NANOS: u64 = 1_000_000;

/// Minimum speedup of an incremental index sync (after ~1% churn) over
/// a from-scratch rebuild — the point of riding the store changelog.
pub const SEARCH_BAR_MIN_INCREMENTAL_SPEEDUP: f64 = 5.0;

/// Measured inputs for [`search_bench_doc`], produced by the
/// `search_json` binary: an inverted index built over a
/// million-attribute store, queried across every language axis while a
/// churn writer mutates events, then an incremental sync timed against
/// a full rebuild over the same churn.
#[derive(Debug, Clone, Copy)]
pub struct SearchBenchMeasurement {
    /// Events in the store.
    pub events: usize,
    /// Attributes across those events.
    pub attributes: usize,
    /// Timed queries executed.
    pub queries: usize,
    /// Store mutations the concurrent churn writer landed during the
    /// timed query window.
    pub churn_ops: u64,
    /// Wall time of the cold build (first sync over the full store).
    pub cold_build_nanos: u64,
    /// Total wall time of the timed query loop (queries only, syncs
    /// excluded).
    pub query_wall_nanos: u64,
    /// Exact p50 single-query latency.
    pub p50_nanos: u64,
    /// Exact p95 single-query latency.
    pub p95_nanos: u64,
    /// Exact p99 single-query latency.
    pub p99_nanos: u64,
    /// Events returned across all timed queries.
    pub hits: u64,
    /// Events churned before the incremental-vs-rebuild comparison.
    pub churned: usize,
    /// Wall time of the incremental sync absorbing that churn.
    pub incremental_sync_nanos: u64,
    /// Wall time of the from-scratch rebuild over the same store.
    pub rebuild_nanos: u64,
    /// Whether indexed results matched the linear-scan oracle on every
    /// equivalence probe.
    pub equivalent: bool,
}

impl SearchBenchMeasurement {
    /// Queries answered per second — the headline [`crate::compare`]
    /// guards.
    pub fn queries_per_sec(&self) -> f64 {
        self.queries as f64 / (self.query_wall_nanos as f64 / 1e9).max(f64::MIN_POSITIVE)
    }

    /// Incremental-sync speedup over the from-scratch rebuild.
    pub fn incremental_speedup(&self) -> f64 {
        self.rebuild_nanos as f64 / (self.incremental_sync_nanos as f64).max(1.0)
    }

    /// Whether the run clears every bar.
    pub fn within_bar(&self) -> bool {
        self.p99_nanos < SEARCH_BAR_MAX_P99_NANOS
            && self.incremental_speedup() >= SEARCH_BAR_MIN_INCREMENTAL_SPEEDUP
            && self.equivalent
    }
}

/// The committed `BENCH_search.json` schema: workload shape, the cold
/// build, the under-churn query percentiles, the incremental-vs-rebuild
/// comparison, the equivalence verdict, and the bars the run is held to
/// (sub-millisecond p99; ≥5× incremental speedup). CI uploads this as
/// an artifact next to the other `BENCH_*.json` files.
pub fn search_bench_doc(m: &SearchBenchMeasurement) -> serde_json::Value {
    serde_json::json!({
        "benchmark": "search_json",
        "workload": {
            "events": m.events,
            "attributes": m.attributes,
            "queries": m.queries,
            "churn_ops": m.churn_ops,
        },
        "cold_build": { "wall_nanos": m.cold_build_nanos },
        "query": {
            "wall_nanos": m.query_wall_nanos,
            "queries_per_sec": m.queries_per_sec(),
            "hits": m.hits,
            "latency": {
                "p50_nanos": m.p50_nanos,
                "p95_nanos": m.p95_nanos,
                "p99_nanos": m.p99_nanos,
            },
        },
        "incremental": {
            "churned": m.churned,
            "sync_nanos": m.incremental_sync_nanos,
            "rebuild_nanos": m.rebuild_nanos,
            "speedup": m.incremental_speedup(),
        },
        "equivalence": { "indexed_matches_linear": m.equivalent },
        "bar": {
            "max_p99_nanos": SEARCH_BAR_MAX_P99_NANOS,
            "min_incremental_speedup": SEARCH_BAR_MIN_INCREMENTAL_SPEEDUP,
            "within": m.within_bar(),
        },
    })
}

/// Every section in order.
pub fn full_report() -> String {
    [
        table1(),
        table2(),
        table3(),
        table4(),
        table5(),
        fig1(),
        fig2(),
        fig3(),
        fig4(),
        dedup_sweep(),
        reduction_ratio(),
        baseline_comparison(),
        nlp_triage(),
        detection_replay(),
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_section_renders() {
        let report = full_report();
        for heading in [
            "Table I",
            "Table II",
            "Table III",
            "Table IV",
            "Table V",
            "Fig. 1",
            "Fig. 2",
            "Fig. 3",
            "Fig. 4",
            "Dedup",
            "size reduction",
            "static detection",
        ] {
            assert!(report.contains(heading), "{heading} missing");
        }
        // The headline numbers are present.
        assert!(report.contains("2.7406") || report.contains("2.7407"));
        assert!(report.contains("3.15"));
    }

    #[test]
    fn table1_all_match() {
        let t = table1();
        assert_eq!(t.matches('✓').count(), 3);
        assert_eq!(t.matches('✗').count(), 0);
    }

    #[test]
    fn share_bench_doc_schema() {
        let m = share_fixture();
        let doc = share_bench_doc(&m);
        assert_eq!(doc["benchmark"], "share_json");
        assert_eq!(doc["workload"]["events"], 10_000);
        assert_eq!(doc["equivalence"]["cached_matches_naive"], true);
        assert_eq!(doc["equivalence"]["stix_serial_matches_parallel"], true);
        // 50 ms naive vs 5 ms warm → 10×.
        assert!((doc["warm"]["speedup_vs_naive"].as_f64().unwrap() - 10.0).abs() < 1e-9);
        for key in [
            "hits",
            "misses",
            "evictions",
            "entries",
            "bytes",
            "assembled_hits",
            "assembled_misses",
        ] {
            assert!(doc["caches"].get(key).is_some(), "missing caches.{key}");
        }
    }

    #[test]
    fn decay_bench_doc_schema() {
        let m = decay_fixture();
        let doc = decay_bench_doc(&m);
        assert_eq!(doc["benchmark"], "decay_json");
        assert_eq!(doc["workload"]["events"], 1_000_000);
        assert_eq!(doc["incremental"]["rebased"], 10_000);
        assert_eq!(doc["equivalence"]["incremental_matches_full"], true);
        // 800 ms full vs 80 ms incremental → 10×.
        assert!((doc["speedup"].as_f64().unwrap() - 10.0).abs() < 1e-9);
        assert!(doc["incremental"]["events_per_sec"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn serve_bench_doc_schema() {
        let m = serve_fixture();
        let doc = serve_bench_doc(&m);
        assert_eq!(doc["benchmark"], "serve_json");
        assert_eq!(doc["workload"]["connections"], 1_000);
        assert_eq!(doc["bar"]["zero_dropped"], true);
        assert_eq!(doc["high_scale"]["dropped"], 0);
        // 5000 polls over 1 s.
        assert!((doc["multiplexed"]["polls_per_sec"].as_f64().unwrap() - 5_000.0).abs() < 1e-9);
        assert!(doc["multiplexed"]["latency"]["p99_nanos"].as_u64().unwrap() > 0);
        assert_eq!(doc["search"]["responses"], 1_000);
        assert_eq!(doc["search"]["latency"]["p99_nanos"], 2_500_000);

        // A lossy high-scale run fails the zero-drop bar.
        let lossy = ServeBenchMeasurement {
            high_scale_responses: 9_999,
            ..m
        };
        let doc = serve_bench_doc(&lossy);
        assert_eq!(doc["bar"]["zero_dropped"], false);
        assert_eq!(doc["high_scale"]["dropped"], 1);
    }

    #[test]
    fn federation_bench_doc_schema() {
        let m = federation_fixture();
        let doc = federation_bench_doc(&m);
        assert_eq!(doc["benchmark"], "federation_json");
        assert_eq!(doc["workload"]["peers"], 8);
        // 448 deliveries over 1 s.
        assert!((doc["healthy"]["deliveries_per_sec"].as_f64().unwrap() - 448.0).abs() < 1e-9);
        assert_eq!(doc["chaos"]["round_overhead"], 4);
        assert_eq!(doc["bar"]["within"], true);

        // Any failed bar fails the aggregate verdict.
        let leaky = FederationBenchMeasurement { leaks: 1, ..m };
        assert_eq!(federation_bench_doc(&leaky)["bar"]["within"], false);
        let diverged = FederationBenchMeasurement {
            fixpoints_match: false,
            ..m
        };
        assert_eq!(federation_bench_doc(&diverged)["bar"]["within"], false);
    }

    #[test]
    fn search_bench_doc_schema() {
        let m = search_fixture();
        let doc = search_bench_doc(&m);
        assert_eq!(doc["benchmark"], "search_json");
        assert_eq!(doc["workload"]["attributes"], 1_000_000);
        // 5000 queries over 1 s.
        assert!((doc["query"]["queries_per_sec"].as_f64().unwrap() - 5_000.0).abs() < 1e-9);
        assert_eq!(doc["query"]["latency"]["p99_nanos"], 800_000);
        // 2 s rebuild vs 20 ms sync → 100×, clearing the 5× bar.
        assert!((doc["incremental"]["speedup"].as_f64().unwrap() - 100.0).abs() < 1e-9);
        assert_eq!(doc["bar"]["within"], true);

        // Any bar breach fails the aggregate verdict.
        let slow = SearchBenchMeasurement {
            p99_nanos: SEARCH_BAR_MAX_P99_NANOS,
            ..m
        };
        assert_eq!(search_bench_doc(&slow)["bar"]["within"], false);
        let thrashing = SearchBenchMeasurement {
            incremental_sync_nanos: 1_000_000_000,
            ..m
        };
        assert_eq!(search_bench_doc(&thrashing)["bar"]["within"], false);
        let diverged = SearchBenchMeasurement {
            equivalent: false,
            ..m
        };
        assert_eq!(search_bench_doc(&diverged)["bar"]["within"], false);
    }

    #[test]
    fn reduce_bench_doc_schema() {
        let m = reduce_fixture();
        let doc = reduce_bench_doc(&m);
        assert_eq!(doc["benchmark"], "reduce_json");
        assert_eq!(doc["workload"]["nodes"], 1000);
        assert_eq!(doc["indexed"]["riocs"], 40_000);
        // 1 µs/eIoC indexed vs 10 µs/eIoC linear → 10×.
        assert!((doc["speedup"].as_f64().unwrap() - 10.0).abs() < 1e-9);
        for key in [
            "index_rebuilds",
            "cve_memo_hits",
            "cve_memo_misses",
            "match_memo_hits",
            "match_memo_misses",
            "match_memo_evictions",
        ] {
            assert!(doc["caches"].get(key).is_some(), "missing caches.{key}");
        }
    }

    fn share_fixture() -> ShareBenchMeasurement {
        ShareBenchMeasurement {
            events: 10_000,
            pulls: 3,
            churned: 100,
            naive_nanos: 50_000_000,
            cold_nanos: 60_000_000,
            warm_nanos: 5_000_000,
            churn_nanos: 10_000_000,
            pull_bytes: 1_000_000,
            equivalent: true,
            stix_parallel_matches: true,
            stats: cais_misp::ShareCacheStats::default(),
        }
    }

    fn decay_fixture() -> DecayBenchMeasurement {
        DecayBenchMeasurement {
            events: 1_000_000,
            churned: 10_000,
            sightings: 5_000,
            full_nanos: 800_000_000,
            cold_nanos: 850_000_000,
            incremental_nanos: 80_000_000,
            rebased: 10_000,
            reused: 990_000,
            expired: 123_456,
            equivalent: true,
        }
    }

    fn serve_fixture() -> ServeBenchMeasurement {
        ServeBenchMeasurement {
            connections: 1_000,
            polls: 5_000,
            multiplexed_nanos: 1_000_000_000,
            p50_nanos: 200_000,
            p95_nanos: 900_000,
            p99_nanos: 2_000_000,
            search_polls: 1_000,
            search_p50_nanos: 300_000,
            search_p95_nanos: 1_200_000,
            search_p99_nanos: 2_500_000,
            high_scale_connections: 10_000,
            high_scale_expected: 10_000,
            high_scale_responses: 10_000,
            high_scale_nanos: 4_000_000_000,
        }
    }

    fn federation_fixture() -> FederationBenchMeasurement {
        FederationBenchMeasurement {
            peers: 8,
            events: 64,
            healthy_rounds: 3,
            healthy_nanos: 1_000_000_000,
            healthy_frames: 500,
            delivered: 448,
            chaos_rounds: 7,
            chaos_nanos: 2_500_000_000,
            chaos_failures: 30,
            chaos_retries: 25,
            chaos_converged: true,
            fixpoints_match: true,
            leaks: 0,
        }
    }

    fn search_fixture() -> SearchBenchMeasurement {
        SearchBenchMeasurement {
            events: 200_000,
            attributes: 1_000_000,
            queries: 5_000,
            churn_ops: 40_000,
            cold_build_nanos: 2_000_000_000,
            query_wall_nanos: 1_000_000_000,
            p50_nanos: 50_000,
            p95_nanos: 300_000,
            p99_nanos: 800_000,
            hits: 9_000_000,
            churned: 2_000,
            incremental_sync_nanos: 20_000_000,
            rebuild_nanos: 2_000_000_000,
            equivalent: true,
        }
    }

    fn reduce_fixture() -> ReduceBenchMeasurement {
        ReduceBenchMeasurement {
            nodes: 1000,
            eiocs: 50_000,
            linear_sample: 5_000,
            indexed_nanos: 50_000_000,
            linear_nanos: 50_000_000,
            riocs: 40_000,
            stats: cais_core::ReduceCacheStats::default(),
        }
    }

    fn trace_fixture() -> TraceBenchMeasurement {
        TraceBenchMeasurement {
            records: 2_000,
            rounds: 4,
            reps: 3,
            workers: 2,
            baseline_nanos: 100_000_000,
            traced_nanos: 104_000_000,
            sampled_nanos: 101_000_000,
            sample_every: 16,
            spans_recorded: 8_000,
        }
    }

    fn pipeline_fixture() -> PipelineBenchMeasurement {
        let mut report = cais_core::PlatformReport {
            records_in: 2_000,
            eiocs: 300,
            riocs: 40,
            ..cais_core::PlatformReport::default()
        };
        report.stages.dedup = cais_core::StageRecord::timed(2_000, 1_500, 4_000_000);
        PipelineBenchMeasurement {
            seed: 42,
            feeds: 8,
            records_per_feed: 250,
            records: 2_000,
            workers: 4,
            report,
            telemetry: cais_telemetry::Snapshot::default(),
        }
    }

    /// Every doc a bench binary writes carries the headline
    /// `bench_compare` gates on; a schema that drifts away from its
    /// headline would otherwise turn the gate into `SKIPPED`.
    #[test]
    fn every_bench_doc_has_a_headline() {
        let docs = [
            ("pipeline_json", pipeline_bench_doc(&pipeline_fixture())),
            ("reduce_json", reduce_bench_doc(&reduce_fixture())),
            ("share_json", share_bench_doc(&share_fixture())),
            ("decay_json", decay_bench_doc(&decay_fixture())),
            ("trace_json", trace_bench_doc(&trace_fixture())),
            ("serve_json", serve_bench_doc(&serve_fixture())),
            ("search_json", search_bench_doc(&search_fixture())),
            (
                "federation_json",
                federation_bench_doc(&federation_fixture()),
            ),
        ];
        for (schema, doc) in docs {
            let (name, value) =
                crate::compare::headline(&doc).unwrap_or_else(|| panic!("{schema}: no headline"));
            assert_eq!(name, schema);
            assert!(value > 0.0, "{schema}: headline {value}");
        }
    }
}
