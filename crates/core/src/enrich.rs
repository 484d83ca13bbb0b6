//! Enrichment: cIoC + infrastructure context → eIoC.
//!
//! "During the analysis process, a threat score is computed and added
//! to the previously stored cIoC, converting it to an eIoC" (Section
//! III-B1). Vulnerability-type IoCs are scored by the full Table IV
//! evaluation; every other cIoC is scored by the indicator heuristic
//! over the evidence the cluster itself carries (freshness, source
//! variety, pattern strength, references).

use cais_common::Age;
use cais_cvss::CveId;
use cais_feeds::ThreatCategory;
use cais_misp::{AttributeCategory, MispAttribute, MispEvent, Tag};
use cais_stix::sdo::Vulnerability;

use crate::context::EvaluationContext;
use crate::heuristics::{
    self, score::threat_score_named, FeatureValue, HeuristicKind, ThreatScore,
};
use crate::ioc::{ComposedIoc, EnrichedIoc};

/// The Heuristic Component's enrichment engine.
#[derive(Debug, Clone)]
pub struct Enricher {
    ctx: EvaluationContext,
}

impl Enricher {
    /// Creates an enricher over an evaluation context.
    pub fn new(ctx: EvaluationContext) -> Self {
        Enricher { ctx }
    }

    /// The context in use.
    pub fn context(&self) -> &EvaluationContext {
        &self.ctx
    }

    /// Enriches a composed IoC, choosing the heuristic by its content:
    /// clusters carrying a CVE take the vulnerability heuristic,
    /// everything else the indicator heuristic.
    pub fn enrich(&self, cioc: ComposedIoc) -> EnrichedIoc {
        if let Some(vuln) = self.vulnerability_view(&cioc) {
            let threat_score = heuristics::vulnerability::evaluate(&vuln, &self.ctx);
            EnrichedIoc {
                id: cioc.id,
                composed: cioc,
                heuristic: HeuristicKind::Vulnerability,
                threat_score,
                misp_event_id: None,
                enriched_at: self.ctx.now,
            }
        } else {
            let threat_score = self.indicator_score(&cioc);
            EnrichedIoc {
                id: cioc.id,
                composed: cioc,
                heuristic: HeuristicKind::Indicator,
                threat_score,
                misp_event_id: None,
                enriched_at: self.ctx.now,
            }
        }
    }

    /// Enriches a STIX vulnerability directly (the Section IV flow, in
    /// which the Heuristic Component receives the IoC "in STIX 2.0
    /// format").
    pub fn enrich_vulnerability(&self, vuln: &Vulnerability, cioc: ComposedIoc) -> EnrichedIoc {
        let threat_score = heuristics::vulnerability::evaluate(vuln, &self.ctx);
        EnrichedIoc {
            id: cioc.id,
            composed: cioc,
            heuristic: HeuristicKind::Vulnerability,
            threat_score,
            misp_event_id: None,
            enriched_at: self.ctx.now,
        }
    }

    /// Builds a STIX vulnerability view of a CVE-bearing cluster,
    /// merging what the feeds reported with the local CVE database.
    fn vulnerability_view(&self, cioc: &ComposedIoc) -> Option<Vulnerability> {
        let cve = cioc.cve()?.to_ascii_uppercase();
        let created = cioc
            .records
            .iter()
            .map(|r| r.seen_at)
            .max()
            .unwrap_or(self.ctx.now);
        let mut builder = Vulnerability::builder(&cve);
        builder
            .created(created)
            .modified(created)
            .valid_from(
                cioc.records
                    .iter()
                    .map(|r| r.seen_at)
                    .min()
                    .unwrap_or(created),
            )
            .external_reference(cais_stix::common::ExternalReference::cve(&cve))
            .source_type("osint");
        if let Some(source) = cioc.records.first().map(|r| r.source.clone()) {
            builder.osint_source(source);
        }
        if let Some(description) = cioc.records.iter().find_map(|r| r.description.clone()) {
            builder.description(description);
        }
        if let Ok(id) = cve.parse::<CveId>() {
            if let Some(record) = self.ctx.cve_db.get(&id) {
                for product in &record.affected_products {
                    builder.affected_application(product);
                }
                for os in &record.affected_os {
                    builder.operating_system(os);
                }
                if let Some(score) = record.base_score() {
                    builder.cvss_score(score);
                }
            }
        }
        Some(builder.build())
    }

    /// Scores a non-vulnerability cluster with the indicator heuristic.
    fn indicator_score(&self, cioc: &ComposedIoc) -> ThreatScore {
        let values = self.indicator_features(cioc);
        let names = heuristics::feature_names(HeuristicKind::Indicator);
        threat_score_named(&names, &values, &HeuristicKind::Indicator.weight_scheme())
    }

    /// Indicator feature evaluation over a cluster's own evidence.
    fn indicator_features(&self, cioc: &ComposedIoc) -> Vec<FeatureValue> {
        let newest = cioc.records.iter().map(|r| r.seen_at).max();
        let oldest = cioc.records.iter().map(|r| r.seen_at).min();

        // indicator_type: how actionable the category is.
        let indicator_type = FeatureValue::scored(match cioc.category {
            ThreatCategory::VulnerabilityExploitation | ThreatCategory::Ransomware => 5,
            ThreatCategory::CommandAndControl
            | ThreatCategory::MalwareDomain
            | ThreatCategory::MalwareSample
            | ThreatCategory::Phishing => 4,
            ThreatCategory::Scanner | ThreatCategory::Spam => 2,
        });

        let modified_created = match newest.map(|t| t.age_at(self.ctx.now)) {
            None => FeatureValue::Empty,
            Some(Age::Last24Hours) => FeatureValue::Scored(5),
            Some(Age::LastWeek) => FeatureValue::Scored(4),
            Some(Age::LastMonth) => FeatureValue::Scored(3),
            Some(Age::LastYear) => FeatureValue::Scored(2),
            Some(Age::Older) => FeatureValue::Scored(1),
        };

        let valid_from = match oldest.map(|t| t.age_at(self.ctx.now)) {
            None => FeatureValue::Empty,
            Some(Age::Last24Hours | Age::LastWeek) => FeatureValue::Scored(3),
            Some(Age::LastMonth) => FeatureValue::Scored(2),
            Some(Age::LastYear) => FeatureValue::Scored(1),
            Some(Age::Older) => FeatureValue::Empty,
        };

        // external_references: distinct CVEs carried by members.
        let mut cves: Vec<&str> = cioc
            .records
            .iter()
            .filter_map(|r| r.cve.as_deref())
            .collect();
        cves.sort_unstable();
        cves.dedup();
        let external_references = match cves.len() {
            0 => FeatureValue::Empty,
            1 => FeatureValue::Scored(3),
            _ => FeatureValue::Scored(5),
        };

        // kill_chain_phases: implied by the category for delivery/C2.
        let kill_chain_phases = match cioc.category {
            ThreatCategory::CommandAndControl => FeatureValue::Scored(4),
            ThreatCategory::Phishing | ThreatCategory::MalwareDomain => FeatureValue::Scored(3),
            _ => FeatureValue::Empty,
        };

        // pattern: more correlated observables make a stronger pattern.
        let pattern = FeatureValue::scored(match cioc.records.len() {
            0 => 0,
            1 => 3,
            2..=4 => 4,
            _ => 5,
        });

        // osint_source: source variety.
        let osint_source = FeatureValue::scored(match cioc.sources().len() {
            0 => 0,
            1 => 2,
            2..=3 => 3,
            _ => 5,
        });

        // source_type: internally-sighted evidence outranks pure OSINT.
        let seen_internally = cioc
            .records
            .iter()
            .any(|r| self.ctx.seen_internally(&r.observable));
        let source_type = if seen_internally {
            FeatureValue::Scored(5)
        } else {
            FeatureValue::Scored(3)
        };

        vec![
            indicator_type,
            modified_created,
            valid_from,
            external_references,
            kill_chain_phases,
            pattern,
            osint_source,
            source_type,
        ]
    }
}

/// Builds the `threat-score` attribute carrying a Threat Score on a
/// MISP event.
fn score_attribute(heuristic: HeuristicKind, threat_score: &ThreatScore) -> MispAttribute {
    MispAttribute::new(
        "threat-score",
        AttributeCategory::InternalReference,
        format!("{:.4}", threat_score.total()),
    )
    .with_comment(format!(
        "heuristic={}; completeness={:.4}; priority={}",
        heuristic,
        threat_score.completeness(),
        threat_score.priority_label(),
    ))
}

/// Builds the `cais:*` machine tags carrying the per-criterion detail
/// the paper's future work calls for.
fn score_tags(heuristic: HeuristicKind, threat_score: &ThreatScore) -> Vec<Tag> {
    let mut tags = vec![
        Tag::machine(
            "cais",
            "threat-score",
            &format!("{:.4}", threat_score.total()),
        ),
        Tag::machine("cais", "priority", threat_score.priority_label()),
        Tag::machine("cais", "heuristic", &heuristic.to_string()),
    ];
    if let Some(totals) = threat_score.breakdown().criteria_totals {
        tags.push(Tag::machine(
            "cais",
            "relevance",
            &totals.relevance.to_string(),
        ));
        tags.push(Tag::machine(
            "cais",
            "accuracy",
            &totals.accuracy.to_string(),
        ));
        tags.push(Tag::machine(
            "cais",
            "timeliness",
            &totals.timeliness.to_string(),
        ));
        tags.push(Tag::machine("cais", "variety", &totals.variety.to_string()));
    }
    tags
}

/// Writes a computed Threat Score onto a MISP event before it is
/// stored: a `threat-score` attribute plus `cais:*` machine tags
/// carrying the per-criterion detail the paper's future work calls
/// for. Pure, so ingestion workers build each eIoC's event in its final
/// form and one insert stores it.
pub fn apply_score(event: &mut MispEvent, heuristic: HeuristicKind, threat_score: &ThreatScore) {
    event.add_attribute(score_attribute(heuristic, threat_score));
    for tag in score_tags(heuristic, threat_score) {
        event.add_tag(tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cais_common::{Observable, ObservableKind};
    use cais_feeds::FeedRecord;

    fn cve_cluster(ctx: &EvaluationContext) -> ComposedIoc {
        let record = FeedRecord::new(
            Observable::new(ObservableKind::Cve, "CVE-2017-9805"),
            ThreatCategory::VulnerabilityExploitation,
            "nvd-feed",
            ctx.now.add_days(-200),
        )
        .with_cve("CVE-2017-9805")
        .with_description("struts RCE observed");
        ComposedIoc::new(
            ThreatCategory::VulnerabilityExploitation,
            vec![record],
            ctx.now,
        )
    }

    fn c2_cluster(ctx: &EvaluationContext) -> ComposedIoc {
        let records = vec![
            FeedRecord::new(
                Observable::new(ObservableKind::Ipv4, "203.0.113.9"),
                ThreatCategory::CommandAndControl,
                "feed-a",
                ctx.now.add_days(-2),
            ),
            FeedRecord::new(
                Observable::new(ObservableKind::Domain, "c2.evil.example"),
                ThreatCategory::CommandAndControl,
                "feed-b",
                ctx.now.add_days(-1),
            ),
        ];
        ComposedIoc::new(ThreatCategory::CommandAndControl, records, ctx.now)
    }

    #[test]
    fn cve_clusters_take_the_vulnerability_heuristic() {
        let ctx = EvaluationContext::paper_use_case();
        let enricher = Enricher::new(ctx.clone());
        let eioc = enricher.enrich(cve_cluster(&ctx));
        assert_eq!(eioc.heuristic, HeuristicKind::Vulnerability);
        assert!(eioc.score() > 0.0 && eioc.score() <= 5.0);
        // The db fixture supplies apps/OS, so application is evaluated.
        let breakdown = eioc.threat_score.breakdown();
        let application = breakdown
            .lines
            .iter()
            .find(|l| l.feature == "application")
            .expect("application line");
        assert_eq!(application.value, FeatureValue::Scored(2));
    }

    #[test]
    fn other_clusters_take_the_indicator_heuristic() {
        let ctx = EvaluationContext::paper_use_case();
        let enricher = Enricher::new(ctx.clone());
        let eioc = enricher.enrich(c2_cluster(&ctx));
        assert_eq!(eioc.heuristic, HeuristicKind::Indicator);
        assert!(eioc.score() > 0.0 && eioc.score() <= 5.0);
    }

    #[test]
    fn internal_sighting_raises_indicator_score() {
        let ctx = EvaluationContext::paper_use_case();
        let enricher = Enricher::new(ctx.clone());
        let unseen_score = enricher.enrich(c2_cluster(&ctx)).score();
        ctx.sightings.record(
            &Observable::new(ObservableKind::Ipv4, "203.0.113.9"),
            ctx.now,
            None,
            "suricata",
        );
        let seen_score = enricher.enrich(c2_cluster(&ctx)).score();
        assert!(
            seen_score > unseen_score,
            "internally-sighted IoCs must rank higher ({seen_score} vs {unseen_score})"
        );
    }

    #[test]
    fn fresher_clusters_score_higher() {
        let ctx = EvaluationContext::paper_use_case();
        let enricher = Enricher::new(ctx.clone());
        let fresh = enricher.enrich(c2_cluster(&ctx)).score();
        let mut stale_records = c2_cluster(&ctx).records;
        for record in &mut stale_records {
            record.seen_at = ctx.now.add_days(-400);
        }
        let stale_cluster =
            ComposedIoc::new(ThreatCategory::CommandAndControl, stale_records, ctx.now);
        let stale = enricher.enrich(stale_cluster).score();
        assert!(fresh > stale, "{fresh} vs {stale}");
    }

    #[test]
    fn apply_score_writes_score_and_criterion_tags() {
        let ctx = EvaluationContext::paper_use_case();
        let enricher = Enricher::new(ctx.clone());
        let eioc = enricher.enrich(cve_cluster(&ctx));
        let mut event =
            cais_misp::import::event_from_records(eioc.composed.summary(), &eioc.composed.records);
        apply_score(&mut event, eioc.heuristic, &eioc.threat_score);
        // The scored event passes the store's validation.
        let api = cais_misp::MispApi::new("CAIS");
        let event_id = api.add_event(event).unwrap();
        let event = api.get_event(event_id).unwrap();
        let stored_score = event.threat_score().expect("score attribute");
        assert!((stored_score - eioc.score()).abs() < 1e-3);
        // Per-criterion machine tags are present (future-work feature).
        for predicate in ["relevance", "accuracy", "timeliness", "variety", "priority"] {
            assert!(
                event
                    .tags
                    .iter()
                    .any(|t| t.namespace() == Some("cais") && t.predicate() == Some(predicate)),
                "missing cais:{predicate} tag"
            );
        }
    }
}
