//! The static baseline and the detection-quality evaluation.
//!
//! Section I motivates the platform against platforms that "generally
//! use a static approach for threat identification". The baseline here
//! is that approach: score an IoC from its own intrinsic severity
//! (CVSS band) with no infrastructure context, and alert when the score
//! crosses a threshold. The paper's future work ("the obtained results
//! will be compared with other existing tools in terms of detection,
//! false positive and false negative rates") is implemented by
//! [`evaluate_detection`] over a labeled synthetic population.

use cais_common::{Observable, ObservableKind};
use cais_cvss::{CveId, Severity};
use cais_feeds::{FeedRecord, ThreatCategory};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::context::EvaluationContext;
use crate::enrich::Enricher;
use crate::ioc::ComposedIoc;
use crate::reduce::Reducer;

/// The context-free scorer: CVSS severity mapped onto the 0–5 scale,
/// category defaults when no CVE is known.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticScorer;

impl StaticScorer {
    /// Scores a composed IoC without any infrastructure knowledge.
    pub fn score(&self, cioc: &ComposedIoc, ctx: &EvaluationContext) -> f64 {
        if let Some(cve) = cioc.cve() {
            if let Ok(id) = cve.parse::<CveId>() {
                if let Some(record) = ctx.cve_db.get(&id) {
                    return match record.severity() {
                        Severity::None => 1.0,
                        Severity::Low => 2.0,
                        Severity::Medium => 3.0,
                        Severity::High => 4.0,
                        Severity::Critical => 5.0,
                    };
                }
            }
            return 1.0; // CVE with no local knowledge
        }
        // No CVE: a fixed per-category prior, the "static" part.
        match cioc.category {
            ThreatCategory::Ransomware | ThreatCategory::VulnerabilityExploitation => 4.0,
            ThreatCategory::CommandAndControl
            | ThreatCategory::MalwareDomain
            | ThreatCategory::MalwareSample
            | ThreatCategory::Phishing => 3.0,
            ThreatCategory::Scanner | ThreatCategory::Spam => 2.0,
        }
    }
}

/// Detection-quality counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// Flagged and actually relevant.
    pub true_positives: usize,
    /// Flagged but irrelevant.
    pub false_positives: usize,
    /// Not flagged though relevant.
    pub false_negatives: usize,
    /// Correctly ignored.
    pub true_negatives: usize,
}

impl ConfusionMatrix {
    /// Detection (recall) rate: TP / (TP + FN).
    pub fn detection_rate(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            return 0.0;
        }
        self.true_positives as f64 / denom as f64
    }

    /// False-positive rate: FP / (FP + TN).
    pub fn false_positive_rate(&self) -> f64 {
        let denom = self.false_positives + self.true_negatives;
        if denom == 0 {
            return 0.0;
        }
        self.false_positives as f64 / denom as f64
    }

    /// Precision: TP / (TP + FP).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            return 0.0;
        }
        self.true_positives as f64 / denom as f64
    }
}

/// One labeled sample: a cluster plus the ground truth of whether it
/// genuinely concerns the monitored infrastructure.
#[derive(Debug, Clone)]
pub struct LabeledIoc {
    /// The composed IoC.
    pub cioc: ComposedIoc,
    /// Whether the infrastructure is actually affected.
    pub relevant: bool,
}

/// Generates a seeded population of vulnerability clusters: `relevant`
/// ones name CVEs whose affected products exist in the inventory,
/// `irrelevant` ones name CVEs affecting products the inventory lacks.
pub fn labeled_population(
    seed: u64,
    count: usize,
    relevant_fraction: f64,
    ctx: &EvaluationContext,
) -> Vec<LabeledIoc> {
    let mut rng = StdRng::seed_from_u64(seed);
    // A CVE touches the infrastructure when an affected product is an
    // installed application, or an affected OS is a node OS or a common
    // keyword (the paper's Linux rule).
    let inventory_names: Vec<String> = ctx
        .inventory
        .nodes()
        .flat_map(|n| {
            n.applications
                .iter()
                .cloned()
                .chain(std::iter::once(n.operating_system.clone()))
        })
        .chain(ctx.inventory.common_keywords().iter().cloned())
        .collect();
    // Walk the database in CVE-id order: its own iteration order is a
    // `HashMap`'s, which differs between instances, and the seed alone
    // must decide the population.
    let mut records: Vec<_> = ctx.cve_db.iter().collect();
    records.sort_by(|a, b| a.id.cmp(&b.id));
    let mut relevant_cves = Vec::new();
    let mut irrelevant_cves = Vec::new();
    for record in records {
        let touches = record
            .affected_products
            .iter()
            .chain(record.affected_os.iter())
            .any(|name| inventory_names.iter().any(|a| a == name));
        if touches {
            relevant_cves.push(record.clone());
        } else {
            irrelevant_cves.push(record.clone());
        }
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let relevant = rng.gen_bool(relevant_fraction);
        let pool = if relevant {
            &relevant_cves
        } else {
            &irrelevant_cves
        };
        let Some(record) = pool.choose(&mut rng) else {
            continue;
        };
        let seen_at = ctx.now.add_days(-rng.gen_range(1i64..300));
        let feed_record = FeedRecord::new(
            Observable::new(ObservableKind::Cve, record.id.to_string()),
            ThreatCategory::VulnerabilityExploitation,
            format!("synthetic-feed-{}", i % 4),
            seen_at,
        )
        .with_cve(record.id.to_string())
        .with_description(record.description.clone());
        out.push(LabeledIoc {
            cioc: ComposedIoc::new(
                ThreatCategory::VulnerabilityExploitation,
                vec![feed_record],
                ctx.now,
            ),
            relevant,
        });
    }
    out
}

/// How a scoring approach decides to alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Approach {
    /// The paper's pipeline: alert when a rIoC is generated (inventory
    /// match) — the score then prioritizes.
    ContextAware,
    /// The static baseline: alert when the intrinsic score crosses the
    /// threshold.
    Static {
        /// Alerting threshold on the 0–5 scale.
        threshold: f64,
    },
}

/// Runs one approach over a labeled population.
pub fn evaluate_detection(
    approach: Approach,
    population: &[LabeledIoc],
    ctx: &EvaluationContext,
) -> ConfusionMatrix {
    let enricher = Enricher::new(ctx.clone());
    let reducer = Reducer::new(std::sync::Arc::clone(&ctx.inventory));
    let scorer = StaticScorer;
    let mut matrix = ConfusionMatrix::default();
    for sample in population {
        let flagged = match approach {
            Approach::ContextAware => {
                let eioc = enricher.enrich(sample.cioc.clone());
                reducer.reduce(&eioc).is_some()
            }
            Approach::Static { threshold } => scorer.score(&sample.cioc, ctx) >= threshold,
        };
        match (flagged, sample.relevant) {
            (true, true) => matrix.true_positives += 1,
            (true, false) => matrix.false_positives += 1,
            (false, true) => matrix.false_negatives += 1,
            (false, false) => matrix.true_negatives += 1,
        }
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;

    fn context() -> EvaluationContext {
        EvaluationContext::paper_use_case()
    }

    #[test]
    fn static_scorer_follows_cvss() {
        let ctx = context();
        let record = FeedRecord::new(
            Observable::new(ObservableKind::Cve, "CVE-2017-9805"),
            ThreatCategory::VulnerabilityExploitation,
            "f",
            ctx.now,
        )
        .with_cve("CVE-2017-9805");
        let cioc = ComposedIoc::new(
            ThreatCategory::VulnerabilityExploitation,
            vec![record],
            ctx.now,
        );
        // CVE-2017-9805 is High (8.1) → 4.0.
        assert_eq!(StaticScorer.score(&cioc, &ctx), 4.0);
    }

    #[test]
    fn population_labels_are_consistent() {
        let ctx = context();
        let population = labeled_population(7, 300, 0.4, &ctx);
        assert!(!population.is_empty());
        let relevant = population.iter().filter(|s| s.relevant).count() as f64;
        let fraction = relevant / population.len() as f64;
        assert!((0.25..0.55).contains(&fraction), "fraction {fraction}");
    }

    #[test]
    fn one_seed_draws_one_population() {
        // Two fresh contexts hold the same CVEs in different `HashMap`
        // orders; the draw must not see the difference.
        let summary = |population: Vec<LabeledIoc>| -> Vec<(bool, Vec<FeedRecord>)> {
            population
                .into_iter()
                .map(|sample| (sample.relevant, sample.cioc.records))
                .collect()
        };
        let first = summary(labeled_population(7, 200, 0.4, &context()));
        let second = summary(labeled_population(7, 200, 0.4, &context()));
        assert_eq!(first.len(), 200);
        assert_eq!(first, second);
    }

    #[test]
    fn context_aware_beats_static_on_false_positives() {
        let ctx = context();
        let population = labeled_population(11, 400, 0.3, &ctx);
        let aware = evaluate_detection(Approach::ContextAware, &population, &ctx);
        let static_ = evaluate_detection(Approach::Static { threshold: 3.5 }, &population, &ctx);
        // The static approach alarms on every severe CVE regardless of
        // whether the infrastructure runs the product — the paper's
        // core complaint.
        assert!(
            aware.false_positive_rate() < static_.false_positive_rate(),
            "aware FPR {} !< static FPR {}",
            aware.false_positive_rate(),
            static_.false_positive_rate()
        );
        // And it must not pay for that with missed detections.
        assert!(
            aware.detection_rate() >= static_.detection_rate() * 0.9,
            "aware detection {} collapsed vs static {}",
            aware.detection_rate(),
            static_.detection_rate()
        );
    }

    #[test]
    fn confusion_matrix_rates() {
        let m = ConfusionMatrix {
            true_positives: 8,
            false_positives: 2,
            false_negatives: 2,
            true_negatives: 8,
        };
        assert!((m.detection_rate() - 0.8).abs() < 1e-12);
        assert!((m.false_positive_rate() - 0.2).abs() < 1e-12);
        assert!((m.precision() - 0.8).abs() < 1e-12);
        assert_eq!(ConfusionMatrix::default().detection_rate(), 0.0);
    }
}
