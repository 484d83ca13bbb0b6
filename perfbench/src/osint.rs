//! `osint-ingest`: the paper's write path, one feed round per operation.
//!
//! Each round parses three synthetic OSINT feeds (plaintext, CSV and
//! MISP-feed JSON, 500 records each at the generator's default
//! duplicate and overlap rates) plus a CSV feed of CVE advisories, runs
//! them through `Platform::ingest_feed_records` (dedup → Eq. 1 scoring →
//! reduction to rIoCs), pumps and renders the dashboard, syncs the
//! search index, and bridges every new published event to a TAXII
//! collection on the serving core. The round's latency is its
//! freshness: feed payload in, last push acknowledged.
//!
//! Rounds run in epochs of [`EPOCH_ROUNDS`]: each epoch starts a fresh
//! platform, dashboard, index and TAXII server. Without epochs the
//! workload drifts — the generator's value spaces are small enough
//! (phishing URLs especially) that the share of records earlier rounds
//! already delivered keeps growing, so later rounds get cheaper and
//! state keeps growing, and a faster program would read faster still
//! because it reaches the cheaper rounds. With epochs every stretch of
//! the run sees the same mix.

use std::collections::HashSet;
use std::io;

use cais_common::serve::{NoServeMetrics, ServeHandle};
use cais_common::{Observable, ObservableKind, Uuid};
use cais_core::{EvaluationContext, Platform, PlatformReport};
use cais_dashboard::{render, DashboardState, DashboardStream};
use cais_feeds::parse::parse_payload;
use cais_feeds::synth::{SyntheticConfig, SyntheticFeedSet};
use cais_feeds::{FeedFormat, FeedRecord, ThreatCategory};
use cais_search::SearchIndex;
use cais_taxii::{Collection, TaxiiServer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::bridge;
use crate::canon::Digest;
use crate::harness::{elapsed_ns, Step, Workload};
use crate::metrics::{ratio, Values};
use crate::trace::{Tracer, OP_LAYER};
use crate::wire::Peer;
use crate::{mix, serve_config};

/// Records per synthetic feed.
const RECORDS_PER_FEED: usize = 150;
/// Synthetic feeds per round (one per format of the default cycle).
const FEEDS: usize = 3;
/// CVE advisories per round.
const ADVISORIES: usize = 60;
/// Share of advisories about inventory software.
const RELEVANT_FRACTION: f64 = 0.3;
/// Rounds run during set-up (warm-up; folded into the digest).
const WARMUP_ROUNDS: u64 = 3;
/// Rounds per epoch (fresh platform, dashboard, index and server).
pub const EPOCH_ROUNDS: u64 = 25;

/// One round's generated input.
struct RoundInput {
    feeds: SyntheticFeedSet,
    advisories: Vec<FeedRecord>,
    advisory_csv: String,
}

/// What a round's timed part produced.
struct RoundOutput {
    parsed_counts: Vec<usize>,
    report: PlatformReport,
    first_new_id: u64,
    pushes: Vec<Vec<String>>,
    sync_reindexed: usize,
}

/// Counters summed over the measured loop.
#[derive(Default)]
struct Totals {
    rounds: u64,
    records_parsed: u64,
    report: PlatformReport,
    sync_reindexed: u64,
    frames_in: u64,
    frames_out: u64,
    share_hits: u64,
    share_misses: u64,
    decode_failures: u64,
}

/// Everything one epoch ingests into.
struct Epoch {
    platform: Platform,
    stream: DashboardStream,
    index: SearchIndex,
    server: TaxiiServer,
    handle: Option<ServeHandle>,
    producer: Peer,
    collection: Uuid,
    seen_keys: HashSet<String>,
    riocs_checked: usize,
    objects_pushed: usize,
    /// Serving-core frames and share-cache traffic when measuring began.
    frames_at_start: (u64, u64),
    share_at_start: (u64, u64),
}

impl Epoch {
    fn start() -> Self {
        let platform = Platform::paper_use_case();
        let inventory = (*platform.context().inventory).clone();
        let stream = DashboardStream::attach(DashboardState::new(inventory), platform.broker());
        let mut server = TaxiiServer::new("perfbench osint");
        let collection = server.add_collection(Collection::new("osint", "bridged events"));
        let handle = server
            .serve_on_core("127.0.0.1:0", serve_config(), NoServeMetrics)
            .expect("bind TAXII server");
        let producer = Peer::connect(handle.local_addr()).expect("connect producer");
        let mut epoch = Epoch {
            platform,
            stream,
            index: SearchIndex::new(),
            server,
            handle: Some(handle),
            producer,
            collection,
            seen_keys: HashSet::new(),
            riocs_checked: 0,
            objects_pushed: 0,
            frames_at_start: (0, 0),
            share_at_start: (0, 0),
        };
        epoch.mark_start();
        epoch
    }

    /// Counts serving and share traffic from here on.
    fn mark_start(&mut self) {
        let frames = self.frames();
        let share = self.platform.misp().share().stats();
        self.frames_at_start = frames;
        self.share_at_start = (share.hits, share.misses);
    }

    fn frames(&self) -> (u64, u64) {
        self.handle.as_ref().map_or((0, 0), |h| {
            let stats = h.stats();
            (stats.frames_in, stats.frames_out)
        })
    }

    /// Adds this epoch's traffic since [`Epoch::mark_start`], and its
    /// dashboard decode failures, to `totals`.
    fn add_traffic(&self, totals: &mut Totals) {
        totals.decode_failures += self.stream.decode_failures() as u64;
        let (frames_in, frames_out) = self.frames();
        let share = self.platform.misp().share().stats();
        totals.frames_in += frames_in - self.frames_at_start.0;
        totals.frames_out += frames_out - self.frames_at_start.1;
        totals.share_hits += share.hits - self.share_at_start.0;
        totals.share_misses += share.misses - self.share_at_start.1;
    }

    fn input(&self, seed: u64, round: u64) -> RoundInput {
        let ctx = self.platform.context();
        let feeds = SyntheticFeedSet::generate(&SyntheticConfig {
            seed: mix(seed, 2 * round),
            feeds: FEEDS,
            records_per_feed: RECORDS_PER_FEED,
            base_time: ctx.now.add_days(-30),
            ..SyntheticConfig::default()
        });
        let advisories = advisory_stream(mix(seed, 2 * round + 1), ctx);
        let advisory_csv = advisory_csv(&advisories);
        RoundInput {
            feeds,
            advisories,
            advisory_csv,
        }
    }

    fn timed_round(&mut self, input: &RoundInput, tracer: &mut Tracer) -> io::Result<RoundOutput> {
        let mut records = Vec::new();
        let mut parsed_counts = Vec::new();
        for feed in &input.feeds.feeds {
            let parsed = tracer
                .span("feeds", parse_span(feed.format), || {
                    parse_payload(feed.format, &feed.payload, &feed.name, feed.category)
                })
                .map_err(io::Error::other)?;
            parsed_counts.push(parsed.len());
            records.extend(parsed);
        }
        let advisories = tracer
            .span("feeds", parse_span(FeedFormat::Csv), || {
                parse_payload(
                    FeedFormat::Csv,
                    &input.advisory_csv,
                    "nvd-advisories",
                    ThreatCategory::VulnerabilityExploitation,
                )
            })
            .map_err(io::Error::other)?;
        parsed_counts.push(advisories.len());
        records.extend(advisories);

        let store = std::sync::Arc::clone(self.platform.misp().store());
        let first_new_id = store.peek_next_id();
        let report = tracer
            .span("core", "core.ingest", || {
                self.platform.ingest_feed_records(records)
            })
            .map_err(io::Error::other)?;
        tracer.span("dashboard", "dashboard.pump", || self.stream.pump());
        let html = tracer.span("dashboard", "dashboard.render", || {
            render::html(self.stream.state())
        });
        std::hint::black_box(html.len());
        let summary = tracer.span("search", "search.sync", || self.index.sync(&store));

        let mut pushes = Vec::new();
        for id in first_new_id..store.peek_next_id() {
            if store.with_event(id, |e| e.published) != Some(true) {
                continue;
            }
            let types = bridge::push_event(
                self.platform.misp(),
                id,
                &mut self.producer,
                self.collection,
                tracer,
            )?;
            self.objects_pushed += types.len();
            pushes.push(types);
        }
        Ok(RoundOutput {
            parsed_counts,
            report,
            first_new_id,
            pushes,
            sync_reindexed: summary.reindexed,
        })
    }

    /// The round's output checks; returns what failed.
    fn check_round(&mut self, input: &RoundInput, out: &RoundOutput, round: u64) -> Vec<String> {
        let mut failed = Vec::new();
        // Every payload re-parses to its ground-truth record count.
        let expected_counts: Vec<usize> = input
            .feeds
            .feeds
            .iter()
            .map(|f| f.records.len())
            .chain(std::iter::once(input.advisories.len()))
            .collect();
        if out.parsed_counts != expected_counts {
            failed.push(format!(
                "round {round}: parsed {:?}, generated {expected_counts:?}",
                out.parsed_counts
            ));
        }

        // Dedup keeps exactly the keys no earlier round of the epoch
        // delivered. The feed set's own ground truth anchors the key
        // derivation.
        let feed_keys: HashSet<String> = input
            .feeds
            .feeds
            .iter()
            .flat_map(|f| f.records.iter().map(FeedRecord::dedup_key))
            .collect();
        if feed_keys.len() != input.feeds.unique_record_count() {
            failed.push(format!(
                "round {round}: {} distinct feed keys, generator says {}",
                feed_keys.len(),
                input.feeds.unique_record_count()
            ));
        }
        let mut fresh = 0;
        for key in feed_keys
            .into_iter()
            .chain(input.advisories.iter().map(FeedRecord::dedup_key))
        {
            if self.seen_keys.insert(key) {
                fresh += 1;
            }
        }
        let r = &out.report;
        let kept = r.records_in - r.duplicates_dropped - r.nlp_filtered - r.benign_filtered;
        if kept != fresh {
            failed.push(format!(
                "round {round}: dedup kept {kept}, expected {fresh}"
            ));
        }

        // The dashboard shows exactly the platform's rIoCs.
        let shown = self.stream.state().riocs();
        let produced = self.platform.riocs();
        if shown.len() != produced.len() {
            failed.push(format!(
                "round {round}: dashboard shows {} rIoCs, platform has {}",
                shown.len(),
                produced.len()
            ));
        } else {
            let differing = shown[self.riocs_checked..]
                .iter()
                .zip(&produced[self.riocs_checked..])
                .find(|(a, b)| {
                    a.id != b.id
                        || a.cve != b.cve
                        || a.description != b.description
                        || a.affected_application != b.affected_application
                        || a.nodes != b.nodes
                        || a.via_common_keyword != b.via_common_keyword
                        || a.misp_event_id != b.misp_event_id
                        || (a.threat_score - b.threat_score).abs() >= 1e-9
                });
            if let Some((_, b)) = differing {
                failed.push(format!("round {round}: dashboard rIoC {} differs", b.id));
            }
            self.riocs_checked = produced.len();
        }
        if self.stream.decode_failures() > 0 {
            failed.push(format!(
                "round {round}: {} dashboard decode failures",
                self.stream.decode_failures()
            ));
        }
        failed
    }
}

impl Drop for Epoch {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// The set-up workload.
pub struct OsintIngest {
    seed: u64,
    /// `None` only while one epoch is torn down and the next started.
    epoch: Option<Epoch>,
    check_failures: Vec<String>,
    failure_count: u64,
    digest: Digest,
    totals: Totals,
    riocs_total: usize,
    /// The end-of-run walk's `(returned, missed)`.
    walk: Option<(usize, usize)>,
}

/// `ADVISORIES` CVE advisory records, `RELEVANT_FRACTION` of them about
/// software the inventory runs: the draw of
/// `cais_bench::workloads::advisory_stream`, made over the CVE database
/// in id order. (That generator walks the database's `HashMap`, whose
/// order changes from instance to instance, so one seed does not give
/// it one input.)
fn advisory_stream(seed: u64, ctx: &EvaluationContext) -> Vec<FeedRecord> {
    let installed: HashSet<&str> = ctx
        .inventory
        .nodes()
        .flat_map(|n| {
            n.applications
                .iter()
                .map(String::as_str)
                .chain(std::iter::once(n.operating_system.as_str()))
        })
        .chain(ctx.inventory.common_keywords().iter().map(String::as_str))
        .collect();
    let mut cves: Vec<_> = ctx.cve_db.iter().collect();
    cves.sort_by_key(|r| r.id.to_string());
    let (relevant, irrelevant): (Vec<_>, Vec<_>) = cves.into_iter().partition(|r| {
        r.affected_products
            .iter()
            .chain(&r.affected_os)
            .any(|name| installed.contains(name.as_str()))
    });
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ADVISORIES)
        .filter_map(|_| {
            let pool = if rng.gen_bool(RELEVANT_FRACTION) {
                &relevant
            } else {
                &irrelevant
            };
            let record = pool.choose(&mut rng)?;
            let id = record.id.to_string();
            Some(
                FeedRecord::new(
                    Observable::new(ObservableKind::Cve, id.clone()),
                    ThreatCategory::VulnerabilityExploitation,
                    "nvd-advisories",
                    ctx.now.add_days(-rng.gen_range(1i64..300)),
                )
                .with_cve(id)
                .with_description(record.description.clone()),
            )
        })
        .collect()
}

fn advisory_csv(records: &[FeedRecord]) -> String {
    let mut out = String::from("firstseen,indicator,description,cve\n");
    for r in records {
        let description = r.description.clone().unwrap_or_default().replace('"', "'");
        out.push_str(&format!(
            "{},{},\"{}\",{}\n",
            r.seen_at.to_rfc3339(),
            r.observable.value(),
            description,
            r.cve.clone().unwrap_or_default(),
        ));
    }
    out
}

fn parse_span(format: FeedFormat) -> &'static str {
    match format {
        FeedFormat::PlainText => "feeds.parse.plaintext",
        FeedFormat::Csv => "feeds.parse.csv",
        FeedFormat::MispFeed => "feeds.parse.misp_json",
    }
}

impl OsintIngest {
    /// Measured rounds in the first epoch (the warm-up rounds open it).
    /// `peak_rss_mb` is read after them. Each later epoch starts a fresh
    /// TAXII server thread, and whether the memory the previous epoch
    /// freed is reused or fresh pages are touched varies from run to
    /// run: the end-of-run high-water mark reads either about 52 or
    /// about 66 MB for the same seed, while the reading after the first
    /// epoch repeats.
    pub const FIRST_EPOCH_OPS: u64 = EPOCH_ROUNDS - WARMUP_ROUNDS;

    /// Starts the first epoch and runs the warm-up rounds.
    ///
    /// # Panics
    ///
    /// Panics when the server cannot bind or a warm-up round fails.
    pub fn setup(seed: u64) -> Self {
        let mut w = OsintIngest {
            seed,
            epoch: Some(Epoch::start()),
            check_failures: Vec::new(),
            failure_count: 0,
            digest: Digest::default(),
            totals: Totals::default(),
            riocs_total: 0,
            walk: None,
        };
        let mut off = Tracer::new(false);
        for round in 0..WARMUP_ROUNDS {
            let (_, ok) = w.round(round, &mut off, true);
            assert!(ok, "warm-up round failed: {:?}", w.check_failures);
        }
        w.totals = Totals::default();
        w.epoch_mut().mark_start();
        w
    }

    fn epoch(&self) -> &Epoch {
        self.epoch.as_ref().expect("an epoch is running")
    }

    fn epoch_mut(&mut self) -> &mut Epoch {
        self.epoch.as_mut().expect("an epoch is running")
    }

    fn fail(&mut self, what: String) {
        self.failure_count += 1;
        if self.check_failures.len() < 8 {
            self.check_failures.push(what);
        }
    }

    /// Ends the current epoch and starts the next (untimed).
    fn next_epoch(&mut self) {
        if let Some(old) = self.epoch.take() {
            old.add_traffic(&mut self.totals);
            self.riocs_total += old.platform.riocs().len();
        }
        self.epoch = Some(Epoch::start());
    }

    /// Runs one round: returns its timed latency and whether it passed.
    fn round(&mut self, round: u64, tracer: &mut Tracer, fold_digest: bool) -> (u64, bool) {
        if round > 0 && round.is_multiple_of(EPOCH_ROUNDS) {
            self.next_epoch();
        }
        let input = self.epoch().input(self.seed, round);
        let failures_before = self.failure_count;

        let started = std::time::Instant::now();
        tracer.begin(OP_LAYER, "osint.round");
        let timed = self.epoch_mut().timed_round(&input, tracer);
        tracer.end();
        let nanos = elapsed_ns(started);

        // Output checks, untimed.
        match timed {
            Ok(out) => {
                for failure in self.epoch_mut().check_round(&input, &out, round) {
                    self.fail(failure);
                }
                if fold_digest {
                    self.fold_digest(&out);
                }
                let t = &mut self.totals;
                t.rounds += 1;
                t.records_parsed += out.parsed_counts.iter().sum::<usize>() as u64;
                t.sync_reindexed += out.sync_reindexed as u64;
                add_report(&mut t.report, &out.report);
            }
            Err(e) => self.fail(format!("round {round}: {e}")),
        }
        (nanos, self.failure_count == failures_before)
    }

    fn fold_digest(&mut self, out: &RoundOutput) {
        let r = &out.report;
        for n in [
            r.records_in,
            r.duplicates_dropped,
            r.ciocs,
            r.eiocs,
            r.riocs,
        ] {
            self.digest.u64(n as u64);
        }
        self.digest.u64(out.first_new_id);
        let epoch = self.epoch.as_ref().expect("an epoch is running");
        for rioc in epoch.platform.riocs() {
            self.digest
                .value(&serde_json::to_value(rioc).unwrap_or_default());
        }
        for types in &out.pushes {
            self.digest.bytes(types.join(",").as_bytes());
        }
    }
}

fn add_report(sum: &mut PlatformReport, r: &PlatformReport) {
    sum.records_in += r.records_in;
    sum.nlp_filtered += r.nlp_filtered;
    sum.benign_filtered += r.benign_filtered;
    sum.duplicates_dropped += r.duplicates_dropped;
    sum.ciocs += r.ciocs;
    sum.eiocs += r.eiocs;
    sum.riocs += r.riocs;
    let s = &mut sum.stages;
    for (acc, add) in [
        (&mut s.filter, r.stages.filter),
        (&mut s.dedup, r.stages.dedup),
        (&mut s.compose, r.stages.compose),
        (&mut s.enrich, r.stages.enrich),
        (&mut s.reduce, r.stages.reduce),
        (&mut s.publish, r.stages.publish),
    ] {
        acc.records_in += add.records_in;
        acc.records_out += add.records_out;
        acc.dropped += add.dropped;
        acc.wall_nanos += add.wall_nanos;
    }
}

impl Workload for OsintIngest {
    fn step(&mut self, step: u64, tracer: &mut Tracer) -> Step {
        let (nanos, ok) = self.round(WARMUP_ROUNDS + step, tracer, false);
        Step::Op { nanos, ok }
    }

    fn finish(&mut self, values: &mut Values) -> bool {
        let epoch = self.epoch();
        let walked = bridge::audit_walk(&epoch.server, epoch.collection, epoch.objects_pushed);
        let (returned, missed) = match walked {
            Ok(walked) => walked,
            Err(e) => {
                let pushed = epoch.objects_pushed;
                self.fail(format!("watermark walk: {e}"));
                (0, pushed)
            }
        };
        values.set("taxii.walk_objects", returned as f64);
        values.set("taxii.objects_missed", missed as f64);
        self.walk = Some((returned, missed));
        self.failure_count == 0
    }

    fn layer_metrics(&self, tracer: &Tracer, values: &mut Values) {
        // Traffic of finished epochs plus the running one.
        let mut current = Totals::default();
        self.epoch().add_traffic(&mut current);
        let frames_in = self.totals.frames_in + current.frames_in;
        let frames_out = self.totals.frames_out + current.frames_out;
        let share_hits = self.totals.share_hits + current.share_hits;
        let share_lookups = share_hits + self.totals.share_misses + current.share_misses;
        let totals = &self.totals;
        let rounds = totals.rounds.max(1) as f64;
        let per_round_ms = |nanos: u64| nanos as f64 / rounds / 1e6;
        let parse: Vec<_> = ["plaintext", "csv", "misp_json"]
            .iter()
            .map(|f| tracer.totals(&format!("feeds.parse.{f}")))
            .collect();
        let parse_calls: u64 = parse.iter().map(|p| p.count).sum();
        let parse_ns: u64 = parse.iter().map(|p| p.total_ns).sum();
        values.set(
            "feeds.parse_ms",
            ratio(parse_ns as f64, parse_calls as f64) / 1e6,
        );
        values.set("feeds.parse_ms.plaintext", parse[0].mean_ms());
        values.set("feeds.parse_ms.csv", parse[1].mean_ms());
        values.set("feeds.parse_ms.misp_json", parse[2].mean_ms());
        values.set("feeds.records", totals.records_parsed as f64 / rounds);
        values.set("core.ingest_ms", tracer.totals("core.ingest").mean_ms());
        let s = &totals.report.stages;
        values.set("core.filter_ms", per_round_ms(s.filter.wall_nanos));
        values.set("core.dedup_ms", per_round_ms(s.dedup.wall_nanos));
        values.set("core.compose_ms", per_round_ms(s.compose.wall_nanos));
        values.set("core.enrich_ms", per_round_ms(s.enrich.wall_nanos));
        values.set("core.reduce_ms", per_round_ms(s.reduce.wall_nanos));
        values.set("core.publish_ms", per_round_ms(s.publish.wall_nanos));
        let r = &totals.report;
        let kept = r.records_in - r.duplicates_dropped - r.nlp_filtered - r.benign_filtered;
        values.set("core.records_in", r.records_in as f64 / rounds);
        values.set(
            "core.dedup_kept_ratio",
            ratio(kept as f64, r.records_in as f64),
        );
        values.set("core.eiocs", r.eiocs as f64 / rounds);
        values.set("core.rioc_ratio", ratio(r.riocs as f64, r.eiocs as f64));
        values.set(
            "core.riocs",
            (self.riocs_total + self.epoch().platform.riocs().len()) as f64,
        );
        values.set(
            "dashboard.pump_ms",
            tracer.totals("dashboard.pump").mean_ms(),
        );
        values.set(
            "dashboard.render_ms",
            tracer.totals("dashboard.render").mean_ms(),
        );
        values.set(
            "dashboard.decode_failures",
            (self.totals.decode_failures + current.decode_failures) as f64,
        );
        values.set("share.export_ms", tracer.totals("share.export").mean_ms());
        values.set("share.cache_lookups", share_lookups as f64);
        values.set(
            "share.cache_hit_ratio",
            ratio(share_hits as f64, share_lookups as f64),
        );
        values.set("search.sync_ms", tracer.totals("search.sync").mean_ms());
        values.set("search.sync_reindexed", totals.sync_reindexed as f64);
        values.set("taxii.push_ms", tracer.totals("taxii.push").mean_ms());
        values.set("serve.frames_in", frames_in as f64);
        values.set("serve.frames_out", frames_out as f64);
    }

    fn digest(&self) -> String {
        self.digest.hex()
    }

    fn notes(&self) -> Vec<String> {
        let epoch = self.epoch();
        let mut notes = vec![format!(
            "riocs {} total, last epoch pushed {} objects, page cache (hits, misses) {:?}",
            self.riocs_total + epoch.platform.riocs().len(),
            epoch.objects_pushed,
            epoch.server.page_cache_stats()
        )];
        notes.extend(self.walk.map(bridge::walk_note));
        notes.extend(
            self.check_failures
                .iter()
                .map(|f| format!("check failed: {f}")),
        );
        notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_uuids_and_clock_but_not_the_seed() {
        // Each set-up mints fresh event, attribute and collection UUIDs
        // and stamps plaintext records with the wall clock.
        let a = OsintIngest::setup(5);
        let b = OsintIngest::setup(5);
        assert_eq!(a.digest.hex(), b.digest.hex());
        let c = OsintIngest::setup(6);
        assert_ne!(a.digest.hex(), c.digest.hex());
    }

    #[test]
    fn advisories_are_a_function_of_the_seed() {
        let platform = Platform::paper_use_case();
        let other = Platform::paper_use_case();
        let a = advisory_stream(9, platform.context());
        let b = advisory_stream(9, other.context());
        assert_eq!(a, b);
        assert_eq!(a.len(), ADVISORIES);
        let csv = advisory_csv(&a);
        let parsed = parse_payload(
            FeedFormat::Csv,
            &csv,
            "nvd-advisories",
            ThreatCategory::VulnerabilityExploitation,
        )
        .unwrap();
        assert_eq!(parsed.len(), a.len());
        for (p, g) in parsed.iter().zip(&a) {
            assert_eq!(p.dedup_key(), g.dedup_key());
            assert_eq!(p.seen_at, g.seen_at);
            assert_eq!(p.description, g.description);
        }
    }
}
