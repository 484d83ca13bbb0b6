//! The end-to-end platform of Fig. 1: Input Module → Operational Module
//! (MISP + Heuristic Component) → Output Module.
//!
//! Data flow, exactly as Section IV-A narrates it: collectors push IoCs
//! into the MISP instance; OSINT events trigger the real-time sharing
//! mechanism (the message bus standing in for zeroMQ); the Heuristic
//! Component scores them against infrastructure data; the eIoC is
//! written back to MISP; and when the inventory matches, the rIoC goes
//! out to the dashboard topic (socket.io in the paper).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cais_bus::{topics, Broker, Topic};

use cais_feeds::FeedRecord;
use cais_infra::sensors::{hids, nids};
use cais_misp::MispApi;
use cais_telemetry::{FlightRecorder, Registry, TraceContext, Tracer};
use serde::{Deserialize, Serialize};

use crate::collector::{aggregate_into_ciocs, InfrastructureCollector, OsintCollector};
use crate::context::EvaluationContext;
use crate::enrich::Enricher;
use crate::error::CoreError;
use crate::ioc::{ComposedIoc, EnrichedIoc, ReducedIoc};
use crate::metrics::{StageMetrics, StageRecord};
use crate::reduce::Reducer;
use crate::telemetry::PipelineInstruments;

fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Platform configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// The operating organization (stamped on MISP events).
    pub org: String,
    /// Whether eIoCs are published on the MISP instance after
    /// enrichment (enables onward sharing).
    pub publish_enriched: bool,
    /// Whether the NLP classifier of Section II-A drops feed records
    /// whose descriptions carry no threat language ("tag OSINT data as
    /// relevant or irrelevant"). Records without descriptions pass
    /// untouched.
    pub nlp_relevance_filter: bool,
    /// Whether MISP-style warninglists drop feed records whose values
    /// are known-benign (private/reserved addresses, public resolvers,
    /// reserved domains, empty-input hashes).
    pub warninglist_filter: bool,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            org: "CAIS".to_owned(),
            publish_enriched: true,
            nlp_relevance_filter: false,
            warninglist_filter: false,
        }
    }
}

/// Counters of one ingestion round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PlatformReport {
    /// Feed records offered.
    pub records_in: usize,
    /// Records the NLP relevance filter dropped (0 unless enabled).
    #[serde(default)]
    pub nlp_filtered: usize,
    /// Records the warninglist filter dropped as known-benign.
    #[serde(default)]
    pub benign_filtered: usize,
    /// Records dropped by deduplication.
    pub duplicates_dropped: usize,
    /// Composed IoCs created.
    pub ciocs: usize,
    /// Enriched IoCs produced (always equals `ciocs`).
    pub eiocs: usize,
    /// Reduced IoCs that matched the infrastructure.
    pub riocs: usize,
    /// Per-stage record counters and wall times for this round.
    #[serde(default)]
    pub stages: StageMetrics,
}

impl PlatformReport {
    /// Whether two rounds produced identical record counters at every
    /// level — top-line and per-stage — ignoring wall times. This is
    /// the determinism contract between [`Platform::ingest_feed_records`]
    /// and [`Platform::ingest_feed_records_parallel`].
    pub fn same_counters(&self, other: &PlatformReport) -> bool {
        self.records_in == other.records_in
            && self.nlp_filtered == other.nlp_filtered
            && self.benign_filtered == other.benign_filtered
            && self.duplicates_dropped == other.duplicates_dropped
            && self.ciocs == other.ciocs
            && self.eiocs == other.eiocs
            && self.riocs == other.riocs
            && self.stages.same_counts(&other.stages)
    }
}

/// Why the per-record filter stage rejected a record.
enum FilterDrop {
    /// The NLP classifier judged the description irrelevant.
    Irrelevant,
    /// A warninglist flagged the value as known-benign.
    Benign,
}

/// Everything a worker prepares for one cIoC besides its MISP event:
/// the scored eIoC, how many attributes and tags the event had before
/// the score was written (so the `created` announcement can show it as
/// first stored), the reduction outcome, and the time each step took.
struct PreparedIoc {
    eioc: EnrichedIoc,
    unscored: (usize, usize),
    rioc: Option<ReducedIoc>,
    enrich_nanos: u64,
    build_nanos: u64,
    reduce_nanos: u64,
}

/// Adds `items` passed-through records and the time since `started` to
/// a stage.
fn tally(stage: &mut StageRecord, items: usize, started: Instant) {
    stage.records_in += items;
    stage.records_out += items;
    stage.wall_nanos += nanos_since(started);
}

/// Splits `items` into at most `workers` contiguous chunks and runs
/// `work` on each: on scoped threads when there is more than one chunk,
/// inline on the caller's thread otherwise. Results come back in chunk
/// order, so concatenating them restores input order.
fn run_chunked<T: Send, R: Send>(
    items: Vec<T>,
    workers: usize,
    work: impl Fn(Vec<T>) -> R + Sync,
) -> Vec<R> {
    let chunk_size = items.len().div_ceil(workers.max(1)).max(1);
    if items.len() <= chunk_size {
        return vec![work(items)];
    }
    let mut chunks: Vec<Vec<T>> = Vec::new();
    let mut items = items.into_iter();
    loop {
        let chunk: Vec<T> = items.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || work(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("ingest worker panicked"))
            .collect()
    })
}

/// A stored event as an ingest announces it on `topic`: `created`
/// shows it before the score (its first `unscored` attributes and
/// tags, unpublished), `updated` scored but unpublished, and
/// `published` exactly as stored.
fn announced_form(
    stored: &cais_misp::MispEvent,
    unscored: (usize, usize),
    topic: &str,
) -> Option<serde_json::Value> {
    if topic == topics::MISP_EVENT_PUBLISHED {
        return serde_json::to_value(stored).ok();
    }
    let mut event = stored.clone();
    event.published = false;
    if topic == topics::MISP_EVENT {
        event.attributes.truncate(unscored.0);
        event.tags.truncate(unscored.1);
    }
    serde_json::to_value(&event).ok()
}

/// The assembled Context-Aware OSINT Platform.
pub struct Platform {
    config: PlatformConfig,
    broker: Broker,
    misp: MispApi,
    ctx: EvaluationContext,
    enricher: Enricher,
    reducer: Reducer,
    osint: OsintCollector,
    infra: InfrastructureCollector,
    classifier: cais_nlp::ThreatClassifier,
    quality: cais_feeds::QualityTracker,
    detection: crate::detection::DetectionEngine,
    detections: Vec<crate::detection::Detection>,
    alarms_forwarded: usize,
    riocs: Vec<ReducedIoc>,
    eiocs: Vec<EnrichedIoc>,
    telemetry: Registry,
    tracer: Tracer,
    flight: Option<FlightRecorder>,
    instruments: PipelineInstruments,
}

impl Platform {
    /// Assembles the platform around an evaluation context, with a
    /// private telemetry registry.
    pub fn new(config: PlatformConfig, ctx: EvaluationContext) -> Self {
        Platform::with_telemetry(config, ctx, Registry::new())
    }

    /// Assembles the platform recording into a caller-supplied
    /// telemetry registry: the broker and the MISP store are
    /// instrumented against it, and every ingestion round feeds its
    /// [`StageMetrics`] into per-stage counters and histograms. Share
    /// the registry with a
    /// [`TelemetryServer`](cais_telemetry::TelemetryServer) to make the
    /// platform scrapeable.
    pub fn with_telemetry(
        config: PlatformConfig,
        ctx: EvaluationContext,
        telemetry: Registry,
    ) -> Self {
        let broker = Broker::new();
        broker.instrument(&telemetry);
        let misp = MispApi::new(config.org.clone()).with_broker(broker.clone());
        misp.instrument(&telemetry);
        let instruments = PipelineInstruments::new(&telemetry);
        let tracer = Tracer::new();
        // One tracer spans the whole platform: the broker stamps bus
        // envelopes with it and the MISP store/share layers chain their
        // mutation spans onto the ingestion round that caused them.
        broker.set_tracer(&tracer);
        misp.set_tracer(&tracer);
        let enricher = Enricher::new(ctx.clone());
        let reducer = Reducer::new(Arc::clone(&ctx.inventory));
        let infra =
            InfrastructureCollector::new(Arc::clone(&ctx.inventory), Arc::clone(&ctx.sightings));
        Platform {
            config,
            broker,
            misp,
            ctx,
            enricher,
            reducer,
            osint: OsintCollector::new(),
            classifier: cais_nlp::ThreatClassifier::new(),
            quality: cais_feeds::QualityTracker::new(),
            infra,
            alarms_forwarded: 0,
            detection: crate::detection::DetectionEngine::new(4_096),
            detections: Vec::new(),
            riocs: Vec::new(),
            eiocs: Vec::new(),
            telemetry,
            tracer,
            flight: None,
            instruments,
        }
    }

    /// A platform over the paper's Table III context.
    pub fn paper_use_case() -> Self {
        Platform::new(
            PlatformConfig::default(),
            EvaluationContext::paper_use_case(),
        )
    }

    /// The message bus (subscribe to [`topics::RIOC_PUBLISHED`] for the
    /// dashboard feed).
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// The MISP instance.
    pub fn misp(&self) -> &MispApi {
        &self.misp
    }

    /// The evaluation context.
    pub fn context(&self) -> &EvaluationContext {
        &self.ctx
    }

    /// The telemetry registry every component records into.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// The causal span tracer shared by every component: feed polls
    /// root `ingress` spans, ingestion rounds record `pipeline` spans
    /// beneath them, and the MISP store, share cache and bus chain
    /// their own spans onto the same traces.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Arms the flight recorder: when a source's circuit breaker trips
    /// during [`Platform::ingest_from_sources`], the recorder snapshots
    /// the tail of every subsystem's span ring to disk (reason
    /// `breaker_trip`, detail = the feed's name).
    pub fn set_flight_recorder(&mut self, recorder: &FlightRecorder) {
        self.flight = Some(recorder.clone());
    }

    /// Every rIoC produced so far.
    pub fn riocs(&self) -> &[ReducedIoc] {
        &self.riocs
    }

    /// Every eIoC produced so far.
    pub fn eiocs(&self) -> &[EnrichedIoc] {
        &self.eiocs
    }

    /// The reducer's cache-effectiveness snapshot (also published as
    /// `reduce_*` gauges after every ingest round).
    pub fn reduce_cache_stats(&self) -> crate::reduce::ReduceCacheStats {
        self.reducer.stats()
    }

    /// Applies decayed scores (from a `cais-decay` rescore pass) to the
    /// reduced IoCs already on the dashboard: each rIoC whose MISP
    /// event appears in `scores` takes the decayed value as its threat
    /// score. The reducer's memos are invalidated so nothing assembled
    /// before the rescore is served afterwards. Returns how many rIoCs
    /// changed.
    pub fn apply_rescored(&mut self, scores: &HashMap<u64, f64>) -> usize {
        let mut updated = 0;
        for rioc in &mut self.riocs {
            let Some(event_id) = rioc.misp_event_id else {
                continue;
            };
            if let Some(&score) = scores.get(&event_id) {
                if (rioc.threat_score - score).abs() > f64::EPSILON {
                    rioc.threat_score = score;
                    updated += 1;
                }
            }
        }
        if updated > 0 {
            self.reducer.invalidate_memos();
        }
        updated
    }

    /// Runs one OSINT ingestion round: filter → dedup →
    /// aggregate/correlate → heuristic analysis → eIoC write-back to
    /// MISP → reduction → dashboard publication, all on the caller's
    /// thread.
    ///
    /// Each eIoC's MISP event is built in its final form (score
    /// attribute, `cais:*` tags, published flag) and stored by one
    /// insert; the store assigns the ids, in composed order. The bus
    /// carries the round grouped by stage: every cIoC on
    /// `cais.cioc.received`, then per topic every `misp.event.created`,
    /// `.updated` and `.published`, then `cais.eioc.ready`, then
    /// `cais.rioc.published`. A payload is built only when a
    /// subscription observes its topic.
    ///
    /// # Errors
    ///
    /// Returns MISP persistence errors; scoring itself cannot fail. A
    /// failed insert ends the round: the cIoC announcements are already
    /// out, the events stored before it are announced and kept in
    /// [`Platform::eiocs`]/[`Platform::riocs`], and the rest of the
    /// round is dropped.
    pub fn ingest_feed_records(
        &mut self,
        records: Vec<FeedRecord>,
    ) -> Result<PlatformReport, CoreError> {
        self.ingest_round(records, 1, None)
    }

    /// [`Platform::ingest_feed_records`] continuing the caller's trace:
    /// the round's `ingest_round` span becomes a child of `parent`
    /// (typically an `ingress`/`feed_poll` span) instead of rooting a
    /// fresh trace, and every store insert and bus publish of the round
    /// chains beneath it.
    ///
    /// # Errors
    ///
    /// As [`Platform::ingest_feed_records`].
    pub fn ingest_feed_records_traced(
        &mut self,
        records: Vec<FeedRecord>,
        parent: Option<TraceContext>,
    ) -> Result<PlatformReport, CoreError> {
        self.ingest_round(records, 1, parent)
    }

    /// [`Platform::ingest_feed_records`] with the per-record work fanned
    /// out over up to `workers` scoped threads (`workers <= 1` runs
    /// inline):
    ///
    /// * **filter** — records split into contiguous chunks, each chunk
    ///   classified by one worker, results merged in chunk order;
    /// * **dedup** — records hash-partitioned on
    ///   [`FeedRecord::dedup_key`] across the collector's shards, one
    ///   worker per shard group (no cross-shard locking), kept records
    ///   merged back into input order;
    /// * **compose** — inherently global (correlation crosses records),
    ///   so it stays sequential;
    /// * **enrich + reduce** — cIoCs split into contiguous chunks; each
    ///   worker scores its chunk, builds each MISP event in its final
    ///   form and reduces against the inventory (all pure or read-only
    ///   over shared context);
    /// * **persist + publish** — sequential: one insert per event in
    ///   composed order, then one [`Broker::publish_with`] per topic.
    ///
    /// Every parallel stage merges deterministically (shard
    /// partitioning preserves first-occurrence semantics; chunked
    /// stages reassemble in input order), so the eIoCs, rIoCs, MISP
    /// event ids and contents, bus traffic and [`PlatformReport`]
    /// counters are the same for every worker count. Only wall times
    /// and store-modification timestamps differ.
    ///
    /// # Errors
    ///
    /// As [`Platform::ingest_feed_records`].
    pub fn ingest_feed_records_parallel(
        &mut self,
        records: Vec<FeedRecord>,
        workers: usize,
    ) -> Result<PlatformReport, CoreError> {
        self.ingest_round(records, workers, None)
    }

    /// [`Platform::ingest_feed_records_parallel`] continuing the
    /// caller's trace — see [`Platform::ingest_feed_records_traced`].
    ///
    /// # Errors
    ///
    /// As [`Platform::ingest_feed_records`].
    pub fn ingest_feed_records_parallel_traced(
        &mut self,
        records: Vec<FeedRecord>,
        workers: usize,
        parent: Option<TraceContext>,
    ) -> Result<PlatformReport, CoreError> {
        self.ingest_round(records, workers, parent)
    }

    /// The one ingestion round behind the four public entry points.
    fn ingest_round(
        &mut self,
        records: Vec<FeedRecord>,
        workers: usize,
        parent: Option<TraceContext>,
    ) -> Result<PlatformReport, CoreError> {
        let workers = workers.max(1);
        let mut span = self.tracer.child_of(parent, "pipeline", "ingest_round");
        span.field("workers", workers);
        span.field("records_in", records.len());
        let round = span.sampled().then(|| span.context());
        let mut report = PlatformReport {
            records_in: records.len(),
            ..PlatformReport::default()
        };
        let mut stages = StageMetrics::default();

        // Filter stage, chunked across workers.
        let started = Instant::now();
        let before = records.len();
        let (records, nlp_dropped, benign_dropped) = self.filter_records(records, workers);
        report.nlp_filtered = nlp_dropped;
        report.benign_filtered = benign_dropped;
        stages.filter = StageRecord::timed(before, records.len(), nanos_since(started));

        self.quality.record_batch(&records, self.ctx.now);

        // Dedup stage, one worker per shard group.
        let started = Instant::now();
        let before = records.len();
        let dropped_before = self.osint.dedup_stats().dropped;
        let fresh = self.osint.dedup_batch_parallel(records, workers);
        report.duplicates_dropped = self.osint.dedup_stats().dropped - dropped_before;
        stages.dedup = StageRecord::timed(before, fresh.len(), nanos_since(started));

        // Compose stage, sequential: correlation links arbitrary record
        // pairs, so it cannot be partitioned without changing clusters.
        let started = Instant::now();
        let before = fresh.len();
        let ciocs = if fresh.is_empty() {
            Vec::new()
        } else {
            aggregate_into_ciocs(fresh, self.ctx.now)
        };
        report.ciocs = ciocs.len();
        stages.compose = StageRecord::timed(before, ciocs.len(), nanos_since(started));

        // Enrich + reduce, chunked across workers and merged in chunk
        // order. Scoring, event building and reduction are timed apart
        // per cIoC and summed into enrich, publish (the MISP write-back)
        // and reduce, so each stage reports its own work.
        let (events, mut prepared): (Vec<_>, Vec<_>) = run_chunked(ciocs, workers, |chunk| {
            chunk
                .into_iter()
                .map(|cioc| self.prepare_one(cioc))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .unzip();
        let eioc_count = prepared.len();
        stages.enrich = StageRecord::timed(
            eioc_count,
            eioc_count,
            prepared.iter().map(|p| p.enrich_nanos).sum(),
        );
        stages.reduce.wall_nanos = prepared.iter().map(|p| p.reduce_nanos).sum();
        stages.publish.wall_nanos = prepared.iter().map(|p| p.build_nanos).sum();

        let started = Instant::now();
        self.broker.publish_with(
            Topic::new(topics::CIOC_RECEIVED),
            eioc_count,
            |i| serde_json::to_value(&prepared[i].eioc.composed).ok(),
            round,
        );
        tally(&mut stages.publish, eioc_count, started);

        // Persist: one insert per eIoC, in composed order. The store
        // assigns the id, which the eIoC and its rIoC then carry.
        let started = Instant::now();
        let (ids, failure) = self.misp.store().insert_all_with_trace(events, round);
        prepared.truncate(ids.len());
        let mut written = Vec::with_capacity(ids.len());
        for (p, id) in prepared.iter_mut().zip(ids) {
            p.eioc.misp_event_id = Some(id);
            if let Some(rioc) = &mut p.rioc {
                rioc.misp_event_id = Some(id);
            }
            written.push((id, p.unscored));
        }
        self.announce_stored(&written, round);
        self.broker.publish_with(
            Topic::new(topics::EIOC_READY),
            prepared.len(),
            |i| serde_json::to_value(&prepared[i].eioc).ok(),
            round,
        );
        tally(&mut stages.publish, prepared.len(), started);
        report.eiocs = prepared.len();

        // Reduce bookkeeping: the reductions ran with enrichment; this
        // tallies them and keeps eIoC/rIoC order.
        let started = Instant::now();
        let first_new = self.riocs.len();
        for p in prepared {
            stages.reduce.records_in += 1;
            match p.rioc {
                Some(rioc) => {
                    stages.reduce.records_out += 1;
                    self.riocs.push(rioc);
                }
                None => stages.reduce.dropped += 1,
            }
            self.eiocs.push(p.eioc);
        }
        stages.reduce.wall_nanos += nanos_since(started);
        let new_riocs = &self.riocs[first_new..];
        report.riocs = new_riocs.len();

        let started = Instant::now();
        self.broker.publish_with(
            Topic::new(topics::RIOC_PUBLISHED),
            new_riocs.len(),
            |i| serde_json::to_value(&new_riocs[i]).ok(),
            round,
        );
        tally(&mut stages.publish, report.riocs, started);

        if let Some(err) = failure {
            return Err(err.into());
        }
        report.stages = stages;
        span.field("riocs", report.riocs);
        self.instruments.record_round(&report);
        self.instruments.record_reduce_caches(&self.reducer.stats());
        self.broker.sample_queue_depths();
        Ok(report)
    }

    /// Per-record filter decision: NLP relevance first, warninglists
    /// second.
    fn filter_verdict(&self, record: &FeedRecord) -> Option<FilterDrop> {
        if self.config.nlp_relevance_filter {
            if let Some(description) = &record.description {
                if !self.classifier.classify(description).is_relevant() {
                    return Some(FilterDrop::Irrelevant);
                }
            }
        }
        if self.config.warninglist_filter
            && cais_misp::warninglist::check_observable(&record.observable).is_some()
        {
            return Some(FilterDrop::Benign);
        }
        None
    }

    /// Runs the filter stage over contiguous chunks (see
    /// [`run_chunked`]), returning the kept records in input order and
    /// the NLP and warninglist drop counts.
    fn filter_records(
        &self,
        records: Vec<FeedRecord>,
        workers: usize,
    ) -> (Vec<FeedRecord>, usize, usize) {
        if !self.config.nlp_relevance_filter && !self.config.warninglist_filter {
            return (records, 0, 0);
        }
        let results = run_chunked(records, workers, |mut chunk| {
            let mut nlp_dropped = 0;
            let mut benign_dropped = 0;
            chunk.retain(|record| match self.filter_verdict(record) {
                None => true,
                Some(FilterDrop::Irrelevant) => {
                    nlp_dropped += 1;
                    false
                }
                Some(FilterDrop::Benign) => {
                    benign_dropped += 1;
                    false
                }
            });
            (chunk, nlp_dropped, benign_dropped)
        });
        let mut kept = Vec::new();
        let mut nlp_dropped = 0;
        let mut benign_dropped = 0;
        for (chunk, nlp, benign) in results {
            kept.extend(chunk);
            nlp_dropped += nlp;
            benign_dropped += benign;
        }
        (kept, nlp_dropped, benign_dropped)
    }

    /// The per-cIoC work that needs no store access, fused so a worker
    /// runs it end to end: enrich, build the MISP event in its final
    /// stored form, and reduce against the inventory.
    fn prepare_one(&self, cioc: ComposedIoc) -> (cais_misp::MispEvent, PreparedIoc) {
        let started = Instant::now();
        let eioc = self.enricher.enrich(cioc);
        let enrich_nanos = nanos_since(started);
        let started = Instant::now();
        let event =
            cais_misp::import::event_from_records(eioc.composed.summary(), &eioc.composed.records);
        let unscored = (event.attributes.len(), event.tags.len());
        let event = self.final_event(event, eioc.heuristic, &eioc.threat_score);
        let build_nanos = nanos_since(started);
        let started = Instant::now();
        let rioc = self.reducer.reduce(&eioc);
        let prepared = PreparedIoc {
            eioc,
            unscored,
            rioc,
            enrich_nanos,
            build_nanos,
            reduce_nanos: nanos_since(started),
        };
        (event, prepared)
    }

    /// An event in its final stored form: stamped with the operating
    /// organization, carrying its threat score
    /// ([`crate::enrich::apply_score`]), and published when
    /// [`PlatformConfig::publish_enriched`] is set — so one insert
    /// stores it.
    fn final_event(
        &self,
        mut event: cais_misp::MispEvent,
        heuristic: crate::heuristics::HeuristicKind,
        threat_score: &crate::heuristics::ThreatScore,
    ) -> cais_misp::MispEvent {
        event.org = self.misp.org().to_owned();
        crate::enrich::apply_score(&mut event, heuristic, threat_score);
        event.published = self.config.publish_enriched;
        event
    }

    /// Announces stored `(event id, unscored counts)` pairs as one batch
    /// per topic on `misp.event.created`, `.updated` and (when eIoCs are
    /// published) `.published`. Payloads come from the stored events
    /// (see [`announced_form`]) and are built only when observed.
    fn announce_stored(&self, written: &[(u64, (usize, usize))], parent: Option<TraceContext>) {
        let mut announced = vec![topics::MISP_EVENT, topics::MISP_EVENT_UPDATED];
        if self.config.publish_enriched {
            announced.push(topics::MISP_EVENT_PUBLISHED);
        }
        let store = self.misp.store();
        for topic in announced {
            self.broker.publish_with(
                Topic::new(topic),
                written.len(),
                |i| {
                    let (id, unscored) = written[i];
                    store
                        .with_event(id, |event| announced_form(event, unscored, topic))
                        .flatten()
                },
                parent,
            );
        }
    }

    /// Ingests a STIX 2.0 bundle from a sharing partner: every object a
    /// heuristic supports is scored against the context and stored in
    /// MISP in its final form (see [`Platform::ingest_feed_records`]),
    /// with the same announcements. Returns how many objects were
    /// scored.
    ///
    /// # Errors
    ///
    /// Returns MISP persistence errors. A failed insert ends the ingest
    /// after the events stored before it are announced.
    pub fn ingest_stix_bundle(&mut self, bundle: &cais_stix::Bundle) -> Result<usize, CoreError> {
        use crate::heuristics::generic;
        // Arm every carried indicator for live detection replay.
        self.detection.arm_bundle(bundle);
        let mut span = self.tracer.root("pipeline", "ingest_bundle");
        span.field("objects", bundle.objects().len());
        let parent = span.sampled().then(|| span.context());
        let mut events = Vec::new();
        let mut unscored = Vec::new();
        for object in bundle.objects() {
            let Some((heuristic, threat_score)) = generic::evaluate_object(object, &self.ctx)
            else {
                continue;
            };
            // Reuse the importer for the types it maps; build a minimal
            // event for the rest.
            let single = cais_stix::Bundle::new(vec![object.clone()]);
            let event = cais_misp::import::events_from_stix(&single)
                .into_iter()
                .next()
                .unwrap_or_else(|| {
                    let mut event = cais_misp::MispEvent::new(format!(
                        "STIX {}: {}",
                        object.object_type(),
                        object.name().unwrap_or("unnamed"),
                    ));
                    event.date = object.created();
                    event
                });
            unscored.push((event.attributes.len(), event.tags.len()));
            events.push(self.final_event(event, heuristic, &threat_score));
        }
        let (ids, failure) = self.misp.store().insert_all_with_trace(events, parent);
        let written: Vec<_> = ids.into_iter().zip(unscored).collect();
        self.announce_stored(&written, parent);
        span.field("scored", written.len());
        match failure {
            Some(err) => Err(err.into()),
            None => Ok(written.len()),
        }
    }

    /// Feeds network packets through the infrastructure collector,
    /// forwarding fresh alarms to the context and the bus, and replays
    /// armed indicator patterns over the traffic.
    pub fn ingest_packets(&mut self, packets: &[nids::Packet]) {
        self.infra.ingest_packets(packets);
        self.forward_alarms();
        let observations: Vec<cais_stix::pattern::Observation> = packets
            .iter()
            .map(|p| {
                cais_stix::pattern::Observation::at(p.at)
                    .with_object(cais_stix::sdo::CyberObservable::new(
                        "ipv4-addr",
                        p.src_ip.clone(),
                    ))
                    .with_object(cais_stix::sdo::CyberObservable::new(
                        "ipv4-addr",
                        p.dst_ip.clone(),
                    ))
            })
            .collect();
        let detections = self
            .detection
            .ingest(observations, self.ctx.now, &self.ctx.sightings);
        for detection in detections {
            let _ = self
                .broker
                .publish_value(Topic::new(topics::DETECTION_FIRED), &detection);
            self.detections.push(detection);
        }
    }

    /// Feeds host logs through the infrastructure collector.
    pub fn ingest_logs(&mut self, logs: &[hids::LogLine]) {
        self.infra.ingest_logs(logs);
        self.forward_alarms();
    }

    /// Every indicator-pattern detection fired so far.
    pub fn detections(&self) -> &[crate::detection::Detection] {
        &self.detections
    }

    /// Per-feed quality grades (0–5), best feed first — volume-unique
    /// contribution, freshness and reliability combined.
    pub fn feed_scoreboard(&self) -> Vec<(String, f64)> {
        self.quality
            .scoreboard()
            .into_iter()
            .map(|(source, grade)| (source.to_owned(), grade))
            .collect()
    }

    /// Number of indicators armed for detection replay.
    pub fn armed_indicators(&self) -> usize {
        self.detection.armed()
    }

    fn forward_alarms(&mut self) {
        let alarms = self.infra.alarms();
        for alarm in &alarms[self.alarms_forwarded.min(alarms.len())..] {
            self.ctx.push_alarm(alarm.clone());
            let _ = self
                .broker
                .publish_value(Topic::new(topics::ALARM_RAISED), alarm);
        }
        self.alarms_forwarded = alarms.len();
    }

    /// Shares every published eIoC event to another MISP instance
    /// (trusted-organization sharing), returning how many transferred.
    pub fn share_with(&self, partner: &MispApi) -> usize {
        cais_misp::sync::push(&self.misp, partner).transferred
    }

    /// Polls every resilient source once (in slice order, retry backoff
    /// on virtual time) and ingests whatever the healthy subset
    /// delivered — the graceful-degradation entry point.
    ///
    /// Collection is strictly ordered and ingestion happens in a single
    /// round, so with the same sources in the same states the produced
    /// rIoCs are identical whether `workers` selects the serial or the
    /// parallel pipeline, and identical to a fault-free run of the
    /// surviving sources: a faulted source degrades the round's *inputs*
    /// (its batch is absent) but never the determinism of the outputs.
    ///
    /// # Errors
    ///
    /// Returns MISP persistence errors from the ingestion round; source
    /// failures are *not* errors — they are counted in the report and
    /// the round proceeds with the records that did arrive.
    pub fn ingest_from_sources(
        &mut self,
        sources: &mut [cais_feeds::ResilientSource],
        workers: usize,
    ) -> Result<SourceIngestReport, CoreError> {
        // Backoffs run on virtual time: determinism does not depend on
        // the wall clock and a faulted source cannot stall the round.
        let sleeper = cais_common::resilience::RecordingSleeper::default();
        // The poll is the trace ingress: everything the round does
        // downstream — pipeline stages, store inserts, bus publishes —
        // hangs off this root span (or is dropped with it when the
        // sampling decision says no).
        let mut span = self.tracer.root("ingress", "feed_poll");
        span.field("sources", sources.len());
        let ingress = span.sampled().then(|| span.context());
        let mut records = Vec::new();
        let mut outcome = SourceIngestReport {
            sources_polled: sources.len(),
            ..SourceIngestReport::default()
        };
        for source in sources.iter_mut() {
            let retries_before = source.total_retries();
            let opened_before = source.breaker_transitions().opened;
            match source.poll(&sleeper) {
                cais_feeds::RoundOutcome::Delivered(batch) => {
                    outcome.delivered += 1;
                    records.extend(batch);
                }
                cais_feeds::RoundOutcome::Quarantined => outcome.quarantined += 1,
                cais_feeds::RoundOutcome::Failed(_) | cais_feeds::RoundOutcome::Interrupted => {
                    outcome.failed += 1;
                }
            }
            outcome.retries += source.total_retries() - retries_before;
            if source.breaker_transitions().opened > opened_before {
                // A breaker trip is the anomaly the flight recorder
                // exists for: capture the span tails before they age
                // out of the rings.
                if let Some(flight) = &self.flight {
                    let _ = flight.trigger("breaker_trip", source.name());
                }
            }
        }
        span.field("delivered", outcome.delivered);
        span.field("failed", outcome.failed);
        span.field("quarantined", outcome.quarantined);
        outcome.report = self.ingest_round(records, workers, ingress)?;
        Ok(outcome)
    }
}

/// The outcome of one [`Platform::ingest_from_sources`] round.
#[derive(Debug, Clone, Default)]
pub struct SourceIngestReport {
    /// The ingestion round over the delivered records.
    pub report: PlatformReport,
    /// Sources polled this round.
    pub sources_polled: usize,
    /// Sources that delivered a batch (possibly after retries).
    pub delivered: usize,
    /// Sources that exhausted their retry budget this round.
    pub failed: usize,
    /// Sources denied by an open circuit breaker.
    pub quarantined: usize,
    /// Retries spent across all sources this round.
    pub retries: u64,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("org", &self.config.org)
            .field("eiocs", &self.eiocs.len())
            .field("riocs", &self.riocs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::vulnerability::paper_rce_ioc;
    use cais_common::{Observable, ObservableKind, Timestamp};
    use cais_feeds::ThreatCategory;

    fn struts_record(now: Timestamp) -> FeedRecord {
        FeedRecord::new(
            Observable::new(ObservableKind::Cve, "CVE-2017-9805"),
            ThreatCategory::VulnerabilityExploitation,
            "nvd-feed",
            now.add_days(-100),
        )
        .with_cve("CVE-2017-9805")
        .with_description("remote code execution in apache struts")
    }

    #[test]
    fn end_to_end_use_case_flow() {
        let mut platform = Platform::paper_use_case();
        let rioc_feed = platform.broker().subscribe("cais.rioc.published");
        let now = platform.context().now;

        let report = platform
            .ingest_feed_records(vec![struts_record(now), struts_record(now)])
            .unwrap();
        assert_eq!(report.records_in, 2);
        assert_eq!(report.duplicates_dropped, 1);
        assert_eq!(report.ciocs, 1);
        assert_eq!(report.eiocs, 1);
        assert_eq!(report.riocs, 1);

        // The dashboard topic carried the rIoC.
        let messages = rioc_feed.drain();
        assert_eq!(messages.len(), 1);
        let rioc: ReducedIoc = messages[0].decode().unwrap();
        assert_eq!(rioc.cve.as_deref(), Some("CVE-2017-9805"));
        assert_eq!(rioc.nodes, vec![cais_infra::NodeId(4)]);

        // The eIoC landed in MISP with its score.
        let event = platform
            .misp()
            .get_event(rioc.misp_event_id.unwrap())
            .unwrap();
        assert!(event.published);
        assert!(event.threat_score().is_some());
    }

    #[test]
    fn rescored_events_update_dashboard_riocs_and_drop_memos() {
        let mut platform = Platform::paper_use_case();
        let now = platform.context().now;
        platform
            .ingest_feed_records(vec![struts_record(now)])
            .unwrap();
        let rioc = platform.riocs()[0].clone();
        let event_id = rioc.misp_event_id.unwrap();
        let evictions_before = platform.reduce_cache_stats().match_memo_evictions;

        // A decay rescore halved the event's score.
        let decayed = rioc.threat_score / 2.0;
        let scores: HashMap<u64, f64> = [(event_id, decayed)].into_iter().collect();
        assert_eq!(platform.apply_rescored(&scores), 1);
        assert_eq!(platform.riocs()[0].threat_score, decayed);
        assert!(
            platform.reduce_cache_stats().match_memo_evictions > evictions_before,
            "rescore must invalidate the reducer memos"
        );

        // Same scores again: nothing changes, memos stay warm.
        assert_eq!(platform.apply_rescored(&scores), 0);
    }

    #[test]
    fn irrelevant_iocs_do_not_reach_the_dashboard() {
        let mut platform = Platform::paper_use_case();
        let now = platform.context().now;
        let record = FeedRecord::new(
            Observable::new(ObservableKind::Domain, "unrelated.example"),
            ThreatCategory::MalwareDomain,
            "feed",
            now,
        );
        let report = platform.ingest_feed_records(vec![record]).unwrap();
        assert_eq!(report.eiocs, 1);
        assert_eq!(report.riocs, 0);
        assert!(platform.riocs().is_empty());
        // …but the eIoC is still stored for future correlation.
        assert_eq!(platform.misp().store().len(), 1);
    }

    #[test]
    fn alarms_feed_the_heuristics() {
        let mut platform = Platform::paper_use_case();
        let now = platform.context().now;
        // Struts exploitation traffic against node 4 raises an alarm
        // tagged apache-struts…
        let packet = nids::Packet {
            at: now,
            src_ip: "203.0.113.9".into(),
            dst_ip: "192.168.1.14".into(),
            dst_port: 8080,
            payload: "XStreamHandler xstream exploit".into(),
        };
        platform.ingest_packets(&[packet]);
        assert_eq!(platform.context().alarms.read().len(), 1);

        // …so the use-case IoC now scores above its alarm-free 2.7407.
        let score_with_alarm =
            crate::heuristics::vulnerability::evaluate(&paper_rce_ioc(), platform.context());
        assert!(score_with_alarm.total() > 2.7407);
    }

    #[test]
    fn sharing_transfers_published_events() {
        let mut platform = Platform::paper_use_case();
        let now = platform.context().now;
        platform
            .ingest_feed_records(vec![struts_record(now)])
            .unwrap();
        let partner = MispApi::new("partner-org");
        let transferred = platform.share_with(&partner);
        assert_eq!(transferred, 1);
        assert_eq!(partner.store().len(), 1);
    }

    #[test]
    fn report_counters_accumulate_per_round() {
        let mut platform = Platform::paper_use_case();
        let now = platform.context().now;
        platform
            .ingest_feed_records(vec![struts_record(now)])
            .unwrap();
        // Second round: the same record is a pure duplicate.
        let report = platform
            .ingest_feed_records(vec![struts_record(now)])
            .unwrap();
        assert_eq!(report.duplicates_dropped, 1);
        assert_eq!(report.ciocs, 0);
        assert_eq!(platform.eiocs().len(), 1);
    }

    #[test]
    fn nlp_filter_drops_irrelevant_descriptions() {
        let mut platform = Platform::new(
            PlatformConfig {
                nlp_relevance_filter: true,
                ..PlatformConfig::default()
            },
            crate::context::EvaluationContext::paper_use_case(),
        );
        let now = platform.context().now;
        let threat = struts_record(now); // "remote code execution" fires
        let noise = FeedRecord::new(
            Observable::new(ObservableKind::Domain, "pr.example.com"),
            ThreatCategory::MalwareDomain,
            "feed",
            now,
        )
        .with_description("company announces record quarterly earnings");
        let undescribed = FeedRecord::new(
            Observable::new(ObservableKind::Domain, "bare.example.com"),
            ThreatCategory::MalwareDomain,
            "feed",
            now,
        );
        let report = platform
            .ingest_feed_records(vec![threat, noise, undescribed])
            .unwrap();
        assert_eq!(report.records_in, 3);
        assert_eq!(report.nlp_filtered, 1);
        assert_eq!(report.ciocs, 2);
    }

    #[test]
    fn stix_bundle_ingestion_scores_supported_objects() {
        use cais_stix::prelude::*;
        let mut platform = Platform::paper_use_case();
        let stamp = platform.context().now.add_days(-3);
        let bundle = Bundle::new(vec![
            Malware::builder("emotet")
                .label("trojan")
                .status("active")
                .created(stamp)
                .modified(stamp)
                .build()
                .into(),
            Tool::builder("snort")
                .label("network-capture")
                .created(stamp)
                .modified(stamp)
                .build()
                .into(),
            // Unsupported: contributes nothing.
            Campaign::builder("op-x")
                .created(stamp)
                .modified(stamp)
                .build()
                .into(),
        ]);
        let scored = platform.ingest_stix_bundle(&bundle).unwrap();
        assert_eq!(scored, 2);
        assert_eq!(platform.misp().store().len(), 2);
        platform.misp().store().for_each(|event| {
            assert!(event.threat_score().is_some());
            assert!(event.published);
        });
    }

    #[test]
    fn partner_indicators_detect_live_traffic() {
        use cais_stix::prelude::*;
        let mut platform = Platform::paper_use_case();
        let detections_feed = platform.broker().subscribe("cais.detection.fired");
        let stamp = platform.context().now.add_days(-1);

        // A partner shares an indicator for a known C2 address.
        let mut builder = Indicator::builder("[ipv4-addr:value = '203.0.113.77']", stamp);
        builder
            .name("partner-c2")
            .label("malicious-activity")
            .created(stamp)
            .modified(stamp);
        let bundle = Bundle::new(vec![builder.build().into()]);
        platform.ingest_stix_bundle(&bundle).unwrap();
        assert_eq!(platform.armed_indicators(), 1);

        // Traffic from that address arrives.
        let packet = nids::Packet {
            at: platform.context().now,
            src_ip: "203.0.113.77".into(),
            dst_ip: "192.168.1.11".into(),
            dst_port: 443,
            payload: "tls".into(),
        };
        platform.ingest_packets(&[packet]);
        assert_eq!(platform.detections().len(), 1);
        assert_eq!(platform.detections()[0].indicator_name, "partner-c2");
        assert_eq!(detections_feed.drain().len(), 1);
        // The detection registered a sighting, so future scoring sees
        // infrastructure-confirmed evidence.
        assert!(platform
            .context()
            .sightings
            .has_seen(&cais_common::Observable::parse("203.0.113.77").unwrap()));
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use cais_common::{Observable, ObservableKind};
    use cais_feeds::ThreatCategory;

    fn mixed_workload(platform: &Platform, count: usize) -> Vec<FeedRecord> {
        let now = platform.context().now;
        (0..count)
            .map(|i| {
                let mut record = match i % 4 {
                    0 => FeedRecord::new(
                        Observable::new(
                            ObservableKind::Cve,
                            format!("CVE-2017-{:04}", 9000 + i % 40),
                        ),
                        ThreatCategory::VulnerabilityExploitation,
                        format!("feed-{}", i % 3),
                        now.add_days(-((i % 300) as i64)),
                    ),
                    1 => FeedRecord::new(
                        Observable::new(
                            ObservableKind::Domain,
                            format!("c2-{}.evil.example", i % 25),
                        ),
                        ThreatCategory::CommandAndControl,
                        format!("feed-{}", i % 3),
                        now.add_days(-((i % 30) as i64)),
                    ),
                    2 => FeedRecord::new(
                        Observable::new(
                            ObservableKind::Ipv4,
                            format!("203.0.{}.{}", i % 6, i % 200),
                        ),
                        ThreatCategory::Scanner,
                        format!("feed-{}", i % 3),
                        now.add_days(-((i % 10) as i64)),
                    ),
                    _ => FeedRecord::new(
                        Observable::new(
                            ObservableKind::Domain,
                            format!("phish-{}.example", i % 15),
                        ),
                        ThreatCategory::Phishing,
                        format!("feed-{}", i % 3),
                        now,
                    ),
                };
                if i % 4 == 0 {
                    record = record
                        .with_cve(format!("CVE-2017-{:04}", 9000 + i % 40))
                        .with_description("remote code execution advisory");
                }
                record
            })
            .collect()
    }

    fn config_with_filters() -> PlatformConfig {
        PlatformConfig {
            nlp_relevance_filter: true,
            warninglist_filter: true,
            ..PlatformConfig::default()
        }
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        for workers in [2, 4, 8] {
            let mut sequential =
                Platform::new(config_with_filters(), EvaluationContext::paper_use_case());
            let mut parallel =
                Platform::new(config_with_filters(), EvaluationContext::paper_use_case());
            let records = mixed_workload(&sequential, 600);
            let seq_report = sequential.ingest_feed_records(records.clone()).unwrap();
            let par_report = parallel
                .ingest_feed_records_parallel(records, workers)
                .unwrap();
            assert!(
                seq_report.same_counters(&par_report),
                "{workers} workers:\n{seq_report:?}\nvs\n{par_report:?}"
            );
            assert_eq!(sequential.eiocs(), parallel.eiocs(), "{workers} workers");
            assert_eq!(sequential.riocs(), parallel.riocs(), "{workers} workers");
            assert_eq!(
                sequential.misp().store().len(),
                parallel.misp().store().len()
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_across_duplicate_rates() {
        for unique in [5usize, 50, 200] {
            let mut sequential = Platform::paper_use_case();
            let mut parallel = Platform::paper_use_case();
            let now = sequential.context().now;
            let records: Vec<FeedRecord> = (0..400)
                .map(|i| {
                    FeedRecord::new(
                        Observable::new(
                            ObservableKind::Domain,
                            format!("dup-{}.example", i % unique),
                        ),
                        ThreatCategory::MalwareDomain,
                        format!("feed-{}", i % 4),
                        now.add_days(-((i % 20) as i64)),
                    )
                })
                .collect();
            let seq_report = sequential.ingest_feed_records(records.clone()).unwrap();
            let par_report = parallel.ingest_feed_records_parallel(records, 4).unwrap();
            assert!(
                seq_report.same_counters(&par_report),
                "unique={unique}:\n{seq_report:?}\nvs\n{par_report:?}"
            );
            assert_eq!(par_report.duplicates_dropped, 400 - unique);
            assert_eq!(sequential.riocs(), parallel.riocs());
        }
    }

    #[test]
    fn parallel_shares_dedup_state_with_sequential() {
        let mut platform = Platform::paper_use_case();
        let now = platform.context().now;
        let record = || {
            FeedRecord::new(
                Observable::new(ObservableKind::Domain, "seen-once.example"),
                ThreatCategory::MalwareDomain,
                "feed",
                now,
            )
        };
        platform.ingest_feed_records(vec![record()]).unwrap();
        // The same record through the parallel path is a duplicate.
        let report = platform
            .ingest_feed_records_parallel(vec![record(), record()], 4)
            .unwrap();
        assert_eq!(report.duplicates_dropped, 2);
        assert_eq!(report.ciocs, 0);
    }

    #[test]
    fn stage_metrics_account_for_every_record() {
        let mut platform =
            Platform::new(config_with_filters(), EvaluationContext::paper_use_case());
        let records = mixed_workload(&platform, 200);
        let report = platform.ingest_feed_records(records).unwrap();
        let stages = report.stages;
        assert_eq!(stages.filter.records_in, report.records_in);
        assert_eq!(
            stages.filter.dropped,
            report.nlp_filtered + report.benign_filtered
        );
        assert_eq!(stages.dedup.records_in, stages.filter.records_out);
        assert_eq!(stages.dedup.dropped, report.duplicates_dropped);
        assert_eq!(stages.compose.records_in, stages.dedup.records_out);
        assert_eq!(stages.compose.records_out, report.ciocs);
        assert_eq!(stages.enrich.records_in, report.ciocs);
        assert_eq!(stages.enrich.records_out, report.eiocs);
        assert_eq!(stages.reduce.records_in, report.eiocs);
        assert_eq!(stages.reduce.records_out, report.riocs);
        // One bus message per cIoC, eIoC and rIoC.
        assert_eq!(
            stages.publish.records_in,
            report.ciocs + report.eiocs + report.riocs
        );
        assert!(stages.total_nanos() > 0);
    }

    /// Nulls every `uuid` key and every key containing `timestamp`:
    /// fresh v4 UUIDs and store-modification stamps differ run to run.
    fn mask_volatile(value: &mut serde_json::Value) {
        match value {
            serde_json::Value::Object(map) => {
                for (key, field) in map.iter_mut() {
                    if key == "uuid" || key.contains("timestamp") {
                        *field = serde_json::Value::Null;
                    } else {
                        mask_volatile(field);
                    }
                }
            }
            serde_json::Value::Array(items) => items.iter_mut().for_each(mask_volatile),
            _ => {}
        }
    }

    #[test]
    fn parallel_publishes_the_same_bus_traffic() {
        let mut per_worker_count = Vec::new();
        for workers in [1, 4] {
            let mut platform = Platform::paper_use_case();
            let all = platform.broker().subscribe("#");
            let mut records = mixed_workload(&platform, 120);
            // Advisories for the inventory's Apache Struts, so the round
            // also announces rIoCs.
            let now = platform.context().now;
            for cve in ["CVE-2017-9805", "CVE-2017-5638"] {
                records.push(
                    FeedRecord::new(
                        Observable::new(ObservableKind::Cve, cve),
                        ThreatCategory::VulnerabilityExploitation,
                        "nvd-feed",
                        now.add_days(-100),
                    )
                    .with_cve(cve)
                    .with_description("remote code execution in apache struts"),
                );
            }
            let report = platform
                .ingest_feed_records_parallel(records, workers)
                .unwrap();
            assert!(report.riocs > 0, "the workload must yield rIoCs");
            let mut by_topic: std::collections::BTreeMap<String, Vec<serde_json::Value>> =
                std::collections::BTreeMap::new();
            for message in all.drain() {
                let topic = message.topic.as_str().to_owned();
                let mut payload = message.payload;
                if topic == topics::MISP_EVENT_PUBLISHED {
                    // Every published announcement is the stored event.
                    let id = payload["id"].as_u64().expect("event id");
                    let stored = platform
                        .misp()
                        .store()
                        .with_event(id, |event| serde_json::to_value(event))
                        .expect("announced event is stored")
                        .unwrap();
                    assert_eq!(payload, stored, "{workers} workers, event {id}");
                }
                mask_volatile(&mut payload);
                by_topic.entry(topic).or_default().push(payload);
            }
            let count = |topic: &str| by_topic.get(topic).map_or(0, Vec::len);
            assert_eq!(count(topics::CIOC_RECEIVED), report.ciocs);
            assert_eq!(count(topics::MISP_EVENT), report.eiocs);
            assert_eq!(count(topics::MISP_EVENT_UPDATED), report.eiocs);
            assert_eq!(count(topics::MISP_EVENT_PUBLISHED), report.eiocs);
            assert_eq!(count(topics::EIOC_READY), report.eiocs);
            assert_eq!(count(topics::RIOC_PUBLISHED), report.riocs);
            per_worker_count.push(by_topic);
        }
        let serial = &per_worker_count[0];
        let parallel = &per_worker_count[1];
        assert_eq!(
            serial.keys().collect::<Vec<_>>(),
            parallel.keys().collect::<Vec<_>>()
        );
        for (topic, payloads) in serial {
            assert_eq!(payloads, &parallel[topic], "topic {topic}");
        }
    }

    #[test]
    fn serial_and_parallel_yield_identical_telemetry_counters() {
        let mut sequential =
            Platform::new(config_with_filters(), EvaluationContext::paper_use_case());
        let mut parallel =
            Platform::new(config_with_filters(), EvaluationContext::paper_use_case());
        let records = mixed_workload(&sequential, 400);
        sequential.ingest_feed_records(records.clone()).unwrap();
        parallel.ingest_feed_records_parallel(records, 4).unwrap();
        // Counters (pipeline stages, bus messages, MISP mutations) are
        // deterministic outcomes and must match exactly; gauges and
        // histograms carry wall times and sampling moments, which
        // legitimately differ.
        let serial = sequential.telemetry().snapshot();
        let par = parallel.telemetry().snapshot();
        assert_eq!(serial.counters, par.counters);
        assert_ne!(serial.counters["pipeline_ciocs_total"], 0);
        assert_ne!(serial.counters["pipeline_eiocs_total"], 0);
        assert_ne!(serial.counters["bus_published_total"], 0);
        assert_ne!(serial.counters["misp_events_inserted_total"], 0);
    }

    #[test]
    fn round_records_an_ingest_span() {
        let mut platform = Platform::paper_use_case();
        let records = mixed_workload(&platform, 40);
        platform.ingest_feed_records_parallel(records, 4).unwrap();
        let spans = platform.tracer().snapshot_subsystem("pipeline");
        assert_eq!(spans.len(), 1);
        let round = &spans[0];
        assert_eq!(round.name, "ingest_round");
        assert!(round.duration_nanos.is_some());
        assert!(round.fields.iter().any(|(k, v)| k == "workers" && v == "4"));
        // The round's store inserts and bus publishes chain beneath it.
        let stores = platform.tracer().snapshot_subsystem("store");
        assert!(!stores.is_empty());
        assert!(stores
            .iter()
            .filter(|s| s.name == "store_insert")
            .all(|s| s.trace_id == round.trace_id && s.parent_id == round.span_id));
        let buses = platform.tracer().snapshot_subsystem("bus");
        assert!(buses
            .iter()
            .any(|s| s.name == "bus_publish" && s.trace_id == round.trace_id));
    }

    #[test]
    fn source_poll_roots_the_trace_above_the_round() {
        use cais_feeds::{FeedFormat, MemorySource, ResilienceConfig, ResilientSource};
        let mut platform = Platform::paper_use_case();
        let source = MemorySource::new(
            "osint-a",
            FeedFormat::Csv,
            cais_feeds::ThreatCategory::CommandAndControl,
            "value,date\nalpha.evil.example,2018-06-01T00:00:00Z\n",
        );
        let mut sources = vec![ResilientSource::new(
            Box::new(source),
            &ResilienceConfig::default(),
            7,
        )];
        platform.ingest_from_sources(&mut sources, 1).unwrap();
        let ingress = platform.tracer().snapshot_subsystem("ingress");
        assert_eq!(ingress.len(), 1);
        assert_eq!(ingress[0].name, "feed_poll");
        assert_eq!(ingress[0].parent_id, 0, "the poll is the trace root");
        let rounds = platform.tracer().snapshot_subsystem("pipeline");
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].trace_id, ingress[0].trace_id);
        assert_eq!(rounds[0].parent_id, ingress[0].span_id);
    }

    #[test]
    fn failed_insert_keeps_and_announces_the_stored_prefix() {
        for workers in [1, 4] {
            let mut platform = Platform::paper_use_case();
            let created = platform.broker().subscribe(topics::MISP_EVENT);
            let ciocs = platform.broker().subscribe(topics::CIOC_RECEIVED);
            let now = platform.context().now;
            let mut records = mixed_workload(&platform, 40);
            // An address the store's attribute validation rejects.
            records.insert(
                20,
                FeedRecord::new(
                    Observable::new(ObservableKind::Ipv4, "not-an-address"),
                    ThreatCategory::Scanner,
                    "feed-0",
                    now,
                ),
            );
            let err = platform.ingest_feed_records_parallel(records, workers);
            assert!(err.is_err(), "{workers} workers");
            let stored = platform.misp().store().len();
            assert!(ciocs.drain().len() > stored, "{workers} workers");
            assert_eq!(created.drain().len(), stored, "{workers} workers");
            assert_eq!(platform.eiocs().len(), stored, "{workers} workers");
            let mut ids: Vec<u64> = platform
                .eiocs()
                .iter()
                .map(|e| e.misp_event_id.expect("kept eIoCs are stored"))
                .collect();
            ids.dedup();
            assert_eq!(ids.len(), stored, "{workers} workers");
        }
    }

    #[test]
    fn single_worker_runs_inline() {
        let mut platform = Platform::paper_use_case();
        let records = mixed_workload(&platform, 40);
        let report = platform.ingest_feed_records_parallel(records, 1).unwrap();
        assert_eq!(report.records_in, 40);
        assert!(report.ciocs > 0);
    }
}

#[cfg(test)]
mod source_ingest_tests {
    use super::*;
    use cais_common::resilience::{FaultKind, FaultPlan};
    use cais_feeds::{
        FeedFormat, FeedSource, FlakySource, MemorySource, ResilienceConfig, ResilientSource,
        ThreatCategory,
    };

    /// CSV with an explicit timestamp column: records carry no
    /// fetch-time stamp, so two independent fetches parse into
    /// byte-identical batches.
    fn memory(name: &str, values: &[&str]) -> MemorySource {
        let mut payload = String::from("value,date\n");
        for value in values {
            payload.push_str(value);
            payload.push_str(",2018-06-01T00:00:00Z\n");
        }
        MemorySource::new(
            name,
            FeedFormat::Csv,
            ThreatCategory::CommandAndControl,
            payload,
        )
    }

    fn resilient(source: impl FeedSource + 'static) -> ResilientSource {
        ResilientSource::new(Box::new(source), &ResilienceConfig::default(), 42)
    }

    #[test]
    fn faulted_sources_degrade_gracefully_and_deterministically() {
        let payload_a: &[&str] = &["alpha.evil.example", "beta.evil.example"];
        let payload_b: &[&str] = &["gamma.evil.example"];
        let payload_dead: &[&str] = &["never-seen.evil.example"];

        let build_sources = || {
            let plan = FaultPlan::new(9)
                .fail_first("feeds.transient", 2, FaultKind::Error)
                .always("feeds.dead", FaultKind::Error);
            vec![
                resilient(memory("healthy", payload_a)),
                resilient(FlakySource::scripted(
                    memory("transient", payload_b),
                    plan.clone(),
                    "feeds.transient",
                )),
                resilient(FlakySource::scripted(
                    memory("dead", payload_dead),
                    plan,
                    "feeds.dead",
                )),
            ]
        };

        // Fault-free baseline over the sources that survive: the dead
        // feed's records never existed as far as outputs are concerned.
        let mut baseline = Platform::paper_use_case();
        let mut healthy_only = vec![
            resilient(memory("healthy", payload_a)),
            resilient(memory("transient", payload_b)),
        ];
        let expected = baseline.ingest_from_sources(&mut healthy_only, 1).unwrap();
        assert_eq!(expected.delivered, 2);
        assert_eq!(expected.retries, 0);

        for workers in [1, 4] {
            let mut platform = Platform::paper_use_case();
            let mut sources = build_sources();
            let outcome = platform.ingest_from_sources(&mut sources, workers).unwrap();
            assert_eq!(outcome.delivered, 2, "{workers} workers");
            assert_eq!(outcome.failed, 1, "{workers} workers");
            assert!(outcome.retries >= 2, "{workers} workers");
            assert!(
                outcome.report.same_counters(&expected.report),
                "{workers} workers:\n{:?}\nvs\n{:?}",
                outcome.report,
                expected.report
            );
            assert_eq!(platform.eiocs(), baseline.eiocs(), "{workers} workers");
            assert_eq!(platform.riocs(), baseline.riocs(), "{workers} workers");
        }
    }

    #[test]
    fn repeated_rounds_quarantine_a_dead_source() {
        let plan = FaultPlan::new(3).always("feeds.dead", FaultKind::Error);
        let config = ResilienceConfig::default();
        let mut sources = vec![ResilientSource::new(
            Box::new(FlakySource::scripted(
                memory("dead", &["x.example"]),
                plan,
                "feeds.dead",
            )),
            &config,
            42,
        )];
        let mut platform = Platform::paper_use_case();
        // Default breaker trips after 3 consecutive failed rounds.
        for _ in 0..3 {
            let outcome = platform.ingest_from_sources(&mut sources, 1).unwrap();
            assert_eq!(outcome.failed, 1);
        }
        let outcome = platform.ingest_from_sources(&mut sources, 1).unwrap();
        assert_eq!(outcome.quarantined, 1);
        assert!(sources[0].is_quarantined());
    }
}

#[cfg(test)]
mod warninglist_tests {
    use super::*;
    use cais_common::{Observable, ObservableKind};
    use cais_feeds::ThreatCategory;

    #[test]
    fn warninglist_filter_drops_known_benign_values() {
        let mut platform = Platform::new(
            PlatformConfig {
                warninglist_filter: true,
                ..PlatformConfig::default()
            },
            crate::context::EvaluationContext::paper_use_case(),
        );
        let now = platform.context().now;
        let make = |kind, value: &str| {
            FeedRecord::new(
                Observable::new(kind, value),
                ThreatCategory::CommandAndControl,
                "feed",
                now,
            )
        };
        let report = platform
            .ingest_feed_records(vec![
                make(ObservableKind::Ipv4, "10.0.0.7"),         // private
                make(ObservableKind::Ipv4, "8.8.8.8"),          // resolver
                make(ObservableKind::Domain, "foo.test"),       // reserved TLD
                make(ObservableKind::Ipv4, "45.33.12.7"),       // genuine
                make(ObservableKind::Domain, "real-threat.ru"), // genuine
            ])
            .unwrap();
        assert_eq!(report.records_in, 5);
        assert_eq!(report.benign_filtered, 3);
        assert_eq!(report.ciocs, 2);
    }

    #[test]
    fn filter_off_passes_everything() {
        let mut platform = Platform::paper_use_case();
        let now = platform.context().now;
        let record = FeedRecord::new(
            Observable::new(ObservableKind::Ipv4, "10.0.0.7"),
            ThreatCategory::CommandAndControl,
            "feed",
            now,
        );
        let report = platform.ingest_feed_records(vec![record]).unwrap();
        assert_eq!(report.benign_filtered, 0);
        assert_eq!(report.ciocs, 1);
    }
}
