//! `analyst-search`: analysts querying the event store in process, one
//! `MispApi::search` per operation.
//!
//! The store holds events from the search-events generator behind the
//! `cais-search` index. Queries come from a fixed pool that covers every
//! `SearchQuery` axis. At fixed step indices the loop writes to the store
//! (one insert and one update) and runs a decay sweep on a virtual clock
//! that advances a fixed step per sweep; the first query after either
//! pays the index catch-up. No JSON decoding and no TCP: gains in those
//! layers should leave this workload unchanged.

use std::sync::Arc;

use cais_common::resilience::VirtualClock;
use cais_common::Timestamp;
use cais_decay::{BaseScorer, DecayEngine, DecayModel};
use cais_misp::store::SearchQuery;
use cais_misp::{MispApi, MispStore, Tag};
use cais_search::{matches_event, Query, SearchIndex};

use crate::canon::Digest;
use crate::harness::{elapsed_ns, Step, Workload};
use crate::metrics::{ratio, Values};
use crate::trace::{Tracer, OP_LAYER};
use crate::{cycle_pick, mix};

/// Events preloaded into the store.
pub const EVENTS: usize = 50_000;
/// One store write (insert + update) every `WRITE_EVERY` steps.
const WRITE_EVERY: u64 = 50;
/// One decay sweep every `SWEEP_EVERY` steps.
const SWEEP_EVERY: u64 = 200;
/// Virtual time between sweeps. Short, so a run flips a few percent of
/// the store: with whole days per sweep the store's state drifts
/// within a run (most events expire) and a faster program, running
/// more sweeps, would meet a different store.
const SWEEP_STEP: std::time::Duration = std::time::Duration::from_secs(30 * 60);
/// One query in `CHECK_EVERY` is re-answered by a linear scan.
const CHECK_EVERY: u64 = 101;

/// Fixed "now" the generated events are dated from.
fn generation_now() -> Timestamp {
    Timestamp::from_ymd_hms(2024, 1, 31, 0, 0, 0)
}

/// The query pool: every `SearchQuery` axis (type, value substring,
/// tag, date, published) alone and combined, in four cost groups.
///
/// - Five selective tag queries: one threat score (about 50 of 50 000
///   events carry any one value), narrowed by type or published.
/// - Three selective date queries: a threat score within the last
///   days; the date range sets thousands of bits before the
///   intersection leaves a handful of hits.
/// - Four broad queries: thousands of hit handles each.
/// - One value substring: the one axis postings cannot answer, a
///   scan of every event.
///
/// The median of the pool's latencies lies in the middle group, whose
/// queries do their work in the index and touch only a few events.
/// Broad queries, which touch thousands of events spread over the
/// heap, follow a shared machine's drift more closely, so a median
/// among them spreads more from run to run (see the README).
fn query_pool(now: Timestamp) -> Vec<SearchQuery> {
    let q = |attr_type: Option<&str>,
             contains: Option<&str>,
             tag: Option<Tag>,
             since_days: Option<i64>,
             published_only: bool| SearchQuery {
        attr_type: attr_type.map(str::to_owned),
        value_contains: contains.map(str::to_owned),
        tag: tag.map(|t| t.name().to_owned()),
        since: since_days.map(|d| now.add_days(-d)),
        published_only,
    };
    let score = |value: &str| Some(Tag::machine("cais", "threat-score", value));
    let expired = Tag::machine("cais", "decay-state", "expired");
    vec![
        q(Some("domain"), None, score("1.25"), None, false),
        q(Some("vulnerability"), None, score("3.50"), None, true),
        q(Some("email-src"), None, score("4.08"), None, true),
        q(None, None, score("3.14"), None, false),
        q(Some("url"), None, score("0.77"), None, false),
        q(None, None, score("0.42"), Some(3), false),
        q(Some("vulnerability"), None, score("2.00"), Some(5), true),
        q(Some("domain"), None, score("4.44"), Some(4), false),
        q(Some("sha256"), None, Some(Tag::tlp_red()), None, false),
        q(None, None, None, Some(2), false),
        q(Some("ip-dst"), None, Some(Tag::tlp_green()), None, true),
        q(None, None, Some(expired), None, false),
        q(None, Some("host-12"), None, None, false),
    ]
}

/// The set-up workload.
pub struct AnalystSearch {
    seed: u64,
    api: MispApi,
    store: Arc<MispStore>,
    index: Arc<SearchIndex>,
    engine: DecayEngine,
    clock: VirtualClock,
    pool: Vec<SearchQuery>,
    dirty: bool,
    inserted: u64,
    check_failures: Vec<String>,
    failure_count: u64,
    digest: Digest,
    queries: u64,
    hits: u64,
    sweeps: u64,
    flipped: u64,
    sync_reindexed: u64,
}

impl AnalystSearch {
    /// Loads the store, builds the index and the decay engine, runs the
    /// first sweep and answers every pool query once.
    ///
    /// # Panics
    ///
    /// Panics when an insert or the first sweep fails.
    pub fn setup(seed: u64) -> Self {
        let now = generation_now();
        let api = MispApi::new("CAIS");
        let store = Arc::clone(api.store());
        for event in cais_bench::workloads::search_events(seed, EVENTS, now) {
            store.insert(event).expect("insert generated event");
        }
        let index = Arc::new(SearchIndex::new());
        index.sync(&store);
        api.set_search_backend(Arc::clone(&index) as Arc<dyn cais_misp::store::SearchBackend>);
        let clock = VirtualClock::starting_at(now);
        let engine = DecayEngine::new(
            DecayModel::default(),
            BaseScorer::cais_default(),
            Arc::new(clock.clone()),
        );
        let first = engine.sweep(&store).expect("first sweep");
        let mut w = AnalystSearch {
            seed,
            api,
            store,
            index,
            engine,
            clock,
            pool: query_pool(now),
            dirty: true,
            inserted: 0,
            check_failures: Vec::new(),
            failure_count: 0,
            digest: Digest::default(),
            queries: 0,
            hits: 0,
            sweeps: 0,
            flipped: 0,
            sync_reindexed: 0,
        };
        w.digest.u64(first.flipped_expired as u64);
        for query in &w.pool {
            for hit in w.api.search(query) {
                w.digest.u64(hit.event.id);
            }
        }
        w.dirty = false;
        w
    }

    fn fail(&mut self, what: String) {
        self.failure_count += 1;
        if self.check_failures.len() < 8 {
            self.check_failures.push(what);
        }
    }

    /// Compares indexed hits with a linear `matches_event` scan.
    fn check(&mut self, pool_index: usize, hits: &[cais_misp::store::VersionedEvent], step: u64) {
        let query = Query::from(&self.pool[pool_index]);
        let mut expected = Vec::new();
        self.store.for_each_versioned(|event, version| {
            if matches_event(&query, event) {
                expected.push((event.id, version));
            }
        });
        expected.sort_unstable();
        let got: Vec<(u64, u64)> = hits.iter().map(|v| (v.event.id, v.version)).collect();
        if got != expected {
            self.fail(format!(
                "step {step}: query {pool_index} returned {} hits, scan finds {}",
                got.len(),
                expected.len()
            ));
        }
    }

    fn write(&mut self, step: u64, tracer: &mut Tracer) -> Step {
        let draw = mix(self.seed, step);
        let mut event = cais_bench::workloads::search_events(draw, 1, generation_now())
            .pop()
            .expect("one event");
        event.info = format!("advisory {}", EVENTS as u64 + self.inserted);
        let target = 1 + draw % EVENTS as u64;
        let started = std::time::Instant::now();
        tracer.begin("misp", "misp.write");
        let written = self.store.insert(event).and_then(|_| {
            self.store.update(target, |e| {
                e.info = format!("advisory {target} revision {step}");
            })
        });
        tracer.end();
        let nanos = elapsed_ns(started);
        self.inserted += 1;
        self.dirty = true;
        if let Err(e) = written {
            self.fail(format!("step {step}: write: {e}"));
        }
        Step::Background { nanos }
    }

    fn sweep(&mut self, step: u64, tracer: &mut Tracer) -> Step {
        self.clock.advance(SWEEP_STEP);
        let started = std::time::Instant::now();
        let swept = tracer.span("decay", "decay.sweep", || self.engine.sweep(&self.store));
        let nanos = elapsed_ns(started);
        self.dirty = true;
        match swept {
            Ok(summary) => {
                self.sweeps += 1;
                self.flipped += (summary.flipped_expired + summary.flipped_active) as u64;
            }
            Err(e) => self.fail(format!("step {step}: sweep: {e}")),
        }
        Step::Background { nanos }
    }

    fn query(&mut self, step: u64, tracer: &mut Tracer) -> Step {
        let pool_index = cycle_pick(self.seed, self.queries, self.pool.len());
        let started = std::time::Instant::now();
        tracer.begin(OP_LAYER, "analyst.search");
        if self.dirty {
            // The catch-up `MispApi::search` would run first thing; made
            // explicit so the trace shows it apart from the query.
            let summary = tracer.span("search", "search.sync", || self.index.sync(&self.store));
            self.sync_reindexed += summary.reindexed as u64;
        }
        let hits = tracer.span("search", "search.query", || {
            self.api.search(&self.pool[pool_index])
        });
        tracer.end();
        let nanos = elapsed_ns(started);
        self.dirty = false;
        self.queries += 1;
        self.hits += hits.len() as u64;
        let failures = self.failure_count;
        if step.is_multiple_of(CHECK_EVERY) {
            self.check(pool_index, &hits, step);
        }
        Step::Op {
            nanos,
            ok: self.failure_count == failures,
        }
    }
}

impl Workload for AnalystSearch {
    fn step(&mut self, step: u64, tracer: &mut Tracer) -> Step {
        if step % SWEEP_EVERY == SWEEP_EVERY / 2 {
            self.sweep(step, tracer)
        } else if step % WRITE_EVERY == WRITE_EVERY - 1 {
            self.write(step, tracer)
        } else {
            self.query(step, tracer)
        }
    }

    fn finish(&mut self, _values: &mut Values) -> bool {
        // A last full check of every pool query against the final state.
        for i in 0..self.pool.len() {
            let hits = self.api.search(&self.pool[i]);
            self.check(i, &hits, u64::MAX);
        }
        self.failure_count == 0
    }

    fn layer_metrics(&self, tracer: &Tracer, values: &mut Values) {
        values.set("misp.write_ms", tracer.totals("misp.write").mean_ms());
        values.set("search.sync_ms", tracer.totals("search.sync").mean_ms());
        values.set("search.sync_reindexed", self.sync_reindexed as f64);
        values.set("search.query_ms", tracer.totals("search.query").mean_ms());
        values.set(
            "search.hits_per_query",
            ratio(self.hits as f64, self.queries as f64),
        );
        values.set("decay.sweep_ms", tracer.totals("decay.sweep").mean_ms());
        values.set("decay.sweeps", self.sweeps as f64);
        values.set("decay.flipped", self.flipped as f64);
    }

    fn digest(&self) -> String {
        self.digest.hex()
    }

    fn notes(&self) -> Vec<String> {
        let mut notes = vec![format!(
            "queries {}, hits {}, sweeps {}, flipped {}, inserted {}",
            self.queries, self.hits, self.sweeps, self.flipped, self.inserted
        )];
        notes.extend(
            self.check_failures
                .iter()
                .map(|f| format!("check failed: {f}")),
        );
        notes
    }
}
