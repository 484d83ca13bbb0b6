//! Machine-readable search benchmark: an incremental inverted index
//! built over a 200k-event / 1M-attribute store, queried across every
//! query-language axis (type, tag, org, value token, score and date
//! ranges, boolean combinations) while a churn writer concurrently
//! mutates events, with the index re-synced from the store changelog
//! every 64 queries. Indexed results are checked against the
//! linear-scan [`matches_event`] oracle before and after churn — a
//! mismatch aborts the run, which fails CI — and the run is held to
//! two bars: sub-millisecond p99 single-query latency, and ≥5×
//! incremental-sync speedup over a from-scratch rebuild after ~1%
//! churn. Writes `BENCH_search.json` for trend tracking at the
//! default scale only; any other scale prints the document to stdout,
//! so a smoke run never replaces the full-scale snapshot.
//!
//! ```text
//! cargo run --release -p cais-bench --bin search_json              # writes BENCH_search.json
//! cargo run --release -p cais-bench --bin search_json -- -         # print to stdout instead
//! cargo run --release -p cais-bench --bin search_json -- 2000 400  # events queries (smoke sizing, stdout)
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cais_bench::report::{
    search_bench_doc, SearchBenchMeasurement, SEARCH_BAR_MAX_P99_NANOS,
    SEARCH_BAR_MIN_INCREMENTAL_SPEEDUP,
};
use cais_bench::workloads;
use cais_common::time::MILLIS_PER_DAY;
use cais_common::Timestamp;
use cais_misp::{MispStore, SearchBackend, SearchQuery};
use cais_search::{matches_event, Query, SearchIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Queries per index re-sync in the timed loop — the serving cadence a
/// search endpoint riding the changelog would use.
const SYNC_EVERY: usize = 64;

/// Fraction of the store churned before the incremental-vs-rebuild
/// comparison.
const CHURN_FRACTION: f64 = 0.01;

/// The snapshot scale: events in the store, timed queries.
const DEFAULT_EVENTS: usize = 200_000;
const DEFAULT_QUERIES: usize = 4_000;

/// The timed query pool: analyst-lookup shapes spanning every indexed
/// axis (type, tag, org, value token, published flag, score and date
/// ranges, AND/OR/NOT). Each is selective — a value token or a tight
/// range keeps hits in the hundreds-to-low-thousands, the shape of a
/// real pivot query — because the timer covers result materialization
/// too, and a query that drags 25% of a 200k-event store back is a
/// bulk export, not a search. `{date}` is substituted with an RFC 3339
/// instant two days before the population's "now".
const TIMED_QUERIES: &[&str] = &[
    "type:ip-dst AND tag:tlp:red AND value:137",
    "org:circl AND value:9100",
    "value:4242",
    "tag:tlp:amber AND NOT org:fleet-soc AND type:url AND value:59",
    "published:false AND tag:tlp:green AND value:42",
    "score >= 4.9",
    "(org:circl OR org:partner-isac) AND score >= 3.0 AND type:domain AND value:7",
    "date >= {date} AND type:url AND value:11",
];

/// The `(id, version)` pairs the linear-scan oracle returns for a
/// typed query.
fn linear_ids(store: &MispStore, query: &Query) -> Vec<(u64, u64)> {
    let mut ids: Vec<(u64, u64)> = store
        .snapshot()
        .iter()
        .filter(|v| matches_event(query, &v.event))
        .map(|v| (v.event.id, v.version))
        .collect();
    ids.sort_unstable();
    ids
}

/// Asserts the freshly synced index answers every pool query exactly
/// as the linear oracle does.
fn assert_equivalent(index: &SearchIndex, store: &MispStore, pool: &[Query], label: &str) {
    index.sync(store);
    for query in pool {
        let indexed: Vec<(u64, u64)> = index
            .search(query)
            .iter()
            .map(|v| (v.event.id, v.version))
            .collect();
        let linear = linear_ids(store, query);
        assert!(
            indexed == linear,
            "{label}: indexed results diverge from the linear oracle on `{query}` \
             ({} indexed vs {} linear)",
            indexed.len(),
            linear.len(),
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let numeric: Vec<usize> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let events = numeric.first().copied().unwrap_or(DEFAULT_EVENTS);
    let queries = numeric
        .get(1)
        .copied()
        .unwrap_or(DEFAULT_QUERIES)
        .max(TIMED_QUERIES.len());
    let to_stdout = args.first().map(String::as_str) == Some("-")
        || (events, queries) != (DEFAULT_EVENTS, DEFAULT_QUERIES);

    let now = Timestamp::from_unix_millis(50 * MILLIS_PER_DAY);
    let store = Arc::new(MispStore::new());
    let mut attributes = 0;
    let mut ids = Vec::with_capacity(events);
    let phase = Instant::now();
    for event in workloads::search_events(42, events, now) {
        attributes += event.attributes.len();
        ids.push(store.insert(event).expect("insert"));
    }
    eprintln!(
        "search_json: populated {events} events / {attributes} attributes in {:.1}s",
        phase.elapsed().as_secs_f64()
    );

    let pool: Vec<Query> = TIMED_QUERIES
        .iter()
        .map(|q| q.replace("{date}", &now.add_days(-2).to_rfc3339()))
        .map(|q| Query::parse(&q).expect("pool query parses"))
        .collect();

    // Cold build: the first sync walks the full snapshot.
    let started = Instant::now();
    let summary = index_cold_build(&store);
    let (index, cold_build_nanos) = (summary, started.elapsed().as_nanos() as u64);
    eprintln!(
        "search_json: cold build {:.1}s",
        cold_build_nanos as f64 / 1e9
    );
    let phase = Instant::now();
    assert_equivalent(&index, &store, &pool, "pre-churn");
    eprintln!(
        "search_json: pre-churn equivalence {:.1}s",
        phase.elapsed().as_secs_f64()
    );

    // Concurrent churn writer: seeded random single-event updates at a
    // steady ~20k ops/s for the whole timed window, so every periodic
    // sync really absorbs changelog deltas.
    let running = Arc::new(AtomicBool::new(true));
    let churn_ops = Arc::new(AtomicU64::new(0));
    let writer = {
        let store = Arc::clone(&store);
        let running = Arc::clone(&running);
        let churn_ops = Arc::clone(&churn_ops);
        let ids = ids.clone();
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(99);
            let mut round = 0u64;
            while running.load(Ordering::Relaxed) {
                let id = ids[rng.gen_range(0..ids.len())];
                round += 1;
                let ok = store
                    .update(id, |event| {
                        event.info = format!("advisory {id} (live churn {round})");
                    })
                    .is_ok();
                if ok {
                    churn_ops.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        })
    };

    // Timed loop: single-query latencies, with a changelog sync every
    // SYNC_EVERY queries (outside the per-query timers — sync cost is
    // measured separately below).
    let phase = Instant::now();
    let mut nanos: Vec<u64> = Vec::with_capacity(queries);
    let mut hits = 0u64;
    for i in 0..queries {
        if i % SYNC_EVERY == 0 {
            index.sync(&store);
        }
        let query = &pool[i % pool.len()];
        let started = Instant::now();
        let results = index.search(query);
        nanos.push(started.elapsed().as_nanos() as u64);
        hits += results.len() as u64;
    }
    running.store(false, Ordering::Relaxed);
    writer.join().expect("churn writer");
    let churn_ops = churn_ops.load(Ordering::Relaxed);
    eprintln!(
        "search_json: timed loop {:.1}s ({churn_ops} live churn ops)",
        phase.elapsed().as_secs_f64()
    );
    let phase = Instant::now();
    assert_equivalent(&index, &store, &pool, "post-churn");
    eprintln!(
        "search_json: post-churn equivalence {:.1}s",
        phase.elapsed().as_secs_f64()
    );

    // One legacy-filter probe through the SearchBackend seam: the
    // compiled SearchQuery must answer exactly like the store's
    // retained linear path.
    let legacy = SearchQuery {
        attr_type: Some("ip-dst".to_owned()),
        tag: Some("tlp:red".to_owned()),
        published_only: true,
        ..SearchQuery::default()
    };
    let via_backend: Vec<(u64, u64)> = index
        .search_query(&store, &legacy)
        .iter()
        .map(|v| (v.event.id, v.version))
        .collect();
    let via_linear: Vec<(u64, u64)> = store
        .search_linear(&legacy)
        .iter()
        .map(|v| (v.event.id, v.version))
        .collect();
    assert_eq!(
        via_backend, via_linear,
        "SearchBackend diverges from search_linear"
    );

    // Incremental vs rebuild over the same ~1% churn.
    let churned = workloads::churn_events(&store, CHURN_FRACTION, u64::MAX);
    let started = Instant::now();
    let summary = index.sync(&store);
    let incremental_sync_nanos = started.elapsed().as_nanos() as u64;
    assert!(!summary.rebuilt, "incremental sync fell back to a rebuild");
    assert_eq!(
        summary.reindexed, churned,
        "incremental sync must reindex exactly the churned events"
    );
    let started = Instant::now();
    let summary = index.rebuild(&store);
    let rebuild_nanos = started.elapsed().as_nanos() as u64;
    assert!(summary.rebuilt, "rebuild did not rebuild");
    assert_equivalent(&index, &store, &pool, "post-rebuild");

    nanos.sort_unstable();
    let rank = |q: f64| nanos[((nanos.len() - 1) as f64 * q) as usize];
    let m = SearchBenchMeasurement {
        events,
        attributes,
        queries,
        churn_ops,
        cold_build_nanos,
        query_wall_nanos: nanos.iter().sum(),
        p50_nanos: rank(0.50),
        p95_nanos: rank(0.95),
        p99_nanos: rank(0.99),
        hits,
        churned,
        incremental_sync_nanos,
        rebuild_nanos,
        equivalent: true,
    };
    eprintln!(
        "search_json: {events} events / {attributes} attributes, {queries} queries under \
         {churn_ops} churn ops -> p50 {:.1}µs p95 {:.1}µs p99 {:.1}µs ({:.0} queries/s); \
         sync {:.2}ms vs rebuild {:.1}ms after {churned} churned ({:.1}x)",
        m.p50_nanos as f64 / 1e3,
        m.p95_nanos as f64 / 1e3,
        m.p99_nanos as f64 / 1e3,
        m.queries_per_sec(),
        m.incremental_sync_nanos as f64 / 1e6,
        m.rebuild_nanos as f64 / 1e6,
        m.incremental_speedup(),
    );
    assert!(
        m.p99_nanos < SEARCH_BAR_MAX_P99_NANOS,
        "p99 {}ns breaches the {}ns bar",
        m.p99_nanos,
        SEARCH_BAR_MAX_P99_NANOS
    );
    assert!(
        m.incremental_speedup() >= SEARCH_BAR_MIN_INCREMENTAL_SPEEDUP,
        "incremental sync speedup {:.1}x is below the {:.0}x bar",
        m.incremental_speedup(),
        SEARCH_BAR_MIN_INCREMENTAL_SPEEDUP
    );
    let text = serde_json::to_string_pretty(&search_bench_doc(&m)).expect("doc serializes");

    if to_stdout {
        println!("{text}");
    } else {
        let path = "BENCH_search.json";
        std::fs::write(path, format!("{text}\n")).expect("write BENCH_search.json");
        eprintln!("wrote {path}");
    }
}

/// Builds the index with its first (full-walk) sync and returns it.
fn index_cold_build(store: &MispStore) -> SearchIndex {
    let index = SearchIndex::new();
    let summary = index.sync(store);
    assert!(summary.rebuilt, "cold sync must walk the full snapshot");
    index
}
