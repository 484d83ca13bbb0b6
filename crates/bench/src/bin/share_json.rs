//! Machine-readable share-path benchmark: a 10k-event store pulled
//! three times through the [`ShareExporter`] cache with 1% churn
//! between the warm and final pulls, timed against the naive
//! re-serialize-everything baseline. Byte equivalence of the cached
//! and naive outputs (and of serial vs parallel STIX bundle assembly)
//! is asserted — a mismatch aborts the run, which fails CI. Writes
//! `BENCH_share.json` for trend tracking at the default scale only; any
//! other scale prints the document to stdout, so a smoke run never
//! replaces the full-scale snapshot.
//!
//! ```text
//! cargo run --release -p cais-bench --bin share_json            # writes BENCH_share.json
//! cargo run --release -p cais-bench --bin share_json -- -       # print to stdout instead
//! cargo run --release -p cais-bench --bin share_json -- 1000 3  # events pulls (smoke sizing, stdout)
//! ```

use std::time::Instant;

use cais_bench::report::{share_bench_doc, ShareBenchMeasurement};
use cais_bench::workloads;
use cais_misp::export::ExportRegistry;
use cais_misp::{MispStore, ShareExporter};

const FORMAT: &str = "misp-json";
const CHURN_FRACTION: f64 = 0.01;

/// The snapshot scale: events in the store, pulls.
const DEFAULT_EVENTS: usize = 10_000;
const DEFAULT_PULLS: usize = 3;

/// The uncached baseline: every event re-serialized on every pull,
/// joined exactly like [`ShareExporter::pull`] joins its documents.
fn naive_pull(store: &MispStore, registry: &ExportRegistry) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, versioned) in store.snapshot().iter().enumerate() {
        if i > 0 {
            out.push(b'\n');
        }
        let document = registry
            .export(FORMAT, &versioned.event)
            .expect("export succeeds")
            .expect("format exists");
        out.extend_from_slice(document.as_bytes());
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let numeric: Vec<usize> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let events = numeric.first().copied().unwrap_or(DEFAULT_EVENTS);
    let pulls = numeric.get(1).copied().unwrap_or(DEFAULT_PULLS).max(2);
    let to_stdout = args.first().map(String::as_str) == Some("-")
        || (events, pulls) != (DEFAULT_EVENTS, DEFAULT_PULLS);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    let store = MispStore::new();
    for event in workloads::synthetic_events(42, events) {
        store.insert(event).expect("insert");
    }
    let share = ShareExporter::default();

    // Naive baseline first: one full re-serialization pass.
    let started = Instant::now();
    let naive = naive_pull(&store, share.registry());
    let naive_nanos = started.elapsed().as_nanos() as u64;

    // Cold pull: every event is a cache miss.
    let started = Instant::now();
    let cold = share
        .pull(&store, FORMAT, workers)
        .expect("pull succeeds")
        .expect("format exists");
    let cold_nanos = started.elapsed().as_nanos() as u64;

    // Warm pulls: unchanged store, best observed time.
    let mut warm_nanos = u64::MAX;
    let mut warm = cold.clone();
    for _ in 1..pulls {
        let started = Instant::now();
        warm = share
            .pull(&store, FORMAT, workers)
            .expect("pull succeeds")
            .expect("format exists");
        warm_nanos = warm_nanos.min(started.elapsed().as_nanos() as u64);
    }

    // The speedup claim is meaningless if the bytes differ.
    let equivalent = *cold == naive[..] && *warm == naive[..];
    assert!(
        equivalent,
        "cached pull bytes diverge from the naive export"
    );

    // Churn 1% of the store; the next pull re-serializes only those.
    let churned = workloads::churn_events(&store, CHURN_FRACTION, 1);
    let started = Instant::now();
    let after_churn = share
        .pull(&store, FORMAT, workers)
        .expect("pull succeeds")
        .expect("format exists");
    let churn_nanos = started.elapsed().as_nanos() as u64;
    assert_eq!(
        *after_churn,
        naive_pull(&store, share.registry())[..],
        "post-churn cached pull diverges from the naive export"
    );

    // Serial vs parallel STIX assembly on fresh exporters (no memo).
    let serial = ShareExporter::default()
        .stix_bundle(&store, 1)
        .expect("serial bundle");
    let parallel = ShareExporter::default()
        .stix_bundle(&store, workers.max(2))
        .expect("parallel bundle");
    let stix_parallel_matches = serial == parallel;
    assert!(
        stix_parallel_matches,
        "serial and parallel STIX assembly produced different bytes"
    );

    let m = ShareBenchMeasurement {
        events,
        pulls,
        churned,
        naive_nanos,
        cold_nanos,
        warm_nanos,
        churn_nanos,
        pull_bytes: naive.len(),
        equivalent,
        stix_parallel_matches,
        stats: share.stats(),
    };
    assert!(
        m.warm_speedup() >= 5.0,
        "warm pull speedup {:.1}x is below the 5x bar",
        m.warm_speedup()
    );
    let text = serde_json::to_string_pretty(&share_bench_doc(&m)).expect("doc serializes");

    if to_stdout {
        println!("{text}");
    } else {
        let path = "BENCH_share.json";
        std::fs::write(path, format!("{text}\n")).expect("write BENCH_share.json");
        eprintln!(
            "wrote {path}: {events} events, {pulls} pulls, {churned} churned -> \
             warm speedup {:.1}x, churn speedup {:.1}x ({} bytes per pull)",
            m.warm_speedup(),
            m.churn_speedup(),
            m.pull_bytes,
        );
    }
}
