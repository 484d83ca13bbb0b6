//! Machine-readable decay benchmark: a 1M-event store rescored through
//! the [`DecayEngine`] incremental path (version-gated base reuse)
//! against the from-scratch rescore that re-derives every taxonomy
//! base, with 1% churn and a seeded sighting stream between passes.
//! Exact score equivalence of the two paths is asserted — a mismatch
//! aborts the run, which fails CI — as is the ≥5× incremental speedup
//! bar. Writes `BENCH_decay.json` for trend tracking at the default
//! scale only; any other scale prints the document to stdout, so a
//! smoke run never replaces the full-scale snapshot.
//!
//! ```text
//! cargo run --release -p cais-bench --bin decay_json             # writes BENCH_decay.json
//! cargo run --release -p cais-bench --bin decay_json -- -        # print to stdout instead
//! cargo run --release -p cais-bench --bin decay_json -- 10000 3  # events passes (smoke sizing, stdout)
//! ```

use std::sync::Arc;
use std::time::Instant;

use cais_bench::report::{decay_bench_doc, DecayBenchMeasurement};
use cais_bench::workloads;
use cais_common::resilience::VirtualClock;
use cais_common::time::MILLIS_PER_DAY;
use cais_common::Timestamp;
use cais_decay::{BaseScorer, DecayEngine, DecayModel};
use cais_misp::MispStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CHURN_FRACTION: f64 = 0.01;
const SIGHTING_FRACTION: f64 = 0.005;

/// The snapshot scale: events in the store, rescore passes.
const DEFAULT_EVENTS: usize = 1_000_000;
const DEFAULT_PASSES: usize = 3;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let numeric: Vec<usize> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let events = numeric.first().copied().unwrap_or(DEFAULT_EVENTS);
    let passes = numeric.get(1).copied().unwrap_or(DEFAULT_PASSES).max(2);
    let to_stdout = args.first().map(String::as_str) == Some("-")
        || (events, passes) != (DEFAULT_EVENTS, DEFAULT_PASSES);

    // A virtual "now" 50 days into the epoch; event dates trail it by
    // 0–25 days, so the population spans the whole decay curve.
    let now = Timestamp::from_unix_millis(50 * MILLIS_PER_DAY);
    let clock = VirtualClock::starting_at(now);
    let engine = DecayEngine::new(
        DecayModel::default(),
        BaseScorer::cais_default(),
        Arc::new(clock.clone()),
    );

    let store = MispStore::new();
    let mut uuids = Vec::with_capacity(events);
    for event in workloads::decay_events(42, events, now) {
        uuids.push(event.uuid);
        store.insert(event).expect("insert");
    }

    // Seeded sighting stream: a fraction of the population was re-seen
    // in the last ten days, resetting those decay clocks.
    let mut rng = StdRng::seed_from_u64(7);
    let sightings = ((events as f64 * SIGHTING_FRACTION) as usize).max(1);
    for _ in 0..sightings {
        let uuid = uuids[rng.gen_range(0..uuids.len())];
        engine.record_sighting(uuid, now.add_days(-rng.gen_range(0i64..10)));
    }

    // From-scratch baseline: every taxonomy base re-derived from tags.
    let started = Instant::now();
    let full = engine.score_from_scratch(&store);
    let full_nanos = started.elapsed().as_nanos() as u64;

    // Cold incremental pass: first walk, every base derived once.
    let started = Instant::now();
    let (cold_scores, cold_summary) = engine.rescore(&store);
    let cold_nanos = started.elapsed().as_nanos() as u64;
    assert_eq!(cold_summary.rebased, events, "cold pass derives every base");
    assert_eq!(cold_scores, full, "cold incremental diverges from full");

    // Churned incremental passes: 1% version churn before each, best
    // observed time. This is the steady-state rescore the sweep loop
    // pays.
    let mut incremental_nanos = u64::MAX;
    let mut churned = 0;
    let mut last_summary = cold_summary;
    let mut last_scores = cold_scores;
    for round in 1..passes {
        churned = workloads::churn_events(&store, CHURN_FRACTION, round as u64);
        clock.advance_days(1);
        let started = Instant::now();
        let (scores, summary) = engine.rescore(&store);
        incremental_nanos = incremental_nanos.min(started.elapsed().as_nanos() as u64);
        last_summary = summary;
        last_scores = scores;
    }
    assert_eq!(
        last_summary.rebased, churned,
        "incremental pass must re-derive exactly the churned bases"
    );

    // The speedup claim is meaningless if the scores differ.
    let scratch = engine.score_from_scratch(&store);
    let equivalent = last_scores == scratch;
    assert!(
        equivalent,
        "incremental rescore diverges from the from-scratch oracle"
    );

    let m = DecayBenchMeasurement {
        events,
        churned,
        sightings,
        full_nanos,
        cold_nanos,
        incremental_nanos,
        rebased: last_summary.rebased,
        reused: last_summary.reused,
        expired: last_summary.expired,
        equivalent,
    };
    eprintln!(
        "decay_json: {events} events, {churned} churned, {sightings} sightings -> \
         full {:.1}ms, cold {:.1}ms, incremental {:.1}ms, speedup {:.1}x \
         ({:.0} events/s, {} expired)",
        m.full_nanos as f64 / 1e6,
        m.cold_nanos as f64 / 1e6,
        m.incremental_nanos as f64 / 1e6,
        m.speedup(),
        m.incremental_events_per_sec(),
        m.expired,
    );
    assert!(
        m.speedup() >= 5.0,
        "incremental rescore speedup {:.1}x is below the 5x bar",
        m.speedup()
    );
    let text = serde_json::to_string_pretty(&decay_bench_doc(&m)).expect("doc serializes");

    if to_stdout {
        println!("{text}");
    } else {
        let path = "BENCH_decay.json";
        std::fs::write(path, format!("{text}\n")).expect("write BENCH_decay.json");
        eprintln!("wrote {path}");
    }
}
