//! Machine-readable tracing-overhead benchmark: runs the same seeded
//! 50k-record ingest workload with the causal tracer disabled, fully
//! enabled, and 1-in-64 sampled, and writes `BENCH_trace.json`.
//!
//! The run fails (non-zero exit) if full tracing costs 5% or more over
//! the disabled baseline, or if sampling is slower than full tracing —
//! the observability layer must stay effectively free.
//!
//! ```text
//! cargo run --release -p cais-bench --bin trace_json      # writes BENCH_trace.json
//! cargo run --release -p cais-bench --bin trace_json -- - # print to stdout instead
//! ```

use std::time::Instant;

use cais_bench::report::{trace_bench_doc, TraceBenchMeasurement};
use cais_bench::workloads;
use cais_feeds::FeedRecord;

const ROUNDS: usize = 25;
const FEEDS: usize = 8;
const RECORDS_PER_FEED: usize = 250;
const WORKERS: usize = 4;
const REPS: usize = 5;
const SAMPLE_EVERY: u64 = 64;

/// How the tracer is configured for one timed pass.
#[derive(Clone, Copy)]
enum Mode {
    Disabled,
    Traced,
    Sampled,
}

/// Runs one full pass — `ROUNDS` ingestion rounds on a fresh platform —
/// and returns (wall nanos, spans buffered at the end).
fn run_pass(rounds: &[Vec<FeedRecord>], mode: Mode) -> (u64, usize) {
    let mut platform = workloads::platform();
    match mode {
        Mode::Disabled => platform.tracer().set_enabled(false),
        Mode::Traced => {}
        Mode::Sampled => platform.tracer().set_sample_every(SAMPLE_EVERY),
    }
    // Clone outside the timed region: the allocation cost of handing
    // each round its records is workload setup, not tracing overhead.
    let batches: Vec<Vec<FeedRecord>> = rounds.to_vec();
    let started = Instant::now();
    for records in batches {
        platform
            .ingest_feed_records_parallel(records, WORKERS)
            .expect("synthetic ingestion cannot fail");
    }
    let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (nanos, platform.tracer().len())
}

fn main() {
    let now = workloads::platform().context().now;
    // Distinct seeds per round keep later rounds from degenerating into
    // pure dedup hits: every round does real pipeline work.
    let rounds: Vec<Vec<FeedRecord>> = (0..ROUNDS)
        .map(|round| {
            workloads::record_stream(
                42 * 1_000 + round as u64,
                FEEDS,
                RECORDS_PER_FEED,
                0.25,
                0.2,
                now,
            )
        })
        .collect();
    let records: usize = rounds.iter().map(Vec::len).sum();

    // One untimed warm-up pass, then interleaved best-of-REPS: running
    // the three modes round-robin instead of back-to-back keeps cache
    // and allocator warm-up from being billed to whichever mode runs
    // first, and rotating which mode opens each repetition keeps a
    // fixed position in the order from being billed to one mode.
    run_pass(&rounds, Mode::Disabled);
    let modes = [Mode::Disabled, Mode::Traced, Mode::Sampled];
    let mut baseline_nanos = u64::MAX;
    let mut traced_nanos = u64::MAX;
    let mut sampled_nanos = u64::MAX;
    let mut spans_recorded = 0;
    let mut sampled_spans = 0;
    for rep in 0..REPS {
        for offset in 0..modes.len() {
            let mode = modes[(rep + offset) % modes.len()];
            let (nanos, spans) = run_pass(&rounds, mode);
            match mode {
                Mode::Disabled => baseline_nanos = baseline_nanos.min(nanos),
                Mode::Traced => {
                    traced_nanos = traced_nanos.min(nanos);
                    spans_recorded = spans;
                }
                Mode::Sampled => {
                    sampled_nanos = sampled_nanos.min(nanos);
                    sampled_spans = spans;
                }
            }
        }
    }

    let measurement = TraceBenchMeasurement {
        records,
        rounds: ROUNDS,
        reps: REPS,
        workers: WORKERS,
        baseline_nanos,
        traced_nanos,
        sampled_nanos,
        sample_every: SAMPLE_EVERY,
        spans_recorded,
    };
    let doc = trace_bench_doc(&measurement);
    let text = serde_json::to_string_pretty(&doc).expect("report serializes");

    let to_stdout = std::env::args().nth(1).as_deref() == Some("-");
    if to_stdout {
        println!("{text}");
    } else {
        let path = "BENCH_trace.json";
        std::fs::write(path, format!("{text}\n")).expect("write BENCH_trace.json");
        eprintln!(
            "wrote {path}: {} records, tracing overhead {:+.2}% (sampled {:+.2}%), {} spans buffered",
            records,
            measurement.traced_overhead_pct(),
            measurement.sampled_overhead_pct(),
            spans_recorded,
        );
    }

    assert!(
        measurement.traced_overhead_pct() < 5.0,
        "full tracing costs {:.2}% over the untraced baseline (bar: <5%)",
        measurement.traced_overhead_pct()
    );
    // Sampling is cheaper by construction — it records strictly fewer
    // spans — and its wall time must agree within measurement noise.
    assert!(
        sampled_spans < spans_recorded,
        "1-in-{SAMPLE_EVERY} sampling recorded {sampled_spans} spans, full tracing {spans_recorded}"
    );
    assert!(
        sampled_nanos as f64 <= traced_nanos as f64 * 1.10,
        "1-in-{SAMPLE_EVERY} sampling ({sampled_nanos} ns) runs >10% slower than full tracing ({traced_nanos} ns)"
    );
}
