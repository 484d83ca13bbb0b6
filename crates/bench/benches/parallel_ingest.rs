//! One ingestion round at 1 worker vs 4, on a 100k-record synthetic
//! OSINT workload.
//!
//! With more than one worker the round partitions dedup across shards
//! and fans filter / enrich / event-building / reduce work over scoped
//! worker threads; every worker count produces identical reports and
//! eIoC/rIoC sets (asserted once up front here, and continuously by
//! `tests/scale.rs` and the pipeline test suite). The throughput gap
//! therefore measures the sharding alone. Speedup scales with available
//! cores: on a single-CPU host the two are expected to tie (threads
//! cost management for no extra compute), while ≥4 cores put 4 workers
//! at a multiple of 1, because everything but store insertion and the
//! per-topic publishes runs in the workers.

use cais_bench::workloads;
use cais_core::Platform;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const FEEDS: usize = 10;
const RECORDS_PER_FEED: usize = 10_000;
const RECORDS: usize = FEEDS * RECORDS_PER_FEED;
const WORKERS: usize = 4;

fn workload(platform: &Platform) -> Vec<cais_feeds::FeedRecord> {
    workloads::record_stream(
        41,
        FEEDS,
        RECORDS_PER_FEED,
        0.5,
        0.3,
        platform.context().now,
    )
}

fn assert_paths_agree() {
    let mut sequential = workloads::platform();
    let mut parallel = workloads::platform();
    let records = workload(&sequential);
    let seq = sequential
        .ingest_feed_records(records.clone())
        .expect("sequential ingestion");
    let par = parallel
        .ingest_feed_records_parallel(records, WORKERS)
        .expect("parallel ingestion");
    assert!(
        seq.same_counters(&par),
        "parallel ingestion diverged from sequential:\n{seq:?}\nvs\n{par:?}"
    );
    assert_eq!(sequential.eiocs(), parallel.eiocs());
    assert_eq!(sequential.riocs(), parallel.riocs());
}

fn bench_parallel_ingest(c: &mut Criterion) {
    assert_paths_agree();

    let mut group = c.benchmark_group("parallel_ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(RECORDS as u64));

    group.bench_function(BenchmarkId::new("sequential", RECORDS), |b| {
        b.iter_batched(
            || {
                let platform = workloads::platform();
                let records = workload(&platform);
                (platform, records)
            },
            |(mut platform, records)| {
                black_box(platform.ingest_feed_records(records).expect("ingestion"))
            },
            criterion::BatchSize::LargeInput,
        )
    });

    group.bench_function(
        BenchmarkId::new(format!("parallel{WORKERS}"), RECORDS),
        |b| {
            b.iter_batched(
                || {
                    let platform = workloads::platform();
                    let records = workload(&platform);
                    (platform, records)
                },
                |(mut platform, records)| {
                    black_box(
                        platform
                            .ingest_feed_records_parallel(records, WORKERS)
                            .expect("ingestion"),
                    )
                },
                criterion::BatchSize::LargeInput,
            )
        },
    );

    group.finish();
}

criterion_group!(benches, bench_parallel_ingest);
criterion_main!(benches);
