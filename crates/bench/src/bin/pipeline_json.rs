//! Machine-readable pipeline benchmark: runs one parallel ingestion
//! round over a seeded synthetic workload and writes
//! `BENCH_pipeline.json` (per-stage throughput plus the platform's
//! telemetry snapshot) for CI trend tracking.
//!
//! ```text
//! cargo run -p cais-bench --bin pipeline_json            # writes BENCH_pipeline.json
//! cargo run -p cais-bench --bin pipeline_json -- -       # print to stdout instead
//! ```

use cais_bench::report::{pipeline_bench_doc, PipelineBenchMeasurement};
use cais_bench::workloads;

fn main() {
    let mut platform = workloads::platform();
    let seed = 42;
    let feeds = 8;
    let records_per_feed = 250;
    let workers = 4;
    let records = workloads::record_stream(
        seed,
        feeds,
        records_per_feed,
        0.25,
        0.2,
        platform.context().now,
    );
    let total_records = records.len();
    let report = platform
        .ingest_feed_records_parallel(records, workers)
        .expect("synthetic ingestion cannot fail");
    let doc = pipeline_bench_doc(&PipelineBenchMeasurement {
        seed,
        feeds,
        records_per_feed,
        records: total_records,
        workers,
        report,
        telemetry: platform.telemetry().snapshot(),
    });
    let text = serde_json::to_string_pretty(&doc).expect("report serializes");

    if std::env::args().nth(1).as_deref() == Some("-") {
        println!("{text}");
        return;
    }
    let path = "BENCH_pipeline.json";
    std::fs::write(path, format!("{text}\n")).expect("write BENCH_pipeline.json");
    eprintln!(
        "wrote {path}: {total_records} records -> {} cIoCs, {} eIoCs, {} rIoCs",
        report.ciocs, report.eiocs, report.riocs
    );
}
