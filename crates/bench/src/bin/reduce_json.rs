//! Machine-readable reduce benchmark: times the indexed reducer
//! against the retained linear-scan baseline on a synthetic
//! 1k-node / 50k-eIoC workload, cross-checks their rIoC output, and
//! writes `BENCH_reduce.json` for CI trend tracking at the default
//! scale only; any other scale prints the document to stdout, so a
//! smoke run never replaces the full-scale snapshot.
//!
//! ```text
//! cargo run --release -p cais-bench --bin reduce_json              # writes BENCH_reduce.json
//! cargo run --release -p cais-bench --bin reduce_json -- -         # print to stdout instead
//! cargo run --release -p cais-bench --bin reduce_json -- 200 5000 500
//!                                       # nodes eiocs linear_sample (smoke sizing, stdout)
//! ```

use std::sync::Arc;
use std::time::Instant;

use cais_bench::report::{reduce_bench_doc, ReduceBenchMeasurement};
use cais_bench::workloads;
use cais_core::{EvaluationContext, Reducer};

/// The snapshot scale: inventory nodes, eIoCs, eIoCs timed on the
/// linear baseline.
const DEFAULT_NODES: usize = 1_000;
const DEFAULT_EIOCS: usize = 50_000;
const DEFAULT_LINEAR_SAMPLE: usize = 5_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let numeric: Vec<usize> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let nodes = numeric.first().copied().unwrap_or(DEFAULT_NODES);
    let eiocs = numeric.get(1).copied().unwrap_or(DEFAULT_EIOCS);
    let linear_sample = numeric
        .get(2)
        .copied()
        .unwrap_or(DEFAULT_LINEAR_SAMPLE)
        .min(eiocs);
    let to_stdout = args.first().map(String::as_str) == Some("-")
        || (nodes, eiocs, linear_sample) != (DEFAULT_NODES, DEFAULT_EIOCS, DEFAULT_LINEAR_SAMPLE);

    let ctx = EvaluationContext::paper_use_case();
    let inventory = Arc::new(workloads::synthetic_inventory(42, nodes));
    let population = workloads::reduce_eiocs(42, eiocs, &ctx);

    let indexed = Reducer::new(inventory.clone()).with_cve_database(ctx.cve_db.clone());
    let linear = Reducer::linear_baseline(inventory.clone());

    // Equivalence first (on the slice the baseline can afford): the
    // speedup claim is meaningless if the outputs differ. The linear
    // baseline carries no CVE database, so compare against an indexed
    // reducer configured identically.
    let indexed_plain = Reducer::new(inventory);
    for eioc in &population[..linear_sample] {
        assert_eq!(
            indexed_plain.reduce(eioc),
            linear.reduce(eioc),
            "indexed and linear reducers disagree"
        );
    }

    let started = Instant::now();
    let mut linear_riocs = 0usize;
    for eioc in &population[..linear_sample] {
        linear_riocs += usize::from(linear.reduce(eioc).is_some());
    }
    let linear_nanos = started.elapsed().as_nanos() as u64;

    let started = Instant::now();
    let mut riocs = 0usize;
    for eioc in &population {
        riocs += usize::from(indexed.reduce(eioc).is_some());
    }
    let indexed_nanos = started.elapsed().as_nanos() as u64;

    let m = ReduceBenchMeasurement {
        nodes,
        eiocs,
        linear_sample,
        indexed_nanos,
        linear_nanos,
        riocs,
        stats: indexed.stats(),
    };
    let text = serde_json::to_string_pretty(&reduce_bench_doc(&m)).expect("doc serializes");

    if to_stdout {
        println!("{text}");
    } else {
        let path = "BENCH_reduce.json";
        std::fs::write(path, format!("{text}\n")).expect("write BENCH_reduce.json");
        eprintln!(
            "wrote {path}: {nodes} nodes, {eiocs} eIoCs -> {riocs} rIoCs \
             ({linear_riocs} from the {linear_sample}-eIoC linear sample), \
             speedup {:.1}x",
            m.speedup()
        );
    }
}
