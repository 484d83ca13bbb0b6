//! Machine-readable federation benchmark: a mesh of real framed-TCP
//! federation peers driven to the policy-filtered fixpoint twice over
//! the same deterministic event population — once fault-free (the
//! sync-throughput headline: receiver-side event deliveries per
//! second), once under seeded wire chaos (20% of every edge's pushes
//! fail, rotating through the transient fault alphabet). The chaos
//! run must still converge, byte-match the fault-free fixpoint peer by
//! peer, and leak nothing — a violation aborts the run, which fails
//! CI. Writes `BENCH_federation.json` (schema in
//! [`cais_bench::report`]), gated by `bench_compare` on the fault-free
//! deliveries/sec headline, at the default scale only; any other scale
//! prints the document to stdout, so a smoke run never replaces the
//! full-scale snapshot.
//!
//! ```text
//! cargo run --release -p cais-bench --bin federation_json           # writes BENCH_federation.json
//! cargo run --release -p cais-bench --bin federation_json -- -      # print to stdout instead
//! cargo run --release -p cais-bench --bin federation_json -- 4 16   # peers events (smoke, stdout)
//! ```

use std::time::Instant;

use cais_bench::report::{federation_bench_doc, FederationBenchMeasurement};
use cais_common::resilience::{FaultKind, FaultPlan};
use cais_common::{Timestamp, Uuid};
use cais_federation::{edge_site, FederationHarness, Tenant, Topology};
use cais_misp::event::Distribution;
use cais_misp::{AttributeCategory, MispAttribute, MispEvent};

const MAX_ROUNDS: u32 = 256;
const FAULT_RATE: f64 = 0.2;
const CHAOS_SEED: u64 = 42;

/// The snapshot scale: mesh peers, seeded events.
const DEFAULT_PEERS: usize = 8;
const DEFAULT_EVENTS: usize = 64;

/// The transient wire faults the chaos run rotates across edges.
const WIRE_KINDS: [FaultKind; 5] = [
    FaultKind::Error,
    FaultKind::Garbage,
    FaultKind::Truncate,
    FaultKind::Replay,
    FaultKind::AckLost,
];

fn tenants(n: usize) -> Vec<Tenant> {
    (0..n)
        .map(|i| Tenant::new(format!("org-{i}"), Vec::<String>::new()))
        .collect()
}

/// Deterministic content (UUID and date derive from the label) so both
/// runs seed byte-identical populations and the fixpoints can be
/// byte-compared.
fn broadcast_event(label: &str) -> MispEvent {
    let mut event = MispEvent::new(format!("intel {label}"));
    event.uuid = Uuid::new_v5(label);
    event.date = Timestamp::from_ymd_hms(2026, 8, 9, 0, 0, 0);
    event.distribution = Distribution::AllCommunities;
    let mut attribute = MispAttribute::new(
        "domain",
        AttributeCategory::NetworkActivity,
        format!("{label}.example"),
    );
    attribute.uuid = Uuid::new_v5(&format!("attr:{label}"));
    event.add_attribute(attribute);
    event
}

/// Builds a TCP mesh, seeds `events` round-robin and runs it to
/// quiescence; returns the harness, its convergence report and the
/// wall time of the sync phase.
fn run(
    peers: usize,
    events: usize,
    faults: FaultPlan,
) -> (FederationHarness, cais_federation::ConvergenceReport, u64) {
    let mut harness =
        FederationHarness::tcp(Topology::Mesh, tenants(peers), faults).expect("bind peers");
    for e in 0..events {
        harness
            .seed_event(e % peers, broadcast_event(&format!("bench-ev-{e}")))
            .expect("seed event");
    }
    let started = Instant::now();
    let report = harness.run_until_quiescent(MAX_ROUNDS);
    let nanos = started.elapsed().as_nanos() as u64;
    (harness, report, nanos)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let numeric: Vec<usize> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let peers = numeric.first().copied().unwrap_or(DEFAULT_PEERS).max(2);
    let events = numeric.get(1).copied().unwrap_or(DEFAULT_EVENTS).max(1);
    let to_stdout = args.first().map(String::as_str) == Some("-")
        || (peers, events) != (DEFAULT_PEERS, DEFAULT_EVENTS);

    eprintln!("federation_json: fault-free mesh of {peers} TCP peers, {events} events…");
    let (mut healthy, healthy_report, healthy_nanos) = run(peers, events, FaultPlan::healthy());
    assert!(
        healthy_report.converged,
        "fault-free mesh failed to converge: {healthy_report:?}"
    );
    assert!(healthy.views_identical(), "fault-free views diverged");

    eprintln!(
        "federation_json: chaos mesh (seed {CHAOS_SEED}, {:.0}% of every edge faulted)…",
        FAULT_RATE * 100.0
    );
    let mut faults = FaultPlan::new(CHAOS_SEED);
    for (i, (src, dst)) in Topology::Mesh.edges(peers).into_iter().enumerate() {
        let site = edge_site(Topology::Mesh, src, dst);
        faults = faults.rate(&site, FAULT_RATE, WIRE_KINDS[i % WIRE_KINDS.len()]);
    }
    let (mut chaos, chaos_report, chaos_nanos) = run(peers, events, faults);

    let fixpoints_match = chaos.canonical_views() == healthy.canonical_views();
    let leaks = healthy.leaks().len() + chaos.leaks().len();

    let m = FederationBenchMeasurement {
        peers,
        events,
        healthy_rounds: healthy_report.rounds_run,
        healthy_nanos,
        healthy_frames: healthy_report.rounds.iter().map(|r| r.frames_sent).sum(),
        delivered: healthy_report.total_inserted(),
        chaos_rounds: chaos_report.rounds_run,
        chaos_nanos,
        chaos_failures: chaos_report.total_failures(),
        chaos_retries: chaos_report.rounds.iter().map(|r| r.retries).sum(),
        chaos_converged: chaos_report.converged,
        fixpoints_match,
        leaks,
    };
    eprintln!(
        "federation_json: healthy {} rounds / {:.1}ms ({:.0} deliveries/s); \
         chaos {} rounds, {} failures, {} retries",
        m.healthy_rounds,
        m.healthy_nanos as f64 / 1e6,
        m.deliveries_per_sec(),
        m.chaos_rounds,
        m.chaos_failures,
        m.chaos_retries,
    );
    assert!(
        m.chaos_converged,
        "chaos mesh failed to converge in {MAX_ROUNDS} rounds: {chaos_report:?}"
    );
    assert!(
        m.fixpoints_match,
        "chaos fixpoint diverged from the fault-free fixpoint"
    );
    assert_eq!(leaks, 0, "cross-tenant leaks: {leaks}");
    let text = serde_json::to_string_pretty(&federation_bench_doc(&m)).expect("doc serializes");

    healthy.shutdown();
    chaos.shutdown();

    if to_stdout {
        println!("{text}");
    } else {
        let path = "BENCH_federation.json";
        std::fs::write(path, format!("{text}\n")).expect("write BENCH_federation.json");
        eprintln!("wrote {path}");
    }
}
