//! High-concurrency serving benchmark: mixed ingest/pull/scrape
//! traffic against the multiplexed serving core at four-digit
//! connection counts.
//!
//! The workload is **poll churn** — connect, pull one page, close —
//! the shape real TAXII consumers have (HTTP-style polling), so every
//! poll pays the full accept/serve/close cost. The servers run in a
//! child process (`--server` mode) so their file descriptors stay
//! under a separate process limit and their allocator does not
//! interfere with the client's timing. The client is itself
//! multiplexed — one driver thread sweeping nonblocking connection
//! state machines — so the measured ceiling is the server's, not the
//! client's.
//!
//! Two phases:
//!
//! 1. Poll churn at `connections` concurrent connections against the
//!    core (wall time for `polls` pulls), with per-poll
//!    request→response latency recorded into the workspace's log₂
//!    histograms (p50/p95/p99 reported).
//! 2. A high-scale mixed run: `high_scale` concurrent connections
//!    (target 10k+), 70% pulls / 10% ingests / 10% match-filtered
//!    search polls / 10% telemetry scrapes, every connection expecting
//!    exactly one response — the run must complete with **zero
//!    dropped responses**. Search polls' latency lands in its own
//!    histogram and is reported separately.
//!
//! Writes `BENCH_serve.json` (schema in [`cais_bench::report`]), gated
//! by `bench_compare` on the multiplexed polls/sec headline, at the
//! default scale only; any other scale prints the document to stdout,
//! so a smoke run never replaces the full-scale snapshot.
//!
//! ```text
//! cargo run --release -p cais-bench --bin loadgen                  # full: 1k churn, 10k mixed
//! cargo run --release -p cais-bench --bin loadgen -- -             # print doc to stdout instead
//! cargo run --release -p cais-bench --bin loadgen -- 128 1500 256  # connections polls high_scale (CI smoke, stdout)
//! ```

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cais_bench::report::{serve_bench_doc, ServeBenchMeasurement};
use cais_common::frame::write_frame;
use cais_common::serve::ServeConfig;
use cais_common::{Timestamp, Uuid};
use cais_taxii::{Collection, TaxiiServer};
use cais_telemetry::{percentiles, Histogram, Registry, RegistryServeMetrics, TelemetryServer};

/// Overall deadline per phase; a stalled phase aborts the run rather
/// than hanging CI.
const PHASE_TIMEOUT: Duration = Duration::from_secs(300);

/// Leftover TIME_WAIT sockets tolerated before a timed phase starts.
/// Churn leaves one client-side TIME_WAIT per poll (60 s lifetime);
/// tens of thousands of them slow every later `connect`'s ephemeral
/// port selection, so each phase would otherwise degrade the next and
/// back-to-back runs would degrade each other.
const TIME_WAIT_BUDGET: u64 = 2_048;

/// Wall time of a fixed CPU-bound loop — logged before each phase so a
/// run's report can be read against the machine's actual speed at that
/// moment (shared boxes throttle and wobble).
fn calibrate() -> Duration {
    let started = Instant::now();
    let mut acc = 0u64;
    for i in 0..20_000_000u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(acc);
    started.elapsed()
}

/// Current TIME_WAIT socket count, best effort (Linux `/proc` only).
fn time_wait_count() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/net/sockstat").ok()?;
    let tcp = text.lines().find(|l| l.starts_with("TCP:"))?;
    let mut fields = tcp.split_whitespace();
    while let Some(field) = fields.next() {
        if field == "tw" {
            return fields.next()?.parse().ok();
        }
    }
    None
}

/// Parks until leftover TIME_WAIT sockets fall under budget (or 75 s
/// passes — their lifetime is 60 s), so each timed phase starts from
/// comparable kernel socket-table state.
fn drain_time_wait() {
    let deadline = Instant::now() + Duration::from_secs(75);
    while Instant::now() < deadline {
        match time_wait_count() {
            Some(tw) if tw > TIME_WAIT_BUDGET => std::thread::sleep(Duration::from_secs(1)),
            _ => return,
        }
    }
}

/// The snapshot scale: churn connections, churn polls, mixed-phase
/// connections.
const DEFAULT_CONNECTIONS: usize = 1_000;
const DEFAULT_POLLS: usize = 5_000;
const DEFAULT_HIGH_SCALE: usize = 10_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--server") {
        server_mode();
        return;
    }
    let numeric: Vec<usize> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let connections = numeric
        .first()
        .copied()
        .unwrap_or(DEFAULT_CONNECTIONS)
        .max(1);
    let polls = numeric
        .get(1)
        .copied()
        .unwrap_or(DEFAULT_POLLS)
        .max(connections);
    let high_scale = numeric.get(2).copied().unwrap_or(DEFAULT_HIGH_SCALE).max(1);
    let to_stdout = args.first().map(String::as_str) == Some("-")
        || (connections, polls, high_scale)
            != (DEFAULT_CONNECTIONS, DEFAULT_POLLS, DEFAULT_HIGH_SCALE);

    let mut child = ServerChild::spawn();
    let fixture = child.fixture.clone();
    let pull = framed_request(&serde_json::json!({
        "op": "get-objects",
        "collection": fixture.collection,
        "limit": 10,
    }));

    let registry = Registry::new();
    let core_hist = registry.histogram("loadgen_poll_nanos");
    let warmup_hist = registry.histogram("loadgen_warmup_nanos");
    let high_scale_hist = registry.histogram("loadgen_high_scale_nanos");
    let search_hist = registry.histogram("loadgen_search_nanos");

    // Warm the server (page cache, allocator, listener) outside the
    // timed window; warmup samples stay out of the reported quantiles.
    churn(fixture.core, &pull, 8, 64, &warmup_hist).expect("core warmup");

    // Best-of-N wall time: on a shared box a single closed-loop run is
    // at the mercy of scheduler luck, and the least-disturbed rep is the
    // honest estimate of the server's capacity.
    let reps = 3;
    drain_time_wait();
    eprintln!("loadgen: churn {polls} polls @ {connections} conns against the core ({reps} reps)…");
    let mut multiplexed_nanos = u64::MAX;
    for rep in 0..reps {
        let cal = calibrate();
        let wall = churn(fixture.core, &pull, connections, polls, &core_hist).expect("core churn");
        eprintln!("loadgen:   multiplexed rep {rep}: {wall:.1?} (cpu probe {cal:.1?})");
        multiplexed_nanos = multiplexed_nanos.min(wall.as_nanos() as u64);
    }

    drain_time_wait();
    eprintln!("loadgen: high-scale mixed run @ {high_scale} concurrent connections…");
    let (responses, search_responses, high_scale_nanos) =
        mixed_high_scale(&fixture, high_scale, &high_scale_hist, &search_hist);

    child.kill();

    let quantiles = percentiles(&registry.snapshot());
    let ranks = &quantiles["loadgen_poll_nanos"];
    // Tiny smoke runs may complete zero search polls; report zeros
    // rather than panicking on the absent histogram.
    let search_rank = |key: &str| {
        quantiles
            .get("loadgen_search_nanos")
            .and_then(|r| r.get(key))
            .copied()
            .unwrap_or(0)
    };
    let measurement = ServeBenchMeasurement {
        connections,
        polls,
        multiplexed_nanos,
        p50_nanos: ranks["p50"],
        p95_nanos: ranks["p95"],
        p99_nanos: ranks["p99"],
        search_polls: search_responses,
        search_p50_nanos: search_rank("p50"),
        search_p95_nanos: search_rank("p95"),
        search_p99_nanos: search_rank("p99"),
        high_scale_connections: high_scale,
        high_scale_expected: high_scale as u64,
        high_scale_responses: responses,
        high_scale_nanos,
    };
    let doc = serve_bench_doc(&measurement);
    let text = serde_json::to_string_pretty(&doc).expect("serialize");
    if to_stdout {
        println!("{text}");
    } else {
        std::fs::write("BENCH_serve.json", format!("{text}\n")).expect("write BENCH_serve.json");
        eprintln!("loadgen: wrote BENCH_serve.json");
    }
    eprintln!(
        "loadgen: multiplexed {:.0} polls/s (p99 {:.1}ms); \
         high-scale {}/{} responses ({} search polls, p99 {:.1}ms) in {:.1}s",
        measurement.multiplexed_polls_per_sec(),
        measurement.p99_nanos as f64 / 1e6,
        responses,
        high_scale,
        search_responses,
        measurement.search_p99_nanos as f64 / 1e6,
        high_scale_nanos as f64 / 1e9,
    );
    if measurement.high_scale_dropped() > 0 {
        eprintln!(
            "loadgen: FAILED — {} responses dropped at high scale",
            measurement.high_scale_dropped()
        );
        std::process::exit(1);
    }
}

/// The addresses and fixture identity the `--server` child prints on
/// its first stdout line.
#[derive(Debug, Clone)]
struct Fixture {
    core: SocketAddr,
    telemetry: SocketAddr,
    collection: Uuid,
}

/// Child process: binds the TAXII core and a telemetry scrape endpoint
/// over one fixture server, prints their addresses as one JSON line,
/// then parks until killed.
fn server_mode() {
    let mut server = TaxiiServer::new("loadgen fixture");
    let mut collection = Collection::new("iocs", "loadgen indicators");
    let seed: Vec<serde_json::Value> = (0..50)
        .map(|i| {
            serde_json::json!({
                "type": "indicator",
                "value": format!("198.51.100.{i}"),
            })
        })
        .collect();
    collection.add_objects(seed, Timestamp::now());
    let collection_id = server.add_collection(collection);
    let registry = Registry::new();
    server.instrument(&registry);
    // A tight park ceiling keeps worker wake-up latency out of the
    // measured numbers on small machines.
    let config = ServeConfig {
        max_park: Duration::from_micros(500),
        ..ServeConfig::default()
    };
    let core = server
        .serve_on_core(
            "127.0.0.1:0",
            config.clone(),
            RegistryServeMetrics::new(&registry, "taxii"),
        )
        .expect("bind core");
    let telemetry = TelemetryServer::bind_on_core(
        registry.clone(),
        None,
        "127.0.0.1:0",
        config,
        RegistryServeMetrics::new(&registry, "telemetry"),
    )
    .expect("bind telemetry");
    println!(
        "{}",
        serde_json::json!({
            "core": core.local_addr().to_string(),
            "telemetry": telemetry.local_addr().to_string(),
            "collection": collection_id,
        })
    );
    std::io::stdout().flush().expect("flush addrs");
    let debug = std::env::var_os("LOADGEN_DEBUG").is_some();
    loop {
        if debug {
            std::thread::sleep(Duration::from_secs(2));
            eprintln!("loadgen-server: {:?}", core.stats());
        } else {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
}

/// The `--server` child and its parsed fixture line; killed on drop so
/// a panicking parent never leaks the process.
struct ServerChild {
    child: Child,
    fixture: Fixture,
}

impl ServerChild {
    fn spawn() -> Self {
        let exe = std::env::current_exe().expect("current exe");
        let mut child = Command::new(exe)
            .arg("--server")
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn --server child");
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read fixture line");
        let doc: serde_json::Value = serde_json::from_str(&line).expect("parse fixture line");
        let addr = |key: &str| -> SocketAddr {
            doc[key]
                .as_str()
                .expect("addr field")
                .parse()
                .expect("addr parse")
        };
        let fixture = Fixture {
            core: addr("core"),
            telemetry: addr("telemetry"),
            collection: doc["collection"]
                .as_str()
                .expect("collection field")
                .parse()
                .expect("collection uuid"),
        };
        ServerChild { child, fixture }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One framed request on the wire: length prefix plus JSON payload.
fn framed_request(payload: &serde_json::Value) -> Vec<u8> {
    let bytes = serde_json::to_vec(payload).expect("serialize request");
    let mut framed = Vec::with_capacity(4 + bytes.len());
    write_frame(&mut framed, &bytes).expect("frame request");
    framed
}

/// Floor/ceiling of the per-connection re-check backoff. Without it,
/// every sweep pays one `read` syscall per waiting connection, and at
/// four-digit connection counts the *client* becomes the measured
/// bottleneck — backing off idle sockets keeps the sweep proportional
/// to ready connections, like a readiness queue would be.
const RECHECK_FLOOR: Duration = Duration::from_micros(100);
const RECHECK_CEIL: Duration = Duration::from_millis(5);

/// One in-flight poll: a nonblocking connection writing its request
/// and accumulating the response frame.
struct PollConn {
    stream: TcpStream,
    request: &'static [u8],
    written: usize,
    buf: Vec<u8>,
    started: Instant,
    next_check: Instant,
    backoff: Duration,
    /// Workload slot in the mixed run ([`MIXED_SEARCH`] polls report
    /// into their own histogram); 0 elsewhere.
    kind: u8,
}

/// The mixed run's search-poll slot tag.
const MIXED_SEARCH: u8 = 1;

/// What one sweep step did to a connection.
enum Step {
    /// The response frame is complete.
    Done,
    /// Bytes moved but the response is still partial.
    Moved,
    /// Nothing to do yet.
    Idle,
}

/// Whether `buf` holds one complete response frame.
fn frame_complete(buf: &[u8]) -> bool {
    if buf.len() < 4 {
        return false;
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    buf.len() >= 4 + len
}

/// Advances one connection: writes what the socket accepts, reads what
/// arrived. `Err(())` when the peer died first.
fn advance(conn: &mut PollConn, scratch: &mut [u8]) -> Result<Step, ()> {
    let mut moved = false;
    while conn.written < conn.request.len() {
        match conn.stream.write(&conn.request[conn.written..]) {
            Ok(0) => return Err(()),
            Ok(n) => {
                conn.written += n;
                moved = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => return Err(()),
            Ok(n) => {
                conn.buf.extend_from_slice(&scratch[..n]);
                moved = true;
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    if frame_complete(&conn.buf) {
        Ok(Step::Done)
    } else if moved {
        Ok(Step::Moved)
    } else {
        Ok(Step::Idle)
    }
}

/// Steps a connection if its backoff window elapsed; adjusts the window
/// by outcome (reset on movement, double on idleness).
fn step(conn: &mut PollConn, now: Instant, scratch: &mut [u8]) -> Result<Step, ()> {
    if now < conn.next_check {
        return Ok(Step::Idle);
    }
    let outcome = advance(conn, scratch)?;
    match outcome {
        Step::Moved | Step::Done => {
            conn.backoff = RECHECK_FLOOR;
            conn.next_check = now;
        }
        Step::Idle => {
            conn.next_check = now + conn.backoff;
            conn.backoff = (conn.backoff * 2).min(RECHECK_CEIL);
        }
    }
    Ok(outcome)
}

fn open_conn(addr: SocketAddr, request: &'static [u8]) -> std::io::Result<PollConn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let now = Instant::now();
    Ok(PollConn {
        stream,
        request,
        written: 0,
        buf: Vec::new(),
        started: now,
        next_check: now,
        backoff: RECHECK_FLOOR,
        kind: 0,
    })
}

/// Poll churn with a **pinned concurrency window**: establishes
/// `target` standing connections (untimed ramp), then cycles each slot
/// through connect → pull → close until `total` polls complete, opening
/// exactly one replacement per completion so the window never decays.
/// A naive closed loop self-regulates instead — against a fast server
/// the in-flight count collapses to whatever the completion rate
/// sustains, and "1000 connections" quietly becomes 50. Every
/// completed poll's request→response wall time lands in `hist`.
/// Returns the wall time of the steady (post-ramp) phase.
fn churn(
    addr: SocketAddr,
    request: &[u8],
    target: usize,
    total: usize,
    hist: &Histogram,
) -> Result<Duration, String> {
    // The request outlives every connection of the phase; leaking one
    // buffer per phase beats per-connection copies.
    let request: &'static [u8] = Box::leak(request.to_vec().into_boxed_slice());
    let window = target.min(total);
    let mut conns: Vec<PollConn> = Vec::with_capacity(window);
    let mut scratch = vec![0u8; 64 * 1024];
    let deadline = Instant::now() + PHASE_TIMEOUT;
    // Ramp, gently: sequential blocking connects with a breath every
    // 256 so the listen backlog never overflows into SYN retransmits.
    for i in 0..window {
        loop {
            match open_conn(addr, request) {
                Ok(conn) => {
                    conns.push(conn);
                    break;
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(format!("churn ramp failed: {e}")),
            }
        }
        if i % 256 == 255 {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    let started = Instant::now();
    let mut launched = window;
    let mut completed = 0usize;
    let debug = std::env::var_os("LOADGEN_DEBUG").is_some();
    let mut next_report = started + Duration::from_secs(2);
    while completed < total {
        let now = Instant::now();
        if now > deadline {
            return Err(format!("churn stalled at {completed}/{total} polls"));
        }
        if debug && now > next_report {
            next_report = now + Duration::from_secs(2);
            eprintln!(
                "loadgen-client: completed {completed}/{total}, in flight {}",
                conns.len()
            );
        }
        let mut progress = false;
        let mut slots_freed = 0usize;
        conns.retain_mut(|conn| match step(conn, now, &mut scratch) {
            Ok(Step::Done) => {
                hist.record(conn.started.elapsed().as_nanos() as u64);
                completed += 1;
                slots_freed += 1;
                progress = true;
                false
            }
            Ok(Step::Moved) => {
                progress = true;
                true
            }
            Ok(Step::Idle) => true,
            Err(()) => {
                // The peer dropped the poll; its replacement relaunches
                // it rather than counting it done.
                launched -= 1;
                slots_freed += 1;
                progress = true;
                false
            }
        });
        // One replacement per freed slot keeps the window pinned
        // without ever bursting connects.
        while slots_freed > 0 && launched < total {
            match open_conn(addr, request) {
                Ok(conn) => {
                    conns.push(conn);
                    launched += 1;
                    slots_freed -= 1;
                }
                Err(_) => {
                    std::thread::sleep(Duration::from_micros(200));
                    break;
                }
            }
        }
        if !progress {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    Ok(started.elapsed())
}

/// The high-scale mixed run: `total` concurrent connections — 70%
/// pulls, 10% ingests, 10% match-filtered search polls, 10% telemetry
/// scrapes — all connected before any request completes, each
/// expecting exactly one response. Search polls record into
/// `search_hist`; everything else into `hist`. Returns `(responses
/// received, search responses received, wall nanos)`.
fn mixed_high_scale(
    fixture: &Fixture,
    total: usize,
    hist: &Histogram,
    search_hist: &Histogram,
) -> (u64, u64, u64) {
    let pull: &'static [u8] = Box::leak(
        framed_request(&serde_json::json!({
            "op": "get-objects",
            "collection": fixture.collection,
            "limit": 10,
        }))
        .into_boxed_slice(),
    );
    let ingest: &'static [u8] = Box::leak(
        framed_request(&serde_json::json!({
            "op": "add-objects",
            "collection": fixture.collection,
            "objects": [{"type": "indicator", "value": "203.0.113.99"}],
        }))
        .into_boxed_slice(),
    );
    // A typed query the server compiles and applies per page — the
    // analyst-search shape of TAXII polling.
    let search: &'static [u8] = Box::leak(
        framed_request(&serde_json::json!({
            "op": "get-objects",
            "collection": fixture.collection,
            "match": "type:indicator AND value:100",
            "limit": 10,
        }))
        .into_boxed_slice(),
    );
    let scrape: &'static [u8] =
        Box::leak(framed_request(&serde_json::json!("prometheus")).into_boxed_slice());

    let started = Instant::now();
    let deadline = started + PHASE_TIMEOUT;
    let mut conns: Vec<PollConn> = Vec::with_capacity(total);
    // Establish the full connection count first — the point is serving
    // breadth, not a pipelined trickle.
    for i in 0..total {
        let (addr, request, kind) = match i % 10 {
            0 => (fixture.core, ingest, 0),
            1 => (fixture.telemetry, scrape, 0),
            2 => (fixture.core, search, MIXED_SEARCH),
            _ => (fixture.core, pull, 0),
        };
        loop {
            match open_conn(addr, request) {
                Ok(mut conn) => {
                    conn.kind = kind;
                    conns.push(conn);
                    break;
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("high-scale connect failed: {e}"),
            }
        }
        if i % 256 == 255 {
            // Give the acceptor a breath so the listen backlog never
            // overflows into SYN retransmission stalls.
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    let mut scratch = vec![0u8; 64 * 1024];
    let mut responses = 0u64;
    let mut search_responses = 0u64;
    while !conns.is_empty() && Instant::now() < deadline {
        let mut progress = false;
        let now = Instant::now();
        conns.retain_mut(|conn| match step(conn, now, &mut scratch) {
            Ok(Step::Done) => {
                let elapsed = conn.started.elapsed().as_nanos() as u64;
                if conn.kind == MIXED_SEARCH {
                    search_hist.record(elapsed);
                    search_responses += 1;
                } else {
                    hist.record(elapsed);
                }
                responses += 1;
                progress = true;
                false
            }
            Ok(Step::Moved) => {
                progress = true;
                true
            }
            Ok(Step::Idle) => true,
            Err(()) => {
                progress = true;
                false
            }
        });
        if !progress {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    (
        responses,
        search_responses,
        started.elapsed().as_nanos() as u64,
    )
}
