//! A TAXII client wrapped in retries, reconnects and a circuit
//! breaker.
//!
//! Every operation runs under a seeded [`RetryPolicy`] ladder: a failed
//! roundtrip taints the connection, so the next attempt reconnects
//! before re-issuing the request. Requests routed here must be
//! idempotent (all the read paths are; pushes should go through the
//! MISP resilient sync, which deduplicates by UUID). A per-peer
//! [`CircuitBreaker`] isolates a dead server, and all of it surfaces in
//! telemetry: `taxii_retries_total`, `taxii_reconnects_total`,
//! `taxii_breaker_opened_total`, `taxii_breaker_closed_total`.

use std::io;
use std::net::SocketAddr;

use cais_common::resilience::{
    site_hash, BreakerConfig, BreakerTransitions, CircuitBreaker, RetryPolicy, Sleeper,
};
use cais_common::{Timestamp, Uuid};
use cais_telemetry::{Counter, FlightRecorder, Registry};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::client::TaxiiClient;
use crate::collection::{Collection, Envelope};

#[derive(Debug, Clone)]
struct Metrics {
    retries: Counter,
    reconnects: Counter,
    breaker_opened: Counter,
    breaker_closed: Counter,
}

impl Metrics {
    fn new(registry: &Registry) -> Self {
        Metrics {
            retries: registry.counter("taxii_retries_total"),
            reconnects: registry.counter("taxii_reconnects_total"),
            breaker_opened: registry.counter("taxii_breaker_opened_total"),
            breaker_closed: registry.counter("taxii_breaker_closed_total"),
        }
    }
}

/// A [`TaxiiClient`] with retries, automatic reconnect and a circuit
/// breaker.
pub struct ResilientTaxiiClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    breaker: CircuitBreaker,
    rng: StdRng,
    client: Option<TaxiiClient>,
    was_connected: bool,
    reconnects: u64,
    retries: u64,
    metrics: Option<Metrics>,
    flight: Option<FlightRecorder>,
    reported: BreakerTransitions,
}

impl ResilientTaxiiClient {
    /// Creates a client for `addr`; nothing connects until the first
    /// operation. Backoff jitter draws from a stream seeded by `seed`
    /// and the address.
    pub fn new(addr: SocketAddr, policy: RetryPolicy, breaker: BreakerConfig, seed: u64) -> Self {
        let rng = StdRng::seed_from_u64(seed ^ site_hash(&format!("taxii.client:{addr}")));
        ResilientTaxiiClient {
            addr,
            policy,
            breaker: CircuitBreaker::new(breaker),
            rng,
            client: None,
            was_connected: false,
            reconnects: 0,
            retries: 0,
            metrics: None,
            flight: None,
            reported: BreakerTransitions::default(),
        }
    }

    /// Attaches telemetry counters for retries, reconnects and breaker
    /// transitions.
    pub fn instrument(&mut self, registry: &Registry) {
        self.metrics = Some(Metrics::new(registry));
    }

    /// Attaches a flight recorder: when repeated faults (dropped or
    /// garbled frames, dead peers) trip this client's circuit breaker,
    /// the last spans of every subsystem are dumped to disk.
    pub fn set_flight_recorder(&mut self, recorder: &FlightRecorder) {
        self.flight = Some(recorder.clone());
    }

    /// Times the connection was re-established after a failure.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Retries spent across every operation so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Whether the breaker currently isolates the peer.
    pub fn is_quarantined(&self) -> bool {
        self.breaker.is_quarantined()
    }

    /// Breaker transition counters so far.
    pub fn breaker_transitions(&self) -> BreakerTransitions {
        self.breaker.transitions()
    }

    fn sync_breaker_metrics(&mut self) {
        let transitions = self.breaker.transitions();
        if let Some(metrics) = &self.metrics {
            metrics
                .breaker_opened
                .add(transitions.opened - self.reported.opened);
            metrics
                .breaker_closed
                .add(transitions.closed - self.reported.closed);
        }
        if transitions.opened > self.reported.opened {
            if let Some(flight) = &self.flight {
                let _ = flight.trigger("breaker_trip", &format!("taxii:{}", self.addr));
            }
        }
        self.reported = transitions;
    }

    fn run_op<T>(
        &mut self,
        sleeper: &impl Sleeper,
        op: impl Fn(&TaxiiClient) -> io::Result<T>,
    ) -> io::Result<T> {
        if !self.breaker.allow() {
            self.sync_breaker_metrics();
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "circuit breaker open",
            ));
        }
        let policy = self.policy.clone();
        let addr = self.addr;
        let reconnects_before = self.reconnects;
        let client = &mut self.client;
        let was_connected = &mut self.was_connected;
        let reconnects = &mut self.reconnects;
        let outcome = policy.run(&mut self.rng, sleeper, |_| {
            if client.is_none() {
                *client = Some(TaxiiClient::connect(addr)?);
                if *was_connected {
                    *reconnects += 1;
                }
                *was_connected = true;
            }
            match op(client.as_ref().expect("connected above")) {
                Ok(value) => Ok(value),
                Err(error) => {
                    // A failed roundtrip taints the connection: the
                    // next attempt reconnects.
                    *client = None;
                    Err(error)
                }
            }
        });
        self.retries += u64::from(outcome.retries);
        if let Some(metrics) = &self.metrics {
            metrics.retries.add(u64::from(outcome.retries));
            metrics.reconnects.add(self.reconnects - reconnects_before);
        }
        match &outcome.result {
            Ok(_) => self.breaker.on_success(),
            Err(_) if outcome.interrupted => {}
            Err(_) => self.breaker.on_failure(),
        }
        self.sync_breaker_metrics();
        outcome.result
    }

    /// Fetches server discovery metadata, returning the title.
    ///
    /// # Errors
    ///
    /// Returns the last error once the retry budget is spent, or a
    /// `ConnectionRefused` error while the breaker is open.
    pub fn discovery(&mut self, sleeper: &impl Sleeper) -> io::Result<String> {
        self.run_op(sleeper, |c| c.discovery())
    }

    /// Lists the server's collections.
    ///
    /// # Errors
    ///
    /// As [`ResilientTaxiiClient::discovery`].
    pub fn collections(&mut self, sleeper: &impl Sleeper) -> io::Result<Vec<Collection>> {
        self.run_op(sleeper, |c| c.collections())
    }

    /// Fetches one page from a collection.
    ///
    /// # Errors
    ///
    /// As [`ResilientTaxiiClient::discovery`].
    pub fn objects(
        &mut self,
        collection: &Uuid,
        added_after: Option<Timestamp>,
        sleeper: &impl Sleeper,
    ) -> io::Result<Envelope> {
        self.run_op(sleeper, |c| c.objects(collection, added_after))
    }

    /// Fetches *all* objects, following pagination. Each page rides its
    /// own retry ladder, so a mid-pagination drop resumes from the
    /// last good watermark rather than restarting the walk.
    ///
    /// # Errors
    ///
    /// As [`ResilientTaxiiClient::discovery`].
    pub fn all_objects(
        &mut self,
        collection: &Uuid,
        sleeper: &impl Sleeper,
    ) -> io::Result<Vec<serde_json::Value>> {
        Envelope::walk(|added_after| self.objects(collection, added_after, sleeper))
    }

    /// Pushes objects to a collection, returning how many the server
    /// accepted. A retried push never stores an `(id, modified)` version
    /// twice; objects lacking either property can be stored twice.
    ///
    /// # Errors
    ///
    /// As [`ResilientTaxiiClient::discovery`].
    pub fn add_objects(
        &mut self,
        collection: &Uuid,
        objects: Vec<serde_json::Value>,
        sleeper: &impl Sleeper,
    ) -> io::Result<usize> {
        self.run_op(sleeper, |c| c.add_objects(collection, objects.clone()))
    }
}

impl std::fmt::Debug for ResilientTaxiiClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientTaxiiClient")
            .field("addr", &self.addr)
            .field("connected", &self.client.is_some())
            .field("reconnects", &self.reconnects)
            .field("retries", &self.retries)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::Collection;
    use crate::server::TaxiiServer;
    use cais_common::resilience::{FaultKind, FaultPlan, ThreadSleeper};

    fn fast() -> RetryPolicy {
        RetryPolicy::fast(5)
    }

    #[test]
    fn survives_dropped_frames() {
        let mut server = TaxiiServer::new("chaos");
        let id = server.add_collection(Collection::new("iocs", "d"));
        server.handle(crate::protocol::Request::AddObjects {
            collection: id,
            objects: (0..10).map(|i| serde_json::json!({ "i": i })).collect(),
        });
        // Every third frame is dropped.
        let plan = FaultPlan::new(11).every_nth("taxii.frame", 3, FaultKind::Error);
        let addr = server
            .serve_chaos("127.0.0.1:0", plan, "taxii.frame")
            .unwrap();
        let mut client = ResilientTaxiiClient::new(addr, fast(), BreakerConfig::disabled(), 42);
        assert_eq!(client.discovery(&ThreadSleeper).unwrap(), "chaos");
        let all = client.all_objects(&id, &ThreadSleeper).unwrap();
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn dead_server_trips_the_breaker() {
        // Bind-then-drop leaves a closed port.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let registry = Registry::new();
        let mut client = ResilientTaxiiClient::new(
            addr,
            RetryPolicy::fast(2),
            BreakerConfig {
                trip_after: 2,
                cooldown_probes: 1,
                half_open_successes: 1,
            },
            42,
        );
        client.instrument(&registry);
        let dir = std::env::temp_dir().join(format!("cais-taxii-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recorder = FlightRecorder::new(cais_telemetry::Tracer::new(), &dir);
        client.set_flight_recorder(&recorder);
        assert!(client.discovery(&ThreadSleeper).is_err());
        assert!(client.discovery(&ThreadSleeper).is_err());
        assert!(client.is_quarantined());
        let denied = client.discovery(&ThreadSleeper).unwrap_err();
        assert_eq!(denied.kind(), io::ErrorKind::ConnectionRefused);
        let counters = registry.snapshot().counters;
        assert_eq!(counters["taxii_breaker_opened_total"], 1);
        assert_eq!(counters["taxii_retries_total"], 2);
        // The trip produced exactly one black-box dump; the open-breaker
        // denial above did not add another.
        assert_eq!(recorder.dumps(), 1);
        assert!(dir.join("flight-0000-breaker_trip.json").is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
