//! The N-instance federation harness: real peers, scripted chaos,
//! provable convergence.
//!
//! [`FederationHarness`] stands up N [`FederationPeer`]s — each a full
//! MISP instance, optionally served as a real framed-TCP endpoint on
//! the multiplexed core — wires them into a [`Topology`], and drives
//! discrete *sync rounds* on the virtual clock. Each round walks the
//! directed edge list in a fixed order; each edge pushes the events
//! that changed since its last acknowledged cursor, policy-filtered
//! for the destination tenant and gated by the `Distribution` hop
//! rules, under a seeded [`FaultPlan`] and a [`RetryPolicy`] whose
//! backoffs land on a [`RecordingSleeper`] (virtual time — chaos runs
//! take milliseconds).
//!
//! # Convergence
//!
//! Delivery is a join: receivers insert unknown events and otherwise
//! union attributes/tags and take the distribution maximum
//! (`cais_misp::store::MispStore::merge_by_uuid`), so re-deliveries
//! confirm instead of mutating. Under *transient* faults (scripted or
//! `fail_first` sites that eventually recover) every edge's cursor
//! reaches its source generation after finitely many rounds, at which
//! point a round performs zero sends and zero failures — quiescence —
//! and the federation is at its policy-filtered fixpoint. The
//! convergence tests assert the fixpoint is *path-independent* by
//! byte-comparing canonical per-tenant views ([`crate::view`]) against
//! a fault-free oracle run of the same schedule.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::sync::Arc;
use std::time::Duration;

use cais_common::resilience::{
    site_hash, FaultKind, FaultPlan, RecordingSleeper, RetryPolicy, Sleeper, VirtualClock,
};
use cais_common::serve::{NoServeMetrics, ServeConfig, ServeHandle};
use cais_common::Uuid;
use cais_misp::event::MispEvent;
use cais_misp::{sync, ChangeCursor, MispError};
use cais_telemetry::{Registry, TraceContext, Tracer};
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::client::FederationClient;
use crate::metrics::FederationMetrics;
use crate::peer::FederationPeer;
use crate::policy::{SharingPolicy, Tenant};
use crate::topology::{edge_site, Topology};
use crate::view::TenantViewCache;
use crate::wire::{self, FedRequest, FedResponse};

/// Virtual time one sync round advances the harness clock.
pub const ROUND_INTERVAL: Duration = Duration::from_secs(60);

/// How edges carry frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Real framed TCP through each peer's serving core — the tentpole
    /// path: bytes on sockets, faults on the wire.
    Tcp,
    /// Direct calls into [`FederationPeer::handle`] with the same
    /// fault semantics — the fast oracle path. Oracle and TCP runs
    /// exercise identical apply logic.
    InProc,
}

/// One directed edge's delivery state.
struct EdgeState {
    src: usize,
    dst: usize,
    site: String,
    /// `Some` on TCP edges, `None` in-proc.
    client: Option<FederationClient>,
    /// The source store's change-feed cursor as of the last delta the
    /// destination fully acknowledged; `None` before the first. Each
    /// round pushes only events changed past it, and it advances only
    /// when every chunk was acked (or the delta was entirely
    /// ineligible).
    cursor: Option<ChangeCursor>,
    /// Per-edge backoff-jitter stream, derived from the fault seed and
    /// the edge site so runs replay byte-identically.
    rng: StdRng,
}

/// Tally of one sync round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundReport {
    /// 1-based round number.
    pub round: u32,
    /// Push frames attempted (including retries).
    pub frames_sent: u64,
    /// Events carried by acknowledged frames.
    pub events_sent: u64,
    /// Receiver tally: first-time inserts.
    pub inserted: u64,
    /// Receiver tally: merges (new attributes/tags/distribution).
    pub merged: u64,
    /// Receiver tally: idempotent confirmations.
    pub unchanged: u64,
    /// Receiver tally: events its own hop gate refused.
    pub withheld: u64,
    /// Receiver tally: events its own policy refused (leak attempts).
    pub rejected: u64,
    /// Events withheld sender-side by tenant policy.
    pub withheld_policy: u64,
    /// Events withheld sender-side by the distribution hop gate.
    pub withheld_distribution: u64,
    /// Frames that failed delivery after the retry budget.
    pub failures: u64,
    /// Retries spent across all edges.
    pub retries: u64,
}

impl RoundReport {
    /// Whether the round proved quiescence: nothing needed sending and
    /// nothing failed. One quiescent round means every edge's cursor
    /// has caught up with its source — the federation is at its
    /// fixpoint.
    pub fn quiescent(&self) -> bool {
        self.frames_sent == 0 && self.failures == 0
    }
}

/// The outcome of [`FederationHarness::run_until_quiescent`].
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// Whether a quiescent round was reached within the budget.
    pub converged: bool,
    /// Rounds driven (the last one is the quiescent round when
    /// `converged`).
    pub rounds_run: u32,
    /// Per-round tallies, in order.
    pub rounds: Vec<RoundReport>,
}

impl ConvergenceReport {
    /// Sum of receiver-side insertions across the run.
    pub fn total_inserted(&self) -> u64 {
        self.rounds.iter().map(|r| r.inserted).sum()
    }

    /// Sum of delivery failures across the run.
    pub fn total_failures(&self) -> u64 {
        self.rounds.iter().map(|r| r.failures).sum()
    }
}

/// N federated MISP instances under one topology, one policy and one
/// fault plan. See the module docs for the convergence argument.
pub struct FederationHarness {
    topology: Topology,
    transport: Transport,
    peers: Vec<FederationPeer>,
    handles: Vec<Option<ServeHandle>>,
    edges: Vec<EdgeState>,
    policy: Arc<RwLock<SharingPolicy>>,
    faults: FaultPlan,
    retry: RetryPolicy,
    sleeper: RecordingSleeper,
    clock: VirtualClock,
    caches: Vec<TenantViewCache>,
    origins: HashMap<Uuid, usize>,
    metrics: Option<FederationMetrics>,
    tracer: Option<Tracer>,
    rounds_driven: u32,
}

impl FederationHarness {
    /// Stands up one peer per tenant, wired by `topology`, with frames
    /// carried by `transport` and chaos drawn from `faults`.
    ///
    /// # Errors
    ///
    /// Returns the bind error when a TCP peer cannot listen (the
    /// in-proc transport cannot fail).
    pub fn new(
        topology: Topology,
        tenants: Vec<Tenant>,
        transport: Transport,
        faults: FaultPlan,
    ) -> io::Result<Self> {
        let n = tenants.len();
        let mut policy = SharingPolicy::new();
        for tenant in &tenants {
            policy.admit(tenant.clone());
        }
        let policy = Arc::new(RwLock::new(policy));
        let peers: Vec<FederationPeer> = tenants
            .iter()
            .map(|t| FederationPeer::new(t.org.clone(), Arc::clone(&policy)))
            .collect();

        let mut handles = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for peer in &peers {
            match transport {
                Transport::Tcp => {
                    let config = ServeConfig {
                        workers: 1,
                        ..ServeConfig::default()
                    };
                    let handle = peer.serve_on_core("127.0.0.1:0", config, NoServeMetrics)?;
                    addrs.push(Some(handle.local_addr()));
                    handles.push(Some(handle));
                }
                Transport::InProc => {
                    addrs.push(None);
                    handles.push(None);
                }
            }
        }

        let seed = faults.seed();
        let edges = topology
            .edges(n)
            .into_iter()
            .map(|(src, dst)| {
                let site = edge_site(topology, src, dst);
                EdgeState {
                    src,
                    dst,
                    client: addrs[dst].map(|addr| FederationClient::new(addr, peers[src].org())),
                    cursor: None,
                    rng: StdRng::seed_from_u64(seed ^ site_hash(&site)),
                    site,
                }
            })
            .collect();

        Ok(FederationHarness {
            topology,
            transport,
            peers,
            handles,
            edges,
            policy,
            faults,
            retry: RetryPolicy::fast(3),
            sleeper: RecordingSleeper::new(),
            clock: VirtualClock::new(),
            caches: (0..n).map(|_| TenantViewCache::new()).collect(),
            origins: HashMap::new(),
            metrics: None,
            tracer: None,
            rounds_driven: 0,
        })
    }

    /// A TCP harness: every peer a real endpoint on the serving core.
    ///
    /// # Errors
    ///
    /// Returns the bind error when a peer cannot listen.
    pub fn tcp(topology: Topology, tenants: Vec<Tenant>, faults: FaultPlan) -> io::Result<Self> {
        FederationHarness::new(topology, tenants, Transport::Tcp, faults)
    }

    /// An in-proc harness — the fast oracle path.
    pub fn in_proc(topology: Topology, tenants: Vec<Tenant>, faults: FaultPlan) -> Self {
        FederationHarness::new(topology, tenants, Transport::InProc, faults)
            .expect("in-proc harness binds nothing")
    }

    /// The wiring.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// How frames travel.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// One peer.
    pub fn peer(&self, index: usize) -> &FederationPeer {
        &self.peers[index]
    }

    /// The shared policy handle — mutate it (admit/revoke) mid-run to
    /// exercise membership churn.
    pub fn policy(&self) -> &Arc<RwLock<SharingPolicy>> {
        &self.policy
    }

    /// The fault plan driving this run's chaos.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The virtual clock (advanced [`ROUND_INTERVAL`] per round).
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The virtual sleeper absorbing retry backoffs.
    pub fn sleeper(&self) -> &RecordingSleeper {
        &self.sleeper
    }

    /// Rounds driven so far.
    pub fn rounds_driven(&self) -> u32 {
        self.rounds_driven
    }

    /// Replaces the per-frame retry ladder (default: 3 fast attempts).
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Attaches the `federation_*` metric family: send-side counters
    /// are tallied by the harness, apply-side counters by each peer
    /// (all peers share the registry's handles, so snapshots aggregate
    /// the whole federation).
    pub fn instrument(&mut self, registry: &Registry) {
        let metrics = FederationMetrics::new(registry);
        metrics.peers.set(self.peers.len() as i64);
        for peer in &self.peers {
            peer.instrument(registry);
        }
        self.metrics = Some(metrics);
    }

    /// Attaches a causal tracer: each push chunk gets a root span whose
    /// context rides the frame's trace header, and receiving peers
    /// chain their apply spans onto it — one trace per cross-peer hop.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        for peer in &self.peers {
            peer.set_tracer(tracer);
        }
        self.tracer = Some(tracer.clone());
    }

    /// Publishes `event` on `peer` and records the origin for leak
    /// audits. Returns the event's UUID — the federation-wide identity
    /// it converges under.
    ///
    /// # Errors
    ///
    /// Returns the store's validation error.
    pub fn seed_event(&mut self, peer: usize, event: MispEvent) -> Result<Uuid, MispError> {
        let uuid = event.uuid;
        let api = self.peers[peer].api();
        let id = api.add_event(event)?;
        api.publish_event(id)?;
        self.origins.insert(uuid, peer);
        Ok(uuid)
    }

    /// Which peer originated an event seeded through the harness.
    pub fn origin_of(&self, uuid: &Uuid) -> Option<usize> {
        self.origins.get(uuid).copied()
    }

    /// The UUIDs a peer currently stores — the store-diff primitive of
    /// the revocation tests.
    pub fn stored_uuids(&self, peer: usize) -> BTreeSet<Uuid> {
        let mut uuids = BTreeSet::new();
        self.peers[peer].api().store().for_each(|event| {
            uuids.insert(event.uuid);
        });
        uuids
    }

    /// A peer's canonical view of its *own* tenant, through its
    /// generation-guarded byte cache.
    pub fn canonical_view(&self, peer: usize) -> Arc<[u8]> {
        let policy = self.policy.read();
        self.caches[peer].view_bytes(self.peers[peer].api(), &self.peers[peer].org(), &policy)
    }

    /// Every peer's canonical view of its own tenant, in peer order.
    pub fn canonical_views(&self) -> Vec<Arc<[u8]>> {
        (0..self.peers.len())
            .map(|i| self.canonical_view(i))
            .collect()
    }

    /// Whether all peers' canonical views are byte-identical. Only a
    /// meaningful completeness claim when every peer is entitled to
    /// the same content (same groups, hop-reachable events) — the
    /// general proof compares each peer against a fault-free oracle.
    pub fn views_identical(&self) -> bool {
        let views = self.canonical_views();
        views.windows(2).all(|w| w[0] == w[1])
    }

    /// Out-of-policy intelligence stored on any peer: every non-origin
    /// event on a registered tenant must be within that tenant's
    /// policy, attribute by attribute. Returns human-readable
    /// descriptions; an empty vec is the zero-leak assertion.
    ///
    /// Revoked tenants are skipped — they legitimately retain what
    /// they received while admitted; audit them with a
    /// [`FederationHarness::stored_uuids`] diff instead.
    pub fn leaks(&self) -> Vec<String> {
        let policy = self.policy.read();
        let mut leaks = Vec::new();
        for (index, peer) in self.peers.iter().enumerate() {
            let org = peer.org();
            if policy.tenant(&org).is_none() {
                continue;
            }
            peer.api().store().for_each(|event| {
                if self.origins.get(&event.uuid) == Some(&index) {
                    return;
                }
                if !policy.within_policy(&org, event) {
                    leaks.push(format!(
                        "peer {index} ({org}) holds out-of-policy event {} ({:?})",
                        event.uuid, event.info
                    ));
                }
            });
        }
        leaks
    }

    /// Drives one sync round: every edge pushes its delta in the fixed
    /// topology order, under the fault plan and retry ladder. Advances
    /// the virtual clock by [`ROUND_INTERVAL`].
    pub fn run_round(&mut self) -> RoundReport {
        self.clock.advance(ROUND_INTERVAL);
        let round = self.rounds_driven + 1;
        let mut report = RoundReport {
            round,
            ..RoundReport::default()
        };
        let FederationHarness {
            transport,
            peers,
            edges,
            policy,
            faults,
            retry,
            sleeper,
            metrics,
            tracer,
            ..
        } = self;
        for edge in edges.iter_mut() {
            drive_edge(
                edge,
                peers,
                policy,
                faults,
                retry,
                sleeper,
                *transport,
                metrics.as_ref(),
                tracer.as_ref(),
                &mut report,
            );
        }
        self.rounds_driven = round;
        if let Some(m) = self.metrics.as_ref() {
            m.rounds.inc();
        }
        report
    }

    /// Drives rounds until one is quiescent (see
    /// [`RoundReport::quiescent`]) or the budget runs out. On
    /// convergence, `federation_converged_round` records the quiescent
    /// round.
    pub fn run_until_quiescent(&mut self, max_rounds: u32) -> ConvergenceReport {
        let mut rounds = Vec::new();
        for _ in 0..max_rounds {
            let report = self.run_round();
            let quiescent = report.quiescent();
            rounds.push(report);
            if quiescent {
                if let Some(m) = self.metrics.as_ref() {
                    m.converged_round.set(i64::from(self.rounds_driven));
                }
                return ConvergenceReport {
                    converged: true,
                    rounds_run: rounds.len() as u32,
                    rounds,
                };
            }
        }
        ConvergenceReport {
            converged: false,
            rounds_run: max_rounds,
            rounds,
        }
    }

    /// Shuts down every TCP endpoint (idempotent; in-proc is a no-op).
    pub fn shutdown(&mut self) {
        for handle in &mut self.handles {
            if let Some(handle) = handle.take() {
                handle.shutdown();
            }
        }
    }
}

impl Drop for FederationHarness {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for FederationHarness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FederationHarness")
            .field("topology", &self.topology)
            .field("transport", &self.transport)
            .field("peers", &self.peers.len())
            .field("rounds_driven", &self.rounds_driven)
            .finish()
    }
}

/// Pushes one edge's delta for this round. Free function with
/// field-granular parameters so the per-edge RNG, the shared sleeper
/// and the peer list can be borrowed simultaneously.
#[allow(clippy::too_many_arguments)]
fn drive_edge(
    edge: &mut EdgeState,
    peers: &[FederationPeer],
    policy: &Arc<RwLock<SharingPolicy>>,
    faults: &FaultPlan,
    retry: &RetryPolicy,
    sleeper: &RecordingSleeper,
    transport: Transport,
    metrics: Option<&FederationMetrics>,
    tracer: Option<&Tracer>,
    report: &mut RoundReport,
) {
    let src = &peers[edge.src];
    let dst = &peers[edge.dst];
    let src_org = src.org();
    let dst_org = dst.org();
    let store = src.api().store();
    // The delta: events changed past the cursor, or every event on the
    // edge's first round.
    let changes = store.changes(edge.cursor);

    let mut batch: Vec<MispEvent> = Vec::new();
    {
        let policy = policy.read();
        for id in changes.ids {
            let Some(event) = store.get_arc(id) else {
                continue;
            };
            if !event.published {
                continue;
            }
            if sync::downgrade(event.distribution).is_none() {
                report.withheld_distribution += 1;
                if let Some(m) = metrics {
                    m.withheld_distribution.inc();
                }
                continue;
            }
            // Sender-side policy enforcement: bytes the destination
            // tenant may not see never reach its socket.
            match policy.filter_for(&dst_org, &event) {
                Some(filtered) => batch.push(filtered),
                None => {
                    report.withheld_policy += 1;
                    if let Some(m) = metrics {
                        m.withheld_policy.inc();
                    }
                }
            }
        }
    }

    if batch.is_empty() {
        // The whole delta was ineligible for this destination; the
        // cursor must still advance or the edge re-examines it forever
        // and quiescence is never reached.
        edge.cursor = Some(changes.cursor);
        return;
    }

    let EdgeState {
        rng, client, site, ..
    } = edge;
    let site: &str = site;
    let mut all_acked = true;
    for chunk in batch.chunks(wire::MAX_BATCH) {
        let mut span = tracer.map(|t| t.root("federation", "fed_push"));
        if let Some(span) = span.as_mut() {
            span.field("site", site);
            span.field("events", chunk.len());
        }
        let trace = span.as_ref().filter(|s| s.sampled()).map(|s| s.context());
        let header = trace.as_ref().and_then(TraceContext::header);

        let outcome = retry.run(rng, sleeper, |_attempt| {
            let fault = faults.next(site);
            if let Some(FaultKind::Delay(ms)) = fault {
                // Injected latency lands on the virtual sleeper; the
                // push itself then proceeds normally.
                sleeper.sleep(Duration::from_millis(u64::from(ms)));
            }
            let fault = match fault {
                Some(FaultKind::Delay(_)) => None,
                other => other,
            };
            match transport {
                Transport::Tcp => client
                    .as_mut()
                    .expect("tcp edge has a client")
                    .push_faulted(fault, header, chunk.to_vec()),
                Transport::InProc => in_proc_push(dst, fault, trace, &src_org, chunk),
            }
        });

        let frames = 1 + u64::from(outcome.retries);
        report.frames_sent += frames;
        report.retries += u64::from(outcome.retries);
        if let Some(m) = metrics {
            m.push_frames.add(frames);
            m.retries.add(u64::from(outcome.retries));
        }
        match outcome.result {
            Ok(FedResponse::Ack {
                inserted,
                merged,
                unchanged,
                withheld,
                rejected,
            }) => {
                report.events_sent += chunk.len() as u64;
                report.inserted += inserted as u64;
                report.merged += merged as u64;
                report.unchanged += unchanged as u64;
                report.withheld += withheld as u64;
                report.rejected += rejected as u64;
                if let Some(m) = metrics {
                    m.events_sent.add(chunk.len() as u64);
                }
            }
            Ok(_) | Err(_) => {
                all_acked = false;
                report.failures += 1;
                if let Some(m) = metrics {
                    m.push_failures.inc();
                }
            }
        }
    }

    if all_acked {
        // Everything up to the batch cursor is on the other side;
        // changes landing after it re-surface next round. A failed
        // chunk keeps the cursor, and the idempotent merge absorbs the
        // overlap on the resend.
        edge.cursor = Some(changes.cursor);
    }
}

/// The in-proc mirror of [`FederationClient::push_faulted`]: identical
/// fault semantics against [`FederationPeer::handle`] directly, so the
/// oracle transport exercises the same apply logic and the same
/// chaos — minus the sockets.
fn in_proc_push(
    dst: &FederationPeer,
    fault: Option<FaultKind>,
    trace: Option<TraceContext>,
    from_org: &str,
    chunk: &[MispEvent],
) -> io::Result<FedResponse> {
    let deliver = || {
        let request = FedRequest::Push {
            from_org: from_org.to_owned(),
            events: chunk.to_vec(),
        };
        let response = dst.handle(&request, trace);
        match response {
            FedResponse::Error { message } => {
                Err(io::Error::new(io::ErrorKind::InvalidData, message))
            }
            ok => Ok(ok),
        }
    };
    match fault {
        None | Some(FaultKind::Delay(_)) => deliver(),
        Some(FaultKind::Error) => Err(io::Error::new(
            io::ErrorKind::ConnectionReset,
            "injected partition",
        )),
        // Wire parity: a garbage frame never decodes, a truncated frame
        // never fully arrives — in both cases the peer applies nothing.
        Some(FaultKind::Garbage) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "injected garbage frame",
        )),
        Some(FaultKind::Truncate) => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "injected truncation",
        )),
        Some(FaultKind::AckLost) => {
            let _applied_but_unacked = deliver();
            Err(io::Error::new(io::ErrorKind::TimedOut, "injected ack loss"))
        }
        Some(FaultKind::Replay) => {
            deliver()?;
            deliver()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::sharing_group_tag;
    use cais_misp::event::Distribution;
    use cais_misp::{AttributeCategory, MispAttribute};

    fn tenants(n: usize) -> Vec<Tenant> {
        (0..n)
            .map(|i| Tenant::new(format!("org-{i}"), Vec::<String>::new()))
            .collect()
    }

    fn broadcast_event(info: &str) -> MispEvent {
        let mut event = MispEvent::new(info);
        event.distribution = Distribution::AllCommunities;
        event.add_attribute(MispAttribute::new(
            "domain",
            AttributeCategory::NetworkActivity,
            format!("{info}.example"),
        ));
        event
    }

    #[test]
    fn healthy_mesh_converges_to_identical_views() {
        let mut harness =
            FederationHarness::in_proc(Topology::Mesh, tenants(4), FaultPlan::healthy());
        harness.seed_event(0, broadcast_event("alpha")).unwrap();
        harness.seed_event(2, broadcast_event("beta")).unwrap();
        let report = harness.run_until_quiescent(16);
        assert!(report.converged, "mesh failed to converge: {report:?}");
        assert!(harness.views_identical());
        assert!(harness.leaks().is_empty());
        for peer in 0..4 {
            assert_eq!(harness.stored_uuids(peer).len(), 2);
        }
    }

    #[test]
    fn ring_relays_all_communities_the_long_way() {
        let mut harness =
            FederationHarness::in_proc(Topology::Ring, tenants(5), FaultPlan::healthy());
        harness.seed_event(0, broadcast_event("ring")).unwrap();
        let report = harness.run_until_quiescent(16);
        assert!(report.converged);
        // AllCommunities never decays, so it circles the whole ring.
        assert!(harness.views_identical());
        assert_eq!(report.total_inserted(), 4);
    }

    #[test]
    fn community_only_decays_at_the_hub_and_pins() {
        let mut harness =
            FederationHarness::in_proc(Topology::HubSpoke, tenants(3), FaultPlan::healthy());
        let mut event = broadcast_event("one-hop");
        event.distribution = Distribution::CommunityOnly;
        let uuid = harness.seed_event(1, event).unwrap();
        let report = harness.run_until_quiescent(16);
        assert!(report.converged);
        // Spoke 1 → hub: arrives OrganizationOnly, which the hub's own
        // hop gate then withholds from spoke 2.
        assert!(harness.stored_uuids(0).contains(&uuid));
        assert!(!harness.stored_uuids(2).contains(&uuid));
        let hub_copy = harness
            .peer(0)
            .api()
            .store()
            .get_by_uuid(&uuid)
            .expect("hub stores the event");
        assert_eq!(hub_copy.distribution, Distribution::OrganizationOnly);
    }

    #[test]
    fn transient_partition_heals_and_converges() {
        let site = edge_site(Topology::HubSpoke, 1, 0);
        let faults = FaultPlan::new(11).fail_first(&site, 4, FaultKind::Error);
        let mut harness = FederationHarness::in_proc(Topology::HubSpoke, tenants(3), faults);
        harness.seed_event(1, broadcast_event("late")).unwrap();
        let report = harness.run_until_quiescent(32);
        assert!(report.converged, "partition never healed: {report:?}");
        assert!(report.total_failures() > 0, "fault plan never fired");
        assert!(harness.views_identical());
        // Backoffs landed on the virtual sleeper, not the wall clock.
        assert!(harness.sleeper().total() > Duration::ZERO);
    }

    #[test]
    fn policy_withholds_sender_side() {
        let mut roster = tenants(2);
        roster[0].groups.insert("fin".into());
        let mut harness = FederationHarness::in_proc(Topology::Mesh, roster, FaultPlan::healthy());
        let mut secret = broadcast_event("fin-only");
        secret.add_tag(sharing_group_tag("fin"));
        let uuid = harness.seed_event(0, secret).unwrap();
        harness.seed_event(0, broadcast_event("open")).unwrap();
        let report = harness.run_until_quiescent(16);
        assert!(report.converged);
        assert!(!harness.stored_uuids(1).contains(&uuid));
        assert_eq!(harness.stored_uuids(1).len(), 1); // only the open event arrived
        assert!(harness.leaks().is_empty());
        let withheld: u64 = report.rounds.iter().map(|r| r.withheld_policy).sum();
        assert!(withheld > 0, "sender never withheld the fin-only event");
    }
}
