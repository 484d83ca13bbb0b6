//! `partner-pull`: sharing partners paging a TAXII collection over the
//! wire, one page fetch per operation.
//!
//! Set-up loads events from the search-events generator into a MISP
//! store, bridges each to a TAXII collection (one push per event) and
//! walks the collection once, recording every page's `next` watermark.
//! Two partners, each on its own persistent connection, then alternate:
//! pages at recorded watermarks (some repeat, so the page cache hits),
//! `match`-filtered pages from a fixed query pool, and — at fixed step
//! indices — a producer write: a store update, a `stix2` re-export and a
//! one-event push, which invalidates the page cache.

use std::io;

use cais_common::serve::{NoServeMetrics, ServeHandle};
use cais_common::{Timestamp, Uuid};
use cais_misp::MispApi;
use cais_taxii::{Collection, Response, TaxiiServer};

use crate::bridge::{self, Walk};
use crate::canon::Digest;
use crate::harness::{elapsed_ns, Step, Workload};
use crate::metrics::{ratio, Values};
use crate::trace::{Tracer, OP_LAYER};
use crate::wire::{self, Peer};
use crate::{cycle_pick, mix, serve_config};

/// Events loaded and bridged during set-up.
pub const EVENTS: usize = 1_000;
/// Every `STEP_CYCLE` steps: one producer write, one `match` page, four
/// pages near the head of the collection and four anywhere in it.
const STEP_CYCLE: u64 = 10;
const WRITE_SLOT: u64 = 9;
const MATCH_SLOT: u64 = 4;
/// Watermarks partners poll most: the newest full pages of the
/// collection.
const HOT_WATERMARKS: usize = 8;
/// `match` expressions partners filter with.
const MATCH_POOL: &[&str] = &[
    "type:vulnerability",
    "type:report",
    "type:indicator AND value:example",
    "tag:malicious-activity AND NOT type:report",
    "value:cve-2017-9001 OR value:cve-2017-9002",
    "contains:host-1",
    "type:indicator AND contains:10.1",
    "NOT type:indicator",
];
/// Fixed "now" the generated events are dated from.
fn generation_now() -> Timestamp {
    Timestamp::from_ymd_hms(2024, 1, 31, 0, 0, 0)
}

/// The set-up workload.
pub struct PartnerPull {
    seed: u64,
    api: MispApi,
    server: TaxiiServer,
    handle: Option<ServeHandle>,
    producer: Peer,
    partners: [Peer; 2],
    collection: Uuid,
    watermarks: Vec<Timestamp>,
    ops: u64,
    objects_pushed: usize,
    check_failures: Vec<String>,
    failure_count: u64,
    digest: Digest,
    page_bytes: u64,
    pages: u64,
    frames_at_start: (u64, u64),
    page_cache_at_start: (u64, u64),
    share_at_start: (u64, u64),
    setup_walk: usize,
    setup_pushed: usize,
    /// The end-of-run walk's `(returned, missed)`.
    walk: Option<(usize, usize)>,
}

impl PartnerPull {
    /// Loads, bridges and walks the collection.
    ///
    /// # Panics
    ///
    /// Panics when the server cannot bind or a set-up push fails.
    pub fn setup(seed: u64) -> Self {
        let api = MispApi::new("CAIS");
        let mut digest = Digest::default();
        for event in cais_bench::workloads::search_events(seed, EVENTS, generation_now()) {
            api.store().insert(event).expect("insert generated event");
        }
        let mut server = TaxiiServer::new("perfbench partner");
        let collection = server.add_collection(Collection::new("shared", "partner feed"));
        let handle = server
            .serve_on_core("127.0.0.1:0", serve_config(), NoServeMetrics)
            .expect("bind TAXII server");
        let addr = handle.local_addr();
        let mut producer = Peer::connect(addr).expect("connect producer");
        let mut off = Tracer::new(false);
        let mut objects_pushed = 0;
        let ids: Vec<u64> = api.store().snapshot().iter().map(|v| v.event.id).collect();
        for id in ids {
            let types = bridge::push_event(&api, id, &mut producer, collection, &mut off)
                .expect("set-up push");
            objects_pushed += types.len();
            digest.bytes(types.join(",").as_bytes());
        }
        let mut partners = [
            Peer::connect(addr).expect("connect partner"),
            Peer::connect(addr).expect("connect partner"),
        ];
        let Walk {
            objects,
            watermarks,
        } = bridge::walk(collection, bridge::over_wire(&mut partners[0])).expect("set-up walk");
        let stats = handle.stats();
        let share = api.share().stats();
        PartnerPull {
            seed,
            page_cache_at_start: server.page_cache_stats(),
            server,
            handle: Some(handle),
            producer,
            partners,
            collection,
            watermarks,
            ops: 0,
            objects_pushed,
            check_failures: Vec::new(),
            failure_count: 0,
            digest,
            page_bytes: 0,
            pages: 0,
            frames_at_start: (stats.frames_in, stats.frames_out),
            share_at_start: (share.hits, share.misses),
            setup_walk: objects.len(),
            setup_pushed: objects_pushed,
            walk: None,
            api,
        }
    }

    fn fail(&mut self, what: String) {
        self.failure_count += 1;
        if self.check_failures.len() < 8 {
            self.check_failures.push(what);
        }
    }

    fn page_op(&mut self, step: u64, tracer: &mut Tracer) -> Step {
        let draw = mix(self.seed, step);
        let cycle = step / STEP_CYCLE;
        let slot = step % STEP_CYCLE;
        let request = if slot == MATCH_SLOT {
            let expr = MATCH_POOL[cycle_pick(self.seed, cycle, MATCH_POOL.len())];
            bridge::page_request(self.collection, None, Some(expr.to_owned()))
        } else {
            // Page 0 is the start of the collection; page i > 0 resumes
            // at watermark i - 1. The last page of the set-up walk is
            // left out: it is the only one not full, and how short it
            // is depends on the seed.
            let full_pages = self.watermarks.len().max(1);
            let pick = if slot < MATCH_SLOT {
                full_pages - 1 - (draw as usize % HOT_WATERMARKS.min(full_pages))
            } else {
                draw as usize % full_pages
            };
            let after = pick.checked_sub(1).map(|i| self.watermarks[i]);
            bridge::page_request(self.collection, after, None)
        };
        let partner = (self.ops % 2) as usize;
        self.ops += 1;

        let started = std::time::Instant::now();
        tracer.begin(OP_LAYER, "partner.page");
        let result = (|| -> io::Result<(Response, usize)> {
            let body = wire::encode(&request)?;
            let peer = &mut self.partners[partner];
            let frame = tracer.span("taxii", "taxii.roundtrip", || peer.roundtrip(&body))?;
            let response = tracer.span("taxii", "taxii.decode", || wire::decode(&frame))?;
            Ok((response, frame.len()))
        })();
        tracer.end();
        let nanos = elapsed_ns(started);

        // Oracle, untimed: the in-process handler on the same request.
        let ok = match result {
            Ok((response, bytes)) => {
                self.pages += 1;
                self.page_bytes += bytes as u64;
                let expected = self.server.handle(request);
                let same = matches!(response, Response::Objects { .. }) && response == expected;
                if !same {
                    self.fail(format!(
                        "step {step}: page differs from TaxiiServer::handle"
                    ));
                }
                same
            }
            Err(e) => {
                self.fail(format!("step {step}: {e}"));
                false
            }
        };
        Step::Op { nanos, ok }
    }

    fn write(&mut self, step: u64, tracer: &mut Tracer) -> Step {
        let id = 1 + mix(self.seed, step) % EVENTS as u64;
        let started = std::time::Instant::now();
        let written = tracer
            .span("misp", "misp.write", || {
                self.api.update_event(id, |event| {
                    event.info = format!("advisory {id} revision {step}");
                })
            })
            .map_err(io::Error::other)
            .and_then(|()| {
                bridge::push_event(&self.api, id, &mut self.producer, self.collection, tracer)
            });
        let nanos = elapsed_ns(started);
        match written {
            Ok(types) => self.objects_pushed += types.len(),
            Err(e) => self.fail(format!("step {step}: producer write: {e}")),
        }
        Step::Background { nanos }
    }
}

impl Workload for PartnerPull {
    fn step(&mut self, step: u64, tracer: &mut Tracer) -> Step {
        if step % STEP_CYCLE == WRITE_SLOT {
            self.write(step, tracer)
        } else {
            self.page_op(step, tracer)
        }
    }

    fn finish(&mut self, values: &mut Values) -> bool {
        let (returned, missed) =
            match bridge::audit_walk(&self.server, self.collection, self.objects_pushed) {
                Ok(walked) => walked,
                Err(e) => {
                    self.fail(format!("watermark walk: {e}"));
                    (0, self.objects_pushed)
                }
            };
        values.set("taxii.walk_objects", returned as f64);
        values.set("taxii.objects_missed", missed as f64);
        self.walk = Some((returned, missed));
        self.failure_count == 0
    }

    fn layer_metrics(&self, tracer: &Tracer, values: &mut Values) {
        values.set("misp.write_ms", tracer.totals("misp.write").mean_ms());
        values.set("share.export_ms", tracer.totals("share.export").mean_ms());
        let share = self.api.share().stats();
        let hits = share.hits - self.share_at_start.0;
        let lookups = hits + share.misses - self.share_at_start.1;
        values.set("share.cache_lookups", lookups as f64);
        values.set("share.cache_hit_ratio", ratio(hits as f64, lookups as f64));
        values.set("taxii.push_ms", tracer.totals("taxii.push").mean_ms());
        values.set(
            "taxii.roundtrip_ms",
            tracer.totals("taxii.roundtrip").mean_ms(),
        );
        values.set("taxii.decode_ms", tracer.totals("taxii.decode").mean_ms());
        values.set(
            "taxii.page_bytes",
            ratio(self.page_bytes as f64, self.pages as f64),
        );
        values.set("taxii.page_requests", self.pages as f64);
        let (hits, misses) = self.server.page_cache_stats();
        let hits = hits - self.page_cache_at_start.0;
        let misses = misses - self.page_cache_at_start.1;
        values.set(
            "taxii.page_cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        if let Some(handle) = &self.handle {
            let stats = handle.stats();
            values.set(
                "serve.frames_in",
                (stats.frames_in - self.frames_at_start.0) as f64,
            );
            values.set(
                "serve.frames_out",
                (stats.frames_out - self.frames_at_start.1) as f64,
            );
        }
    }

    fn digest(&self) -> String {
        self.digest.hex()
    }

    fn notes(&self) -> Vec<String> {
        let mut notes = vec![format!(
            "set-up walk returned {} of {} objects over {} watermarks",
            self.setup_walk,
            self.setup_pushed,
            self.watermarks.len()
        )];
        notes.extend(self.walk.map(bridge::walk_note));
        notes.extend(
            self.check_failures
                .iter()
                .map(|f| format!("check failed: {f}")),
        );
        notes
    }
}

impl Drop for PartnerPull {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}
