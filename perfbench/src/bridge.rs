//! The MISP → TAXII bridge: one event's STIX 2.0 export pushed as one
//! `AddObjects`, and the watermark walk that reads a collection back.

use std::io;

use cais_common::{Timestamp, Uuid};
use cais_misp::MispApi;
use cais_taxii::{Request, Response, TaxiiServer};

use crate::trace::Tracer;
use crate::wire::{self, Peer};

/// Page size partners and walks request.
pub const PAGE_LIMIT: usize = 50;

/// Exports event `id` as `stix2` through the share cache and pushes the
/// bundle's objects to `collection` in one `AddObjects`. Returns the
/// pushed objects' `type`s in order.
///
/// # Errors
///
/// Returns export, I/O and protocol errors, and a count mismatch
/// between objects sent and objects the server stored.
pub fn push_event(
    api: &MispApi,
    id: u64,
    peer: &mut Peer,
    collection: Uuid,
    tracer: &mut Tracer,
) -> io::Result<Vec<String>> {
    let bytes = tracer
        .span("share", "share.export", || {
            api.export_event_bytes(id, "stix2")
        })
        .map_err(io::Error::other)?
        .ok_or_else(|| io::Error::other("stix2 export format missing"))?;
    tracer.begin("taxii", "taxii.push");
    let pushed = push_bundle(&bytes, peer, collection);
    tracer.end();
    pushed
}

fn push_bundle(bundle: &[u8], peer: &mut Peer, collection: Uuid) -> io::Result<Vec<String>> {
    let mut bundle: serde_json::Value = serde_json::from_slice(bundle)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let objects = match bundle.as_object_mut().and_then(|b| b.remove("objects")) {
        Some(serde_json::Value::Array(objects)) => objects,
        _ => return Err(io::Error::other("bundle without objects")),
    };
    let types: Vec<String> = objects
        .iter()
        .map(|o| {
            o.get("type")
                .and_then(|t| t.as_str())
                .unwrap_or("")
                .to_owned()
        })
        .collect();
    let sent = objects.len();
    let body = wire::encode(&Request::AddObjects {
        collection,
        objects,
    })?;
    match wire::decode(&peer.roundtrip(&body)?)? {
        Response::Accepted { stored } if stored == sent => Ok(types),
        other => Err(io::Error::other(format!(
            "push of {sent} objects answered {other:?}"
        ))),
    }
}

/// A page request at a watermark.
pub fn page_request(
    collection: Uuid,
    added_after: Option<Timestamp>,
    match_expr: Option<String>,
) -> Request {
    Request::GetObjects {
        collection,
        added_after,
        object_type: None,
        match_expr,
        limit: PAGE_LIMIT,
    }
}

/// A full watermark walk: pages from the start, each at the previous
/// page's `next`, until the server reports no more.
pub struct Walk {
    /// Objects returned across all pages.
    pub objects: Vec<serde_json::Value>,
    /// The `next` watermark of every page that had one, in order.
    pub watermarks: Vec<Timestamp>,
}

/// Walks `collection`, fetching each page with `fetch`.
///
/// # Errors
///
/// Returns `fetch`'s errors and non-page responses.
pub fn walk(
    collection: Uuid,
    mut fetch: impl FnMut(Request) -> io::Result<Response>,
) -> io::Result<Walk> {
    let mut out = Walk {
        objects: Vec::new(),
        watermarks: Vec::new(),
    };
    let mut after = None;
    loop {
        let envelope = match fetch(page_request(collection, after, None))? {
            Response::Objects { envelope } => envelope,
            other => return Err(io::Error::other(format!("walk answered {other:?}"))),
        };
        out.objects.extend(envelope.objects);
        match (envelope.more, envelope.next) {
            (true, Some(next)) => {
                out.watermarks.push(next);
                after = Some(next);
            }
            _ => return Ok(out),
        }
    }
}

/// Fetches over `peer`'s connection.
///
/// # Errors
///
/// Returns I/O and decode errors.
pub fn over_wire(peer: &mut Peer) -> impl FnMut(Request) -> io::Result<Response> + '_ {
    move |request| wire::decode(&peer.roundtrip(&wire::encode(&request)?)?)
}

/// The end-of-run check: walks the whole collection in process and
/// returns `(objects returned, objects missed)` against the number
/// pushed. Every object the server stored must come back exactly once.
pub fn audit_walk(
    server: &TaxiiServer,
    collection: Uuid,
    pushed: usize,
) -> io::Result<(usize, usize)> {
    let returned = walk(collection, |request| Ok(server.handle(request)))?
        .objects
        .len();
    Ok((returned, pushed.saturating_sub(returned)))
}

/// The note line reporting the end-of-run walk. Objects it missed are
/// the TAXII paging defect, reported as `taxii.objects_missed` rather
/// than as failed operations: the walk is an audit, not an operation
/// of the workload.
pub fn walk_note((returned, missed): (usize, usize)) -> String {
    format!(
        "end-of-run watermark walk returned {returned} of {} objects, {missed} missed \
         (taxii.objects_missed)",
        returned + missed
    )
}
