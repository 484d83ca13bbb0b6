//! Property tests: [`Collection::page_matching`], which starts by binary
//! search and stops scanning one match past the page, builds exactly the
//! envelope of the collect-all form it replaced, kept here as the oracle;
//! and a full walk that follows `next` watermarks returns every matching
//! object exactly once, in stored order. Collections, watermarks, limits,
//! type filters and `match` queries are random. Arrival times passed in
//! repeat, as they do for objects of one push; stored stamps do not.

use cais_common::Timestamp;
use cais_search::Query;
use cais_taxii::{Collection, Envelope};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// The replaced form: collect every match, then truncate.
fn oracle(
    collection: &Collection,
    added_after: Option<Timestamp>,
    limit: usize,
    object_type: Option<&str>,
    query: Option<&Query>,
) -> Envelope {
    let matching: Vec<_> = collection
        .objects()
        .iter()
        .filter(|o| added_after.is_none_or(|after| o.added_at > after))
        .filter(|o| {
            object_type.is_none_or(|ty| o.object.get("type").and_then(|v| v.as_str()) == Some(ty))
        })
        .filter(|o| query.is_none_or(|q| cais_search::stix_matches(q, &o.object)))
        .collect();
    let more = matching.len() > limit;
    let page: Vec<_> = matching.into_iter().take(limit).collect();
    let next = if more {
        page.last().map(|o| o.added_at)
    } else {
        None
    };
    Envelope {
        objects: page.iter().map(|o| o.object.clone()).collect(),
        more,
        next,
    }
}

const TYPES: &[&str] = &["indicator", "malware", "report", "vulnerability"];
const NAMES: &[&str] = &[
    "c2.evil.example",
    "CVE-2017-9001",
    "host-1",
    "10.1.2.3",
    " Évil ",
    "",
];
const MATCHES: &[&str] = &[
    "type:indicator",
    "value:evil",
    "value:cve-2017-9001 OR value:cve-2017-9002",
    "contains:HOST",
    "contains:é",
    "NOT type:report",
    "type:malware AND value:example",
];

fn pick<T: Copy>(rng: &mut TestRng, options: &[T]) -> T {
    options[rng.below(options.len() as u64) as usize]
}

fn maybe<T>(rng: &mut TestRng, value: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
    (rng.below(2) == 0).then(|| value(rng))
}

/// One random collection and one page request against it.
struct Case;

type Request = (
    Collection,
    Option<Timestamp>,
    usize,
    Option<&'static str>,
    Option<&'static str>,
);

impl Strategy for Case {
    type Value = Request;

    fn generate(&self, rng: &mut TestRng) -> Request {
        let mut collection = Collection::new("c", "random");
        let mut at = 0;
        for _ in 0..rng.below(40) {
            at += rng.below(3) as i64;
            let object = serde_json::json!({
                "type": pick(rng, TYPES),
                "name": pick(rng, NAMES),
            });
            collection.add_objects(vec![object], Timestamp::from_unix_millis(at));
        }
        let added_after = maybe(rng, |rng| {
            Timestamp::from_unix_millis(rng.below(at as u64 + 2) as i64 - 1)
        });
        let limit = rng.below(8) as usize;
        let object_type = maybe(rng, |rng| pick(rng, TYPES));
        let match_expr = maybe(rng, |rng| pick(rng, MATCHES));
        (collection, added_after, limit, object_type, match_expr)
    }
}

proptest! {
    #[test]
    fn page_matching_agrees_with_collect_all(
        (collection, added_after, limit, object_type, match_expr) in Case
    ) {
        let query = match_expr.map(|e| Query::parse(e).expect("pool expression parses"));
        prop_assert_eq!(
            collection.page_matching(added_after, limit, object_type, query.as_ref()),
            oracle(&collection, added_after, limit, object_type, query.as_ref())
        );
    }
}

/// Walks the collection from the start, following `next` watermarks,
/// and returns every object the pages held, in page order.
fn walk(
    collection: &Collection,
    limit: usize,
    object_type: Option<&str>,
    query: Option<&Query>,
) -> Vec<serde_json::Value> {
    let mut walked = Vec::new();
    let mut added_after = None;
    loop {
        let page = collection.page_matching(added_after, limit, object_type, query);
        walked.extend(page.objects);
        if !page.more {
            return walked;
        }
        added_after = page.next;
    }
}

proptest! {
    #[test]
    fn a_walk_returns_every_match_once_in_stored_order(
        (collection, _, limit, object_type, match_expr) in Case
    ) {
        let query = match_expr.map(|e| Query::parse(e).expect("pool expression parses"));
        // The server clamps `limit` to at least 1; a page of 0 objects
        // has no watermark to walk on.
        let limit = limit.max(1);
        prop_assert_eq!(
            walk(&collection, limit, object_type, query.as_ref()),
            oracle(&collection, None, usize::MAX, object_type, query.as_ref()).objects
        );
    }
}
