//! Property test: the inverted index is observationally equivalent to
//! a linear scan. For arbitrary stores and interleaved
//! insert/update/publish/tag mutations and moves to another store,
//! after every round's change-feed sync:
//!
//! * `SearchIndex::search` returns exactly the `(id, version)` pairs a
//!   full [`matches_event`] scan does, in id order, for a query pool
//!   spanning every language axis (terms, ranges, NOT/AND/OR, contains),
//!   plus generated `contains:` needles: substrings of the seed values in
//!   random case at lengths 0–6, needles found in no value, non-ASCII
//!   needles, a needle longer than every value, and needles spanning
//!   the boundary between two values,
//! * the [`SearchBackend`] seam answers legacy [`SearchQuery`] filters
//!   exactly like the store's retained `search_linear` path,
//!
//! so appends, version-gated reindexing (edits of tags only, of
//! attribute values only, or of both, so trigram postings are both
//! kept and moved) and cursor tracking are all exercised against both
//! oracles.

use cais_common::Timestamp;
use cais_misp::{
    AttributeCategory, MispAttribute, MispEvent, MispStore, SearchBackend, SearchQuery, Tag,
};
use cais_search::{matches_event, Query, SearchIndex};
use proptest::prelude::*;

/// Typed attribute seeds that pass store validation.
const ATTRIBUTES: &[(&str, &str)] = &[
    ("domain", "c2.evil.example"),
    ("domain", "drop.evil.example"),
    ("ip-dst", "203.0.113.9"),
    ("ip-dst", "198.51.100.7"),
    ("url", "https://evil.example/payload"),
    ("vulnerability", "CVE-2017-9805"),
    ("text", "apache struts exploitation"),
    ("text", "Zürich loader, ÉVIL stage 2"),
];

const TAGS: &[&str] = &["tlp:red", "tlp:amber", "type:OSINT"];

const ORGS: &[&str] = &["CIRCL", "fleet-soc"];

/// The typed-query oracle pool: one probe per language axis plus
/// boolean compositions over them.
fn query_pool() -> Vec<Query> {
    let since = Timestamp::from_unix_millis(45 * 86_400_000);
    [
        "",
        "type:ip-dst",
        "category:\"Network activity\"",
        "tag:tlp:red",
        "org:circl",
        "value:evil",
        "value:c2.evil.example",
        "contains:struts",
        "published:true",
        "published:false",
        "score >= 2.5",
        "score < 1.0",
        "type:domain AND tag:tlp:red",
        "org:circl OR org:fleet-soc",
        "NOT type:ip-dst",
        "(tag:tlp:amber OR tag:tlp:red) AND NOT org:fleet-soc",
        "value:evil AND score >= 0.5 AND published:true",
    ]
    .into_iter()
    .map(|q| Query::parse(q).expect("pool query parses"))
    .chain(std::iter::once(Query::DateRange {
        cmp: cais_search::Cmp::Ge,
        instant: since,
    }))
    .collect()
}

/// `contains:` needles no generated case draws: absent from every
/// value, non-ASCII (only ASCII letters fold case, so `évil` misses
/// `ÉVIL`), longer than every value, and the end of one seed value run
/// into the start of the next, which an event holding both must not
/// match.
fn fixed_needles() -> Vec<String> {
    let mut needles: Vec<String> = ["zqx", "absent-token", "ürich", "ÉVIL", "évil", "ÜRICH"]
        .into_iter()
        .map(str::to_owned)
        .collect();
    needles.push(ATTRIBUTES.iter().map(|(_, value)| *value).collect());
    for (i, (_, value)) in ATTRIBUTES.iter().enumerate() {
        let (_, next) = ATTRIBUTES[(i + 1) % ATTRIBUTES.len()];
        let tail: String = value.chars().skip(value.chars().count() - 3).collect();
        needles.push(format!("{tail}{}", &next[..3]));
    }
    needles
}

/// A substring of one seed value, `len` chars from char `start`, with
/// each ASCII letter's case drawn from a bit of `case`.
fn needle(pick: usize, start: usize, len: usize, case: u64) -> String {
    let (_, value) = ATTRIBUTES[pick % ATTRIBUTES.len()];
    let chars = value.chars().count();
    value
        .chars()
        .skip(start % chars)
        .take(len)
        .enumerate()
        .map(|(i, c)| {
            if case >> (i % 64) & 1 == 1 {
                c.to_ascii_uppercase()
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect()
}

fn needles() -> impl Strategy<Value = Vec<Query>> {
    prop::collection::vec(
        (
            0usize..ATTRIBUTES.len(),
            0usize..64,
            0usize..=6,
            any::<u64>(),
        ),
        1..8,
    )
    .prop_map(|picks| {
        picks
            .into_iter()
            .map(|(pick, start, len, case)| needle(pick, start, len, case))
            .chain(fixed_needles())
            .map(Query::Contains)
            .collect()
    })
}

/// Legacy filters pushed through the SearchBackend seam.
fn legacy_pool() -> Vec<SearchQuery> {
    vec![
        SearchQuery::default(),
        SearchQuery {
            attr_type: Some("domain".to_owned()),
            published_only: true,
            ..SearchQuery::default()
        },
        SearchQuery {
            tag: Some("tlp:red".to_owned()),
            value_contains: Some("EVIL".to_owned()),
            ..SearchQuery::default()
        },
        SearchQuery {
            since: Some(Timestamp::from_unix_millis(45 * 86_400_000)),
            attr_type: Some("ip-dst".to_owned()),
            ..SearchQuery::default()
        },
    ]
}

fn event(info: String, spec: &EventSpec) -> MispEvent {
    let mut e = MispEvent::new(info);
    e.org = ORGS[spec.org % ORGS.len()].to_owned();
    e.date = Timestamp::from_unix_millis(40 * 86_400_000).add_days(spec.age_days);
    for pick in &spec.attributes {
        let (attr_type, value) = ATTRIBUTES[pick % ATTRIBUTES.len()];
        e.add_attribute(MispAttribute::new(
            attr_type,
            AttributeCategory::NetworkActivity,
            value,
        ));
    }
    if let Some(pick) = spec.tag {
        e.add_tag(Tag::new(TAGS[pick % TAGS.len()]));
    }
    if let Some(decimals) = spec.score {
        e.add_tag(Tag::machine(
            "cais",
            "decay-score",
            &format!("{:.1}", decimals as f64 / 10.0),
        ));
    }
    e.published = spec.published;
    e
}

#[derive(Debug, Clone)]
struct EventSpec {
    attributes: Vec<usize>,
    tag: Option<usize>,
    org: usize,
    age_days: i64,
    score: Option<u8>,
    published: bool,
}

fn event_spec() -> impl Strategy<Value = EventSpec> {
    // The vendored proptest has no `prop::option`, so optional picks
    // ride one extra integer: the top value means `None`.
    (
        prop::collection::vec(0usize..ATTRIBUTES.len(), 0..4),
        0usize..=TAGS.len(),
        0usize..ORGS.len(),
        0i64..12,
        0u8..=50,
        any::<bool>(),
    )
        .prop_map(
            |(attributes, tag, org, age_days, score, published)| EventSpec {
                attributes,
                tag: (tag < TAGS.len()).then_some(tag),
                org,
                age_days,
                score: (score < 50).then_some(score),
                published,
            },
        )
}

/// Syncs the index and checks both oracles over the whole pool and
/// the case's `contains:` needles.
fn check(index: &SearchIndex, store: &MispStore, round: usize, needles: &[Query]) {
    index.sync(store);
    let snapshot = store.snapshot();
    for query in query_pool().into_iter().chain(needles.iter().cloned()) {
        let indexed: Vec<(u64, u64)> = index
            .search(&query)
            .iter()
            .map(|v| (v.event.id, v.version))
            .collect();
        let linear: Vec<(u64, u64)> = snapshot
            .iter()
            .filter(|v| matches_event(&query, &v.event))
            .map(|v| (v.event.id, v.version))
            .collect();
        assert_eq!(
            indexed, linear,
            "indexed diverged from matches_event on `{query}` in round {round}"
        );
    }
    for legacy in legacy_pool() {
        let via_backend: Vec<(u64, u64)> = index
            .search_query(store, &legacy)
            .iter()
            .map(|v| (v.event.id, v.version))
            .collect();
        let via_linear: Vec<(u64, u64)> = store
            .search_linear(&legacy)
            .iter()
            .map(|v| (v.event.id, v.version))
            .collect();
        assert_eq!(
            via_backend, via_linear,
            "SearchBackend diverged from search_linear on {legacy:?} in round {round}"
        );
    }
}

proptest! {
    #[test]
    fn indexed_search_matches_linear_scan_under_churn(
        seeds in prop::collection::vec(event_spec(), 1..5),
        rounds in prop::collection::vec(
            (0usize..6, event_spec(), any::<bool>(), 0u8..4, 0u8..3),
            0..5,
        ),
        needles in needles(),
    ) {
        let mut store = MispStore::new();
        let index = SearchIndex::new();
        let mut ids = Vec::new();
        for (i, spec) in seeds.iter().enumerate() {
            ids.push(store.insert(event(format!("advisory {i}"), spec)).expect("insert"));
        }
        check(&index, &store, 0, &needles);

        for (round, (pick, spec, grow, moves, edit)) in rounds.into_iter().enumerate() {
            let id = ids[pick % ids.len()];
            let replacement = event(format!("advisory {id} (round {round})"), &spec);
            store
                .update(id, |e| match edit {
                    // Tags only, as decay flips and score writes do:
                    // attribute values, and so trigrams, stay put.
                    0 => e.tags = replacement.tags.clone(),
                    // Attribute values only.
                    1 => e.attributes = replacement.attributes.clone(),
                    _ => {
                        e.info = replacement.info.clone();
                        e.org = replacement.org.clone();
                        e.date = replacement.date;
                        e.attributes = replacement.attributes.clone();
                        e.tags = replacement.tags.clone();
                        e.published = replacement.published;
                    }
                })
                .expect("update");
            if grow {
                let late = event(format!("late {round}"), &spec);
                ids.push(store.insert(late).expect("insert"));
            }
            if moves == 0 {
                // The index moves to another store whose generation is
                // at least the current one's, so only the store's
                // identity tells the two change logs apart.
                let other = MispStore::new();
                let n = ids.len() + 1;
                ids = (0..n)
                    .map(|i| other.insert(event(format!("moved {i}"), &spec)).expect("insert"))
                    .collect();
                while other.generation() < store.generation() {
                    other.publish(ids[0]).expect("publish");
                }
                store = other;
            }
            check(&index, &store, round + 1, &needles);
        }
    }
}
