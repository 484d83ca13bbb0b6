//! Property test: the allocation-free `value:` and `contains:` matching
//! in [`stix_matches`] answers exactly like the allocate-then-normalize
//! form it replaced, kept here as the oracle. Objects are random JSON
//! with string leaves that mix case, separators, surrounding and
//! Unicode whitespace and non-ASCII text; needles include empty,
//! whitespace-only, separator-only and non-ASCII ones.

use cais_search::{stix_matches, Field, Query};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde_json::{Map, Value};

/// The replaced form: normalize every leaf into a fresh `String`, then
/// compare whole values and alphanumeric sub-tokens.
fn oracle(query: &Query, object: &Value) -> bool {
    fn normalize(value: &str) -> String {
        value.trim().to_ascii_lowercase()
    }
    fn leaves<'a>(value: &'a Value, out: &mut Vec<&'a str>) {
        match value {
            Value::String(s) => out.push(s),
            Value::Array(items) => items.iter().for_each(|v| leaves(v, out)),
            Value::Object(map) => map.values().for_each(|v| leaves(v, out)),
            _ => {}
        }
    }
    let mut all = Vec::new();
    leaves(object, &mut all);
    match query {
        Query::Term {
            field: Field::Value,
            value,
        } => {
            let needle = normalize(value);
            !needle.is_empty()
                && all.iter().any(|leaf| {
                    let normalized = normalize(leaf);
                    normalized == needle
                        || normalized
                            .split(|c: char| !c.is_ascii_alphanumeric())
                            .filter(|piece| !piece.is_empty())
                            .any(|t| t == needle)
                })
        }
        Query::Contains(needle) => {
            let needle = needle.to_ascii_lowercase();
            all.iter()
                .any(|leaf| leaf.to_ascii_lowercase().contains(&needle))
        }
        Query::Not(inner) => !oracle(inner, object),
        Query::And(items) => items.iter().all(|q| oracle(q, object)),
        Query::Or(items) => items.iter().any(|q| oracle(q, object)),
        other => stix_matches(other, object),
    }
}

/// Fragments leaves and needles are built from.
const PIECES: &[&str] = &[
    "evil",
    "EVIL",
    "Evil",
    "c2",
    "example",
    "cve",
    "2017",
    "9001",
    "CVE-2017-9001",
    "host-1",
    "10.1",
    ".",
    "-",
    " ",
    "  ",
    "\t",
    "/",
    ":",
    "é",
    "É",
    "ß",
    "中",
    "\u{a0}",
    "\u{2003}",
    "\u{212a}",
    "k",
    "K",
    "a",
    "",
];

fn pick<T: Copy>(rng: &mut TestRng, options: &[T]) -> T {
    options[rng.below(options.len() as u64) as usize]
}

fn text(rng: &mut TestRng, max_pieces: u64) -> String {
    (0..rng.below(max_pieces + 1))
        .map(|_| pick(rng, PIECES))
        .collect()
}

fn json(rng: &mut TestRng, depth: u32) -> Value {
    match rng.below(if depth >= 3 { 3 } else { 5 }) {
        0 => Value::from(rng.below(100)),
        1 | 2 => Value::String(text(rng, 5)),
        3 => Value::Array((0..rng.below(4)).map(|_| json(rng, depth + 1)).collect()),
        _ => {
            let mut map = Map::new();
            for key in ["name", "pattern", "id", "labels"] {
                if rng.below(2) == 0 {
                    map.insert(key.to_owned(), json(rng, depth + 1));
                }
            }
            Value::Object(map)
        }
    }
}

fn query(rng: &mut TestRng, depth: u32) -> Query {
    match rng.below(if depth >= 2 { 2 } else { 5 }) {
        0 => Query::Term {
            field: Field::Value,
            value: text(rng, 3),
        },
        1 => Query::Contains(text(rng, 3)),
        2 => Query::Not(Box::new(query(rng, depth + 1))),
        3 => Query::And(vec![query(rng, depth + 1), query(rng, depth + 1)]),
        _ => Query::Or(vec![query(rng, depth + 1), query(rng, depth + 1)]),
    }
}

struct Case;

impl Strategy for Case {
    type Value = (Query, Value);

    fn generate(&self, rng: &mut TestRng) -> (Query, Value) {
        (query(rng, 0), json(rng, 0))
    }
}

proptest! {
    #[test]
    fn stix_matching_agrees_with_the_allocating_oracle(cases in prop::collection::vec(Case, 16)) {
        for (query, object) in cases {
            prop_assert_eq!(
                stix_matches(&query, &object),
                oracle(&query, &object),
                "query {:?} object {}",
                query,
                object
            );
        }
    }
}

#[test]
fn edge_needles_agree() {
    let object = serde_json::json!({
        "name": " C2.Evil.Example\u{a0}",
        "labels": ["CVE-2017-9001", "\u{212a}elvin", "évil"],
        "pattern": "",
    });
    for needle in [
        "",
        " ",
        "\t",
        ".",
        "-",
        "c2.evil.example",
        "cve-2017-9001",
        "CVE-2017-9001 ",
        "evil",
        "é",
        "ÉVIL",
        "\u{212a}",
        "kelvin",
        "elvin",
        "2017",
    ] {
        for query in [
            Query::Term {
                field: Field::Value,
                value: needle.to_owned(),
            },
            Query::Contains(needle.to_owned()),
        ] {
            assert_eq!(
                stix_matches(&query, &object),
                oracle(&query, &object),
                "{query:?}"
            );
        }
    }
}
