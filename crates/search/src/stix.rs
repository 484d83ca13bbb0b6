//! The query language applied to serialized STIX objects — what lets a
//! TAXII `get-objects` request carry a `match` expression and have the
//! server filter envelope objects with the same grammar analysts use
//! against the event store.
//!
//! STIX objects are arbitrary JSON, so fields map structurally rather
//! than through the MISP data model:
//!
//! | query        | STIX property                                      |
//! |--------------|----------------------------------------------------|
//! | `type:`      | `type` (exact)                                     |
//! | `tag:`       | any entry of `labels` (exact)                      |
//! | `org:`       | `created_by_ref` (case-insensitive)                |
//! | `category:`  | `category` (case-insensitive)                      |
//! | `value:`     | any string leaf, whole or alphanumeric sub-token   |
//! | `contains:`  | any string leaf, case-insensitive substring        |
//! | `published:` | `true` unless `revoked == true`                    |
//! | `date`       | `modified`, falling back to `created`              |
//! | `score`      | `score`, falling back to `x_cais_score`            |
//!
//! Objects missing the relevant property never match a range or term —
//! the same "absent never matches" rule [`matches_event`] applies to
//! unscored events.
//!
//! [`matches_event`]: crate::query::matches_event

use cais_common::Timestamp;
use serde_json::Value;

use crate::query::{contains_ignore_ascii_case, Field, Query};

/// Walks every string leaf of the object (values only, not keys).
fn string_leaves<'a>(value: &'a Value, visit: &mut dyn FnMut(&'a str) -> bool) -> bool {
    match value {
        Value::String(s) => visit(s),
        Value::Array(items) => items.iter().any(|v| string_leaves(v, visit)),
        Value::Object(map) => map.values().any(|v| string_leaves(v, visit)),
        _ => false,
    }
}

/// Whether one serialized STIX object matches the query. Total: any
/// JSON shape is acceptable; missing properties simply never match.
pub fn stix_matches(query: &Query, object: &Value) -> bool {
    match query {
        Query::All => true,
        Query::Term { field, value } => match field {
            Field::Type => object.get("type").and_then(Value::as_str) == Some(value),
            Field::Tag => object
                .get("labels")
                .and_then(Value::as_array)
                .is_some_and(|labels| labels.iter().any(|l| l.as_str() == Some(value.as_str()))),
            Field::Org => object
                .get("created_by_ref")
                .and_then(Value::as_str)
                .is_some_and(|org| org.eq_ignore_ascii_case(value)),
            Field::Category => object
                .get("category")
                .and_then(Value::as_str)
                .is_some_and(|c| c.eq_ignore_ascii_case(value)),
            Field::Value => {
                // Values compare trimmed and ASCII-lowercased (the index's
                // `normalize`); comparing trimmed forms ASCII-case-
                // insensitively is that test without allocating.
                let needle = value.trim();
                if needle.is_empty() {
                    return false;
                }
                // Sub-tokens are runs of ASCII alphanumerics, so a needle
                // holding any other byte can only equal a whole leaf.
                let token = needle.bytes().all(|b| b.is_ascii_alphanumeric());
                string_leaves(object, &mut |leaf| {
                    leaf.trim().eq_ignore_ascii_case(needle)
                        || (token
                            && leaf
                                .as_bytes()
                                .split(|b| !b.is_ascii_alphanumeric())
                                .any(|t| t.eq_ignore_ascii_case(needle.as_bytes())))
                })
            }
        },
        Query::Contains(needle) => {
            string_leaves(object, &mut |leaf| contains_ignore_ascii_case(leaf, needle))
        }
        Query::Published(published) => {
            let revoked = object.get("revoked").and_then(Value::as_bool) == Some(true);
            revoked != *published
        }
        Query::DateRange { cmp, instant } => object
            .get("modified")
            .or_else(|| object.get("created"))
            .and_then(Value::as_str)
            .and_then(|s| Timestamp::parse_rfc3339(s).ok())
            .is_some_and(|at| cmp.holds(at, *instant)),
        Query::ScoreRange { cmp, score } => object
            .get("score")
            .or_else(|| object.get("x_cais_score"))
            .and_then(Value::as_f64)
            .is_some_and(|s| cmp.holds(s, *score)),
        Query::Not(inner) => !stix_matches(inner, object),
        Query::And(items) => items.iter().all(|q| stix_matches(q, object)),
        Query::Or(items) => items.iter().any(|q| stix_matches(q, object)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn indicator() -> Value {
        json!({
            "type": "indicator",
            "id": "indicator--0001",
            "created_by_ref": "identity--ACME",
            "created": "2021-03-01T00:00:00Z",
            "modified": "2021-06-01T00:00:00Z",
            "labels": ["malicious-activity", "tlp:amber"],
            "pattern": "[domain-name:value = 'c2.evil.example']",
            "name": "c2.evil.example",
            "score": 3.5,
        })
    }

    #[test]
    fn structural_fields_map() {
        let object = indicator();
        for (input, want) in [
            ("type:indicator", true),
            ("type:malware", false),
            ("tag:tlp:amber", true),
            ("tag:tlp:red", false),
            ("org:identity--acme", true),
            ("value:evil", true),
            ("value:c2.evil.example", true),
            ("value:benign", false),
            ("contains:EVIL.EXAMPLE", true),
            ("published:true", true),
            ("published:false", false),
            ("date>=2021-05-01", true),
            ("date<2021-04-01", false),
            ("score>=3", true),
            ("score>4", false),
            ("type:indicator AND NOT tag:tlp:red", true),
        ] {
            let query = Query::parse(input).unwrap();
            assert_eq!(stix_matches(&query, &object), want, "query {input:?}");
        }
    }

    #[test]
    fn missing_properties_never_match() {
        let bare = json!({"type": "indicator"});
        for input in [
            "date>=1970-01-01",
            "score>=0",
            "tag:x",
            "org:x",
            "category:x",
        ] {
            let query = Query::parse(input).unwrap();
            assert!(!stix_matches(&query, &bare), "query {input:?}");
        }
        // But published defaults to true (not revoked) and All matches.
        assert!(stix_matches(
            &Query::parse("published:true").unwrap(),
            &bare
        ));
        assert!(stix_matches(&Query::All, &bare));
    }

    #[test]
    fn revoked_objects_are_unpublished() {
        let object = json!({"type": "indicator", "revoked": true});
        assert!(stix_matches(
            &Query::parse("published:false").unwrap(),
            &object
        ));
        assert!(!stix_matches(
            &Query::parse("published:true").unwrap(),
            &object
        ));
    }
}
