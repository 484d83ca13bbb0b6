//! Collections: named, access-controlled sets of shared STIX objects.

use cais_common::{Timestamp, Uuid};
use serde::{Deserialize, Serialize};

/// A stored object plus its server-side arrival time (the property
/// TAXII's `added_after` filter keys on).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredObject {
    /// When the server accepted the object.
    pub added_at: Timestamp,
    /// The STIX object, as JSON.
    pub object: serde_json::Value,
}

/// A TAXII collection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Collection {
    /// Collection identifier.
    pub id: Uuid,
    /// Short title.
    pub title: String,
    /// Human description.
    pub description: String,
    /// Whether consumers may read.
    pub can_read: bool,
    /// Whether producers may write.
    pub can_write: bool,
    /// The stored objects, in arrival order.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub objects: Vec<StoredObject>,
}

impl Collection {
    /// Creates a readable, writable collection.
    pub fn new(title: impl Into<String>, description: impl Into<String>) -> Self {
        Collection {
            id: Uuid::new_v4(),
            title: title.into(),
            description: description.into(),
            can_read: true,
            can_write: true,
            objects: Vec::new(),
        }
    }

    /// Makes the collection read-only, builder-style.
    pub fn read_only(mut self) -> Self {
        self.can_write = false;
        self
    }

    /// Appends objects stamped with `added_at`.
    pub fn add_objects(&mut self, objects: Vec<serde_json::Value>, added_at: Timestamp) {
        self.objects.extend(
            objects
                .into_iter()
                .map(|object| StoredObject { added_at, object }),
        );
    }

    /// Returns a page of objects added strictly after the watermark
    /// (or from the start when `None`), at most `limit` objects.
    pub fn page(&self, added_after: Option<Timestamp>, limit: usize) -> Envelope {
        self.page_filtered(added_after, limit, None)
    }

    /// [`Collection::page`] restricted to objects whose `type` property
    /// equals `object_type` (TAXII's `match[type]` filter).
    pub fn page_filtered(
        &self,
        added_after: Option<Timestamp>,
        limit: usize,
        object_type: Option<&str>,
    ) -> Envelope {
        self.page_matching(added_after, limit, object_type, None)
    }

    /// [`Collection::page_filtered`] further restricted to objects
    /// matching a typed [`cais_search::Query`] (the request's `match`
    /// expression), evaluated structurally over the serialized STIX
    /// objects. Paging watermarks are computed over the *matching*
    /// subsequence, so a filtered walk visits every match exactly once.
    pub fn page_matching(
        &self,
        added_after: Option<Timestamp>,
        limit: usize,
        object_type: Option<&str>,
        query: Option<&cais_search::Query>,
    ) -> Envelope {
        let mut matching = self
            .objects
            .iter()
            .filter(|o| added_after.is_none_or(|after| o.added_at > after))
            .filter(|o| {
                object_type
                    .is_none_or(|ty| o.object.get("type").and_then(|v| v.as_str()) == Some(ty))
            })
            .filter(|o| query.is_none_or(|q| cais_search::stix_matches(q, &o.object)));
        // Take the page, then probe for one more match: the scan stops
        // there instead of visiting the rest of the collection.
        let page: Vec<&StoredObject> = matching.by_ref().take(limit).collect();
        let more = matching.next().is_some();
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
}

/// A TAXII envelope: one page of objects plus paging state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// The objects in this page.
    pub objects: Vec<serde_json::Value>,
    /// Whether more objects remain.
    pub more: bool,
    /// Watermark to pass as `added_after` for the next page.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub next: Option<Timestamp>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: u64) -> serde_json::Value {
        serde_json::json!({ "n": n })
    }

    #[test]
    fn paging_walks_the_collection() {
        let mut collection = Collection::new("test", "d");
        for i in 0..5 {
            collection.add_objects(vec![obj(i)], Timestamp::from_unix_secs(i as i64));
        }
        let first = collection.page(None, 2);
        assert_eq!(first.objects.len(), 2);
        assert!(first.more);
        let second = collection.page(first.next, 2);
        assert_eq!(second.objects.len(), 2);
        assert!(second.more);
        let third = collection.page(second.next, 2);
        assert_eq!(third.objects.len(), 1);
        assert!(!third.more);
        assert_eq!(third.next, None);
    }

    #[test]
    fn added_after_is_strict() {
        let mut collection = Collection::new("test", "d");
        collection.add_objects(vec![obj(1)], Timestamp::from_unix_secs(10));
        let page = collection.page(Some(Timestamp::from_unix_secs(10)), 10);
        assert!(page.objects.is_empty());
        let page = collection.page(Some(Timestamp::from_unix_secs(9)), 10);
        assert_eq!(page.objects.len(), 1);
    }

    #[test]
    fn read_only_flag() {
        let collection = Collection::new("t", "d").read_only();
        assert!(collection.can_read);
        assert!(!collection.can_write);
    }
}
