//! Collections: named, access-controlled sets of shared STIX objects.

use cais_common::{Timestamp, Uuid};
use serde::{Deserialize, Serialize};

/// A stored object plus its server-side arrival time (the property
/// TAXII's `added_after` filter keys on).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredObject {
    /// When the server accepted the object, unique in its collection.
    pub added_at: Timestamp,
    /// The STIX object, as JSON.
    pub object: serde_json::Value,
}

/// A TAXII collection: its metadata plus an append-only log of stored
/// objects whose stamps strictly increase in stored order.
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
    /// The stored objects, in arrival order; only `add_objects` appends.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    objects: Vec<StoredObject>,
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

    /// The collection's metadata without its objects, as a
    /// `Collections` listing shows it.
    pub(crate) fn metadata(&self) -> Collection {
        Collection {
            title: self.title.clone(),
            description: self.description.clone(),
            objects: Vec::new(),
            ..*self
        }
    }

    /// The stored objects, in stored order.
    pub fn objects(&self) -> &[StoredObject] {
        &self.objects
    }

    /// Appends objects that arrived at `added_at`. Each is stamped
    /// `max(added_at, previous stamp + 1 ms)`, so stamps strictly
    /// increase in stored order and an `added_after` watermark names
    /// exactly one stored object.
    pub fn add_objects(&mut self, objects: Vec<serde_json::Value>, added_at: Timestamp) {
        for object in objects {
            let added_at = self
                .objects
                .last()
                .map_or(added_at, |last| added_at.max(last.added_at.add_millis(1)));
            self.objects.push(StoredObject { added_at, object });
        }
    }

    /// A page of at most `limit` objects stamped after the watermark (or
    /// from the start when `None`) whose `type` equals `object_type`
    /// (TAXII's `match[type]`) and that match a typed
    /// [`cais_search::Query`] (the request's `match` expression). Paging
    /// watermarks are computed over the *matching* subsequence, so a
    /// filtered walk visits every match exactly once.
    pub fn page_matching(
        &self,
        added_after: Option<Timestamp>,
        limit: usize,
        object_type: Option<&str>,
        query: Option<&cais_search::Query>,
    ) -> Envelope {
        // Stamps strictly increase, so the page starts by binary search.
        let start = added_after.map_or(0, |after| {
            self.objects.partition_point(|o| o.added_at <= after)
        });
        let mut matching = self.objects[start..]
            .iter()
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

impl Envelope {
    /// Walks a collection from the start: fetches each page with
    /// `fetch(added_after)`, follows `next` watermarks, and returns every
    /// object in page order.
    pub(crate) fn walk(
        mut fetch: impl FnMut(Option<Timestamp>) -> std::io::Result<Envelope>,
    ) -> std::io::Result<Vec<serde_json::Value>> {
        let mut objects = Vec::new();
        let mut added_after = None;
        loop {
            let page = fetch(added_after)?;
            objects.extend(page.objects);
            if !page.more {
                return Ok(objects);
            }
            added_after = page.next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: u64) -> serde_json::Value {
        serde_json::json!({ "n": n })
    }

    #[test]
    fn stamps_strictly_increase_within_and_across_pushes() {
        let mut collection = Collection::new("test", "d");
        let at = Timestamp::from_unix_millis(100);
        collection.add_objects(vec![obj(0), obj(1), obj(2)], at);
        // An arrival time behind the last stamp is moved past it.
        collection.add_objects(vec![obj(3)], Timestamp::from_unix_millis(101));
        // One ahead of it is kept.
        collection.add_objects(vec![obj(4)], Timestamp::from_unix_millis(200));
        let stamps: Vec<i64> = collection
            .objects()
            .iter()
            .map(|o| o.added_at.unix_millis())
            .collect();
        assert_eq!(stamps, [100, 101, 102, 103, 200]);
    }

    #[test]
    fn read_only_flag() {
        let collection = Collection::new("t", "d").read_only();
        assert!(collection.can_read);
        assert!(!collection.can_write);
    }
}
