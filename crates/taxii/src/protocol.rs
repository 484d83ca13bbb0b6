//! The request/response protocol between TAXII client and server.

use cais_common::{Timestamp, Uuid};
use serde::{Deserialize, Serialize};

use crate::collection::{Collection, Envelope};

/// A client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "kebab-case")]
pub enum Request {
    /// Server discovery metadata.
    Discovery,
    /// List collections (without their objects).
    Collections,
    /// Fetch a page of objects from a collection.
    GetObjects {
        /// The target collection.
        collection: Uuid,
        /// Return only objects added strictly after this instant.
        #[serde(skip_serializing_if = "Option::is_none")]
        added_after: Option<Timestamp>,
        /// Return only objects of this STIX type (TAXII `match[type]`).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        object_type: Option<String>,
        /// Return only objects matching this `cais-search` query
        /// expression (e.g. `type:indicator AND value:evil`), parsed
        /// server-side; malformed expressions yield an error response.
        #[serde(default, rename = "match", skip_serializing_if = "Option::is_none")]
        match_expr: Option<String>,
        /// Page size.
        limit: usize,
    },
    /// Append objects to a collection.
    AddObjects {
        /// The target collection.
        collection: Uuid,
        /// The STIX objects to store.
        objects: Vec<serde_json::Value>,
    },
}

impl Request {
    /// The request's verb name, for logging and trace span fields.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Discovery => "discovery",
            Request::Collections => "collections",
            Request::GetObjects { .. } => "get-objects",
            Request::AddObjects { .. } => "add-objects",
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "status", rename_all = "kebab-case")]
pub enum Response {
    /// Discovery metadata.
    Discovery {
        /// Server title.
        title: String,
        /// Protocol version advertised.
        api_version: String,
    },
    /// Collections listing.
    Collections {
        /// The collections, objects omitted.
        collections: Vec<Collection>,
    },
    /// One page of objects.
    Objects {
        /// The envelope.
        envelope: Envelope,
    },
    /// Objects accepted.
    Accepted {
        /// Objects accepted, including versions the collection already
        /// held (a re-sent `(id, modified)` pair is accepted but not
        /// stored again).
        stored: usize,
    },
    /// The request failed.
    Error {
        /// What went wrong.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_wire_shape() {
        let req = Request::GetObjects {
            collection: Uuid::NIL,
            added_after: None,
            object_type: None,
            match_expr: None,
            limit: 100,
        };
        let json = serde_json::to_value(&req).unwrap();
        assert_eq!(json["op"], "get-objects");
        // Absent filters stay off the wire entirely.
        assert!(json.get("match").is_none());
        let back: Request = serde_json::from_value(json).unwrap();
        assert_eq!(back, req);

        let req = Request::GetObjects {
            collection: Uuid::NIL,
            added_after: None,
            object_type: None,
            match_expr: Some("type:indicator AND value:evil".into()),
            limit: 100,
        };
        let json = serde_json::to_value(&req).unwrap();
        assert_eq!(json["match"], "type:indicator AND value:evil");
        let back: Request = serde_json::from_value(json).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::Error {
            message: "no such collection".into(),
        };
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);
    }
}
