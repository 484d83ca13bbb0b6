//! # cais-misp
//!
//! A MISP-like threat-intelligence platform: the event/attribute/tag
//! data model, an indexed in-memory store, MISP's value-based
//! correlation, import from feeds and STIX, export modules (MISP JSON,
//! STIX 2.0, CSV), a PyMISP-style API facade with zmq-style publishing
//! over [`cais_bus`], and instance-to-instance synchronization with
//! distribution levels.
//!
//! The paper's Operational Module is "a MISP instance … composed of a
//! collector entity (for both OSINT and infrastructure data), and a
//! relational database to store locally information about IoCs and the
//! monitored infrastructure", whose events reach the Heuristic
//! Component through "a built-in automated, and real-time, sharing
//! mechanism, based on the asynchronous messaging library zeroMQ"
//! (Sections III-B1, IV-A). This crate is that instance.
//!
//! # Examples
//!
//! ```
//! use cais_misp::{MispApi, MispEvent, MispAttribute, AttributeCategory};
//!
//! let api = MispApi::new("ACME-MISP");
//! let mut event = MispEvent::new("OSINT - struts exploitation");
//! event.add_attribute(MispAttribute::new(
//!     "vulnerability", AttributeCategory::ExternalAnalysis, "CVE-2017-9805",
//! ));
//! let id = api.add_event(event)?;
//! let found = api.search_value("CVE-2017-9805");
//! assert_eq!(found.len(), 1);
//! assert_eq!(found[0].event.id, id);
//! # Ok::<(), cais_misp::MispError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod attribute;
pub mod correlation;
pub mod error;
pub mod event;
pub mod export;
pub mod import;
pub mod object;
pub mod share;
pub mod store;
pub mod sync;
pub mod tag;
pub mod warninglist;

pub use api::MispApi;
pub use attribute::{AttributeCategory, MispAttribute};
pub use error::MispError;
pub use event::{Analysis, Distribution, MispEvent, ThreatLevel};
pub use share::{ShareCacheStats, ShareExporter};
pub use store::{
    ChangeBatch, ChangeCursor, MergeOutcome, MispStore, SearchBackend, SearchQuery, StoreSnapshot,
    VersionedEvent,
};
pub use sync::{ApplyOutcome, ResilientSyncReport, SyncReport};
pub use tag::Tag;
