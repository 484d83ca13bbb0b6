//! # cais-search
//!
//! An incremental inverted index and typed query language over MISP
//! events, attributes and rIoCs.
//!
//! The paper's platform stands on analysts being able to *find* shared
//! intelligence fast — the sharing layer and dashboards all assume
//! cheap lookup over a growing event store. This crate replaces the
//! linear clone-per-hit scans with:
//!
//! - [`SearchIndex`]: interned-token postings + bitset evaluation
//!   (generalized from `cais_infra`'s pattern index), kept fresh off
//!   the store's change feed so churn costs O(changed events), never a
//!   full rebuild.
//! - [`Query`]: a small typed language — `field:value` terms over
//!   types, categories, tags, orgs and value tokens; `AND`/`OR`/`NOT`;
//!   and range predicates over timestamps and decayed threat scores —
//!   compiled to bitset operations over the postings.
//! - [`stix_matches`]: the same language applied to serialized STIX
//!   envelope objects, which is what lets TAXII `get-objects` requests
//!   carry a `match` filter.
//!
//! The index's contract is strict equivalence with the linear
//! baseline: for any store state and query, [`SearchIndex::search`]
//! returns exactly what a full scan under [`matches_event`] (or
//! `MispStore::search_linear` for compiled [`SearchQuery`]s) would —
//! the crate's property tests drive random churn interleavings to hold
//! it there.
//!
//! [`SearchQuery`]: cais_misp::store::SearchQuery
//!
//! # Examples
//!
//! ```
//! use cais_misp::{AttributeCategory, MispAttribute, MispEvent, MispStore};
//! use cais_search::{Query, SearchIndex};
//!
//! let store = MispStore::new();
//! let mut event = MispEvent::new("struts campaign");
//! event.add_attribute(MispAttribute::new(
//!     "vulnerability",
//!     AttributeCategory::ExternalAnalysis,
//!     "CVE-2017-9805",
//! ));
//! store.insert(event)?;
//!
//! let index = SearchIndex::new();
//! index.sync(&store);
//! let query = Query::parse("type:vulnerability AND value:cve-2017-9805").unwrap();
//! assert_eq!(index.search(&query).len(), 1);
//! # Ok::<(), cais_misp::MispError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod query;
pub mod stix;

pub use index::{SearchIndex, SyncSummary};
pub use query::{
    decayed_score, matches_event, Cmp, Field, ParseError, Query, DECAY_SCORE_TAG, MAX_QUERY_DEPTH,
};
pub use stix::stix_matches;
