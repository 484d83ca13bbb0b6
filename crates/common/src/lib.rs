//! # cais-common
//!
//! Shared substrate for the CAIS (Context-Aware Intelligence Sharing)
//! workspace: timestamps, UUIDs, observable detection and shared error
//! types.
//!
//! The crates in this workspace deliberately avoid external dependencies
//! for these primitives (`chrono`, `uuid`, `regex`): threat-intelligence
//! interchange only needs RFC 3339 timestamps, v4/v5-style identifiers and
//! a handful of syntactic detectors (IP addresses, domains, hashes, CVE
//! identifiers), all of which are small, well-specified and implemented
//! here with exhaustive tests.
//!
//! # Examples
//!
//! ```
//! use cais_common::{Timestamp, Uuid, ObservableKind};
//!
//! let ts = Timestamp::parse_rfc3339("2017-09-13T00:00:00Z")?;
//! assert_eq!(ts.to_rfc3339(), "2017-09-13T00:00:00Z");
//!
//! let id = Uuid::new_v4();
//! assert_eq!(id.to_string().len(), 36);
//!
//! assert_eq!(
//!     ObservableKind::detect("CVE-2017-9805"),
//!     Some(ObservableKind::Cve)
//! );
//! # Ok::<(), cais_common::TimestampParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod frame;
pub mod observable;
pub mod resilience;
pub mod serve;
pub mod time;
pub mod uuid;

pub use bitset::SlotBitset;
pub use frame::{read_frame, write_frame, MAX_FRAME};
pub use observable::{Observable, ObservableKind};
pub use time::{Age, Timestamp, TimestampParseError};
pub use uuid::{Uuid, UuidParseError};
