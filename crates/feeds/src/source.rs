//! Feed sources: where payloads come from.
//!
//! A [`FeedSource`] yields raw payload text plus the metadata needed to
//! parse it. Production deployments would implement this trait over
//! HTTP; here the implementations are a file source, an in-memory source
//! and a failure-injecting wrapper, which together exercise every code
//! path the collector has (including retry behaviour).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cais_common::resilience::{mangle_payload, FaultKind, FaultPlan};
use parking_lot::Mutex;

use crate::{parse, FeedError, FeedFormat, FeedRecord, ThreatCategory};

/// A configured source of feed payloads.
///
/// Implementations must be thread-safe: the scheduler polls sources from
/// a background thread.
pub trait FeedSource: Send + Sync {
    /// Stable name identifying the feed (used as `FeedRecord::source`).
    fn name(&self) -> &str;

    /// The format payloads arrive in.
    fn format(&self) -> FeedFormat;

    /// The threat category this feed reports on.
    fn category(&self) -> ThreatCategory;

    /// Fetches the current payload.
    ///
    /// # Errors
    ///
    /// Returns [`FeedError::Fetch`] when the payload cannot be retrieved.
    fn fetch(&self) -> Result<String, FeedError>;

    /// Fetches and parses in one step.
    ///
    /// # Errors
    ///
    /// Propagates fetch and parse errors.
    fn collect(&self) -> Result<Vec<FeedRecord>, FeedError> {
        let payload = self.fetch()?;
        parse::parse_payload(self.format(), &payload, self.name(), self.category())
    }
}

/// A source serving a fixed in-memory payload (swappable at runtime).
pub struct MemorySource {
    name: String,
    format: FeedFormat,
    category: ThreatCategory,
    payload: Mutex<String>,
}

impl MemorySource {
    /// Creates a source serving `payload`.
    pub fn new(
        name: impl Into<String>,
        format: FeedFormat,
        category: ThreatCategory,
        payload: impl Into<String>,
    ) -> Self {
        MemorySource {
            name: name.into(),
            format,
            category,
            payload: Mutex::new(payload.into()),
        }
    }

    /// Replaces the payload (simulating the feed publishing an update).
    pub fn set_payload(&self, payload: impl Into<String>) {
        *self.payload.lock() = payload.into();
    }
}

impl FeedSource for MemorySource {
    fn name(&self) -> &str {
        &self.name
    }

    fn format(&self) -> FeedFormat {
        self.format
    }

    fn category(&self) -> ThreatCategory {
        self.category
    }

    fn fetch(&self) -> Result<String, FeedError> {
        Ok(self.payload.lock().clone())
    }
}

impl std::fmt::Debug for MemorySource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySource")
            .field("name", &self.name)
            .field("format", &self.format)
            .finish()
    }
}

/// A source reading its payload from a file on each fetch.
#[derive(Debug)]
pub struct FileSource {
    name: String,
    format: FeedFormat,
    category: ThreatCategory,
    path: PathBuf,
}

impl FileSource {
    /// Creates a file-backed source.
    pub fn new(
        name: impl Into<String>,
        format: FeedFormat,
        category: ThreatCategory,
        path: impl Into<PathBuf>,
    ) -> Self {
        FileSource {
            name: name.into(),
            format,
            category,
            path: path.into(),
        }
    }
}

impl FeedSource for FileSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn format(&self) -> FeedFormat {
        self.format
    }

    fn category(&self) -> ThreatCategory {
        self.category
    }

    fn fetch(&self) -> Result<String, FeedError> {
        std::fs::read_to_string(&self.path)
            .map_err(|e| FeedError::fetch(&self.name, format!("{}: {e}", self.path.display())))
    }
}

/// A wrapper injecting deterministic faults into an inner source.
///
/// Faults come from a shared [`FaultPlan`] site, covering every
/// scriptable kind — fetch errors, parse garbage, truncated payloads
/// and duplicate replays.
pub struct FlakySource<S> {
    inner: S,
    plan: FaultPlan,
    site: String,
    counter: AtomicU64,
    last_payload: Mutex<Option<String>>,
}

impl<S: FeedSource> FlakySource<S> {
    /// Wraps `inner` so every fetch consults `plan` at `site`. Error
    /// and ack-lost faults fail the fetch; garbage, truncation and
    /// replay mangle the payload (replay serves the last payload this
    /// wrapper delivered); delays pass through unchanged — payload
    /// fetching has no clock to stall.
    pub fn scripted(inner: S, plan: FaultPlan, site: impl Into<String>) -> Self {
        FlakySource {
            inner,
            plan,
            site: site.into(),
            counter: AtomicU64::new(0),
            last_payload: Mutex::new(None),
        }
    }

    /// Total fetch attempts so far.
    pub fn attempts(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }
}

impl<S: FeedSource> FeedSource for FlakySource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn format(&self) -> FeedFormat {
        self.inner.format()
    }

    fn category(&self) -> ThreatCategory {
        self.inner.category()
    }

    fn fetch(&self) -> Result<String, FeedError> {
        let attempt = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        match self.plan.next(&self.site) {
            Some(FaultKind::Error) | Some(FaultKind::AckLost) => Err(FeedError::fetch(
                self.inner.name(),
                format!("injected failure on attempt {attempt}"),
            )),
            Some(kind @ (FaultKind::Garbage | FaultKind::Truncate | FaultKind::Replay)) => {
                let payload = self.inner.fetch()?;
                let previous = self.last_payload.lock().clone();
                Ok(mangle_payload(kind, payload, previous.as_deref()))
            }
            Some(FaultKind::Delay(_)) | None => {
                let payload = self.inner.fetch()?;
                *self.last_payload.lock() = Some(payload.clone());
                Ok(payload)
            }
        }
    }
}

impl<S: std::fmt::Debug> std::fmt::Debug for FlakySource<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlakySource")
            .field("inner", &self.inner)
            .field("site", &self.site)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(payload: &str) -> MemorySource {
        MemorySource::new(
            "test-feed",
            FeedFormat::PlainText,
            ThreatCategory::MalwareDomain,
            payload,
        )
    }

    #[test]
    fn memory_source_collects() {
        let source = mem("evil.example\n");
        let records = source.collect().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].source, "test-feed");
    }

    #[test]
    fn memory_source_payload_updates() {
        let source = mem("evil.example\n");
        source.set_payload("a.example\nb.example\n");
        assert_eq!(source.collect().unwrap().len(), 2);
    }

    #[test]
    fn file_source_reads_and_reports_missing() {
        let dir = std::env::temp_dir().join("cais-feeds-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("list.txt");
        std::fs::write(&path, "evil.example\n").unwrap();
        let source = FileSource::new(
            "file-feed",
            FeedFormat::PlainText,
            ThreatCategory::MalwareDomain,
            &path,
        );
        assert_eq!(source.collect().unwrap().len(), 1);

        let missing = FileSource::new(
            "missing",
            FeedFormat::PlainText,
            ThreatCategory::MalwareDomain,
            dir.join("no-such-file.txt"),
        );
        assert!(matches!(missing.fetch(), Err(FeedError::Fetch { .. })));
    }

    #[test]
    fn scripted_source_walks_the_fault_taxonomy() {
        let plan = FaultPlan::new(7).script(
            "feed:test",
            vec![
                None,                      // healthy, caches the payload
                Some(FaultKind::Error),    // fetch fails
                Some(FaultKind::Garbage),  // unparseable payload
                Some(FaultKind::Truncate), // cut short
                Some(FaultKind::Replay),   // duplicate of the cached payload
            ],
        );
        let source = FlakySource::scripted(mem("evil.example\ntwo.example\n"), plan, "feed:test");

        assert_eq!(source.collect().unwrap().len(), 2);
        assert!(matches!(source.fetch(), Err(FeedError::Fetch { .. })));
        // Garbage fetches fine but cannot parse.
        assert!(matches!(source.collect(), Err(FeedError::Parse { .. })));
        let truncated = source.fetch().unwrap();
        assert!(truncated.len() < "evil.example\ntwo.example\n".len());
        // Replay serves the last *healthy* payload verbatim.
        assert_eq!(source.fetch().unwrap(), "evil.example\ntwo.example\n");
        // Script exhausted: healthy again.
        assert_eq!(source.collect().unwrap().len(), 2);
        assert_eq!(source.attempts(), 6);
    }

    #[test]
    fn scripted_every_nth_reproduces_period_semantics() {
        let plan = FaultPlan::new(0).every_nth("feed:p", 2, FaultKind::Error);
        let source = FlakySource::scripted(mem("evil.example\n"), plan, "feed:p");
        assert!(source.fetch().is_ok());
        assert!(source.fetch().is_err());
        assert!(source.fetch().is_ok());
        assert!(source.fetch().is_err());
    }

    #[test]
    fn sources_are_object_safe() {
        let sources: Vec<Box<dyn FeedSource>> = vec![
            Box::new(mem("evil.example\n")),
            Box::new(FlakySource::scripted(
                mem("evil.example\n"),
                FaultPlan::new(0).every_nth("feed:obj", 2, FaultKind::Error),
                "feed:obj",
            )),
        ];
        assert_eq!(sources.len(), 2);
        assert!(sources[0].collect().is_ok());
    }
}
