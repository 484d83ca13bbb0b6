//! Contract property for the store's change feed. For random
//! insert/update/publish/`merge_by_uuid` interleavings on two stores,
//! with cursors taken and advanced at random points, against an oracle
//! that is a plain list of every mutated id per store:
//!
//! * a cursor from the same store gets the sorted, distinct oracle
//!   suffix past the point it was taken, with no reset,
//! * a `None` cursor, or one from the other store, gets a reset and
//!   every event id,
//! * the returned cursor resumes exactly where the log ends,
//! * `generation()` equals the oracle's length and the snapshot's
//!   generation.

use cais_misp::{
    AttributeCategory, ChangeCursor, MergeOutcome, MispAttribute, MispEvent, MispStore,
};
use proptest::prelude::*;

/// One store under test plus its oracle: every mutated id, in order.
struct Tracked {
    store: MispStore,
    log: Vec<u64>,
}

impl Tracked {
    fn new() -> Self {
        Tracked {
            store: MispStore::new(),
            log: Vec::new(),
        }
    }

    /// The id of an existing event, or `None` on an empty store.
    fn pick(&self, pick: usize) -> Option<u64> {
        let len = self.store.len() as u64;
        (len > 0).then(|| pick as u64 % len + 1)
    }
}

/// A cursor held by the test: the store it came from and the oracle
/// position it stands for.
struct Held {
    from: usize,
    cursor: ChangeCursor,
    position: usize,
}

fn distinct(ids: &[u64]) -> Vec<u64> {
    let mut ids = ids.to_vec();
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn event(n: usize) -> MispEvent {
    let mut event = MispEvent::new(format!("event {n}"));
    event.add_attribute(MispAttribute::new(
        "domain",
        AttributeCategory::NetworkActivity,
        format!("host{n}.example"),
    ));
    event
}

/// Checks every held cursor against both stores, plus the `None`
/// cursor and the generations.
fn check(stores: &[Tracked; 2], held: &[Held], step: usize) {
    for (s, tracked) in stores.iter().enumerate() {
        let generation = tracked.store.generation();
        assert_eq!(generation, tracked.log.len() as u64, "step {step}");
        assert_eq!(generation, tracked.store.snapshot().generation());

        let every = distinct(&tracked.log);
        let fresh = tracked.store.changes(None);
        assert!(fresh.reset, "a None cursor resets (step {step})");
        assert_eq!(fresh.ids, every, "step {step}");

        for h in held {
            let batch = tracked.store.changes(Some(h.cursor));
            if h.from == s {
                assert!(!batch.reset, "own cursor never resets (step {step})");
                assert_eq!(
                    batch.ids,
                    distinct(&tracked.log[h.position..]),
                    "step {step}"
                );
            } else {
                assert!(batch.reset, "foreign cursor resets (step {step})");
                assert_eq!(batch.ids, every, "step {step}");
            }
            let next = tracked.store.changes(Some(batch.cursor));
            assert!(!next.reset && next.ids.is_empty(), "step {step}");
        }
    }
}

proptest! {
    #[test]
    fn changes_report_exactly_the_oracle_suffix(
        ops in prop::collection::vec((0u8..7, 0usize..2, 0usize..16), 1..40),
    ) {
        let mut stores = [Tracked::new(), Tracked::new()];
        let mut held: Vec<Held> = Vec::new();
        for (step, (kind, s, pick)) in ops.into_iter().enumerate() {
            let tracked = &mut stores[s];
            match (kind, tracked.pick(pick)) {
                (0, _) | (1..=4, None) => {
                    let id = tracked.store.insert(event(step)).unwrap();
                    tracked.log.push(id);
                }
                (1, Some(id)) => {
                    tracked.store.update(id, |e| e.info.push('!')).unwrap();
                    tracked.log.push(id);
                }
                (2, Some(id)) => {
                    tracked.store.publish(id).unwrap();
                    tracked.log.push(id);
                }
                // A re-delivered copy contributes nothing: no log entry.
                (3, Some(id)) => {
                    let copy = tracked.store.get(id).unwrap();
                    let outcome = tracked.store.merge_by_uuid(copy, None).unwrap();
                    assert_eq!(outcome, MergeOutcome::Unchanged(id));
                }
                // A copy carrying a new attribute merges: one entry.
                (4, Some(id)) => {
                    let mut copy = tracked.store.get(id).unwrap();
                    copy.add_attribute(MispAttribute::new(
                        "domain",
                        AttributeCategory::NetworkActivity,
                        format!("merged{step}.example"),
                    ));
                    let outcome = tracked.store.merge_by_uuid(copy, None).unwrap();
                    assert_eq!(outcome, MergeOutcome::Merged(id));
                    tracked.log.push(id);
                }
                // A view takes a cursor from scratch.
                (5, _) => {
                    let batch = tracked.store.changes(None);
                    held.push(Held {
                        from: s,
                        cursor: batch.cursor,
                        position: tracked.log.len(),
                    });
                }
                // A view follows its cursor one batch further.
                _ => {
                    let at = pick % held.len().max(1);
                    if let Some(h) = held.get_mut(at) {
                        let own = &stores[h.from];
                        h.cursor = own.store.changes(Some(h.cursor)).cursor;
                        h.position = own.log.len();
                    }
                }
            }
            check(&stores, &held, step);
        }
    }
}
