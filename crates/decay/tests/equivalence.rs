//! Property test for the decay engine's central contract: for **any**
//! interleaving of sightings, store churn, expiry sweeps, inserts,
//! clock advances and moves to another store, the incremental rescore
//! (change-feed-driven base reuse) must agree exactly with the
//! from-scratch oracle that re-derives every base from the event's
//! tags. And after any such interleaving, plus decay-state tags added
//! or stripped behind the engine's back, a sweep leaves each event
//! tagged `cais:decay-state="expired"` exactly when its from-scratch
//! score is expired — what the engine's cached expiry bit must not
//! get wrong.

use std::sync::Arc;

use cais_common::resilience::{Clock, VirtualClock};
use cais_common::time::MILLIS_PER_DAY;
use cais_common::Timestamp;
use cais_decay::{BaseScorer, DecayEngine, DecayModel, DECAY_STATE_PREDICATE, DECAY_TAG_NAMESPACE};
use cais_misp::{MispEvent, MispStore, Tag};
use proptest::prelude::*;

/// One tagged, published event; tag values derive from the index so
/// the population spans distinct base scores.
fn seeded_event(i: usize, date: Timestamp) -> MispEvent {
    let mut event = MispEvent::new(format!("indicator {i}"));
    event.date = date;
    let value = ((i % 5) + 1).to_string();
    event.add_tag(Tag::machine("cais-conf", "reliability", &value));
    event.add_tag(Tag::machine("cais-conf", "freshness", "3"));
    if !i.is_multiple_of(3) {
        event.add_tag(Tag::machine("cais-conf", "corroboration", "4"));
    }
    event
}

fn marked_expired(event: &MispEvent) -> bool {
    event.tags.iter().any(|tag| {
        tag.namespace() == Some(DECAY_TAG_NAMESPACE)
            && tag.predicate() == Some(DECAY_STATE_PREDICATE)
            && tag.value() == Some("expired")
    })
}

proptest! {
    #[test]
    fn incremental_rescore_matches_the_from_scratch_oracle(
        initial in 2usize..8,
        ops in prop::collection::vec((0u8..6, 0usize..32, 1i64..9), 1..24),
    ) {
        let clock = VirtualClock::starting_at(Timestamp::from_unix_millis(
            40 * MILLIS_PER_DAY,
        ));
        let engine = DecayEngine::new(
            DecayModel::new(20.0, 1.0).with_threshold(1.0),
            BaseScorer::cais_default(),
            Arc::new(clock.clone()),
        );
        let mut store = MispStore::new();
        let mut count = 0usize;
        for i in 0..initial {
            let id = store.insert(seeded_event(i, clock.now())).unwrap();
            store.publish(id).unwrap();
            count += 1;
        }

        for (kind, idx, days) in ops {
            let id = (idx % count) as u64 + 1;
            match kind {
                // Churn: a content edit that bumps the version.
                0 => store.update(id, |event| event.info.push('!')).unwrap(),
                // Sighting, possibly backdated.
                1 => {
                    let uuid = store.get(id).unwrap().uuid;
                    engine.record_sighting(uuid, clock.now().add_days(-days));
                }
                // Time passes.
                2 => clock.advance_days(days),
                // Expiry sweep: flips write back into the store.
                3 => {
                    engine.sweep(&store).unwrap();
                }
                // The engine moves to another store whose generation
                // is at least the current one's, so only the store's
                // identity tells the two change logs apart.
                4 => {
                    let other = MispStore::new();
                    count = idx % 6 + 1;
                    for i in 0..count {
                        let id = other.insert(seeded_event(i + 100, clock.now())).unwrap();
                        other.publish(id).unwrap();
                    }
                    while other.generation() < store.generation() {
                        other.update(1, |event| event.info.push('!')).unwrap();
                    }
                    store = other;
                }
                // A new indicator arrives mid-stream.
                _ => {
                    let id = store.insert(seeded_event(count, clock.now())).unwrap();
                    store.publish(id).unwrap();
                    count += 1;
                }
            }

            let (incremental, summary) = engine.rescore(&store);
            let scratch = engine.score_from_scratch(&store);
            prop_assert_eq!(&incremental, &scratch);
            prop_assert_eq!(summary.scored, count);
            prop_assert_eq!(summary.rebased + summary.reused, summary.scored);
        }
    }

    #[test]
    fn sweeps_tag_exactly_the_expired_events(
        initial in 2usize..8,
        ops in prop::collection::vec((0u8..7, 0usize..32, 1i64..12), 1..24),
    ) {
        let clock = VirtualClock::starting_at(Timestamp::from_unix_millis(
            40 * MILLIS_PER_DAY,
        ));
        let engine = DecayEngine::new(
            DecayModel::new(20.0, 1.0).with_threshold(1.0),
            BaseScorer::cais_default(),
            Arc::new(clock.clone()),
        );
        let mut store = MispStore::new();
        let mut count = 0usize;
        for i in 0..initial {
            let id = store.insert(seeded_event(i, clock.now())).unwrap();
            store.publish(id).unwrap();
            count += 1;
        }

        for (kind, idx, days) in ops {
            let id = (idx % count) as u64 + 1;
            match kind {
                0 => store.update(id, |event| event.info.push('!')).unwrap(),
                1 => {
                    let uuid = store.get(id).unwrap().uuid;
                    engine.record_sighting(uuid, clock.now().add_days(-days));
                }
                2 => clock.advance_days(days),
                // A second sweep in a row, which must write nothing.
                3 => {
                    let idle = engine.sweep(&store).unwrap();
                    prop_assert_eq!(idle.flipped_expired + idle.flipped_active, 0);
                }
                // Someone else adds or strips the expired tag: the
                // next sweep must see it, not a stale cached bit.
                4 => store
                    .update(id, |event| {
                        if marked_expired(event) {
                            event.tags.retain(|tag| {
                                tag.predicate() != Some(DECAY_STATE_PREDICATE)
                            });
                        } else {
                            event.add_tag(Tag::machine(
                                DECAY_TAG_NAMESPACE,
                                DECAY_STATE_PREDICATE,
                                "expired",
                            ));
                        }
                    })
                    .unwrap(),
                5 => {
                    let other = MispStore::new();
                    count = idx % 6 + 1;
                    for i in 0..count {
                        let id = other.insert(seeded_event(i + 100, clock.now())).unwrap();
                        other.publish(id).unwrap();
                    }
                    while other.generation() < store.generation() {
                        other.update(1, |event| event.info.push('!')).unwrap();
                    }
                    store = other;
                }
                _ => {
                    let id = store.insert(seeded_event(count, clock.now())).unwrap();
                    store.publish(id).unwrap();
                    count += 1;
                }
            }

            engine.sweep(&store).unwrap();
            let scratch = engine.score_from_scratch(&store);
            prop_assert_eq!(scratch.len(), count);
            for scored in scratch {
                let event = store.get(scored.event_id).unwrap();
                prop_assert_eq!(
                    marked_expired(&event),
                    scored.expired,
                    "event {} scored {} after {:?}",
                    scored.event_id,
                    scored.score,
                    (kind, idx, days)
                );
                prop_assert_eq!(event.published, !scored.expired);
            }
        }
    }
}
