//! The in-process publish/subscribe broker.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cais_common::Timestamp;
use cais_telemetry::{labeled, Counter, Gauge, Registry, TraceContext, Tracer};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::RwLock;

use crate::message::Message;
use crate::topic::{Topic, TopicPattern};

struct Subscriber {
    id: u64,
    pattern: TopicPattern,
    sender: Sender<Message>,
}

/// Cached telemetry handles for an instrumented broker.
///
/// Counters count *messages*, not publish calls, so one `publish` per
/// message and one `publish_batch` per round produce identical totals
/// for the same traffic — observed or not.
struct BrokerMetrics {
    registry: Registry,
    published_total: Counter,
    delivered_total: Counter,
    evicted_total: Counter,
    subscribers: Gauge,
    per_topic: RwLock<HashMap<String, Counter>>,
}

impl BrokerMetrics {
    fn new(registry: &Registry) -> Self {
        BrokerMetrics {
            registry: registry.clone(),
            published_total: registry.counter("bus_published_total"),
            delivered_total: registry.counter("bus_delivered_total"),
            evicted_total: registry.counter("bus_subscribers_evicted_total"),
            subscribers: registry.gauge("bus_subscribers"),
            per_topic: RwLock::new(HashMap::new()),
        }
    }

    /// The per-topic published counter, cached so the hot path skips
    /// the label-string formatting after first use.
    fn topic_counter(&self, topic: &str) -> Counter {
        if let Some(c) = self.per_topic.read().get(topic) {
            return c.clone();
        }
        let counter = self
            .registry
            .counter(&labeled("bus_published_total", &[("topic", topic)]));
        self.per_topic
            .write()
            .entry(topic.to_owned())
            .or_insert(counter)
            .clone()
    }

    fn on_publish(&self, topic: &str, messages: u64, delivered: u64, evicted: u64) {
        self.published_total.add(messages);
        self.topic_counter(topic).add(messages);
        self.delivered_total.add(delivered);
        if evicted > 0 {
            self.evicted_total.add(evicted);
        }
    }
}

struct Inner {
    subscribers: RwLock<Vec<Subscriber>>,
    next_seq: AtomicU64,
    next_subscriber_id: AtomicU64,
    metrics: RwLock<Option<Arc<BrokerMetrics>>>,
    tracer: RwLock<Option<Tracer>>,
}

/// A cheaply clonable handle to an in-process message bus.
///
/// Publishing never blocks: messages are fanned out over unbounded
/// channels to every subscription whose pattern matches. Dropped
/// subscriptions are pruned lazily on the next publish.
///
/// # Examples
///
/// ```
/// use cais_bus::{Broker, Topic};
///
/// let broker = Broker::new();
/// let all = broker.subscribe("#");
/// broker.publish(Topic::new("a.b"), serde_json::json!(1));
/// assert_eq!(all.try_recv().unwrap().payload, serde_json::json!(1));
/// ```
#[derive(Clone)]
pub struct Broker {
    inner: Arc<Inner>,
}

impl Broker {
    /// Creates a new broker with no subscribers.
    pub fn new() -> Self {
        Broker {
            inner: Arc::new(Inner {
                subscribers: RwLock::new(Vec::new()),
                next_seq: AtomicU64::new(0),
                next_subscriber_id: AtomicU64::new(0),
                metrics: RwLock::new(None),
                tracer: RwLock::new(None),
            }),
        }
    }

    /// Attaches telemetry: subsequent publishes record
    /// `bus_published_total` (plus a per-topic labeled series),
    /// `bus_delivered_total` and `bus_subscribers_evicted_total` into
    /// the registry. Counters count messages, not publish calls, so
    /// batched and per-message publishing report identically.
    pub fn instrument(&self, registry: &Registry) {
        *self.inner.metrics.write() = Some(Arc::new(BrokerMetrics::new(registry)));
    }

    fn metrics(&self) -> Option<Arc<BrokerMetrics>> {
        self.inner.metrics.read().clone()
    }

    /// Attaches causal tracing: subsequent publishes record
    /// `bus_publish`/`bus_deliver` spans into the `bus` ring and stamp
    /// the outgoing [`Message::trace`] envelope field, so subscribers
    /// continue the publisher's trace.
    pub fn set_tracer(&self, tracer: &Tracer) {
        *self.inner.tracer.write() = Some(tracer.clone());
    }

    fn tracer(&self) -> Option<Tracer> {
        self.inner.tracer.read().clone()
    }

    /// Samples the current per-pattern queue depths and live
    /// subscription count into the attached registry
    /// (`bus_queue_depth{pattern=...}` and `bus_subscribers` gauges).
    /// Call it at natural checkpoints — e.g. once per ingestion round;
    /// a no-op until [`Broker::instrument`] is called.
    pub fn sample_queue_depths(&self) {
        let Some(metrics) = self.metrics() else {
            return;
        };
        let mut depths: HashMap<String, i64> = HashMap::new();
        let mut live = 0i64;
        {
            let subscribers = self.inner.subscribers.read();
            for sub in subscribers.iter() {
                live += 1;
                *depths.entry(sub.pattern.as_str().to_owned()).or_insert(0) +=
                    sub.sender.len() as i64;
            }
        }
        metrics.subscribers.set(live);
        for (pattern, depth) in depths {
            metrics
                .registry
                .gauge(&labeled("bus_queue_depth", &[("pattern", &pattern)]))
                .set(depth);
        }
    }

    /// Subscribes to every topic matching the pattern.
    pub fn subscribe(&self, pattern: impl Into<TopicPattern>) -> Subscription {
        let (sender, receiver) = channel::unbounded();
        let id = self
            .inner
            .next_subscriber_id
            .fetch_add(1, Ordering::Relaxed);
        let pattern = pattern.into();
        self.inner.subscribers.write().push(Subscriber {
            id,
            pattern: pattern.clone(),
            sender,
        });
        Subscription {
            id,
            pattern,
            receiver,
            broker: Arc::downgrade(&self.inner),
        }
    }

    /// Publishes a JSON payload under a topic, returning the number of
    /// subscriptions it was delivered to.
    pub fn publish(&self, topic: Topic, payload: serde_json::Value) -> usize {
        self.publish_traced(topic, payload, None)
    }

    /// [`Broker::publish`] continuing the caller's trace: the publish
    /// span becomes a child of `parent` (or a fresh root when `None` /
    /// untraced), and the outgoing message envelope carries the span's
    /// context to every subscriber.
    pub fn publish_traced(
        &self,
        topic: Topic,
        payload: serde_json::Value,
        parent: Option<TraceContext>,
    ) -> usize {
        let mut payload = Some(payload);
        self.publish_with(topic, 1, |_| payload.take(), parent)
    }

    /// Publishes a batch of JSON payloads under one topic — see
    /// [`Broker::publish_with`]. Messages keep their relative order and
    /// receive consecutive sequence numbers. Returns the total number
    /// of deliveries.
    pub fn publish_batch(
        &self,
        topic: Topic,
        payloads: impl IntoIterator<Item = serde_json::Value>,
    ) -> usize {
        self.publish_batch_traced(topic, payloads, None)
    }

    /// [`Broker::publish_batch`] continuing the caller's trace.
    pub fn publish_batch_traced(
        &self,
        topic: Topic,
        payloads: impl IntoIterator<Item = serde_json::Value>,
        parent: Option<TraceContext>,
    ) -> usize {
        let mut payloads: Vec<Option<serde_json::Value>> = payloads.into_iter().map(Some).collect();
        self.publish_with(topic, payloads.len(), |i| payloads[i].take(), parent)
    }

    /// The one publish body: `count` messages under one topic, where
    /// `payload(i)` builds the i-th payload. The closure runs only when
    /// a live subscription matches the topic, once per message, in
    /// order; a message nobody observes is never built. Either way
    /// every message takes a sequence number (consecutive within the
    /// call) and counts in `bus_published_total` and its per-topic
    /// series. A `None` payload (encoding failed) is delivered to no
    /// one.
    ///
    /// The subscriber lock is taken once per call, and released before
    /// any payload is built. One `bus_publish` span covers the call
    /// (spans are ring events, not counters, so batching does not
    /// distort the message-level counter contract). Returns the total
    /// number of deliveries.
    pub fn publish_with(
        &self,
        topic: Topic,
        count: usize,
        mut payload: impl FnMut(usize) -> Option<serde_json::Value>,
        parent: Option<TraceContext>,
    ) -> usize {
        if count == 0 {
            return 0;
        }
        let tracer = self.tracer();
        let mut publish_span = tracer
            .as_ref()
            .map(|t| t.child_of(parent, "bus", "bus_publish"));
        let trace = publish_span
            .as_ref()
            .filter(|s| s.sampled())
            .map(|s| s.context());
        let first_seq = self
            .inner
            .next_seq
            .fetch_add(count as u64, Ordering::Relaxed);
        let mut targets: Vec<(u64, Sender<Message>)> = self
            .inner
            .subscribers
            .read()
            .iter()
            .filter(|sub| sub.pattern.matches(&topic))
            .map(|sub| (sub.id, sub.sender.clone()))
            .collect();
        let mut delivered = 0;
        let mut dead: Vec<u64> = Vec::new();
        {
            let _deliver_span = match (&tracer, trace) {
                (Some(t), Some(ctx)) => Some(t.child(ctx, "bus", "bus_deliver")),
                _ => None,
            };
            let published_at = Timestamp::now();
            for i in 0..count {
                if targets.is_empty() {
                    break;
                }
                let Some(payload) = payload(i) else {
                    continue;
                };
                let mut message = Some(Message {
                    seq: first_seq + i as u64,
                    topic: topic.clone(),
                    published_at,
                    payload,
                    trace,
                });
                // The last target takes the message by move: a single
                // subscriber costs no payload copy.
                let mut k = 0;
                while k < targets.len() {
                    let copy = if k + 1 == targets.len() {
                        message.take()
                    } else {
                        message.clone()
                    };
                    if targets[k]
                        .1
                        .send(copy.expect("message kept for the last target"))
                        .is_ok()
                    {
                        delivered += 1;
                        k += 1;
                    } else {
                        dead.push(targets.remove(k).0);
                    }
                }
            }
        }
        if !dead.is_empty() {
            self.inner
                .subscribers
                .write()
                .retain(|s| !dead.contains(&s.id));
        }
        if let Some(metrics) = self.metrics() {
            metrics.on_publish(
                topic.as_str(),
                count as u64,
                delivered as u64,
                dead.len() as u64,
            );
        }
        if let Some(span) = publish_span.as_mut() {
            span.field("topic", topic.as_str());
            span.field("messages", count);
            span.field("delivered", delivered);
        }
        delivered
    }

    /// Publishes a batch of serializable values via
    /// [`Broker::publish_batch`], encoding each to JSON first.
    ///
    /// # Errors
    ///
    /// Returns the first encoding error; nothing is published unless
    /// every value encodes.
    pub fn publish_values<T: serde::Serialize>(
        &self,
        topic: impl Into<Topic>,
        values: &[T],
    ) -> Result<usize, serde_json::Error> {
        let payloads: Vec<serde_json::Value> = values
            .iter()
            .map(serde_json::to_value)
            .collect::<Result<_, _>>()?;
        Ok(self.publish_batch(topic.into(), payloads))
    }

    /// Publishes a serializable value, encoding it to JSON first.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error when encoding fails.
    pub fn publish_value<T: serde::Serialize>(
        &self,
        topic: impl Into<Topic>,
        value: &T,
    ) -> Result<usize, serde_json::Error> {
        Ok(self.publish(topic.into(), serde_json::to_value(value)?))
    }

    /// Number of live subscriptions.
    pub fn subscriber_count(&self) -> usize {
        self.inner.subscribers.read().len()
    }
}

impl Default for Broker {
    fn default() -> Self {
        Broker::new()
    }
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("subscribers", &self.subscriber_count())
            .finish()
    }
}

/// A handle to a subscription: an unbounded queue of matching messages.
///
/// Dropping the subscription unsubscribes (lazily).
pub struct Subscription {
    id: u64,
    pattern: TopicPattern,
    receiver: Receiver<Message>,
    broker: std::sync::Weak<Inner>,
}

impl Subscription {
    /// The pattern this subscription was created with.
    pub fn pattern(&self) -> &TopicPattern {
        &self.pattern
    }

    /// Receives the next message without blocking.
    pub fn try_recv(&self) -> Option<Message> {
        match self.receiver.try_recv() {
            Ok(msg) => Some(msg),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Blocks until a message arrives or the timeout elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        match self.receiver.recv_timeout(timeout) {
            Ok(msg) => Some(msg),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Drains every message currently queued.
    pub fn drain(&self) -> Vec<Message> {
        let mut out = Vec::new();
        while let Some(msg) = self.try_recv() {
            out.push(msg);
        }
        out
    }

    /// Number of messages currently queued.
    pub fn queued(&self) -> usize {
        self.receiver.len()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        if let Some(inner) = self.broker.upgrade() {
            inner.subscribers.write().retain(|s| s.id != self.id);
        }
    }
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("pattern", &self.pattern.as_str())
            .field("queued", &self.queued())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_to_matching_subscribers() {
        let broker = Broker::new();
        let events = broker.subscribe("misp.event.*");
        let everything = broker.subscribe("#");
        let alarms = broker.subscribe("infra.alarm.raised");

        let delivered = broker.publish(Topic::new("misp.event.created"), serde_json::json!(1));
        assert_eq!(delivered, 2);
        assert_eq!(events.queued(), 1);
        assert_eq!(everything.queued(), 1);
        assert_eq!(alarms.queued(), 0);
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let broker = Broker::new();
        let sub = broker.subscribe("#");
        for _ in 0..5 {
            broker.publish(Topic::new("t"), serde_json::Value::Null);
        }
        let seqs: Vec<u64> = sub.drain().into_iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dropped_subscription_is_pruned() {
        let broker = Broker::new();
        let sub = broker.subscribe("#");
        assert_eq!(broker.subscriber_count(), 1);
        drop(sub);
        assert_eq!(broker.subscriber_count(), 0);
        assert_eq!(broker.publish(Topic::new("t"), serde_json::Value::Null), 0);
    }

    #[test]
    fn publish_value_encodes() {
        #[derive(serde::Serialize)]
        struct Payload {
            x: u32,
        }
        let broker = Broker::new();
        let sub = broker.subscribe("typed");
        broker.publish_value("typed", &Payload { x: 9 }).unwrap();
        assert_eq!(sub.try_recv().unwrap().payload["x"], 9);
    }

    #[test]
    fn cross_thread_delivery() {
        let broker = Broker::new();
        let sub = broker.subscribe("work.#");
        let publisher = broker.clone();
        let handle = std::thread::spawn(move || {
            for i in 0..100 {
                publisher.publish(Topic::new(format!("work.item.{i}")), serde_json::json!(i));
            }
        });
        handle.join().unwrap();
        let got = sub.drain();
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn batch_publish_keeps_order_and_sequences() {
        let broker = Broker::new();
        let sub = broker.subscribe("bulk");
        let other = broker.subscribe("elsewhere");
        let delivered =
            broker.publish_batch(Topic::new("bulk"), (0..5).map(|i| serde_json::json!(i)));
        assert_eq!(delivered, 5);
        assert_eq!(other.queued(), 0);
        let got = sub.drain();
        let payloads: Vec<i64> = got.iter().map(|m| m.payload.as_i64().unwrap()).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3, 4]);
        let seqs: Vec<u64> = got.iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let broker = Broker::new();
        let sub = broker.subscribe("#");
        assert_eq!(broker.publish_batch(Topic::new("t"), Vec::new()), 0);
        assert_eq!(sub.queued(), 0);
    }

    #[test]
    fn unobserved_payloads_are_never_built_but_still_counted() {
        let registry = Registry::new();
        let broker = Broker::new();
        broker.instrument(&registry);
        let sub = broker.subscribe("seen");
        let mut built = Vec::new();
        let delivered = broker.publish_with(
            Topic::new("unseen"),
            3,
            |i| {
                built.push(i);
                Some(serde_json::json!(i))
            },
            None,
        );
        assert_eq!(delivered, 0);
        assert!(built.is_empty(), "no subscriber, no payload");
        let delivered = broker.publish_with(
            Topic::new("seen"),
            2,
            |i| {
                built.push(i);
                (i == 1).then(|| serde_json::json!(i))
            },
            None,
        );
        assert_eq!(delivered, 1, "a `None` payload is delivered to no one");
        assert_eq!(built, vec![0, 1], "built once per message, in order");
        // The unobserved messages took sequence numbers 0..3.
        let got = sub.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 4);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters["bus_published_total"], 5);
        assert_eq!(
            snapshot.counters[&labeled("bus_published_total", &[("topic", "unseen")])],
            3
        );
        assert_eq!(snapshot.counters["bus_delivered_total"], 1);
    }

    #[test]
    fn publish_values_encodes_each() {
        #[derive(serde::Serialize)]
        struct Payload {
            x: u32,
        }
        let broker = Broker::new();
        let sub = broker.subscribe("typed");
        let delivered = broker
            .publish_values("typed", &[Payload { x: 1 }, Payload { x: 2 }])
            .unwrap();
        assert_eq!(delivered, 2);
        let got = sub.drain();
        assert_eq!(got[1].payload["x"], 2);
    }

    #[test]
    fn instrumented_broker_counts_messages_not_calls() {
        let registry = Registry::new();
        let broker = Broker::new();
        broker.instrument(&registry);
        let sub = broker.subscribe("bulk");
        // One batched publish of 3 and three singles: 6 messages total.
        broker.publish_batch(Topic::new("bulk"), (0..3).map(|i| serde_json::json!(i)));
        for i in 0..3 {
            broker.publish(Topic::new("bulk"), serde_json::json!(i));
        }
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters["bus_published_total"], 6);
        assert_eq!(
            snapshot.counters[&labeled("bus_published_total", &[("topic", "bulk")])],
            6
        );
        assert_eq!(snapshot.counters["bus_delivered_total"], 6);
        broker.sample_queue_depths();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauges["bus_subscribers"], 1);
        assert_eq!(
            snapshot.gauges[&labeled("bus_queue_depth", &[("pattern", "bulk")])],
            6
        );
        sub.drain();
        broker.sample_queue_depths();
        assert_eq!(
            registry.snapshot().gauges[&labeled("bus_queue_depth", &[("pattern", "bulk")])],
            0
        );
    }

    #[test]
    fn instrumented_broker_counts_evictions() {
        let registry = Registry::new();
        let broker = Broker::new();
        broker.instrument(&registry);
        let mut sub = broker.subscribe("t");
        // Kill the receiving half without unsubscribing: swap in a dummy
        // receiver, drop the real one, then leak the Subscription so its
        // eager Drop-prune never runs. The next publish finds the dead
        // sender and evicts it.
        let (_dummy_tx, dummy_rx) = channel::unbounded::<Message>();
        let real_rx = std::mem::replace(&mut sub.receiver, dummy_rx);
        drop(real_rx);
        std::mem::forget(sub);
        assert_eq!(broker.subscriber_count(), 1);
        broker.publish(Topic::new("t"), serde_json::json!(1));
        assert_eq!(broker.subscriber_count(), 0);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters["bus_subscribers_evicted_total"], 1);
        assert_eq!(snapshot.counters["bus_delivered_total"], 0);
    }

    #[test]
    fn recv_timeout_expires() {
        let broker = Broker::new();
        let sub = broker.subscribe("#");
        assert!(sub.recv_timeout(Duration::from_millis(10)).is_none());
        broker.publish(Topic::new("t"), serde_json::Value::Null);
        assert!(sub.recv_timeout(Duration::from_millis(10)).is_some());
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;

    #[test]
    fn plain_subscribe_gets_no_history() {
        let broker = Broker::new();
        broker.publish(Topic::new("t"), serde_json::json!(1));
        let sub = broker.subscribe("#");
        assert_eq!(sub.queued(), 0);
    }

    #[test]
    fn traced_publish_stamps_envelope_and_records_spans() {
        let broker = Broker::new();
        let tracer = Tracer::new();
        broker.set_tracer(&tracer);
        let sub = broker.subscribe("#");

        let parent = tracer.root("ingress", "feed_poll");
        let parent_ctx = parent.context();
        broker.publish_traced(Topic::new("t"), serde_json::json!(1), Some(parent_ctx));
        drop(parent);

        let message = sub.try_recv().expect("delivered");
        let envelope = message.trace.expect("traced publish stamps the envelope");
        assert_eq!(envelope.trace_id, parent_ctx.trace_id);
        assert!(envelope.sampled);

        let spans = tracer.snapshot_subsystem("bus");
        let publish = spans.iter().find(|s| s.name == "bus_publish").unwrap();
        let deliver = spans.iter().find(|s| s.name == "bus_deliver").unwrap();
        assert_eq!(publish.parent_id, parent_ctx.span_id);
        assert_eq!(publish.trace_id, parent_ctx.trace_id);
        assert_eq!(deliver.parent_id, publish.span_id);
        assert_eq!(envelope.span_id, publish.span_id);
    }

    #[test]
    fn untraced_publish_carries_no_envelope_context() {
        let broker = Broker::new();
        let sub = broker.subscribe("#");
        broker.publish(Topic::new("t"), serde_json::json!(1));
        assert_eq!(sub.try_recv().expect("delivered").trace, None);
        // With a tracer but no parent, the publish roots its own trace.
        let tracer = Tracer::new();
        broker.set_tracer(&tracer);
        broker.publish_batch(
            Topic::new("t"),
            vec![serde_json::json!(1), serde_json::json!(2)],
        );
        let first = sub.try_recv().expect("first").trace.expect("traced");
        let second = sub.try_recv().expect("second").trace.expect("traced");
        assert_eq!(first, second, "one batch = one publish span");
        let spans = tracer.snapshot_subsystem("bus");
        assert_eq!(
            spans
                .iter()
                .find(|s| s.name == "bus_publish")
                .unwrap()
                .parent_id,
            0,
            "no parent means a root span"
        );
    }
}
