//! The update-event log.
//!
//! Forward chaining "will be executed whenever the data that is read by the
//! rule is updated … e.g. by associating, dissociating, inserting objects"
//! (paper §6). The store appends one event per primitive mutation; the rule
//! engine consumes the log through per-consumer watermarks.
//!
//! Consumers can additionally *register* as subscribers: a subscriber is a
//! named watermark the log tracks on the consumer's behalf, enabling lag
//! accounting (`doodprof --metrics`) and safe compaction — [`EventLog::
//! compact`] drops only events every subscriber has acknowledged, and the
//! drop count is retained (and exported through the `store.events.dropped`
//! metric) so sequence numbers stay stable across compactions.

use dood_core::ids::{AssocId, ClassId, Oid};
use dood_core::obs;
use dood_core::value::Value;

/// One primitive mutation of the extensional database.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum UpdateEvent {
    /// An object was created in a class.
    ObjectCreated { class: ClassId, oid: Oid },
    /// An object was deleted from a class.
    ObjectDeleted { class: ClassId, oid: Oid },
    /// Two objects were associated under an association.
    Associated { assoc: AssocId, from: Oid, to: Oid },
    /// Two objects were dissociated.
    Dissociated { assoc: AssocId, from: Oid, to: Oid },
    /// An attribute value changed.
    AttrSet { class: ClassId, oid: Oid, attr: AssocId, old: Value, new: Value },
}

impl UpdateEvent {
    /// The classes whose extension this event touches (for dependency
    /// analysis: a rule reading any of these classes may be affected): one
    /// or two, held inline.
    pub fn touched_classes(
        &self,
        schema: &dood_core::schema::Schema,
    ) -> impl Iterator<Item = ClassId> {
        let (a, b) = match self {
            UpdateEvent::ObjectCreated { class, .. }
            | UpdateEvent::ObjectDeleted { class, .. }
            | UpdateEvent::AttrSet { class, .. } => (*class, None),
            UpdateEvent::Associated { assoc, .. } | UpdateEvent::Dissociated { assoc, .. } => {
                let d = schema.assoc(*assoc);
                (d.from, Some(d.to))
            }
        };
        std::iter::once(a).chain(b)
    }

    /// The object identities this event touches — the seed of the dirty
    /// set for semi-naive incremental maintenance: one or two, held inline.
    /// Deleted oids are included on purpose: cached patterns referencing
    /// them must be invalidated even though the oid can no longer bind a
    /// slot.
    pub fn touched_oids(&self) -> impl Iterator<Item = Oid> {
        let (a, b) = match self {
            UpdateEvent::ObjectCreated { oid, .. }
            | UpdateEvent::ObjectDeleted { oid, .. }
            | UpdateEvent::AttrSet { oid, .. } => (*oid, None),
            UpdateEvent::Associated { from, to, .. }
            | UpdateEvent::Dissociated { from, to, .. } => (*from, Some(*to)),
        };
        std::iter::once(a).chain(b)
    }

    /// A stable lowercase tag naming the event kind (metric labels).
    pub fn kind(&self) -> &'static str {
        match self {
            UpdateEvent::ObjectCreated { .. } => "object_created",
            UpdateEvent::ObjectDeleted { .. } => "object_deleted",
            UpdateEvent::Associated { .. } => "associated",
            UpdateEvent::Dissociated { .. } => "dissociated",
            UpdateEvent::AttrSet { .. } => "attr_set",
        }
    }
}

/// A handle to a registered log subscriber (an index into the log's
/// subscriber table; valid for the lifetime of the log).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriberId(usize);

/// One registered consumer: a name plus the watermark it has acknowledged.
#[derive(Debug, Clone)]
struct Subscriber {
    name: String,
    acked: u64,
}

/// An append-only event log with monotone sequence numbers, subscriber
/// watermarks, and acked-prefix compaction.
#[derive(Debug, Default, Clone)]
pub struct EventLog {
    events: Vec<UpdateEvent>,
    /// Events dropped from the front by [`EventLog::compact`]; sequence
    /// numbers keep counting from the original origin.
    base: u64,
    subscribers: Vec<Subscriber>,
}

impl EventLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event, returning its sequence number (1-based; the
    /// sequence number equals the total event count after the append, so
    /// `seq()` is the watermark of the latest event).
    pub fn push(&mut self, e: UpdateEvent) -> u64 {
        if obs::metrics_enabled() {
            obs::metrics::counter("store.events.emitted").inc();
            obs::metrics::counter(&format!("store.events.emitted.{}", e.kind())).inc();
        }
        self.events.push(e);
        self.seq()
    }

    /// The current watermark (sequence number of the newest event; 0 when
    /// no event was ever logged).
    pub fn seq(&self) -> u64 {
        self.base + self.events.len() as u64
    }

    /// Events strictly after watermark `since` (i.e. with sequence numbers
    /// `since+1 ..= seq()`). Events already compacted away cannot be
    /// returned; compaction only drops acknowledged prefixes, so a
    /// subscriber that asks from its acked watermark never misses one.
    pub fn since(&self, since: u64) -> &[UpdateEvent] {
        let start = (since.saturating_sub(self.base) as usize).min(self.events.len());
        &self.events[start..]
    }

    /// Total number of events ever logged (compacted ones included).
    pub fn len(&self) -> usize {
        self.seq() as usize
    }

    /// Whether no event was ever logged.
    pub fn is_empty(&self) -> bool {
        self.seq() == 0
    }

    /// Number of events currently held in memory.
    pub fn retained(&self) -> usize {
        self.events.len()
    }

    /// Number of events dropped by compaction so far.
    pub fn dropped(&self) -> u64 {
        self.base
    }

    // ------------------------------------------------------------------
    // Subscribers
    // ------------------------------------------------------------------

    /// Register a named subscriber. Its acknowledged watermark starts at
    /// the current `seq()`: a new subscriber owes nothing for the past.
    pub fn subscribe(&mut self, name: impl Into<String>) -> SubscriberId {
        let id = SubscriberId(self.subscribers.len());
        self.subscribers.push(Subscriber { name: name.into(), acked: self.seq() });
        id
    }

    /// Record that a subscriber has consumed every event up to `watermark`.
    /// Watermarks are monotone: acking backwards is a no-op.
    pub fn ack(&mut self, id: SubscriberId, watermark: u64) {
        let s = &mut self.subscribers[id.0];
        s.acked = s.acked.max(watermark.min(self.base + self.events.len() as u64));
    }

    /// How many events a subscriber has not yet acknowledged.
    pub fn lag(&self, id: SubscriberId) -> u64 {
        self.seq() - self.subscribers[id.0].acked
    }

    /// Number of registered subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// Per-subscriber `(name, acked watermark, lag)` rows.
    pub fn subscriber_stats(&self) -> Vec<(String, u64, u64)> {
        self.subscribers
            .iter()
            .map(|s| (s.name.clone(), s.acked, self.seq() - s.acked))
            .collect()
    }

    /// Drop every event all subscribers have acknowledged (with no
    /// subscribers, everything), returning how many were dropped. Sequence
    /// numbers are preserved: the drop count accumulates into
    /// [`EventLog::dropped`] and into the `store.events.dropped` metric.
    pub fn compact(&mut self) -> usize {
        let floor = self
            .subscribers
            .iter()
            .map(|s| s.acked)
            .min()
            .unwrap_or_else(|| self.seq());
        let n = (floor.saturating_sub(self.base) as usize).min(self.events.len());
        if n > 0 {
            self.events.drain(..n);
            self.base += n as u64;
            if obs::metrics_enabled() {
                obs::metrics::counter("store.events.dropped").add(n as u64);
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_since() {
        let mut log = EventLog::new();
        assert_eq!(log.seq(), 0);
        let s1 = log.push(UpdateEvent::ObjectCreated { class: ClassId(0), oid: Oid(1) });
        let s2 = log.push(UpdateEvent::ObjectCreated { class: ClassId(0), oid: Oid(2) });
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(log.since(0).len(), 2);
        assert_eq!(log.since(1).len(), 1);
        assert_eq!(log.since(2).len(), 0);
        assert_eq!(log.since(99).len(), 0);
    }

    #[test]
    fn touched_classes_for_assoc_events() {
        use dood_core::schema::SchemaBuilder;
        let mut b = SchemaBuilder::new();
        b.e_class("A");
        b.e_class("B");
        b.aggregate("A", "B");
        let s = b.build().unwrap();
        let assoc = s.assocs()[0].id;
        let e = UpdateEvent::Associated { assoc, from: Oid(1), to: Oid(2) };
        let d = s.assoc(assoc);
        assert_eq!(e.touched_classes(&s).collect::<Vec<_>>(), vec![d.from, d.to]);
        assert_eq!(e.touched_oids().collect::<Vec<_>>(), vec![Oid(1), Oid(2)]);
        let created = UpdateEvent::ObjectCreated { class: ClassId(0), oid: Oid(3) };
        assert_eq!(created.touched_classes(&s).collect::<Vec<_>>(), vec![ClassId(0)]);
        assert_eq!(created.touched_oids().collect::<Vec<_>>(), vec![Oid(3)]);
    }

    fn ev(n: u64) -> UpdateEvent {
        UpdateEvent::ObjectCreated { class: ClassId(0), oid: Oid(n) }
    }

    #[test]
    fn subscriber_watermarks_and_lag() {
        let mut log = EventLog::new();
        log.push(ev(1));
        let a = log.subscribe("engine");
        assert_eq!(log.lag(a), 0, "new subscriber owes nothing for the past");
        log.push(ev(2));
        log.push(ev(3));
        assert_eq!(log.lag(a), 2);
        log.ack(a, log.seq());
        assert_eq!(log.lag(a), 0);
        // Acking backwards is a no-op.
        log.ack(a, 1);
        assert_eq!(log.lag(a), 0);
        assert_eq!(log.subscriber_count(), 1);
        let stats = log.subscriber_stats();
        assert_eq!(stats, vec![("engine".to_string(), 3, 0)]);
    }

    #[test]
    fn compaction_preserves_sequence_numbers() {
        let mut log = EventLog::new();
        let a = log.subscribe("one");
        let b = log.subscribe("two");
        for n in 1..=5 {
            log.push(ev(n));
        }
        log.ack(a, 3);
        log.ack(b, 5);
        // Floor = min(acked) = 3.
        assert_eq!(log.compact(), 3);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.retained(), 2);
        assert_eq!(log.seq(), 5);
        assert_eq!(log.len(), 5);
        // Watermark reads above the compaction point still work.
        assert_eq!(log.since(3).len(), 2);
        assert_eq!(log.since(4).len(), 1);
        // Reads below the compaction point return only retained events.
        assert_eq!(log.since(0).len(), 2);
        // Compacting again with nothing newly acked drops nothing.
        assert_eq!(log.compact(), 0);
        log.ack(a, 5);
        assert_eq!(log.compact(), 2);
        assert_eq!(log.seq(), 5);
        assert!(!log.is_empty());
        assert_eq!(log.retained(), 0);
    }

    #[test]
    fn compact_without_subscribers_drops_everything() {
        let mut log = EventLog::new();
        for n in 1..=4 {
            log.push(ev(n));
        }
        assert_eq!(log.compact(), 4);
        assert_eq!(log.seq(), 4);
        assert_eq!(log.retained(), 0);
        // New events keep numbering from the origin.
        assert_eq!(log.push(ev(9)), 5);
    }

    #[test]
    fn event_kind_tags() {
        assert_eq!(ev(1).kind(), "object_created");
        let e = UpdateEvent::Associated { assoc: AssocId(0), from: Oid(1), to: Oid(2) };
        assert_eq!(e.kind(), "associated");
    }
}
