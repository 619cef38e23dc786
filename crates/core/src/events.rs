//! The MobiGATE event system (§6.4, Figures 6-5..6-7).
//!
//! Client variations are modeled as [`ContextEvent`] objects with three
//! attributes — `eventID`, `categoryID`, `evtSource` — and classified into
//! the four Table 6-1 categories. The [`EventManager`] maintains one
//! subscriber list per category (`subscriberList` in Figure 6-7); streams
//! subscribe to categories of interest and ignore the rest, "to avoid
//! overheads incurred in processing the flood of events". Events are
//! **multicast**: every subscriber of the category receives the event, and
//! a subscriber additionally filters on `evtSource` (an event targeted at a
//! specific stream application is ignored by others).
//!
//! ## Sharding (session plane)
//!
//! With thousands of per-user sessions subscribed, one `RwLock` per
//! category would make every deploy (a `subscribe` write) contend with
//! every `when`-rule delivery. Each category's subscriber list is
//! therefore split into power-of-two shards keyed by the *subscriber
//! name* — the same identity `evtSource` targets — so a targeted event
//! locks exactly one shard (the one its target lives in) and a session's
//! subscribe/unsubscribe never touches the shard another session's
//! delivery is reading. Broadcasts still sweep every shard; they are the
//! rare whole-gateway signals (LOW_BANDWIDTH et al.), not the per-session
//! hot path. Delivery semantics are shard-count independent; only the
//! `filtered` counter narrows (a targeted event no longer *sees* — and so
//! no longer counts — non-matching subscribers parked in other shards).

use crate::supervisor::FaultInfo;
use mobigate_mcl::events::{EventCategory, EventKind};
use parking_lot::RwLock;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// A context event (Figure 6-5). The paper's events carry no data payload
/// (§4.2.3) — they purely trigger the evolution of coordinated streamlets.
/// The supervision extension attaches optional [`FaultInfo`] to
/// `STREAMLET_FAULT` events so observers can see which instance failed and
/// why; `when` matching still keys on `kind` alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextEvent {
    /// Which event.
    pub kind: EventKind,
    /// Originating source: `None` broadcasts to every subscriber of the
    /// category; `Some(stream)` targets one stream application.
    pub source: Option<String>,
    /// Fault details, present only on supervisor-raised events.
    pub fault: Option<FaultInfo>,
}

impl ContextEvent {
    /// A broadcast event.
    pub fn broadcast(kind: EventKind) -> Self {
        ContextEvent {
            kind,
            source: None,
            fault: None,
        }
    }

    /// An event targeted at one stream application.
    pub fn targeted(kind: EventKind, source: impl Into<String>) -> Self {
        ContextEvent {
            kind,
            source: Some(source.into()),
            fault: None,
        }
    }

    /// A supervisor-raised `STREAMLET_FAULT` event, targeted at the owning
    /// stream when known.
    pub fn fault(info: FaultInfo, source: Option<String>) -> Self {
        ContextEvent {
            kind: EventKind::StreamletFault,
            source,
            fault: Some(info),
        }
    }

    /// The `categoryID` of the event (Figure 6-5).
    pub fn category(&self) -> EventCategory {
        self.kind.category()
    }
}

/// Implemented by entities that react to events (streams override the
/// paper's `onEvent(ContextEvent evt)`).
pub trait EventSubscriber: Send + Sync {
    /// The subscriber's stream-application name (matched against
    /// `evtSource`).
    fn subscriber_name(&self) -> String;

    /// Reacts to an event of a subscribed category.
    fn on_event(&self, event: &ContextEvent);
}

/// Delivery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Events handed to `multicast`.
    pub published: u64,
    /// Individual deliveries to subscribers.
    pub delivered: u64,
    /// Deliveries suppressed by source filtering.
    pub filtered: u64,
}

/// One shard: a subscriber list per category, indexed by
/// `EventCategory::id()` (`subscriberList` in Figure 6-7).
struct EventShard {
    lists: Vec<RwLock<Vec<Weak<dyn EventSubscriber>>>>,
}

impl EventShard {
    fn new() -> Self {
        EventShard {
            lists: (0..EventCategory::COUNT)
                .map(|_| RwLock::new(Vec::new()))
                .collect(),
        }
    }
}

/// The Event Manager (Figure 6-7): category-indexed subscriber lists plus
/// multicast, sharded by subscriber name (see the module docs).
pub struct EventManager {
    shards: Box<[EventShard]>,
    mask: usize,
    published: AtomicU64,
    delivered: AtomicU64,
    filtered: AtomicU64,
}

impl Default for EventManager {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_shards(cores.next_power_of_two().clamp(1, 64))
    }
}

impl EventManager {
    /// A manager with empty subscriber lists, sized to the machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// A manager with a fixed shard count (rounded up to a power of two;
    /// `1` reproduces the paper's single `subscriberList` per category).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        EventManager {
            shards: (0..n).map(|_| EventShard::new()).collect(),
            mask: n - 1,
            published: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            filtered: AtomicU64::new(0),
        }
    }

    /// Number of shards each category's subscriber list is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a subscriber (or `evtSource` target) named `name` lives
    /// in. Keyed by name so targeted delivery and the target's own
    /// subscribe/unsubscribe agree on a single shard.
    fn shard_for(&self, name: &str) -> &EventShard {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        name.hash(&mut h);
        &self.shards[(h.finish() as usize) & self.mask]
    }

    /// Subscribes `app` to a category (paper `subscribeEvt`). Subscribers
    /// are held weakly: a dropped stream unsubscribes itself implicitly.
    pub fn subscribe(&self, category: EventCategory, app: &Arc<dyn EventSubscriber>) {
        self.subscribe_as(&app.subscriber_name(), &[category], app);
    }

    /// Subscribes `app`, whose [`EventSubscriber::subscriber_name`] is
    /// `name`, to every category in `categories` at once: the caller that
    /// already knows the name saves asking for it once per category.
    pub fn subscribe_as(
        &self,
        name: &str,
        categories: &[EventCategory],
        app: &Arc<dyn EventSubscriber>,
    ) {
        let shard = self.shard_for(name);
        for c in categories {
            shard.lists[c.id()].write().push(Arc::downgrade(app));
        }
    }

    /// Unsubscribes `app` from a category (paper `unsubscribeEvt`).
    pub fn unsubscribe(&self, category: EventCategory, app: &Arc<dyn EventSubscriber>) {
        self.unsubscribe_as(&app.subscriber_name(), &[category], app);
    }

    /// [`Self::unsubscribe`] from every category in `categories`, for a
    /// subscriber named `name`. Entries are matched by address, so the
    /// sweep never upgrades a live neighbour; dead entries are dropped
    /// on the way.
    pub fn unsubscribe_as(
        &self,
        name: &str,
        categories: &[EventCategory],
        app: &Arc<dyn EventSubscriber>,
    ) {
        let target = Arc::as_ptr(app) as *const ();
        let shard = self.shard_for(name);
        for c in categories {
            shard.lists[c.id()]
                .write()
                .retain(|w| w.strong_count() > 0 && Weak::as_ptr(w) as *const () != target);
        }
    }

    /// Number of live subscribers in a category (all shards).
    pub fn subscriber_count(&self, category: EventCategory) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard.lists[category.id()]
                    .read()
                    .iter()
                    .filter(|w| w.strong_count() > 0)
                    .count()
            })
            .sum()
    }

    /// Multicasts an event to the subscribers of its category
    /// (Figure 6-7's `multicastEvent`). An `evtSource`-targeted event is
    /// delivered only to the stream whose name matches (§6.4: "the Event
    /// Manager is required to check the attribute evtSource … and verify
    /// whether the corresponding stream application has subscribed") — and
    /// since a subscriber's shard is derived from that same name, a
    /// targeted event locks exactly one shard. Broadcasts sweep all
    /// shards. Returns the number of deliveries.
    pub fn multicast(&self, event: &ContextEvent) -> usize {
        self.published.fetch_add(1, Ordering::Relaxed);
        let mut count = 0;
        match &event.source {
            Some(src) => {
                count += self.multicast_shard(self.shard_for(src), event);
            }
            None => {
                for shard in self.shards.iter() {
                    count += self.multicast_shard(shard, event);
                }
            }
        }
        count
    }

    fn multicast_shard(&self, shard: &EventShard, event: &ContextEvent) -> usize {
        let subs: Vec<Arc<dyn EventSubscriber>> = {
            let mut list = shard.lists[event.category().id()].write();
            // Opportunistically drop dead subscribers.
            list.retain(|w| w.strong_count() > 0);
            list.iter().filter_map(Weak::upgrade).collect()
        };
        let mut count = 0;
        for sub in subs {
            match &event.source {
                Some(src) if *src != sub.subscriber_name() => {
                    self.filtered.fetch_add(1, Ordering::Relaxed);
                }
                _ => {
                    sub.on_event(event);
                    self.delivered.fetch_add(1, Ordering::Relaxed);
                    count += 1;
                }
            }
        }
        count
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> EventStats {
        EventStats {
            published: self.published.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            filtered: self.filtered.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    struct Recorder {
        name: String,
        seen: Mutex<Vec<EventKind>>,
    }
    impl Recorder {
        fn new(name: &str) -> Arc<Self> {
            Arc::new(Recorder {
                name: name.into(),
                seen: Mutex::new(Vec::new()),
            })
        }
    }
    impl EventSubscriber for Recorder {
        fn subscriber_name(&self) -> String {
            self.name.clone()
        }
        fn on_event(&self, event: &ContextEvent) {
            self.seen.lock().push(event.kind);
        }
    }

    fn as_sub(r: &Arc<Recorder>) -> Arc<dyn EventSubscriber> {
        r.clone()
    }

    #[test]
    fn multicast_reaches_category_subscribers_only() {
        let mgr = EventManager::new();
        let net = Recorder::new("netapp");
        let hw = Recorder::new("hwapp");
        mgr.subscribe(EventCategory::NetworkVariation, &as_sub(&net));
        mgr.subscribe(EventCategory::HardwareVariation, &as_sub(&hw));

        let n = mgr.multicast(&ContextEvent::broadcast(EventKind::LowBandwidth));
        assert_eq!(n, 1);
        assert_eq!(net.seen.lock().as_slice(), &[EventKind::LowBandwidth]);
        assert!(hw.seen.lock().is_empty());
    }

    #[test]
    fn unsubscribing_one_stream_keeps_its_neighbours() {
        let mgr = EventManager::with_shards(1);
        let subs: Vec<Arc<Recorder>> = ["a", "b", "c"].iter().map(|n| Recorder::new(n)).collect();
        for r in &subs {
            mgr.subscribe(EventCategory::NetworkVariation, &as_sub(r));
        }
        mgr.unsubscribe(EventCategory::NetworkVariation, &as_sub(&subs[1]));
        assert_eq!(mgr.subscriber_count(EventCategory::NetworkVariation), 2);

        let n = mgr.multicast(&ContextEvent::broadcast(EventKind::LowBandwidth));
        assert_eq!(n, 2);
        assert_eq!(subs[0].seen.lock().as_slice(), &[EventKind::LowBandwidth]);
        assert!(subs[1].seen.lock().is_empty());
        assert_eq!(subs[2].seen.lock().as_slice(), &[EventKind::LowBandwidth]);
    }

    #[test]
    fn targeted_events_filter_by_source() {
        // One shard so the `filtered` counter observes the non-matching
        // subscriber (with more shards it may never be scanned at all).
        let mgr = EventManager::with_shards(1);
        let a = Recorder::new("appA");
        let b = Recorder::new("appB");
        mgr.subscribe(EventCategory::SystemCommand, &as_sub(&a));
        mgr.subscribe(EventCategory::SystemCommand, &as_sub(&b));

        let n = mgr.multicast(&ContextEvent::targeted(EventKind::End, "appB"));
        assert_eq!(n, 1);
        assert!(a.seen.lock().is_empty());
        assert_eq!(b.seen.lock().len(), 1);
        assert_eq!(mgr.stats().filtered, 1);
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        assert_eq!(EventManager::with_shards(1).shard_count(), 1);
        assert_eq!(EventManager::with_shards(3).shard_count(), 4);
        assert_eq!(EventManager::with_shards(16).shard_count(), 16);
        assert_eq!(EventManager::with_shards(0).shard_count(), 1);
    }

    #[test]
    fn delivery_is_shard_count_independent() {
        // The same subscriber population and event sequence deliver
        // identically whatever the shard count: a subscriber lives in the
        // shard its *name* hashes to, which is exactly the shard a
        // targeted event scans.
        for shards in [1usize, 2, 8, 64] {
            let mgr = EventManager::with_shards(shards);
            let subs: Vec<_> = (0..17).map(|i| Recorder::new(&format!("s{i}"))).collect();
            for s in &subs {
                mgr.subscribe(EventCategory::NetworkVariation, &as_sub(s));
                mgr.subscribe(EventCategory::SystemCommand, &as_sub(s));
            }
            assert_eq!(
                mgr.multicast(&ContextEvent::broadcast(EventKind::LowBandwidth)),
                17,
                "broadcast with {shards} shards"
            );
            for (i, s) in subs.iter().enumerate() {
                let n = mgr.multicast(&ContextEvent::targeted(EventKind::End, format!("s{i}")));
                assert_eq!(n, 1, "target s{i} with {shards} shards");
                assert_eq!(
                    s.seen
                        .lock()
                        .iter()
                        .filter(|k| **k == EventKind::End)
                        .count(),
                    1
                );
            }
            // A target nobody owns reaches nobody.
            assert_eq!(
                mgr.multicast(&ContextEvent::targeted(EventKind::End, "ghost")),
                0
            );
        }
    }

    #[test]
    fn unsubscribe_finds_the_right_shard() {
        for shards in [1usize, 4, 32] {
            let mgr = EventManager::with_shards(shards);
            let subs: Vec<_> = (0..9).map(|i| Recorder::new(&format!("u{i}"))).collect();
            for s in &subs {
                mgr.subscribe(EventCategory::SystemCommand, &as_sub(s));
            }
            for s in &subs {
                mgr.unsubscribe(EventCategory::SystemCommand, &as_sub(s));
            }
            assert_eq!(mgr.subscriber_count(EventCategory::SystemCommand), 0);
            assert_eq!(mgr.multicast(&ContextEvent::broadcast(EventKind::End)), 0);
        }
    }

    #[test]
    fn broadcast_reaches_all_subscribers() {
        let mgr = EventManager::new();
        let subs: Vec<_> = (0..5).map(|i| Recorder::new(&format!("app{i}"))).collect();
        for s in &subs {
            mgr.subscribe(EventCategory::NetworkVariation, &as_sub(s));
        }
        let n = mgr.multicast(&ContextEvent::broadcast(EventKind::Disconnection));
        assert_eq!(n, 5);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mgr = EventManager::new();
        let a = Recorder::new("a");
        mgr.subscribe(EventCategory::SystemCommand, &as_sub(&a));
        mgr.unsubscribe(EventCategory::SystemCommand, &as_sub(&a));
        let n = mgr.multicast(&ContextEvent::broadcast(EventKind::Pause));
        assert_eq!(n, 0);
        assert_eq!(mgr.subscriber_count(EventCategory::SystemCommand), 0);
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let mgr = EventManager::new();
        {
            let tmp = Recorder::new("temp");
            mgr.subscribe(EventCategory::NetworkVariation, &as_sub(&tmp));
            assert_eq!(mgr.subscriber_count(EventCategory::NetworkVariation), 1);
        }
        // The Arc is gone; the weak entry must not deliver or count.
        assert_eq!(mgr.subscriber_count(EventCategory::NetworkVariation), 0);
        assert_eq!(
            mgr.multicast(&ContextEvent::broadcast(EventKind::LowBandwidth)),
            0
        );
    }

    #[test]
    fn subscribing_one_category_ignores_others() {
        // §6.4: streams subscribe events of interest, "while filtering away
        // those which are not necessary".
        let mgr = EventManager::new();
        let a = Recorder::new("a");
        mgr.subscribe(EventCategory::HardwareVariation, &as_sub(&a));
        mgr.multicast(&ContextEvent::broadcast(EventKind::LowBandwidth)); // network
        mgr.multicast(&ContextEvent::broadcast(EventKind::LowEnergy)); // hardware
        assert_eq!(a.seen.lock().as_slice(), &[EventKind::LowEnergy]);
    }

    #[test]
    fn stats_account_published_and_delivered() {
        let mgr = EventManager::new();
        let a = Recorder::new("a");
        mgr.subscribe(EventCategory::SystemCommand, &as_sub(&a));
        mgr.multicast(&ContextEvent::broadcast(EventKind::Pause));
        mgr.multicast(&ContextEvent::broadcast(EventKind::Resume));
        let s = mgr.stats();
        assert_eq!(s.published, 2);
        assert_eq!(s.delivered, 2);
    }

    #[test]
    fn double_subscription_delivers_twice() {
        // Matching the paper's Vector semantics: subscribing twice means two
        // deliveries (callers manage their own subscriptions).
        let mgr = EventManager::new();
        let a = Recorder::new("a");
        mgr.subscribe(EventCategory::SystemCommand, &as_sub(&a));
        mgr.subscribe(EventCategory::SystemCommand, &as_sub(&a));
        let n = mgr.multicast(&ContextEvent::broadcast(EventKind::End));
        assert_eq!(n, 2);
    }
}
