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
//! ## Subscriber lists keyed by name
//!
//! Each category's list is one `RwLock` over a map from subscriber name —
//! the identity `evtSource` targets — to that name's subscriptions. A
//! targeted event and an unsubscribe touch only the named entry, so with
//! thousands of per-user sessions subscribed, neither scans the list nor
//! asks other subscribers their name, and tearing down every session costs
//! one map removal each rather than a sweep per session. A broadcast walks
//! every entry; broadcasts are the rare whole-gateway signals
//! (LOW_BANDWIDTH et al.), not the per-session path.

use crate::supervisor::FaultInfo;
use mobigate_mcl::events::{EventCategory, EventKind};
use parking_lot::RwLock;
use std::collections::HashMap;
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

/// One category's `subscriberList` (Figure 6-7), keyed by subscriber
/// name. A name may hold several subscriptions: two deployments of one
/// stream, or one subscriber subscribed twice.
#[derive(Default)]
struct SubscriberList {
    by_name: HashMap<Arc<str>, Vec<Weak<dyn EventSubscriber>>>,
    /// Subscriptions across every name.
    len: usize,
}

impl SubscriberList {
    /// Keeps the live subscriptions of `name` that `keep` accepts,
    /// dropping the entry once it is empty; returns the survivors.
    fn retain(
        &mut self,
        name: &str,
        mut keep: impl FnMut(&Weak<dyn EventSubscriber>) -> bool,
    ) -> Vec<Arc<dyn EventSubscriber>> {
        let Some(entry) = self.by_name.get_mut(name) else {
            return Vec::new();
        };
        let before = entry.len();
        entry.retain(|w| w.strong_count() > 0 && keep(w));
        self.len -= before - entry.len();
        let live = entry.iter().filter_map(Weak::upgrade).collect();
        if entry.is_empty() {
            self.by_name.remove(name);
        }
        live
    }
}

/// The Event Manager (Figure 6-7): category-indexed subscriber lists plus
/// multicast.
pub struct EventManager {
    /// Indexed by `EventCategory::id()`.
    lists: Box<[RwLock<SubscriberList>]>,
    published: AtomicU64,
    delivered: AtomicU64,
    filtered: AtomicU64,
}

impl Default for EventManager {
    fn default() -> Self {
        EventManager {
            lists: (0..EventCategory::COUNT)
                .map(|_| RwLock::default())
                .collect(),
            published: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            filtered: AtomicU64::new(0),
        }
    }
}

impl EventManager {
    /// A manager with empty subscriber lists.
    pub fn new() -> Self {
        Self::default()
    }

    /// Subscribes `app` to a category (paper `subscribeEvt`). Subscribers
    /// are held weakly: a dropped stream unsubscribes itself implicitly.
    pub fn subscribe(&self, category: EventCategory, app: &Arc<dyn EventSubscriber>) {
        self.subscribe_as(&app.subscriber_name().into(), &[category], app);
    }

    /// Subscribes `app`, whose [`EventSubscriber::subscriber_name`] is
    /// `name`, to every category in `categories` at once: the caller that
    /// already holds the name saves asking for it, and copying it, once
    /// per category.
    pub fn subscribe_as(
        &self,
        name: &Arc<str>,
        categories: &[EventCategory],
        app: &Arc<dyn EventSubscriber>,
    ) {
        for c in categories {
            let mut list = self.lists[c.id()].write();
            // Sized for the usual single subscription per name.
            list.by_name
                .entry(name.clone())
                .or_insert_with(|| Vec::with_capacity(1))
                .push(Arc::downgrade(app));
            list.len += 1;
        }
    }

    /// Unsubscribes `app` from a category (paper `unsubscribeEvt`).
    pub fn unsubscribe(&self, category: EventCategory, app: &Arc<dyn EventSubscriber>) {
        self.unsubscribe_as(&app.subscriber_name(), &[category], app);
    }

    /// [`Self::unsubscribe`] from every category in `categories`, for a
    /// subscriber named `name`. Only that name's entry is touched; its
    /// subscriptions are matched by address, and dead ones are dropped on
    /// the way.
    pub fn unsubscribe_as(
        &self,
        name: &str,
        categories: &[EventCategory],
        app: &Arc<dyn EventSubscriber>,
    ) {
        let target = Arc::as_ptr(app) as *const ();
        for c in categories {
            self.lists[c.id()]
                .write()
                .retain(name, |w| Weak::as_ptr(w) as *const () != target);
        }
    }

    /// Number of live subscribers in a category.
    pub fn subscriber_count(&self, category: EventCategory) -> usize {
        self.lists[category.id()]
            .read()
            .by_name
            .values()
            .flatten()
            .filter(|w| w.strong_count() > 0)
            .count()
    }

    /// Multicasts an event to the subscribers of its category
    /// (Figure 6-7's `multicastEvent`). An `evtSource`-targeted event is
    /// delivered only to the stream whose name matches (§6.4: "the Event
    /// Manager is required to check the attribute evtSource … and verify
    /// whether the corresponding stream application has subscribed"): it
    /// looks up that name's entry and counts the category's other
    /// subscriptions as `filtered` without visiting them. A broadcast
    /// reaches every entry, dropping dead subscriptions on the way.
    /// Returns the number of deliveries.
    pub fn multicast(&self, event: &ContextEvent) -> usize {
        self.published.fetch_add(1, Ordering::Relaxed);
        let subs: Vec<Arc<dyn EventSubscriber>> = {
            let mut list = self.lists[event.category().id()].write();
            match &event.source {
                Some(src) => {
                    let subs = list.retain(src, |_| true);
                    self.filtered
                        .fetch_add((list.len - subs.len()) as u64, Ordering::Relaxed);
                    subs
                }
                None => {
                    let list = &mut *list;
                    list.by_name.retain(|_, entry| {
                        entry.retain(|w| w.strong_count() > 0);
                        !entry.is_empty()
                    });
                    list.len = list.by_name.values().map(Vec::len).sum();
                    list.by_name
                        .values()
                        .flatten()
                        .filter_map(Weak::upgrade)
                        .collect()
                }
            }
        };
        for sub in &subs {
            sub.on_event(event);
        }
        self.delivered
            .fetch_add(subs.len() as u64, Ordering::Relaxed);
        subs.len()
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
        /// `subscriber_name()` calls so far.
        asked: AtomicU64,
    }
    impl Recorder {
        fn new(name: &str) -> Arc<Self> {
            Arc::new(Recorder {
                name: name.into(),
                seen: Mutex::new(Vec::new()),
                asked: AtomicU64::new(0),
            })
        }
    }
    impl EventSubscriber for Recorder {
        fn subscriber_name(&self) -> String {
            self.asked.fetch_add(1, Ordering::Relaxed);
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
        let mgr = EventManager::new();
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
        let mgr = EventManager::new();
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
    fn targeted_event_never_asks_other_subscribers_their_name() {
        let mgr = EventManager::new();
        let subs: Vec<_> = (0..8).map(|i| Recorder::new(&format!("s{i}"))).collect();
        for s in &subs {
            mgr.subscribe(EventCategory::SystemCommand, &as_sub(s));
        }
        let asked: Vec<u64> = subs
            .iter()
            .map(|s| s.asked.load(Ordering::Relaxed))
            .collect();
        assert_eq!(
            mgr.multicast(&ContextEvent::targeted(EventKind::Pause, "s3")),
            1
        );
        assert_eq!(subs[3].seen.lock().as_slice(), &[EventKind::Pause]);
        for (s, before) in subs.iter().zip(asked) {
            assert_eq!(
                s.asked.load(Ordering::Relaxed),
                before,
                "{} was asked its name",
                s.name
            );
        }
        assert_eq!(mgr.stats().filtered, 7);
    }

    #[test]
    fn targeted_and_broadcast_events_reach_the_right_subscribers() {
        let mgr = EventManager::new();
        let subs: Vec<_> = (0..17).map(|i| Recorder::new(&format!("s{i}"))).collect();
        for s in &subs {
            mgr.subscribe(EventCategory::NetworkVariation, &as_sub(s));
            mgr.subscribe(EventCategory::SystemCommand, &as_sub(s));
        }
        assert_eq!(
            mgr.multicast(&ContextEvent::broadcast(EventKind::LowBandwidth)),
            17
        );
        for (i, s) in subs.iter().enumerate() {
            let n = mgr.multicast(&ContextEvent::targeted(EventKind::End, format!("s{i}")));
            assert_eq!(n, 1, "target s{i}");
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

    #[test]
    fn unsubscribe_finds_the_named_entry() {
        let mgr = EventManager::new();
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

    #[test]
    fn unsubscribe_leaves_a_namesakes_subscription() {
        // Two deployments of one stream share its name.
        let mgr = EventManager::new();
        let a = Recorder::new("app");
        let b = Recorder::new("app");
        mgr.subscribe(EventCategory::SystemCommand, &as_sub(&a));
        mgr.subscribe(EventCategory::SystemCommand, &as_sub(&b));
        mgr.unsubscribe(EventCategory::SystemCommand, &as_sub(&a));
        assert_eq!(
            mgr.multicast(&ContextEvent::targeted(EventKind::End, "app")),
            1
        );
        assert!(a.seen.lock().is_empty());
        assert_eq!(b.seen.lock().as_slice(), &[EventKind::End]);
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
