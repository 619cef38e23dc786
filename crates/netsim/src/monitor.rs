//! Link monitoring — the context source behind LOW_BANDWIDTH /
//! HIGH_BANDWIDTH events.
//!
//! "The Event Manager monitors the underlying client variations and
//! composes corresponding events in response to various situations" (§6.4).
//! A link carries at most one [`Watch`]; [`WirelessLink::set_bandwidth`]
//! feeds it every new bandwidth, and it fires its callback on threshold
//! crossings, with hysteresis so a link hovering at the threshold does not
//! flap reconfigurations.
//!
//! [`WirelessLink::set_bandwidth`]: crate::link::WirelessLink::set_bandwidth

/// Threshold-crossing notifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEvent {
    /// Bandwidth fell below the low threshold.
    BandwidthLow(u64),
    /// Bandwidth rose above the high threshold.
    BandwidthHigh(u64),
}

/// A hysteresis band and the callback it raises crossings to.
pub(crate) struct Watch {
    low: u64,
    high: u64,
    below: bool,
    callback: Box<dyn FnMut(LinkEvent) + Send>,
}

impl Watch {
    pub(crate) fn new(low: u64, high: u64, callback: Box<dyn FnMut(LinkEvent) + Send>) -> Self {
        assert!(low <= high, "hysteresis band inverted");
        Watch {
            low,
            high,
            below: false,
            callback,
        }
    }

    /// Fires once when bandwidth drops below `low`, and once again only
    /// after it has risen above `high` (and vice versa).
    pub(crate) fn observe(&mut self, bps: u64) {
        if !self.below && bps < self.low {
            self.below = true;
            (self.callback)(LinkEvent::BandwidthLow(bps));
        } else if self.below && bps > self.high {
            self.below = false;
            (self.callback)(LinkEvent::BandwidthHigh(bps));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkConfig, WirelessLink};
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// Watches a 1 Mb/s link at 100/150 Kb/s; every event is raised inside
    /// the `set_bandwidth` that crosses, so `run` can assert after each.
    fn events_of(run: impl FnOnce(&WirelessLink, &dyn Fn() -> Vec<LinkEvent>)) {
        let (link, _tx, _rx) = WirelessLink::spawn(LinkConfig {
            bandwidth_bps: 1_000_000,
            ..Default::default()
        });
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        link.watch(100_000, 150_000, move |e| seen2.lock().push(e));
        run(&link, &|| seen.lock().clone());
    }

    #[test]
    fn fires_low_once_on_drop() {
        events_of(|link, events| {
            link.set_bandwidth(50_000);
            assert_eq!(events(), vec![LinkEvent::BandwidthLow(50_000)]);
            link.set_bandwidth(90_000); // still below: no second event
            assert_eq!(events(), vec![LinkEvent::BandwidthLow(50_000)]);
        });
    }

    #[test]
    fn hysteresis_requires_high_threshold_to_rearm() {
        events_of(|link, events| {
            link.set_bandwidth(50_000);
            link.set_bandwidth(120_000); // inside the band: nothing
            assert_eq!(events(), vec![LinkEvent::BandwidthLow(50_000)]);
            link.set_bandwidth(500_000); // above high: HIGH event
            assert_eq!(events().len(), 2);
            link.set_bandwidth(50_000); // re-armed: LOW again
            assert_eq!(
                events(),
                vec![
                    LinkEvent::BandwidthLow(50_000),
                    LinkEvent::BandwidthHigh(500_000),
                    LinkEvent::BandwidthLow(50_000),
                ]
            );
        });
    }

    #[test]
    fn no_events_when_stable() {
        events_of(|link, events| {
            link.set_bandwidth(1_000_000);
            link.set_bandwidth(120_000); // inside the band, never below
            assert!(events().is_empty());
        });
    }

    #[test]
    fn watching_a_link_already_below_fires_at_once() {
        let (link, _tx, _rx) = WirelessLink::spawn(LinkConfig {
            bandwidth_bps: 60_000,
            ..Default::default()
        });
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        link.watch(100_000, 150_000, move |e| seen2.lock().push(e));
        assert_eq!(*seen.lock(), vec![LinkEvent::BandwidthLow(60_000)]);
        // A second watch replaces the first, which sees nothing more.
        link.watch(10_000, 20_000, |_| {});
        link.set_bandwidth(500_000);
        assert_eq!(seen.lock().len(), 1);
    }

    #[test]
    #[should_panic(expected = "hysteresis band inverted")]
    fn inverted_band_panics() {
        let (link, _tx, _rx) = WirelessLink::spawn(LinkConfig::default());
        link.watch(200, 100, |_| {});
    }
}
