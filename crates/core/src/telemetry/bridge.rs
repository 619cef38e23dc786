//! The metrics→event bridge: threshold watchers that turn *measured*
//! runtime state into real `ContextEvent`s.
//!
//! A background thread polls every live stream at a fixed interval and
//! compares measurements against configured thresholds:
//!
//! | watcher            | measurement                        | event                |
//! |--------------------|------------------------------------|----------------------|
//! | queue high-water   | resident queued bytes per stream   | `CHANNEL_CONGESTED`  |
//! | drop rate          | drops per poll interval            | `HIGH_DROP_RATE`     |
//! | fault rate         | faults per poll interval           | `HIGH_FAULT_RATE`    |
//! | byte budget        | cumulative ingress bytes           | `BYTE_BUDGET_EXCEEDED` |
//! | admission pressure | admission rejections per poll      | `OVERLOAD`           |
//!
//! Events are published **targeted at the stream's name** (its event
//! identity), so an MCL `when (CHANNEL_CONGESTED) { ... }` rule in that
//! stream's program fires from the measurement — the closed adaptation
//! loop ROADMAP item 5 asks for. Watchers are edge-triggered: a threshold
//! publishes once when crossed and re-arms only after the condition
//! clears (drop/fault rates re-arm on a quiet interval; the byte budget
//! is latched — cumulative bytes never go down).
//!
//! The thread holds only `Weak` references to the coordination and event
//! managers, so it can never keep a shut-down server alive; it exits when
//! either side goes away or [`MetricsBridge::stop`] is called.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use super::Telemetry;
use crate::coordination::CoordinationManager;
use crate::events::{ContextEvent, EventManager};
use crate::sync::{deadline_after, Parker, Wake};
use crate::EventKind;
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Thresholds for the metrics→event bridge watchers.
#[derive(Clone, Debug)]
pub struct BridgeConfig {
    /// Runs the bridge thread (only meaningful with telemetry enabled).
    pub enabled: bool,
    /// Poll period of the watcher thread.
    pub poll_interval: Duration,
    /// `CHANNEL_CONGESTED` when a stream's resident queued bytes
    /// (buffered channel bytes + parked pending outputs) reach this.
    pub queue_high_water_bytes: u64,
    /// `HIGH_DROP_RATE` when a stream drops at least this many messages
    /// within one poll interval.
    pub drop_rate_per_poll: u64,
    /// `HIGH_FAULT_RATE` when a stream faults at least this many times
    /// within one poll interval.
    pub fault_rate_per_poll: u64,
    /// `BYTE_BUDGET_EXCEEDED` when a session's cumulative ingress bytes
    /// exceed this budget. `None` disables the watcher.
    pub session_byte_budget: Option<u64>,
    /// `OVERLOAD` when a stream's admission rejections within one poll
    /// interval reach this count — the signal that load shedding should
    /// engage downstream of the bucket.
    pub admission_rejects_per_poll: u64,
}

impl Default for BridgeConfig {
    fn default() -> Self {
        BridgeConfig {
            enabled: true,
            poll_interval: Duration::from_millis(100),
            queue_high_water_bytes: 4 << 20,
            drop_rate_per_poll: 100,
            fault_rate_per_poll: 5,
            session_byte_budget: None,
            admission_rejects_per_poll: 100,
        }
    }
}

/// Per-stream watcher memory (edge-trigger state + last counter values).
#[derive(Default)]
struct WatchState {
    congested: bool,
    last_drops: u64,
    drop_latched: bool,
    last_faults: u64,
    fault_latched: bool,
    budget_latched: bool,
    last_admission: u64,
    admission_latched: bool,
}

/// Handle to the running bridge thread.
pub struct MetricsBridge {
    /// True once stopped.
    stop: Arc<Parker<bool>>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsBridge {
    /// Spawns the watcher thread. `telemetry` supplies per-stream
    /// counters, `coordination` the live stream set, `events` the
    /// publication sink.
    pub fn start(
        cfg: BridgeConfig,
        telemetry: Weak<Telemetry>,
        coordination: Weak<CoordinationManager>,
        events: Weak<EventManager>,
    ) -> Self {
        let stop = Arc::new(Parker::new(false));
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new()
            .name("mobigate-bridge".into())
            .spawn(move || run(cfg, telemetry, coordination, events, stop2))
            .ok();
        MetricsBridge { stop, thread }
    }

    /// Stops and joins the watcher thread. Idempotent.
    pub fn stop(mut self) {
        self.stop.update(|stopped| {
            *stopped = true;
            ((), Wake::All)
        });
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn run(
    cfg: BridgeConfig,
    telemetry: Weak<Telemetry>,
    coordination: Weak<CoordinationManager>,
    events: Weak<EventManager>,
    stop: Arc<Parker<bool>>,
) {
    let mut watch: HashMap<String, WatchState> = HashMap::new();
    loop {
        if stop.wait_while(|stopped| !*stopped, deadline_after(cfg.poll_interval)) {
            return;
        }
        let (Some(telemetry), Some(coordination), Some(events)) = (
            telemetry.upgrade(),
            coordination.upgrade(),
            events.upgrade(),
        ) else {
            return;
        };
        let streams = coordination.streams();
        let mut seen: Vec<&str> = Vec::with_capacity(streams.len());
        for stream in &streams {
            let session = stream.session().as_str().to_string();
            seen.push(stream.session().as_str());
            let metrics = telemetry.registry().get(&session);
            let state = watch.entry(session.clone()).or_default();

            // Queue high-water → CHANNEL_CONGESTED (level edge-triggered:
            // publishes on each rise through the mark).
            let resident = stream.stats().resident_bytes();
            if resident >= cfg.queue_high_water_bytes {
                if !state.congested {
                    state.congested = true;
                    events.multicast(&ContextEvent::targeted(
                        EventKind::ChannelCongested,
                        stream.name(),
                    ));
                }
            } else {
                state.congested = false;
            }

            if let Some(m) = &metrics {
                // Drop rate → HIGH_DROP_RATE.
                let drops = m.dropped_total();
                let delta = drops.saturating_sub(state.last_drops);
                state.last_drops = drops;
                if delta >= cfg.drop_rate_per_poll {
                    if !state.drop_latched {
                        state.drop_latched = true;
                        events.multicast(&ContextEvent::targeted(
                            EventKind::HighDropRate,
                            stream.name(),
                        ));
                    }
                } else {
                    state.drop_latched = false;
                }

                // Fault rate → HIGH_FAULT_RATE.
                let faults = m.faults.load(std::sync::atomic::Ordering::Relaxed);
                let fdelta = faults.saturating_sub(state.last_faults);
                state.last_faults = faults;
                if fdelta >= cfg.fault_rate_per_poll {
                    if !state.fault_latched {
                        state.fault_latched = true;
                        events.multicast(&ContextEvent::targeted(
                            EventKind::HighFaultRate,
                            stream.name(),
                        ));
                    }
                } else {
                    state.fault_latched = false;
                }

                // Admission pressure → OVERLOAD (edge-triggered like the
                // drop-rate watcher): a stream whose bucket is rejecting
                // hard should also shed its lowest-priority backlog.
                let rejects = m
                    .dropped_admission
                    .load(std::sync::atomic::Ordering::Relaxed);
                let adelta = rejects.saturating_sub(state.last_admission);
                state.last_admission = rejects;
                if adelta >= cfg.admission_rejects_per_poll {
                    if !state.admission_latched {
                        state.admission_latched = true;
                        events
                            .multicast(&ContextEvent::targeted(EventKind::Overload, stream.name()));
                    }
                } else {
                    state.admission_latched = false;
                }

                // Byte budget → BYTE_BUDGET_EXCEEDED (latched: cumulative
                // ingress bytes are monotonic).
                if let Some(budget) = cfg.session_byte_budget {
                    let bytes = m.bytes_in.load(std::sync::atomic::Ordering::Relaxed);
                    if bytes > budget && !state.budget_latched {
                        state.budget_latched = true;
                        events.multicast(&ContextEvent::targeted(
                            EventKind::ByteBudgetExceeded,
                            stream.name(),
                        ));
                    }
                }
            }
        }
        // Forget watcher state of retired sessions.
        watch.retain(|k, _| seen.contains(&k.as_str()));
    }
}
