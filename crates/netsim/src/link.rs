//! The emulated wireless link.
//!
//! Model: a single FIFO store-and-forward hop. Each frame occupies the
//! channel for `bits / bandwidth` (serialization time), then arrives after
//! an additional propagation delay. Frames are lost independently with the
//! configured probability. All durations are *emulated* time, converted to
//! wall time by `time_scale`.
//!
//! The link has no thread of its own. Every endpoint call first *settles*
//! the channel up to the current instant, under one lock, by absolute
//! deadlines: frame `k` starts transmitting at
//! `start_k = max(arrive_k, depart_{k-1})`, departs at
//! `depart_k = start_k + tx_k` (with `tx_k` at the bandwidth in force at
//! `start_k`) and is delivered at `deliver_k = depart_k + prop`. Frames
//! pipeline over the propagation delay, as on the paper's Linux router,
//! and a late wake-up never shifts the schedule: sleep overshoot delays
//! when a receiver *notices* a frame, never when the next one departs.

use crate::monitor::{LinkEvent, Watch};
use parking_lot::{Condvar, Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a [`WirelessLink`].
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Link bandwidth in bits per second of emulated time.
    pub bandwidth_bps: u64,
    /// One-way propagation delay (emulated time).
    pub propagation_delay: Duration,
    /// Probability a frame is lost in transit (0.0 ..= 1.0).
    pub loss_rate: f64,
    /// Per-bit error probability. A frame survives only when *no* bit is
    /// corrupted, so the effective frame loss is
    /// `1 − (1 − ber)^(8·len)` — longer frames die more often, the classic
    /// wireless behaviour the paper's snoop/I-TCP discussion revolves
    /// around (§2.1.2).
    pub bit_error_rate: f64,
    /// Wall seconds per emulated second. `1.0` = real time; `0.01` runs a
    /// 20 Kb/s experiment 100× faster.
    pub time_scale: f64,
    /// RNG seed for loss decisions (deterministic experiments).
    pub seed: u64,
    /// Maximum frames queued ahead of the channel before senders block.
    pub queue_limit: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            bandwidth_bps: 1_000_000,
            propagation_delay: Duration::from_millis(1),
            loss_rate: 0.0,
            bit_error_rate: 0.0,
            time_scale: 1.0,
            seed: 0,
            queue_limit: 1024,
        }
    }
}

/// Pure function: probability that a frame of `len` bytes survives a link
/// with per-bit error probability `ber`.
pub fn frame_survival(len: usize, ber: f64) -> f64 {
    if ber <= 0.0 {
        return 1.0;
    }
    if ber >= 1.0 {
        return 0.0;
    }
    (1.0 - ber).powi((len as i32).saturating_mul(8))
}

/// Pure function: serialization time of `bytes` at `bandwidth_bps`
/// (emulated time).
pub fn transmission_time(bytes: usize, bandwidth_bps: u64) -> Duration {
    if bandwidth_bps == 0 {
        return Duration::from_secs(3600);
    }
    Duration::from_secs_f64(bytes as f64 * 8.0 / bandwidth_bps as f64)
}

/// Link accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames handed to the link.
    pub sent: u64,
    /// Frames delivered to the receiver.
    pub delivered: u64,
    /// Frames dropped by the loss process.
    pub lost: u64,
    /// Frames rejected because the queue was full.
    pub rejected: u64,
    /// Payload bytes delivered.
    pub delivered_bytes: u64,
    /// Total emulated busy time of the channel, in microseconds.
    pub busy_micros: u64,
}

/// A frame that has started transmitting: on the air until `deliver_at`.
struct Airborne {
    deliver_at: Instant,
    /// `None` when the loss process claimed the frame.
    frame: Option<Vec<u8>>,
}

/// Everything the endpoints share, behind one lock.
struct Channel {
    /// Frames that have not started transmitting, with their arrival.
    waiting: VecDeque<(Instant, Vec<u8>)>,
    /// Frames transmitting or propagating, in delivery order.
    airborne: VecDeque<Airborne>,
    /// Frames whose delivery time has passed, not yet received.
    delivered: VecDeque<Vec<u8>>,
    /// When the last started transmission departs.
    free_at: Instant,
    bandwidth_bps: u64,
    /// Loss draws, one per frame in FIFO order.
    rng: StdRng,
    /// Receivers asleep with nothing on the way: only a send wakes them.
    idle_receivers: usize,
    stop: bool,
    stats: LinkStats,
}

impl Channel {
    /// Moves the channel to `now`: starts every frame whose start time
    /// has come, at the bandwidth in force now, and delivers every frame
    /// whose delivery time has passed. Nothing moves after shutdown.
    fn settle(&mut self, now: Instant, link: &Shared) {
        if self.stop {
            return;
        }
        while let Some(&(arrive, _)) = self.waiting.front() {
            let start = arrive.max(self.free_at);
            if start > now {
                break;
            }
            let Some((_, frame)) = self.waiting.pop_front() else {
                break;
            };
            let tx = transmission_time(frame.len(), self.bandwidth_bps);
            self.stats.busy_micros += tx.as_micros() as u64;
            self.free_at = start + tx.mul_f64(link.cfg.time_scale);
            // Loss process: flat frame loss plus length-dependent bit errors.
            let survival = (1.0 - link.cfg.loss_rate.clamp(0.0, 1.0))
                * frame_survival(frame.len(), link.cfg.bit_error_rate);
            let lost = survival < 1.0 && !self.rng.gen_bool(survival.clamp(0.0, 1.0));
            self.airborne.push_back(Airborne {
                deliver_at: self.free_at + link.propagation,
                frame: (!lost).then_some(frame),
            });
        }
        while self.airborne.front().is_some_and(|f| f.deliver_at <= now) {
            let Some(landed) = self.airborne.pop_front() else {
                break;
            };
            match landed.frame {
                Some(frame) => {
                    self.stats.delivered += 1;
                    self.stats.delivered_bytes += frame.len() as u64;
                    self.delivered.push_back(frame);
                }
                None => self.stats.lost += 1,
            }
        }
    }

    /// When the next frame lands, on a settled channel: the head of the
    /// air, else the head of the queue as the current bandwidth would
    /// carry it. `None` when the channel is empty.
    fn next_delivery(&self, link: &Shared) -> Option<Instant> {
        if let Some(f) = self.airborne.front() {
            return Some(f.deliver_at);
        }
        let (arrive, frame) = self.waiting.front()?;
        let tx = transmission_time(frame.len(), self.bandwidth_bps);
        Some((*arrive).max(self.free_at) + tx.mul_f64(link.cfg.time_scale) + link.propagation)
    }
}

struct Shared {
    channel: Mutex<Channel>,
    /// Receivers wait here for their next delivery or their deadline.
    delivered_cv: Condvar,
    /// The propagation delay in wall time.
    propagation: Duration,
    cfg: LinkConfig,
}

impl Shared {
    /// Locks the channel and settles it up to now.
    fn settled(&self) -> MutexGuard<'_, Channel> {
        let mut ch = self.channel.lock();
        ch.settle(Instant::now(), self);
        ch
    }
}

/// The emulated link: construct with [`WirelessLink::spawn`] to get the
/// sender/receiver endpoints.
pub struct WirelessLink {
    shared: Arc<Shared>,
    /// The link's one threshold watch. `set_bandwidth` holds this lock
    /// throughout, so crossings are observed in the order they happen.
    watch: Mutex<Option<Watch>>,
}

/// Sending endpoint (server side of the air gap).
#[derive(Clone)]
pub struct LinkSender {
    shared: Arc<Shared>,
}

/// Receiving endpoint (mobile-host side).
pub struct LinkReceiver {
    shared: Arc<Shared>,
}

impl WirelessLink {
    /// Builds the link and returns it plus both endpoints. No thread is
    /// started: the endpoints advance the channel themselves.
    pub fn spawn(cfg: LinkConfig) -> (WirelessLink, LinkSender, LinkReceiver) {
        let shared = Arc::new(Shared {
            channel: Mutex::new(Channel {
                waiting: VecDeque::new(),
                airborne: VecDeque::new(),
                delivered: VecDeque::new(),
                free_at: Instant::now(),
                bandwidth_bps: cfg.bandwidth_bps,
                rng: StdRng::seed_from_u64(cfg.seed),
                idle_receivers: 0,
                stop: false,
                stats: LinkStats::default(),
            }),
            delivered_cv: Condvar::new(),
            propagation: cfg.propagation_delay.mul_f64(cfg.time_scale),
            cfg,
        });
        (
            WirelessLink {
                shared: shared.clone(),
                watch: Mutex::new(None),
            },
            LinkSender {
                shared: shared.clone(),
            },
            LinkReceiver { shared },
        )
    }

    /// Changes the link bandwidth on the fly (vertical handoff, fading…).
    /// Frames already transmitting keep their rate; the new one applies
    /// from the next transmission start. A threshold crossing raises the
    /// watch's event on this thread, once the channel is unlocked.
    pub fn set_bandwidth(&self, bps: u64) {
        let mut watch = self.watch.lock();
        self.shared.settled().bandwidth_bps = bps;
        // A receiver asleep until the queue head's predicted delivery
        // must recompute it at the new rate.
        self.shared.delivered_cv.notify_all();
        if let Some(w) = watch.as_mut() {
            w.observe(bps);
        }
    }

    /// Watches the bandwidth with the hysteresis band `low..=high`,
    /// replacing any earlier watch: `callback` gets
    /// [`LinkEvent::BandwidthLow`] when the bandwidth falls below `low`,
    /// and [`LinkEvent::BandwidthHigh`] only once it has since risen above
    /// `high` (and so on). A link already below `low` fires at once. The
    /// callback runs on the thread that changed the bandwidth, and must
    /// not change this link's bandwidth or watch itself.
    pub fn watch(&self, low: u64, high: u64, callback: impl FnMut(LinkEvent) + Send + 'static) {
        let mut watch = self.watch.lock();
        let w = watch.insert(Watch::new(low, high, Box::new(callback)));
        w.observe(self.bandwidth());
    }

    /// Current bandwidth.
    pub fn bandwidth(&self) -> u64 {
        self.shared.channel.lock().bandwidth_bps
    }

    /// Statistics snapshot. A frame counts as delivered once its delivery
    /// time has passed, whether or not it has been received.
    pub fn stats(&self) -> LinkStats {
        self.shared.settled().stats
    }

    /// Takes the link down; frames delivered by now stay receivable,
    /// frames still queued or on the air are discarded.
    pub fn shutdown(&mut self) {
        {
            let mut ch = self.shared.settled();
            ch.stop = true;
            ch.waiting.clear();
            ch.airborne.clear();
        }
        self.shared.delivered_cv.notify_all();
    }
}

impl Drop for WirelessLink {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl LinkSender {
    /// Enqueues a frame for transmission. Returns `false` when the link
    /// queue is full (frame rejected) or the link is down.
    pub fn send(&self, frame: Vec<u8>) -> bool {
        let mut ch = self.shared.settled();
        if ch.stop {
            return false;
        }
        if ch.waiting.len() >= self.shared.cfg.queue_limit {
            ch.stats.rejected += 1;
            return false;
        }
        ch.waiting.push_back((Instant::now(), frame));
        ch.stats.sent += 1;
        // Receivers asleep on a scheduled delivery wake by themselves no
        // later than this frame could land; only idle ones need a wake.
        let wake = ch.idle_receivers > 0;
        drop(ch);
        if wake {
            self.shared.delivered_cv.notify_all();
        }
        true
    }

    /// Frames waiting ahead of the channel.
    pub fn backlog(&self) -> usize {
        self.shared.settled().waiting.len()
    }
}

impl LinkReceiver {
    /// Receives the next delivered frame, waiting up to `timeout` (wall
    /// time; a timeout too long to represent as an instant waits with no
    /// deadline). `None` on timeout or link shutdown with an empty buffer.
    pub fn recv(&self, timeout: Duration) -> Option<Vec<u8>> {
        let deadline = Instant::now().checked_add(timeout);
        let mut ch = self.shared.channel.lock();
        loop {
            let now = Instant::now();
            ch.settle(now, &self.shared);
            if let Some(frame) = ch.delivered.pop_front() {
                return Some(frame);
            }
            if ch.stop || deadline.is_some_and(|d| now >= d) {
                return None;
            }
            // Sleep until the next delivery or the deadline, whichever
            // comes first; with nothing on the way, until a send.
            let next = ch.next_delivery(&self.shared);
            let idle = usize::from(next.is_none());
            ch.idle_receivers += idle;
            match next.into_iter().chain(deadline).min() {
                Some(until) => {
                    self.shared.delivered_cv.wait_until(&mut ch, until);
                }
                None => self.shared.delivered_cv.wait(&mut ch),
            }
            ch.idle_receivers -= idle;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Vec<u8>> {
        self.shared.settled().delivered.pop_front()
    }

    /// When the next frame can be received: now if one already can,
    /// `None` with nothing on the way.
    pub fn next_delivery(&self) -> Option<Instant> {
        let ch = self.shared.settled();
        if ch.delivered.is_empty() {
            ch.next_delivery(&self.shared)
        } else {
            Some(Instant::now())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmission_time_math() {
        assert_eq!(transmission_time(1250, 10_000), Duration::from_secs(1));
        assert_eq!(transmission_time(0, 10_000), Duration::ZERO);
        // Zero bandwidth saturates instead of dividing by zero.
        assert!(transmission_time(1, 0) >= Duration::from_secs(3600));
    }

    #[test]
    fn frames_arrive_in_order() {
        let (_link, tx, rx) = WirelessLink::spawn(LinkConfig {
            bandwidth_bps: 100_000_000,
            propagation_delay: Duration::ZERO,
            ..Default::default()
        });
        for i in 0..20u8 {
            assert!(tx.send(vec![i; 16]));
        }
        for i in 0..20u8 {
            let f = rx.recv(Duration::from_secs(2)).expect("frame");
            assert_eq!(f[0], i);
        }
    }

    #[test]
    fn bandwidth_throttles_delivery() {
        // 8 KB at 64 Kb/s = 1 emulated second; at scale 0.05 → ≥50 ms wall.
        let (_link, tx, rx) = WirelessLink::spawn(LinkConfig {
            bandwidth_bps: 64_000,
            propagation_delay: Duration::ZERO,
            time_scale: 0.05,
            ..Default::default()
        });
        let t0 = Instant::now();
        tx.send(vec![0u8; 8000]);
        rx.recv(Duration::from_secs(5)).expect("frame");
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(45),
            "too fast: {elapsed:?}"
        );
    }

    #[test]
    fn higher_bandwidth_is_faster() {
        let run = |bps: u64| {
            let (_link, tx, rx) = WirelessLink::spawn(LinkConfig {
                bandwidth_bps: bps,
                propagation_delay: Duration::ZERO,
                time_scale: 0.01,
                ..Default::default()
            });
            let t0 = Instant::now();
            for _ in 0..5 {
                tx.send(vec![0u8; 20_000]);
            }
            for _ in 0..5 {
                rx.recv(Duration::from_secs(10)).expect("frame");
            }
            t0.elapsed()
        };
        let slow = run(100_000);
        let fast = run(2_000_000);
        assert!(fast < slow, "fast {fast:?} !< slow {slow:?}");
    }

    #[test]
    fn loss_rate_drops_frames() {
        let (link, tx, rx) = WirelessLink::spawn(LinkConfig {
            bandwidth_bps: 100_000_000,
            propagation_delay: Duration::ZERO,
            loss_rate: 0.5,
            seed: 7,
            ..Default::default()
        });
        for _ in 0..200 {
            tx.send(vec![0u8; 8]);
        }
        // Drain until quiescent.
        let mut got = 0;
        while rx.recv(Duration::from_millis(200)).is_some() {
            got += 1;
        }
        let stats = link.stats();
        assert_eq!(stats.sent, 200);
        assert_eq!(stats.delivered as usize, got);
        assert!(stats.lost > 50 && stats.lost < 150, "lost {}", stats.lost);
        assert_eq!(stats.delivered + stats.lost, 200);
    }

    #[test]
    fn frame_survival_math() {
        assert_eq!(frame_survival(100, 0.0), 1.0);
        assert_eq!(frame_survival(100, 1.0), 0.0);
        let short = frame_survival(10, 1e-4);
        let long = frame_survival(1000, 1e-4);
        assert!(long < short, "longer frames must survive less often");
        assert!((0.0..=1.0).contains(&short));
    }

    #[test]
    fn bit_errors_kill_long_frames_more() {
        let run = |len: usize| {
            let (link, tx, rx) = WirelessLink::spawn(LinkConfig {
                bandwidth_bps: 1_000_000_000,
                propagation_delay: Duration::ZERO,
                bit_error_rate: 2e-4,
                seed: 3,
                ..Default::default()
            });
            for _ in 0..100 {
                tx.send(vec![0u8; len]);
            }
            while rx.recv(Duration::from_millis(150)).is_some() {}
            link.stats().lost
        };
        let short_lost = run(16);
        let long_lost = run(2048);
        assert!(
            long_lost > short_lost + 20,
            "2 KB frames (lost {long_lost}) must die far more often than 16 B (lost {short_lost})"
        );
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let (link, tx, rx) = WirelessLink::spawn(LinkConfig {
                bandwidth_bps: 100_000_000,
                propagation_delay: Duration::ZERO,
                loss_rate: 0.3,
                seed,
                ..Default::default()
            });
            for _ in 0..100 {
                tx.send(vec![0u8; 8]);
            }
            while rx.recv(Duration::from_millis(100)).is_some() {}
            link.stats().lost
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn queue_limit_rejects_overflow() {
        let (link, tx, _rx) = WirelessLink::spawn(LinkConfig {
            bandwidth_bps: 1_000, // extremely slow: queue builds up
            queue_limit: 4,
            time_scale: 1.0,
            ..Default::default()
        });
        let mut accepted = 0;
        for _ in 0..20 {
            if tx.send(vec![0u8; 10_000]) {
                accepted += 1;
            }
        }
        assert!(accepted <= 6, "accepted {accepted}");
        assert!(link.stats().rejected >= 14);
    }

    #[test]
    fn bandwidth_change_applies_mid_run() {
        let (link, tx, rx) = WirelessLink::spawn(LinkConfig {
            bandwidth_bps: 10_000,
            propagation_delay: Duration::ZERO,
            time_scale: 0.01,
            ..Default::default()
        });
        link.set_bandwidth(50_000_000);
        assert_eq!(link.bandwidth(), 50_000_000);
        let t0 = Instant::now();
        tx.send(vec![0u8; 100_000]);
        rx.recv(Duration::from_secs(5)).expect("frame");
        // At the *original* 10 Kb/s this frame would take 80 emulated
        // seconds = 800 ms wall; the boost makes it near-instant.
        assert!(t0.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn stats_track_bytes_and_busy_time() {
        let (link, tx, rx) = WirelessLink::spawn(LinkConfig {
            bandwidth_bps: 1_000_000,
            propagation_delay: Duration::ZERO,
            time_scale: 0.001,
            ..Default::default()
        });
        tx.send(vec![0u8; 12_500]); // 0.1 emulated seconds
        rx.recv(Duration::from_secs(2)).expect("frame");
        let stats = link.stats();
        assert_eq!(stats.delivered_bytes, 12_500);
        assert!(stats.busy_micros >= 90_000, "busy {}", stats.busy_micros);
    }

    #[test]
    fn shutdown_stops_cleanly() {
        let (mut link, tx, rx) = WirelessLink::spawn(LinkConfig::default());
        tx.send(vec![1, 2, 3]);
        link.shutdown();
        assert!(!tx.send(vec![4]));
        // After shutdown recv drains whatever was delivered then None.
        let _ = rx.recv(Duration::from_millis(50));
        assert!(rx.recv(Duration::from_millis(50)).is_none());
    }

    #[test]
    fn recv_without_deadline_waits_for_a_frame_then_for_shutdown() {
        let (mut link, tx, rx) = paced(100_000_000, Duration::ZERO);
        let (got_tx, got_rx) = std::sync::mpsc::channel();
        let receiver = std::thread::spawn(move || {
            got_tx.send(rx.recv(Duration::MAX)).unwrap();
            rx.recv(Duration::MAX)
        });
        assert!(tx.send(vec![9]));
        assert_eq!(got_rx.recv().unwrap(), Some(vec![9]));
        link.shutdown();
        assert_eq!(receiver.join().unwrap(), None);
    }

    /// A lossless link of `bps` at wall-clock speed with an unbounded queue.
    fn paced(bps: u64, delay: Duration) -> (WirelessLink, LinkSender, LinkReceiver) {
        WirelessLink::spawn(LinkConfig {
            bandwidth_bps: bps,
            propagation_delay: delay,
            time_scale: 1.0,
            queue_limit: usize::MAX,
            ..Default::default()
        })
    }

    #[test]
    fn n_frames_finish_within_one_frame_time_of_n_tx() {
        // 1250 B at 1 Mb/s: 10 ms per frame. Departures are absolute
        // deadlines, so the slack is one frame-time whatever N is; a
        // per-frame relative sleep would add its overshoot N times.
        let frame_time = transmission_time(1250, 1_000_000);
        for n in [1u32, 10, 100] {
            let (_link, tx, rx) = paced(1_000_000, Duration::ZERO);
            let t0 = Instant::now();
            for _ in 0..n {
                assert!(tx.send(vec![0u8; 1250]));
            }
            for _ in 0..n {
                rx.recv(Duration::from_secs(5)).expect("frame");
            }
            let elapsed = t0.elapsed();
            let ideal = frame_time * n;
            assert!(elapsed >= ideal, "N={n}: {elapsed:?} beat the rate");
            assert!(
                elapsed < ideal + frame_time,
                "N={n}: {elapsed:?} overshot {ideal:?} by a frame-time or more"
            );
        }
    }

    #[test]
    fn frames_pipeline_over_the_propagation_delay() {
        // 125 B at 1 Mb/s: 1 ms each, behind a 50 ms delay. A pipelined
        // link lands all 20 by 50 + 20 ms; stop-and-wait would take 1 s.
        let (_link, tx, rx) = paced(1_000_000, Duration::from_millis(50));
        let t0 = Instant::now();
        for _ in 0..20 {
            assert!(tx.send(vec![0u8; 125]));
        }
        let first = rx.recv(Duration::from_secs(5)).map(|_| t0.elapsed());
        for _ in 1..20 {
            rx.recv(Duration::from_secs(5)).expect("frame");
        }
        let elapsed = t0.elapsed();
        assert!(first.expect("first frame") >= Duration::from_millis(51));
        assert!(
            elapsed < Duration::from_millis(50 + 20 + 10),
            "20 frames took {elapsed:?}"
        );
    }

    #[test]
    fn bandwidth_change_applies_from_the_next_transmission_start() {
        // A (1000 B at 80 Kb/s) transmits for 100 ms; B queues behind it.
        let (link, tx, rx) = paced(80_000, Duration::ZERO);
        let t0 = Instant::now();
        assert!(tx.send(vec![0u8; 1000]));
        assert!(tx.send(vec![1u8; 1000]));
        std::thread::sleep(Duration::from_millis(20));
        link.set_bandwidth(80_000_000);
        let a = rx.recv(Duration::from_secs(5)).expect("A");
        assert_eq!(a[0], 0);
        assert!(
            t0.elapsed() >= Duration::from_millis(100),
            "A finished at its old rate"
        );
        let b = rx.recv(Duration::from_secs(5)).expect("B");
        assert_eq!(b[0], 1);
        // B started after the change: 0.1 ms, not another 100 ms.
        assert!(t0.elapsed() < Duration::from_millis(150), "B at old rate");
        assert_eq!(link.stats().busy_micros, 100_000 + 100);
    }

    #[test]
    fn stats_count_a_due_frame_before_it_is_received() {
        let (link, tx, rx) = paced(100_000_000, Duration::ZERO);
        assert!(tx.send(vec![7u8; 64]));
        std::thread::sleep(Duration::from_millis(5));
        let stats = link.stats();
        assert_eq!((stats.delivered, stats.delivered_bytes), (1, 64));
        assert_eq!(rx.try_recv(), Some(vec![7u8; 64]));
        assert_eq!(link.stats(), stats);
    }
}
