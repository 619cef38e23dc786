//! A snoop-style reliable link layer (§2.1.2).
//!
//! "The snoop modifies network-layer software mainly at a base station and
//! preserves end-to-end TCP semantics. The main idea of the protocol is to
//! cache packets at the base station and perform local retransmissions
//! across the wireless link."
//!
//! [`SnoopLink`] wraps a lossy [`WirelessLink`] with exactly that
//! mechanism: the base-station **agent** caches every frame it forwards
//! under a sequence number; the mobile-side receiver acknowledges each
//! frame over a (reliable, low-bandwidth) reverse channel; unacknowledged
//! frames are retransmitted after a timeout, up to a retry budget. The
//! receiver reorders out-of-order arrivals and suppresses duplicates, so
//! the application sees an in-order, loss-free stream as long as the retry
//! budget suffices.
//!
//! Like the link, the agent has no thread. Every endpoint call settles
//! both sides up to now: landed frames are acked and reordered, landed
//! acks clear the cache, and each cached frame whose timeout has come due
//! is retransmitted or abandoned. A waiting receiver sleeps until the next
//! landing, the next timeout or its deadline, whichever comes first.
//!
//! Frame format on the wire: `"SNP1" | seq: u64 LE | payload…`; acks on the
//! reverse link are `"SNPA" | seq: u64 LE`.

use crate::link::{LinkConfig, LinkReceiver, LinkSender, WirelessLink};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DATA_MAGIC: &[u8; 4] = b"SNP1";
const ACK_MAGIC: &[u8; 4] = b"SNPA";

/// Snoop agent configuration.
#[derive(Debug, Clone)]
pub struct SnoopConfig {
    /// The (lossy) forward wireless link.
    pub link: LinkConfig,
    /// Retransmission timeout (wall time).
    pub rto: Duration,
    /// Maximum transmissions per frame (1 = no retries).
    pub max_attempts: u32,
}

impl Default for SnoopConfig {
    fn default() -> Self {
        SnoopConfig {
            link: LinkConfig::default(),
            rto: Duration::from_millis(50),
            max_attempts: 8,
        }
    }
}

/// Agent statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnoopStats {
    /// Frames accepted from the application.
    pub sent: u64,
    /// Frames acknowledged by the mobile side.
    pub acked: u64,
    /// Local retransmissions performed.
    pub retransmissions: u64,
    /// Frames abandoned after the retry budget.
    pub gave_up: u64,
}

struct Pending {
    payload: Vec<u8>,
    attempts: u32,
    last_tx: Instant,
}

/// Both sides of the hop, settled together under one lock.
struct Agent {
    fwd_tx: LinkSender,
    fwd_rx: LinkReceiver,
    ack_tx: LinkSender,
    ack_rx: LinkReceiver,
    state: Mutex<State>,
    /// Receivers wait here; a send, a landing and shutdown wake them.
    wake: Condvar,
    rto: Duration,
    max_attempts: u32,
}

struct State {
    next_seq: u64,
    /// The base station's cache: frames not yet acknowledged.
    cache: BTreeMap<u64, Pending>,
    /// The mobile side: the next sequence number owed to the
    /// application, frames that arrived ahead of it, and in-order output.
    next_deliver: u64,
    out_of_order: BTreeMap<u64, Vec<u8>>,
    ready: VecDeque<Vec<u8>>,
    stats: SnoopStats,
    down: bool,
}

/// The reliable-link pair: a sending agent and a reordering receiver.
pub struct SnoopLink {
    forward: WirelessLink,
    reverse: WirelessLink,
    agent: Arc<Agent>,
}

/// Application-facing sender (base-station side).
#[derive(Clone)]
pub struct SnoopSender {
    agent: Arc<Agent>,
}

/// Application-facing receiver (mobile side): in-order, duplicate-free.
pub struct SnoopReceiver {
    agent: Arc<Agent>,
}

impl SnoopLink {
    /// Builds the forward lossy link and a (lossless, fast) reverse ack
    /// channel. No thread is started: the endpoints run the agent.
    pub fn spawn(cfg: SnoopConfig) -> (SnoopLink, SnoopSender, SnoopReceiver) {
        let (forward, fwd_tx, fwd_rx) = WirelessLink::spawn(cfg.link.clone());
        // The ack path: small frames, assumed reliable (acks lost on a real
        // deployment are handled by the same timeout; keeping the reverse
        // channel clean isolates the mechanism under test).
        let (reverse, ack_tx, ack_rx) = WirelessLink::spawn(LinkConfig {
            bandwidth_bps: 10_000_000,
            propagation_delay: cfg.link.propagation_delay,
            loss_rate: 0.0,
            bit_error_rate: 0.0,
            time_scale: cfg.link.time_scale,
            seed: cfg.link.seed ^ 0xACED,
            queue_limit: usize::MAX,
        });
        let agent = Arc::new(Agent {
            fwd_tx,
            fwd_rx,
            ack_tx,
            ack_rx,
            state: Mutex::new(State {
                next_seq: 0,
                cache: BTreeMap::new(),
                next_deliver: 0,
                out_of_order: BTreeMap::new(),
                ready: VecDeque::new(),
                stats: SnoopStats::default(),
                down: false,
            }),
            wake: Condvar::new(),
            rto: cfg.rto,
            max_attempts: cfg.max_attempts,
        });
        (
            SnoopLink {
                forward,
                reverse,
                agent: agent.clone(),
            },
            SnoopSender {
                agent: agent.clone(),
            },
            SnoopReceiver { agent },
        )
    }

    /// The underlying forward link (to change bandwidth, read raw stats).
    pub fn forward_link(&self) -> &WirelessLink {
        &self.forward
    }

    /// Agent statistics, settled up to now.
    pub fn stats(&self) -> SnoopStats {
        let mut st = self.agent.state.lock();
        self.agent.settle(&mut st, Instant::now());
        st.stats
    }

    /// Takes both links down and wakes waiting receivers, which return
    /// what is already in order and then `None`.
    pub fn shutdown(&mut self) {
        self.forward.shutdown();
        self.reverse.shutdown();
        self.agent.state.lock().down = true;
        self.agent.wake.notify_all();
    }
}

impl Drop for SnoopLink {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl SnoopSender {
    /// Sends a payload reliably. Returns the assigned sequence number.
    pub fn send(&self, payload: Vec<u8>) -> u64 {
        let agent = &*self.agent;
        let mut st = agent.state.lock();
        let now = Instant::now();
        agent.settle(&mut st, now);
        let seq = st.next_seq;
        st.next_seq += 1;
        agent.fwd_tx.send(encode(DATA_MAGIC, seq, &payload));
        let pending = Pending {
            payload,
            attempts: 1,
            last_tx: now,
        };
        st.cache.insert(seq, pending);
        st.stats.sent += 1;
        drop(st);
        // This frame may be a receiver's next landing and next timeout.
        agent.wake.notify_all();
        seq
    }
}

impl SnoopReceiver {
    /// Receives the next in-order payload, waiting up to `timeout` (wall
    /// time; a timeout too long to represent as an instant waits with no
    /// deadline). `None` on timeout, or after shutdown once nothing in
    /// order is left.
    pub fn recv(&self, timeout: Duration) -> Option<Vec<u8>> {
        let deadline = Instant::now().checked_add(timeout);
        let agent = &*self.agent;
        let mut st = agent.state.lock();
        loop {
            let now = Instant::now();
            let next_rto = agent.settle(&mut st, now);
            if let Some(payload) = st.ready.pop_front() {
                return Some(payload);
            }
            if st.down || deadline.is_some_and(|d| now >= d) {
                return None;
            }
            let until = [agent.fwd_rx.next_delivery(), next_rto, deadline];
            match until.into_iter().flatten().min() {
                Some(until) => {
                    agent.wake.wait_until(&mut st, until);
                }
                None => agent.wake.wait(&mut st),
            }
        }
    }
}

impl Agent {
    /// Moves both sides of the hop to `now`. Returns when the earliest
    /// cached frame's timeout comes due, `None` with an empty cache.
    fn settle(&self, st: &mut State, now: Instant) -> Option<Instant> {
        // Mobile side: ack every landed frame, duplicates included (the
        // earlier ack or the original may still be in flight), and reorder
        // what is not yet delivered.
        while let Some(frame) = self.fwd_rx.try_recv() {
            let Some((seq, payload)) = decode(DATA_MAGIC, &frame) else {
                continue;
            };
            self.ack_tx.send(encode(ACK_MAGIC, seq, &[]));
            if seq >= st.next_deliver {
                st.out_of_order.insert(seq, payload.to_vec());
            }
        }
        while let Some(payload) = st.out_of_order.remove(&st.next_deliver) {
            st.ready.push_back(payload);
            st.next_deliver += 1;
        }
        if !st.ready.is_empty() {
            self.wake.notify_all();
        }
        // Base station: acknowledged frames leave the cache.
        while let Some(ack) = self.ack_rx.try_recv() {
            let acked = decode(ACK_MAGIC, &ack).and_then(|(seq, _)| st.cache.remove(&seq));
            st.stats.acked += u64::from(acked.is_some());
        }
        // Retransmit what has come due, or abandon it past the budget.
        let State { cache, stats, .. } = st;
        let mut next = None;
        cache.retain(|&seq, p| {
            if now >= p.last_tx + self.rto {
                if p.attempts >= self.max_attempts {
                    stats.gave_up += 1;
                    return false;
                }
                p.attempts += 1;
                p.last_tx = now;
                stats.retransmissions += 1;
                self.fwd_tx.send(encode(DATA_MAGIC, seq, &p.payload));
            }
            let due = p.last_tx + self.rto;
            next = Some(next.map_or(due, |n: Instant| n.min(due)));
            true
        });
        next
    }
}

fn encode(magic: &[u8; 4], seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(12 + payload.len());
    f.extend_from_slice(magic);
    f.extend_from_slice(&seq.to_le_bytes());
    f.extend_from_slice(payload);
    f
}

fn decode<'a>(magic: &[u8; 4], frame: &'a [u8]) -> Option<(u64, &'a [u8])> {
    if frame.len() < 12 || &frame[..4] != magic {
        return None;
    }
    let seq = u64::from_le_bytes(frame[4..12].try_into().ok()?);
    Some((seq, &frame[12..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_link(loss: f64, seed: u64) -> LinkConfig {
        LinkConfig {
            bandwidth_bps: 100_000_000,
            propagation_delay: Duration::ZERO,
            loss_rate: loss,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn lossless_path_delivers_in_order() {
        let (mut link, tx, rx) = SnoopLink::spawn(SnoopConfig {
            link: fast_link(0.0, 1),
            ..Default::default()
        });
        for i in 0..50u8 {
            tx.send(vec![i]);
        }
        for i in 0..50u8 {
            assert_eq!(rx.recv(Duration::from_secs(2)).unwrap(), vec![i]);
        }
        let stats = link.stats();
        assert_eq!(stats.sent, 50);
        assert_eq!(stats.retransmissions, 0);
        link.shutdown();
    }

    #[test]
    fn heavy_loss_is_fully_recovered() {
        // A 40%-lossy link would lose ~40 of 100 raw frames; the snoop
        // agent's local retransmissions recover every one of them, in
        // order — §2.1.2's whole point.
        let (mut link, tx, rx) = SnoopLink::spawn(SnoopConfig {
            link: fast_link(0.4, 7),
            rto: Duration::from_millis(20),
            max_attempts: 16,
        });
        for i in 0..100u8 {
            tx.send(vec![i; 32]);
        }
        for i in 0..100u8 {
            let p = rx.recv(Duration::from_secs(10)).expect("recovered");
            assert_eq!(p[0], i, "in-order despite loss");
        }
        let stats = link.stats();
        assert!(
            stats.retransmissions > 0,
            "losses must have triggered retries"
        );
        assert_eq!(stats.gave_up, 0);
        link.shutdown();
    }

    #[test]
    fn retry_budget_gives_up_eventually() {
        // A dead link (100% loss): every frame exhausts its budget.
        let (mut link, tx, rx) = SnoopLink::spawn(SnoopConfig {
            link: fast_link(1.0, 3),
            rto: Duration::from_millis(5),
            max_attempts: 3,
        });
        tx.send(vec![42]);
        assert!(rx.recv(Duration::from_millis(300)).is_none());
        let deadline = Instant::now() + Duration::from_secs(2);
        while link.stats().gave_up == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = link.stats();
        assert_eq!(stats.gave_up, 1);
        assert!(stats.retransmissions >= 2);
        link.shutdown();
    }

    #[test]
    fn duplicates_are_suppressed() {
        // Tiny RTO forces spurious retransmissions even without loss; the
        // receiver must still deliver each payload exactly once.
        let (mut link, tx, rx) = SnoopLink::spawn(SnoopConfig {
            link: LinkConfig {
                bandwidth_bps: 200_000, // slow enough that acks lag the RTO
                propagation_delay: Duration::from_millis(5),
                ..Default::default()
            },
            rto: Duration::from_millis(2),
            max_attempts: 10,
        });
        for i in 0..10u8 {
            tx.send(vec![i; 512]);
        }
        for i in 0..10u8 {
            assert_eq!(rx.recv(Duration::from_secs(5)).unwrap()[0], i);
        }
        // Nothing further arrives even though retransmissions happened.
        assert!(rx.recv(Duration::from_millis(100)).is_none());
        assert!(
            link.stats().retransmissions > 0,
            "RTO was tight enough to fire"
        );
        link.shutdown();
    }

    #[test]
    fn raw_link_loses_what_snoop_recovers() {
        // The ablation the paper implies: identical loss process, with and
        // without the snoop agent.
        let n = 100;
        let (raw_link, raw_tx, raw_rx) = WirelessLink::spawn(fast_link(0.4, 9));
        for i in 0..n as u8 {
            raw_tx.send(vec![i]);
        }
        let mut raw_got = 0;
        while raw_rx.recv(Duration::from_millis(150)).is_some() {
            raw_got += 1;
        }
        assert!(raw_got < n, "raw link must lose frames ({raw_got}/{n})");
        drop(raw_link);

        let (mut snoop, tx, rx) = SnoopLink::spawn(SnoopConfig {
            link: fast_link(0.4, 9),
            rto: Duration::from_millis(20),
            max_attempts: 16,
        });
        for i in 0..n as u8 {
            tx.send(vec![i]);
        }
        let mut snoop_got = 0;
        while rx.recv(Duration::from_millis(300)).is_some() {
            snoop_got += 1;
        }
        assert_eq!(snoop_got, n, "snoop recovers everything");
        snoop.shutdown();
    }

    #[test]
    fn recv_without_deadline_waits_for_a_frame_then_for_shutdown() {
        let (mut link, tx, rx) = SnoopLink::spawn(SnoopConfig {
            link: fast_link(0.0, 5),
            ..Default::default()
        });
        let (got_tx, got_rx) = std::sync::mpsc::channel();
        let receiver = std::thread::spawn(move || {
            got_tx.send(rx.recv(Duration::MAX)).unwrap();
            rx.recv(Duration::MAX)
        });
        tx.send(vec![9]);
        assert_eq!(got_rx.recv().unwrap(), Some(vec![9]));
        link.shutdown();
        assert_eq!(receiver.join().unwrap(), None);
    }

    #[test]
    fn a_frame_lost_while_the_receiver_waits_is_retransmitted_by_its_wait() {
        // Seed 12 loses the first copy at 50% loss, and nobody sends after
        // it: only the waiting receiver's timeout can retransmit it.
        let (mut link, tx, rx) = SnoopLink::spawn(SnoopConfig {
            link: fast_link(0.5, 12),
            rto: Duration::from_millis(5),
            max_attempts: 32,
        });
        let receiver = std::thread::spawn(move || rx.recv(Duration::MAX));
        std::thread::sleep(Duration::from_millis(10));
        tx.send(vec![1; 16]);
        assert_eq!(receiver.join().unwrap(), Some(vec![1; 16]));
        let stats = link.stats();
        assert!(stats.retransmissions >= 1, "the first copy was lost");
        assert_eq!(stats.gave_up, 0);
        link.shutdown();
    }

    #[test]
    fn frames_are_acked_while_the_application_does_not_receive() {
        // With no thread on the mobile side, a frame is acked only when a
        // settle sees it. The sender's own settles must ack what landed,
        // or every frame would exhaust its retry budget here.
        let (mut link, tx, rx) = SnoopLink::spawn(SnoopConfig {
            link: fast_link(0.0, 13),
            rto: Duration::from_millis(2),
            max_attempts: 3,
        });
        for i in 0..40u8 {
            tx.send(vec![i; 8]);
            std::thread::sleep(Duration::from_millis(1));
        }
        for i in 0..40u8 {
            assert_eq!(rx.recv(Duration::from_secs(5)), Some(vec![i; 8]));
        }
        let stats = link.stats();
        assert_eq!(stats.sent, 40);
        assert_eq!(stats.gave_up, 0);
        link.shutdown();
    }
}
