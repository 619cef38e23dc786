//! The closed-loop load generator every workload shares.
//!
//! The generator is the application at both ends of the gateway: it injects
//! wire-format messages at the server and takes the adapted messages from
//! the client. It keeps a fixed window of messages in flight — a closed
//! loop: the next message goes out only when one completes, so a slower
//! gateway receives less load instead of a growing backlog. Every message
//! carries a sequence number in the `X-Bench-Seq` header; on arrival the
//! generator checks it against what was sent (content, type, session, peer
//! chain consumed) and times it from the moment it was posted.

use crate::rig::{Gateway, SEQ_HEADER};
use mobigate::core::RunningStream;
use mobigate::mime::{MimeMessage, MimeType, SessionId};
use mobigate::streamlets::codec::raster::{Encoding, Image};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the generator waits for the next delivery before it declares
/// every message still in flight lost.
const RECV_TIMEOUT: Duration = Duration::from_secs(5);

/// Length of one slice of the measured window. Each end-to-end figure is
/// the median of its per-slice values, so a stall another tenant of the
/// host causes in one slice does not move the run's result.
pub const SLICE: Duration = Duration::from_secs(1);

/// One generated input: its wire form, and what the client must deliver.
pub struct Input {
    pub wire: Vec<u8>,
    pub expect: Expect,
}

impl Input {
    pub fn new(msg: &MimeMessage, expect: Expect) -> Self {
        Input {
            wire: msg.to_wire().to_vec(),
            expect,
        }
    }
}

/// What the client must deliver for an input.
pub enum Expect {
    /// The original `text/plain` body: every peer transform was reversed.
    Text(Vec<u8>),
    /// A JPEG-like image, down-sampled to `side` pixels square.
    Jpeg { side: u16 },
}

/// How to drive one run.
pub struct Plan<'a> {
    pub inputs: &'a [Input],
    /// Messages in flight at once.
    pub window: usize,
    /// Sessions that live for the whole run; the ones after them churn.
    pub survivors: usize,
    /// Messages a churning session carries before it is torn down and
    /// replaced by a fresh one.
    pub lifetime: u32,
    /// Traffic before the measured window: caches, pools and client
    /// threads settle.
    pub warmup: Duration,
    pub measure: Duration,
    pub seed: u64,
}

impl Plan<'_> {
    /// Slices in the measured window: whole seconds, at least one.
    pub fn slices(&self) -> usize {
        (self.measure.as_secs_f64() / SLICE.as_secs_f64())
            .ceil()
            .max(1.0) as usize
    }
}

/// What one run observed.
#[derive(Default)]
pub struct Outcome {
    /// Messages posted plus session spawns and teardowns.
    pub attempted: u64,
    /// Messages lost, refused or delivered wrong, plus failed session
    /// operations.
    pub failed: u64,
    /// The measured window, by slice of delivery time.
    pub slices: Vec<Slice>,
    /// Traced runs: per-message ingress, gateway, link and client spans, µs.
    pub spans_us: [Vec<f64>; 4],
    /// Session spawns and teardowns, ms.
    pub spawn_ms: Vec<f64>,
    pub teardown_ms: Vec<f64>,
}

/// Deliveries inside one slice of the measured window.
pub struct Slice {
    /// The slice's length, seconds.
    pub secs: f64,
    /// Correct deliveries.
    pub completed: u64,
    /// End-to-end latency of each one posted inside the window, ms.
    pub latency_ms: Vec<f64>,
}

impl Outcome {
    /// Adds another run's observations to this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.slices.extend(other.slices);
        for (span, more) in self.spans_us.iter_mut().zip(other.spans_us) {
            span.extend(more);
        }
        self.spawn_ms.extend(other.spawn_ms);
        self.teardown_ms.extend(other.teardown_ms);
    }
}

struct Slot {
    stream: Arc<RunningStream>,
    /// Messages the session may still carry (`None`: unlimited).
    budget: Option<u32>,
    inflight: u32,
}

struct Flight {
    slot: usize,
    input: usize,
    post_ns: u64,
    posted_ns: u64,
}

/// Drives `streams` for the plan's warm-up and measured window, then
/// waits for every message still in flight. Returns what it observed and
/// the streams live at the end.
pub fn run(
    gateway: &Gateway,
    streams: Vec<Arc<RunningStream>>,
    plan: &Plan,
) -> (Outcome, Vec<Arc<RunningStream>>) {
    let rig = &gateway.rig;
    // Separate generators, so the i-th message always carries the same
    // input whatever the timing did to slot choices and lifetimes.
    let mut input_rng = StdRng::seed_from_u64(plan.seed);
    let mut slot_rng = StdRng::seed_from_u64(plan.seed ^ 0x736c_6f74);

    let mut slots: Vec<Slot> = streams
        .into_iter()
        .enumerate()
        .map(|(i, stream)| Slot {
            stream,
            budget: (i >= plan.survivors).then_some(plan.lifetime),
            inflight: 0,
        })
        .collect();
    let slices = plan.slices();
    let mut out = Outcome {
        slices: (0..slices)
            .map(|_| Slice {
                secs: plan.measure.as_secs_f64() / slices as f64,
                completed: 0,
                latency_ms: Vec::new(),
            })
            .collect(),
        ..Default::default()
    };
    let mut inflight: HashMap<u64, Flight> = HashMap::new();
    let mut next_seq = 0u64;
    let mut wire = Vec::new();
    let measure_start = rig.now_ns() + plan.warmup.as_nanos() as u64;
    let end = measure_start + plan.measure.as_nanos() as u64;

    'run: loop {
        // Replace sessions that carried their share and have drained.
        for slot in slots
            .iter_mut()
            .filter(|s| s.budget == Some(0) && s.inflight == 0)
        {
            out.attempted += 2;
            let t = Instant::now();
            if !gateway.teardown(&slot.stream) {
                eprintln!("gatebench: teardown of {} failed", slot.stream.session());
                out.failed += 2;
                break 'run;
            }
            out.teardown_ms.push(millis(t.elapsed()));
            let t = Instant::now();
            match gateway.spawn() {
                Ok(stream) => slot.stream = stream,
                Err(e) => {
                    eprintln!("gatebench: session spawn failed: {e}");
                    out.failed += 1;
                    break 'run;
                }
            }
            out.spawn_ms.push(millis(t.elapsed()));
            slot.budget = Some(plan.lifetime);
        }

        // Fill the window.
        while inflight.len() < plan.window && rig.now_ns() < end {
            let Some(slot) = pick(&mut slot_rng, &slots) else {
                break;
            };
            let input = input_rng.gen_range(0..plan.inputs.len());
            let seq = next_seq;
            next_seq += 1;
            wire.clear();
            write!(wire, "{SEQ_HEADER}: {seq}\r\n").expect("write to a Vec");
            wire.extend_from_slice(&plan.inputs[input].wire);
            let s = &mut slots[slot];
            out.attempted += 1;
            let post_ns = rig.now_ns();
            if let Err(e) = s.stream.post_wire(&wire) {
                eprintln!("gatebench: post refused: {e}");
                out.failed += 1;
                continue;
            }
            let posted_ns = rig.now_ns();
            if let Some(b) = &mut s.budget {
                *b -= 1;
            }
            s.inflight += 1;
            inflight.insert(
                seq,
                Flight {
                    slot,
                    input,
                    post_ns,
                    posted_ns,
                },
            );
        }
        if inflight.is_empty() {
            if rig.now_ns() >= end {
                break;
            }
            continue;
        }

        let Some(msg) = rig.client().recv(RECV_TIMEOUT) else {
            eprintln!(
                "gatebench: {} messages not delivered within {RECV_TIMEOUT:?}",
                inflight.len()
            );
            out.failed += inflight.len() as u64;
            break;
        };
        let recv_ns = rig.now_ns();
        let arrived = msg
            .headers
            .get(SEQ_HEADER)
            .and_then(|v| v.trim().parse::<u64>().ok())
            .and_then(|seq| inflight.remove(&seq).map(|f| (seq, f)));
        let Some((seq, f)) = arrived else {
            eprintln!("gatebench: delivery matches no message in flight");
            out.failed += 1;
            continue;
        };
        // A session is replaced only once drained: the slot still holds
        // the stream this message was posted to.
        let slot = &mut slots[f.slot];
        slot.inflight -= 1;
        if !delivered_intact(&msg, &plan.inputs[f.input].expect, slot.stream.session()) {
            eprintln!("gatebench: message {seq} delivered wrong");
            out.failed += 1;
            continue;
        }
        if recv_ns < measure_start || recv_ns >= end {
            continue;
        }
        let slice = &mut out.slices
            [((recv_ns - measure_start) * slices as u64 / (end - measure_start)) as usize];
        slice.completed += 1;
        if f.post_ns < measure_start {
            continue;
        }
        slice.latency_ms.push((recv_ns - f.post_ns) as f64 / 1e6);
        if let Some(stamps) = rig.stamps() {
            let (sent, linked) = (stamps.sent_ns(seq), stamps.linked_ns(seq));
            let bounds = [f.post_ns, f.posted_ns, sent, linked, recv_ns];
            for (span, w) in out.spans_us.iter_mut().zip(bounds.windows(2)) {
                span.push(w[1].saturating_sub(w[0]) as f64 / 1e3);
            }
        }
    }
    (out, slots.into_iter().map(|s| s.stream).collect())
}

/// A uniformly chosen session that may still carry messages.
fn pick(rng: &mut StdRng, slots: &[Slot]) -> Option<usize> {
    let open = slots.iter().filter(|s| s.budget != Some(0)).count();
    if open == 0 {
        return None;
    }
    let n = rng.gen_range(0..open);
    slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.budget != Some(0))
        .nth(n)
        .map(|(i, _)| i)
}

fn delivered_intact(msg: &MimeMessage, expect: &Expect, session: &SessionId) -> bool {
    if msg.session().as_ref() != Some(session) || !msg.peer_chain().is_empty() {
        return false;
    }
    match expect {
        Expect::Text(body) => {
            msg.content_type() == MimeType::new("text", "plain") && msg.body[..] == body[..]
        }
        Expect::Jpeg { side } => {
            msg.content_type() == MimeType::new("image", "jpeg")
                && matches!(
                    Image::decode(&msg.body),
                    Ok((img, Encoding::Quantized, _)) if img.width == *side && img.height == *side
                )
        }
    }
}

pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
