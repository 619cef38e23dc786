//! Structural streamlets: redirector, switch, merge, cache, power saving.

use crate::codec::raster::{downsample, Encoding, Image};
use mobigate_core::{CoreError, Emitter, StreamletCtx, StreamletDirectory, StreamletLogic};
use mobigate_mime::{multipart, MimeMessage};
use std::collections::HashMap;
use std::collections::VecDeque;

/// Registers the structural streamlets.
pub fn register(directory: &StreamletDirectory) {
    directory.register(
        "builtin/redirector",
        "parse + re-encapsulate + forward",
        || Box::new(Redirector::default()),
    );
    directory.register("builtin/forward", "pass-through forwarder", || {
        Box::new(Forward)
    });
    directory.register("builtin/switch", "divide messages by semantic type", || {
        Box::new(Switch)
    });
    directory.register("builtin/merge", "integrate parts into a whole body", || {
        Box::new(Merge::default())
    });
    directory.register("builtin/cache", "content cache", || {
        Box::new(Cache::default())
    });
    directory.register("builtin/power_saving", "power-saving degradation", || {
        Box::new(PowerSaving)
    });
}

/// The §7.2 overhead probe: "its primary logic is to read and parse
/// incoming messages from its input port, encapsulating the necessary
/// headers and sending the messages to its relevant output port."
///
/// The parse is performed for real — the message's header block is
/// serialized and re-parsed — so a chain of redirectors measures the
/// inherent per-streamlet cost.
#[derive(Default)]
pub struct Redirector {
    hops: u64,
    /// The serialized header block of the message in hand, reused across
    /// messages.
    wire: String,
}

/// The header each redirector stamps with its hop count.
const HOP_HEADER: &str = "X-MobiGATE-Hop";

impl StreamletLogic for Redirector {
    fn process(&mut self, mut msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        self.hops += 1;
        // Serialize and re-parse the header block for real. The body is
        // *not* copied: §6.7 treats headers as meta-data while message data
        // stays in the pool and travels by reference. The parse lands in
        // the message's own block when nothing else shares it.
        self.wire.clear();
        msg.headers.to_wire_into(&mut self.wire);
        msg.headers
            .reparse(&self.wire)
            .map_err(|e| CoreError::Process {
                streamlet: ctx.instance().to_string(),
                message: e.to_string(),
            })?;
        // …encapsulate the necessary headers…
        msg.headers.set_u64(HOP_HEADER, self.hops);
        // …and forward.
        ctx.emit("po", msg);
        Ok(())
    }

    // Per-message behavior is independent, so a whole batch can share one
    // dispatch and panic boundary.
    fn supports_batch(&self) -> bool {
        true
    }

    // The hop counter is diagnostic, not cross-message coupling: each
    // message's transform is independent, so a redirector run can collapse
    // into one fused unit.
    fn fusable(&self) -> bool {
        true
    }

    fn reset(&mut self) {
        self.hops = 0;
    }
}

/// Pure pass-through: emits every message unchanged. Where [`Redirector`]
/// measures the §7.2 parse/re-encapsulate overhead, `Forward` isolates the
/// *transport* cost per hop — queueing, routing, and payload handling with
/// zero application work — which is what the memory-plane ablation scores.
pub struct Forward;

impl StreamletLogic for Forward {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        ctx.emit("po", msg);
        Ok(())
    }

    fn supports_batch(&self) -> bool {
        true
    }

    fn fusable(&self) -> bool {
        true
    }
}

/// Divides incoming messages based on the semantic type of the data
/// (§4.3): images go to `po1`, everything else to `po2`.
pub struct Switch;

impl StreamletLogic for Switch {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        if msg.has_top_type("image") {
            ctx.emit("po1", msg);
        } else {
            ctx.emit("po2", msg);
        }
        Ok(())
    }
}

/// Integrates different types of information into a whole body (§4.3).
///
/// Stateful: holds one pending image and one pending non-image message;
/// when both slots are filled it emits a `multipart/mixed` message. The
/// paper's Merge has two input ports; since the logic interface is
/// port-agnostic, classification falls back to the content type, which is
/// equivalent for the distillation pipeline (port `pi1` carries images,
/// `pi2` text).
#[derive(Default)]
pub struct Merge {
    images: VecDeque<MimeMessage>,
    texts: VecDeque<MimeMessage>,
    emitted: u64,
}

impl StreamletLogic for Merge {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        if msg.has_top_type("image") {
            self.images.push_back(msg);
        } else {
            self.texts.push_back(msg);
        }
        while let (Some(img), Some(txt)) = (self.images.front(), self.texts.front()) {
            let combined =
                multipart::compose(&[img.clone(), txt.clone()], &format!("mg{}", self.emitted));
            self.emitted += 1;
            self.images.pop_front();
            self.texts.pop_front();
            ctx.emit("po", combined);
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.images.clear();
        self.texts.clear();
        self.emitted = 0;
    }
}

/// A content cache keyed by the `X-Cache-Key` header: the first message
/// with a key populates the cache; later messages with the same key are
/// served the cached body (marked `X-Cache: HIT`). Messages without a key
/// pass through untouched.
#[derive(Default)]
pub struct Cache {
    entries: HashMap<String, MimeMessage>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }
    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

impl StreamletLogic for Cache {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        let Some(key) = msg.headers.get("X-Cache-Key").map(str::to_owned) else {
            ctx.emit("po", msg);
            return Ok(());
        };
        if let Some(cached) = self.entries.get(&key) {
            self.hits += 1;
            let mut hit = cached.clone();
            hit.headers.set("X-Cache", "HIT");
            ctx.emit("po", hit);
        } else {
            self.misses += 1;
            self.entries.insert(key, msg.clone());
            let mut miss = msg;
            miss.headers.set("X-Cache", "MISS");
            ctx.emit("po", miss);
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.entries.clear();
        self.hits = 0;
        self.misses = 0;
    }
}

/// The power-saving service entity invoked on LOW_ENERGY (§4.3): degrades
/// content to reduce client-side decode energy — images are down-sampled
/// 2× and re-encoded at low quality; text passes through with a marker
/// header so clients can dim rendering.
pub struct PowerSaving;

impl StreamletLogic for PowerSaving {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        let mut out = msg.clone();
        if msg.has_top_type("image") {
            if let Ok((img, _, _)) = Image::decode(&msg.body) {
                let reduced = downsample(&img, 2);
                out.set_body(reduced.encode(Encoding::Quantized, 30));
            }
        }
        out.headers.set("X-Power-Saving", "on");
        ctx.emit("po", out);
        Ok(())
    }

    // Pure per-message degradation: safe to chain-fuse.
    fn fusable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(logic: &mut dyn StreamletLogic, msg: MimeMessage) -> Vec<(String, MimeMessage)> {
        let mut ctx = StreamletCtx::new("test", None);
        logic.process(msg, &mut ctx).unwrap();
        ctx.into_outputs()
    }

    #[test]
    fn redirector_forwards_intact_with_hop_header() {
        let mut r = Redirector::default();
        let mut msg = MimeMessage::text("payload");
        msg.push_peer("someone");
        let outs = run(&mut r, msg.clone());
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, "po");
        assert_eq!(outs[0].1.body, msg.body);
        assert_eq!(outs[0].1.peer_chain(), vec!["someone"]);
        assert_eq!(outs[0].1.headers.get("X-MobiGATE-Hop"), Some("1"));
        let outs2 = run(&mut r, MimeMessage::text("x"));
        assert_eq!(outs2[0].1.headers.get("X-MobiGATE-Hop"), Some("2"));
        r.reset();
        let outs3 = run(&mut r, MimeMessage::text("x"));
        assert_eq!(outs3[0].1.headers.get("X-MobiGATE-Hop"), Some("1"));
    }

    #[test]
    fn switch_routes_by_type() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = Switch;
        let img = workload::image_message(&mut rng, 8);
        let txt = workload::text_message(&mut rng, 64);
        assert_eq!(run(&mut s, img)[0].0, "po1");
        assert_eq!(run(&mut s, txt)[0].0, "po2");
        // application/postscript is "not image" → po2.
        let ps = workload::postscript_message(&mut rng, 64);
        assert_eq!(run(&mut s, ps)[0].0, "po2");
    }

    #[test]
    fn merge_pairs_image_with_text() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = Merge::default();
        let img = workload::image_message(&mut rng, 8);
        assert!(
            run(&mut m, img.clone()).is_empty(),
            "waits for the text part"
        );
        let txt = workload::text_message(&mut rng, 32);
        let outs = run(&mut m, txt.clone());
        assert_eq!(outs.len(), 1);
        let parts = multipart::split(&outs[0].1).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].body, img.body);
        assert_eq!(parts[1].body, txt.body);
    }

    #[test]
    fn merge_queues_bursts_in_order() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = Merge::default();
        let i1 = workload::image_message(&mut rng, 8);
        let i2 = workload::image_message(&mut rng, 8);
        assert!(run(&mut m, i1.clone()).is_empty());
        assert!(run(&mut m, i2.clone()).is_empty());
        let t1 = workload::text_message(&mut rng, 16);
        let outs = run(&mut m, t1);
        assert_eq!(outs.len(), 1);
        let parts = multipart::split(&outs[0].1).unwrap();
        assert_eq!(parts[0].body, i1.body, "FIFO pairing");
    }

    #[test]
    fn cache_hit_serves_stored_body() {
        let mut c = Cache::default();
        let mut first = MimeMessage::text("original");
        first.headers.set("X-Cache-Key", "/index.html");
        let outs = run(&mut c, first);
        assert_eq!(outs[0].1.headers.get("X-Cache"), Some("MISS"));

        let mut second = MimeMessage::text("changed upstream");
        second.headers.set("X-Cache-Key", "/index.html");
        let outs = run(&mut c, second);
        assert_eq!(outs[0].1.headers.get("X-Cache"), Some("HIT"));
        assert_eq!(&outs[0].1.body[..], b"original");
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn cache_passthrough_without_key() {
        let mut c = Cache::default();
        let outs = run(&mut c, MimeMessage::text("anon"));
        assert!(outs[0].1.headers.get("X-Cache").is_none());
    }

    #[test]
    fn cache_reset_clears_entries() {
        let mut c = Cache::default();
        let mut m = MimeMessage::text("v");
        m.headers.set("X-Cache-Key", "k");
        run(&mut c, m.clone());
        c.reset();
        let outs = run(&mut c, m);
        assert_eq!(outs[0].1.headers.get("X-Cache"), Some("MISS"));
    }

    #[test]
    fn power_saving_shrinks_images_and_marks_text() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut p = PowerSaving;
        let img = workload::image_message(&mut rng, 64);
        let before = img.body.len();
        let outs = run(&mut p, img);
        assert!(
            outs[0].1.body.len() < before,
            "degraded image must be smaller"
        );
        assert_eq!(outs[0].1.headers.get("X-Power-Saving"), Some("on"));

        let txt = MimeMessage::text("hello");
        let outs = run(&mut p, txt);
        assert_eq!(&outs[0].1.body[..], b"hello");
        assert_eq!(outs[0].1.headers.get("X-Power-Saving"), Some("on"));
    }
}
