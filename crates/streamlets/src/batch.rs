//! Batching and pagination streamlets.
//!
//! * [`Aggregate`] / [`Disaggregate`] — collect `n` consecutive messages
//!   into one `multipart/mixed` bundle (amortizing per-message link
//!   overheads on very slow links) and the client-side peer that unpacks
//!   it. This is the "aggregation (collecting and collating data from
//!   various sources)" service class of §1.2.1.
//! * [`Paginate`] — TranSend-style distillation (§2.2.1: "long HTML pages
//!   can be broken up into a series of short pages"): splits a text body
//!   into page-sized messages, each labeled with `X-Page`/`X-Page-Count`.

use mobigate_core::{CoreError, Emitter, StreamletCtx, StreamletDirectory, StreamletLogic};
use mobigate_mime::{multipart, MimeMessage};

/// Peer identifier of the aggregator.
pub const DISAGGREGATE_PEER: &str = "disaggregate";

/// Registers the batching streamlets.
pub fn register(directory: &StreamletDirectory) {
    directory.register(
        "builtin/aggregate",
        "bundle n messages into one multipart",
        || Box::new(Aggregate::new(4)),
    );
    directory.register("builtin/disaggregate", "peer of aggregate", || {
        Box::new(Disaggregate)
    });
    directory.register("builtin/paginate", "split long text into pages", || {
        Box::new(Paginate::new(4 * 1024))
    });
}

/// MCL definitions for the batching streamlets.
pub fn defs() -> &'static str {
    r#"
streamlet aggregate {
    port { in pi : */*; out po : multipart/mixed; }
    attribute { type = STATEFUL; library = "builtin/aggregate";
                description = "bundle n messages into one multipart"; }
}
streamlet disaggregate {
    port { in pi : multipart/mixed; out po : */*; }
    attribute { type = STATELESS; library = "builtin/disaggregate";
                description = "unpack multipart bundles"; }
}
streamlet paginate {
    port { in pi : text; out po : text; }
    attribute { type = STATELESS; library = "builtin/paginate";
                description = "split long text into pages"; }
}
"#
}

/// Bundles every `n` incoming messages into one multipart message, pushing
/// the `disaggregate` peer so the client unpacks transparently.
pub struct Aggregate {
    n: usize,
    pending: Vec<MimeMessage>,
    bundles: u64,
}

impl Aggregate {
    /// An aggregator with the given bundle size (≥ 1).
    pub fn new(n: usize) -> Self {
        Aggregate {
            n: n.max(1),
            pending: Vec::new(),
            bundles: 0,
        }
    }

    /// Messages waiting for the current bundle to fill.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    fn flush(&mut self, ctx: &mut StreamletCtx) {
        if self.pending.is_empty() {
            return;
        }
        let boundary = format!("agg{}", self.bundles);
        self.bundles += 1;
        let mut bundle = multipart::compose(&self.pending, &boundary);
        self.pending.clear();
        bundle.push_peer(DISAGGREGATE_PEER);
        ctx.emit("po", bundle);
    }
}

impl StreamletLogic for Aggregate {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        self.pending.push(msg);
        if self.pending.len() >= self.n {
            self.flush(ctx);
        }
        Ok(())
    }

    /// Control interface (§8.2.1): `bundle = <n>` adjusts the bundle size.
    fn control(&mut self, key: &str, value: &str) -> Result<(), CoreError> {
        match key {
            "bundle" => {
                self.n = value
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| CoreError::Process {
                        streamlet: "aggregate".into(),
                        message: format!("invalid bundle size `{value}`"),
                    })?;
                Ok(())
            }
            other => Err(CoreError::NotFound {
                kind: "control parameter",
                name: other.to_string(),
            }),
        }
    }

    fn on_pause(&mut self) {
        // A paused aggregator must not sit on a partial bundle forever; the
        // next activation re-accumulates. (Flushing here would need an
        // emitter; the stream drains on the next full bundle.)
    }

    fn reset(&mut self) {
        self.pending.clear();
        self.bundles = 0;
    }
}

/// Unpacks a multipart bundle into its member messages (the client-side
/// peer of [`Aggregate`]; also usable server-side).
pub struct Disaggregate;

impl StreamletLogic for Disaggregate {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        let parts = multipart::split(&msg).map_err(|e| CoreError::Process {
            streamlet: ctx.instance().to_string(),
            message: e.to_string(),
        })?;
        for part in parts {
            ctx.emit("po", part);
        }
        Ok(())
    }
}

/// Splits text bodies into pages of at most `page_size` bytes, split at
/// line boundaries when possible. Non-text messages pass through.
pub struct Paginate {
    page_size: usize,
}

impl Paginate {
    /// A paginator with the given page size (≥ 64 bytes).
    pub fn new(page_size: usize) -> Self {
        Paginate {
            page_size: page_size.max(64),
        }
    }
}

impl StreamletLogic for Paginate {
    /// Control interface (§8.2.1): `page_size = <bytes>` (min 64).
    fn control(&mut self, key: &str, value: &str) -> Result<(), CoreError> {
        match key {
            "page_size" => {
                self.page_size = value
                    .parse::<usize>()
                    .ok()
                    .filter(|s| *s >= 64)
                    .ok_or_else(|| CoreError::Process {
                        streamlet: "paginate".into(),
                        message: format!("invalid page size `{value}`"),
                    })?;
                Ok(())
            }
            other => Err(CoreError::NotFound {
                kind: "control parameter",
                name: other.to_string(),
            }),
        }
    }

    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        if !msg.has_top_type("text") || msg.body.len() <= self.page_size {
            ctx.emit("po", msg);
            return Ok(());
        }
        // Chunk at newline boundaries within the page budget.
        let body = &msg.body[..];
        let mut pages: Vec<&[u8]> = Vec::new();
        let mut start = 0usize;
        while start < body.len() {
            let hard_end = (start + self.page_size).min(body.len());
            let end = if hard_end == body.len() {
                hard_end
            } else {
                // Back up to the last newline in the window, if any.
                body[start..hard_end]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map(|p| start + p + 1)
                    .unwrap_or(hard_end)
            };
            pages.push(&body[start..end]);
            start = end;
        }
        let count = pages.len();
        for (i, page) in pages.into_iter().enumerate() {
            let mut out = msg.clone();
            out.set_body(page.to_vec());
            out.headers.set("X-Page", (i + 1).to_string());
            out.headers.set("X-Page-Count", count.to_string());
            ctx.emit("po", out);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobigate_mime::MimeType;

    fn run(logic: &mut dyn StreamletLogic, msg: MimeMessage) -> Vec<MimeMessage> {
        let mut ctx = StreamletCtx::new("t", None);
        logic.process(msg, &mut ctx).unwrap();
        ctx.into_outputs().into_iter().map(|(_, m)| m).collect()
    }

    #[test]
    fn aggregate_bundles_every_n() {
        let mut a = Aggregate::new(3);
        assert!(run(&mut a, MimeMessage::text("1")).is_empty());
        assert!(run(&mut a, MimeMessage::text("2")).is_empty());
        let out = run(&mut a, MimeMessage::text("3"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].peer_chain(), vec![DISAGGREGATE_PEER]);
        let parts = multipart::split(&out[0]).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(&parts[0].body[..], b"1");
        assert_eq!(&parts[2].body[..], b"3");
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn aggregate_round_trips_through_disaggregate() {
        let mut a = Aggregate::new(2);
        run(&mut a, MimeMessage::text("alpha"));
        let bundle = run(&mut a, MimeMessage::text("beta")).pop().unwrap();
        // Simulate the client: pop the peer then disaggregate.
        let mut b = bundle.clone();
        assert_eq!(b.pop_peer().as_deref(), Some(DISAGGREGATE_PEER));
        let parts = run(&mut Disaggregate, b);
        assert_eq!(parts.len(), 2);
        assert_eq!(&parts[0].body[..], b"alpha");
        assert_eq!(&parts[1].body[..], b"beta");
    }

    #[test]
    fn disaggregate_rejects_non_multipart() {
        let mut ctx = StreamletCtx::new("t", None);
        assert!(Disaggregate
            .process(MimeMessage::text("plain"), &mut ctx)
            .is_err());
    }

    #[test]
    fn aggregate_reset_clears_state() {
        let mut a = Aggregate::new(5);
        run(&mut a, MimeMessage::text("x"));
        assert_eq!(a.pending(), 1);
        a.reset();
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn paginate_splits_long_text_at_newlines() {
        let line = "a line of page text\n";
        let body = line.repeat(100); // 2000 bytes
        let mut p = Paginate::new(512);
        let pages = run(&mut p, MimeMessage::text(body.clone()));
        assert!(pages.len() >= 4, "{} pages", pages.len());
        // Every page except possibly the last ends on a line boundary.
        for page in &pages[..pages.len() - 1] {
            assert!(page.body.ends_with(b"\n"));
            assert!(page.body.len() <= 512);
        }
        // Concatenation restores the document.
        let rebuilt: Vec<u8> = pages.iter().flat_map(|p| p.body.to_vec()).collect();
        assert_eq!(rebuilt, body.as_bytes());
        // Page labels are consistent.
        let count = pages.len().to_string();
        assert_eq!(pages[0].headers.get("X-Page"), Some("1"));
        assert_eq!(pages[0].headers.get("X-Page-Count"), Some(count.as_str()));
    }

    #[test]
    fn paginate_passes_short_and_binary_through() {
        let mut p = Paginate::new(1024);
        let short = run(&mut p, MimeMessage::text("tiny"));
        assert_eq!(short.len(), 1);
        assert!(short[0].headers.get("X-Page").is_none());

        let binary = MimeMessage::new(&MimeType::new("image", "gif"), vec![0u8; 8192]);
        let out = run(&mut p, binary.clone());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].body, binary.body);
    }

    #[test]
    fn control_interfaces_adjust_parameters() {
        let mut a = Aggregate::new(4);
        a.control("bundle", "2").unwrap();
        assert!(run(&mut a, MimeMessage::text("1")).is_empty());
        assert_eq!(
            run(&mut a, MimeMessage::text("2")).len(),
            1,
            "bundle of 2 now"
        );
        assert!(a.control("bundle", "0").is_err());

        let mut p = Paginate::new(1024);
        p.control("page_size", "100").unwrap();
        let pages = run(&mut p, MimeMessage::text("y".repeat(250)));
        assert_eq!(pages.len(), 3);
        assert!(
            p.control("page_size", "10").is_err(),
            "below the 64-byte floor"
        );
        assert!(p.control("bogus", "1").is_err());
    }

    #[test]
    fn paginate_handles_unbreakable_text() {
        // No newlines at all: hard splits at the page size.
        let mut p = Paginate::new(100);
        let pages = run(&mut p, MimeMessage::text("x".repeat(350)));
        assert_eq!(pages.len(), 4);
        assert_eq!(pages[0].body.len(), 100);
        assert_eq!(pages[3].body.len(), 50);
    }
}
