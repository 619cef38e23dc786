//! The generic text compressor and its client-side peer (§4.3, §6.5,
//! §7.5).
//!
//! `text_compress` LZSS-compresses the body, records the original content
//! type in `X-Original-Type`, and pushes its peer identifier onto the
//! `X-MobiGATE-Peer` chain so the client's Message Distributor can route
//! the message to `text_decompress` for reverse processing (§6.5).

use crate::codec::lzss;
use mobigate_core::{CoreError, Emitter, StreamletCtx, StreamletDirectory, StreamletLogic};
use mobigate_mime::{MimeMessage, MimeType};
use std::str::FromStr;

/// Peer identifier of the compressor (what the client looks up).
pub const DECOMPRESS_PEER: &str = "text_decompress";
/// Header preserving the pre-compression content type.
pub const ORIGINAL_TYPE: &str = "X-Original-Type";

/// Registers compressor and decompressor.
pub fn register(directory: &StreamletDirectory) {
    directory.register(
        "builtin/text_compress",
        "generic LZSS text compressor",
        || Box::new(TextCompress::default()),
    );
    directory.register("builtin/text_decompress", "peer decompressor", || {
        Box::new(TextDecompress)
    });
}

/// A generic text compressor — "this streamlet has the potential to reduce
/// the data size by up to 75%" (§7.5). It keeps one LZSS compressor's
/// tables for all its messages; each message is still compressed alone.
#[derive(Default)]
pub struct TextCompress {
    lzss: lzss::Compressor,
}

impl StreamletLogic for TextCompress {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        let compressed = self.lzss.compress(&msg.body);
        let mut out = msg.clone();
        out.headers
            .set(ORIGINAL_TYPE, msg.content_type().to_string());
        out.set_body(compressed);
        out.set_content_type(&MimeType::new("text", "x-lzss"));
        out.push_peer(DECOMPRESS_PEER);
        ctx.emit("po", out);
        Ok(())
    }

    // Its output depends on the message alone (the tables are scratch):
    // batches share one dispatch and panic boundary.
    fn supports_batch(&self) -> bool {
        true
    }

    // Pure per-message transform: eligible for chain fusion.
    fn fusable(&self) -> bool {
        true
    }
}

/// The client-side peer: reverses [`TextCompress`].
pub struct TextDecompress;

impl StreamletLogic for TextDecompress {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        let body = lzss::decompress(&msg.body).ok_or_else(|| CoreError::Process {
            streamlet: ctx.instance().to_string(),
            message: "corrupt LZSS stream".into(),
        })?;
        let mut out = msg.clone();
        out.set_body(body);
        let original = out
            .headers
            .get(ORIGINAL_TYPE)
            .and_then(|t| MimeType::from_str(t).ok())
            .unwrap_or_else(|| MimeType::new("text", "plain"));
        out.set_content_type(&original);
        out.headers.remove(ORIGINAL_TYPE);
        ctx.emit("po", out);
        Ok(())
    }

    // Stateless transform: batches share one dispatch and panic boundary.
    fn supports_batch(&self) -> bool {
        true
    }

    // Pure per-message transform: eligible for chain fusion.
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

    fn run(logic: &mut dyn StreamletLogic, msg: MimeMessage) -> MimeMessage {
        let mut ctx = StreamletCtx::new("t", None);
        logic.process(msg, &mut ctx).unwrap();
        ctx.into_outputs().pop().unwrap().1
    }

    #[test]
    fn compress_decompress_round_trip() {
        let mut rng = StdRng::seed_from_u64(21);
        let original = workload::text_message(&mut rng, 4096);
        let compressed = run(&mut TextCompress::default(), original.clone());
        assert!(compressed.body.len() < original.body.len() / 2);
        assert_eq!(compressed.content_type(), MimeType::new("text", "x-lzss"));
        assert_eq!(compressed.peer_chain(), vec![DECOMPRESS_PEER]);

        let restored = run(&mut TextDecompress, compressed);
        assert_eq!(restored.body, original.body);
        assert_eq!(restored.content_type(), original.content_type());
        assert!(restored.headers.get(ORIGINAL_TYPE).is_none());
    }

    #[test]
    fn reduction_reaches_paper_ballpark() {
        // §7.5: "the potential to reduce the data size by up to 75%".
        let mut rng = StdRng::seed_from_u64(22);
        let original = workload::text_message(&mut rng, 16 * 1024);
        let compressed = run(&mut TextCompress::default(), original.clone());
        let reduction = 1.0 - compressed.body.len() as f64 / original.body.len() as f64;
        assert!(
            reduction > 0.55,
            "expected strong reduction, got {reduction:.2}"
        );
    }

    #[test]
    fn original_type_preserved_for_richtext() {
        let msg = MimeMessage::new(&MimeType::new("text", "richtext"), &b"abc abc abc"[..]);
        let restored = run(&mut TextDecompress, run(&mut TextCompress::default(), msg));
        assert_eq!(restored.content_type(), MimeType::new("text", "richtext"));
    }

    #[test]
    fn decompress_rejects_corrupt_stream() {
        let mut bad = MimeMessage::new(&MimeType::new("text", "x-lzss"), &[0u8, 0xFF][..]);
        bad.push_peer(DECOMPRESS_PEER);
        let mut ctx = StreamletCtx::new("t", None);
        assert!(TextDecompress.process(bad, &mut ctx).is_err());
    }

    #[test]
    fn empty_body_round_trips() {
        let msg = MimeMessage::text("");
        let restored = run(
            &mut TextDecompress,
            run(&mut TextCompress::default(), msg.clone()),
        );
        assert_eq!(restored.body, msg.body);
    }
}
