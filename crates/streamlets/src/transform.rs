//! Datatype-specific transformation streamlets (§4.3, §7.5).

use crate::codec::raster::{downsample, to_16_grays, Encoding, Image};
use mobigate_core::{CoreError, Emitter, StreamletCtx, StreamletDirectory, StreamletLogic};
use mobigate_mime::{MimeMessage, MimeType};

/// Registers the transformation streamlets.
pub fn register(directory: &StreamletDirectory) {
    directory.register("builtin/img_down_sample", "lossy down-sampling", || {
        Box::new(ImgDownSample::new(2))
    });
    directory.register("builtin/map_to_16_grays", "16-gray transcoding", || {
        Box::new(MapTo16Grays)
    });
    directory.register("builtin/gif2jpeg", "GIF→JPEG conversion", || {
        Box::new(Gif2Jpeg::new(40))
    });
    directory.register("builtin/postscript2text", "PostScript distillation", || {
        Box::new(Postscript2Text)
    });
}

fn decode_image(msg: &MimeMessage, who: &str) -> Result<(Image, Encoding, u8), CoreError> {
    Image::decode(&msg.body).map_err(|e| CoreError::Process {
        streamlet: who.to_string(),
        message: e.to_string(),
    })
}

/// Lossy compression of an image by reducing the sample rate (§4.3).
pub struct ImgDownSample {
    factor: u16,
}

impl ImgDownSample {
    /// Down-sampling factor ≥ 1 in each dimension.
    pub fn new(factor: u16) -> Self {
        ImgDownSample {
            factor: factor.max(1),
        }
    }
}

impl StreamletLogic for ImgDownSample {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        let (img, encoding, quality) = decode_image(&msg, ctx.instance())?;
        let reduced = downsample(&img, self.factor);
        let mut out = msg.clone();
        out.set_body(reduced.encode(encoding, quality));
        ctx.emit("po", out);
        Ok(())
    }

    // Stateless codec: batches share one dispatch and panic boundary.
    fn supports_batch(&self) -> bool {
        true
    }

    // Pure per-message transform: eligible for chain fusion.
    fn fusable(&self) -> bool {
        true
    }

    /// Control interface (§8.2.1): `factor = <n>` adjusts the sample-rate
    /// reduction at runtime.
    fn control(&mut self, key: &str, value: &str) -> Result<(), CoreError> {
        match key {
            "factor" => {
                self.factor = value
                    .parse::<u16>()
                    .ok()
                    .filter(|f| *f >= 1)
                    .ok_or_else(|| CoreError::Process {
                        streamlet: "img_down_sample".into(),
                        message: format!("invalid factor `{value}`"),
                    })?;
                Ok(())
            }
            other => Err(CoreError::NotFound {
                kind: "control parameter",
                name: other.to_string(),
            }),
        }
    }
}

/// Reducing images to 16 grays to support shallow grayscale displays
/// (§4.3) — triggered by LOW_GRAYS.
pub struct MapTo16Grays;

impl StreamletLogic for MapTo16Grays {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        let (img, _, quality) = decode_image(&msg, ctx.instance())?;
        let gray = to_16_grays(&img);
        let mut out = msg.clone();
        // 16-level gray runs compress extremely well under RLE, so the
        // quantized encoding is always the compact choice here.
        out.set_body(gray.encode(Encoding::Quantized, quality));
        ctx.emit("po", out);
        Ok(())
    }

    // Stateless codec: batches share one dispatch and panic boundary.
    fn supports_batch(&self) -> bool {
        true
    }

    // Pure per-message transform: eligible for chain fusion.
    fn fusable(&self) -> bool {
        true
    }
}

/// Converting incoming image messages into Jpeg format (§7.5): re-encodes
/// the palette (GIF-like) payload as quantized+RLE (JPEG-like) at a fixed
/// quality and rewrites the content type.
pub struct Gif2Jpeg {
    quality: u8,
}

impl Gif2Jpeg {
    /// Target JPEG-like quality (1..=100).
    pub fn new(quality: u8) -> Self {
        Gif2Jpeg {
            quality: quality.clamp(1, 100),
        }
    }
}

impl StreamletLogic for Gif2Jpeg {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        let (img, _, _) = decode_image(&msg, ctx.instance())?;
        let mut out = msg.clone();
        out.set_body(img.encode(Encoding::Quantized, self.quality));
        out.set_content_type(&MimeType::new("image", "jpeg"));
        ctx.emit("po", out);
        Ok(())
    }

    // Stateless codec: batches share one dispatch and panic boundary.
    fn supports_batch(&self) -> bool {
        true
    }

    // Pure per-message transform: eligible for chain fusion.
    fn fusable(&self) -> bool {
        true
    }

    /// Control interface (§8.2.1): `quality = 1..=100` adjusts the lossy
    /// re-encoding at runtime (the thesis's example is exactly this kind of
    /// compression-rate parameter).
    fn control(&mut self, key: &str, value: &str) -> Result<(), CoreError> {
        match key {
            "quality" => {
                self.quality = value
                    .parse::<u8>()
                    .ok()
                    .filter(|q| (1..=100).contains(q))
                    .ok_or_else(|| CoreError::Process {
                        streamlet: "gif2jpeg".into(),
                        message: format!("invalid quality `{value}`"),
                    })?;
                Ok(())
            }
            other => Err(CoreError::NotFound {
                kind: "control parameter",
                name: other.to_string(),
            }),
        }
    }
}

/// Discarding format information and converting documents to rich text
/// (§4.3): strips pseudo-PostScript operators, keeping the prose inside
/// `(…) show` strings.
pub struct Postscript2Text;

impl StreamletLogic for Postscript2Text {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        let text = String::from_utf8_lossy(&msg.body);
        let mut out_text = String::with_capacity(text.len() / 3);
        for line in text.lines() {
            // Extract every parenthesized string shown on this line.
            let mut rest = line;
            while let Some(start) = rest.find('(') {
                let Some(end_rel) = rest[start + 1..].find(')') else {
                    break;
                };
                let end = start + 1 + end_rel;
                out_text.push_str(&rest[start + 1..end]);
                out_text.push('\n');
                rest = &rest[end + 1..];
            }
        }
        let mut out = msg.clone();
        out.set_body(out_text.into_bytes());
        out.set_content_type(&MimeType::new("text", "richtext"));
        ctx.emit("po", out);
        Ok(())
    }

    // Stateless codec: batches share one dispatch and panic boundary.
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
        let mut outs = ctx.into_outputs();
        assert_eq!(outs.len(), 1);
        outs.pop().unwrap().1
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn downsample_shrinks_payload() {
        let msg = workload::image_message(&mut rng(), 64);
        let before = msg.body.len();
        let out = run(&mut ImgDownSample::new(2), msg);
        assert!(out.body.len() < before, "{} !< {before}", out.body.len());
        let (img, enc, _) = Image::decode(&out.body).unwrap();
        assert_eq!(img.width, 32);
        assert_eq!(enc, Encoding::Palette, "encoding preserved");
    }

    #[test]
    fn downsample_rejects_non_mgrf() {
        let mut ctx = StreamletCtx::new("t", None);
        let err = ImgDownSample::new(2)
            .process(MimeMessage::text("not an image"), &mut ctx)
            .expect_err("must fail");
        assert!(matches!(err, CoreError::Process { .. }));
    }

    #[test]
    fn gray_mapping_is_single_channel() {
        let msg = workload::image_message(&mut rng(), 32);
        let before = msg.body.len();
        let out = run(&mut MapTo16Grays, msg);
        let (img, enc, _) = Image::decode(&out.body).unwrap();
        assert_eq!(img.channels, 1);
        assert_eq!(enc, Encoding::Quantized);
        assert!(out.body.len() < before);
    }

    #[test]
    fn gif2jpeg_rewrites_type_and_reencodes() {
        let msg = workload::image_message(&mut rng(), 48);
        let out = run(&mut Gif2Jpeg::new(40), msg);
        assert_eq!(out.content_type(), MimeType::new("image", "jpeg"));
        let (_, enc, q) = Image::decode(&out.body).unwrap();
        assert_eq!(enc, Encoding::Quantized);
        assert_eq!(q, 40);
    }

    #[test]
    fn gif2jpeg_lower_quality_smaller_output() {
        let msg = workload::image_message(&mut rng(), 48);
        let hi = run(&mut Gif2Jpeg::new(95), msg.clone());
        let lo = run(&mut Gif2Jpeg::new(10), msg);
        assert!(lo.body.len() < hi.body.len());
    }

    #[test]
    fn postscript_distillation_keeps_prose_drops_operators() {
        let msg = workload::postscript_message(&mut rng(), 2048);
        let before = msg.body.len();
        let out = run(&mut Postscript2Text, msg);
        let text = String::from_utf8(out.body.to_vec()).unwrap();
        assert!(!text.contains("moveto"));
        assert!(!text.contains("findfont"));
        assert!(text.split_whitespace().count() > 10, "prose retained");
        assert!(out.body.len() < before, "distillation shrinks the document");
        assert_eq!(out.content_type(), MimeType::new("text", "richtext"));
    }

    #[test]
    fn postscript_handles_multiple_strings_per_line() {
        let raw = MimeMessage::new(
            &MimeType::new("application", "postscript"),
            &b"(a) show (b) show\n10 10 moveto (c) show\n"[..],
        );
        let out = run(&mut Postscript2Text, raw);
        assert_eq!(&out.body[..], b"a\nb\nc\n");
    }

    #[test]
    fn control_interface_adjusts_downsample_factor() {
        let mut ds = ImgDownSample::new(2);
        ds.control("factor", "4").unwrap();
        let out = run(&mut ds, workload::image_message(&mut rng(), 64));
        let (img, _, _) = Image::decode(&out.body).unwrap();
        assert_eq!(img.width, 16, "factor 4 applied");
        assert!(ds.control("factor", "0").is_err());
        assert!(ds.control("factor", "banana").is_err());
        assert!(ds.control("nope", "1").is_err());
    }

    #[test]
    fn control_interface_adjusts_jpeg_quality() {
        let mut g = Gif2Jpeg::new(90);
        let msg = workload::image_message(&mut rng(), 48);
        let hi = run(&mut g, msg.clone());
        g.control("quality", "10").unwrap();
        let lo = run(&mut g, msg);
        assert!(lo.body.len() < hi.body.len());
        assert!(g.control("quality", "0").is_err());
        assert!(g.control("quality", "101").is_err());
    }

    #[test]
    fn chain_matches_distillation_pipeline() {
        // switch→downsample→16grays path end-to-end at the logic level.
        let msg = workload::image_message(&mut rng(), 64);
        let a = run(&mut ImgDownSample::new(2), msg);
        let b = run(&mut MapTo16Grays, a);
        let (img, _, _) = Image::decode(&b.body).unwrap();
        assert_eq!((img.width, img.channels), (32, 1));
    }
}
