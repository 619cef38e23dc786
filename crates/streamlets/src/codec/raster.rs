//! `MGRF` — the synthetic raster-image format behind the image streamlets.
//!
//! The paper's experiments transcode real GIF/JPEG images; those data sets
//! are unavailable, so this module implements a compact raster format with
//! three encodings whose *size behaviour* under the paper's
//! transformations is faithful:
//!
//! * [`Encoding::Raw`] — one byte per sample;
//! * [`Encoding::Palette`] — a 256-entry RGB palette plus one index byte
//!   per pixel (GIF-like);
//! * [`Encoding::Quantized`] — samples quantized to a quality-dependent
//!   number of levels then run-length encoded (JPEG-like: lossy, and
//!   smoother images compress better).
//!
//! Header layout (little-endian):
//! ```text
//! magic "MGRF" | version u8 | encoding u8 | channels u8 | quality u8 |
//! width u16 | height u16 | payload_len u32 | payload…
//! ```

use std::fmt;

/// Magic prefix of every MGRF image.
pub const MAGIC: &[u8; 4] = b"MGRF";
const VERSION: u8 = 1;
const HEADER_LEN: usize = 4 + 1 + 1 + 1 + 1 + 2 + 2 + 4;

/// Payload encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// One byte per sample (w × h × channels bytes).
    Raw,
    /// GIF-like: global palette + pixel indices (channels collapse to 1
    /// index referencing RGB entries).
    Palette,
    /// JPEG-like: quantized samples + RLE; `quality` (1..=100) sets the
    /// quantization step.
    Quantized,
}

impl Encoding {
    fn code(self) -> u8 {
        match self {
            Encoding::Raw => 0,
            Encoding::Palette => 1,
            Encoding::Quantized => 2,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(Encoding::Raw),
            1 => Some(Encoding::Palette),
            2 => Some(Encoding::Quantized),
            _ => None,
        }
    }
}

/// Errors decoding MGRF data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RasterError {
    /// Not an MGRF buffer / truncated header.
    BadHeader,
    /// Unknown encoding or version.
    Unsupported,
    /// Payload inconsistent with the header.
    BadPayload(&'static str),
}

impl fmt::Display for RasterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RasterError::BadHeader => write!(f, "bad or truncated MGRF header"),
            RasterError::Unsupported => write!(f, "unsupported MGRF version or encoding"),
            RasterError::BadPayload(why) => write!(f, "bad MGRF payload: {why}"),
        }
    }
}

impl std::error::Error for RasterError {}

/// A decoded image: planar-interleaved samples, one byte each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Pixels per row.
    pub width: u16,
    /// Rows.
    pub height: u16,
    /// Samples per pixel (3 = RGB, 1 = gray).
    pub channels: u8,
    /// `width × height × channels` samples, row-major, channel-interleaved.
    pub samples: Vec<u8>,
}

impl Image {
    /// Allocates a black image.
    pub fn new(width: u16, height: u16, channels: u8) -> Self {
        let n = width as usize * height as usize * channels as usize;
        Image {
            width,
            height,
            channels,
            samples: vec![0; n],
        }
    }

    /// Pixel count.
    pub fn pixels(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Encodes into MGRF bytes.
    ///
    /// The output bytes are a contract (gateway and client must agree on
    /// them, and sizes feed the paper's figures); the tests hold this
    /// encoder to a reference implementation byte for byte.
    pub fn encode(&self, encoding: Encoding, quality: u8) -> Vec<u8> {
        let quality = quality.clamp(1, 100);
        let payload_hint = match encoding {
            Encoding::Raw => self.samples.len(),
            Encoding::Palette => 768 + self.pixels(),
            // The RLE size depends on the content: let the buffer grow.
            Encoding::Quantized => 0,
        };
        let mut out = Vec::with_capacity(HEADER_LEN + payload_hint);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(encoding.code());
        out.push(self.channels);
        out.push(quality);
        out.extend_from_slice(&self.width.to_le_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        out.extend_from_slice(&[0; 4]); // payload_len, patched below
        match encoding {
            Encoding::Raw => out.extend_from_slice(&self.samples),
            Encoding::Palette => encode_palette(self, &mut out),
            Encoding::Quantized => encode_quantized(self, quality, &mut out),
        }
        let payload_len = (out.len() - HEADER_LEN) as u32;
        out[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
        out
    }

    /// Decodes MGRF bytes. Lossy encodings reconstruct approximations.
    pub fn decode(data: &[u8]) -> Result<(Image, Encoding, u8), RasterError> {
        if data.len() < HEADER_LEN || &data[..4] != MAGIC {
            return Err(RasterError::BadHeader);
        }
        if data[4] != VERSION {
            return Err(RasterError::Unsupported);
        }
        let encoding = Encoding::from_code(data[5]).ok_or(RasterError::Unsupported)?;
        let channels = data[6];
        let quality = data[7];
        let width = u16::from_le_bytes([data[8], data[9]]);
        let height = u16::from_le_bytes([data[10], data[11]]);
        let payload_len = u32::from_le_bytes([data[12], data[13], data[14], data[15]]) as usize;
        if data.len() < HEADER_LEN + payload_len {
            return Err(RasterError::BadPayload("truncated payload"));
        }
        if channels == 0 || channels > 4 {
            return Err(RasterError::BadPayload("invalid channel count"));
        }
        if width == 0 || height == 0 {
            return Err(RasterError::BadPayload("zero image dimension"));
        }
        let payload = &data[HEADER_LEN..HEADER_LEN + payload_len];
        let n = width as usize * height as usize * channels as usize;
        let samples = match encoding {
            Encoding::Raw => {
                if payload.len() != n {
                    return Err(RasterError::BadPayload("raw size mismatch"));
                }
                payload.to_vec()
            }
            Encoding::Palette => decode_palette(payload, width, height, channels)?,
            Encoding::Quantized => decode_quantized(payload, n, channels)?,
        };
        Ok((
            Image {
                width,
                height,
                channels,
                samples,
            },
            encoding,
            quality,
        ))
    }
}

// --- palette (GIF-like) ------------------------------------------------------

/// Palette encoding: 256 RGB entries (768 bytes) + one index per pixel.
/// Colors are quantized to a 3-3-2-bit cube (the classic web-safe trick),
/// so encoding is lossy but decode(encode(x)) is stable. One- and
/// two-channel images (gray, gray+alpha) index by their gray sample.
fn encode_palette(img: &Image, out: &mut Vec<u8>) {
    // Fixed 3-3-2 palette.
    for idx in 0u16..256 {
        let i = idx as u8;
        let r = (i >> 5) & 0b111;
        let g = (i >> 2) & 0b111;
        let b = i & 0b11;
        out.push(r << 5 | r << 2 | r >> 1);
        out.push(g << 5 | g << 2 | g >> 1);
        out.push(b << 6 | b << 4 | b << 2 | b);
    }
    let ch = img.channels as usize;
    for p in 0..img.pixels() {
        let (r, g, b) = match ch {
            1 | 2 => {
                let v = img.samples[p * ch];
                (v, v, v)
            }
            _ => (
                img.samples[p * ch],
                img.samples[p * ch + 1],
                img.samples[p * ch + 2],
            ),
        };
        out.push((r & 0xE0) | ((g & 0xE0) >> 3) | (b >> 6));
    }
}

/// Expands palette indices to `channels` samples per pixel: RGB for three
/// or more channels, luma for fewer, and 255 (opaque alpha) for the rest.
fn decode_palette(
    payload: &[u8],
    width: u16,
    height: u16,
    channels: u8,
) -> Result<Vec<u8>, RasterError> {
    let pixels = width as usize * height as usize;
    if payload.len() != 768 + pixels {
        return Err(RasterError::BadPayload("palette size mismatch"));
    }
    let (palette, indices) = payload.split_at(768);
    let ch = channels as usize;
    let mut samples = vec![255u8; pixels * ch];
    if ch >= 3 {
        for (px, &idx) in samples.chunks_exact_mut(ch).zip(indices) {
            let base = idx as usize * 3;
            px[..3].copy_from_slice(&palette[base..base + 3]);
        }
    } else {
        let grays: [u8; 256] =
            std::array::from_fn(|i| luma(palette[i * 3], palette[i * 3 + 1], palette[i * 3 + 2]));
        for (px, &idx) in samples.chunks_exact_mut(ch).zip(indices) {
            px[0] = grays[idx as usize];
        }
    }
    Ok(samples)
}

// --- quantized + RLE (JPEG-like) ---------------------------------------------

fn quant_step(quality: u8) -> u16 {
    // quality 100 → step 1 (lossless-ish); quality 1 → step 64.
    let q = quality.clamp(1, 100) as u16;
    1 + (100 - q) * 63 / 99
}

/// Pixels per step of the blocked plane split.
const BLOCK: usize = 8;

/// Quantize samples then RLE-encode as `(count, value)` pairs.
///
/// Channels are encoded as separate *planes* (all R, then all G, …): within
/// a plane neighbouring pixels are similar, so quantized runs are long —
/// interleaved samples would alternate channels and defeat the RLE
/// entirely. One blocked pass quantizes the samples into contiguous
/// planes, then each plane is run-length coded a word at a time.
fn encode_quantized(img: &Image, quality: u8, out: &mut Vec<u8>) {
    let step = quant_step(quality);
    let quantize: [u8; 256] = std::array::from_fn(|s| ((s as u16 / step) * step) as u8);
    let ch = img.channels as usize;
    let pixels = img.pixels();
    let samples = &img.samples[..pixels * ch];
    if samples.is_empty() {
        return;
    }
    let mut planes = vec![0u8; samples.len()];
    match ch {
        1 => split_planes::<1>(samples, &quantize, &mut planes),
        2 => split_planes::<2>(samples, &quantize, &mut planes),
        3 => split_planes::<3>(samples, &quantize, &mut planes),
        4 => split_planes::<4>(samples, &quantize, &mut planes),
        _ => {
            for (c, plane) in planes.chunks_exact_mut(pixels).enumerate() {
                for (d, &s) in plane.iter_mut().zip(samples[c..].iter().step_by(ch)) {
                    *d = quantize[usize::from(s)];
                }
            }
        }
    }
    for plane in planes.chunks_exact(pixels) {
        rle_plane(plane, out);
    }
}

/// Quantizes `C`-channel interleaved `samples` into `planes` (plane-major,
/// `planes.len() == samples.len()`), [`BLOCK`] pixels per step.
fn split_planes<const C: usize>(samples: &[u8], quantize: &[u8; 256], planes: &mut [u8]) {
    let pixels = samples.len() / C;
    let mut rest = planes;
    let mut dst: [&mut [u8]; C] = std::array::from_fn(|_| {
        let (plane, tail) = std::mem::take(&mut rest).split_at_mut(pixels);
        rest = tail;
        plane
    });
    let blocks = samples.chunks_exact(BLOCK * C);
    let tail = blocks.remainder();
    for (at, block) in (0..).step_by(BLOCK).zip(blocks) {
        for (c, plane) in dst.iter_mut().enumerate() {
            for (i, d) in plane[at..at + BLOCK].iter_mut().enumerate() {
                *d = quantize[usize::from(block[i * C + c])];
            }
        }
    }
    let done = pixels - tail.len() / C;
    for (p, px) in (done..).zip(tail.chunks_exact(C)) {
        for (plane, &s) in dst.iter_mut().zip(px) {
            plane[p] = quantize[usize::from(s)];
        }
    }
}

/// Appends `plane`'s `(count, value)` runs to `out`, splitting runs longer
/// than 255 samples.
fn rle_plane(plane: &[u8], out: &mut Vec<u8>) {
    let mut start = 0;
    while let Some(&value) = plane.get(start) {
        let end = run_end(plane, start + 1, value);
        let mut count = end - start;
        while count > 255 {
            out.extend_from_slice(&[255, value]);
            count -= 255;
        }
        out.extend_from_slice(&[count as u8, value]);
        start = end;
    }
}

/// The first index at or after `from` whose sample is not `value`, or
/// `plane.len()`. Eight samples at a time: XOR against `value` in every
/// byte leaves the first differing sample as the lowest nonzero byte.
fn run_end(plane: &[u8], mut from: usize, value: u8) -> usize {
    let splat = u64::from_ne_bytes([value; 8]);
    while let Some(word) = plane[from..].first_chunk::<8>() {
        let diff = u64::from_le_bytes(*word) ^ splat;
        if diff != 0 {
            return from + (diff.trailing_zeros() / 8) as usize;
        }
        from += 8;
    }
    from + plane[from..].iter().take_while(|&&s| s == value).count()
}

/// Expands `(count, value)` runs into `n` channel-interleaved samples.
///
/// Every run is checked before the output is allocated, so a header
/// claiming more samples than the runs carry (at most 255 per pair) is
/// rejected without reserving `n` bytes. The runs then fill the planes
/// back to back (a run may continue into the next plane), and one pass
/// interleaves them; a single plane already is the image.
fn decode_quantized(payload: &[u8], n: usize, channels: u8) -> Result<Vec<u8>, RasterError> {
    if !payload.len().is_multiple_of(2) {
        return Err(RasterError::BadPayload("odd RLE payload"));
    }
    let mut total = 0usize;
    for pair in payload.chunks_exact(2) {
        if pair[0] == 0 {
            return Err(RasterError::BadPayload("zero RLE run"));
        }
        total += pair[0] as usize;
    }
    if total != n {
        return Err(RasterError::BadPayload("RLE sample count mismatch"));
    }
    let mut planes = vec![0u8; n];
    let mut at = 0;
    for pair in payload.chunks_exact(2) {
        let count = usize::from(pair[0]);
        planes[at..at + count].fill(pair[1]);
        at += count;
    }
    // `Image::decode` admits 1..=4 channels.
    Ok(match channels {
        1 => planes,
        2 => interleave::<2>(&planes),
        3 => interleave::<3>(&planes),
        _ => interleave::<4>(&planes),
    })
}

/// Interleaves `C` (at most 4) back-to-back planes into pixel order.
fn interleave<const C: usize>(planes: &[u8]) -> Vec<u8> {
    const { assert!(C <= 4) };
    let pixels = planes.len() / C;
    let src: [&[u8]; C] = std::array::from_fn(|c| &planes[c * pixels..(c + 1) * pixels]);
    let word = |p: usize| (0..C).fold(0u32, |w, c| w | u32::from(src[c][p]) << (8 * c));
    let mut samples = vec![0u8; planes.len()];
    // One 4-byte store per pixel, whose spill the next pixel overwrites;
    // the last pixels, whose store would run past the end, go bytewise.
    let wide = samples.len().checked_sub(4).map_or(0, |room| room / C + 1);
    for p in 0..wide {
        samples[p * C..p * C + 4].copy_from_slice(&word(p).to_le_bytes());
    }
    for p in wide..pixels {
        samples[p * C..p * C + C].copy_from_slice(&word(p).to_le_bytes()[..C]);
    }
    samples
}

// --- transformations used by the streamlets -----------------------------------

/// ITU-R 601 luma approximation in integer math.
pub fn luma(r: u8, g: u8, b: u8) -> u8 {
    ((77 * r as u32 + 150 * g as u32 + 29 * b as u32) >> 8) as u8
}

/// Down-samples by an integer factor in both dimensions (point sampling) —
/// the `img_down_sample` streamlet's kernel.
pub fn downsample(img: &Image, factor: u16) -> Image {
    let factor = factor.max(1);
    let nw = (img.width / factor).max(1);
    let nh = (img.height / factor).max(1);
    let mut out = Image::new(nw, nh, img.channels);
    let (ch, factor) = (img.channels as usize, usize::from(factor));
    if ch == 0 {
        return out;
    }
    // A constant channel count turns each pixel copy into a fixed-size move.
    match ch {
        1 => sample_rows(img, factor, 1, &mut out),
        2 => sample_rows(img, factor, 2, &mut out),
        3 => sample_rows(img, factor, 3, &mut out),
        4 => sample_rows(img, factor, 4, &mut out),
        _ => sample_rows(img, factor, ch, &mut out),
    }
    out
}

/// Fills `out`'s rows with every `factor`-th pixel of every `factor`-th
/// row of `img`, `ch > 0` samples per pixel.
#[inline(always)]
fn sample_rows(img: &Image, factor: usize, ch: usize, out: &mut Image) {
    let (w, h) = (usize::from(img.width), usize::from(img.height));
    let row_len = usize::from(out.width) * ch;
    for (y, dst) in out.samples.chunks_exact_mut(row_len).enumerate() {
        let sy = (y * factor).min(h - 1);
        let src = &img.samples[sy * w * ch..];
        for (x, px) in dst.chunks_exact_mut(ch).enumerate() {
            let sx = (x * factor).min(w - 1) * ch;
            px.copy_from_slice(&src[sx..sx + ch]);
        }
    }
}

/// Converts to 16 gray levels, one channel — the `map_to_16_grays`
/// streamlet's kernel.
pub fn to_16_grays(img: &Image) -> Image {
    let ch = img.channels as usize;
    let mut out = Image::new(img.width, img.height, 1);
    for p in 0..img.pixels() {
        // One and two channels (gray, gray+alpha) carry gray in sample 0.
        let g = match ch {
            1 | 2 => img.samples[p * ch],
            _ => luma(
                img.samples[p * ch],
                img.samples[p * ch + 1],
                img.samples[p * ch + 2],
            ),
        };
        out.samples[p] = (g / 16) * 17; // 16 levels spread over 0..=255
    }
    out
}

/// A straightforward implementation kept as the codec's specification:
/// the equivalence tests hold [`Image::encode`] and [`Image::decode`] to
/// its bytes and accept/reject decisions, except where the shipped codec
/// deliberately differs (zero dimensions, two-channel palettes, and
/// allocating before checking the runs), and hold [`downsample`] to its
/// output.
#[cfg(test)]
mod reference {
    use super::{luma, quant_step, Encoding, Image, RasterError, HEADER_LEN, MAGIC, VERSION};

    /// Encodes into MGRF bytes.
    pub(super) fn encode(img: &Image, encoding: Encoding, quality: u8) -> Vec<u8> {
        let quality = quality.clamp(1, 100);
        let payload = match encoding {
            Encoding::Raw => img.samples.clone(),
            Encoding::Palette => encode_palette(img),
            Encoding::Quantized => encode_quantized(img, quality),
        };
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(encoding.code());
        out.push(img.channels);
        out.push(quality);
        out.extend_from_slice(&img.width.to_le_bytes());
        out.extend_from_slice(&img.height.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes MGRF bytes. Lossy encodings reconstruct approximations.
    pub(super) fn decode(data: &[u8]) -> Result<(Image, Encoding, u8), RasterError> {
        if data.len() < HEADER_LEN || &data[..4] != MAGIC {
            return Err(RasterError::BadHeader);
        }
        if data[4] != VERSION {
            return Err(RasterError::Unsupported);
        }
        let encoding = Encoding::from_code(data[5]).ok_or(RasterError::Unsupported)?;
        let channels = data[6];
        let quality = data[7];
        let width = u16::from_le_bytes([data[8], data[9]]);
        let height = u16::from_le_bytes([data[10], data[11]]);
        let payload_len = u32::from_le_bytes([data[12], data[13], data[14], data[15]]) as usize;
        if data.len() < HEADER_LEN + payload_len {
            return Err(RasterError::BadPayload("truncated payload"));
        }
        if channels == 0 || channels > 4 {
            return Err(RasterError::BadPayload("invalid channel count"));
        }
        let payload = &data[HEADER_LEN..HEADER_LEN + payload_len];
        let n = width as usize * height as usize * channels as usize;
        let samples = match encoding {
            Encoding::Raw => {
                if payload.len() != n {
                    return Err(RasterError::BadPayload("raw size mismatch"));
                }
                payload.to_vec()
            }
            Encoding::Palette => decode_palette(payload, width, height, channels)?,
            Encoding::Quantized => decode_quantized(payload, n, channels, quality)?,
        };
        Ok((
            Image {
                width,
                height,
                channels,
                samples,
            },
            encoding,
            quality,
        ))
    }

    /// Palette encoding: 256 RGB entries (768 bytes) + one index per pixel.
    /// Colors are quantized to a 3-3-2-bit cube (the classic web-safe trick),
    /// so encoding is lossy but decode(encode(x)) is stable.
    fn encode_palette(img: &Image) -> Vec<u8> {
        let mut out = Vec::with_capacity(768 + img.pixels());
        // Fixed 3-3-2 palette.
        for idx in 0u16..256 {
            let i = idx as u8;
            let r = (i >> 5) & 0b111;
            let g = (i >> 2) & 0b111;
            let b = i & 0b11;
            out.push(r << 5 | r << 2 | r >> 1);
            out.push(g << 5 | g << 2 | g >> 1);
            out.push(b << 6 | b << 4 | b << 2 | b);
        }
        let ch = img.channels as usize;
        for p in 0..img.pixels() {
            let (r, g, b) = match ch {
                1 => {
                    let v = img.samples[p];
                    (v, v, v)
                }
                _ => (
                    img.samples[p * ch],
                    img.samples[p * ch + 1],
                    img.samples[p * ch + ch.min(3) - 1],
                ),
            };
            out.push((r & 0xE0) | ((g & 0xE0) >> 3) | (b >> 6));
        }
        out
    }

    fn decode_palette(
        payload: &[u8],
        width: u16,
        height: u16,
        channels: u8,
    ) -> Result<Vec<u8>, RasterError> {
        let pixels = width as usize * height as usize;
        if payload.len() != 768 + pixels {
            return Err(RasterError::BadPayload("palette size mismatch"));
        }
        let (palette, indices) = payload.split_at(768);
        let ch = channels as usize;
        let mut samples = Vec::with_capacity(pixels * ch);
        for &idx in indices {
            let base = idx as usize * 3;
            let (r, g, b) = (palette[base], palette[base + 1], palette[base + 2]);
            match ch {
                1 => samples.push(luma(r, g, b)),
                3 => samples.extend_from_slice(&[r, g, b]),
                _ => {
                    samples.extend_from_slice(&[r, g, b]);
                    samples.extend(std::iter::repeat_n(255, ch.saturating_sub(3)));
                }
            }
        }
        Ok(samples)
    }

    /// Quantize samples then RLE-encode as `(count, value)` pairs.
    ///
    /// Channels are encoded as separate *planes* (all R, then all G, …): within
    /// a plane neighbouring pixels are similar, so quantized runs are long —
    /// interleaved samples would alternate channels and defeat the RLE
    /// entirely.
    fn encode_quantized(img: &Image, quality: u8) -> Vec<u8> {
        let step = quant_step(quality);
        let ch = img.channels as usize;
        let pixels = img.pixels();
        let mut out = Vec::new();
        for c in 0..ch {
            let mut iter = (0..pixels)
                .map(|p| img.samples[p * ch + c])
                .map(|s| ((s as u16 / step) * step) as u8);
            let Some(mut current) = iter.next() else {
                continue;
            };
            let mut count: u8 = 1;
            for v in iter {
                if v == current && count < 255 {
                    count += 1;
                } else {
                    out.push(count);
                    out.push(current);
                    current = v;
                    count = 1;
                }
            }
            out.push(count);
            out.push(current);
        }
        out
    }

    fn decode_quantized(
        payload: &[u8],
        n: usize,
        channels: u8,
        _quality: u8,
    ) -> Result<Vec<u8>, RasterError> {
        if !payload.len().is_multiple_of(2) {
            return Err(RasterError::BadPayload("odd RLE payload"));
        }
        let ch = channels as usize;
        if !n.is_multiple_of(ch) {
            return Err(RasterError::BadPayload(
                "sample count not divisible by channels",
            ));
        }
        // Expand the concatenated planes…
        let mut planes = Vec::with_capacity(n);
        for pair in payload.chunks_exact(2) {
            let (count, value) = (pair[0] as usize, pair[1]);
            if count == 0 {
                return Err(RasterError::BadPayload("zero RLE run"));
            }
            planes.extend(std::iter::repeat_n(value, count));
        }
        if planes.len() != n {
            return Err(RasterError::BadPayload("RLE sample count mismatch"));
        }
        // …then re-interleave into pixel order.
        let pixels = n / ch;
        let mut samples = vec![0u8; n];
        for c in 0..ch {
            for p in 0..pixels {
                samples[p * ch + c] = planes[c * pixels + p];
            }
        }
        Ok(samples)
    }

    /// Down-samples by an integer factor in both dimensions (point sampling).
    pub(super) fn downsample(img: &Image, factor: u16) -> Image {
        let factor = factor.max(1);
        let nw = (img.width / factor).max(1);
        let nh = (img.height / factor).max(1);
        let ch = img.channels as usize;
        let mut out = Image::new(nw, nh, img.channels);
        for y in 0..nh as usize {
            for x in 0..nw as usize {
                let sx = (x as u16 * factor).min(img.width - 1) as usize;
                let sy = (y as u16 * factor).min(img.height - 1) as usize;
                let src = (sy * img.width as usize + sx) * ch;
                let dst = (y * nw as usize + x) * ch;
                out.samples[dst..dst + ch].copy_from_slice(&img.samples[src..src + ch]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A smooth gradient test image (mirrors the synthetic workload).
    fn gradient(w: u16, h: u16, channels: u8) -> Image {
        let mut img = Image::new(w, h, channels);
        let ch = channels as usize;
        for y in 0..h as usize {
            for x in 0..w as usize {
                for c in 0..ch {
                    img.samples[(y * w as usize + x) * ch + c] = ((x + y * 2 + c * 40) % 256) as u8;
                }
            }
        }
        img
    }

    #[test]
    fn raw_round_trip_exact() {
        let img = gradient(32, 24, 3);
        let bytes = img.encode(Encoding::Raw, 100);
        let (back, enc, _) = Image::decode(&bytes).unwrap();
        assert_eq!(enc, Encoding::Raw);
        assert_eq!(back, img);
    }

    #[test]
    fn palette_round_trip_stable() {
        // decode(encode(x)) is lossy once, then stable.
        let img = gradient(16, 16, 3);
        let once = Image::decode(&img.encode(Encoding::Palette, 100))
            .unwrap()
            .0;
        let twice = Image::decode(&once.encode(Encoding::Palette, 100))
            .unwrap()
            .0;
        assert_eq!(once.width, img.width);
        assert_eq!(once, twice, "palette quantization must be idempotent");
    }

    #[test]
    fn quantized_size_shrinks_with_quality() {
        let img = gradient(64, 64, 3);
        let hi = img.encode(Encoding::Quantized, 95);
        let lo = img.encode(Encoding::Quantized, 20);
        assert!(
            lo.len() < hi.len(),
            "lower quality must be smaller: {} vs {}",
            lo.len(),
            hi.len()
        );
        // Both decode to the right dimensions.
        let (back, _, q) = Image::decode(&lo).unwrap();
        assert_eq!(q, 20);
        assert_eq!(back.pixels(), img.pixels());
    }

    #[test]
    fn quantized_decode_approximates() {
        let img = gradient(16, 16, 1);
        let (back, _, _) = Image::decode(&img.encode(Encoding::Quantized, 50)).unwrap();
        let step = quant_step(50) as i32;
        for (a, b) in img.samples.iter().zip(&back.samples) {
            assert!((*a as i32 - *b as i32).abs() < step, "{a} vs {b}");
        }
    }

    #[test]
    fn downsample_halves_dimensions() {
        let img = gradient(64, 48, 3);
        let half = downsample(&img, 2);
        assert_eq!(half.width, 32);
        assert_eq!(half.height, 24);
        assert_eq!(half.samples.len(), 32 * 24 * 3);
        // Raw size shrinks by ~4x.
        assert!(half.encode(Encoding::Raw, 100).len() * 3 < img.encode(Encoding::Raw, 100).len());
    }

    #[test]
    fn downsample_factor_one_is_identity() {
        let img = gradient(10, 10, 1);
        assert_eq!(downsample(&img, 1), img);
    }

    #[test]
    fn downsample_never_reaches_zero() {
        let img = gradient(3, 3, 1);
        let tiny = downsample(&img, 10);
        assert_eq!((tiny.width, tiny.height), (1, 1));
    }

    #[test]
    fn to_16_grays_reads_gray_plus_alpha_as_gray() {
        let gray = Image {
            width: 1,
            height: 1,
            channels: 1,
            samples: vec![100],
        };
        let gray_alpha = Image {
            channels: 2,
            samples: vec![100, 255],
            ..gray.clone()
        };
        assert_eq!(to_16_grays(&gray).samples, [102]);
        assert_eq!(
            to_16_grays(&gray_alpha).samples,
            [102],
            "alpha is not color"
        );
    }

    #[test]
    fn to_16_grays_is_single_channel_16_levels() {
        let img = gradient(16, 16, 3);
        let gray = to_16_grays(&img);
        assert_eq!(gray.channels, 1);
        let mut levels: Vec<u8> = gray.samples.clone();
        levels.sort_unstable();
        levels.dedup();
        assert!(levels.len() <= 16, "{} levels", levels.len());
        // Gray raw is 3x smaller than RGB raw.
        assert!(gray.encode(Encoding::Raw, 100).len() * 2 < img.encode(Encoding::Raw, 100).len());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Image::decode(b"nope").unwrap_err(), RasterError::BadHeader);
        assert_eq!(
            Image::decode(b"MGRF\x63\x00\x03\x50\x10\x00\x10\x00\x00\x00\x00\x00").unwrap_err(),
            RasterError::Unsupported
        );
        // Valid header, truncated payload.
        let img = gradient(8, 8, 1);
        let mut bytes = img.encode(Encoding::Raw, 100);
        bytes.truncate(bytes.len() - 5);
        assert!(matches!(
            Image::decode(&bytes).unwrap_err(),
            RasterError::BadPayload(_)
        ));
    }

    #[test]
    fn palette_is_much_smaller_than_rgb_raw() {
        // GIF-ish: 1 byte/pixel + palette vs 3 bytes/pixel.
        let img = gradient(100, 100, 3);
        let pal = img.encode(Encoding::Palette, 100);
        let raw = img.encode(Encoding::Raw, 100);
        assert!(pal.len() < raw.len() / 2);
    }

    #[test]
    fn luma_bounds() {
        assert_eq!(luma(0, 0, 0), 0);
        assert!(luma(255, 255, 255) >= 254);
    }

    #[test]
    fn quantized_header_claiming_more_than_the_runs_is_rejected_before_allocating() {
        // 65535 × 65535 × 4 samples from one RLE pair: the decoder must
        // refuse before reserving 17 GB (an allocation failure aborts).
        let mut body = b"MGRF\x01\x02\x04\x50".to_vec();
        body.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF]);
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&[1, 0]);
        assert_eq!(body.len(), 18);
        assert!(matches!(
            Image::decode(&body),
            Err(RasterError::BadPayload(_))
        ));
    }

    #[test]
    fn zero_dimensions_are_rejected() {
        // Raw, 3 channels, 0 × 7: an empty but self-consistent payload.
        let body = b"MGRF\x01\x00\x03\x50\x00\x00\x07\x00\x00\x00\x00\x00";
        assert_eq!(
            Image::decode(body).unwrap_err(),
            RasterError::BadPayload("zero image dimension")
        );
        for encoding in [Encoding::Raw, Encoding::Palette, Encoding::Quantized] {
            let bytes = Image::new(5, 0, 1).encode(encoding, 50);
            assert!(Image::decode(&bytes).is_err(), "{encoding:?}");
        }
    }

    #[test]
    fn two_channel_palette_is_gray_plus_alpha() {
        let mut img = Image::new(3, 2, 2);
        for (i, px) in img.samples.chunks_exact_mut(2).enumerate() {
            px.copy_from_slice(&[(i * 50) as u8, 7]);
        }
        let (back, _, _) = Image::decode(&img.encode(Encoding::Palette, 100)).unwrap();
        assert_eq!(back.samples.len(), 3 * 2 * 2);
        for (orig, px) in img
            .samples
            .chunks_exact(2)
            .zip(back.samples.chunks_exact(2))
        {
            assert_eq!(px[1], 255, "alpha is opaque");
            assert!(px[0].abs_diff(orig[0]) < 40, "{} vs {}", px[0], orig[0]);
        }
    }

    /// Smooth gradients, flat blocks (runs past the 255 cap) and noise
    /// (one-sample runs), per channel.
    fn textured(width: u16, height: u16, channels: u8, seed: u64) -> Image {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut img = Image::new(width, height, channels);
        let (w, ch) = (width as usize, channels as usize);
        let style: u8 = rng.gen_range(0u8..4);
        let flat: u8 = rng.gen();
        for (i, s) in img.samples.iter_mut().enumerate() {
            let (p, c) = (i / ch, i % ch);
            let (x, y) = (p % w.max(1), p / w.max(1));
            *s = match (style, (x / 5 + y / 3) % 3) {
                (0, _) => flat,
                (1, _) | (3, 0) => ((x * 3 + y * 5 + c * 40) % 256) as u8,
                (2, _) | (3, 1) => rng.gen(),
                _ => flat ^ c as u8,
            };
        }
        img
    }

    /// Overwrites bytes at `edits` positions (mod length), then truncates
    /// to `keep` bytes when that is shorter.
    fn mutate(mut data: Vec<u8>, edits: &[(usize, u8)], keep: usize) -> Vec<u8> {
        if !data.is_empty() {
            let n = data.len();
            for &(at, v) in edits {
                data[at % n] = v;
            }
        }
        data.truncate(keep);
        data
    }

    /// The new decoder against the reference, apart from the cases it
    /// deliberately fixes: zero dimensions and two-channel palettes (shape),
    /// and quantized headers claiming more samples than the runs can carry,
    /// on which the reference would try to allocate them all.
    fn assert_same_decode(body: &[u8]) {
        let fast = Image::decode(body);
        if let Ok((img, _, _)) = &fast {
            assert!(img.width >= 1 && img.height >= 1);
            assert_eq!(img.samples.len(), img.pixels() * img.channels as usize);
        }
        if body.len() < HEADER_LEN {
            assert_eq!(fast, reference::decode(body));
            return;
        }
        let (encoding, channels) = (body[5], body[6]);
        let width = u16::from_le_bytes([body[8], body[9]]) as usize;
        let height = u16::from_le_bytes([body[10], body[11]]) as usize;
        let payload_len = u32::from_le_bytes([body[12], body[13], body[14], body[15]]) as usize;
        let n = width * height * channels as usize;
        if encoding == 2 && n > 255 * (payload_len / 2) {
            assert!(fast.is_err(), "runs cannot fill the image");
            return;
        }
        let slow = reference::decode(body);
        if width == 0 || height == 0 {
            assert!(fast.is_err());
        } else if encoding == 1 && channels == 2 {
            assert_eq!(fast.is_ok(), slow.is_ok());
        } else {
            assert_eq!(fast, slow);
        }
    }

    /// `(count, value)` pairs drawn from `bytes` whose counts sum to `n`
    /// (when `bytes` holds a pair); runs freely cross plane boundaries.
    fn runs_summing_to(bytes: &[u8], n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut left = n;
        for pair in bytes.chunks_exact(2).cycle() {
            if left == 0 {
                break;
            }
            let count = usize::from(pair[0].max(1)).min(left);
            out.extend_from_slice(&[count as u8, pair[1]]);
            left -= count;
        }
        out
    }

    #[test]
    fn quantized_run_may_continue_into_the_next_plane() {
        // 2 × 1 pixels, 3 channels: planes [10 10][10 20][20 20].
        let mut body = b"MGRF\x01\x02\x03\x50\x02\x00\x01\x00".to_vec();
        body.extend_from_slice(&4u32.to_le_bytes());
        body.extend_from_slice(&[3, 10, 3, 20]);
        let (img, _, _) = Image::decode(&body).unwrap();
        assert_eq!(img.samples, [10, 10, 20, 10, 20, 20]);
        assert_same_decode(&body);
    }

    /// A `width`-sample single-channel image of one value, which quantizes
    /// to a single run of exactly `width` samples.
    fn flat_row(width: u16, value: u8) -> Image {
        Image {
            width,
            height: 1,
            channels: 1,
            samples: vec![value; width as usize],
        }
    }

    #[test]
    fn quantized_runs_split_at_255() {
        for (width, runs) in [
            (255, &[255][..]),
            (256, &[255, 1]),
            (510, &[255, 255]),
            (511, &[255, 255, 1]),
        ] {
            let bytes = flat_row(width, 200).encode(Encoding::Quantized, 100);
            let pairs: Vec<u8> = runs.iter().flat_map(|&n| [n, 200]).collect();
            assert_eq!(&bytes[HEADER_LEN..], pairs, "{width} samples");
            for quality in 1..=100 {
                let img = flat_row(width, 200);
                let bytes = img.encode(Encoding::Quantized, quality);
                assert_eq!(bytes, reference::encode(&img, Encoding::Quantized, quality));
                assert_same_decode(&bytes);
            }
        }
    }

    /// Runs that end at every offset within and across the words the run
    /// scan reads, in planes whose length is not a multiple of 8.
    #[test]
    fn quantized_runs_of_every_length_match_the_reference() {
        for len in 1..=40u16 {
            let mut img = Image::new(len, 3, 3);
            for (i, s) in img.samples.iter_mut().enumerate() {
                *s = if (i / 3) % usize::from(len) < usize::from(len) / 2 {
                    40
                } else {
                    90
                };
            }
            let bytes = img.encode(Encoding::Quantized, 100);
            assert_eq!(bytes, reference::encode(&img, Encoding::Quantized, 100));
            assert_eq!(Image::decode(&bytes).unwrap().0, img);
        }
    }

    #[test]
    fn small_and_ragged_images_round_trip_like_the_reference() {
        // 1×1 and 7×3 (21 pixels: not a whole number of 8-pixel blocks).
        for (w, h) in [(1, 1), (7, 3), (9, 1), (1, 9)] {
            for channels in 1..=4 {
                for quality in 1..=100 {
                    let img = textured(w, h, channels, u64::from(quality));
                    let bytes = img.encode(Encoding::Quantized, quality);
                    assert_eq!(
                        bytes,
                        reference::encode(&img, Encoding::Quantized, quality),
                        "{w}x{h}x{channels} q{quality}"
                    );
                    assert_same_decode(&bytes);
                }
            }
        }
    }

    /// Channel counts the kernels do not specialise take the generic paths
    /// and still match the reference.
    #[test]
    fn unspecialised_channel_counts_match_the_reference() {
        for channels in [0, 5, 6] {
            let img = textured(9, 7, channels, 3);
            for quality in [1, 40, 100] {
                assert_eq!(
                    img.encode(Encoding::Quantized, quality),
                    reference::encode(&img, Encoding::Quantized, quality),
                    "{channels} channels q{quality}"
                );
            }
            for factor in 1..=10 {
                assert_eq!(
                    downsample(&img, factor),
                    reference::downsample(&img, factor),
                    "{channels} channels factor {factor}"
                );
            }
        }
    }

    fn any_encoding() -> impl Strategy<Value = Encoding> {
        prop_oneof![
            Just(Encoding::Raw),
            Just(Encoding::Palette),
            Just(Encoding::Quantized)
        ]
    }

    #[test]
    fn encode_matches_reference_at_every_quality() {
        for (w, h) in [(1, 1), (7, 3), (3, 17), (64, 64)] {
            for channels in [1, 3, 4] {
                let img = textured(w, h, channels, u64::from(w * h));
                for encoding in [Encoding::Raw, Encoding::Palette, Encoding::Quantized] {
                    for quality in 1..=100 {
                        assert_eq!(
                            img.encode(encoding, quality),
                            reference::encode(&img, encoding, quality),
                            "{w}x{h}x{channels} {encoding:?} q{quality}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn encode_matches_reference(
            (w, h) in (0u16..48, 0u16..48),
            channels in prop_oneof![Just(1u8), Just(2), Just(3), Just(4)],
            encoding in any_encoding(),
            quality in any::<u8>(),
            seed in any::<u64>(),
        ) {
            // Two-channel palettes changed on purpose (gray + alpha).
            let encoding = if channels == 2 { Encoding::Quantized } else { encoding };
            let img = textured(w, h, channels, seed);
            prop_assert_eq!(
                img.encode(encoding, quality),
                reference::encode(&img, encoding, quality)
            );
        }

        #[test]
        fn decode_matches_reference_on_mutated_bodies(
            (w, h) in (0u16..24, 0u16..24),
            channels in 1u8..=4,
            encoding in any_encoding(),
            quality in 1u8..=100,
            seed in any::<u64>(),
            header_edit in (4usize..HEADER_LEN, any::<u8>()),
            edits in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
            keep in 0usize..2048,
        ) {
            let body = textured(w, h, channels, seed).encode(encoding, quality);
            assert_same_decode(&body);
            assert_same_decode(&mutate(body.clone(), &edits, keep));
            assert_same_decode(&mutate(body, &[header_edit], usize::MAX));
        }

        /// Bytes from outside the gateway never panic the decoder or the
        /// kernels run on what it accepts, and what those produce decodes.
        #[test]
        fn arbitrary_bodies_never_panic(
            (encoding, channels, quality) in (0u8..4, 0u8..6, any::<u8>()),
            (w, h) in (0u16..20, 0u16..20),
            mut payload in prop::collection::vec(any::<u8>(), 0..1024),
            fit in 0u8..3,
            raw in prop::collection::vec(any::<u8>(), 0..64),
            factor in 0u16..5,
        ) {
            // Size the payload to the header for an encoding a third of the
            // time, so the kernels see accepted images.
            let n = usize::from(w) * usize::from(h) * usize::from(channels);
            match (fit, encoding) {
                (0, 0) => payload.resize(n, 7),
                (0, 1) => payload.resize(768 + n / usize::from(channels.max(1)), 3),
                (0, 2) => payload = runs_summing_to(&payload, n),
                _ => {}
            }
            let len = if fit < 2 { payload.len() as u32 } else { u32::from(quality) * 3 };
            let mut body = MAGIC.to_vec();
            body.extend_from_slice(&[VERSION, encoding, channels, quality]);
            body.extend_from_slice(&w.to_le_bytes());
            body.extend_from_slice(&h.to_le_bytes());
            body.extend_from_slice(&len.to_le_bytes());
            body.extend_from_slice(&payload);
            for data in [&body[..], &raw[..]] {
                assert_same_decode(data);
                if let Ok((img, _, q)) = Image::decode(data) {
                    let kernels = [downsample(&img, factor), to_16_grays(&img), img.clone()];
                    for out in kernels {
                        for enc in [Encoding::Raw, Encoding::Palette, Encoding::Quantized] {
                            prop_assert!(Image::decode(&out.encode(enc, q)).is_ok());
                        }
                    }
                }
            }
        }

        #[test]
        fn downsample_matches_reference(
            (w, h) in (1u16..=300, 1u16..=300),
            channels in 1u8..=4,
            factor in 1u16..=9,
            seed in any::<u64>(),
        ) {
            // Factors past the side (down to a single row or column) come
            // from small sides.
            let img = textured(w, h, channels, seed);
            prop_assert_eq!(downsample(&img, factor), reference::downsample(&img, factor));
            let (w, h) = (w % 9 + 1, h % 9 + 1);
            let small = textured(w, h, channels, seed);
            prop_assert_eq!(downsample(&small, factor), reference::downsample(&small, factor));
        }

        #[test]
        fn decoded_shape_matches_the_header(
            (w, h) in (0u16..12, 0u16..12),
            channels in 1u8..=4,
            encoding in any_encoding(),
            seed in any::<u64>(),
        ) {
            let img = textured(w, h, channels, seed);
            match Image::decode(&img.encode(encoding, 60)) {
                Ok((back, _, _)) => {
                    prop_assert!(back.width >= 1 && back.height >= 1);
                    prop_assert_eq!((back.width, back.height, back.channels), (w, h, channels));
                    prop_assert_eq!(back.samples.len(), back.pixels() * channels as usize);
                }
                Err(e) => prop_assert!(w == 0 || h == 0, "{:?}", e),
            }
        }
    }
}
