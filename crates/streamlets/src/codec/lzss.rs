//! LZSS compression (4 KB sliding window, 3..18-byte matches).
//!
//! The `text_compress` streamlet needs a *real*, reversible compressor that
//! achieves the thesis's "up to 75%" reduction on redundant text (§7.5)
//! without external crates. Classic LZSS fits: flag-byte framing, 12-bit
//! offsets, 4-bit lengths.
//!
//! Format: `[flags: u8] [8 items]`, repeated. Flag bit `1` = literal byte;
//! `0` = match: two bytes `oooooooo oooollll` encoding a 12-bit backward
//! offset (1-based) and a 4-bit length stored as `len - MIN_MATCH`.

const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 18;
/// Hash-chain bucket count (power of two).
const HASH_SIZE: usize = 1 << 13;

/// Empty slot in the hash-chain tables.
const NIL: u32 = u32::MAX;
/// Chain-table positions are `u32` offsets from a base that slides forward
/// by `SLIDE` bytes once offsets pass `3 × SLIDE / 2`, so they stay below
/// [`NIL`] on inputs of any length. Entries the slide drops are ≥ `SLIDE /
/// 2` bytes old — outside the window, where the chain walk stops anyway —
/// so sliding never changes the output. Test builds slide often, so the
/// equivalence tests cover it.
const SLIDE: usize = if cfg!(test) { 1 << 14 } else { 1 << 31 };
const _: () = assert!(SLIDE / 2 >= WINDOW && SLIDE.is_multiple_of(WINDOW));

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let h = (data[i] as usize) << 10 ^ (data[i + 1] as usize) << 5 ^ (data[i + 2] as usize);
    h & (HASH_SIZE - 1)
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `max_len`; needs `a < b` and `b + max_len <= data.len()`. Compares
/// eight bytes at a time.
#[inline]
fn common_prefix(data: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    let (x, y) = (&data[a..a + max_len], &data[b..b + max_len]);
    let mut l = 0;
    for (wx, wy) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let diff = u64::from_le_bytes(wx.try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(wy.try_into().expect("8-byte chunk"));
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    l + x[l..]
        .iter()
        .zip(&y[l..])
        .take_while(|(p, q)| p == q)
        .count()
}

/// Compresses `data`. Always succeeds; incompressible input grows by at
/// most 12.5% (one flag byte per 8 literals).
///
/// The output bytes are a contract: the match search walks up to 64 hash
/// chain candidates, most recent first, and the first longest match wins.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    if data.is_empty() {
        return out;
    }
    // Hash chains: head[h] = most recent position with hash h; prev[i & mask]
    // links back through earlier positions. Both hold offsets from `base`.
    let mut head = vec![NIL; HASH_SIZE];
    let mut prev = vec![NIL; WINDOW];
    let mut base = 0usize;

    let mut i = 0usize;
    let mut flags_pos = out.len();
    out.push(0);
    let mut flag_bit = 0u8;
    let mut flags = 0u8;

    macro_rules! flush_item {
        () => {
            flag_bit += 1;
            if flag_bit == 8 {
                out[flags_pos] = flags;
                flags = 0;
                flag_bit = 0;
                flags_pos = out.len();
                out.push(0);
            }
        };
    }

    let insert = |head: &mut [u32], prev: &mut [u32], base: usize, pos: usize| {
        if pos + MIN_MATCH <= data.len() {
            let h = hash3(data, pos);
            prev[pos % WINDOW] = head[h];
            head[h] = (pos - base) as u32;
        }
    };

    while i < data.len() {
        if i - base >= SLIDE + SLIDE / 2 {
            base += SLIDE;
            for e in head.iter_mut().chain(prev.iter_mut()) {
                *e = if *e == NIL || (*e as usize) < SLIDE {
                    NIL
                } else {
                    *e - SLIDE as u32
                };
            }
        }
        // Find the longest match within the window via the hash chain.
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= data.len() {
            let max_len = MAX_MATCH.min(data.len() - i);
            let mut cand = head[hash3(data, i)];
            let limit = i.saturating_sub(WINDOW);
            let mut chain = 0;
            while cand != NIL && chain < 64 {
                let c = base + cand as usize;
                if c < limit || c >= i {
                    break;
                }
                // A candidate that differs at `best_len` cannot beat it, so
                // only those that agree there are measured (best_len <
                // max_len holds: the walk stops once a match hits max_len).
                if data[c + best_len] == data[i + best_len] {
                    let l = common_prefix(data, c, i, max_len);
                    if l > best_len {
                        best_len = l;
                        best_off = i - c;
                        if l == max_len {
                            break;
                        }
                    }
                }
                cand = prev[c % WINDOW];
                chain += 1;
            }
        }

        if best_len >= MIN_MATCH {
            // Match item: flag bit 0.
            let stored_len = (best_len - MIN_MATCH) as u8; // 0..=15
            let off = (best_off - 1) as u16; // 0..=4095
            out.push((off >> 4) as u8);
            out.push((((off & 0xF) as u8) << 4) | stored_len);
            for k in 0..best_len {
                insert(&mut head, &mut prev, base, i + k);
            }
            i += best_len;
            flush_item!();
        } else {
            // Literal: flag bit 1.
            flags |= 1 << flag_bit;
            out.push(data[i]);
            insert(&mut head, &mut prev, base, i);
            i += 1;
            flush_item!();
        }
    }
    out[flags_pos] = flags;
    // A trailing, empty flag byte may remain when the input length is a
    // multiple of 8 items; it is harmless (decompress stops at input end),
    // but trim it for cleanliness.
    if flags_pos == out.len() - 1 && flag_bit == 0 {
        out.pop();
    }
    out
}

/// Decompresses LZSS data produced by [`compress`].
///
/// Returns `None` on malformed input (truncated match, offset before start).
pub fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len() * 3);
    let mut i = 0usize;
    while i < data.len() {
        let flags = data[i];
        i += 1;
        for bit in 0..8 {
            if i >= data.len() {
                break;
            }
            if flags & (1 << bit) != 0 {
                out.push(data[i]);
                i += 1;
            } else {
                if i + 1 >= data.len() {
                    return None;
                }
                let b0 = data[i] as usize;
                let b1 = data[i + 1] as usize;
                i += 2;
                let off = (b0 << 4 | b1 >> 4) + 1;
                let len = (b1 & 0xF) + MIN_MATCH;
                if off > out.len() {
                    return None;
                }
                let start = out.len() - off;
                if off >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping match: each byte may be one just copied.
                    for k in 0..len {
                        out.push(out[start + k]);
                    }
                }
            }
        }
    }
    Some(out)
}

/// Convenience: compression ratio (compressed/original) of a buffer.
pub fn ratio(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    compress(data).len() as f64 / data.len() as f64
}

/// Straightforward implementations kept as the specification: the
/// equivalence tests hold [`compress`] and [`decompress`] to their exact
/// bytes and accept/reject decisions.
#[cfg(test)]
mod reference {
    use super::{hash3, HASH_SIZE, MAX_MATCH, MIN_MATCH, WINDOW};

    /// Compresses `data`. Always succeeds; incompressible input grows by at
    /// most 12.5% (one flag byte per 8 literals).
    pub(super) fn compress(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        if data.is_empty() {
            return out;
        }
        // Hash chains: head[h] = most recent position with hash h; prev[i & mask]
        // links back through earlier positions.
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; WINDOW];

        let mut i = 0usize;
        let mut flags_pos = out.len();
        out.push(0);
        let mut flag_bit = 0u8;
        let mut flags = 0u8;

        macro_rules! flush_item {
            () => {
                flag_bit += 1;
                if flag_bit == 8 {
                    out[flags_pos] = flags;
                    flags = 0;
                    flag_bit = 0;
                    flags_pos = out.len();
                    out.push(0);
                }
            };
        }

        let insert = |head: &mut [usize], prev: &mut [usize], data: &[u8], pos: usize| {
            if pos + MIN_MATCH <= data.len() {
                let h = hash3(data, pos);
                prev[pos % WINDOW] = head[h];
                head[h] = pos;
            }
        };

        while i < data.len() {
            // Find the longest match within the window via the hash chain.
            let mut best_len = 0usize;
            let mut best_off = 0usize;
            if i + MIN_MATCH <= data.len() {
                let h = hash3(data, i);
                let mut cand = head[h];
                let limit = i.saturating_sub(WINDOW);
                let mut chain = 0;
                while cand != usize::MAX && cand >= limit && cand < i && chain < 64 {
                    let max_len = MAX_MATCH.min(data.len() - i);
                    let mut l = 0;
                    while l < max_len && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_off = i - cand;
                        if l == max_len {
                            break;
                        }
                    }
                    cand = prev[cand % WINDOW];
                    chain += 1;
                }
            }

            if best_len >= MIN_MATCH {
                // Match item: flag bit 0.
                let stored_len = (best_len - MIN_MATCH) as u8; // 0..=15
                let off = (best_off - 1) as u16; // 0..=4095
                out.push((off >> 4) as u8);
                out.push((((off & 0xF) as u8) << 4) | stored_len);
                for k in 0..best_len {
                    insert(&mut head, &mut prev, data, i + k);
                }
                i += best_len;
                flush_item!();
            } else {
                // Literal: flag bit 1.
                flags |= 1 << flag_bit;
                out.push(data[i]);
                insert(&mut head, &mut prev, data, i);
                i += 1;
                flush_item!();
            }
        }
        out[flags_pos] = flags;
        // A trailing, empty flag byte may remain when the input length is a
        // multiple of 8 items; it is harmless (decompress stops at input end),
        // but trim it for cleanliness.
        if flags_pos == out.len() - 1 && flag_bit == 0 {
            out.pop();
        }
        out
    }

    /// Decompresses LZSS data produced by [`compress`].
    ///
    /// Returns `None` on malformed input (truncated match, offset before start).
    pub(super) fn decompress(data: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(data.len() * 3);
        let mut i = 0usize;
        while i < data.len() {
            let flags = data[i];
            i += 1;
            for bit in 0..8 {
                if i >= data.len() {
                    break;
                }
                if flags & (1 << bit) != 0 {
                    out.push(data[i]);
                    i += 1;
                } else {
                    if i + 1 >= data.len() {
                        return None;
                    }
                    let b0 = data[i] as usize;
                    let b1 = data[i + 1] as usize;
                    i += 2;
                    let off = (b0 << 4 | b1 >> 4) + 1;
                    let len = (b1 & 0xF) + MIN_MATCH;
                    if off > out.len() {
                        return None;
                    }
                    let start = out.len() - off;
                    for k in 0..len {
                        let byte = out[start + k];
                        out.push(byte);
                    }
                }
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{gen_postscript, gen_text};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).expect("valid stream");
        assert_eq!(d, data, "round trip failed for {} bytes", data.len());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
        round_trip(b"aaaa");
    }

    #[test]
    fn repetitive_text_compresses_hard() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(100);
        round_trip(&data);
        let r = ratio(&data);
        assert!(
            r < 0.25,
            "expected >75% reduction on repeated text, ratio {r}"
        );
    }

    #[test]
    fn long_runs_compress() {
        let data = vec![7u8; 10_000];
        round_trip(&data);
        assert!(ratio(&data) < 0.15); // bounded by the 18-byte max match
    }

    #[test]
    fn random_data_grows_bounded() {
        // Pseudo-random via LCG (no rand dependency needed here).
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 8 + 2);
        round_trip(&data);
    }

    #[test]
    fn matches_across_window_boundary_are_safe() {
        // Content longer than the window with long-range repetition.
        let unit: Vec<u8> = (0..=255u8).collect();
        let data: Vec<u8> = unit.iter().cycle().take(WINDOW * 3 + 17).copied().collect();
        round_trip(&data);
    }

    #[test]
    fn exact_multiple_of_eight_items() {
        // Eight literals = exactly one flag group.
        round_trip(b"12345678");
        round_trip(b"1234567812345678");
    }

    #[test]
    fn decompress_rejects_garbage() {
        // Flag says match but only one byte follows.
        assert!(decompress(&[0b0000_0000, 0x01]).is_none());
        // Match offset pointing before the start of output.
        assert!(decompress(&[0b0000_0000, 0xFF, 0xF0]).is_none());
    }

    #[test]
    fn all_byte_values_round_trip() {
        let data: Vec<u8> = (0..=255u8).cycle().take(2048).collect();
        round_trip(&data);
    }

    #[test]
    fn max_match_length_exercised() {
        let mut data = vec![b'x'; MAX_MATCH * 4];
        data.extend_from_slice(b"tail");
        round_trip(&data);
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

    fn assert_same_compress(data: &[u8]) {
        let fast = compress(data);
        assert_eq!(fast, reference::compress(data), "{} bytes", data.len());
        assert_eq!(decompress(&fast).as_deref(), Some(data));
    }

    /// Long inputs cross the chain tables' slide points several times (at
    /// the test build's small `SLIDE`).
    #[test]
    fn compress_matches_reference_across_slides() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_same_compress(&gen_text(&mut rng, 5 * SLIDE));
        let runs: Vec<u8> = (0..4 * SLIDE).map(|i| (i / 7 % 3) as u8).collect();
        assert_same_compress(&runs);
        assert_same_compress(&vec![0u8; 3 * SLIDE + 5]);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn compress_matches_reference_on_arbitrary_bytes(
            data in prop::collection::vec(any::<u8>(), 0..3 * WINDOW),
        ) {
            assert_same_compress(&data);
        }

        /// A four-letter alphabet: many matches, overlapping ones, ties.
        #[test]
        fn compress_matches_reference_on_low_entropy_bytes(
            data in prop::collection::vec(0u8..4, 0..3 * WINDOW),
        ) {
            assert_same_compress(&data);
        }

        #[test]
        fn compress_matches_reference_on_workload_text(
            seed in any::<u64>(),
            len in 0..3 * WINDOW,
            postscript in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let data = if postscript {
                gen_postscript(&mut rng, len)
            } else {
                gen_text(&mut rng, len)
            };
            assert_same_compress(&data);
        }

        #[test]
        fn decompress_matches_reference_on_mutated_streams(
            seed in any::<u64>(),
            len in 0..2 * WINDOW,
            edits in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
            keep in 0..WINDOW,
        ) {
            let text = gen_text(&mut StdRng::seed_from_u64(seed), len);
            let valid = compress(&text);
            prop_assert_eq!(decompress(&valid), reference::decompress(&valid));
            let bad = mutate(valid, &edits, keep);
            prop_assert_eq!(decompress(&bad), reference::decompress(&bad));
        }

        #[test]
        fn decompress_matches_reference_on_arbitrary_bytes(
            data in prop::collection::vec(any::<u8>(), 0..512),
        ) {
            prop_assert_eq!(decompress(&data), reference::decompress(&data));
        }
    }
}
