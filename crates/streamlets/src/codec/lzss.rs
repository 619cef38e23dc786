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
//!
//! The match search walks hash chains: every position that has a trigram
//! joins its hash's chain once, in order, whatever the search decides. So
//! the chains do not depend on the matches, and `Compressor` links a
//! block of positions at a time ahead of the search instead of inserting
//! each one as the search passes it. The search measures each candidate
//! with 8-byte word compares and keeps the best by selection rather than a
//! branch. The output is the same as when the chains were built during the
//! search: the rules above, and the bytes they give, are unchanged.

const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 18;
/// Hash-chain bucket count (power of two).
const HASH_SIZE: usize = 1 << 13;
/// Chain candidates the match search examines at one position.
const MAX_CHAIN: usize = 64;
/// Chain links are built this many positions at a time, ahead of the
/// search; the ring that holds them covers a block plus the window behind
/// the search, which is all the search reads.
const BLOCK: usize = 4096;
const RING: usize = WINDOW + BLOCK;
const _: () = assert!(RING.is_power_of_two() && BLOCK > MAX_MATCH);

/// Empty slot in the chain heads.
const NIL: u32 = u32::MAX;
/// Chain heads are `u32` offsets from a base that slides forward by
/// `SLIDE` bytes once offsets pass `3 × SLIDE / 2`, so they stay below
/// [`NIL`] however many bytes a `Compressor` sees. Entries the slide
/// drops are ≥ `SLIDE / 2` bytes old — outside the window, where no link
/// reaches — so sliding never changes the output. Test builds slide often,
/// so the equivalence tests cover it.
const SLIDE: usize = if cfg!(test) { 1 << 14 } else { 1 << 31 };
const _: () = assert!(SLIDE / 2 >= WINDOW && SLIDE.is_multiple_of(WINDOW));

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let h = (data[i] as usize) << 10 ^ (data[i + 1] as usize) << 5 ^ (data[i + 2] as usize);
    h & (HASH_SIZE - 1)
}

/// Little-endian words of an 18-byte match run: bytes 0..8, 8..16 and
/// 10..18, the last overlapping the second.
type Run = [u64; 3];

fn run_words(data: &[u8], at: usize) -> Run {
    let run: &[u8; MAX_MATCH] = data[at..at + MAX_MATCH].try_into().expect("full run");
    let word = |k: usize| u64::from_le_bytes(run[k..k + 8].try_into().expect("8-byte word"));
    [word(0), word(8), word(MAX_MATCH - 8)]
}

/// Length of the common prefix of two full runs, at most `MAX_MATCH`. It
/// selects among the three words' results without a branch: the match
/// search measures every candidate, and a branch on each one's length
/// would mispredict.
#[inline]
fn run_prefix(x: &Run, y: &Run) -> usize {
    // `off` plus the bytes that agree in the words at `off`: 8 when all do.
    let agree = |k: usize, off: usize| off + ((x[k] ^ y[k]).trailing_zeros() / 8) as usize;
    let (l0, l1, l2) = (agree(0, 0), agree(1, 8), agree(2, MAX_MATCH - 8));
    // Once bytes 0..16 agree, the overlapping last word counts on from 16.
    let tail = if l1 < 16 { l1 } else { l2 };
    if l0 < 8 {
        l0
    } else {
        tail
    }
}

/// Compresses `data`. Always succeeds; incompressible input grows by at
/// most 12.5% (one flag byte per 8 literals).
///
/// The output bytes are a contract: the match search walks up to 64 hash
/// chain candidates, most recent first, and the first longest match wins.
/// The `text_compress` streamlet keeps a `Compressor` instead, which
/// allocates its tables once.
pub fn compress(data: &[u8]) -> Vec<u8> {
    Compressor::new().compress(data)
}

/// The compressor's hash-chain tables (48 KB, whatever the input length),
/// kept across inputs. Each input is compressed on its own: its output is
/// what [`compress`] gives for it.
pub(crate) struct Compressor {
    /// `head[h]`: the latest linked position with hash `h`, as an offset
    /// from `base`.
    head: Box<[u32; HASH_SIZE]>,
    /// `back[p % RING]`: distance from `p` back to the previous position
    /// with the same hash, saturated at `u16::MAX`. A distance past the
    /// window or past the start of the current input ends a chain walk.
    back: Box<[u16; RING]>,
    /// Stream offset of `head`'s zero.
    base: usize,
    /// Stream offset of the next input's first byte: inputs occupy
    /// consecutive offsets, so the heads never need clearing between them.
    end: usize,
}

impl Default for Compressor {
    fn default() -> Self {
        Self::new()
    }
}

impl Compressor {
    /// A compressor with empty chains.
    pub(crate) fn new() -> Self {
        Self {
            head: Box::new([NIL; HASH_SIZE]),
            back: Box::new([0; RING]),
            base: 0,
            end: 0,
        }
    }

    /// Compresses `data`; see [`compress`].
    pub(crate) fn compress(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        let start = self.end;
        self.end += data.len();
        if data.is_empty() {
            return out;
        }
        // Positions below `hashed` have a trigram; those below `linked`
        // are on their chains.
        let hashed = (data.len() + 1).saturating_sub(MIN_MATCH);
        let mut linked = 0usize;

        let mut i = 0usize;
        let mut flags_pos = out.len();
        out.push(0);
        let mut flag_bit = 0u8;
        let mut flags = 0u8;

        while i < data.len() {
            // Find the longest match within the window via the hash chain.
            let (best_len, best_off) = if i < hashed {
                if i >= linked {
                    // A match may step over `linked`, but by less than a
                    // block, so one block always reaches past `i`.
                    let to = hashed.min(linked + BLOCK);
                    self.link(data, start, linked, to);
                    linked = to;
                }
                let max_len = MAX_MATCH.min(data.len() - i);
                if max_len == MAX_MATCH {
                    let at_i = run_words(data, i);
                    self.longest(i, max_len, |c| run_prefix(&run_words(data, c), &at_i))
                } else {
                    // The last few positions: byte by byte.
                    let tail = &data[i..];
                    self.longest(i, max_len, |c| {
                        tail.iter()
                            .zip(&data[c..])
                            .take_while(|(p, q)| p == q)
                            .count()
                    })
                }
            } else {
                (0, 0)
            };

            if best_len >= MIN_MATCH {
                // Match item: flag bit 0.
                let stored_len = (best_len - MIN_MATCH) as u8; // 0..=15
                let off = (best_off - 1) as u16; // 0..=4095
                out.push((off >> 4) as u8);
                out.push((((off & 0xF) as u8) << 4) | stored_len);
                i += best_len;
            } else {
                // Literal: flag bit 1.
                flags |= 1 << flag_bit;
                out.push(data[i]);
                i += 1;
            }
            flag_bit += 1;
            if flag_bit == 8 {
                out[flags_pos] = flags;
                flags = 0;
                flag_bit = 0;
                flags_pos = out.len();
                out.push(0);
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

    /// The first longest match at linked position `i` among the first
    /// `MAX_CHAIN` candidates on its chain, as `(length, distance)`;
    /// `len(c)` measures the match at candidate `c`, capped at `max_len`.
    #[inline]
    fn longest(&self, i: usize, max_len: usize, len: impl Fn(usize) -> usize) -> (usize, usize) {
        // Candidates lie at most a window back, and inside the input.
        let reach = i.min(WINDOW);
        let (mut best_len, mut best_off) = (0, 0);
        let mut dist = self.back[i % RING] as usize;
        for _ in 0..MAX_CHAIN {
            if dist > reach {
                break;
            }
            let c = i - dist;
            // Few candidates improve on `best_len`, and which ones is
            // unpredictable, so the update selects instead of branching.
            let l = len(c);
            best_off = if l > best_len { dist } else { best_off };
            best_len = best_len.max(l);
            if best_len == max_len {
                break;
            }
            dist += self.back[c % RING] as usize;
        }
        (best_len, best_off)
    }

    /// Links positions `from..to` of the input that starts at stream
    /// offset `start`: each gets the distance back to the previous position
    /// with its hash.
    fn link(&mut self, data: &[u8], start: usize, from: usize, to: usize) {
        while start + from - self.base >= SLIDE + SLIDE / 2 {
            self.base += SLIDE;
            for e in self.head.iter_mut() {
                *e = if *e == NIL || (*e as usize) < SLIDE {
                    NIL
                } else {
                    *e - SLIDE as u32
                };
            }
        }
        // Offsets stay below NIL: they are under 3 × SLIDE / 2 + BLOCK.
        let first = (start + from - self.base) as u32;
        let trigrams = data[from..to + MIN_MATCH - 1].windows(MIN_MATCH);
        for ((p, trigram), rel) in (from..to).zip(trigrams).zip(first..) {
            let h = hash3(trigram, 0);
            // A head from an earlier input gives a distance past `p`, and
            // so does NIL: it wraps to `rel + 1`, and `rel` is at least `p`
            // until the first slide and at least `SLIDE / 2` after it.
            let d = rel.wrapping_sub(self.head[h]);
            self.back[p % RING] = d.min(u16::MAX.into()) as u16;
            self.head[h] = rel;
        }
    }
}

/// Decompresses LZSS data produced by [`compress`].
///
/// Returns `None` on malformed input (truncated match, offset before start).
pub fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    // A 2-byte match yields at most MAX_MATCH bytes, so one allocation of
    // MAX_MATCH / 2 bytes per input byte holds any output; the unused tail
    // is handed back at the end.
    let mut out = Vec::with_capacity(data.len() * (MAX_MATCH / 2));
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
    out.shrink_to_fit();
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

    /// The output keeps no spare capacity.
    #[test]
    fn decompress_output_keeps_no_spare_capacity() {
        let mut rng = StdRng::seed_from_u64(5);
        for len in [0, 1, 17, 1000, 2 * WINDOW, 3 * WINDOW + 5] {
            let text = gen_text(&mut rng, len);
            let out = decompress(&compress(&text)).expect("valid stream");
            assert_eq!((out.len(), out.capacity()), (len, len));
        }
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

    /// One compressor gives each input what a fresh one gives it: no
    /// chain reaches into an earlier input, even an identical one, and
    /// the heads slide (every `SLIDE` bytes of the stream) both between
    /// inputs and inside one.
    #[test]
    fn reused_compressor_matches_reference_on_repeated_inputs() {
        let mut rng = StdRng::seed_from_u64(4);
        let text = gen_text(&mut rng, 2 * WINDOW);
        let long = gen_text(&mut rng, 2 * SLIDE + 3);
        let mut compressor = Compressor::new();
        for data in [&text[..], b"", &text[..7], &long, &text[..2]]
            .iter()
            .cycle()
            .take(40)
        {
            assert_eq!(compressor.compress(data), reference::compress(data));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn reused_compressor_matches_reference(
            inputs in prop::collection::vec(
                prop::collection::vec(0u8..4, 0..2 * WINDOW), 1..8),
        ) {
            let mut compressor = Compressor::new();
            for data in &inputs {
                prop_assert_eq!(compressor.compress(data), reference::compress(data));
            }
        }

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
