//! RFC-822-style headers: an ordered, case-insensitive multimap.
//!
//! Header order is preserved because the `X-MobiGATE-Peer` chain (§6.5) is a
//! stack of peer-streamlet identifiers whose order encodes the reverse
//! processing sequence on the client.
//!
//! A header block is kept in its wire form: one `String` holding the
//! `Name: value\r\n` lines exactly as [`Headers::to_wire`] emits them, plus
//! a per-line index of offsets into it. The index lives inline in the
//! block's shared allocation for up to eight lines and spills to
//! the heap only past that, so parsing a block costs two allocations (the
//! shared handle and the text) however it is framed, and serializing one is
//! a single copy — the per-hop parse/re-encapsulate work of §7.2 stays
//! cheap next to the data, as §6.7 intends for meta-data.
//!
//! [`Headers::parse`] scans bytes, not characters: line breaks are found a
//! machine word at a time, and a name or value is trimmed of ASCII
//! whitespace in place, falling back to `str::trim` only where a trimmed
//! end is a non-ASCII character (which may be Unicode whitespace).
//!
//! The block is copy-on-write: `clone()` bumps a refcount and the first
//! mutation after a clone materializes a private copy (`Arc::make_mut`).
//! Together with the refcounted message body this makes
//! `MimeMessage::clone` — the per-hop replay snapshot and the message
//! pool's shared-read path — allocation-free.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

use crate::error::MimeError;

/// Spare text a parsed block reserves for the edit that usually follows a
/// parse — one stamped header line such as a hop counter or the
/// `Content-Session` label — so that edit does not regrow the buffer.
const SPARE_TEXT: usize = 64;
/// Spare index slots a spilled index reserves, for the same reason.
const SPARE_LINES: usize = 2;
/// Lines a block indexes inside its own allocation before the index
/// spills to the heap: a session message's block (type, length, session,
/// sequence and hop lines) fits.
const INLINE_LINES: usize = 8;

/// Where one header line sits in the block text:
/// `text[start..]` is `name`, `": "`, `value`, `"\r\n"`.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    start: usize,
    name_len: usize,
    value_len: usize,
}

impl Line {
    fn name_end(&self) -> usize {
        self.start + self.name_len
    }

    fn value_start(&self) -> usize {
        self.name_end() + 2
    }

    fn value_end(&self) -> usize {
        self.value_start() + self.value_len
    }

    /// Bytes the line occupies, line break included.
    fn len(&self) -> usize {
        self.name_len + self.value_len + 4
    }
}

/// The line index: inline up to [`INLINE_LINES`] entries, a heap vector
/// past that.
#[derive(Debug, Clone)]
enum LineIndex {
    Inline {
        len: usize,
        lines: [Line; INLINE_LINES],
    },
    Spilled(Vec<Line>),
}

impl Default for LineIndex {
    fn default() -> Self {
        LineIndex::Inline {
            len: 0,
            lines: [Line::default(); INLINE_LINES],
        }
    }
}

impl LineIndex {
    fn clear(&mut self) {
        match self {
            LineIndex::Inline { len, .. } => *len = 0,
            LineIndex::Spilled(lines) => lines.clear(),
        }
    }

    /// Makes room for `additional` more lines; an index that has to spill
    /// for them also gets room for spare ones.
    fn reserve(&mut self, additional: usize) {
        match self {
            LineIndex::Inline { len, lines } if *len + additional > INLINE_LINES => {
                let mut spilled = Vec::with_capacity(*len + additional + SPARE_LINES);
                spilled.extend_from_slice(&lines[..*len]);
                *self = LineIndex::Spilled(spilled);
            }
            LineIndex::Inline { .. } => {}
            LineIndex::Spilled(lines) => lines.reserve(additional),
        }
    }

    fn push(&mut self, line: Line) {
        match self {
            LineIndex::Inline { len, lines } if *len < INLINE_LINES => {
                lines[*len] = line;
                *len += 1;
            }
            LineIndex::Inline { lines, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_LINES);
                spilled.extend_from_slice(lines);
                spilled.push(line);
                *self = LineIndex::Spilled(spilled);
            }
            LineIndex::Spilled(lines) => lines.push(line),
        }
    }

    fn remove(&mut self, idx: usize) -> Line {
        match self {
            LineIndex::Inline { len, lines } => {
                let line = lines[..*len][idx];
                lines.copy_within(idx + 1..*len, idx);
                *len -= 1;
                line
            }
            LineIndex::Spilled(lines) => lines.remove(idx),
        }
    }
}

impl Deref for LineIndex {
    type Target = [Line];

    fn deref(&self) -> &[Line] {
        match self {
            LineIndex::Inline { len, lines } => &lines[..*len],
            LineIndex::Spilled(lines) => lines,
        }
    }
}

impl DerefMut for LineIndex {
    fn deref_mut(&mut self) -> &mut [Line] {
        match self {
            LineIndex::Inline { len, lines } => &mut lines[..*len],
            LineIndex::Spilled(lines) => lines,
        }
    }
}

/// The wire text and its line index.
#[derive(Debug, Clone, Default)]
struct Block {
    text: String,
    lines: LineIndex,
}

impl Block {
    fn name(&self, line: &Line) -> &str {
        &self.text[line.start..line.name_end()]
    }

    fn value(&self, line: &Line) -> &str {
        &self.text[line.value_start()..line.value_end()]
    }

    fn push_line(&mut self, name: &str, value: &str) {
        let start = self.text.len();
        self.text.push_str(name);
        self.text.push_str(": ");
        self.text.push_str(value);
        self.text.push_str("\r\n");
        self.lines.push(Line {
            start,
            name_len: name.len(),
            value_len: value.len(),
        });
    }

    /// Splices line `idx` out of the text and the index.
    fn remove_line(&mut self, idx: usize) {
        let line = self.lines.remove(idx);
        self.text.drain(line.start..line.start + line.len());
        for later in &mut self.lines[idx..] {
            later.start -= line.len();
        }
    }

    /// Replaces the block with the parse of `block` (see
    /// [`Headers::parse`]), keeping its buffers' capacity.
    fn parse_into(&mut self, block: &str) -> Result<(), MimeError> {
        let bytes = block.as_bytes();
        let lines = count_byte(bytes, b'\n') + usize::from(!block.ends_with('\n'));
        self.lines.clear();
        self.lines.reserve(lines);
        self.text.clear();
        // Set at the first line not in wire form, once the text is
        // reserved for the worst case.
        let mut normalizing = false;
        // Input lines already in wire form are indexed where they stand
        // and copied in runs: `block[copied..pos]` is such a run, not yet
        // in the text. A block that is wire form throughout (every hop
        // after ingress) is copied in one go.
        let mut copied = 0;
        let mut pos = 0;
        while pos < bytes.len() {
            // One line: up to the next `\n`, less any trailing `\r`s.
            let start = pos;
            let end = find_byte(&bytes[pos..], b'\n').map_or(bytes.len(), |i| pos + i);
            let mut stop = end;
            while stop > start && bytes[stop - 1] == b'\r' {
                stop -= 1;
            }
            let line = &block[start..stop];
            pos = end + 1;
            if end - stop == 1 && end < bytes.len() {
                if let Some((name_len, value_len)) = wire_line(line) {
                    self.lines.push(Line {
                        start: self.text.len() + (start - copied),
                        name_len,
                        value_len,
                    });
                    continue;
                }
            }
            if !normalizing {
                // The first line not in wire form; nothing is in the text
                // yet. From here an input line grows by at most three bytes
                // (`:` to `": "`, a bare or missing `\n` to `"\r\n"`), so
                // one reservation holds the result.
                normalizing = true;
                let rest = &bytes[start..];
                self.reserve_text(block.len() + 3 * (count_byte(rest, b'\n') + 1));
            }
            self.text.push_str(&block[copied..start]);
            copied = pos.min(bytes.len());
            if line.is_empty() {
                continue;
            }
            if matches!(line.as_bytes()[0], b' ' | b'\t') {
                // Folded continuation of the previous header, which is the
                // last line of the text: reopen it before its line break.
                let Some(last) = self.lines.last_mut() else {
                    return Err(MimeError::InvalidHeader { line: line.into() });
                };
                let more = trim(line);
                self.text.truncate(self.text.len() - 2);
                self.text.push(' ');
                self.text.push_str(more);
                self.text.push_str("\r\n");
                last.value_len += 1 + more.len();
                continue;
            }
            let Some(colon) = line.bytes().position(|b| b == b':') else {
                return Err(MimeError::InvalidHeader { line: line.into() });
            };
            let name = trim(&line[..colon]);
            if name.is_empty() {
                return Err(MimeError::InvalidHeader { line: line.into() });
            }
            self.push_line(name, trim(&line[colon + 1..]));
        }
        if !normalizing {
            // Wire form throughout: the text is the block itself.
            self.reserve_text(block.len());
        }
        self.text.push_str(&block[copied..]);
        Ok(())
    }

    /// Makes the (empty) text hold `len` bytes. Storage that already does
    /// is kept as it is, so a re-parse in place never reallocates; fresh
    /// storage also gets the spare for the edit that usually follows.
    fn reserve_text(&mut self, len: usize) {
        if self.text.capacity() < len {
            self.text.reserve(len + SPARE_TEXT);
        }
    }

    /// Removes every line named `name`, returning how many were removed.
    fn remove_all(&mut self, name: &str) -> usize {
        let mut removed = 0;
        for idx in (0..self.lines.len()).rev() {
            if self.name(&self.lines[idx]).eq_ignore_ascii_case(name) {
                self.remove_line(idx);
                removed += 1;
            }
        }
        removed
    }
}

/// The one shared empty block every `Headers::new()` hands out, so
/// constructing an empty header block never allocates.
fn empty_block() -> Arc<Block> {
    static EMPTY: OnceLock<Arc<Block>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(Block::default())).clone()
}

/// An ordered multimap of headers, stored in wire form with copy-on-write.
/// Names compare case-insensitively and keep their casing for output.
#[derive(Clone)]
pub struct Headers {
    block: Arc<Block>,
}

impl Default for Headers {
    fn default() -> Self {
        Headers {
            block: empty_block(),
        }
    }
}

impl PartialEq for Headers {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.block, &other.block)
            || (self.len() == other.len()
                && self
                    .iter()
                    .zip(other.iter())
                    .all(|((n1, v1), (n2, v2))| n1.eq_ignore_ascii_case(n2) && v1 == v2))
    }
}

impl fmt::Debug for Headers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Headers {
    /// An empty header block (never allocates).
    pub fn new() -> Self {
        Self::default()
    }

    /// Private view for mutation: unshares the block if any clone still
    /// references it (this is where CoW triggers).
    fn block_mut(&mut self) -> &mut Block {
        Arc::make_mut(&mut self.block)
    }

    /// The lines named `name`, in order.
    fn matching<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Line> + 'a {
        let block = &*self.block;
        block
            .lines
            .iter()
            .filter(move |line| block.name(line).eq_ignore_ascii_case(name))
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.block.lines.len()
    }

    /// True when no headers are present.
    pub fn is_empty(&self) -> bool {
        self.block.lines.is_empty()
    }

    /// Appends a header line (duplicates allowed).
    pub fn append(&mut self, name: impl AsRef<str>, value: impl AsRef<str>) {
        self.block_mut().push_line(name.as_ref(), value.as_ref());
    }

    /// Replaces every occurrence of `name` with a single line at the end,
    /// or appends one.
    ///
    /// When the sole occurrence already carries `value` this is a no-op
    /// that touches nothing — repeated idempotent sets (the ingress
    /// `Content-Session` stamp on every hop) never unshare a clone.
    pub fn set(&mut self, name: &str, value: impl AsRef<str>) {
        let value = value.as_ref();
        let unchanged = {
            let mut matches = self.matching(name);
            matches!((matches.next(), matches.next()),
                (Some(line), None) if self.block.value(line) == value)
        };
        if unchanged {
            return;
        }
        let block = self.block_mut();
        block.remove_all(name);
        block.push_line(name, value);
    }

    /// [`Headers::set`] with a number's decimal form, formatted on the
    /// stack (a hop counter or `Content-Length` costs no `String`).
    pub fn set_u64(&mut self, name: &str, n: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = n;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        // Only ASCII digits were written.
        let text = std::str::from_utf8(&digits[at..]).unwrap_or_default();
        self.set(name, text);
    }

    /// First value for `name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.matching(name)
            .next()
            .map(|line| self.block.value(line))
    }

    /// All values for `name`, in insertion order.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.matching(name).map(|line| self.block.value(line))
    }

    /// Removes every occurrence of `name`, returning how many were removed.
    pub fn remove(&mut self, name: &str) -> usize {
        if self.matching(name).next().is_none() {
            return 0;
        }
        self.block_mut().remove_all(name)
    }

    /// Removes and returns the *last* value for `name` (stack semantics, used
    /// for the peer chain).
    pub fn pop(&mut self, name: &str) -> Option<String> {
        let block = &*self.block;
        let idx = block
            .lines
            .iter()
            .rposition(|line| block.name(line).eq_ignore_ascii_case(name))?;
        let block = self.block_mut();
        let value = block.value(&block.lines[idx]).to_owned();
        block.remove_line(idx);
        Some(value)
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        let block = &*self.block;
        block
            .lines
            .iter()
            .map(move |line| (block.name(line), block.value(line)))
    }

    /// True when `self` and `other` are clones of one block (no mutation
    /// since the clone).
    pub fn shares_entries_with(&self, other: &Headers) -> bool {
        Arc::ptr_eq(&self.block, &other.block)
    }

    /// A copy with storage of its own: every byte copied, nothing shared
    /// with `self` (the pass-by-value cost Figure 7-3 measures).
    pub fn deep_clone(&self) -> Headers {
        Headers {
            block: Arc::new(Block::clone(&self.block)),
        }
    }

    /// The block as `Name: value\r\n` lines (no terminating blank line),
    /// borrowed — exactly what [`Headers::to_wire`] returns.
    pub fn as_wire(&self) -> &str {
        &self.block.text
    }

    /// Serializes as `Name: value\r\n` lines (no terminating blank line).
    pub fn to_wire(&self) -> String {
        self.as_wire().to_owned()
    }

    /// Appends the wire form to `out` (for callers reusing a buffer).
    pub fn to_wire_into(&self, out: &mut String) {
        out.push_str(self.as_wire());
    }

    /// Parses a header block (one header per line; `\r` tolerated; stops at
    /// the end of input). Continuation lines (leading whitespace) are folded
    /// into the previous value per RFC 822.
    pub fn parse(block: &str) -> Result<Self, MimeError> {
        let mut out = Block::default();
        out.parse_into(block)?;
        Ok(if out.lines.is_empty() {
            Headers::new()
        } else {
            Headers {
                block: Arc::new(out),
            }
        })
    }

    /// Replaces these headers with the parse of `block`, exactly as
    /// [`Headers::parse`] would, but in this block's own storage when no
    /// clone shares it: re-parsing a message's headers then allocates
    /// nothing once that storage has grown to fit. On error the headers
    /// are left empty.
    pub fn reparse(&mut self, block: &str) -> Result<(), MimeError> {
        let parsed = match Arc::get_mut(&mut self.block) {
            Some(own) => own.parse_into(block),
            None => Headers::parse(block).map(|parsed| *self = parsed),
        };
        if parsed.is_err() {
            *self = Headers::new();
        }
        parsed
    }
}

/// The name and value lengths of a `\r\n`-terminated input line (given
/// without its line break) that is already in wire form — `name: value`
/// with both trimmed and one space after the colon — so parsing would
/// reproduce it byte for byte. `None` for any other line.
fn wire_line(line: &str) -> Option<(usize, usize)> {
    let colon = line.bytes().position(|b| b == b':')?;
    let (name, rest) = (&line[..colon], &line[colon + 1..]);
    let value = rest.strip_prefix(' ')?;
    (!name.is_empty() && trim(name).len() == name.len() && trim(value).len() == value.len())
        .then_some((name.len(), value.len()))
}

/// `str::trim`, trimming ASCII whitespace bytewise. Only when a trimmed
/// end is a non-ASCII character — possibly Unicode whitespace — does it
/// defer to `str::trim` itself.
fn trim(s: &str) -> &str {
    // The ASCII members of Unicode `White_Space`: `\t` through `\r`, and
    // the space.
    let space = |b: u8| b == b' ' || (b'\t'..=b'\r').contains(&b);
    let b = s.as_bytes();
    let (mut start, mut end) = (0, b.len());
    while start < end && space(b[start]) {
        start += 1;
    }
    while end > start && space(b[end - 1]) {
        end -= 1;
    }
    if start < end && (!b[start].is_ascii() || !b[end - 1].is_ascii()) {
        return s.trim();
    }
    &s[start..end]
}

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// The 8-byte word at the start of `chunk` (exactly 8 bytes long).
fn word(chunk: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(chunk);
    u64::from_le_bytes(w)
}

/// Position of the first `needle` in `hay`, scanning a word at a time.
pub(crate) fn find_byte(hay: &[u8], needle: u8) -> Option<usize> {
    let pattern = LO * u64::from(needle);
    let mut chunks = hay.chunks_exact(8);
    let mut base = 0;
    for chunk in &mut chunks {
        // A zero byte of `x` is a match. The borrow trick can flag a byte
        // *after* a true zero, never before one, so the lowest flag is
        // exact.
        let x = word(chunk) ^ pattern;
        let found = x.wrapping_sub(LO) & !x & HI;
        if found != 0 {
            return Some(base + (found.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|i| base + i)
}

/// Occurrences of `needle` in `hay`, counted a word at a time.
fn count_byte(hay: &[u8], needle: u8) -> usize {
    let pattern = LO * u64::from(needle);
    let low7 = !HI;
    let mut chunks = hay.chunks_exact(8);
    let mut n = 0;
    for chunk in &mut chunks {
        // Exact per-byte zero test (no borrow between bytes): a byte's
        // high bit ends up set iff the byte of `x` was zero.
        let x = word(chunk) ^ pattern;
        let zero = !(((x & low7).wrapping_add(low7)) | x) & HI;
        n += zero.count_ones() as usize;
    }
    n + chunks.remainder().iter().filter(|&&b| b == needle).count()
}

impl<N: AsRef<str>, V: AsRef<str>> FromIterator<(N, V)> for Headers {
    fn from_iter<T: IntoIterator<Item = (N, V)>>(iter: T) -> Self {
        let mut headers = Headers::new();
        for (name, value) in iter {
            headers.append(name, value);
        }
        headers
    }
}

/// The entry-list implementation the wire-form block replaced: one owned
/// name and value string per line. Kept only as the oracle the
/// equivalence tests hold [`Headers`] to.
#[cfg(test)]
pub(crate) mod reference {
    use crate::error::MimeError;
    use std::sync::Arc;

    #[derive(Debug, Clone)]
    struct HeaderName(String);

    impl PartialEq<str> for HeaderName {
        fn eq(&self, other: &str) -> bool {
            self.0.eq_ignore_ascii_case(other)
        }
    }

    #[derive(Debug, Clone, Default)]
    pub(crate) struct Headers {
        entries: Arc<Vec<(HeaderName, String)>>,
    }

    impl Headers {
        fn entries_mut(&mut self) -> &mut Vec<(HeaderName, String)> {
            Arc::make_mut(&mut self.entries)
        }

        pub(crate) fn append(&mut self, name: &str, value: &str) {
            self.entries_mut()
                .push((HeaderName(name.into()), value.into()));
        }

        pub(crate) fn set(&mut self, name: &str, value: &str) {
            let mut matches = self.entries.iter().filter(|(n, _)| n == name);
            if let (Some((_, existing)), None) = (matches.next(), matches.next()) {
                if existing == value {
                    return;
                }
            }
            let entries = self.entries_mut();
            entries.retain(|(n, _)| n != name);
            entries.push((HeaderName(name.into()), value.into()));
        }

        pub(crate) fn get(&self, name: &str) -> Option<&str> {
            self.entries
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
        }

        pub(crate) fn remove(&mut self, name: &str) -> usize {
            if !self.entries.iter().any(|(n, _)| n == name) {
                return 0;
            }
            let entries = self.entries_mut();
            let before = entries.len();
            entries.retain(|(n, _)| n != name);
            before - entries.len()
        }

        pub(crate) fn pop(&mut self, name: &str) -> Option<String> {
            let idx = self.entries.iter().rposition(|(n, _)| n == name)?;
            Some(self.entries_mut().remove(idx).1)
        }

        pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
            self.entries.iter().map(|(n, v)| (n.0.as_str(), v.as_str()))
        }

        pub(crate) fn shares_entries_with(&self, other: &Headers) -> bool {
            Arc::ptr_eq(&self.entries, &other.entries)
        }

        pub(crate) fn to_wire(&self) -> String {
            let mut out = String::new();
            for (n, v) in self.iter() {
                out.push_str(n);
                out.push_str(": ");
                out.push_str(v);
                out.push_str("\r\n");
            }
            out
        }

        pub(crate) fn parse(block: &str) -> Result<Self, MimeError> {
            let mut entries: Vec<(HeaderName, String)> = Vec::new();
            for raw in block.lines() {
                let line = raw.trim_end_matches('\r');
                if line.is_empty() {
                    continue;
                }
                if line.starts_with(' ') || line.starts_with('\t') {
                    match entries.last_mut() {
                        Some((_, v)) => {
                            v.push(' ');
                            v.push_str(line.trim());
                        }
                        None => {
                            return Err(MimeError::InvalidHeader { line: line.into() });
                        }
                    }
                    continue;
                }
                let (name, value) = line
                    .split_once(':')
                    .ok_or_else(|| MimeError::InvalidHeader { line: line.into() })?;
                if name.trim().is_empty() {
                    return Err(MimeError::InvalidHeader { line: line.into() });
                }
                entries.push((HeaderName(name.trim().into()), value.trim().to_string()));
            }
            Ok(Headers {
                entries: Arc::new(entries),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_compare_case_insensitively() {
        let mut h = Headers::new();
        h.append("Content-Type", "text/plain");
        assert_eq!(h.get("content-type"), Some("text/plain"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/plain"));
        let lower: Headers = [("content-type", "text/plain")].into_iter().collect();
        assert_eq!(h, lower);
        assert_eq!(h.iter().next(), Some(("Content-Type", "text/plain")));
    }

    #[test]
    fn set_replaces_all_duplicates() {
        let mut h = Headers::new();
        h.append("X-A", "1");
        h.append("x-a", "2");
        h.set("X-A", "3");
        assert_eq!(h.get_all("X-A").collect::<Vec<_>>(), vec!["3"]);
    }

    #[test]
    fn set_moves_a_replaced_line_to_the_end() {
        let mut h: Headers = [("A", "1"), ("B", "2"), ("C", "3")].into_iter().collect();
        h.set("b", "22");
        assert_eq!(
            h.iter().collect::<Vec<_>>(),
            vec![("A", "1"), ("C", "3"), ("b", "22")]
        );
        assert_eq!(h.to_wire(), "A: 1\r\nC: 3\r\nb: 22\r\n");
    }

    #[test]
    fn get_returns_first_pop_returns_last() {
        let mut h = Headers::new();
        h.append("X-MobiGATE-Peer", "compressor");
        h.append("X-MobiGATE-Peer", "encryptor");
        assert_eq!(h.get("X-MobiGATE-Peer"), Some("compressor"));
        assert_eq!(h.pop("X-MobiGATE-Peer").as_deref(), Some("encryptor"));
        assert_eq!(h.pop("X-MobiGATE-Peer").as_deref(), Some("compressor"));
        assert_eq!(h.pop("X-MobiGATE-Peer"), None);
    }

    #[test]
    fn wire_round_trip() {
        let mut h = Headers::new();
        h.append("Content-Type", "text/plain");
        h.append("Content-Session", "s-42");
        let parsed = Headers::parse(&h.to_wire()).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(parsed.as_wire(), h.as_wire());
    }

    #[test]
    fn parse_folded_continuation() {
        let h = Headers::parse("X-Long: part one\r\n\tpart two\r\nNext: x\r\n").unwrap();
        assert_eq!(h.get("X-Long"), Some("part one part two"));
        assert_eq!(h.to_wire(), "X-Long: part one part two\r\nNext: x\r\n");
    }

    #[test]
    fn parse_normalizes_to_wire_form() {
        let h = Headers::parse("A:1\n\nB\u{a0}:  two words \r\r\n").unwrap();
        assert_eq!(
            h.iter().collect::<Vec<_>>(),
            vec![("A", "1"), ("B", "two words")]
        );
        assert_eq!(h.as_wire(), "A: 1\r\nB: two words\r\n");
    }

    #[test]
    fn parse_rejects_bad_lines() {
        assert!(Headers::parse("no-colon-here").is_err());
        assert!(Headers::parse(": empty name").is_err());
        assert!(Headers::parse("\tcontinuation without header").is_err());
    }

    #[test]
    fn remove_reports_count() {
        let mut h = Headers::new();
        h.append("A", "1");
        h.append("a", "2");
        h.append("B", "3");
        assert_eq!(h.remove("A"), 2);
        assert_eq!(h.len(), 1);
        assert_eq!(h.to_wire(), "B: 3\r\n");
    }

    #[test]
    fn from_iterator_preserves_order() {
        let h: Headers = [("A", "1"), ("B", "2")].into_iter().collect();
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![("A", "1"), ("B", "2")]);
    }

    #[test]
    fn clone_shares_entries_until_mutation() {
        let mut h = Headers::new();
        h.append("Content-Type", "text/plain");
        let c = h.clone();
        assert!(h.shares_entries_with(&c));
        let mut d = c.clone();
        d.append("X-B", "2");
        assert!(!d.shares_entries_with(&h));
        assert_eq!(h.len(), 1);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn idempotent_set_does_not_unshare() {
        let mut h = Headers::new();
        h.set("Content-Session", "s-7");
        let c = h.clone();
        let mut d = c.clone();
        d.set("Content-Session", "s-7");
        assert!(d.shares_entries_with(&h), "idempotent set must be a no-op");
        d.set("content-session", "s-7");
        assert!(
            d.shares_entries_with(&h),
            "the no-op holds whatever the name's casing"
        );
        assert_eq!(d.iter().next(), Some(("Content-Session", "s-7")));
        d.set("Content-Session", "s-8");
        assert!(!d.shares_entries_with(&h));
        assert_eq!(h.get("Content-Session"), Some("s-7"));
        assert_eq!(d.get("Content-Session"), Some("s-8"));
    }

    #[test]
    fn remove_of_absent_name_does_not_unshare() {
        let mut h = Headers::new();
        h.append("A", "1");
        let mut c = h.clone();
        assert_eq!(c.remove("Z"), 0);
        assert!(c.shares_entries_with(&h));
    }

    #[test]
    fn reparse_reuses_unshared_storage_and_spares_clones() {
        let mut h = Headers::parse("A: 1\r\nB: 2\r\n").unwrap();
        let text = h.as_wire().as_ptr();
        h.reparse("C:  3\nD: 4\r\n").unwrap();
        assert_eq!(h.as_wire(), "C: 3\r\nD: 4\r\n");
        assert_eq!(
            h.as_wire().as_ptr(),
            text,
            "an unshared block is parsed in place"
        );
        let snapshot = h.clone();
        h.reparse("E: 5\r\n").unwrap();
        assert_eq!(h.as_wire(), "E: 5\r\n");
        assert_eq!(snapshot.as_wire(), "C: 3\r\nD: 4\r\n");
        assert!(h.reparse("no colon").is_err());
        assert!(h.is_empty());
    }

    #[test]
    fn lines_past_the_inline_index_spill() {
        let text: String = (0..20).map(|i| format!("H{i}: {i}\r\n")).collect();
        let mut h = Headers::parse(&text).unwrap();
        assert_eq!(h.len(), 20);
        assert_eq!(h.get("h19"), Some("19"));
        let mut built = Headers::new();
        for i in 0..20 {
            built.append(format!("H{i}"), i.to_string());
        }
        assert_eq!(built, h);
        assert_eq!(h.pop("H3").as_deref(), Some("3"));
        h.set("H0", "zero");
        assert_eq!(h.len(), 19);
        assert!(h.as_wire().ends_with("H19: 19\r\nH0: zero\r\n"));
    }

    #[test]
    fn set_u64_writes_the_decimal_form() {
        let mut h = Headers::new();
        for n in [0, 7, 10, 12345, u64::MAX] {
            h.set_u64("N", n);
            assert_eq!(h.get("N"), Some(n.to_string().as_str()));
        }
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn deep_clone_copies_every_byte() {
        let h: Headers = [("A", "1"), ("B", "2")].into_iter().collect();
        let d = h.deep_clone();
        assert_eq!(d, h);
        assert!(!d.shares_entries_with(&h));
        assert_ne!(d.as_wire().as_ptr(), h.as_wire().as_ptr());
    }
}

/// Holds [`Headers`] to the [`reference`] implementation: the same
/// accept/reject decisions, entries, wire bytes and sharing outcomes.
#[cfg(test)]
pub(crate) mod equivalence {
    use super::{reference, Headers};
    use proptest::prelude::*;

    /// Names drawn from a small pool in mixed casings, so duplicates and
    /// case-insensitive matches are common.
    fn name() -> impl Strategy<Value = String> {
        prop_oneof![
            "[Xx]-[Aa]",
            "[Xx]-[Bb]",
            "[Cc]ontent-[Ss]ession",
            "[Cc]ontent-[Ll]ength",
            "[A-Za-z][A-Za-z0-9-]{0,12}",
        ]
    }

    /// Values as the API receives them: no line breaks, but leading,
    /// trailing and inner whitespace (ASCII and not) and colons allowed.
    fn value() -> impl Strategy<Value = String> {
        prop_oneof![
            "[a-z0-9]{0,6}",
            "[ a-z:\t]{0,8}",
            "[ a\u{a0}\u{2003}é]{0,5}",
        ]
    }

    /// One raw input line of a header block: well-formed, folded,
    /// blank, `\r`-laden, whitespace-padded, or malformed.
    fn raw_line() -> impl Strategy<Value = String> {
        prop_oneof![
            (name(), value()).prop_map(|(n, v)| format!("{n}: {v}")),
            (name(), value()).prop_map(|(n, v)| format!("{n}:{v}")),
            (name(), value()).prop_map(|(n, v)| format!(" \u{a0}{n} \t:{v}\u{2003}")),
            value().prop_map(|v| format!(" {v}")),
            value().prop_map(|v| format!("\t{v}")),
            "[\r \t]{0,3}",
            "[a-z:\u{a0}é]{0,6}",
            Just(":".to_string()),
            Just("\u{a0}: x".to_string()),
        ]
    }

    /// Line terminators, including `\r` runs and a bare `\r`.
    fn line_end() -> impl Strategy<Value = String> {
        prop_oneof![
            Just("\r\n".to_string()),
            Just("\n".to_string()),
            "[\r]{2,4}\n",
            Just("\r".to_string()),
        ]
    }

    /// An adversarial header block: random lines and terminators.
    pub(crate) fn block() -> impl Strategy<Value = String> {
        prop::collection::vec((raw_line(), line_end()), 0..8)
            .prop_map(|lines| lines.into_iter().map(|(l, e)| l + &e).collect())
    }

    #[derive(Debug, Clone)]
    enum Op {
        Append(String, String),
        Set(String, String),
        Remove(String),
        Pop(String),
        Snapshot,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (name(), value()).prop_map(|(n, v)| Op::Append(n, v)),
            (name(), value()).prop_map(|(n, v)| Op::Set(n, v)),
            (name(), prop_oneof!["[a-z0-9]{0,1}", Just("7".to_string())])
                .prop_map(|(n, v)| Op::Set(n, v)),
            name().prop_map(Op::Remove),
            name().prop_map(Op::Pop),
            Just(Op::Snapshot),
        ]
    }

    fn assert_same(new: &Headers, old: &reference::Headers) {
        assert_eq!(
            new.iter().collect::<Vec<_>>(),
            old.iter().collect::<Vec<_>>()
        );
        assert_eq!(new.to_wire(), old.to_wire());
        assert_eq!(new.len(), old.iter().count());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

        /// Identical accept/reject decisions and entries on adversarial
        /// blocks.
        #[test]
        fn parse_matches_reference(text in block()) {
            match (Headers::parse(&text), reference::Headers::parse(&text)) {
                (Ok(new), Ok(old)) => assert_same(&new, &old),
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("{text:?}: new {a:?} vs reference {b:?}"),
            }
        }

        /// Re-parsing into an existing block — unshared, or shared with a
        /// snapshot — gives what a fresh parse gives, and leaves the
        /// snapshot alone.
        #[test]
        fn reparse_matches_parse(first in block(), text in block()) {
            let Ok(mut reused) = Headers::parse(&first) else {
                return;
            };
            let snapshot = reused.clone();
            let mut shared = reused.clone();
            for dest in [&mut reused, &mut shared] {
                match (dest.reparse(&text), Headers::parse(&text)) {
                    (Ok(()), Ok(fresh)) => {
                        prop_assert_eq!(dest.as_wire(), fresh.as_wire());
                        prop_assert_eq!(&*dest, &fresh);
                    }
                    (Err(a), Err(b)) => {
                        prop_assert_eq!(a.to_string(), b.to_string());
                        prop_assert!(dest.is_empty());
                    }
                    (a, b) => panic!("{text:?}: reparse {a:?} vs parse {b:?}"),
                }
            }
            prop_assert_eq!(snapshot.as_wire(), Headers::parse(&first).unwrap().as_wire());
        }

        /// Random edit sequences leave identical entries, wire bytes and
        /// copy-on-write sharing.
        #[test]
        fn edits_match_reference(
            start in block(),
            ops in prop::collection::vec(op(), 0..24),
        ) {
            let (Ok(mut new), Ok(mut old)) =
                (Headers::parse(&start), reference::Headers::parse(&start))
            else {
                return;
            };
            let (mut new_snap, mut old_snap) = (new.clone(), old.clone());
            for op in ops {
                match op {
                    Op::Append(n, v) => {
                        new.append(&n, &v);
                        old.append(&n, &v);
                    }
                    Op::Set(n, v) => {
                        new.set(&n, &v);
                        old.set(&n, &v);
                    }
                    Op::Remove(n) => prop_assert_eq!(new.remove(&n), old.remove(&n)),
                    Op::Pop(n) => prop_assert_eq!(new.pop(&n), old.pop(&n)),
                    Op::Snapshot => {
                        new_snap = new.clone();
                        old_snap = old.clone();
                    }
                }
                assert_same(&new, &old);
                prop_assert_eq!(new.get("x-a"), old.get("x-a"));
                prop_assert_eq!(
                    new.shares_entries_with(&new_snap),
                    old.shares_entries_with(&old_snap)
                );
            }
            assert_same(&new_snap, &old_snap);
        }
    }
}
