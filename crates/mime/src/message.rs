//! The MIME message model carried through MobiGATE.
//!
//! Messages exchanged in the system are formatted based on MIME (§4.1). Two
//! MobiGATE-specific headers matter:
//!
//! * `Content-Session` (§4.4.3) — the session ID that lets shared streamlet
//!   instances route output messages back to the owning stream:
//!   `session ::= "Content-Session" ":" session-id`.
//! * `X-MobiGATE-Peer` (§6.5) — each server-side streamlet that requires
//!   reverse processing pushes its peer identifier onto this header stack;
//!   the client pops identifiers and dispatches to the matching peer
//!   streamlets in reverse order.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::error::MimeError;
use crate::headers::{find_byte, Headers};
use crate::types::{self, MimeType};

/// Header carrying the stream session identifier (§4.4.3).
pub const CONTENT_SESSION: &str = "Content-Session";
/// Header stack carrying peer-streamlet identifiers (§6.5).
pub const PEER_CHAIN: &str = "X-MobiGATE-Peer";
/// Standard content type header.
pub const CONTENT_TYPE: &str = "Content-Type";
/// Standard content length header (bytes of body).
pub const CONTENT_LENGTH: &str = "Content-Length";

/// A stream-instance session identifier.
///
/// "Before executing a coordination stream, the system automatically
/// generates a unique session ID for each instance of a stream" (§4.4.3).
///
/// The identifier is shared, not copied: every streamlet, routing row and
/// registration of a session holds the same allocation, so a clone is a
/// reference-count bump.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SessionId(Arc<str>);

impl SessionId {
    /// Wraps a raw identifier.
    pub fn new(id: impl Into<Arc<str>>) -> Self {
        SessionId(id.into())
    }

    /// The identifier as a shared string (a reference-count bump).
    pub fn shared(&self) -> Arc<str> {
        self.0.clone()
    }

    /// The identifier as text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for SessionId {
    fn from(s: &str) -> Self {
        SessionId::new(s)
    }
}

/// A MIME message: headers plus an immutable, cheaply-cloneable body.
///
/// The body is a [`Bytes`] so that the pass-by-reference message pool (§6.7)
/// can hand the same underlying buffer to many streamlets without copying.
#[derive(Debug, Clone, PartialEq)]
pub struct MimeMessage {
    /// Header block.
    pub headers: Headers,
    /// Message body.
    pub body: Bytes,
}

impl MimeMessage {
    /// Builds a message with the given content type and body.
    pub fn new(content_type: &MimeType, body: impl Into<Bytes>) -> Self {
        let body = body.into();
        let mut headers = Headers::new();
        headers.set(CONTENT_TYPE, content_type.to_string());
        headers.set_u64(CONTENT_LENGTH, body.len() as u64);
        MimeMessage { headers, body }
    }

    /// Builds a `text/plain` message from a string.
    pub fn text(body: impl Into<String>) -> Self {
        MimeMessage::new(&MimeType::new("text", "plain"), body.into().into_bytes())
    }

    /// The declared content type, defaulting to `application/octet-stream`
    /// when absent or unparseable (the MIME default).
    pub fn content_type(&self) -> MimeType {
        self.headers
            .get(CONTENT_TYPE)
            .and_then(|v| MimeType::from_str(v).ok())
            .unwrap_or_else(|| MimeType::new("application", "octet-stream"))
    }

    /// The top-level media type of [`MimeMessage::content_type`] as
    /// written in the header (compare it case-insensitively), read without
    /// building a [`MimeType`]: `application` when the header is absent or
    /// does not parse.
    pub fn content_top(&self) -> &str {
        self.headers
            .get(CONTENT_TYPE)
            .and_then(types::top_level_of)
            .unwrap_or("application")
    }

    /// True when the content type's top-level media type is `top`
    /// (case-insensitive): `msg.content_type().top == top` without
    /// allocating.
    pub fn has_top_type(&self, top: &str) -> bool {
        self.content_top().eq_ignore_ascii_case(top)
    }

    /// Replaces the content type header.
    pub fn set_content_type(&mut self, ty: &MimeType) {
        self.headers.set(CONTENT_TYPE, ty.to_string());
    }

    /// Replaces the body and keeps `Content-Length` consistent.
    pub fn set_body(&mut self, body: impl Into<Bytes>) {
        self.body = body.into();
        self.headers.set_u64(CONTENT_LENGTH, self.body.len() as u64);
    }

    /// The session this message belongs to, if labeled.
    pub fn session(&self) -> Option<SessionId> {
        self.headers.get(CONTENT_SESSION).map(SessionId::from)
    }

    /// Labels the message with its stream session (§4.4.3).
    pub fn set_session(&mut self, id: &SessionId) {
        self.headers.set(CONTENT_SESSION, id.as_str());
    }

    /// Pushes a peer-streamlet identifier for client-side reverse
    /// processing (§6.5).
    pub fn push_peer(&mut self, peer_id: &str) {
        self.headers.append(PEER_CHAIN, peer_id);
    }

    /// Pops the most recently pushed peer identifier.
    pub fn pop_peer(&mut self) -> Option<String> {
        self.headers.pop(PEER_CHAIN)
    }

    /// The peer chain bottom-to-top (order the server applied processing).
    pub fn peer_chain(&self) -> Vec<String> {
        self.headers
            .get_all(PEER_CHAIN)
            .map(str::to_owned)
            .collect()
    }

    /// Total size on the wire: headers + blank line + body.
    pub fn wire_len(&self) -> usize {
        self.headers.as_wire().len() + 2 + self.body.len()
    }

    /// Serializes to the wire format: headers, CRLF, body.
    pub fn to_wire(&self) -> Bytes {
        let mut buf = Vec::new();
        self.to_wire_into(&mut buf);
        Bytes::from(buf)
    }

    /// Appends the wire form to `buf` (for egress paths reusing one
    /// scratch buffer across messages; `buf` is not cleared).
    pub fn to_wire_into(&self, buf: &mut Vec<u8>) {
        buf.reserve(self.wire_len());
        buf.extend_from_slice(self.headers.as_wire().as_bytes());
        buf.extend_from_slice(b"\r\n");
        buf.extend_from_slice(&self.body);
    }

    /// Parses a wire-format message (headers, blank line, body). The body
    /// length is taken from `Content-Length` when present; otherwise the
    /// remainder of the buffer is the body.
    pub fn from_wire(data: &[u8]) -> Result<Self, MimeError> {
        Self::from_wire_with(data, Bytes::copy_from_slice)
    }

    /// Parses a wire-format message, materializing the body through
    /// `make_body` — the hook the gateway's buffer pool uses to copy the
    /// body into a recycled slab instead of a fresh allocation.
    pub fn from_wire_with(
        data: &[u8],
        make_body: impl FnOnce(&[u8]) -> Bytes,
    ) -> Result<Self, MimeError> {
        let split = find_header_end(data).ok_or_else(|| MimeError::InvalidMessage {
            reason: "missing blank line after headers".into(),
        })?;
        let head = std::str::from_utf8(&data[..split.header_end]).map_err(|_| {
            MimeError::InvalidMessage {
                reason: "headers are not valid UTF-8".into(),
            }
        })?;
        let headers = Headers::parse(head)?;
        let body_start = split.body_start;
        let body = match headers.get(CONTENT_LENGTH) {
            Some(len) => {
                let len: usize = len.trim().parse().map_err(|_| MimeError::InvalidMessage {
                    reason: format!("bad Content-Length `{len}`"),
                })?;
                let body = body_start
                    .checked_add(len)
                    .and_then(|end| data.get(body_start..end))
                    .ok_or_else(|| MimeError::InvalidMessage {
                        reason: format!(
                            "truncated body: declared {len} bytes, {} available",
                            data.len() - body_start
                        ),
                    })?;
                make_body(body)
            }
            None => make_body(&data[body_start..]),
        };
        Ok(MimeMessage { headers, body })
    }
}

struct HeaderSplit {
    header_end: usize,
    body_start: usize,
}

/// Finds the header/body separator: the first blank line, CRLF-framed
/// (`\r\n\r\n`) or LF-framed (`\n\n`), whichever comes first — so a
/// body may carry blank lines of the other framing. One pass over the
/// line breaks of the header block.
fn find_header_end(data: &[u8]) -> Option<HeaderSplit> {
    let mut from = 0;
    while let Some(i) = find_byte(&data[from..], b'\n').map(|i| from + i) {
        match data.get(i + 1) {
            Some(b'\n') => {
                return Some(HeaderSplit {
                    header_end: i + 1,
                    body_start: i + 2,
                })
            }
            Some(b'\r') if i > 0 && data[i - 1] == b'\r' && data.get(i + 2) == Some(&b'\n') => {
                return Some(HeaderSplit {
                    header_end: i + 1,
                    body_start: i + 3,
                })
            }
            _ => from = i + 1,
        }
    }
    // A message may legally consist of headers only with a final CRLF CRLF
    // omitted if the body is empty and the buffer ends after the headers.
    if data.ends_with(b"\n") {
        return Some(HeaderSplit {
            header_end: data.len(),
            body_start: data.len(),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sets_type_and_length() {
        let m = MimeMessage::new(&MimeType::new("image", "gif"), vec![0u8; 10]);
        assert_eq!(m.content_type(), MimeType::new("image", "gif"));
        assert_eq!(m.headers.get(CONTENT_LENGTH), Some("10"));
    }

    #[test]
    fn set_body_updates_length() {
        let mut m = MimeMessage::text("hi");
        m.set_body(vec![1u8; 100]);
        assert_eq!(m.headers.get(CONTENT_LENGTH), Some("100"));
    }

    #[test]
    fn session_round_trip() {
        let mut m = MimeMessage::text("x");
        assert!(m.session().is_none());
        m.set_session(&SessionId::new("stream-7"));
        assert_eq!(m.session().unwrap().as_str(), "stream-7");
    }

    #[test]
    fn peer_chain_is_a_stack() {
        let mut m = MimeMessage::text("x");
        m.push_peer("compressor");
        m.push_peer("encryptor");
        assert_eq!(m.peer_chain(), vec!["compressor", "encryptor"]);
        assert_eq!(m.pop_peer().as_deref(), Some("encryptor"));
        assert_eq!(m.pop_peer().as_deref(), Some("compressor"));
        assert_eq!(m.pop_peer(), None);
    }

    #[test]
    fn wire_round_trip() {
        let mut m = MimeMessage::new(&MimeType::new("text", "plain"), &b"hello world"[..]);
        m.set_session(&SessionId::new("s1"));
        m.push_peer("p1");
        let parsed = MimeMessage::from_wire(&m.to_wire()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn wire_round_trip_binary_body() {
        let body: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let m = MimeMessage::new(&MimeType::new("application", "octet-stream"), body);
        let parsed = MimeMessage::from_wire(&m.to_wire()).unwrap();
        assert_eq!(parsed.body, m.body);
    }

    #[test]
    fn from_wire_lflf_separator() {
        let raw = b"Content-Type: text/plain\nContent-Length: 2\n\nok";
        let m = MimeMessage::from_wire(raw).unwrap();
        assert_eq!(&m.body[..], b"ok");
    }

    #[test]
    fn from_wire_splits_at_the_first_blank_line_of_either_framing() {
        let raw = b"Content-Type: text/plain\nX-A: 1\n\nline one\r\n\r\nline two";
        let m = MimeMessage::from_wire(raw).unwrap();
        assert_eq!(m.headers.get("X-A"), Some("1"));
        assert_eq!(&m.body[..], b"line one\r\n\r\nline two");
        let raw = b"Content-Type: text/plain\r\nX-A: 1\r\n\r\nline one\n\nline two";
        let m = MimeMessage::from_wire(raw).unwrap();
        assert_eq!(m.headers.get("X-A"), Some("1"));
        assert_eq!(&m.body[..], b"line one\n\nline two");
    }

    #[test]
    fn top_type_is_read_without_building_the_type() {
        let mut m = MimeMessage::new(&MimeType::new("Image", "GIF"), vec![0u8; 4]);
        assert!(m.has_top_type("image") && m.has_top_type("IMAGE"));
        m.headers.set(CONTENT_TYPE, "Multipart/Mixed; boundary=x");
        assert_eq!(m.content_top(), "Multipart");
        assert!(m.has_top_type("multipart"));
        // Unparseable or absent: the `application/octet-stream` default.
        for bad in ["image/gif; boundary", "image/", "im age/gif", ""] {
            m.headers.set(CONTENT_TYPE, bad);
            assert_eq!(m.content_top(), m.content_type().top, "{bad:?}");
        }
        m.headers.remove(CONTENT_TYPE);
        assert!(m.has_top_type("application"));
    }

    #[test]
    fn from_wire_rejects_truncated_body() {
        let raw = b"Content-Length: 100\r\n\r\nshort";
        assert!(MimeMessage::from_wire(raw).is_err());
    }

    #[test]
    fn from_wire_rejects_an_overflowing_content_length() {
        let raw = b"Content-Length: 18446744073709551615\r\n\r\nbody";
        assert!(matches!(
            MimeMessage::from_wire(raw),
            Err(MimeError::InvalidMessage { .. })
        ));
    }

    #[test]
    fn from_wire_rejects_missing_separator() {
        assert!(MimeMessage::from_wire(b"Content-Type: text/plain").is_err());
    }

    #[test]
    fn default_content_type_is_octet_stream() {
        let m = MimeMessage {
            headers: Headers::new(),
            body: Bytes::new(),
        };
        assert_eq!(
            m.content_type(),
            MimeType::new("application", "octet-stream")
        );
    }

    #[test]
    fn wire_len_matches_serialization() {
        let m = MimeMessage::text("some text body");
        assert_eq!(m.wire_len(), m.to_wire().len());
    }

    #[test]
    fn clone_shares_body_buffer() {
        // Pass-by-reference relies on Bytes sharing; cloning must not copy.
        let m = MimeMessage::new(&MimeType::new("image", "gif"), vec![0u8; 1 << 20]);
        let c = m.clone();
        assert_eq!(m.body.as_ptr(), c.body.as_ptr());
    }

    #[test]
    fn clone_shares_header_entries() {
        let mut m = MimeMessage::text("x");
        m.set_session(&SessionId::new("s1"));
        let c = m.clone();
        assert!(m.headers.shares_entries_with(&c.headers));
    }

    #[test]
    fn to_wire_into_matches_to_wire() {
        let mut m = MimeMessage::new(&MimeType::new("text", "plain"), &b"body bytes"[..]);
        m.push_peer("p1");
        let mut buf = vec![0xEEu8; 3]; // pre-existing bytes must be kept
        m.to_wire_into(&mut buf);
        assert_eq!(&buf[..3], &[0xEE; 3]);
        assert_eq!(&buf[3..], &m.to_wire()[..]);
    }

    #[test]
    fn from_wire_with_routes_body_through_hook() {
        let body: Vec<u8> = (0..200u8).collect();
        let m = MimeMessage::new(&MimeType::new("application", "octet-stream"), body);
        let wire = m.to_wire();
        let mut seen = 0usize;
        let parsed = MimeMessage::from_wire_with(&wire, |b| {
            seen = b.len();
            let mut staged = bytes::BytesMut::with_capacity(b.len());
            staged.extend_from_slice(b);
            staged.freeze()
        })
        .unwrap();
        assert_eq!(seen, 200);
        assert_eq!(parsed.body, m.body);
    }
}

/// Holds the wire path to the entry-list reference: `from_wire` then
/// `to_wire` reproduces the reference's bytes exactly.
#[cfg(test)]
mod equivalence {
    use super::*;
    use crate::headers::{equivalence::block, reference};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

        #[test]
        fn wire_round_trip_matches_reference(
            head in block(),
            body in prop::collection::vec(any::<u8>(), 0..48),
            declare_len in any::<bool>(),
        ) {
            let mut frame = head.into_bytes();
            if declare_len {
                frame.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
            }
            frame.extend_from_slice(b"\r\n");
            frame.extend_from_slice(&body);

            let old = find_header_end(&frame).and_then(|split| {
                let head = std::str::from_utf8(&frame[..split.header_end]).ok()?;
                Some((reference::Headers::parse(head), split.body_start))
            });
            match (MimeMessage::from_wire(&frame), old) {
                (Ok(msg), Some((Ok(headers), body_start))) => {
                    prop_assert_eq!(
                        msg.headers.iter().collect::<Vec<_>>(),
                        headers.iter().collect::<Vec<_>>()
                    );
                    prop_assert_eq!(&msg.body[..], &frame[body_start..body_start + msg.body.len()]);
                    let mut expected = headers.to_wire().into_bytes();
                    expected.extend_from_slice(b"\r\n");
                    expected.extend_from_slice(&msg.body);
                    prop_assert_eq!(&msg.to_wire()[..], &expected[..]);
                    prop_assert_eq!(msg.wire_len(), expected.len());
                }
                (Ok(msg), old) => panic!("{frame:?}: accepted as {msg:?}, reference {old:?}"),
                (Err(MimeError::InvalidHeader { .. }), old) => {
                    prop_assert!(matches!(old, Some((Err(_), _))), "{:?}", frame);
                }
                (Err(_), _) => {}
            }
        }

        /// `content_top` reads the top-level type `content_type` would
        /// build, and the same default when the value does not parse.
        #[test]
        fn content_top_agrees_with_content_type(
            top in "[ a-zA-Z*é]{0,4}",
            sub in "[ a-z.+*/-]{0,4}",
            params in prop::collection::vec(("[ a-z]{0,3}", any::<bool>(), "[a-z\"]{0,3}"), 0..3),
            slash in any::<bool>(),
        ) {
            let mut value = top;
            if slash {
                value.push('/');
                value.push_str(&sub);
            }
            for (key, eq, v) in &params {
                value.push(';');
                value.push_str(key);
                if *eq {
                    value.push('=');
                }
                value.push_str(v);
            }
            let mut m = MimeMessage::text("x");
            m.headers.set(CONTENT_TYPE, &value);
            prop_assert_eq!(m.content_top().to_ascii_lowercase(), m.content_type().top, "{:?}", value);
        }

        /// The same headers and body, framed with CRLF or with bare LF
        /// line breaks, parse to equal messages — whatever blank lines
        /// either framing leaves in the body.
        #[test]
        fn crlf_and_lf_framings_parse_equal(
            lines in prop::collection::vec(("[A-Za-z][A-Za-z0-9-]{0,8}", "[ -~]{0,12}"), 1..6),
            body in prop::collection::vec(
                prop_oneof![Just(b'\r'), Just(b'\n'), Just(b'x'), any::<u8>()],
                0..48,
            ),
            declare_len in any::<bool>(),
        ) {
            let frame = |eol: &str| {
                let mut frame = Vec::new();
                for (name, value) in &lines {
                    frame.extend_from_slice(format!("{name}: {value}{eol}").as_bytes());
                }
                if declare_len {
                    frame.extend_from_slice(format!("Content-Length: {}{eol}", body.len()).as_bytes());
                }
                frame.extend_from_slice(eol.as_bytes());
                frame.extend_from_slice(&body);
                frame
            };
            let crlf = MimeMessage::from_wire(&frame("\r\n"));
            let lf = MimeMessage::from_wire(&frame("\n"));
            match (crlf, lf) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.body[..], &body[..]);
                    prop_assert_eq!(a.headers.as_wire(), b.headers.as_wire());
                    prop_assert_eq!(a, b);
                }
                (a, b) => panic!("CRLF {a:?} vs LF {b:?}"),
            }
        }
    }
}
