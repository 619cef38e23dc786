//! Property-based tests for the MIME foundations.

use bytes::Bytes;
use mobigate_mime::{multipart, Headers, MimeMessage, MimeType, SessionId, TypeRegistry};
use proptest::prelude::*;

/// A strategy for syntactically valid media-type components.
fn component() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9.+-]{0,10}"
}

fn mime_type() -> impl Strategy<Value = MimeType> {
    (component(), prop_oneof![component(), Just("*".to_string())])
        .prop_map(|(t, s)| MimeType::new(t, s))
}

proptest! {
    /// Parsing the Display output of a type yields the same type.
    #[test]
    fn type_display_parse_round_trip(ty in mime_type()) {
        let round: MimeType = ty.to_string().parse().unwrap();
        prop_assert_eq!(round, ty);
    }

    /// The subtype relation is reflexive.
    #[test]
    fn subtype_reflexive(ty in mime_type()) {
        let reg = TypeRegistry::standard();
        prop_assert!(reg.subtype_of(&ty, &ty));
    }

    /// Everything specializes `*/*`.
    #[test]
    fn subtype_top(ty in mime_type()) {
        let reg = TypeRegistry::standard();
        prop_assert!(reg.subtype_of(&ty, &MimeType::any()));
    }

    /// The syntactic relation is antisymmetric on essences: mutual
    /// specialization implies equality.
    #[test]
    fn syntactic_antisymmetric(a in mime_type(), b in mime_type()) {
        if a.syntactic_subtype_of(&b) && b.syntactic_subtype_of(&a) {
            prop_assert_eq!(a.essence(), b.essence());
        }
    }

    /// The declared relation is transitive through arbitrary chains.
    #[test]
    fn declared_transitive(chain in prop::collection::vec(component(), 2..6)) {
        let mut reg = TypeRegistry::new();
        let types: Vec<MimeType> =
            chain.iter().map(|c| MimeType::new(c.clone(), "x")).collect();
        for w in types.windows(2) {
            reg.declare_types(w[0].clone(), w[1].clone());
        }
        prop_assert!(reg.subtype_of(&types[0], types.last().unwrap()));
    }

    /// Wire serialization round-trips arbitrary binary bodies and sessions.
    #[test]
    fn message_wire_round_trip(
        body in prop::collection::vec(any::<u8>(), 0..4096),
        session in "[a-zA-Z0-9-]{1,16}",
        peers in prop::collection::vec("[a-z]{1,8}", 0..4),
    ) {
        let mut m = MimeMessage::new(
            &MimeType::new("application", "octet-stream"),
            Bytes::from(body),
        );
        m.set_session(&SessionId::new(session));
        for p in &peers {
            m.push_peer(p);
        }
        let parsed = MimeMessage::from_wire(&m.to_wire()).unwrap();
        prop_assert_eq!(parsed, m);
    }

    /// Multipart compose/split round-trips any set of parts.
    #[test]
    fn multipart_round_trip(
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..512), 0..6),
    ) {
        let parts: Vec<MimeMessage> = bodies
            .into_iter()
            .map(|b| MimeMessage::new(&MimeType::new("application", "octet-stream"), b))
            .collect();
        let combined = multipart::compose(&parts, "prop-boundary-2718281828");
        let back = multipart::split(&combined).unwrap();
        prop_assert_eq!(back, parts);
    }
}

/// Byte sequences worth splicing into a frame: separators, folding,
/// overflowing lengths, multipart delimiters and invalid UTF-8.
const TOKENS: &[&[u8]] = &[
    b"\r\n",
    b"\r\n\r\n",
    b"\n\n",
    b"\r",
    b":",
    b" ",
    b"\t",
    b"Content-Length: 18446744073709551615\r\n",
    b"Content-Length: 99999999999999999999\r\n",
    b"Content-Length: 4\r\n",
    b"Content-Type: multipart/mixed; boundary=fuzz\r\n",
    b"Content-Type: multipart/mixed\r\n",
    b"--fuzz\r\n",
    b"--fuzz--\r\n",
    b"\xff\xfe",
    "\u{a0}".as_bytes(),
];

/// Values to write over a frame's `Content-Length`.
const LENGTHS: &[&str] = &[
    "18446744073709551615",
    "18446744073709551614",
    "9223372036854775808",
    "99999999999999999999",
    "-1",
    "",
    "0",
];

/// One edit applied to a valid frame.
#[derive(Debug, Clone)]
enum Mutation {
    Overwrite(u16, u8),
    Insert(u16, u8),
    Delete(u16),
    Truncate(u16),
    Splice(u16, usize),
    Length(usize),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<u16>(), any::<u8>()).prop_map(|(at, b)| Mutation::Overwrite(at, b)),
        (any::<u16>(), any::<u8>()).prop_map(|(at, b)| Mutation::Insert(at, b)),
        any::<u16>().prop_map(Mutation::Delete),
        any::<u16>().prop_map(Mutation::Truncate),
        (any::<u16>(), 0..TOKENS.len()).prop_map(|(at, t)| Mutation::Splice(at, t)),
        (0..LENGTHS.len()).prop_map(Mutation::Length),
    ]
}

fn mutate(frame: &mut Vec<u8>, m: &Mutation) {
    let at = |pos: u16, len: usize| pos as usize % (len + 1);
    match *m {
        Mutation::Overwrite(pos, b) if !frame.is_empty() => {
            let i = pos as usize % frame.len();
            frame[i] = b;
        }
        Mutation::Overwrite(..) => {}
        Mutation::Insert(pos, b) => frame.insert(at(pos, frame.len()), b),
        Mutation::Delete(pos) if !frame.is_empty() => {
            frame.remove(pos as usize % frame.len());
        }
        Mutation::Delete(_) => {}
        Mutation::Truncate(pos) => frame.truncate(at(pos, frame.len())),
        Mutation::Splice(pos, t) => {
            let i = at(pos, frame.len());
            frame.splice(i..i, TOKENS[t].iter().copied());
        }
        Mutation::Length(v) => {
            let key = b"Content-Length: ";
            if let Some(i) = frame.windows(key.len()).position(|w| w == key) {
                let start = i + key.len();
                let end = frame[start..]
                    .iter()
                    .position(|&b| b == b'\r' || b == b'\n')
                    .map_or(frame.len(), |p| start + p);
                frame.splice(start..end, LENGTHS[v].bytes());
            }
        }
    }
}

/// A valid frame — plain or multipart, with session and peer chain — then
/// a few random edits.
fn mutated_frame() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..4),
        any::<bool>(),
        prop::collection::vec("[a-z]{1,6}", 0..3),
        prop::collection::vec(mutation(), 1..5),
    )
        .prop_map(|(bodies, multi, peers, edits)| {
            let parts: Vec<MimeMessage> = bodies
                .into_iter()
                .map(|b| MimeMessage::new(&MimeType::new("application", "octet-stream"), b))
                .collect();
            let mut msg = if multi {
                multipart::compose(&parts, "fuzz")
            } else {
                parts
                    .into_iter()
                    .next()
                    .unwrap_or_else(|| MimeMessage::text("x"))
            };
            msg.set_session(&SessionId::new("s-1"));
            for p in &peers {
                msg.push_peer(p);
            }
            let mut frame = msg.to_wire().to_vec();
            for e in &edits {
                mutate(&mut frame, e);
            }
            frame
        })
}

fn arbitrary_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..256)
}

/// Feeds one input to every parser. Each must return `Ok` or `Err`; a
/// panic fails the property.
fn parse_everything(input: &[u8]) {
    if let Ok(text) = std::str::from_utf8(input) {
        let _ = Headers::parse(text);
    }
    if let Ok(msg) = MimeMessage::from_wire(input) {
        let _ = msg.content_type();
        let _ = multipart::split(&msg);
    }
    // The same bytes as the body of a multipart message.
    let ty = MimeType::new("multipart", "mixed").with_param("boundary", "fuzz");
    let _ = multipart::split(&MimeMessage::new(&ty, input.to_vec()));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4000, ..ProptestConfig::default() })]

    /// No parser panics on arbitrary bytes.
    #[test]
    fn parsers_never_panic_on_arbitrary_bytes(input in arbitrary_bytes()) {
        parse_everything(&input);
    }

    /// No parser panics on near-valid frames.
    #[test]
    fn parsers_never_panic_on_mutated_frames(input in mutated_frame()) {
        parse_everything(&input);
    }
}
