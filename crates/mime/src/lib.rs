//! MIME foundations for the MobiGATE middleware.
//!
//! The paper (§4.1) adopts MIME 1.0 as the underlying type definition for
//! messages exchanged between streamlets and for the declaration of streamlet
//! and channel port types. This crate provides:
//!
//! * [`MimeType`] — a parsed `type/subtype; param=value` content type with
//!   wildcard support (`*/*`, `text/*`);
//! * [`TypeRegistry`] — the subtype/supertype lattice of Figure 4-1, used by
//!   MCL's port compatibility check ("a source port may connect to a sink
//!   port iff the source type is equal to, or a specialization of, the sink
//!   type", §4.4.1);
//! * [`Headers`] / [`MimeMessage`] — the message model carried through the
//!   system, including the `Content-Session` stream-identification header
//!   (§4.4.3) and the `X-MobiGATE-Peer` chain used for sender/receiver
//!   streamlet matching (§6.5);
//! * [`multipart`] — composition and splitting of `multipart/mixed` bodies
//!   (used by the Merge streamlet and the client distributor).
//!
//! Everything here is deliberately self-contained: no external MIME crate is
//! used so that the subtype lattice semantics match the thesis exactly.

pub mod error;
pub mod headers;
pub mod message;
pub mod multipart;
pub mod types;

pub use bytes::{Bytes, BytesMut};
pub use error::MimeError;
pub use headers::Headers;
pub use message::{MimeMessage, SessionId, CONTENT_SESSION, PEER_CHAIN};
pub use types::{MimeType, TypeRegistry};
