//! The Communicator streamlet (§7.5: "sending messages onto the network").
//!
//! The communicator terminates the server-side pipeline: it serializes each
//! message to MIME wire format and hands the bytes to a [`Transport`]. In
//! the evaluation the transport is the emulated wireless link
//! (`mobigate-netsim`); tests use the in-memory [`CollectorTransport`].

use mobigate_core::{CoreError, StreamletCtx, StreamletDirectory, StreamletLogic};
use mobigate_mime::MimeMessage;
use parking_lot::Mutex;
use std::sync::Arc;

/// Where the communicator sends wire bytes.
pub trait Transport: Send + Sync {
    /// Sends one serialized message. Returning an error marks the message
    /// as failed (it is *not* retried: the link layer owns reliability).
    fn send(&self, wire: &[u8]) -> Result<(), String>;
}

/// Sends messages onto the network through a [`Transport`]. Emits nothing:
/// the communicator is a pipeline sink.
pub struct Communicator {
    transport: Arc<dyn Transport>,
    sent: u64,
    sent_bytes: u64,
    /// The frame being sent: reused across messages, so serializing one
    /// allocates nothing once the buffer has grown to the largest frame.
    wire: Vec<u8>,
}

impl Communicator {
    /// A communicator over the given transport.
    pub fn new(transport: Arc<dyn Transport>) -> Self {
        Communicator {
            transport,
            sent: 0,
            sent_bytes: 0,
            wire: Vec::new(),
        }
    }

    /// Messages successfully handed to the transport.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Bytes successfully handed to the transport.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// Registers a communicator factory bound to `transport` under the
    /// `builtin/communicator` key.
    pub fn register(directory: &StreamletDirectory, transport: Arc<dyn Transport>) {
        directory.register(
            "builtin/communicator",
            "send messages onto the network",
            move || Box::new(Communicator::new(transport.clone())),
        );
    }
}

impl StreamletLogic for Communicator {
    fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
        self.wire.clear();
        msg.to_wire_into(&mut self.wire);
        self.transport
            .send(&self.wire)
            .map_err(|e| CoreError::Process {
                streamlet: ctx.instance().to_string(),
                message: e,
            })?;
        self.sent += 1;
        self.sent_bytes += self.wire.len() as u64;
        Ok(())
    }

    // The counters are diagnostic, not cross-message coupling, and the
    // transport is a shared `Arc`: a session chain's sink can end its
    // fused run instead of running as a task of its own.
    fn fusable(&self) -> bool {
        true
    }

    fn reset(&mut self) {
        self.sent = 0;
        self.sent_bytes = 0;
    }
}

/// An in-memory transport that records every sent frame (tests, examples).
#[derive(Default)]
pub struct CollectorTransport {
    frames: Mutex<Vec<Vec<u8>>>,
}

impl CollectorTransport {
    /// An empty collector.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Frames sent so far.
    pub fn frames(&self) -> Vec<Vec<u8>> {
        self.frames.lock().clone()
    }

    /// Parses every collected frame back into messages.
    pub fn messages(&self) -> Vec<MimeMessage> {
        self.frames
            .lock()
            .iter()
            .filter_map(|f| MimeMessage::from_wire(f).ok())
            .collect()
    }

    /// Number of frames collected.
    pub fn len(&self) -> usize {
        self.frames.lock().len()
    }

    /// True when nothing was sent.
    pub fn is_empty(&self) -> bool {
        self.frames.lock().is_empty()
    }
}

impl Transport for CollectorTransport {
    fn send(&self, wire: &[u8]) -> Result<(), String> {
        self.frames.lock().push(wire.to_vec());
        Ok(())
    }
}

/// A transport that always fails (failure-injection tests).
pub struct FailingTransport;

impl Transport for FailingTransport {
    fn send(&self, _wire: &[u8]) -> Result<(), String> {
        Err("link down".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobigate_mime::SessionId;

    #[test]
    fn communicator_serializes_and_counts() {
        let collector = CollectorTransport::new();
        let mut c = Communicator::new(collector.clone());
        let mut msg = MimeMessage::text("over the air");
        msg.set_session(&SessionId::new("s1"));
        let mut ctx = StreamletCtx::new("comm", None);
        c.process(msg.clone(), &mut ctx).unwrap();
        assert!(ctx.into_outputs().is_empty(), "communicator is a sink");
        assert_eq!(c.sent(), 1);
        assert_eq!(c.sent_bytes() as usize, msg.wire_len());
        let received = collector.messages();
        assert_eq!(received.len(), 1);
        assert_eq!(received[0], msg);
    }

    #[test]
    fn failing_transport_surfaces_error() {
        let mut c = Communicator::new(Arc::new(FailingTransport));
        let mut ctx = StreamletCtx::new("comm", None);
        assert!(c.process(MimeMessage::text("x"), &mut ctx).is_err());
        assert_eq!(c.sent(), 0);
    }

    #[test]
    fn reset_clears_counters() {
        let collector = CollectorTransport::new();
        let mut c = Communicator::new(collector);
        let mut ctx = StreamletCtx::new("comm", None);
        c.process(MimeMessage::text("x"), &mut ctx).unwrap();
        c.reset();
        assert_eq!(c.sent(), 0);
        assert_eq!(c.sent_bytes(), 0);
    }

    #[test]
    fn register_binds_transport() {
        let dir = StreamletDirectory::new();
        let collector = CollectorTransport::new();
        Communicator::register(&dir, collector.clone());
        let mut logic = dir.create("builtin/communicator").unwrap();
        let mut ctx = StreamletCtx::new("comm", None);
        logic
            .process(MimeMessage::text("via factory"), &mut ctx)
            .unwrap();
        assert_eq!(collector.len(), 1);
    }
}
