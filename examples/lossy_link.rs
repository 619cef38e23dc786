//! Surviving a hostile wireless hop: the same MobiGATE pipeline over a raw
//! 40%-lossy link vs. the §2.1.2 snoop-protocol link (base-station caching
//! + local retransmission).
//!
//! ```text
//! cargo run --example lossy_link
//! ```

use mobigate::client::{ClientStreamletPool, MobiGateClient};
use mobigate::core::{MobiGate, PayloadMode};
use mobigate::mime::MimeMessage;
use mobigate::netsim::snoop::{SnoopConfig, SnoopLink, SnoopSender};
use mobigate::netsim::{LinkConfig, WirelessLink};
use mobigate::streamlets::comm::{Communicator, Transport};
use mobigate::streamlets::compress::{TextDecompress, DECOMPRESS_PEER};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 60;

fn hostile() -> LinkConfig {
    LinkConfig {
        bandwidth_bps: 20_000_000,
        propagation_delay: Duration::from_millis(2),
        loss_rate: 0.3,
        bit_error_rate: 5e-6, // long frames suffer extra
        seed: 77,
        ..Default::default()
    }
}

struct RawTransport(mobigate::netsim::LinkSender);
impl Transport for RawTransport {
    fn send(&self, wire: &[u8]) -> Result<(), String> {
        self.0.send(wire.to_vec());
        Ok(())
    }
}

struct SnoopTransport(SnoopSender);
impl Transport for SnoopTransport {
    fn send(&self, wire: &[u8]) -> Result<(), String> {
        self.0.send(wire.to_vec());
        Ok(())
    }
}

fn server_with(transport: Arc<dyn Transport>) -> (MobiGate, Arc<mobigate::core::RunningStream>) {
    let gate = MobiGate::new(PayloadMode::Reference);
    mobigate::streamlets::register_builtins(gate.directory());
    Communicator::register(gate.directory(), transport);
    let stream = gate
        .deploy_mcl(&format!(
            "{}\nstreamlet communicator {{ port {{ in pi : */*; }} \
             attribute {{ type = STATELESS; library = \"builtin/communicator\"; }} }}\n\
             main stream lossy {{\n\
             streamlet c = new-streamlet (text_compress);\n\
             streamlet out = new-streamlet (communicator);\n\
             connect (c.po, out.pi);\n}}",
            mobigate::streamlets::standard_defs()
        ))
        .expect("deploy");
    (gate, stream)
}

fn client() -> Arc<MobiGateClient> {
    let peers = ClientStreamletPool::new();
    peers.register_peer(DECOMPRESS_PEER, || Box::new(TextDecompress));
    MobiGateClient::new(peers, 2)
}

fn drive(stream: &mobigate::core::RunningStream, client: &MobiGateClient) -> usize {
    for i in 0..N {
        stream
            .post_input(MimeMessage::text(format!(
                "payload {i} {}",
                "data ".repeat(60)
            )))
            .unwrap();
    }
    let mut got = 0;
    while client.recv(Duration::from_millis(800)).is_some() {
        got += 1;
    }
    got
}

fn main() {
    // --- raw lossy link -------------------------------------------------
    let (mut raw_link, raw_tx, raw_rx) = WirelessLink::spawn(hostile());
    let (gate, stream) = server_with(Arc::new(RawTransport(raw_tx)));
    let c = client();
    // Each pump blocks until a frame lands and ends when its link goes down.
    let pump = {
        let c = c.clone();
        std::thread::spawn(move || {
            while let Some(f) = raw_rx.recv(Duration::MAX) {
                c.submit_wire(f);
            }
        })
    };
    let got = drive(&stream, &c);
    println!(
        "raw lossy link:   {got}/{N} messages delivered (lost {})",
        N - got
    );
    println!("  link stats: {:?}", raw_link.stats());
    raw_link.shutdown();
    pump.join().unwrap();
    stream.shutdown();
    drop(gate);
    c.shutdown();

    // --- snoop-protected link -------------------------------------------
    let (mut snoop, snoop_tx, snoop_rx) = SnoopLink::spawn(SnoopConfig {
        link: hostile(),
        rto: Duration::from_millis(25),
        max_attempts: 16,
    });
    let (gate, stream) = server_with(Arc::new(SnoopTransport(snoop_tx)));
    let c = client();
    let pump = {
        let c = c.clone();
        std::thread::spawn(move || {
            while let Some(f) = snoop_rx.recv(Duration::MAX) {
                c.submit_wire(f);
            }
        })
    };
    let got = drive(&stream, &c);
    let stats = snoop.stats();
    println!("\nsnoop link:       {got}/{N} messages delivered");
    println!(
        "  agent: {} sent, {} acked, {} local retransmissions, {} abandoned",
        stats.sent, stats.acked, stats.retransmissions, stats.gave_up
    );
    println!("  raw hop underneath: {:?}", snoop.forward_link().stats());
    snoop.shutdown();
    pump.join().unwrap();
    stream.shutdown();
    drop(gate);
    c.shutdown();
}
