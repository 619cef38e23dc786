//! An emulated wireless link (§7.1's Linux-router testbed, in-process).
//!
//! The paper's testing environment routes traffic through a Linux box
//! configured to emulate a wireless environment with controlled bandwidth
//! (20 Kb/s … 2 Mb/s) and transmission delays (<1 ms, 50 ms, 100 ms). This
//! crate reproduces that substrate:
//!
//! * [`link::WirelessLink`] — a FIFO store-and-forward link with
//!   configurable bandwidth, propagation delay, and per-frame loss,
//!   emulated in real time under a **time scale** (`0.01` = emulated
//!   seconds pass in 10 ms of wall time) so slow-link experiments finish
//!   quickly while preserving every ordering (DESIGN.md §3);
//! * [`link::LinkStats`] — delivery/drop/byte accounting for throughput
//!   computation;
//! * [`WirelessLink::watch`] — one threshold watch per link, whose
//!   callback [`WirelessLink::set_bandwidth`] itself raises on a crossing
//!   ([`monitor::LinkEvent`]): the substrate behind the Event Manager's
//!   LOW_BANDWIDTH / HIGH_BANDWIDTH context events, as in the §7.5
//!   scenario where the link degrades below 100 Kb/s mid-run;
//! * [`snoop::SnoopLink`] — the §2.1.2 snoop protocol: base-station frame
//!   caching + local retransmission over the lossy hop, turning the raw
//!   link into an in-order, loss-free one.
//!
//! Nothing here starts a thread or sleeps on a timer: the endpoints settle
//! the link and the snoop agent by absolute deadlines, and a waiting
//! receiver sleeps until its next delivery, timeout or deadline.

pub mod link;
pub mod monitor;
pub mod snoop;

pub use link::{LinkConfig, LinkReceiver, LinkSender, LinkStats, WirelessLink};
pub use monitor::LinkEvent;
pub use snoop::{SnoopConfig, SnoopLink, SnoopReceiver, SnoopSender, SnoopStats};
