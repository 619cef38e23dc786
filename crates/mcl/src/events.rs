//! The MobiGATE event vocabulary (Table 6-1).
//!
//! "All the client variations have been classified into four different
//! categories: System Command, Network Variation, Hardware Variation, and
//! Software Variation" (§6.4). Events are **not parameterized** and carry no
//! data; they exist purely to trigger the evolution of coordinated
//! streamlets (§4.2.3).
//!
//! The thesis names PAUSE / RESUME / END (System Command), LOW_BANDWIDTH
//! (Network), LOW_ENERGY and LOW_GRAYS (Hardware). The remaining members of
//! each category are reconstructed from the client-variation axes listed in
//! §6.4 (screen size, color depth, bandwidth, processing power, data-format
//! ability).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The four event categories of Table 6-1; subscription is per-category
/// (`EventManager.subscribeEvt(categoryID, stream)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EventCategory {
    /// Operator/system commands addressed at streams.
    SystemCommand,
    /// Wireless link condition changes.
    NetworkVariation,
    /// Client device hardware constraints.
    HardwareVariation,
    /// Client software capability constraints.
    SoftwareVariation,
    /// Proxy-side execution-plane faults (streamlet panics, quarantines).
    /// An extension beyond Table 6-1: the supervision layer reports
    /// execution-plane failure as a context event so `when (...)` rules can
    /// degrade or bypass a faulted streamlet.
    RuntimeFault,
    /// Proxy-side load conditions measured by the telemetry plane (queue
    /// high-water, drop rate, fault rate, byte budgets). Another extension
    /// beyond Table 6-1: the operation that moves a watched counter past
    /// its threshold raises these, so `when (...)` rules react to
    /// *measured* runtime state rather than injected test events.
    LoadVariation,
}

impl EventCategory {
    /// All categories, in stable `categoryID` order.
    pub const ALL: [EventCategory; 6] = [
        EventCategory::SystemCommand,
        EventCategory::NetworkVariation,
        EventCategory::HardwareVariation,
        EventCategory::SoftwareVariation,
        EventCategory::RuntimeFault,
        EventCategory::LoadVariation,
    ];

    /// The numeric `categoryID` used to index subscriber lists (Figure 6-7).
    pub fn id(self) -> usize {
        match self {
            EventCategory::SystemCommand => 0,
            EventCategory::NetworkVariation => 1,
            EventCategory::HardwareVariation => 2,
            EventCategory::SoftwareVariation => 3,
            EventCategory::RuntimeFault => 4,
            EventCategory::LoadVariation => 5,
        }
    }

    /// Number of categories (sizes the subscriber-list array).
    pub const COUNT: usize = 6;
}

impl fmt::Display for EventCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventCategory::SystemCommand => "System Command",
            EventCategory::NetworkVariation => "Network Variation",
            EventCategory::HardwareVariation => "Hardware Variation",
            EventCategory::SoftwareVariation => "Software Variation",
            EventCategory::RuntimeFault => "Runtime Fault",
            EventCategory::LoadVariation => "Load Variation",
        };
        f.write_str(s)
    }
}

/// The predefined MobiGATE events (Table 6-1 plus the §4.2.3 list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    // --- System Command ---
    /// Suspend stream processing.
    Pause,
    /// Resume a paused stream.
    Resume,
    /// End of application (§4.2.3 `END`).
    End,
    // --- Network Variation ---
    /// Poor network bandwidth (§4.2.3 `LOW_BANDWIDTH`).
    LowBandwidth,
    /// Bandwidth recovered above threshold.
    HighBandwidth,
    /// High wireless bit-error rate.
    HighErrorRate,
    /// Link lost entirely.
    Disconnection,
    // --- Hardware Variation ---
    /// Client device running out of power (§4.2.3 `LOW_ENERGY`).
    LowEnergy,
    /// Client supports only shallow grayscale (§4.2.3 `LOW_GRAYS`).
    LowGrays,
    /// Client display is small.
    SmallScreen,
    /// Client memory pressure.
    LowMemory,
    // --- Software Variation ---
    /// Client lacks a decoder for the current format.
    DecoderUnavailable,
    /// Client cannot render the current data format.
    FormatUnsupported,
    // --- Runtime Fault ---
    /// A streamlet instance faulted (panicked) in the execution plane; the
    /// supervisor raises it so streams can reconfigure around the failure.
    StreamletFault,
    /// A streamlet instance's circuit breaker tripped open after crossing
    /// its fault-rate threshold; the supervisor stops restarting it and
    /// `when (STREAMLET_FAULT)` bypass rules route around it.
    BreakerOpen,
    /// A tripped breaker entered its half-open probe window (one restart
    /// attempted to test recovery).
    BreakerHalfOpen,
    /// A half-open breaker observed enough quiet probes and closed again.
    BreakerClose,
    // --- Load Variation (raised where the telemetry counters move) ---
    /// A post left one of the stream's channels at the configured
    /// high-water mark. A stream raises it at most once per second; a
    /// channel that raised it re-arms at half the mark.
    ChannelCongested,
    /// The stream's drops within one second reached the configured rate.
    HighDropRate,
    /// The stream's faults within one second reached the configured rate.
    HighFaultRate,
    /// An ingress post took the session past its configured byte budget.
    ByteBudgetExceeded,
    /// Admission control rejected the configured number of the stream's
    /// posts within one second (the gateway is saturated beyond its
    /// token-bucket refill rate).
    Overload,
}

impl EventKind {
    /// Every predefined event.
    pub const ALL: [EventKind; 22] = [
        EventKind::Pause,
        EventKind::Resume,
        EventKind::End,
        EventKind::LowBandwidth,
        EventKind::HighBandwidth,
        EventKind::HighErrorRate,
        EventKind::Disconnection,
        EventKind::LowEnergy,
        EventKind::LowGrays,
        EventKind::SmallScreen,
        EventKind::LowMemory,
        EventKind::DecoderUnavailable,
        EventKind::FormatUnsupported,
        EventKind::StreamletFault,
        EventKind::BreakerOpen,
        EventKind::BreakerHalfOpen,
        EventKind::BreakerClose,
        EventKind::ChannelCongested,
        EventKind::HighDropRate,
        EventKind::HighFaultRate,
        EventKind::ByteBudgetExceeded,
        EventKind::Overload,
    ];

    /// The category the event belongs to (Table 6-1 column 1).
    pub fn category(self) -> EventCategory {
        match self {
            EventKind::Pause | EventKind::Resume | EventKind::End => EventCategory::SystemCommand,
            EventKind::LowBandwidth
            | EventKind::HighBandwidth
            | EventKind::HighErrorRate
            | EventKind::Disconnection => EventCategory::NetworkVariation,
            EventKind::LowEnergy
            | EventKind::LowGrays
            | EventKind::SmallScreen
            | EventKind::LowMemory => EventCategory::HardwareVariation,
            EventKind::DecoderUnavailable | EventKind::FormatUnsupported => {
                EventCategory::SoftwareVariation
            }
            EventKind::StreamletFault
            | EventKind::BreakerOpen
            | EventKind::BreakerHalfOpen
            | EventKind::BreakerClose => EventCategory::RuntimeFault,
            EventKind::ChannelCongested
            | EventKind::HighDropRate
            | EventKind::HighFaultRate
            | EventKind::ByteBudgetExceeded
            | EventKind::Overload => EventCategory::LoadVariation,
        }
    }

    /// The MCL spelling (`when (LOW_ENERGY) { … }`).
    pub fn mcl_name(self) -> &'static str {
        match self {
            EventKind::Pause => "PAUSE",
            EventKind::Resume => "RESUME",
            EventKind::End => "END",
            EventKind::LowBandwidth => "LOW_BANDWIDTH",
            EventKind::HighBandwidth => "HIGH_BANDWIDTH",
            EventKind::HighErrorRate => "HIGH_ERROR_RATE",
            EventKind::Disconnection => "DISCONNECTION",
            EventKind::LowEnergy => "LOW_ENERGY",
            EventKind::LowGrays => "LOW_GRAYS",
            EventKind::SmallScreen => "SMALL_SCREEN",
            EventKind::LowMemory => "LOW_MEMORY",
            EventKind::DecoderUnavailable => "DECODER_UNAVAILABLE",
            EventKind::FormatUnsupported => "FORMAT_UNSUPPORTED",
            EventKind::StreamletFault => "STREAMLET_FAULT",
            EventKind::BreakerOpen => "BREAKER_OPEN",
            EventKind::BreakerHalfOpen => "BREAKER_HALF_OPEN",
            EventKind::BreakerClose => "BREAKER_CLOSE",
            EventKind::ChannelCongested => "CHANNEL_CONGESTED",
            EventKind::HighDropRate => "HIGH_DROP_RATE",
            EventKind::HighFaultRate => "HIGH_FAULT_RATE",
            EventKind::ByteBudgetExceeded => "BYTE_BUDGET_EXCEEDED",
            EventKind::Overload => "OVERLOAD",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mcl_name())
    }
}

impl FromStr for EventKind {
    type Err = String;

    /// Parses the MCL spelling. `LOW_GRAY` is accepted as an alias of
    /// `LOW_GRAYS` (the thesis uses both spellings, Fig 4-8 vs §4.2.3).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let upper = s.to_ascii_uppercase();
        if upper == "LOW_GRAY" {
            return Ok(EventKind::LowGrays);
        }
        EventKind::ALL
            .iter()
            .copied()
            .find(|e| e.mcl_name() == upper)
            .ok_or_else(|| format!("unknown event `{s}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_round_trips_by_name() {
        for e in EventKind::ALL {
            assert_eq!(e.mcl_name().parse::<EventKind>().unwrap(), e);
        }
    }

    #[test]
    fn low_gray_alias() {
        assert_eq!(
            "LOW_GRAY".parse::<EventKind>().unwrap(),
            EventKind::LowGrays
        );
        assert_eq!(
            "low_gray".parse::<EventKind>().unwrap(),
            EventKind::LowGrays
        );
    }

    #[test]
    fn unknown_event_is_error() {
        assert!("NO_SUCH_EVENT".parse::<EventKind>().is_err());
    }

    #[test]
    fn categories_partition_events() {
        // Every event has exactly one category and every category is
        // non-empty — Table 6-1's shape.
        for cat in EventCategory::ALL {
            assert!(EventKind::ALL.iter().any(|e| e.category() == cat));
        }
        // The paper's named events land in the right categories.
        assert_eq!(EventKind::End.category(), EventCategory::SystemCommand);
        assert_eq!(
            EventKind::LowBandwidth.category(),
            EventCategory::NetworkVariation
        );
        assert_eq!(
            EventKind::LowEnergy.category(),
            EventCategory::HardwareVariation
        );
        assert_eq!(
            EventKind::LowGrays.category(),
            EventCategory::HardwareVariation
        );
        assert_eq!(
            EventKind::StreamletFault.category(),
            EventCategory::RuntimeFault
        );
        assert_eq!(
            EventKind::ChannelCongested.category(),
            EventCategory::LoadVariation
        );
    }

    #[test]
    fn category_ids_are_dense() {
        let mut ids: Vec<usize> = EventCategory::ALL.iter().map(|c| c.id()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(EventCategory::COUNT, 6);
    }
}
