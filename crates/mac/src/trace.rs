//! Transmission tracing: a monitor-mode view of the medium.
//!
//! The paper validates its in-kernel airtime meter against a third-party
//! tool that measures airtime from monitor-mode captures (§4.1.5: "we
//! find that the two types of measurements agree to within 1.5%, on
//! average"). This module is the simulator's monitor interface: every
//! completed transmission attempt is reported to an optional sink, which
//! can recompute airtime independently of the meter and cross-validate
//! it — the meter-vs-capture test in `tests/telemetry_validation.rs`
//! does exactly that.

use wifiq_phy::{AccessCategory, PhyRate};
use wifiq_sim::Nanos;

use crate::packet::StationIdx;

/// Direction of a traced transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxDirection {
    /// AP → station.
    Downlink,
    /// Station → AP.
    Uplink,
}

/// One completed transmission attempt, as a monitor would capture it.
#[derive(Debug, Clone, Copy)]
pub struct TxRecord {
    /// When the exchange completed.
    pub at: Nanos,
    /// The wireless peer.
    pub station: StationIdx,
    /// Direction of the data frames.
    pub direction: TxDirection,
    /// Access category.
    pub ac: AccessCategory,
    /// PHY rate of this attempt.
    pub rate: PhyRate,
    /// MPDUs in the aggregate.
    pub frames: usize,
    /// Payload bytes in the aggregate.
    pub payload_bytes: u64,
    /// Medium time the exchange occupied (data + SIFS + ack).
    pub airtime: Nanos,
    /// Whether the exchange succeeded (false: collision or channel
    /// error; the airtime was consumed regardless).
    pub success: bool,
    /// Retry index of this attempt (0 = first transmission).
    pub retry: u32,
}

/// A sink receiving every transmission record.
pub trait TxMonitor {
    /// Called once per completed transmission attempt.
    fn on_tx(&mut self, record: &TxRecord);
}

// A shared monitor: lets the caller keep a handle to the concrete sink
// while the network owns the trait object.
impl<T: TxMonitor> TxMonitor for std::rc::Rc<std::cell::RefCell<T>> {
    fn on_tx(&mut self, record: &TxRecord) {
        self.borrow_mut().on_tx(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(sta: StationIdx, airtime_us: u64) -> TxRecord {
        TxRecord {
            at: Nanos::ZERO,
            station: sta,
            direction: TxDirection::Downlink,
            ac: AccessCategory::Be,
            rate: PhyRate::fast_station(),
            frames: 10,
            payload_bytes: 15_000,
            airtime: Nanos::from_micros(airtime_us),
            success: true,
            retry: 0,
        }
    }

    /// Sums the airtime of every record it sees.
    #[derive(Default)]
    struct Total(Nanos);

    impl TxMonitor for Total {
        fn on_tx(&mut self, record: &TxRecord) {
            self.0 += record.airtime;
        }
    }

    #[test]
    fn shared_monitor_updates_through_rc() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let total = Rc::new(RefCell::new(Total::default()));
        let mut shared = total.clone();
        shared.on_tx(&record(0, 42));
        shared.on_tx(&record(1, 8));
        assert_eq!(total.borrow().0, Nanos::from_micros(50));
    }
}
