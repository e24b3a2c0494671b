//! A bulk TCP flow wired through the simulated network.

use wifiq_mac::{Delivery, NodeAddr, Packet, StationIdx};
use wifiq_phy::AccessCategory;
use wifiq_sim::Nanos;

use crate::ctx::FlowCtx;
use crate::endpoint::TcpEndpoint;
use crate::flows::Direction;
use crate::msg::AppMsg;

const TOK_START: u64 = 0;

/// A greedy (bulk) TCP transfer between the server and one station.
///
/// The sender lives at the server for [`Direction::Down`] and at the
/// station for [`Direction::Up`]; ACKs flow the other way through the
/// same simulated queues, which is what couples the TCP feedback loop to
/// the WiFi queueing behaviour under test.
#[derive(Debug)]
pub struct TcpBulk {
    /// Peer station.
    pub station: StationIdx,
    /// Direction of the data transfer.
    pub direction: Direction,
    /// QoS marking.
    pub ac: AccessCategory,
    /// When to start.
    pub start: Nanos,
    /// The connection, on sub-flow 0.
    tcp: TcpEndpoint,
}

impl TcpBulk {
    /// A bulk download (server → station).
    pub fn down(station: StationIdx, start: Nanos) -> TcpBulk {
        TcpBulk::new(station, Direction::Down, start)
    }

    /// A bulk upload (station → server).
    pub fn up(station: StationIdx, start: Nanos) -> TcpBulk {
        TcpBulk::new(station, Direction::Up, start)
    }

    fn new(station: StationIdx, direction: Direction, start: Nanos) -> TcpBulk {
        let (server, sta) = (NodeAddr::Server, NodeAddr::Station(station));
        let (tx, rx) = match direction {
            Direction::Down => (server, sta),
            Direction::Up => (sta, server),
        };
        TcpBulk {
            station,
            direction,
            ac: AccessCategory::Be,
            start,
            tcp: TcpEndpoint::new(tx, rx, 0, AccessCategory::Be),
        }
    }

    /// Attaches a telemetry handle to the sender; metrics appear under
    /// `Label::Flow(flow)`.
    pub fn set_telemetry(&mut self, tele: wifiq_telemetry::Telemetry, flow: u64) {
        self.tcp.set_telemetry(tele, flow);
    }

    /// Total bytes delivered in order to the receiving application. For
    /// goodput over a window, copy it between two `run`s and subtract.
    pub fn delivered_bytes(&self) -> u64 {
        self.tcp.delivered_bytes()
    }

    /// The sender's telemetry (retransmits, timeouts).
    pub fn sender_stats(&self) -> wifiq_transport::SenderStats {
        self.tcp.sender_stats()
    }

    pub(crate) fn on_timer(&mut self, sub: u64, now: Nanos, ctx: &mut FlowCtx<'_>) {
        match sub {
            TOK_START => self.tcp.start(0, now, ctx),
            token => self.tcp.fire(token, 0, now, ctx),
        }
    }

    pub(crate) fn on_packet(
        &mut self,
        at: Delivery,
        pkt: Packet<AppMsg>,
        now: Nanos,
        ctx: &mut FlowCtx<'_>,
    ) {
        self.tcp.take(at, &pkt.payload, now, ctx);
    }
}
