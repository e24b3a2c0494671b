//! A bulk TCP flow wired through the simulated network.

use wifiq_mac::{Delivery, NodeAddr, Packet, StationIdx};
use wifiq_phy::AccessCategory;
use wifiq_sim::Nanos;
use wifiq_transport::{SendOutcome, TcpReceiver, TcpSender};

use crate::ctx::FlowCtx;
use crate::flows::Direction;
use crate::msg::AppMsg;

const TOK_START: u64 = 0;
const TOK_RTO: u64 = 1;
const TOK_DELACK: u64 = 2;

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
    sender: TcpSender,
    receiver: TcpReceiver,
    rto_deadline: Option<Nanos>,
    delack_deadline: Option<Nanos>,
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
        TcpBulk {
            station,
            direction,
            ac: AccessCategory::Be,
            start,
            sender: TcpSender::bulk(),
            receiver: TcpReceiver::new(),
            rto_deadline: None,
            delack_deadline: None,
        }
    }

    /// Attaches a telemetry handle to the sender; metrics appear under
    /// `Label::Flow(flow)`.
    pub fn set_telemetry(&mut self, tele: wifiq_telemetry::Telemetry, flow: u64) {
        self.sender.set_telemetry(tele, flow);
    }

    /// Total bytes delivered in order to the receiving application. For
    /// goodput over a window, copy it between two `run`s and subtract.
    pub fn delivered_bytes(&self) -> u64 {
        self.receiver.delivered_bytes
    }

    /// The sender's telemetry (retransmits, timeouts).
    pub fn sender_stats(&self) -> wifiq_transport::SenderStats {
        self.sender.stats
    }

    fn data_endpoints(&self) -> (NodeAddr, NodeAddr) {
        match self.direction {
            Direction::Down => (NodeAddr::Server, NodeAddr::Station(self.station)),
            Direction::Up => (NodeAddr::Station(self.station), NodeAddr::Server),
        }
    }

    /// Emits a sender outcome: data packets plus RTO rearm.
    fn emit(&mut self, out: SendOutcome, now: Nanos, ctx: &mut FlowCtx<'_>) {
        let (src, dst) = self.data_endpoints();
        for seg in out.segments {
            ctx.send(src, dst, 0, seg.wire_len(), self.ac, now, AppMsg::Tcp(seg));
        }
        self.rto_deadline = out.rearm_rto;
        if let Some(d) = out.rearm_rto {
            ctx.timer(TOK_RTO, d);
        }
    }

    fn send_ack(&mut self, ack: wifiq_transport::TcpSegment, now: Nanos, ctx: &mut FlowCtx<'_>) {
        let (src, dst) = self.data_endpoints();
        // ACKs travel the reverse path.
        ctx.send(dst, src, 0, ack.wire_len(), self.ac, now, AppMsg::Tcp(ack));
    }

    pub(crate) fn on_timer(&mut self, sub: u64, now: Nanos, ctx: &mut FlowCtx<'_>) {
        match sub {
            TOK_START => {
                let out = self.sender.start(now);
                self.emit(out, now, ctx);
            }
            TOK_RTO
                // Only the live deadline counts; earlier rearms left stale
                // timer events behind.
                if self.rto_deadline == Some(now) => {
                    let out = self.sender.on_rto(now);
                    self.emit(out, now, ctx);
                }
            TOK_DELACK
                if self.delack_deadline == Some(now) => {
                    self.delack_deadline = None;
                    if let Some(ack) = self.receiver.on_delack_timer(now) {
                        self.send_ack(ack, now, ctx);
                    }
                }
            _ => {}
        }
    }

    pub(crate) fn on_packet(
        &mut self,
        at: Delivery,
        pkt: Packet<AppMsg>,
        now: Nanos,
        ctx: &mut FlowCtx<'_>,
    ) {
        let AppMsg::Tcp(seg) = pkt.payload else {
            return;
        };
        let receiver_side = match self.direction {
            Direction::Down => matches!(at, Delivery::AtStation(_)),
            Direction::Up => at == Delivery::AtServer,
        };
        if receiver_side && seg.len > 0 {
            let out = self.receiver.on_data(&seg, now);
            if let Some(ack) = out.ack {
                self.send_ack(ack, now, ctx);
            }
            if let Some(d) = out.arm_delack {
                self.delack_deadline = Some(d);
                ctx.timer(TOK_DELACK, d);
            }
        } else if !receiver_side && seg.is_pure_ack() {
            let out = self.sender.on_ack(&seg, now);
            self.emit(out, now, ctx);
        }
    }
}
