//! One TCP connection through the simulated network: its sender and
//! receiver (the simulation holds both hosts) and their retransmission
//! (RTO) and delayed-ACK timers. A bulk flow runs one on sub-flow 0; a web
//! session one per parallel connection, with a fresh sender per response.

use wifiq_mac::{Delivery, NodeAddr};
use wifiq_phy::AccessCategory;
use wifiq_sim::Nanos;
use wifiq_telemetry::Telemetry;
use wifiq_transport::{SendOutcome, SenderStats, TcpReceiver, TcpSegment, TcpSender};

use crate::ctx::FlowCtx;
use crate::msg::AppMsg;
use crate::timer::Deadline;

/// On sub-flow `s` (< 4), the RTO's timer token is `RTO + s`.
pub(crate) const RTO: u64 = 4;
/// On sub-flow `s` (< 4), the delayed ACK's timer token is `DELACK + s`.
pub(crate) const DELACK: u64 = 8;

/// One TCP connection: where its segments go, and both ends' state.
#[derive(Debug)]
pub(crate) struct TcpEndpoint {
    /// The data sender's host; ACKs travel from `rx` back to it.
    tx: NodeAddr,
    /// The data receiver's host.
    rx: NodeAddr,
    /// Sub-flow within the owning component's namespace.
    sub: u64,
    ac: AccessCategory,
    sender: TcpSender,
    receiver: TcpReceiver,
    rto: Deadline,
    delack: Deadline,
}

impl TcpEndpoint {
    /// A connection from `tx` to `rx` on sub-flow `sub`. Its sender is a
    /// bulk one, which never runs out, until [`respond`](Self::respond).
    pub(crate) fn new(tx: NodeAddr, rx: NodeAddr, sub: u64, ac: AccessCategory) -> Self {
        TcpEndpoint {
            tx,
            rx,
            sub,
            ac,
            sender: TcpSender::bulk(),
            receiver: TcpReceiver::new(),
            rto: Deadline::default(),
            delack: Deadline::default(),
        }
    }

    pub(crate) fn set_telemetry(&mut self, tele: Telemetry, flow: u64) {
        self.sender.set_telemetry(tele, flow);
    }

    pub(crate) fn sender_stats(&self) -> SenderStats {
        self.sender.stats
    }

    /// Bytes delivered in order to the receiving application.
    pub(crate) fn delivered_bytes(&self) -> u64 {
        self.receiver.delivered_bytes
    }

    /// A fresh sender for a `bytes`-long response, reporting under
    /// `Label::Flow(flow)`. The timers carry over: their events stay queued.
    pub(crate) fn respond(&mut self, bytes: u64, tele: &Telemetry, flow: u64) {
        self.sender = TcpSender::finite(bytes);
        self.set_telemetry(tele.clone(), flow);
    }

    /// A fresh receiver, awaiting a new stream.
    pub(crate) fn listen(&mut self) {
        self.receiver = TcpReceiver::new();
    }

    /// Sends the initial window. `req` tags what a call sends.
    pub(crate) fn start(&mut self, req: usize, now: Nanos, ctx: &mut FlowCtx<'_>) {
        let out = self.sender.start(now);
        self.emit(req, out, now, ctx);
    }

    /// Takes in a TCP segment that arrived `at` a host, and answers with
    /// the same tag. The receiver ACKs data now or arms the delayed ACK,
    /// and the call is true; at the sender, a pure ACK clocks out what it
    /// allows.
    pub(crate) fn take(
        &mut self,
        at: Delivery,
        msg: &AppMsg,
        now: Nanos,
        ctx: &mut FlowCtx<'_>,
    ) -> bool {
        let &AppMsg::Tcp { req, ref seg } = msg else {
            return false;
        };
        let at_rx = (self.rx == NodeAddr::Server) == (at == Delivery::AtServer);
        if at_rx && seg.len > 0 {
            let out = self.receiver.on_data(seg, now);
            if let Some(ack) = out.ack {
                self.delack.disarm();
                self.send(false, req, ack, now, ctx);
            }
            if let Some(at) = out.arm_delack {
                self.delack.arm(at, |t| ctx.timer(DELACK + self.sub, t));
            }
            return true;
        }
        if !at_rx && seg.is_pure_ack() {
            let out = self.sender.on_ack(seg, now);
            self.emit(req, out, now, ctx);
        }
        false
    }

    /// A wheel event of timer `token` at `now`. If that timer is due, the
    /// RTO retransmits, or the delayed ACK sends the ACK owed, if any.
    pub(crate) fn fire(&mut self, token: u64, req: usize, now: Nanos, ctx: &mut FlowCtx<'_>) {
        if token == RTO + self.sub {
            if self.rto.fire(now, |t| ctx.timer(token, t)) {
                let out = self.sender.on_rto(now);
                self.emit(req, out, now, ctx);
            }
        } else if token == DELACK + self.sub && self.delack.fire(now, |t| ctx.timer(token, t)) {
            if let Some(ack) = self.receiver.on_delack_timer(now) {
                self.send(false, req, ack, now, ctx);
            }
        }
    }

    /// Sends a sender outcome's segments and re-arms or disarms the RTO.
    fn emit(&mut self, req: usize, out: SendOutcome, now: Nanos, ctx: &mut FlowCtx<'_>) {
        for seg in out.segments {
            self.send(true, req, seg, now, ctx);
        }
        match out.rearm_rto {
            Some(at) => self.rto.arm(at, |t| ctx.timer(RTO + self.sub, t)),
            None => self.rto.disarm(),
        }
    }

    /// Sends `seg` tagged `req`: data from `tx` to `rx`, an ACK back.
    fn send(&self, data: bool, req: usize, seg: TcpSegment, now: Nanos, ctx: &mut FlowCtx<'_>) {
        let (tx, rx) = (self.tx, self.rx);
        let (src, dst) = if data { (tx, rx) } else { (rx, tx) };
        let (len, seg) = (seg.wire_len(), Box::new(seg));
        let msg = AppMsg::Tcp { req, seg };
        ctx.send(src, dst, self.sub, len, self.ac, now, msg);
    }
}
