//! Simple periodic traffic: ICMP ping, CBR UDP, and VoIP.

use wifiq_mac::{Delivery, NodeAddr, Packet, StationIdx};
use wifiq_phy::AccessCategory;
use wifiq_sim::Nanos;

use crate::ctx::FlowCtx;
use crate::msg::AppMsg;

/// Timer sub-token shared by all periodic components.
pub(crate) const TOK_PERIODIC: u64 = 0;

/// On-wire size of an ICMP echo packet (64-byte payload + headers).
pub const PING_WIRE_LEN: u64 = 98;

/// An ICMP ping flow from the server to one station.
///
/// Measures round-trip times — the measurement behind Figures 1, 4, 8
/// and 10.
#[derive(Debug)]
pub struct PingFlow {
    /// Target station.
    pub station: StationIdx,
    /// Echo interval.
    pub interval: Nanos,
    /// QoS marking.
    pub ac: AccessCategory,
    /// When to start.
    pub start: Nanos,
    /// Echo requests sent.
    pub sent: u64,
    /// `(arrival time, RTT)` samples. One of the two vectors in this
    /// crate allowed to grow with run length (the other is
    /// [`VoipFlow::delays`]): at 10 Hz the samples *are* the measurement.
    /// Anything per delivered packet is a counter — see [`UdpFlood`].
    pub rtts: Vec<(Nanos, Nanos)>,
    seq: u64,
}

impl PingFlow {
    /// A 10 Hz best-effort ping to `station`.
    pub fn new(station: StationIdx, start: Nanos) -> PingFlow {
        PingFlow {
            station,
            interval: Nanos::from_millis(100),
            ac: AccessCategory::Be,
            start,
            sent: 0,
            rtts: Vec::new(),
            seq: 0,
        }
    }

    /// RTT samples taken at or after `from` (to exclude warm-up).
    pub fn rtts_after(&self, from: Nanos) -> Vec<Nanos> {
        self.rtts
            .iter()
            .filter(|(t, _)| *t >= from)
            .map(|&(_, rtt)| rtt)
            .collect()
    }

    pub(crate) fn on_timer(&mut self, sub: u64, now: Nanos, ctx: &mut FlowCtx<'_>) {
        if sub != TOK_PERIODIC {
            return;
        }
        self.seq += 1;
        self.sent += 1;
        ctx.send(
            NodeAddr::Server,
            NodeAddr::Station(self.station),
            0,
            PING_WIRE_LEN,
            self.ac,
            now,
            AppMsg::PingReq { seq: self.seq },
        );
        ctx.timer(TOK_PERIODIC, now + self.interval);
    }

    pub(crate) fn on_packet(
        &mut self,
        at: Delivery,
        pkt: Packet<AppMsg>,
        now: Nanos,
        ctx: &mut FlowCtx<'_>,
    ) {
        match (&pkt.payload, at) {
            (AppMsg::PingReq { seq }, Delivery::AtStation(i)) => {
                // Echo back with the original creation time.
                ctx.send(
                    NodeAddr::Station(i),
                    NodeAddr::Server,
                    0,
                    PING_WIRE_LEN,
                    self.ac,
                    now,
                    AppMsg::PingRep {
                        seq: *seq,
                        orig_created: pkt.created,
                    },
                );
            }
            (AppMsg::PingRep { orig_created, .. }, Delivery::AtServer) => {
                self.rtts.push((now, now.saturating_sub(*orig_created)));
            }
            _ => {}
        }
    }
}

/// Traffic direction for bulk flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Server → station.
    Down,
    /// Station → server.
    Up,
}

/// A UDP flood: constant-bit-rate (iperf-style) or Poisson arrivals at
/// the same mean rate.
///
/// State is O(1) in the packets carried: deliveries are counted, never
/// logged. Goodput over a window is the difference of two copies of
/// [`delivered_bytes`](UdpFlood::delivered_bytes), taken between `run`s.
#[derive(Debug)]
pub struct UdpFlood {
    /// Peer station.
    pub station: StationIdx,
    /// Offered rate in bits per second (of on-wire packet bytes).
    pub rate_bps: u64,
    /// Packet size in bytes.
    pub len: u64,
    /// QoS marking.
    pub ac: AccessCategory,
    /// Direction of the flood.
    pub direction: Direction,
    /// When to start.
    pub start: Nanos,
    /// Draw packet intervals from an exponential distribution (Poisson
    /// arrivals) instead of a constant spacing. Burstier offered load —
    /// useful for AQM stress tests.
    pub poisson: bool,
    /// Packets sent.
    pub sent: u64,
    /// Packets delivered end-to-end.
    pub delivered: u64,
    /// Bytes delivered end-to-end.
    pub delivered_bytes: u64,
    /// Mean packet spacing: `len * 8` bits at `rate_bps` as the
    /// constructor saw them. Computed once, not per timer, so writing
    /// those two fields afterwards does not change the offered load.
    mean_interval: Nanos,
}

impl UdpFlood {
    /// A downstream flood of 1500-byte packets at `rate_bps`.
    pub fn down(station: StationIdx, rate_bps: u64, start: Nanos) -> UdpFlood {
        let len = 1500;
        UdpFlood {
            station,
            rate_bps,
            len,
            ac: AccessCategory::Be,
            direction: Direction::Down,
            start,
            poisson: false,
            sent: 0,
            delivered: 0,
            delivered_bytes: 0,
            mean_interval: Nanos::for_bits(len * 8, rate_bps),
        }
    }

    /// An upstream flood.
    pub fn up(station: StationIdx, rate_bps: u64, start: Nanos) -> UdpFlood {
        UdpFlood {
            direction: Direction::Up,
            ..UdpFlood::down(station, rate_bps, start)
        }
    }

    pub(crate) fn on_timer(&mut self, sub: u64, now: Nanos, ctx: &mut FlowCtx<'_>) {
        if sub != TOK_PERIODIC {
            return;
        }
        self.sent += 1;
        let (src, dst) = match self.direction {
            Direction::Down => (NodeAddr::Server, NodeAddr::Station(self.station)),
            Direction::Up => (NodeAddr::Station(self.station), NodeAddr::Server),
        };
        ctx.send(src, dst, 0, self.len, self.ac, now, AppMsg::Udp);
        let gap = if self.poisson {
            let mean = self.mean_interval.as_nanos() as f64;
            Nanos::from_nanos(ctx.rng.exponential(mean).max(1.0) as u64)
        } else {
            self.mean_interval
        };
        ctx.timer(TOK_PERIODIC, now + gap);
    }

    pub(crate) fn on_packet(&mut self, pkt: Packet<AppMsg>) {
        self.delivered += 1;
        self.delivered_bytes += pkt.len;
    }
}

/// On-wire size of one VoIP frame: 160 B G.711 payload (20 ms) plus
/// RTP/UDP/IP headers.
pub const VOIP_WIRE_LEN: u64 = 200;

/// A one-way VoIP (G.711) stream to a station, for the Table 2
/// experiments.
#[derive(Debug)]
pub struct VoipFlow {
    /// Target station.
    pub station: StationIdx,
    /// QoS marking: `Vo` or `Be` — the comparison Table 2 makes.
    pub ac: AccessCategory,
    /// When to start.
    pub start: Nanos,
    /// Frames sent.
    pub sent: u64,
    /// `(arrival time, one-way delay)` per received frame. Allowed to
    /// grow with run length for the same reason as [`PingFlow::rtts`]:
    /// 50 samples per simulated second, and they are the result.
    pub delays: Vec<(Nanos, Nanos)>,
    seq: u64,
}

impl VoipFlow {
    /// A G.711 stream (one 200-byte frame per 20 ms) to `station`.
    pub fn new(station: StationIdx, ac: AccessCategory, start: Nanos) -> VoipFlow {
        VoipFlow {
            station,
            ac,
            start,
            sent: 0,
            delays: Vec::new(),
            seq: 0,
        }
    }

    /// One-way delays of the frames that arrived at or after `from`, for
    /// E-model inputs that exclude warm-up.
    pub fn delays_after(&self, from: Nanos) -> Vec<Nanos> {
        self.delays
            .iter()
            .filter(|(t, _)| *t >= from)
            .map(|&(_, d)| d)
            .collect()
    }

    pub(crate) fn on_timer(&mut self, sub: u64, now: Nanos, ctx: &mut FlowCtx<'_>) {
        if sub != TOK_PERIODIC {
            return;
        }
        self.seq += 1;
        self.sent += 1;
        ctx.send(
            NodeAddr::Server,
            NodeAddr::Station(self.station),
            0,
            VOIP_WIRE_LEN,
            self.ac,
            now,
            AppMsg::Voip { seq: self.seq },
        );
        ctx.timer(TOK_PERIODIC, now + Nanos::from_millis(20));
    }

    pub(crate) fn on_packet(&mut self, pkt: Packet<AppMsg>, now: Nanos) {
        self.delays.push((now, now.saturating_sub(pkt.created)));
    }
}
