//! What the wheel is actually asked to do: admission levels and cascade
//! work under the three push-distance shapes the simulator produces. The
//! table in DESIGN.md §13 ("What the wheel's traffic looks like") is this
//! module's output (`cargo test -p wifiq-sim census -- --nocapture`).
//!
//! The shapes are closed-loop miniatures of the MAC's event flow with its
//! real constants — 200 µs wire propagation, 1 Gbit/s serialisation, 9 µs
//! slots, ~120 µs per 1500-byte MPDU at the fast rate — not the MAC
//! itself, which this crate cannot see.

use super::*;

#[derive(Clone, Copy)]
enum Ev {
    /// CBR source `i` ticks: one packet onto the wire, next tick armed.
    Source(usize),
    /// A data packet reaches the AP.
    AtAp,
    /// An ACK reaches the server, which answers with two segments and
    /// re-arms that flow's retransmission timer.
    AtServer,
    /// The exchange on the air ends.
    TxEnd,
    /// Flow `i`'s retransmission timer.
    Rto(usize),
    /// The receiver's delayed-ACK timer.
    DelAck,
}

/// A timer re-armed in place, by the rule of `wifiq-traffic`'s
/// `Deadline`: an arm pushes only when no event of the timer is pending at
/// or before the new deadline, and an event that fires before a deadline
/// moved later re-pushes it once.
#[derive(Default)]
struct Timer {
    live: Option<u64>,
    pending: Option<u64>,
}

impl Timer {
    /// The instant to push at, if the arm needs an event.
    fn arm(&mut self, at: u64) -> Option<u64> {
        self.live = Some(at);
        let push = self.pending.is_none_or(|p| at < p);
        if push {
            self.pending = Some(at);
        }
        push.then_some(at)
    }

    /// The instant to re-push at, if an event firing at `now` came early.
    fn fire(&mut self, now: u64) -> Option<u64> {
        if self.pending != Some(now) {
            return None;
        }
        self.pending = self.live.filter(|&at| at > now);
        if self.pending.is_none() {
            self.live = None;
        }
        self.pending
    }
}

/// Bulk flows of `tcp30_mixed`, each with one retransmission timer.
const TCP_FLOWS: usize = 39;

const WIRE: u64 = 200_000;
/// Serialisation of 1500 B / 64 B at 1 Gbit/s.
const DATA_NS: u64 = 12_000;
const ACK_NS: u64 = 512;
const SLOT: u64 = 9_000;
const AIFS: u64 = 43_000;
/// Preamble + SIFS + BlockAck, then ~120 µs per MPDU.
const EXCHANGE_FIXED: u64 = 100_000;
const PER_MPDU: u64 = 120_000;
const MAX_AGGREGATE: u64 = 32;

struct Shape {
    q: EventQueue<Ev>,
    rng: u64,
    /// Packets queued at the AP / ACKs queued at stations.
    down: u64,
    up: u64,
    /// Delivered segments not yet covered by an ACK (0 or 1).
    unacked: u64,
    /// One retransmission timer per flow; ACKs reach the server's flows in
    /// turn.
    rtos: Vec<Timer>,
    next_flow: usize,
    delack: Timer,
    /// Frames on the air and their direction, if the medium is busy.
    on_air: Option<(u64, bool)>,
    /// Gaps of the open-loop sources: constant, or the mean of
    /// exponential gaps if `poisson`.
    gaps: Vec<u64>,
    poisson: bool,
}

impl Shape {
    fn new(gaps: Vec<u64>) -> Shape {
        Shape {
            q: EventQueue::new(),
            rng: 0x9E37_79B9_7F4A_7C15,
            down: 0,
            up: 0,
            unacked: 0,
            rtos: (0..TCP_FLOWS).map(|_| Timer::default()).collect(),
            next_flow: 0,
            delack: Timer::default(),
            on_air: None,
            gaps,
            poisson: false,
        }
    }

    fn draw(&mut self, below: u64) -> u64 {
        // splitmix64: only the spread of the backoff matters here.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % below
    }

    /// Source `i`'s next gap.
    fn gap(&mut self, i: usize) -> u64 {
        if !self.poisson {
            return self.gaps[i];
        }
        let u = (self.draw(1 << 53) + 1) as f64 / (1u64 << 53) as f64;
        (-u.ln() * self.gaps[i] as f64) as u64
    }

    fn after(&mut self, delay: u64, ev: Ev) {
        self.q.push(self.q.now() + Nanos(delay), ev);
    }

    fn contend(&mut self) {
        if self.on_air.is_some() || self.down + self.up == 0 {
            return;
        }
        // ACKs first when both wait: either order gives the same shape.
        let uplink = self.up > 0;
        let backlog = if uplink { &mut self.up } else { &mut self.down };
        let frames = (*backlog).min(MAX_AGGREGATE);
        *backlog -= frames;
        let per_frame = if uplink { PER_MPDU / 10 } else { PER_MPDU };
        let airtime = AIFS + SLOT * self.draw(16) + EXCHANGE_FIXED + frames * per_frame;
        self.on_air = Some((frames, uplink));
        self.after(airtime, Ev::TxEnd);
    }

    fn run(&mut self, events: u64) {
        let mut batch = Vec::new();
        let mut seen = 0;
        while seen < events {
            self.q
                .pop_tick(Nanos::MAX, &mut batch)
                .expect("the shape keeps itself going");
            for ev in batch.drain(..) {
                seen += 1;
                match ev {
                    Ev::Source(i) => {
                        self.after(WIRE + DATA_NS, Ev::AtAp);
                        let gap = self.gap(i);
                        self.after(gap, Ev::Source(i));
                    }
                    // An overloaded AP queue drops: the wheel never sees it.
                    Ev::AtAp => self.down = (self.down + 1).min(8_192),
                    Ev::AtServer => {
                        self.after(WIRE + DATA_NS, Ev::AtAp);
                        self.after(WIRE + DATA_NS, Ev::AtAp);
                        let flow = self.next_flow;
                        self.next_flow = (flow + 1) % TCP_FLOWS;
                        let at = self.q.now().0 + 200_000_000 + self.draw(50_000_000);
                        if let Some(at) = self.rtos[flow].arm(at) {
                            self.q.push(Nanos(at), Ev::Rto(flow));
                        }
                    }
                    Ev::TxEnd => {
                        let (frames, uplink) = self.on_air.take().expect("TxEnd with idle air");
                        if uplink {
                            for _ in 0..frames {
                                self.after(WIRE + ACK_NS, Ev::AtServer);
                            }
                        } else if self.gaps.is_empty() {
                            // Ack-clocked: one ACK per two segments; an odd
                            // one out arms the 40 ms delayed-ACK timer and
                            // is acknowledged (the timer disarmed) with the
                            // next to arrive.
                            self.unacked += frames;
                            self.up += self.unacked / 2;
                            self.unacked %= 2;
                            if self.unacked == 1 {
                                let at = self.q.now().0 + 40_000_000;
                                if let Some(at) = self.delack.arm(at) {
                                    self.q.push(Nanos(at), Ev::DelAck);
                                }
                            } else {
                                self.delack.live = None;
                            }
                        }
                    }
                    // A timer that comes due changes nothing here: ACKs
                    // keep every window open.
                    Ev::Rto(flow) => {
                        let now = self.q.now().0;
                        if let Some(at) = self.rtos[flow].fire(now) {
                            self.q.push(Nanos(at), Ev::Rto(flow));
                        }
                    }
                    Ev::DelAck => {
                        if let Some(at) = self.delack.fire(self.q.now().0) {
                            self.q.push(Nanos(at), Ev::DelAck);
                        }
                    }
                }
                self.contend();
            }
        }
    }

    /// Prints one table row and returns (level-0 share of pushes, nodes
    /// cascaded per push).
    fn report(&self, name: &str) -> (f64, f64) {
        let c = &self.q.census;
        let pushes: u64 = c.admitted.iter().sum();
        let share = |n: u64| 100.0 * n as f64 / pushes as f64;
        println!(
            "{name}: {pushes} pushes, admitted at level 0..{}: {:?} %, \
             {:.2} cascades and {:.2} re-linked nodes per settled timestamp, \
             {:.2} re-links per push, {:.3} level-0 nodes walked per popped event",
            LEVELS - 1,
            c.admitted
                .iter()
                .map(|&n| (share(n) * 100.0).round() / 100.0)
                .collect::<Vec<_>>(),
            c.cascades as f64 / c.settles as f64,
            c.cascaded_nodes as f64 / c.settles as f64,
            c.cascaded_nodes as f64 / pushes as f64,
            c.walked as f64 / (pushes - self.q.len() as u64) as f64,
        );
        (
            c.admitted[0] as f64 / pushes as f64,
            c.cascaded_nodes as f64 / pushes as f64,
        )
    }
}

/// Saturating CBR downlink to two fast stations and a slow one (120 µs,
/// 120 µs and 1.2 ms gaps) plus two 10 Hz pings: `udp3_sat`'s shape.
#[test]
fn census_udp_flood_shape() {
    let mut s = Shape::new(vec![120_000, 120_000, 1_200_000, 100_000_000, 100_000_000]);
    for i in 0..s.gaps.len() {
        s.after(0, Ev::Source(i));
    }
    s.run(400_000);
    let (level0, relinks) = s.report("udp flood");
    // Wire hops, CBR gaps and exchanges lie within level 0's ~1 ms span,
    // so most pushes are admitted where they pop.
    assert!(
        relinks <= 0.3,
        "{relinks} re-links per push, level-0 share {level0}"
    );
}

/// 30 stations' worth of ack-clocked windows (39 flows × 20 segments) and
/// the timers the ACKs re-arm in place: `tcp30_mixed`'s shape.
#[test]
fn census_tcp30_shape() {
    let mut s = Shape::new(Vec::new());
    for _ in 0..39 * 20 {
        s.after(WIRE + DATA_NS, Ev::AtAp);
    }
    s.run(400_000);
    let (level0, relinks) = s.report("tcp 30 stations");
    assert!(
        relinks <= 0.4,
        "{relinks} re-links per push, level-0 share {level0}"
    );
}

/// 2,000 backlogged stations' downlink, each a Poisson source of 1,500-byte
/// packets at 200 kbit/s (60 ms mean gap): `roster20k_churn`'s shape. The
/// gaps reach past level 0, so more of it cascades than of the others.
#[test]
fn census_roster_shape() {
    let mut s = Shape::new(vec![60_000_000; 2_000]);
    s.poisson = true;
    for i in 0..s.gaps.len() {
        let gap = s.gap(i);
        s.after(gap, Ev::Source(i));
    }
    s.run(400_000);
    let (level0, relinks) = s.report("roster downlink");
    assert!(
        relinks <= 1.0,
        "{relinks} re-links per push, level-0 share {level0}"
    );
}
