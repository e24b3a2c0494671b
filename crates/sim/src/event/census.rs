//! What the wheel is actually asked to do: admission levels and cascade
//! work under the two push-distance shapes the simulator produces. The
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
    /// re-arms its retransmission timer.
    AtServer,
    /// The exchange on the air ends.
    TxEnd,
    /// A timer nobody waits for any more (stale RTO, delayed ACK).
    Stale,
}

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
    /// Frames on the air and their direction, if the medium is busy.
    on_air: Option<(u64, bool)>,
    /// CBR gaps of the open-loop sources.
    gaps: Vec<u64>,
}

impl Shape {
    fn new(gaps: Vec<u64>) -> Shape {
        Shape {
            q: EventQueue::new(),
            rng: 0x9E37_79B9_7F4A_7C15,
            down: 0,
            up: 0,
            unacked: 0,
            on_air: None,
            gaps,
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
                        self.after(self.gaps[i], Ev::Source(i));
                    }
                    // An overloaded AP queue drops: the wheel never sees it.
                    Ev::AtAp => self.down = (self.down + 1).min(8_192),
                    Ev::AtServer => {
                        self.after(WIRE + DATA_NS, Ev::AtAp);
                        self.after(WIRE + DATA_NS, Ev::AtAp);
                        let rto = 200_000_000 + self.draw(50_000_000);
                        self.after(rto, Ev::Stale);
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
                            // is acknowledged with the next to arrive.
                            self.unacked += frames;
                            self.up += self.unacked / 2;
                            self.unacked %= 2;
                            if self.unacked == 1 {
                                self.after(40_000_000, Ev::Stale);
                            }
                        }
                    }
                    Ev::Stale => {}
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
            "{name}: {pushes} pushes, admitted at level 0..{}: {:?} % (+ overflow {:.2} %), \
             {:.2} cascades and {:.2} re-linked nodes per settled timestamp, \
             {:.2} re-links per push",
            LEVELS - 1,
            c.admitted[..LEVELS]
                .iter()
                .map(|&n| (share(n) * 100.0).round() / 100.0)
                .collect::<Vec<_>>(),
            share(c.admitted[LEVELS]),
            c.cascades as f64 / c.settles as f64,
            c.cascaded_nodes as f64 / c.settles as f64,
            c.cascaded_nodes as f64 / pushes as f64,
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
    // No steady-state push lands within the 4.096 µs level-0 horizon, so
    // every event is cascaded down at least once before it pops.
    assert!(level0 < 0.001, "level-0 share {level0}");
    assert!(relinks >= 1.0, "{relinks} re-links per push");
}

/// 30 stations' worth of ack-clocked windows (39 flows × 20 segments) and
/// the timers each ACK re-arms: `tcp30_mixed`'s shape.
#[test]
fn census_tcp30_shape() {
    let mut s = Shape::new(Vec::new());
    for _ in 0..39 * 20 {
        s.after(WIRE + DATA_NS, Ev::AtAp);
    }
    s.run(400_000);
    let (level0, relinks) = s.report("tcp 30 stations");
    assert!(level0 < 0.001, "level-0 share {level0}");
    assert!(relinks >= 1.0, "{relinks} re-links per push");
}
