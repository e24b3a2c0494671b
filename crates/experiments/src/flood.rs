//! The transport-free load the multi-network extension experiments run
//! on every network.

use wifiq_mac::{App, Commands, Delivery, NodeAddr, Packet};
use wifiq_phy::AccessCategory;
use wifiq_sim::Nanos;

/// Downlink flood over the first `n` station slots: `per_tick` packets of
/// `len` bytes every `tick`, round-robin, one flow per slot —
/// deterministic, transport-free load (pure MAC behaviour) whose event
/// count does not grow with the roster. Sends to a slot whose occupant
/// has left are dropped (and counted) by the network, so the app never
/// tracks the roster; what each station received is on its meter. Arm it
/// with `net.seed_timer(0, Nanos::ZERO)`.
pub struct Flood {
    n: usize,
    per_tick: usize,
    len: u64,
    tick: Nanos,
    cursor: usize,
    next_id: u64,
}

impl Flood {
    /// Four MTU packets every 500 µs.
    pub fn new(n: usize) -> Flood {
        Flood::paced(n, 4, 1500, Nanos::from_micros(500))
    }

    pub fn paced(n: usize, per_tick: usize, len: u64, tick: Nanos) -> Flood {
        Flood {
            n,
            per_tick,
            len,
            tick,
            cursor: 0,
            next_id: 0,
        }
    }
}

impl App<()> for Flood {
    fn on_packet(&mut self, _: Delivery, _: Packet<()>, _: Nanos, _: &mut Commands<()>) {}

    fn on_timer(&mut self, _token: u64, now: Nanos, cmds: &mut Commands<()>) {
        for _ in 0..self.per_tick {
            let dst = self.cursor % self.n;
            self.cursor += 1;
            self.next_id += 1;
            cmds.send(Packet {
                id: self.next_id,
                src: NodeAddr::Server,
                dst: NodeAddr::Station(dst),
                flow: dst as u64,
                len: self.len,
                ac: AccessCategory::Be,
                created: now,
                enqueued: now,
                payload: (),
            });
        }
        cmds.set_timer(0, now + self.tick);
    }
}
