//! The host-speed probe: a fixed piece of work the benchmark owns, timed
//! between the slices of a run, that says how fast the host is right now.
//!
//! The build machine is two vCPUs of a shared host. Identical code on one
//! seed runs at speeds 10–30 % apart for seconds to minutes at a time (its
//! neighbours come and go), so a rate taken from the wall clock alone
//! spreads further between two runs of the same binary than any change a
//! later PR is likely to make. The probe is timed right before and right
//! after every timed piece of simulator work; its time over [`REF_PASS_S`]
//! is the host's *slowdown* over that piece, and host times are divided by
//! it. What is reported is therefore time on a reference host: the build
//! machine when nobody else is using it.
//!
//! The probe has to slow down when the simulator does, so it is built like
//! one: a discrete-event loop with a binary heap of timers, a queue per
//! station in a working set well beyond L2, a hash lookup per service and
//! data-dependent branches. Tight arithmetic loops and plain pointer walks
//! were tried first and reacted a half to a fifth as much as the simulator
//! to the same neighbours (README, "Calibration record").
//!
//! It is the benchmark's own code and calls nothing in `crates/`, so a
//! change to the simulator cannot move it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// One pass of the probe on the build machine when it is quiet. The unit
/// of every host-time metric hangs on this constant: changing it, or the
/// probe, rescales them all and needs a new baseline.
pub const REF_PASS_S: f64 = 0.0070;

/// Stations of the probe's little simulation.
const STATIONS: u32 = 32 * 1024;

/// Packets a station queue holds before it drops from the head.
const QUEUE_DEPTH: usize = 16;

/// Events per pass.
const EVENTS_PER_PASS: usize = 30_000;

/// Events run and dropped when the probe is built, so that every queue
/// has reached its steady fill before the first timed pass.
const WARM_EVENTS: usize = 600_000;

type ProbePacket = [u64; 4];

pub struct Probe {
    timers: BinaryHeap<Reverse<(u64, u32)>>,
    queues: Vec<VecDeque<ProbePacket>>,
    /// Which queue a service event drains, by key; entries are rewritten
    /// as the run goes, as a roster is under churn.
    serves: HashMap<u64, u32>,
    rng: u64,
    sink: u64,
}

impl Probe {
    pub fn new() -> Probe {
        let mut probe = Probe {
            timers: (0..STATIONS)
                .map(|i| Reverse((u64::from(i) * 7, i)))
                .collect(),
            queues: (0..STATIONS)
                .map(|_| VecDeque::with_capacity(QUEUE_DEPTH))
                .collect(),
            serves: (0..STATIONS).map(|i| (u64::from(i), i)).collect(),
            rng: 0x2545_F491_4F6C_DD1D,
            sink: 0,
        };
        probe.run(WARM_EVENTS);
        probe
    }

    /// One timed pass: how slow the host is right now, as a multiple of
    /// the reference host's time for the same work (1.0 = as fast).
    pub fn pass(&mut self) -> f64 {
        let start = Instant::now();
        self.run(EVENTS_PER_PASS);
        black_box(self.sink);
        start.elapsed().as_secs_f64() / REF_PASS_S
    }

    fn run(&mut self, events: usize) {
        let stations = u64::from(STATIONS);
        for _ in 0..events {
            let Reverse((now, id)) = self.timers.pop().expect("every event re-arms its timer");
            // xorshift64
            let mut x = self.rng;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.rng = x;
            let draw = x >> 8;
            let next = match x & 3 {
                // Arrival: tail-enqueue at the event's own station,
                // head-drop when the queue is full.
                0 | 1 => {
                    let queue = &mut self.queues[id as usize];
                    if queue.len() >= QUEUE_DEPTH {
                        let dropped = queue.pop_front().expect("a full queue has a head");
                        self.sink ^= dropped[1];
                    }
                    queue.push_back([now, x, u64::from(id), self.sink]);
                    draw % 1000
                }
                // Service: look a station up and drain its queue.
                2 => {
                    let served = self.serves.get(&(draw % stations)).copied().unwrap_or(id);
                    for packet in self.queues[served as usize].drain(..) {
                        self.sink = self.sink.wrapping_add(packet[0] ^ packet[1]);
                    }
                    draw % 500
                }
                // Churn: re-point one lookup entry.
                _ => {
                    let key = draw % stations;
                    if let Some(served) = self.serves.remove(&key) {
                        self.serves.insert(key, served ^ 1);
                    }
                    draw % 2000
                }
            };
            self.timers.push(Reverse((now + 1 + next, id)));
        }
    }
}
