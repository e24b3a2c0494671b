//! One level-0 slot holding many timestamps. The wheel's level-0 slots are
//! 256 ns wide, so one slot can hold events at up to 256 distinct times,
//! pushed in any order, with duplicates, some of them cascaded down from
//! coarser levels. Every pop and every `pop_tick` batch out of such a slot
//! must match the two-lane heap oracle (`ReferenceQueue`) popped one event
//! at a time.

mod reference;

use reference::ReferenceQueue;
use wifiq_sim::{EventQueue, Nanos};

/// Start of one level-0 slot: a multiple of the 256 ns slot width inside
/// the clock's first 2^20 ns block, so pushes from clock 0 land in level 0.
const SLOT: u64 = 256 * 100;

/// The wheel and the oracle driven in lockstep, compared after every step.
struct Lockstep {
    wheel: EventQueue<u32>,
    oracle: ReferenceQueue<u32>,
    payload: u32,
    batch: Vec<u32>,
}

impl Lockstep {
    fn new() -> Lockstep {
        Lockstep {
            wheel: EventQueue::new(),
            oracle: ReferenceQueue::new(),
            payload: 0,
            batch: Vec::new(),
        }
    }

    fn push(&mut self, at: u64) {
        self.wheel.push(Nanos(at), self.payload);
        self.oracle.push(Nanos(at), self.payload);
        self.payload += 1;
        self.agree();
    }

    fn pop(&mut self) -> Option<Nanos> {
        let got = self.wheel.pop();
        assert_eq!(got, self.oracle.pop(), "pop diverged");
        self.agree();
        got.map(|(t, _)| t)
    }

    /// One `pop_tick`: its batch must be the oracle's events at that time,
    /// in order, and all of them.
    fn pop_tick(&mut self) -> Option<Nanos> {
        self.batch.clear();
        let tick = self.wheel.pop_tick(Nanos::MAX, &mut self.batch);
        match tick {
            None => assert_eq!(self.oracle.peek_time(), None),
            Some(t) => {
                assert!(!self.batch.is_empty(), "empty batch at {t}");
                for &p in &self.batch {
                    assert_eq!(self.oracle.pop(), Some((t, p)), "batch at {t}");
                }
                assert_ne!(self.oracle.peek_time(), Some(t), "batch at {t} left events");
            }
        }
        self.agree();
        tick
    }

    fn agree(&self) {
        assert_eq!(self.wheel.len(), self.oracle.len(), "live count diverged");
        assert_eq!(self.wheel.now(), self.oracle.now(), "clock diverged");
        assert_eq!(
            self.wheel.peek_time(),
            self.oracle.peek_time(),
            "head diverged"
        );
    }

    /// Drains both, alternating `pop_tick` and `pop`.
    fn drain(&mut self) {
        while self.pop_tick().is_some() && self.pop().is_some() {}
        assert_eq!(self.wheel.len(), 0);
    }
}

#[test]
fn out_of_order_times_and_duplicates_in_one_slot() {
    let mut q = Lockstep::new();
    // Distinct times 1 ns apart, pushed out of order, with duplicates of
    // 3 and 5 scattered between them.
    for offset in [7, 3, 5, 4, 3, 6, 0, 5, 1, 2, 3, 255, 128] {
        q.push(SLOT + offset);
    }
    assert_eq!(q.pop_tick(), Some(Nanos(SLOT)));
    assert_eq!(q.pop(), Some(Nanos(SLOT + 1)));
    assert_eq!(q.pop_tick(), Some(Nanos(SLOT + 2)));
    // Three events at SLOT + 3: `pop` takes the first pushed, `pop_tick`
    // the other two.
    assert_eq!(q.pop(), Some(Nanos(SLOT + 3)));
    assert_eq!(q.pop_tick(), Some(Nanos(SLOT + 3)));
    assert_eq!(q.wheel.now(), Nanos(SLOT + 3));
    // A handler's same-tick re-push between two `pop_tick`s forms the next
    // batch, ahead of the slot's later times; a push 1 ns on joins the
    // events already waiting there, behind them.
    q.push(SLOT + 3);
    q.push(SLOT + 4);
    q.push(SLOT + 3);
    assert_eq!(q.pop_tick(), Some(Nanos(SLOT + 3)));
    assert_eq!(q.batch.len(), 2);
    assert_eq!(q.pop_tick(), Some(Nanos(SLOT + 4)));
    assert_eq!(q.batch.len(), 2);
    q.drain();
}

#[test]
fn a_slot_of_256_distinct_times_pops_in_order() {
    let mut q = Lockstep::new();
    // Every nanosecond of the slot, in a scrambled order (odd steps through
    // 0..256 visit each once), each of every fourth time twice.
    for k in 0..256u64 {
        let offset = (k * 77 + 31) % 256;
        q.push(SLOT + offset);
        if offset % 4 == 0 {
            q.push(SLOT + offset);
        }
    }
    // The slot's neighbours on both sides must wait their turn.
    q.push(SLOT - 1);
    q.push(SLOT + 256);
    assert_eq!(q.pop(), Some(Nanos(SLOT - 1)));
    let mut ticks = 0;
    while let Some(t) = q.pop_tick() {
        assert_eq!(t, Nanos(SLOT + ticks), "one batch per time, in order");
        ticks += 1;
    }
    assert_eq!(ticks, 257);
}

#[test]
fn cascaded_and_direct_entries_share_a_slot() {
    let mut q = Lockstep::new();
    // A slot beyond level 0's first 2^20 ns block: pushes from clock 0 are
    // admitted coarse and cascade into the slot when it comes due.
    let slot = (3 << 20) + SLOT;
    for offset in [200, 100, 100, 50] {
        q.push(slot + offset);
    }
    // The first pop cascades them all into the one slot and takes the
    // earliest; later pushes land there directly, between and at the
    // cascaded times. At slot + 100 the two cascaded events were pushed
    // first and must pop first.
    assert_eq!(q.pop_tick(), Some(Nanos(slot + 50)));
    for offset in [100, 60, 255, 200, 100] {
        q.push(slot + offset);
    }
    assert_eq!(q.pop(), Some(Nanos(slot + 60)));
    assert_eq!(q.pop_tick(), Some(Nanos(slot + 100)));
    assert_eq!(q.batch.len(), 4);
    q.drain();
}
