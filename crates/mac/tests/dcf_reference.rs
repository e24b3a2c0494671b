//! A slot-stepped DCF reference, written independently of the simulator's
//! contention code, and the simulator's agreement with it.
//!
//! The reference is the textbook distributed coordination function: every
//! station holds an explicit backoff counter; after each busy period the
//! medium must stay idle for AIFS (SIFS + AIFSN slots) before counting
//! starts; each further idle slot decrements every counter by one; the
//! stations whose counters reach zero together transmit together — one
//! is a success, two or more a collision — and the medium is busy for the
//! exchange (DATA + SIFS + ACK). Binary exponential backoff runs between
//! the access category's CWmin and CWmax and resets at the retry limit.
//! How a counter moves after a busy period is one function, the [`Rule`]:
//! standard DCF draws once per attempt and freezes a deferring station's
//! counter; [`redraw_every_round`] is the simulator's own model (every
//! contender draws afresh each round, `mac/src/contention.rs`); and
//! [`losers_reset`] restarts a deferring station's countdown from the
//! value it drew, a broken clock.
//!
//! Three measures compare the models, computed by one function from the
//! attempts either one logs: the per-attempt collision probability, the
//! mean access delay (a frame's head-of-line time to the end of its
//! successful exchange) and short-term fairness (Jain's index of the
//! per-station successes in each 100 ms window, averaged over windows).
//! The simulator must agree with the rule it implements within 5 % on all
//! three; the rules must not agree with one another.
//!
//! `cargo test --release -p wifiq-mac --test dcf_reference -- --ignored
//! --nocapture` prints the tables of DESIGN.md §14 "Redrawn, not frozen".

use std::cell::RefCell;
use std::rc::Rc;

use wifiq_mac::{
    App, Commands, Delivery, NetworkConfig, NodeAddr, Packet, SchemeKind, TxMonitor, TxRecord,
    WifiNetwork,
};
use wifiq_phy::consts::{SIFS, SLOT_TIME};
use wifiq_phy::{AccessCategory, LegacyRate, PhyRate};
use wifiq_sim::{Nanos, SimRng};

/// The simulator's default retry limit (`NetworkConfig::max_retries`).
const MAX_RETRIES: u32 = 10;
/// Short-term fairness window.
const WINDOW: u64 = 100_000_000;
/// Start-up transient left out of every measure.
const WARMUP: u64 = 200_000_000;
/// The agreement band.
const BAND: f64 = 0.05;

/// One transmission attempt, as either model logs it.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    /// When the exchange left the air, in ns.
    end: u64,
    station: usize,
    success: bool,
    /// Retries before this attempt (0 = first transmission).
    retry: u32,
}

/// One station's backoff entity in the reference.
#[derive(Debug, Clone, Copy)]
struct Backoff {
    counter: u32,
    /// The value `counter` was last drawn at.
    drawn: u32,
    cw: u32,
    retries: u32,
}

impl Backoff {
    fn draw(&mut self, rng: &mut SimRng) {
        self.drawn = rng.gen_range_u64(0, self.cw as u64 + 1) as u32;
        self.counter = self.drawn;
    }
}

/// How a station's counter moves once a busy period ends: `sent` if it
/// transmitted in it (its window already stepped by binary exponential
/// backoff), else it deferred.
type Rule = fn(&mut Backoff, bool, &mut SimRng);

/// Standard DCF: one draw per attempt; a deferring counter is frozen.
fn dcf(b: &mut Backoff, sent: bool, rng: &mut SimRng) {
    if sent {
        b.draw(rng);
    }
}

/// The simulator's model: every station redraws after every busy period.
fn redraw_every_round(b: &mut Backoff, _sent: bool, rng: &mut SimRng) {
    b.draw(rng);
}

/// A broken clock: a deferring station restarts its countdown from the
/// value it drew instead of resuming where it froze.
fn losers_reset(b: &mut Backoff, sent: bool, rng: &mut SimRng) {
    if sent {
        b.draw(rng);
    } else {
        b.counter = b.drawn;
    }
}

/// The medium as the reference sees it, in ns.
#[derive(Debug, Clone, Copy)]
struct Medium {
    aifsn: u64,
    cw_min: u32,
    cw_max: u32,
    slot: u64,
    sifs: u64,
    /// DATA + SIFS + ACK, the same for every station.
    exchange: u64,
}

impl Medium {
    fn best_effort(exchange: Nanos) -> Medium {
        let edca = AccessCategory::Be.edca();
        Medium {
            aifsn: edca.aifsn as u64,
            cw_min: edca.cw_min,
            cw_max: edca.cw_max,
            slot: SLOT_TIME.as_nanos(),
            sifs: SIFS.as_nanos(),
            exchange: exchange.as_nanos(),
        }
    }

    fn aifs(&self) -> u64 {
        self.sifs + self.aifsn * self.slot
    }
}

/// Runs `n` saturated stations under `rule` until `horizon` ns.
fn reference(n: usize, m: Medium, rule: Rule, horizon: u64, seed: u64) -> Vec<Attempt> {
    let mut rng = SimRng::new(seed);
    let fresh = Backoff {
        counter: 0,
        drawn: 0,
        cw: m.cw_min,
        retries: 0,
    };
    let mut sta = vec![fresh; n];
    sta.iter_mut().for_each(|b| b.draw(&mut rng));
    let (mut t, mut log, mut tx) = (0, Vec::new(), Vec::new());
    while t < horizon {
        t += m.aifs();
        while sta.iter().all(|b| b.counter > 0) {
            sta.iter_mut().for_each(|b| b.counter -= 1);
            t += m.slot;
        }
        tx.clear();
        tx.extend((0..n).filter(|&i| sta[i].counter == 0));
        t += m.exchange;
        let success = tx.len() == 1;
        for &i in &tx {
            let b = &mut sta[i];
            log.push(Attempt {
                end: t,
                station: i,
                success,
                retry: b.retries,
            });
            b.retries += 1;
            if success || b.retries > MAX_RETRIES {
                (b.cw, b.retries) = (m.cw_min, 0);
            } else {
                b.cw = (b.cw * 2 + 1).min(m.cw_max);
            }
        }
        for (i, b) in sta.iter_mut().enumerate() {
            rule(b, tx.contains(&i), &mut rng);
        }
    }
    log
}

/// The three measures, over the attempts that ended in
/// `[WARMUP, WARMUP + windows × WINDOW)`.
#[derive(Debug, Clone, Copy)]
struct Measures {
    collision: f64,
    delay_us: f64,
    share_jain: f64,
}

impl Measures {
    fn of(log: &[Attempt], n: usize, windows: usize) -> Measures {
        let to = WARMUP + windows as u64 * WINDOW;
        // When each station's current frame reached the head of the line:
        // the end of the exchange that delivered or dropped the last one.
        let mut hol = vec![0u64; n];
        let (mut attempts, mut collided, mut delay, mut delays) = (0u64, 0u64, 0u64, 0u64);
        let mut wins = vec![vec![0u64; n]; windows];
        for a in log {
            let counted = (WARMUP..to).contains(&a.end);
            if counted {
                attempts += 1;
                collided += !a.success as u64;
            }
            if a.success {
                if counted {
                    delay += a.end - hol[a.station];
                    delays += 1;
                    wins[((a.end - WARMUP) / WINDOW) as usize][a.station] += 1;
                }
                hol[a.station] = a.end;
            } else if a.retry == MAX_RETRIES {
                hol[a.station] = a.end;
            }
        }
        let jain = |w: &Vec<u64>| {
            let (sum, sq) = w
                .iter()
                .fold((0.0, 0.0), |(s, q), &x| (s + x as f64, q + (x * x) as f64));
            sum * sum / (n as f64 * sq)
        };
        Measures {
            collision: collided as f64 / attempts as f64,
            delay_us: delay as f64 / delays as f64 / 1e3,
            share_jain: wins.iter().map(jain).sum::<f64>() / windows as f64,
        }
    }

    /// The largest relative gap to `reference` over the three measures,
    /// and which measure it is.
    fn gap(&self, reference: &Measures) -> (f64, &'static str) {
        let rel = |a: f64, b: f64| (a - b).abs() / b;
        [
            (rel(self.collision, reference.collision), "collision"),
            (rel(self.delay_us, reference.delay_us), "delay"),
            (rel(self.share_jain, reference.share_jain), "share"),
        ]
        .into_iter()
        .fold((0.0, ""), |g, x| if x.0 > g.0 { x } else { g })
    }
}

/// Keeps every station's uplink FIFO full: a burst at start, one more
/// packet per delivery, and one per station every 10 ms to cover frames
/// dropped at the retry limit (the FIFO tail-drops the surplus).
struct Saturate {
    n: usize,
}

const FILL: usize = 16;
const PACKET_BYTES: u64 = 300;

impl Saturate {
    fn send(sta: usize, now: Nanos, cmds: &mut Commands<()>) {
        cmds.send(Packet {
            id: 0,
            src: NodeAddr::Station(sta),
            dst: NodeAddr::Server,
            flow: sta as u64,
            len: PACKET_BYTES,
            ac: AccessCategory::Be,
            created: now,
            enqueued: now,
            payload: (),
        });
    }
}

impl App<()> for Saturate {
    fn on_packet(&mut self, at: Delivery, pkt: Packet<()>, now: Nanos, cmds: &mut Commands<()>) {
        if at == Delivery::AtServer {
            Saturate::send(pkt.flow as usize, now, cmds);
        }
    }

    fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<()>) {
        let burst = if token == 0 { FILL } else { 1 };
        for sta in 0..self.n {
            (0..burst).for_each(|_| Saturate::send(sta, now, cmds));
        }
        cmds.set_timer(1, now + Nanos::from_millis(10));
    }
}

/// Every attempt the simulator's monitor sees, and the one airtime all
/// its exchanges share.
#[derive(Debug, Default)]
struct Log {
    attempts: Vec<Attempt>,
    airtime: Option<Nanos>,
}

impl TxMonitor for Log {
    fn on_tx(&mut self, r: &TxRecord) {
        let first = *self.airtime.get_or_insert(r.airtime);
        assert_eq!(r.airtime, first, "exchanges differ in airtime");
        self.attempts.push(Attempt {
            end: r.at.as_nanos(),
            station: r.station,
            success: r.success,
            retry: r.retry,
        });
    }
}

/// Runs the simulator with `n` saturated 54 Mbit/s stations (legacy
/// rates do not aggregate, so every exchange is one 300-byte frame and
/// lasts the same) and returns its attempts and that exchange's airtime.
fn simulate(n: usize, horizon: u64, seed: u64) -> (Vec<Attempt>, Nanos) {
    let cfg = NetworkConfig::builder()
        .scheme(SchemeKind::Fifo)
        .stations_at(n, PhyRate::Legacy(LegacyRate::Ofdm54))
        .station_fifo_limit(FILL)
        .max_retries(MAX_RETRIES)
        .seed(seed)
        .build();
    let mut net = WifiNetwork::new(cfg);
    let log = Rc::new(RefCell::new(Log::default()));
    net.attach_monitor(Box::new(log.clone()));
    net.seed_timer(0, Nanos::ZERO);
    net.run(Nanos::from_nanos(horizon), &mut Saturate { n });
    let log = std::mem::take(&mut *log.borrow_mut());
    (log.attempts, log.airtime.expect("nothing was transmitted"))
}

/// The simulator's measures for `n` stations over `windows` 100 ms
/// windows, and the airtime of its exchanges.
fn simulator_measures(n: usize, windows: usize) -> (Measures, Nanos) {
    let (log, exchange) = simulate(n, WARMUP + windows as u64 * WINDOW, 11);
    (Measures::of(&log, n, windows), exchange)
}

/// The reference's measures under `rule` for `n` stations exchanging for
/// `exchange` each, over `windows` 100 ms windows.
fn reference_measures(n: usize, exchange: Nanos, rule: Rule, windows: usize) -> Measures {
    let horizon = WARMUP + windows as u64 * WINDOW;
    let log = reference(n, Medium::best_effort(exchange), rule, horizon, 23);
    Measures::of(&log, n, windows)
}

#[test]
fn reference_matches_the_two_station_closed_form() {
    // With one fixed window W (no backoff stages) and two stations, each
    // round's fresh draw meets the other's residual counter with
    // probability 1/(W + 1), whatever the residual; counting attempts and
    // idle slots per station then gives p = 2/(W + 2) per attempt and a
    // mean access delay of [2(W + 1)(AIFS + X) + W(W + 2)σ/2] / W.
    for w in [7u32, 15, 31] {
        let m = Medium {
            cw_min: w,
            cw_max: w,
            ..Medium::best_effort(Nanos::from_micros(100))
        };
        let windows = 1000;
        let log = reference(2, m, dcf, WARMUP + windows as u64 * WINDOW, 5);
        let got = Measures::of(&log, 2, windows);
        let w = w as f64;
        let p = 2.0 / (w + 2.0);
        let (cycle, slot) = ((m.aifs() + m.exchange) as f64, m.slot as f64);
        let delay = (2.0 * (w + 1.0) * cycle + w * (w + 2.0) * slot / 2.0) / w / 1e3;
        assert!(
            (got.collision - p).abs() / p < 0.03,
            "W {w}: p {} vs {p}",
            got.collision
        );
        assert!(
            (got.delay_us - delay).abs() / delay < 0.005,
            "W {w}: delay {} vs {delay} µs",
            got.delay_us
        );
    }
}

#[test]
fn simulator_agrees_with_the_redraw_rule() {
    for n in [2, 5, 12, 30, 50] {
        let (sim, exchange) = simulator_measures(n, 60);
        let reference = reference_measures(n, exchange, redraw_every_round, 240);
        let (gap, what) = sim.gap(&reference);
        assert!(
            gap < BAND,
            "n = {n}: {what} off by {:.1} %: simulator {sim:?}, reference {reference:?}",
            gap * 100.0
        );
    }
}

#[test]
fn simulator_agrees_with_the_redraw_rule_at_scale() {
    // The order-statistics round draws per class, not per contender: at
    // hundreds of contenders nearly every class holds many members, and
    // the class minimum and tie draws carry the whole round. The
    // reference steps every station every slot, so these run shorter:
    // 2 s and 4 s measured, where the gaps stay under 2.5 %.
    for n in [128, 512] {
        let (sim, exchange) = simulator_measures(n, 20);
        let reference = reference_measures(n, exchange, redraw_every_round, 40);
        let (gap, what) = sim.gap(&reference);
        assert!(
            gap < BAND,
            "n = {n}: {what} off by {:.1} %: simulator {sim:?}, reference {reference:?}",
            gap * 100.0
        );
    }
}

#[test]
fn the_band_tells_the_rules_apart() {
    // Agreement within the band is only worth something if no other rule
    // would agree too: each pair of rules must miss it on some measure at
    // some n.
    let m = Medium::best_effort(Nanos::from_micros(100));
    let horizon = WARMUP + 200 * WINDOW;
    let rules = [
        ("dcf", dcf as Rule),
        ("redraw", redraw_every_round),
        ("reset", losers_reset),
    ];
    for (i, &(a, rule_a)) in rules.iter().enumerate() {
        for &(b, rule_b) in &rules[i + 1..] {
            let apart = [2, 10, 50].into_iter().any(|n| {
                let x = Measures::of(&reference(n, m, rule_a, horizon, 3), n, 200);
                let y = Measures::of(&reference(n, m, rule_b, horizon, 3), n, 200);
                x.gap(&y).0 > BAND
            });
            assert!(apart, "{a} and {b} agree within the band at every n");
        }
    }
}

/// The tables behind DESIGN.md §14 "Redrawn, not frozen": the simulator
/// against the redraw rule and against DCF for n = 2…50, and saturated
/// successes per second under both rules for up to 512 stations.
#[test]
#[ignore = "release-mode sweep; prints the tables"]
fn sweep() {
    println!("n | sim p | redraw p | dcf p | sim delay µs | dcf delay µs | sim jain | dcf jain | sim vs redraw | sim vs dcf | reset vs dcf");
    for n in 2..=50 {
        let (sim, exchange) = simulator_measures(n, 100);
        let run = |rule| reference_measures(n, exchange, rule, 400);
        let (redraw, dcf) = (run(redraw_every_round), run(dcf));
        let gap = |x: &Measures, to: &Measures| {
            let (gap, what) = x.gap(to);
            format!("{:.1} % ({what})", gap * 100.0)
        };
        println!(
            "{n} | {:.4} | {:.4} | {:.4} | {:.0} | {:.0} | {:.4} | {:.4} | {} | {} | {}",
            sim.collision,
            redraw.collision,
            dcf.collision,
            sim.delay_us,
            dcf.delay_us,
            sim.share_jain,
            dcf.share_jain,
            gap(&sim, &redraw),
            gap(&sim, &dcf),
            gap(&run(losers_reset), &dcf),
        );
    }
    // A 1500-byte frame at 144 Mbit/s with its block ack: ~150 µs.
    let m = Medium::best_effort(Nanos::from_micros(150));
    println!("n | dcf successes/s | redraw successes/s");
    for n in [50, 100, 200, 367, 512] {
        let horizon = WARMUP + 20 * WINDOW;
        let rate = |rule: Rule| {
            let log = reference(n, m, rule, horizon, 3);
            log.iter().filter(|a| a.success).count() as f64 / (horizon as f64 / 1e9)
        };
        println!("{n} | {:.0} | {:.0}", rate(dcf), rate(redraw_every_round));
    }
}
