//! The worker-count identity check shared by the sharded extension
//! experiments, and the transport-free load its shards run.

use wifiq_mac::{App, Commands, Delivery, NodeAddr, Packet};
use wifiq_phy::AccessCategory;
use wifiq_scale::{ShardCtx, ShardSet};
use wifiq_sim::Nanos;
use wifiq_telemetry::{Registry, Telemetry};

use crate::report::write_artifact;
use crate::runner::{export_metrics, RunCfg};

/// Downlink flood over the first `n` station slots: `per_tick` packets of
/// `len` bytes every `tick`, round-robin, one flow per slot —
/// deterministic, transport-free load (pure MAC behaviour) whose event
/// count does not grow with the roster. Sends to a slot whose occupant
/// has left are dropped (and counted) by the network, so the app never
/// tracks the roster. Arm it with `net.seed_timer(0, Nanos::ZERO)`.
pub struct Flood {
    n: usize,
    per_tick: usize,
    len: u64,
    tick: Nanos,
    cursor: usize,
    next_id: u64,
    delivered: Vec<u64>,
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
            delivered: vec![0; n],
        }
    }

    /// Bytes delivered so far, per station slot.
    pub fn delivered(&self) -> &[u64] {
        &self.delivered
    }
}

impl App<()> for Flood {
    fn on_packet(&mut self, at: Delivery, pkt: Packet<()>, _: Nanos, _: &mut Commands<()>) {
        if let Delivery::AtStation(slot) = at {
            if slot >= self.delivered.len() {
                self.delivered.resize(slot + 1, 0);
            }
            self.delivered[slot] += pkt.len;
        }
    }

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

/// The sharding determinism guarantee, executed: runs the same `shards`-way
/// decomposition on one worker and on four, writes both merged telemetry
/// rollups to `<name>_rollup_{seq,par}.json` under `cfg.results_dir` for CI
/// to `cmp`, and returns whether they are byte-identical.
///
/// With `cfg.metrics` on the one-worker rollup is re-exported as the
/// `<name>_rollup` snapshot, so `scripts/check_metrics.py` validates the
/// shard-labelled registry; `annotate` may add harness-side observations
/// to that snapshot first.
pub fn rollup_identity<T, F>(
    cfg: &RunCfg,
    name: &str,
    shards: u32,
    shard_fn: F,
    annotate: impl FnOnce(&Telemetry),
) -> bool
where
    T: Send,
    F: Fn(&ShardCtx) -> (T, Option<Registry>) + Sync,
{
    let rollup = |workers: usize| {
        ShardSet::new(shards, cfg.base_seed)
            .with_workers(workers)
            .run(&shard_fn)
            .registry
    };
    let seq_registry = rollup(1);
    let seq = seq_registry.to_json().pretty();
    let par = rollup(4).to_json().pretty();
    write_artifact(cfg, &format!("{name}_rollup_seq.json"), &seq);
    write_artifact(cfg, &format!("{name}_rollup_par.json"), &par);
    let tele = cfg.telemetry();
    tele.absorb_registry(&seq_registry, |l| l);
    annotate(&tele);
    export_metrics(cfg, &tele, &format!("{name}_rollup"), cfg.base_seed);
    let identical = seq == par;
    if !identical {
        eprintln!("FAIL: {name} rollup differs between 1 and 4 workers");
    }
    identical
}
