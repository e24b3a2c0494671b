//! The telemetry rollup shared by the sharded extension experiments, and
//! the transport-free load its shards run.

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

/// Runs a `shards`-way decomposition seeded from `cfg.base_seed` and
/// writes its merged telemetry rollup to `<name>_rollup.json` under
/// `cfg.results_dir`.
///
/// With `cfg.metrics` on the rollup is re-exported as the `<name>_rollup`
/// snapshot, so `tests/telemetry_validation.rs` validates the shard-labelled
/// registry; `annotate` may add harness-side observations to that
/// snapshot first.
pub fn write_rollup<T>(
    cfg: &RunCfg,
    name: &str,
    shards: u32,
    shard_fn: impl Fn(&ShardCtx) -> (T, Option<Registry>),
    annotate: impl FnOnce(&Telemetry),
) {
    let registry = ShardSet::new(shards, cfg.base_seed).run(shard_fn).registry;
    write_artifact(
        cfg,
        &format!("{name}_rollup.json"),
        &registry.to_json().pretty(),
    );
    let tele = cfg.telemetry();
    tele.absorb_registry(&registry, |l| l);
    annotate(&tele);
    export_metrics(cfg, &tele, &format!("{name}_rollup"), cfg.base_seed);
}
