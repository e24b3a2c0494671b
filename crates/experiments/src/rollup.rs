//! The worker-count identity check shared by the sharded extension
//! experiments, and the transport-free load its shards run.

use wifiq_harness::results_dir;
use wifiq_mac::{App, Commands, Delivery, NodeAddr, Packet};
use wifiq_phy::AccessCategory;
use wifiq_scale::{ShardCtx, ShardSet};
use wifiq_sim::Nanos;
use wifiq_telemetry::{Registry, Telemetry};

use crate::runner::{export_metrics, metrics_telemetry};

/// Downlink flood over the first `n` station slots: four MTU packets
/// every 500 µs, round-robin — deterministic, transport-free load (pure
/// MAC behaviour). Arm it with `net.seed_timer(0, Nanos::ZERO)`.
pub struct Flood {
    n: usize,
    cursor: usize,
    next_id: u64,
}

impl Flood {
    pub fn new(n: usize) -> Flood {
        Flood {
            n,
            cursor: 0,
            next_id: 0,
        }
    }
}

impl App<()> for Flood {
    fn on_packet(&mut self, _: Delivery, _: Packet<()>, _: Nanos, _: &mut Commands<()>) {}

    fn on_timer(&mut self, _token: u64, now: Nanos, cmds: &mut Commands<()>) {
        for _ in 0..4 {
            let dst = self.cursor % self.n;
            self.cursor += 1;
            self.next_id += 1;
            cmds.send(Packet {
                id: self.next_id,
                src: NodeAddr::Server,
                dst: NodeAddr::Station(dst),
                flow: dst as u64,
                len: 1500,
                ac: AccessCategory::Be,
                created: now,
                enqueued: now,
                payload: (),
            });
        }
        cmds.set_timer(0, now + Nanos::from_micros(500));
    }
}

/// The sharding determinism guarantee, executed: runs the same `shards`-way
/// decomposition on one worker and on four, writes both merged telemetry
/// rollups to `results/<name>_rollup_{seq,par}.json` for CI to `cmp`, and
/// returns whether they are byte-identical.
///
/// Under `WIFIQ_METRICS=1` the one-worker rollup is re-exported as the
/// `<name>_rollup` snapshot, so `scripts/check_metrics.py` validates the
/// shard-labelled registry; `annotate` may add harness-side observations
/// to that snapshot first.
pub fn rollup_identity<T, F>(
    name: &str,
    shards: u32,
    seed: u64,
    shard_fn: F,
    annotate: impl FnOnce(&Telemetry),
) -> bool
where
    T: Send,
    F: Fn(&ShardCtx) -> (T, Option<Registry>) + Sync,
{
    let rollup = |workers: usize| {
        ShardSet::new(shards, seed)
            .with_workers(workers)
            .run(&shard_fn)
            .registry
    };
    let seq_registry = rollup(1);
    let seq = seq_registry.to_json().pretty();
    let par = rollup(4).to_json().pretty();
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join(format!("{name}_rollup_seq.json")), &seq).expect("write seq rollup");
    std::fs::write(dir.join(format!("{name}_rollup_par.json")), &par).expect("write par rollup");
    let tele = metrics_telemetry();
    tele.absorb_registry(&seq_registry, |l| l);
    annotate(&tele);
    export_metrics(&tele, &format!("{name}_rollup"), seed);
    let identical = seq == par;
    if !identical {
        eprintln!("FAIL: {name} rollup differs between 1 and 4 workers");
    }
    identical
}
