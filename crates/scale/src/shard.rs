//! The sharded multi-BSS engine.
//!
//! A shard is one independent BSS simulation. [`ShardSet`] runs its
//! shards one after another on the calling thread, collects each shard's
//! result and telemetry registry, and merges the registries **in shard
//! order** under `shardN` labels. Per-shard seeds are split from the
//! master seed up front, so the rolled-up artifact is a pure function of
//! the master seed and the shard count. Parallelism belongs to the
//! experiment harness, which runs whole repetitions side by side.

use wifiq_sim::SimRng;
use wifiq_telemetry::{Label, Registry};

/// What one shard knows about itself.
#[derive(Debug, Clone, Copy)]
pub struct ShardCtx {
    /// This shard's index in `[0, shards)`.
    pub shard: u32,
    /// Total number of shards in the set.
    pub shards: u32,
    /// This shard's RNG seed, split from the master seed.
    pub seed: u64,
}

/// The merged outcome of a sharded run.
#[derive(Debug)]
pub struct ShardRun<T> {
    /// Per-shard results, in shard order.
    pub outputs: Vec<T>,
    /// All shards' registries merged under `shardN` labels, in shard
    /// order (so gauges deterministically take the last shard's value).
    pub registry: Registry,
}

/// Runs N independent BSS instances, in shard order.
#[derive(Debug, Clone, Copy)]
pub struct ShardSet {
    shards: u32,
    master_seed: u64,
}

impl ShardSet {
    /// A set of `shards` BSS instances seeded from `master_seed`.
    pub fn new(shards: u32, master_seed: u64) -> ShardSet {
        assert!(shards > 0, "a shard set needs at least one shard");
        ShardSet {
            shards,
            master_seed,
        }
    }

    /// The per-shard contexts, with seeds split from the master seed in
    /// shard order. Splitting happens up front: shard 3's seed does not
    /// depend on anything shards 0..3 do.
    pub fn contexts(&self) -> Vec<ShardCtx> {
        let mut root = SimRng::new(self.master_seed);
        (0..self.shards)
            .map(|shard| ShardCtx {
                shard,
                shards: self.shards,
                seed: root.gen_range_u64(0, u64::MAX),
            })
            .collect()
    }

    /// Runs `f` once per shard, in shard order on the calling thread, and
    /// merges the results.
    ///
    /// `f` returns the shard's result plus an optional registry (the
    /// shard builds its own `Telemetry::enabled()` handle and extracts
    /// the [`Registry`] when done). Registries are merged in shard order
    /// under [`Label::Shard`].
    pub fn run<T, F>(&self, f: F) -> ShardRun<T>
    where
        F: Fn(&ShardCtx) -> (T, Option<Registry>),
    {
        merge_in_shard_order(self.contexts().iter().map(f))
    }
}

/// Collects per-shard `(result, registry)` pairs given in shard order,
/// merging each registry under its shard's [`Label::Shard`] — the one
/// rollup rule of a shard set and a roam set.
pub(crate) fn merge_in_shard_order<T>(
    shards: impl Iterator<Item = (T, Option<Registry>)>,
) -> ShardRun<T> {
    let mut outputs = Vec::new();
    let mut registry = Registry::new();
    for (shard, (out, reg)) in shards.enumerate() {
        outputs.push(out);
        if let Some(reg) = reg {
            registry.merge_relabeled(&reg, |_| Label::Shard(shard as u32));
        }
    }
    ShardRun { outputs, registry }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use wifiq_sim::Nanos;
    use wifiq_telemetry::Telemetry;

    /// A stand-in shard workload: deterministic per-seed metrics.
    fn workload(ctx: &ShardCtx) -> (u64, Option<Registry>) {
        let tele = Telemetry::enabled();
        let mut rng = SimRng::new(ctx.seed);
        let mut acc = 0;
        for _ in 0..100 {
            let v = rng.gen_range_u64(1, 1000);
            acc += v;
            tele.count("shardtest", "work", Label::Global, v);
            tele.observe("shardtest", "latency", Label::Global, Nanos::from_nanos(v));
        }
        (acc, tele.take_registry())
    }

    #[test]
    fn seeds_are_split_deterministically() {
        let a = ShardSet::new(8, 42).contexts();
        let b = ShardSet::new(8, 42).contexts();
        assert_eq!(
            a.iter().map(|c| c.seed).collect::<Vec<_>>(),
            b.iter().map(|c| c.seed).collect::<Vec<_>>()
        );
        let distinct: std::collections::BTreeSet<u64> = a.iter().map(|c| c.seed).collect();
        assert_eq!(distinct.len(), 8, "shard seeds collide");
        // A different master seed re-splits everything.
        let c = ShardSet::new(8, 43).contexts();
        assert_ne!(a[0].seed, c[0].seed);
    }

    /// The contract: shards run in order, on the caller's thread, so a
    /// shard may return (and `f` may capture) values that cannot cross
    /// threads.
    #[test]
    fn shards_run_in_order_on_the_calling_thread() {
        let order = RefCell::new(Vec::new());
        let run = ShardSet::new(6, 7).run(|ctx| {
            order.borrow_mut().push(ctx.shard);
            (Rc::new(u64::from(ctx.shard)), None)
        });
        assert_eq!(order.into_inner(), vec![0, 1, 2, 3, 4, 5]);
        let outputs: Vec<u64> = run.outputs.iter().map(|o| **o).collect();
        assert_eq!(outputs, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn rollup_is_shard_labeled() {
        let run = ShardSet::new(3, 1).run(workload);
        for shard in 0..3 {
            let per_shard = run
                .registry
                .counter("shardtest", "work", Label::Shard(shard));
            assert_eq!(
                per_shard, run.outputs[shard as usize],
                "shard {shard} counter does not match its output"
            );
        }
        assert_eq!(
            run.registry.counter_total("shardtest", "work"),
            run.outputs.iter().sum::<u64>()
        );
    }

    #[test]
    fn single_shard() {
        let run = ShardSet::new(1, 9).run(workload);
        assert_eq!(run.outputs.len(), 1);
    }
}
