//! The sharded multi-BSS engine.
//!
//! A shard is one independent BSS simulation. [`ShardSet`] fans shards
//! out over the experiment harness's claim [`Cursor`], collects
//! each shard's result and telemetry registry, and merges the registries
//! **in shard order** under `shardN` labels. Worker count is pure
//! execution parallelism: because per-shard seeds are split from the
//! master seed up front and the merge order is fixed, the rolled-up
//! artifact is byte-identical whether the shards ran on one worker or
//! eight.

use std::sync::Mutex;

use wifiq_harness::Cursor;
use wifiq_sim::SimRng;
use wifiq_telemetry::{Label, Registry};

/// A shard's raw return value before the merge: its result plus the
/// registry extracted from its private telemetry hub.
type ShardSlot<T> = Mutex<Option<(T, Option<Registry>)>>;

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

/// Runs N independent BSS instances across a worker pool.
#[derive(Debug, Clone, Copy)]
pub struct ShardSet {
    shards: u32,
    master_seed: u64,
    workers: usize,
}

impl ShardSet {
    /// A set of `shards` BSS instances seeded from `master_seed`,
    /// executing sequentially until [`with_workers`](Self::with_workers)
    /// raises the parallelism.
    pub fn new(shards: u32, master_seed: u64) -> ShardSet {
        assert!(shards > 0, "a shard set needs at least one shard");
        ShardSet {
            shards,
            master_seed,
            workers: 1,
        }
    }

    /// Sets the worker-thread count (clamped to the shard count). This
    /// changes wall-clock time only, never the merged output.
    pub fn with_workers(mut self, workers: usize) -> ShardSet {
        self.workers = workers.max(1).min(self.shards as usize);
        self
    }

    /// Number of shards in the set.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The per-shard contexts, with seeds split from the master seed in
    /// shard order. Splitting happens up front — shard 3's seed does not
    /// depend on how many workers executed shards 0..3.
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

    /// Runs `f` once per shard and merges the results.
    ///
    /// `f` returns the shard's result plus an optional registry (the
    /// shard builds its own `Telemetry::enabled()` handle — the handle is
    /// `Rc`-based and cannot cross threads, but the extracted
    /// [`Registry`] can). Registries are merged in shard order under
    /// [`Label::Shard`].
    pub fn run<T, F>(&self, f: F) -> ShardRun<T>
    where
        T: Send,
        F: Fn(&ShardCtx) -> (T, Option<Registry>) + Sync,
    {
        let ctxs = self.contexts();
        let slots: Vec<ShardSlot<T>> = (0..ctxs.len()).map(|_| Mutex::new(None)).collect();
        if self.workers <= 1 {
            for (ctx, slot) in ctxs.iter().zip(&slots) {
                *slot.lock().unwrap() = Some(f(ctx));
            }
        } else {
            let cursor = Cursor::new(ctxs.len());
            std::thread::scope(|s| {
                for _ in 0..self.workers {
                    let (cursor, ctxs, slots, f) = (&cursor, &ctxs, &slots, &f);
                    s.spawn(move || {
                        while let Some(i) = cursor.next() {
                            *slots[i].lock().unwrap() = Some(f(&ctxs[i]));
                        }
                    });
                }
            });
        }
        let mut outputs = Vec::with_capacity(ctxs.len());
        let mut registry = Registry::new();
        for (i, slot) in slots.into_iter().enumerate() {
            let (out, reg) = slot
                .into_inner()
                .unwrap()
                .expect("worker pool exited with an unfinished shard");
            outputs.push(out);
            if let Some(reg) = reg {
                registry.merge_relabeled(&reg, |_| Label::Shard(i as u32));
            }
        }
        ShardRun { outputs, registry }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn parallel_rollup_is_byte_identical_to_sequential() {
        let sequential = ShardSet::new(6, 7).run(workload);
        let parallel = ShardSet::new(6, 7).with_workers(4).run(workload);
        assert_eq!(sequential.outputs, parallel.outputs);
        assert_eq!(
            sequential.registry.to_json().pretty(),
            parallel.registry.to_json().pretty(),
            "worker count leaked into the rollup"
        );
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
    fn worker_clamp_and_single_shard() {
        let run = ShardSet::new(1, 9).with_workers(16).run(workload);
        assert_eq!(run.outputs.len(), 1);
    }
}
