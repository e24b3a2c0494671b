//! The sharded multi-BSS engine.
//!
//! A shard is one independent BSS simulation. [`ShardSet`] runs its
//! shards one after another on the calling thread and returns each
//! shard's result in shard order. Per-shard seeds are split from the
//! master seed up front, so every shard's result is a pure function of
//! the master seed and the shard count. Parallelism belongs to the
//! experiment harness, which runs whole repetitions side by side.

use wifiq_sim::SimRng;

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
    /// returns its results in that order.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        F: Fn(&ShardCtx) -> T,
    {
        self.contexts().iter().map(f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A stand-in shard workload: a deterministic per-seed sum.
    fn workload(ctx: &ShardCtx) -> u64 {
        let mut rng = SimRng::new(ctx.seed);
        (0..100).map(|_| rng.gen_range_u64(1, 1000)).sum()
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
            Rc::new(u64::from(ctx.shard))
        });
        assert_eq!(order.into_inner(), vec![0, 1, 2, 3, 4, 5]);
        let outputs: Vec<u64> = run.iter().map(|o| **o).collect();
        assert_eq!(outputs, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn single_shard() {
        let run = ShardSet::new(1, 9).run(workload);
        assert_eq!(run, [workload(&ShardSet::new(1, 9).contexts()[0])]);
    }
}
