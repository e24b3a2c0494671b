//! # wifiq-scale
//!
//! Scaling machinery on top of the single-BSS simulator: deterministic
//! station churn and a sharded multi-BSS engine.
//!
//! ## Churn
//!
//! [`ChurnDriver`] owns a seeded schedule of join/leave events and applies
//! them to a [`WifiNetwork`](wifiq_mac::WifiNetwork) between event-loop
//! windows. Departing stations are torn down mid-run (queued packets
//! dropped, scheduler slots detached without corrupting the DRR round);
//! a rejoining station reuses the vacated slot with a freshly drawn rate.
//! The schedule is a pure function of the driver's seed, so churn runs are
//! exactly repeatable.
//!
//! ## Sharding
//!
//! [`ShardSet`] runs N *independent* BSS instances (shards) across a
//! worker pool. Each shard gets its own RNG seed split from
//! one master seed, simulates in isolation, and hands back a result plus
//! an optional telemetry [`Registry`](wifiq_telemetry::Registry). The
//! coordinator merges registries in shard order under `shardN` labels,
//! so the rolled-up snapshot is byte-identical no matter how many workers
//! executed the shards — a parallel run and a sequential one produce the
//! same artifact.

pub mod churn;
pub mod shard;

pub use churn::{ChurnCfg, ChurnDriver, ChurnEvent};
pub use shard::{ShardCtx, ShardRun, ShardSet};
