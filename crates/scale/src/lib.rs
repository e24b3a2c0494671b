//! # wifiq-scale
//!
//! The station lifecycle on top of the single-BSS simulator: who joins,
//! leaves and roams, and how many networks run side by side.
//!
//! - **Churn.** [`ChurnDriver`] applies a seeded join/leave schedule to a
//!   running [`WifiNetwork`](wifiq_mac::WifiNetwork). Departing stations
//!   are torn down mid-run (queued packets dropped, scheduler slots
//!   detached without corrupting the DRR round); a joining station reuses
//!   a vacated slot with a freshly drawn rate.
//! - **Roaming.** [`RoamDriver`] draws a mobility schedule (dwell times,
//!   target BSSes, reassociation gaps, MCS re-draws) from a private RNG
//!   stream salted with [`ROAM_SEED_SALT`]. A hand-off carries the old
//!   AP's queued downlink frames to the new association and drops only
//!   what a real hand-off cannot save (`roam_drops`); landings re-attach
//!   to the target's policy tree or fall back to the neutral weight.
//!   [`SoloRoam`] replays a schedule on one network, [`RoamSet`] moves
//!   stations between networks in windowed lockstep; both execute the same
//!   `handoff::{depart, arrive}`.
//! - **The roster pump.** [`Roster`] drives one network with whichever of
//!   the two schedules it has: run to the next roster event, apply
//!   everything due — hand-offs first, then churn — and repeat.
//! - **Sharding.** [`ShardSet`] runs N independent BSS instances one after
//!   another on the calling thread, each seeded from one master seed, and
//!   merges their telemetry registries in shard order under `shardN`
//!   labels.
//!
//! Every schedule draws from its own RNG stream, so attaching one never
//! perturbs an experiment's other draws, and every set runs on the
//! calling thread in a fixed order, so each rollup is a pure function of
//! its seed; parallelism is the experiment harness's, across repetitions.
//! DESIGN.md §7 and §12 have the full model.

pub mod churn;
pub mod driver;
pub mod engine;
pub mod handoff;
pub mod roster;
pub mod shard;

pub use churn::{ChurnCfg, ChurnDriver, ChurnEvent};
pub use driver::{RoamCfg, RoamDriver, RoamMove, ROAM_SEED_SALT};
pub use engine::{BssHost, RoamRun, RoamSet};
pub use handoff::{RoamStats, SoloRoam};
pub use roster::Roster;
pub use shard::{ShardCtx, ShardRun, ShardSet};
