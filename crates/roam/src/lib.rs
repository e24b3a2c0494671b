//! # wifiq-roam
//!
//! Deterministic inter-BSS roaming: seeded mobility schedules and
//! mid-flow hand-offs, both inside a single BSS and across the shard
//! set.
//!
//! ## Schedule
//!
//! [`RoamDriver`] draws a replayable mobility schedule — per-station
//! exponential dwell times, uniform target-BSS selection, an MCS
//! re-draw and a bounded reassociation gap per hand-off — from a
//! private RNG stream salted with [`ROAM_SEED_SALT`], so attaching
//! roaming to an experiment never perturbs its other random draws and
//! a schedule that never fires is byte-invisible.
//!
//! ## Hand-off
//!
//! A hand-off is a disassociation that *carries flow state*: the old
//! AP's queued downlink frames for the roamer migrate intact to the new
//! association (distribution-system forwarding, 802.11f-style), while
//! what a real hand-off cannot save — hardware-committed frames and the
//! station's own uplink backlog — is dropped and counted as
//! `roam_drops`. [`SoloRoam`] replays a schedule against one network
//! (what a scenario file's `roaming` block plugs into the scenario
//! runner); [`RoamSet`] couples the shards of a multi-BSS run, moving
//! stations between networks in windowed lockstep on the calling
//! thread. Both execute the same two hand-off halves
//! (`handoff::{depart, arrive}`); they differ only in when — exact
//! times on one network, window boundaries across many.
//!
//! Landings are re-attached to the target's policy tree: a roamer whose
//! new slot is covered by an active policy node inherits that node's
//! weights (`roam/policy_reattach`); an uncovered slot falls back to
//! the neutral weight (`roam/neutral_fallback`). See DESIGN.md §12 for
//! the full state machine and the (one thread, fixed iteration order)
//! determinism argument.

pub mod driver;
pub mod engine;
pub mod handoff;

pub use driver::{RoamCfg, RoamDriver, RoamMove, ROAM_SEED_SALT};
pub use engine::{BssHost, RoamRun, RoamSet};
pub use handoff::{RoamStats, SoloRoam};
