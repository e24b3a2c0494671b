//! The paper's core contribution: a bloat-free queueing structure for
//! 802.11 and an airtime-fairness scheduler.
//!
//! This crate is a faithful, driver-agnostic implementation of the three
//! algorithms in "Ending the Anomaly: Achieving Low Latency and Airtime
//! Fairness in WiFi" (Høiland-Jørgensen et al., USENIX ATC 2017):
//!
//! - [`fq::MacFq`] — Algorithms 1 and 2: the MAC-layer FQ-CoDel structure
//!   with a shared flow-queue pool, dynamic TID assignment, per-TID
//!   overflow queues, and a global limit with drop-from-longest-queue,
//! - [`scheduler::AirtimeScheduler`] — Algorithm 3: deficit round-robin
//!   over stations with the deficit in microseconds of airtime, per QoS
//!   level, with the sparse-station optimisation.
//!
//! In the Linux kernel these live in mac80211 and the ath9k driver; here
//! they are plain data structures driven by the `wifiq-mac` simulator (or
//! by your own environment — nothing in this crate depends on the
//! simulator).

pub mod fq;
pub mod packet;
pub mod scheduler;
pub mod table;

pub use fq::{FqParams, FqStats, MacFq};
pub use packet::{FqPacket, PacketArena, PacketFifo, PacketHandle, QueuedPacket};
pub use scheduler::{AirtimeParams, AirtimeScheduler, AirtimeStats, QOS_LEVELS, WEIGHT_NEUTRAL};
pub use table::{Membership, StaId, StationTable, TidId};
