//! Discrete-event 802.11n MAC/driver substrate.
//!
//! This crate is the simulator standing in for the paper's physical
//! testbed: Atheros AR9580 radios, the ath9k driver, and the mac80211
//! queueing layers. It provides:
//!
//! - [`network::WifiNetwork`] — the event loop: CSMA/CA medium
//!   arbitration, wire hop to the server, per-AC hardware queues,
//!   airtime metering,
//! - [`scheme::ApTxPath`] — the AP transmit path under each of the four
//!   evaluated schemes (FIFO, FQ-CoDel, FQ-MAC, Airtime fair FQ),
//! - [`station::StationUplink`] — the unmodified client stack,
//! - [`aggregation`] — A-MPDU construction under the BlockAck-window,
//!   byte and airtime caps,
//! - [`app::App`] — the callback interface traffic generators implement.
//!
//! See DESIGN.md §2 for exactly which paper components each piece
//! substitutes and why the substitution preserves the evaluated
//! behaviour.

pub mod aggregation;
pub mod app;
pub mod builder;
pub mod config;
mod contention;
pub mod meter;
pub mod network;
mod occupancy;
pub mod packet;
pub mod ratectrl;
pub mod scheme;
pub mod station;
pub mod trace;

pub use aggregation::Aggregate;
pub use app::{App, Commands, Delivery};
pub use builder::{Preset, ScenarioBuilder};
pub use config::{ErrorModel, NetworkConfig, SchemeKind, StationCfg};
// Re-exported so scenario authors depend on one crate for the full
// builder vocabulary (targets, impairments, schedules).
pub use meter::{AirtimeMeter, StationMeter};
pub use network::{RoamHandoff, WifiNetwork};
pub use packet::{NodeAddr, Packet, StationIdx};
pub use ratectrl::Minstrel;
pub use trace::{AirtimeCapture, TxDirection, TxMonitor, TxRecord};
pub use wifiq_chaos::{ChaosInjector, FaultEntry, FaultSchedule, FaultTarget, Impairment};
pub use wifiq_core::{StaId, TidId};
pub use wifiq_policy::{PolicyNode, PolicySet, PolicySwitch, PolicyTimeline};
