//! # ending-anomaly
//!
//! A from-scratch Rust reproduction of *"Ending the Anomaly: Achieving Low
//! Latency and Airtime Fairness in WiFi"* (Høiland-Jørgensen, Kazior, Täht,
//! Hurtig, Brunstrom — USENIX ATC 2017).
//!
//! This umbrella crate re-exports the workspace:
//!
//! - [`core`](mod@crate::core) — the paper's contribution: the MAC-layer
//!   FQ-CoDel structure (Algorithms 1–2) and the airtime-fairness
//!   scheduler (Algorithm 3),
//! - [`codel`](mod@crate::codel) — the CoDel AQM with per-station parameters,
//! - [`qdisc`](mod@crate::qdisc) — pfifo_fast and FQ-CoDel qdisc baselines,
//! - [`phy`](mod@crate::phy) / [`mac`](mod@crate::mac) — the 802.11n PHY/MAC
//!   discrete-event simulator standing in for the paper's testbed,
//! - [`transport`](mod@crate::transport) — CUBIC/NewReno TCP with SACK,
//! - [`traffic`](mod@crate::traffic) — ping, UDP, VoIP and web workloads,
//! - [`model`](mod@crate::model) — the analytical model (eqs. 1–5),
//! - [`stats`](mod@crate::stats) — Jain's index, CDFs, the G.107 E-model,
//! - [`telemetry`](mod@crate::telemetry) — opt-in metrics registry and
//!   structured-event ring (counters, gauges, histograms; JSON/CSV export),
//! - [`harness`](mod@crate::harness) — parallel, cached, resumable
//!   experiment orchestration (worker pool, content-addressed result
//!   cache),
//! - [`scale`](mod@crate::scale) — deterministic station churn and the
//!   sharded multi-BSS engine with cross-shard telemetry rollup,
//! - [`roam`](mod@crate::roam) — seeded inter-BSS roaming: mid-flow
//!   hand-offs that migrate queued downlink state across the shard set
//!   under a windowed-lockstep determinism guarantee,
//! - [`chaos`](mod@crate::chaos) — deterministic seeded fault injection
//!   (burst loss, rate collapse, stalls, backpressure, ACK loss) driven
//!   by a declarative fault schedule,
//! - [`policy`](mod@crate::policy) — hierarchical airtime policy
//!   (tenant slices, device-class groups, per-station weights) compiled
//!   into weighted deficit quanta, with runtime reconfiguration,
//! - [`experiments`](mod@crate::experiments) — harnesses for every table and
//!   figure in the paper's evaluation.
//!
//! See `examples/quickstart.rs` for a three-minute tour, DESIGN.md for the
//! system inventory, and EXPERIMENTS.md for paper-vs-measured results.

pub use wifiq_chaos as chaos;
pub use wifiq_codel as codel;
pub use wifiq_core as core;
pub use wifiq_experiments as experiments;
pub use wifiq_harness as harness;
pub use wifiq_mac as mac;
pub use wifiq_model as model;
pub use wifiq_phy as phy;
pub use wifiq_policy as policy;
pub use wifiq_qdisc as qdisc;
pub use wifiq_roam as roam;
pub use wifiq_scale as scale;
pub use wifiq_sim as sim;
pub use wifiq_stats as stats;
pub use wifiq_telemetry as telemetry;
pub use wifiq_traffic as traffic;
pub use wifiq_transport as transport;
