//! Experiment harnesses regenerating every table and figure of the
//! paper's evaluation (Section 4).
//!
//! Each measurement module below implements one experiment; each module
//! under [`figs`] and [`ext`] is one `wifiq <name>` subcommand that runs
//! it, returns the same rows/series the paper reports, and writes a JSON
//! artifact under `results/`. See DESIGN.md §4 for the experiment index
//! and EXPERIMENTS.md for paper-vs-measured values.
//!
//! | Module      | Paper result | `wifiq` subcommand |
//! |---|---|---|
//! | [`latency`]  | Figures 1 & 4 (+ appendix bidir variant) | `fig04_latency_tcp` |
//! | [`table1`]   | Table 1 | `table1_model_validation` |
//! | [`udp_sat`]  | Figure 5 | `fig05_airtime_udp` |
//! | [`tcp_fair`] | Figures 6 & 7 | `fig06_jain_index`, `fig07_tcp_throughput` |
//! | [`sparse`]   | Figure 8 | `fig08_sparse_station` |
//! | [`thirty`]   | Figures 9 & 10 + §4.1.5 observations | `fig09_30sta_airtime`, `fig10_30sta_latency` |
//! | [`voip`]     | Table 2 | `table2_voip_mos` |
//! | [`web`]      | Figure 11 (+ appendix variant) | `fig11_web_plt` |
//!
//! [`ablations`] holds the design-choice ablations (RX charging,
//! per-station CoDel parameters, the overlimit drop policy, and the
//! airtime quantum), reported by `ablation_design_choices`.
//!
//! [`flood`] is the transport-free load the multi-network extension
//! experiments (`ext_scale`, `ext_roam`) run on each network.
//!
//! [`dispatch`] is the row type of `wifiq`'s experiment table and the
//! in-process `wifiq all` driver over it.
//!
//! Repetition counts, durations and every other setting are fields of
//! [`runner::RunCfg`], which `wifiq` fills from the environment once.

pub mod ablations;
pub mod dispatch;
pub mod ext;
pub mod figs;
pub mod flood;
pub mod latency;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod scenario_file;
pub mod sparse;
pub mod table1;
pub mod tcp_fair;
pub mod thirty;
pub mod udp_sat;
pub mod voip;
pub mod web;

pub use runner::RunCfg;
