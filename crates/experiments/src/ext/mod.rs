//! Extension experiments beyond the paper's evaluation: one module per
//! `wifiq` subcommand of the same name. A violated gate is an `Err`
//! carrying the report so far and what failed.

pub mod ext_80211ac;
pub mod ext_aql;
pub mod ext_chaos;
pub mod ext_client_fq;
pub mod ext_lossy_channel;
pub mod ext_policy;
pub mod ext_rate_control;
pub mod ext_roam;
pub mod ext_scale;
