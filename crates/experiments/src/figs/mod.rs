//! The paper's tables and figures (Section 4) and the design-choice
//! ablations: one module per `wifiq` subcommand of the same name, each a
//! `run` that returns the report it used to print and writes its JSON
//! artifact under `results/`.

pub mod ablation_design_choices;
pub mod fig04_latency_tcp;
pub mod fig05_airtime_udp;
pub mod fig06_jain_index;
pub mod fig07_tcp_throughput;
pub mod fig08_sparse_station;
pub mod fig09_30sta_airtime;
pub mod fig10_30sta_latency;
pub mod fig11_web_plt;
pub mod table1_model_validation;
pub mod table2_voip_mos;
