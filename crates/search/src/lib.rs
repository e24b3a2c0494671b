//! Coverage-guided fairness fuzzing over the scenario space.
//!
//! The paper's claims — airtime fairness within 5% of the analytical
//! model, sub-25 ms p99 latency under load — are demonstrated on
//! hand-written scenarios. This crate searches for the configurations the
//! hand-written set *misses*: it mutates scenario documents (fault
//! windows, churn rates, rate mixes, policy trees), executes them through
//! the shared harness pool, scores each run against
//! fairness/latency/stability objectives, and keeps a coverage map
//! of bucketed objective signatures to decide which corpus entries breed.
//! Violations are shrunk to minimal deterministic counterexamples and
//! committed under `scenarios/found/` with a provenance block, where CI
//! replays them as regression gates.
//!
//! Everything is driven from a single master seed on the coordinator
//! thread: the same seed produces byte-identical corpora and
//! counterexamples regardless of worker count.

pub mod corpus;
pub mod experiment;
pub mod mutate;
pub mod objective;
pub mod search;
pub mod shrink;

pub use corpus::Corpus;
pub use objective::{evaluate, ObjectiveKind, Objectives};
pub use search::{run_search, Finding, SearchCfg, SearchReport};
pub use shrink::shrink;
