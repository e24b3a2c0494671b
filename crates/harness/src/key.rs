//! Stable cell identity: the content-addressed cache key.
//!
//! A **cell** is the unit of orchestration — one (experiment × cell-label
//! × repetition-seed) simulation. Its cache key is the SHA-256 of a
//! canonical compact-JSON rendering of every input that determines the
//! cell's output: the experiment and cell labels, the free-form config
//! string, the seed, the simulated duration and warm-up, and a build
//! fingerprint of the running binary (`git describe` plus the executable's
//! size/mtime stamp). Any field changing yields a different key, so stale
//! results can never be served; identical configuration re-hashes to the
//! same key, so unchanged cells are skipped on re-run.

use std::sync::OnceLock;

use serde::Json;

use crate::sha256::sha256_hex;

/// Sweep-level identity shared by a batch of cells.
#[derive(Debug, Clone)]
pub struct SweepMeta {
    /// Experiment name (e.g. `"udp_sat"`, `"all"`).
    pub experiment: String,
    /// Simulated duration of one repetition, nanoseconds.
    pub duration_ns: u64,
    /// Warm-up discarded from the measurement window, nanoseconds.
    pub warmup_ns: u64,
    /// Extra key material folded into every cell key (e.g. whether
    /// metrics export is on, which changes what a cell does on disk).
    pub salt: String,
}

impl SweepMeta {
    /// A sweep with empty salt.
    pub fn new(experiment: impl Into<String>, duration_ns: u64, warmup_ns: u64) -> SweepMeta {
        SweepMeta {
            experiment: experiment.into(),
            duration_ns,
            warmup_ns,
            salt: String::new(),
        }
    }

    /// Folds extra key material into every cell key of this sweep.
    pub fn with_salt(mut self, salt: impl Into<String>) -> SweepMeta {
        self.salt = salt.into();
        self
    }
}

/// One schedulable cell of a sweep.
#[derive(Debug, Clone)]
pub struct CellDef {
    /// Cell label within the experiment (e.g. a scheme slug, or an
    /// experiment name under `wifiq all`).
    pub cell: String,
    /// Free-form configuration discriminator (variant flags, QoS marking…).
    pub config: String,
    /// Repetition seed.
    pub seed: u64,
}

impl CellDef {
    /// Creates a cell definition.
    pub fn new(cell: impl Into<String>, config: impl Into<String>, seed: u64) -> CellDef {
        CellDef {
            cell: cell.into(),
            config: config.into(),
            seed,
        }
    }

    /// `experiment/cell/config/seed` — the human-readable identity used in
    /// logs and fault-injection matching.
    pub fn path(&self, experiment: &str) -> String {
        format!("{experiment}/{}/{}/{}", self.cell, self.config, self.seed)
    }
}

/// The canonical key document for one cell (fixed field order).
pub fn cell_key_json(sweep: &SweepMeta, cell: &CellDef, fingerprint: &str) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str(sweep.experiment.clone())),
        ("cell".into(), Json::Str(cell.cell.clone())),
        ("config".into(), Json::Str(cell.config.clone())),
        ("seed".into(), Json::U64(cell.seed)),
        ("duration_ns".into(), Json::U64(sweep.duration_ns)),
        ("warmup_ns".into(), Json::U64(sweep.warmup_ns)),
        ("salt".into(), Json::Str(sweep.salt.clone())),
        ("fingerprint".into(), Json::Str(fingerprint.to_string())),
    ])
}

/// Content-addressed cache key: SHA-256 hex of the canonical key JSON.
pub fn cell_key_hash(sweep: &SweepMeta, cell: &CellDef, fingerprint: &str) -> String {
    sha256_hex(cell_key_json(sweep, cell, fingerprint).compact().as_bytes())
}

/// Build fingerprint of the running binary, cached for the process
/// lifetime.
///
/// It combines `git describe --always --dirty` of the working tree with
/// the executable's size and mtime, so a rebuild with changed code
/// invalidates previous results while a plain re-run does not
/// ([`Harness::with_fingerprint`](crate::Harness::with_fingerprint)
/// overrides it, for tests).
pub fn binary_fingerprint() -> &'static str {
    static FP: OnceLock<String> = OnceLock::new();
    FP.get_or_init(|| {
        let git = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "nogit".to_string());
        let exe = std::env::current_exe()
            .and_then(std::fs::metadata)
            .map(|m| {
                let mtime = m
                    .modified()
                    .ok()
                    .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                    .map(|d| d.as_secs())
                    .unwrap_or(0);
                format!("{}-{}", m.len(), mtime)
            })
            .unwrap_or_else(|_| "noexe".to_string());
        format!("{git}+{exe}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> SweepMeta {
        SweepMeta::new("udp_sat", 30_000_000_000, 5_000_000_000).with_salt("metrics=0")
    }

    #[test]
    fn same_config_same_key() {
        let c = CellDef::new("airtime", "", 7);
        assert_eq!(
            cell_key_hash(&sweep(), &c, "v1"),
            cell_key_hash(&sweep(), &c, "v1")
        );
    }

    #[test]
    fn any_field_change_changes_key() {
        let base = cell_key_hash(&sweep(), &CellDef::new("airtime", "", 7), "v1");
        let variants = [
            cell_key_hash(&sweep(), &CellDef::new("fifo", "", 7), "v1"),
            cell_key_hash(&sweep(), &CellDef::new("airtime", "bidir", 7), "v1"),
            cell_key_hash(&sweep(), &CellDef::new("airtime", "", 8), "v1"),
            cell_key_hash(&sweep(), &CellDef::new("airtime", "", 7), "v2"),
            cell_key_hash(
                &SweepMeta::new("udp_sat", 10_000_000_000, 5_000_000_000).with_salt("metrics=0"),
                &CellDef::new("airtime", "", 7),
                "v1",
            ),
            cell_key_hash(
                &SweepMeta::new("udp_sat", 30_000_000_000, 2_000_000_000).with_salt("metrics=0"),
                &CellDef::new("airtime", "", 7),
                "v1",
            ),
            cell_key_hash(
                &SweepMeta::new("latency", 30_000_000_000, 5_000_000_000).with_salt("metrics=0"),
                &CellDef::new("airtime", "", 7),
                "v1",
            ),
            cell_key_hash(
                &sweep().with_salt("metrics=1"),
                &CellDef::new("airtime", "", 7),
                "v1",
            ),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(&base, v, "variant {i} collided with base");
        }
        // And the variants are pairwise distinct too.
        for i in 0..variants.len() {
            for j in i + 1..variants.len() {
                assert_ne!(variants[i], variants[j], "variants {i} and {j} collided");
            }
        }
    }

    #[test]
    fn key_fields_are_not_confusable() {
        // Field contents must not be able to shift between fields ("ab","c"
        // vs "a","bc") — canonical JSON quoting guarantees it.
        let a = cell_key_hash(&sweep(), &CellDef::new("ab", "c", 1), "v");
        let b = cell_key_hash(&sweep(), &CellDef::new("a", "bc", 1), "v");
        assert_ne!(a, b);
    }

    #[test]
    fn fingerprint_is_stable_within_process() {
        assert_eq!(binary_fingerprint(), binary_fingerprint());
        assert!(!binary_fingerprint().is_empty());
    }
}
