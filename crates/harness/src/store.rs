//! Persistence: the content-addressed result cache and the run journal.
//!
//! Both live under the workspace `results/` directory (overridable with
//! `WIFIQ_RESULTS_DIR`):
//!
//! - `results/cache/<sha256>.json` — one file per completed cell, holding
//!   the full canonical key (collision/config guard) and the cell's
//!   encoded output.
//! - `results/harness.manifest.jsonl` — an append-only journal with one
//!   line per cell completion (fresh, cached, or failed). It is the
//!   authority on what is done: a cell is only served from cache when the
//!   journal records a prior `ok` *and* the cache file decodes. Truncating
//!   the journal therefore replays exactly the missing cells.
//!
//! Writes are crash- and concurrency-safe: cache files are written to a
//! writer-unique temp name and atomically renamed, journal lines are
//! appended with a single `O_APPEND` write so lines from parallel workers
//! (or parallel experiments sharing one journal) never interleave,
//! and a torn final line from a killed run is skipped on load.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::Json;

/// `<workspace root>/<name>`, the root found by walking up from the
/// current directory to the first one holding `Cargo.toml` and `crates/`;
/// plain `<name>` when there is no such directory.
pub fn workspace_dir(name: &str) -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir.join(name);
        }
        if !dir.pop() {
            return PathBuf::from(name);
        }
    }
}

/// The directory results, cache, and journal live under: `results/` at the
/// workspace root, overridable with `WIFIQ_RESULTS_DIR`.
pub fn results_dir() -> PathBuf {
    match std::env::var("WIFIQ_RESULTS_DIR") {
        Ok(d) => PathBuf::from(d),
        Err(_) => workspace_dir("results"),
    }
}

/// Reads a cached cell output, verifying the stored canonical key matches
/// `key_json` (guards against hash collisions and key-scheme changes).
/// `None` on any miss, mismatch, or parse failure — a bad cache entry is
/// treated as absent, never fatal.
pub fn cache_load(dir: &Path, key_hash: &str, key_json: &Json) -> Option<Json> {
    let text = std::fs::read_to_string(dir.join(format!("{key_hash}.json"))).ok()?;
    let doc = serde_json::from_str(&text).ok()?;
    if doc.get("key") != Some(key_json) {
        return None;
    }
    doc.get("output").cloned()
}

/// Writes a cell output to the cache via temp-file + atomic rename.
pub fn cache_store(
    dir: &Path,
    key_hash: &str,
    key_json: &Json,
    output: &Json,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let doc = Json::Obj(vec![
        ("key".into(), key_json.clone()),
        ("output".into(), output.clone()),
    ]);
    // Unique per writer, not just per process: `wifiq all` runs experiments
    // on threads, and two of them may finish the same shared cell at once.
    static WRITER: AtomicU64 = AtomicU64::new(0);
    let tmp = dir.join(format!(
        ".tmp-{}-{}-{key_hash}",
        std::process::id(),
        WRITER.fetch_add(1, Ordering::Relaxed)
    ));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(doc.pretty().as_bytes())?;
        f.write_all(b"\n")?;
    }
    std::fs::rename(&tmp, dir.join(format!("{key_hash}.json")))
}

/// One journal record.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Content-addressed cell key (hex).
    pub key: String,
    /// Experiment name.
    pub experiment: String,
    /// Cell label.
    pub cell: String,
    /// Config discriminator.
    pub config: String,
    /// Repetition seed.
    pub seed: u64,
    /// `true` when the cell completed (fresh or cached), `false` on
    /// permanent failure.
    pub ok: bool,
    /// Whether this completion was served from cache.
    pub cached: bool,
    /// Wall-clock time spent executing (0 for cache hits).
    pub wall_ms: u64,
    /// Retries consumed (0 or 1).
    pub retries: u32,
    /// Failure description, when `!ok`.
    pub error: Option<String>,
}

impl JournalEntry {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("key".into(), Json::Str(self.key.clone())),
            ("experiment".into(), Json::Str(self.experiment.clone())),
            ("cell".into(), Json::Str(self.cell.clone())),
            ("config".into(), Json::Str(self.config.clone())),
            ("seed".into(), Json::U64(self.seed)),
            (
                "status".into(),
                Json::Str(if self.ok { "ok" } else { "failed" }.into()),
            ),
            ("cached".into(), Json::Bool(self.cached)),
            ("wall_ms".into(), Json::U64(self.wall_ms)),
            ("retries".into(), Json::U64(u64::from(self.retries))),
        ];
        if let Some(e) = &self.error {
            fields.push(("error".into(), Json::Str(e.clone())));
        }
        Json::Obj(fields)
    }
}

/// The run journal: completed-key set loaded at startup plus an
/// append-only writer.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    completed: HashSet<String>,
}

impl Journal {
    /// Loads the journal at `path`, tolerating a missing file and torn or
    /// malformed lines (a crash mid-append loses at most that one line).
    pub fn load(path: PathBuf) -> Journal {
        let mut completed = HashSet::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            for line in text.lines() {
                let Ok(doc) = serde_json::from_str(line) else {
                    continue;
                };
                let (Some(Json::Str(key)), Some(Json::Str(status))) =
                    (doc.get("key"), doc.get("status"))
                else {
                    continue;
                };
                if status == "ok" {
                    completed.insert(key.clone());
                }
            }
        }
        Journal { path, completed }
    }

    /// Whether a prior run completed the cell with this key.
    pub fn is_completed(&self, key: &str) -> bool {
        self.completed.contains(key)
    }

    /// Appends one record and flushes it with a single write, so the line
    /// is either fully present or fully absent after a crash, and parallel
    /// appenders (threads or processes, via `O_APPEND`) never interleave.
    pub fn append(&mut self, entry: &JournalEntry) {
        if entry.ok {
            self.completed.insert(entry.key.clone());
        }
        let line = format!("{}\n", entry.to_json().compact());
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
        {
            Ok(mut f) => {
                if let Err(e) = f.write_all(line.as_bytes()) {
                    eprintln!("warning: journal append failed: {e}");
                }
            }
            Err(e) => eprintln!("warning: cannot open journal {}: {e}", self.path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("wifiq_store_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn entry(key: &str, ok: bool) -> JournalEntry {
        JournalEntry {
            key: key.into(),
            experiment: "e".into(),
            cell: "c".into(),
            config: String::new(),
            seed: 1,
            ok,
            cached: false,
            wall_ms: 3,
            retries: 0,
            error: (!ok).then(|| "boom".into()),
        }
    }

    #[test]
    fn cache_round_trips_and_guards_key() {
        let dir = tmp("cache");
        let key = Json::Obj(vec![("seed".into(), Json::U64(1))]);
        let out = Json::Arr(vec![Json::F64(1.5)]);
        cache_store(&dir, "abc", &key, &out).unwrap();
        assert_eq!(cache_load(&dir, "abc", &key), Some(out));
        // Same hash file, different expected key → treated as a miss.
        let other = Json::Obj(vec![("seed".into(), Json::U64(2))]);
        assert_eq!(cache_load(&dir, "abc", &other), None);
        assert_eq!(cache_load(&dir, "missing", &key), None);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn journal_append_load_and_torn_line() {
        let dir = tmp("journal");
        let path = dir.join("m.jsonl");
        let mut j = Journal::load(path.clone());
        j.append(&entry("k1", true));
        j.append(&entry("k2", false));
        j.append(&entry("k3", true));
        // Simulate a crash mid-append of a fourth line.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"key\":\"k4\",\"sta").unwrap();
        drop(f);

        let j2 = Journal::load(path);
        assert!(j2.is_completed("k1"));
        assert!(!j2.is_completed("k2"), "failed cells must replay");
        assert!(j2.is_completed("k3"));
        assert!(!j2.is_completed("k4"), "torn line must be ignored");
        let _ = std::fs::remove_dir_all(dir);
    }
}
