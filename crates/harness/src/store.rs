//! Persistence: the content-addressed result cache.
//!
//! `<results dir>/cache/<sha256>.json` — one file per completed cell,
//! holding the full canonical key (collision/config guard) and the cell's
//! encoded output. The file is the one record that a cell is done: it is
//! written to a writer-unique temp name and atomically renamed, so after a
//! crash it is either whole or absent, and a file that is torn, holds
//! another key or does not decode is a miss. Deleting cache files
//! therefore replays exactly those cells.

use std::fs::File;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("wifiq_store_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
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
}
