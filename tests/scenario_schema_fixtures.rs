//! The scenario schema, pinned by example.
//!
//! `tests/fixtures/scenario_schema/` holds a set of scenario documents
//! named `ok_*.json` (must load and build) and `bad_*.json` (must be
//! rejected). They run through the one real loader — the same
//! `ScenarioFile::from_json` + `build` path as `wifiq --config` and the
//! searcher — so a fixture's name is a claim about every consumer.

use wifiq_experiments::scenario_file::ScenarioFile;

fn fixture_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/scenario_schema")
}

/// Full load path: parse, then build. A document is "accepted" only if
/// both succeed, mirroring what every consumer of scenario files does.
fn load(text: &str) -> Result<(), String> {
    let sc = ScenarioFile::from_json(text)?;
    sc.build().map(|_| ())
}

#[test]
fn fixtures_split_cleanly_into_accepted_and_rejected() {
    let mut ok = 0usize;
    let mut bad = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(fixture_dir())
        .expect("fixture dir")
        .map(|e| e.expect("fixture entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .expect("fixture file name")
            .to_string_lossy()
            .into_owned();
        if !name.ends_with(".json") {
            panic!("stray non-JSON file in fixture dir: {name}");
        }
        let text = std::fs::read_to_string(&path).expect("fixture read");
        let result = load(&text);
        if name.starts_with("ok_") {
            ok += 1;
            assert!(
                result.is_ok(),
                "{name} should load but was rejected: {}",
                result.unwrap_err()
            );
        } else if name.starts_with("bad_") {
            bad += 1;
            assert!(result.is_err(), "{name} should be rejected but loaded");
        } else {
            panic!("fixture files must be named ok_* or bad_*: {name}");
        }
    }
    assert!(
        ok >= 4 && bad >= 6,
        "fixture set too thin: {ok} ok / {bad} bad"
    );
}
