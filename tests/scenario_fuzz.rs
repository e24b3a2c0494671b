//! The scenario loader's no-panic boundary, fuzzed.
//!
//! `ScenarioFile::from_json` followed by `build` is what `wifiq run
//! --config` runs on a document nobody vetted. Whatever
//! the bytes, the pair must return `Ok` or a typed `Err` — never panic.
//! Two generators: arbitrary bytes, and every `ok_*.json` schema fixture
//! with one value (any node, containers included) swapped for a hostile
//! one. The second is also swept exhaustively, since the space is small.
//! A panic found here becomes a named error and a `bad_*` fixture.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use serde_json::Json;
use wifiq_experiments::scenario_file::ScenarioFile;

/// Values that have broken loaders before: zero, negative, huge, past
/// `u64`, and the wrong JSON kind in every shape.
const HOSTILE: [&str; 7] = [
    "0",
    "-1",
    "1e308",
    "18446744073709551616",
    "\"hostile\"",
    "[]",
    "{}",
];

/// Stands in for the swapped node until the document is rendered.
const MARK: &str = "__scenario_fuzz_hostile__";

fn fixtures() -> Vec<(String, Json)> {
    let dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/scenario_schema");
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .expect("fixture dir")
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("ok_"))
        })
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("fixture read");
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (
                name,
                serde_json::from_str(&text).expect("ok fixture parses"),
            )
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(out.len() >= 4, "too few ok fixtures to fuzz from");
    out
}

/// Every node below the root, in document order: the count of nodes
/// visited before it is its index.
fn node_count(v: &Json) -> usize {
    match v {
        Json::Arr(items) => items.iter().map(|i| 1 + node_count(i)).sum(),
        Json::Obj(fields) => fields.iter().map(|(_, f)| 1 + node_count(f)).sum(),
        _ => 0,
    }
}

/// Replaces node `*k` (counting down in document order) with the mark.
fn swap(v: &mut Json, k: &mut usize) -> bool {
    let children: Vec<&mut Json> = match v {
        Json::Arr(items) => items.iter_mut().collect(),
        Json::Obj(fields) => fields.iter_mut().map(|(_, f)| f).collect(),
        _ => return false,
    };
    for child in children {
        if *k == 0 {
            *child = Json::Str(MARK.into());
            return true;
        }
        *k -= 1;
        if swap(child, k) {
            return true;
        }
    }
    false
}

/// Fixture `doc` with node `node` replaced by `hostile`, as text.
fn hostile_document(doc: &Json, node: usize, hostile: &str) -> String {
    let mut doc = doc.clone();
    let mut k = node;
    assert!(swap(&mut doc, &mut k), "node {node} out of range");
    doc.compact().replace(&format!("\"{MARK}\""), hostile)
}

/// The load path every consumer runs. `Err` is the named error; only a
/// panic fails.
fn load(text: &str) -> Result<Result<(), String>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        ScenarioFile::from_json(text)?.build().map(|_| ())
    }))
    .map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

#[test]
fn every_fixture_with_any_one_value_hostile_loads_or_names_its_error() {
    let mut panics = Vec::new();
    let mut cases = 0;
    for (name, doc) in fixtures() {
        for node in 0..node_count(&doc) {
            for hostile in HOSTILE {
                let text = hostile_document(&doc, node, hostile);
                cases += 1;
                if let Err(msg) = load(&text) {
                    panics.push(format!("{name} node {node} = {hostile}: {msg}\n  {text}"));
                }
            }
        }
    }
    assert!(cases > 500, "only {cases} hostile documents");
    assert!(
        panics.is_empty(),
        "{} panics:\n{}",
        panics.len(),
        panics.join("\n")
    );
}

/// What no short byte string reaches: nesting deep enough to exhaust the
/// parser's stack. It was an abort (`wifiq run --config` on 200,000 `[`
/// died with "stack overflow"); it is `bad_nesting_depth.json` now.
#[test]
fn nesting_past_the_stack_is_an_error_not_an_abort() {
    for open in ["[", "{\"a\":"] {
        let text = open.repeat(200_000);
        let err = load(&text).expect("no panic").expect_err("rejected");
        assert!(err.contains("nesting deeper than"), "{err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Arbitrary bytes, lossily decoded to the `&str` the loader takes
    /// (`wifiq run --config` refuses invalid UTF-8 before it), biased
    /// toward the JSON punctuation that gets past the first byte.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(
        prop_oneof![0u8..=255, proptest::sample::select(b"{}[]\":,0123456789-e.".to_vec())],
        0..200,
    )) {
        let text = String::from_utf8_lossy(&bytes);
        prop_assert!(load(&text).is_ok(), "panic on {text:?}");
    }

    /// One fixture, one node, one hostile value — drawn; the exhaustive
    /// sweep above covers the same space, this keeps the proptest form
    /// the rest of the repo's fuzzing uses.
    #[test]
    fn a_drawn_hostile_value_never_panics(
        fixture in 0usize..64,
        node in 0usize..4096,
        hostile in proptest::sample::select(HOSTILE.to_vec()),
    ) {
        let docs = fixtures();
        let (name, doc) = &docs[fixture % docs.len()];
        let text = hostile_document(doc, node % node_count(doc), hostile);
        prop_assert!(load(&text).is_ok(), "panic on {name}: {text}");
    }
}
