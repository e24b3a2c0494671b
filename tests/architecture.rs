//! The workspace's architecture rules, checked over its source text.
//!
//! Each rule is a function over the `(path, text)` pairs of the `.rs`
//! files under `crates`, `src` and `tests`. Its test checks it on this
//! tree, then plants one violation that it must catch. The needles of
//! the rules that read `tests` are built with `concat!`, so this file
//! keeps the rules it states.

use std::path::Path;

type Files = [(String, String)];
type Verdict = Result<(), String>;

const SET_VAR: &str = concat!("env::", "set_var");
const CATCH_UP: &str = concat!(".catch_", "up(");
const STEP: &str = concat!(".st", "ep(");
const THREADS: [&str; 3] = ["thread::scope", "thread::spawn", "mpsc::"];
const ROSTER: &str = "crates/scale/src/roster.rs";

/// Every `.rs` file under `crates`, `src` and `tests`, by path.
fn workspace() -> Vec<(String, String)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).expect("read a source directory") {
            let path = entry.expect("read a directory entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("read a source file");
                let rel = path.strip_prefix(root).expect("under the root");
                out.push((rel.to_string_lossy().replace('\\', "/"), text));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        walk(root, &root.join(dir), &mut files);
    }
    files.sort();
    files
}

fn check(ok: bool, why: String) -> Verdict {
    ok.then_some(()).ok_or(why)
}

/// The lines under any of `roots` that `hit`, with their paths.
fn lines<'a>(files: &'a Files, roots: &[&str], hit: fn(&str) -> bool) -> Vec<(&'a str, &'a str)> {
    let under = files
        .iter()
        .filter(|(p, _)| roots.iter().any(|r| p.starts_with(r)));
    let lines = under.flat_map(|(p, t)| t.lines().map(move |l| (p.as_str(), l)));
    lines.filter(|(_, l)| hit(l)).collect()
}

/// The files under `roots` with a line that `hits` are exactly `allowed`.
fn only(files: &Files, roots: &[&str], hits: fn(&str) -> bool, allowed: &[&str]) -> Verdict {
    let mut found: Vec<&str> = lines(files, roots, hits).iter().map(|(p, _)| *p).collect();
    found.dedup();
    check(found == allowed, format!("in {found:?}"))
}

/// The lines of `path` from the first that starts with `head` up to the
/// next `    }`: a method's head and body at impl indentation.
fn body<'a>(files: &'a Files, path: &str, head: &str) -> Vec<&'a str> {
    let text = files.iter().find(|(p, _)| p == path).map_or("", |(_, t)| t);
    let from_head = text.lines().skip_while(|l| !l.starts_with(head));
    from_head.take_while(|l| *l != "    }").collect()
}

/// Lines before the first test module of each library source file (a
/// `#[cfg(test)]` whose next line opens a `mod`): `src` and
/// `crates/*/src`, save the `tests.rs` modules. A test-only item above
/// that point counts as code, so the count errs high, never low.
fn non_test_lines(files: &Files) -> impl Iterator<Item = (&str, usize)> {
    let library = |p: &str| {
        let crate_src = p.starts_with("crates/") && p.split('/').nth(2) == Some("src");
        (crate_src || p.starts_with("src/")) && !p.ends_with("/tests.rs")
    };
    let test_mod = |w: &[&str]| w[0].starts_with("#[cfg(test)]") && w[1].starts_with("mod ");
    let library = files.iter().filter(move |(p, _)| library(p));
    library.map(move |(p, t)| {
        let lines: Vec<&str> = t.lines().collect();
        let code = lines.windows(2).position(test_mod);
        (p.as_str(), code.unwrap_or(lines.len()))
    })
}

/// Every non-test source file stays under 800 lines, counted up to its
/// test module, so a split seam cannot silently re-fuse. No exceptions:
/// core/fq and mac/scheme were split at their seams when packets became
/// tickets.
fn file_size(files: &Files) -> Verdict {
    let over: Vec<_> = non_test_lines(files).filter(|&(_, n)| n > 800).collect();
    check(over.is_empty(), format!("over 800 lines: {over:?}"))
}

/// Configuration is a value: `wifiq` reads the environment once, in
/// `RunCfg::from_env`, and everything else takes the `RunCfg`. A new knob
/// is a field there or it does not exist, and a test that wants another
/// configuration builds one rather than mutating the process environment.
fn ambient_configuration(files: &Files) -> Verdict {
    let mutates = |l: &str| l.contains(SET_VAR) || l.contains(concat!("env::", "remove_var"));
    only(files, &["crates/", "src/", "tests/"], mutates, &[])?;
    let reads = lines(files, &["crates/", "src/"], |l| l.contains("env::var"));
    let runner = "crates/experiments/src/runner.rs";
    let from_env = body(files, runner, "    pub fn from_env(");
    let why = format!("{reads:?} outside RunCfg::from_env");
    check(reads.len() == 1 && from_env.contains(&reads[0].1), why)
}

/// One thread per simulated world: a network, a set of networks coupled
/// by roaming and a set of independent shards are all stepped on their
/// caller's thread. Threads belong to the harness's pool alone; a
/// simulation that grows a pool of its own has to change this list to do
/// it.
fn threads(files: &Files) -> Verdict {
    let spawns = |l: &str| THREADS.iter().any(|n| l.contains(n));
    let pool = ["crates/harness/src/lib.rs", "crates/harness/src/pool.rs"];
    only(files, &["crates/", "src/"], spawns, &pool)
}

/// Experiments are scenario documents: every cell that drives a
/// `TrafficApp` is a `ScenarioFile` built by `build_with`. fig11's page
/// load is the one exception — it starts at 3 s and a document's traffic
/// has no start time (DESIGN.md §9).
fn hand_built_networks(files: &Files) -> Verdict {
    let builds = |l: &str| l.contains("TrafficApp::new(") || l.contains("TrafficApp::with_seed(");
    let documents = "crates/experiments/src/scenario_file/build.rs";
    let allowed = [documents, "crates/experiments/src/web.rs"];
    let roots = ["crates/experiments/src/", "src/"];
    only(files, &roots, builds, &allowed)
}

/// A `.backoff_<name>(` call on the line.
fn draws_backoff(line: &str) -> bool {
    line.match_indices(".backoff_").any(|(i, m)| {
        let rest = &line[i + m.len()..];
        let name = rest.bytes().take_while(u8::is_ascii_lowercase).count();
        name > 0 && rest[name..].starts_with('(')
    })
}

/// One backoff rule: every contention backoff — the AP's, each station
/// class's minimum and its tie count — is drawn in `ContenderSet::wait`
/// (DESIGN.md §14), the one function a frozen-counter or ECA/EIED rule
/// replaces. Every `.backoff_*(` call under `crates/mac/src` is inside its
/// body, and it has one.
fn backoff(files: &Files) -> Verdict {
    let draws = lines(files, &["crates/mac/src/"], draws_backoff);
    let wait = body(files, "crates/mac/src/contention.rs", "    fn wait(");
    let inside = wait.iter().filter(|l| draws_backoff(l)).count();
    check(inside >= 1 && draws.len() == inside, format!("{draws:?}"))
}

/// One roster pump: churn and roaming meet in `Roster::step` (DESIGN.md
/// §12), the one place their same-instant order is written — hand-offs
/// first, so a rejoin takes the slot its departure freed before a churn
/// join can. No other file applies both schedules (`SoloRoam::catch_up`
/// and `ChurnDriver::step`).
fn roster(files: &Files) -> Verdict {
    let applies_both = |t: &str| t.contains(CATCH_UP) && t.contains(STEP);
    let both = files.iter().filter(|(_, t)| applies_both(t));
    let both: Vec<&str> = both.map(|(p, _)| p.as_str()).collect();
    let mut calls = Vec::new();
    for line in body(files, ROSTER, "    pub fn step(") {
        let mut at: Vec<_> = line.match_indices(CATCH_UP).collect();
        at.extend(line.match_indices(STEP));
        at.sort();
        calls.extend(at.into_iter().map(|(_, call)| call));
    }
    let why = format!("both in {both:?}; Roster::step calls {calls:?}");
    check(both == [ROSTER] && calls == [CATCH_UP, STEP], why)
}

/// `rule` holds on this tree and breaks once `text` is planted at `path`.
fn holds_and_catches(rule: fn(&Files) -> Verdict, path: &str, text: &str) {
    let mut files = workspace();
    rule(&files).unwrap();
    files.push((path.to_string(), text.to_string()));
    assert!(rule(&files).is_err(), "{path} broke the rule unseen");
}

/// One test per rule, named after it, with the violation it must catch.
macro_rules! rule_tests {
    ($($rule:ident: $path:literal => $plant:expr;)*) => {$(
        #[test]
        fn $rule() {
            holds_and_catches(super::$rule, $path, &$plant);
        }
    )*};
}

mod rule {
    use super::*;

    rule_tests! {
        file_size: "crates/mac/src/planted.rs" => format!("#[cfg(test)]\nstruct T;\n{}", "//\n".repeat(801));
        ambient_configuration: "tests/planted.rs" => format!("fn f() {{ std::{SET_VAR}(\"A\", \"1\") }}");
        threads: "crates/mac/src/planted.rs" => "fn f() { std::thread::spawn(|| ()); }";
        hand_built_networks: "src/planted.rs" => "fn f() { TrafficApp::new(); }";
        backoff: "crates/mac/src/planted.rs" => "fn f() { rng.backoff_min(15, 1, None); }";
        roster: "tests/planted.rs" => format!("fn f() {{ roam{CATCH_UP}); churn{STEP}); }}");
    }

    /// `cargo test --test architecture -- --nocapture` prints the count.
    #[test]
    fn non_test_line_total() {
        let total: usize = non_test_lines(&workspace()).map(|(_, n)| n).sum();
        println!("non-test lines: {total}");
    }
}
