//! The workspace's architecture rules, checked over its source text.
//!
//! Each rule is a function over the `(path, text)` pairs of the `.rs`
//! files under `crates`, `src` and `tests` and of the top-level docs. Its
//! test checks it on this tree, then plants one violation that it must
//! catch. The needles of the rules that read `tests` are built with
//! `concat!`, so this file keeps the rules it states.

use std::collections::HashSet;
use std::path::Path;

type Files = [(String, String)];
type Verdict = Result<(), String>;

const SET_VAR: &str = concat!("env::", "set_var");
const CATCH_UP: &str = concat!(".catch_", "up(");
const STEP: &str = concat!(".st", "ep(");
const THREADS: [&str; 3] = ["thread::scope", "thread::spawn", "mpsc::"];
const ROSTER: &str = "crates/scale/src/roster.rs";
const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];
const TCP_ENDPOINT: [&str; 7] = [
    "TcpSender::bulk(",
    "TcpSender::finite(",
    "TcpReceiver::new(",
    ".on_rto(",
    ".on_ack(",
    ".on_data(",
    ".on_delack_timer(",
];
const ROTATION_MOVES: [&str; 3] = [
    concat!("enlist", "_old("),
    concat!("rotate_front", "_old("),
    concat!("retire_front", "_old("),
];

/// Every `.rs` file under `crates`, `src` and `tests`, and the [`DOCS`],
/// by path.
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
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("read a doc");
        files.push((doc.to_string(), text));
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

/// The files a `#[cfg(test)]`-gated `mod name;` declares: `name.rs` next
/// to a `lib.rs`, `main.rs` or `mod.rs`, else in the directory named
/// after the declaring file (`network.rs` → `network/name.rs`).
fn test_only_files(files: &Files) -> HashSet<String> {
    let mut out = HashSet::new();
    for (p, t) in files.iter().filter(|(p, _)| p.ends_with(".rs")) {
        let lines: Vec<&str> = t.lines().collect();
        for w in lines.windows(2) {
            let declared = w[1].strip_prefix("mod ").and_then(|m| m.strip_suffix(';'));
            let (Some(name), "#[cfg(test)]") = (declared, w[0]) else {
                continue;
            };
            let (dir, stem) = p
                .trim_end_matches(".rs")
                .rsplit_once('/')
                .expect("in a directory");
            let dir = match stem {
                "lib" | "main" | "mod" => dir.to_string(),
                _ => format!("{dir}/{stem}"),
            };
            out.insert(format!("{dir}/{name}.rs"));
        }
    }
    out
}

/// The library source files: those under `src` or `crates/*/src`, save
/// the [`test_only_files`] (each `tests.rs`, and any other module that
/// only tests compile).
fn library(files: &Files) -> impl Iterator<Item = &(String, String)> {
    let test_only = test_only_files(files);
    files.iter().filter(move |(p, _)| {
        let crate_src = p.starts_with("crates/") && p.split('/').nth(2) == Some("src");
        (crate_src || p.starts_with("src/")) && !test_only.contains(p)
    })
}

/// Lines before the first test module of each [`library`] file (a
/// `#[cfg(test)]` whose next line opens a `mod`). A test-only item above
/// that point counts as code, so the count errs high, never low.
fn non_test_lines(files: &Files) -> impl Iterator<Item = (&str, usize)> {
    let test_mod = |w: &[&str]| w[0].starts_with("#[cfg(test)]") && w[1].starts_with("mod ");
    library(files).map(move |(p, t)| {
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
    let both = files
        .iter()
        .filter(|(p, t)| p.ends_with(".rs") && applies_both(t));
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

/// One rotation: the FIFO, FQ-CoDel and FQ-MAC schemes take round-robin
/// turns on the station table's old list (DESIGN.md §14), the list the
/// airtime scheduler rotates its deficits on. No scheme keeps a turn
/// order of its own, and only the table, the airtime scheduler and the
/// schemes' shared helpers move stations on and off that list.
fn rotation(files: &Files) -> Verdict {
    let turn_order = |l: &str| l.contains(concat!("VecDeque", "<usize>"));
    only(files, &["crates/mac/src/scheme/"], turn_order, &[])?;
    let moves = |l: &str| ROTATION_MOVES.iter().any(|m| l.contains(m));
    let allowed = [
        "crates/core/src/scheduler.rs",
        "crates/core/src/table.rs",
        "crates/mac/src/scheme/mod.rs",
    ];
    only(files, &["crates/", "src/", "tests/"], moves, &allowed)
}

/// One wheel: the event queue is the timing wheel alone, which admits
/// every `u64` time (DESIGN.md §13). No heap beside it in the simulator
/// crate; the heap-based reference queue the wheel is model-checked
/// against lives in `crates/sim/tests/`.
fn one_wheel(files: &Files) -> Verdict {
    only(
        files,
        &["crates/sim/src/"],
        |l| l.contains("BinaryHeap"),
        &[],
    )
}

/// One queue per stack: an unmodified stack — the AP's legacy qdisc or a
/// client's uplink — queues in `wifiq_qdisc::Qdisc`, FIFO bands or a
/// `MacFq` under CoDel. Outside tests a `MacFq` is built only there, in
/// `wifiq-core` where it is defined, and in the AP's FQ-MAC/Airtime path.
fn one_qdisc(files: &Files) -> Verdict {
    let builds = |l: &str| l.contains("MacFq::new(");
    let outside_core = library(files).filter(|(p, _)| !p.starts_with("crates/core/"));
    let outside_core: Vec<(String, String)> = outside_core.cloned().collect();
    let allowed = ["crates/mac/src/scheme/fq.rs", "crates/qdisc/src/lib.rs"];
    only(&outside_core, &["crates/", "src/"], builds, &allowed)
}

/// One TCP endpoint: outside `wifiq-transport`, where they are defined,
/// a TCP sender or receiver is built and driven only in the endpoint
/// module that bulk flows and web connections share.
fn one_tcp_endpoint(files: &Files) -> Verdict {
    let drives = |l: &str| TCP_ENDPOINT.iter().any(|n| l.contains(n));
    let outside = library(files).filter(|(p, _)| !p.starts_with("crates/transport/"));
    let outside: Vec<(String, String)> = outside.cloned().collect();
    let allowed = ["crates/traffic/src/endpoint.rs"];
    only(&outside, &["crates/", "src/"], drives, &allowed)
}

/// The docs say what is, not which plan asked for it: no "ROADMAP item
/// N" in the [`DOCS`]. Items are renumbered and pruned at every
/// re-anchor, so such a citation goes stale; ROADMAP.md and CHANGES.md
/// are where items are cited.
fn roadmap_citations(files: &Files) -> Verdict {
    let mut cites = Vec::new();
    for (path, text) in files.iter().filter(|(p, _)| DOCS.contains(&p.as_str())) {
        // One space per whitespace run, so a citation that wraps is seen.
        let flat = text.split_whitespace().collect::<Vec<_>>().join(" ");
        for (i, needle) in flat.match_indices("ROADMAP item ") {
            let item: String = flat[i + needle.len()..].chars().take(4).collect();
            if item.starts_with(|c: char| c.is_ascii_digit()) {
                cites.push(format!("{path}: ROADMAP item {item}"));
            }
        }
    }
    check(cites.is_empty(), format!("{cites:?}"))
}

/// The first segments of the Rust paths the docs cite that resolve
/// outside this tree.
const STD_ROOTS: [&str; 2] = ["std", "thread"];

/// The backticked spans of a Markdown text, fenced blocks aside, with
/// each whitespace run flattened to one space so a span that wraps reads
/// whole.
fn code_spans(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    let spans = prose.split('`').skip(1).step_by(2);
    spans
        .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

fn ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// A path segment: an identifier, a crate name (`wifiq-core`) or a file
/// path (`tests/determinism.rs`).
fn segment_char(c: char) -> bool {
    ident_char(c) || matches!(c, '-' | '/' | '.')
}

/// The `a::b::c` paths in a code span, each as its segments. A trailing
/// group `a::{b, c}` yields one path per member and a glob `a::*` ends
/// in `*`; a turbofish or a call ends the path.
fn rust_paths(span: &str) -> Vec<Vec<String>> {
    let chars: Vec<char> = span.chars().collect();
    let at = |i: usize| chars.get(i).copied().unwrap_or(' ');
    let read = |i: &mut usize| {
        let start = *i;
        while *i < chars.len() && segment_char(chars[*i]) {
            *i += 1;
        }
        chars[start..*i].iter().collect::<String>()
    };
    let mut paths = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if !segment_char(chars[i]) || (i > 0 && (segment_char(at(i - 1)) || at(i - 1) == ':')) {
            i += 1;
            continue;
        }
        let mut path = vec![read(&mut i)];
        while at(i) == ':' && at(i + 1) == ':' {
            i += 2;
            if at(i) == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .map_or(chars.len(), |n| i + n);
                let group: String = chars[i + 1..close].iter().collect();
                for member in group.split(',').map(str::trim).filter(|m| !m.is_empty()) {
                    paths.push([path.clone(), vec![member.to_string()]].concat());
                }
                path.clear();
                i = close;
                break;
            } else if at(i) == '*' {
                path.push("*".to_string());
                break;
            } else if segment_char(at(i)) {
                path.push(read(&mut i));
            } else {
                break;
            }
        }
        if path.len() > 1 {
            paths.push(path);
        }
    }
    paths
}

/// What one source file names: the items, fields and enum variants it
/// defines, and the scopes it is part of — its inline modules, its types
/// and traits, and every name on its `impl` lines.
struct Names<'a> {
    path: &'a str,
    scopes: HashSet<&'a str>,
    defined: HashSet<&'a str>,
}

impl<'a> Names<'a> {
    fn of(path: &'a str, text: &'a str) -> Names<'a> {
        const ITEMS: [&str; 9] = [
            "fn", "struct", "enum", "trait", "type", "union", "const", "static", "mod",
        ];
        let mut names = Names {
            path,
            scopes: HashSet::new(),
            defined: HashSet::new(),
        };
        let code = text.lines().map(str::trim_start);
        for line in code.filter(|l| !l.starts_with("//")) {
            let words: Vec<&str> = line
                .split(|c| !ident_char(c))
                .filter(|w| !w.is_empty())
                .collect();
            if line.starts_with("impl") {
                names.scopes.extend(&words);
            }
            for pair in words.windows(2) {
                if ITEMS.contains(&pair[0]) {
                    names.defined.insert(pair[1]);
                    if !matches!(pair[0], "fn" | "const" | "static") {
                        names.scopes.insert(pair[1]);
                    }
                }
            }
            // A field or a variant: the line's first name, past its
            // visibility, followed by what opens or ends one.
            let member = ["pub(crate) ", "pub(super) ", "pub "]
                .iter()
                .find_map(|v| line.strip_prefix(v))
                .unwrap_or(line);
            let name = member.split(|c| !ident_char(c)).next().unwrap_or("");
            let rest = &member[name.len()..];
            let opens = [",", "(", ": ", " {", " ="];
            if !name.is_empty() && (rest.is_empty() || opens.iter().any(|o| rest.starts_with(o))) {
                names.defined.insert(name);
            }
        }
        names
    }

    /// Whether this file is in a path qualifier's scope: the qualifier
    /// names this file, its crate, a module it is in, or a scope it
    /// declares.
    fn in_scope(&self, qualifier: &str) -> bool {
        let krate = ["wifiq-", "wifiq_"]
            .iter()
            .find_map(|p| qualifier.strip_prefix(p))
            .unwrap_or(qualifier);
        let p = self.path;
        match qualifier {
            "crate" | "self" | "super" => true,
            "ending_anomaly" => p.starts_with("src/"),
            q if q.ends_with(".rs") => p == q || p.ends_with(&format!("/{q}")),
            q => {
                p.starts_with(&format!("crates/{krate}/"))
                    || p.ends_with(&format!("/{q}.rs"))
                    || p.contains(&format!("/{q}/"))
                    || self.scopes.contains(q)
            }
        }
    }
}

/// The docs cite only what exists. In the [`DOCS`], every backticked
/// `path.rs:N` names a source file (from any directory down) with at
/// least N lines, and every backticked `a::b` path resolves link by link:
/// each segment is defined in the scope of the one before it. Paths
/// rooted in [`STD_ROOTS`] are Rust's own.
fn doc_references(files: &Files) -> Verdict {
    let code = files.iter().filter(|(p, _)| p.ends_with(".rs"));
    let names: Vec<Names> = code.map(|(p, t)| Names::of(p, t)).collect();
    let mut dangling = Vec::new();
    for (path, text) in files.iter().filter(|(p, _)| DOCS.contains(&p.as_str())) {
        for span in code_spans(text) {
            for (i, _) in span.match_indices(".rs:") {
                let cited = span[..i]
                    .rsplit(|c: char| !segment_char(c))
                    .next()
                    .unwrap_or("");
                let digits: String = span[i + 4..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                let Ok(line) = digits.parse::<usize>() else {
                    continue;
                };
                let rs = format!("{cited}.rs");
                let long_enough = files.iter().any(|(p, t)| {
                    (*p == rs || p.ends_with(&format!("/{rs}"))) && t.lines().count() >= line
                });
                if !long_enough {
                    dangling.push(format!("{path}: `{rs}:{line}`"));
                }
            }
            for segments in rust_paths(&span) {
                if STD_ROOTS.contains(&segments[0].as_str()) {
                    continue;
                }
                let resolves = segments.windows(2).all(|pair| {
                    let mut in_scope = names.iter().filter(|n| n.in_scope(&pair[0]));
                    match pair[1].as_str() {
                        "*" => in_scope.next().is_some(),
                        item => in_scope.any(|n| n.defined.contains(item)),
                    }
                });
                if !resolves {
                    dangling.push(format!("{path}: `{}`", segments.join("::")));
                }
            }
        }
    }
    check(dangling.is_empty(), format!("{dangling:?}"))
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
        rotation: "crates/mac/src/scheme/fq.rs" => format!("fn f(t: &mut Table) {{ t.{}0); }}", ROTATION_MOVES[2]);
        one_wheel: "crates/sim/src/planted.rs" => "struct Q { far: std::collections::BinaryHeap<u64> }";
        one_qdisc: "crates/mac/src/station.rs" => "fn f() -> MacFq<Ticket> { MacFq::new(FqParams::default()) }";
        one_tcp_endpoint: "crates/traffic/src/web.rs" => "fn f(now: Nanos) { TcpSender::finite(1).on_rto(now); }";
        roadmap_citations: "DESIGN.md" => "as ROADMAP\nitem 7 asks";
        doc_references: "DESIGN.md" => "the gate `ext_policy::equal_weights_identity`";
    }

    /// A span's paths: a group yields one path per member, a glob ends
    /// in `*`, a call, a turbofish or a type annotation ends the path,
    /// and a single name is not a path.
    #[test]
    fn doc_references_reads_the_paths_of_a_span() {
        let paths =
            |span: &str| -> Vec<String> { rust_paths(span).iter().map(|p| p.join("::")).collect() };
        assert_eq!(
            paths("MacFq::{enqueue, dequeue} and observed::*"),
            ["MacFq::enqueue", "MacFq::dequeue", "observed::*"]
        );
        assert_eq!(
            paths("NetworkConfig::builder().lanes(1) -> wifiq-core::PacketArena"),
            ["NetworkConfig::builder", "wifiq-core::PacketArena"]
        );
        assert_eq!(paths("BssHost::M: Send"), ["BssHost::M"]);
        assert_eq!(
            paths("tests/determinism.rs::a_run, size_of::<T>()"),
            ["tests/determinism.rs::a_run"]
        );
        assert!(paths("Roster").is_empty());
    }

    /// `doc_references` also catches a cited line past a file's end.
    #[test]
    fn doc_references_catches_a_line_past_the_end() {
        holds_and_catches(
            super::doc_references,
            "README.md",
            "see `scale/src/engine.rs:99999`",
        );
    }

    /// A file that only a `#[cfg(test)] mod name;` declares is test code,
    /// like `tests.rs`: `file_size` and the line count skip it.
    #[test]
    fn file_size_skips_test_only_modules() {
        let mut files = workspace();
        files.push(("crates/mac/src/planted.rs".into(), "//\n".repeat(801)));
        assert!(super::file_size(&files).is_err());
        let declares = "#[cfg(test)]\nmod planted;";
        files.push(("crates/mac/src/lib.rs".into(), declares.into()));
        super::file_size(&files).unwrap();
    }

    /// `cargo test --test architecture -- --nocapture` prints the count.
    #[test]
    fn non_test_line_total() {
        let total: usize = non_test_lines(&workspace()).map(|(_, n)| n).sum();
        println!("non-test lines: {total}");
    }
}
