//! The repo's benchmark: five steady-state workloads driven through the
//! simulator's public API, end-to-end metrics from an untraced run, and a
//! per-layer table from a traced repeat. See README.md in this directory.
//!
//! ```text
//! wifiq-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! wifiq-benchmark [--seed N] [--seconds S]      every workload, traced
//! wifiq-benchmark --check [--seed N]            correctness only, 1/10 windows
//! wifiq-benchmark --agree N [--seed N]          two interleaved sets of N runs
//! ```

mod host;
mod layers;
mod replay;
mod run;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serde::Json;

use layers::Metric;
use run::{median, quartiles, RunOutput};
use trace::Spans;
use workload::{Seeds, Workload, RUN_SECONDS, SEGMENTS, SETUP_REPS, SLICES, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    agree: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        check: false,
        agree: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v.parse().map_err(|_| bad(&v))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {v}"));
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--check" => args.check = true,
            "--agree" => {
                let v = value("a run count")?;
                let n: usize = v.parse().map_err(|_| bad(&v))?;
                if n < 2 {
                    return Err("--agree needs at least 2 runs per set".into());
                }
                args.agree = Some(n);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The nine end-to-end metrics of one untraced run. The two host times
/// are on the reference host: divided by the probe's slowdown.
fn end_to_end(out: &RunOutput) -> Vec<Metric> {
    let rates: Vec<f64> = out.slices().map(|s| s.rate()).collect();
    let setups: Vec<f64> = out.setups[..SETUP_REPS].iter().map(|s| s.ref_s()).collect();
    let mut metrics = vec![
        Metric {
            name: "pkts_per_ref_s",
            unit: "1/s",
            value: median(&rates),
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&setups),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: out.peak_rss_mb,
        },
    ];
    metrics.extend(
        out.sim
            .named()
            .map(|(name, unit, value)| Metric { name, unit, value }),
    );
    metrics
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

/// Everything two runs on one seed must agree on, byte for byte.
fn identity(out: &RunOutput) -> String {
    let counts = out
        .counts
        .iter()
        .map(|&(n, v)| (n.to_string(), Json::U64(v)))
        .collect();
    let sim = out
        .sim
        .named()
        .iter()
        .map(|&(n, _, v)| (n.to_string(), Json::F64(v)))
        .collect();
    Json::Obj(vec![
        ("counts".into(), Json::Obj(counts)),
        ("sim".into(), Json::Obj(sim)),
    ])
    .compact()
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one workload in this process and prints its result.
fn run_workload(w: &'static Workload, args: &Args) -> ExitCode {
    let seeds = Seeds::derive(args.seed);
    let window = w.window(args.seconds);
    println!(
        "workload {} seed {} seconds {}: {SETUP_REPS} dropped set-ups ({} sim-s warm-up each), \
         then a {:.0} sim-s window in {SEGMENTS} segments of {SLICES} slices",
        w.name,
        args.seed,
        args.seconds,
        w.warmup.as_secs_f64(),
        window.as_secs_f64(),
    );

    // End-to-end numbers always come from this untraced run.
    let (mut base, inst) =
        run::run::<false>(w, &seeds, args.seconds, w.observed, true, SEGMENTS, None);
    drop(inst);
    if w.twin.is_some() {
        // Turning observation on must not change what is observed: the
        // same seed with the sink in the other state must reach the same
        // state. One segment is replayed here; the all-workloads run
        // compares the two full windows.
        let (twin, _) = run::run::<false>(w, &seeds, args.seconds, !w.observed, false, 1, None);
        base.checks
            .op(twin.first_segment == base.first_segment, || {
                format!(
                    "sink {} changed the first segment: {:?} vs {:?}",
                    if w.observed { "off" } else { "on" },
                    twin.first_segment,
                    base.first_segment
                )
            });
    }
    let metrics = end_to_end(&base);
    let rates: Vec<f64> = base.slices().map(|s| s.rate()).collect();
    let [q1, _, q3] = quartiles(&rates);
    println!("end-to-end (untraced run; host times on the reference host):");
    print_metrics(&metrics);
    println!(
        "  pkts_per_ref_s quartiles {q1:.0} .. {q3:.0} over {} slices; window {:.3} s on the \
         reference host",
        rates.len(),
        base.window_ref_s()
    );
    let host = layers::host(&base);
    println!(
        "  as the wall clock saw it: window {:.3} s, segment rates {:.0?} 1/s",
        base.window_wall_s(),
        base.segments
            .iter()
            .map(|s| s.wall_rate())
            .collect::<Vec<_>>()
    );
    print_metrics(&host);
    println!(
        "  ping samples in window: sparse {} bulk {}; airtime_jain over {} eligible stations",
        base.sim.sparse_samples, base.sim.bulk_samples, base.sim.eligible
    );
    println!("identity {}", identity(&base));

    let mut reported = metrics;
    if args.trace {
        let mut spans = Spans::new();
        let (traced, inst) = run::run::<true>(
            w,
            &seeds,
            args.seconds,
            true,
            false,
            SEGMENTS,
            Some(&mut spans),
        );
        base.checks.attempted += traced.checks.attempted;
        base.checks.failed += traced.checks.failed;
        base.checks
            .failures
            .extend(traced.checks.failures.iter().cloned());
        let (plain, observed) = (identity(&base), identity(&traced));
        base.checks.op(plain == observed, || {
            format!("the traced repeat changed the run: {observed} vs {plain}")
        });
        reported = layers::table(w, &base, &traced, &inst, &spans, window.as_secs_f64());
        println!("per-layer (traced repeat, sink on, timed callbacks):");
        print_metrics(&reported);
        let path = out_dir().join(format!("trace_{}.json", w.name));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, spans.to_json(w.name, args.seed).pretty() + "\n"));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    for why in &base.checks.failures {
        println!("FAILED {why}");
    }
    println!(
        "operations: {} attempted, {} failed",
        base.checks.attempted, base.checks.failed
    );
    let metrics = reported
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::F64(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(base.checks.failed == 0)),
        ("attempted".into(), Json::U64(base.checks.attempted)),
        ("failed".into(), Json::U64(base.checks.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.compact());
    ExitCode::SUCCESS
}

/// What a child process (one workload, one run) reported.
struct Child {
    stdout: String,
    result: Json,
    identity: String,
}

impl Child {
    fn failed(&self) -> u64 {
        self.result
            .get("failed")
            .and_then(Json::as_u64)
            .unwrap_or(1)
    }

    fn attempted(&self) -> u64 {
        self.result
            .get("attempted")
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    /// A metric from the readable output: the result object of an
    /// untraced run carries the end-to-end metrics only.
    fn printed(&self, name: &str) -> Option<f64> {
        self.stdout.lines().find_map(|l| {
            let mut words = l.split_whitespace();
            (words.next()? == name).then(|| words.next()?.parse().ok())?
        })
    }
}

/// One process per workload: peak RSS is a process-wide high-water mark.
fn spawn(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            w.name,
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = serde_json::from_str(last)
        .map_err(|e| format!("{}: last line is not a result: {e:?}", w.name))?;
    let identity = stdout
        .lines()
        .find_map(|l| l.strip_prefix("identity "))
        .unwrap_or_default()
        .to_string();
    Ok(Child {
        stdout,
        result,
        identity,
    })
}

/// `tcp30_observed` must equal `tcp30_mixed` on every count and every
/// simulated metric; a mismatch fails both.
fn twins_disagree(children: &[(&Workload, Child)]) -> Vec<String> {
    let mut out = Vec::new();
    for (w, child) in children {
        let twin = w
            .twin
            .and_then(|t| children.iter().find(|(o, _)| o.name == t));
        if let Some((t, other)) = twin {
            if child.identity != other.identity {
                out.push(format!(
                    "FAILED {} differs from {}:\n  {}\n  {}",
                    w.name, t.name, child.identity, other.identity
                ));
            }
        }
    }
    out
}

/// Every workload, each in its own process, traced.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut children = Vec::new();
    for w in &WORKLOADS {
        let child = spawn(w, args.seed, args.seconds, true)?;
        println!("{}", child.stdout);
        children.push((w, child));
    }
    let disagreements = twins_disagree(&children);
    let mut ok = disagreements.is_empty();
    for d in &disagreements {
        println!("{d}");
    }
    println!("summary (seed {}, --seconds {}):", args.seed, args.seconds);
    for (w, child) in &children {
        ok &= child.failed() == 0;
        println!(
            "  {:<20} {} of {} operations failed",
            w.name,
            child.failed(),
            child.attempted()
        );
    }
    Ok(ok)
}

/// Correctness only, on windows a tenth as long: every workload's own
/// checks, same seed twice, and the twin identity.
fn check(args: &Args) -> Result<bool, String> {
    let seconds = args.seconds / 10.0;
    let mut ok = true;
    let mut children = Vec::new();
    for w in &WORKLOADS {
        let first = spawn(w, args.seed, seconds, false)?;
        let second = spawn(w, args.seed, seconds, false)?;
        let same = first.identity == second.identity && !first.identity.is_empty();
        for line in first.stdout.lines().filter(|l| l.starts_with("FAILED")) {
            println!("{}: {line}", w.name);
        }
        if !same {
            println!(
                "FAILED {}: two runs on seed {} differ:\n  {}\n  {}",
                w.name, args.seed, first.identity, second.identity
            );
        }
        ok &= same && first.failed() == 0 && second.failed() == 0;
        println!(
            "{:<20} {} of {} operations failed; same seed twice: {}",
            w.name,
            first.failed() + second.failed(),
            first.attempted() + second.attempted(),
            if same { "identical" } else { "DIFFERENT" }
        );
        children.push((w, first));
    }
    for d in twins_disagree(&children) {
        println!("{d}");
        ok = false;
    }
    Ok(ok)
}

/// One row of the `--agree` table: an `end_to_end` entry of
/// BENCHMARK.json with its bound, or a wall-clock reading shown beside
/// the metric it was corrected into, which has none.
struct Bound {
    name: String,
    bound: Option<f64>,
}

/// The two host times as the wall clock read them.
const WALL_CLOCK: [&str; 2] = ["host.pkts_per_wall_s", "host.setup_wall_s"];

fn bounds() -> Result<Vec<Bound>, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut rows = entries
        .iter()
        .map(|e| {
            Some(Bound {
                name: e.get("name")?.as_str()?.to_string(),
                bound: Some(e.get("bound")?.as_f64()?),
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())?;
    rows.extend(WALL_CLOCK.map(|name| Bound {
        name: name.to_string(),
        bound: None,
    }));
    Ok(rows)
}

/// Two interleaved sets (A B B A ...) of `n` full runs of this binary, one
/// seed per run; the calibration record for the bounds in BENCHMARK.json.
fn agree(args: &Args, n: usize) -> Result<bool, String> {
    let bounds = bounds()?;
    // values[workload][set][metric] holds one value per run.
    let per_set = vec![Vec::new(); bounds.len()];
    let mut values = vec![[per_set.clone(), per_set]; WORKLOADS.len()];
    let mut ok = true;
    for i in 0..n {
        let seed = args.seed + i as u64;
        for set in if i % 2 == 0 { [0, 1] } else { [1, 0] } {
            for (wi, w) in WORKLOADS.iter().enumerate() {
                let child = spawn(w, seed, args.seconds, false)?;
                if child.failed() > 0 {
                    ok = false;
                    println!(
                        "FAILED {} seed {seed}: {} operations",
                        w.name,
                        child.failed()
                    );
                }
                for (mi, b) in bounds.iter().enumerate() {
                    let v = match b.bound {
                        Some(_) => child.metric(&b.name),
                        None => child.printed(&b.name),
                    }
                    .ok_or_else(|| format!("{} did not report {}", w.name, b.name))?;
                    values[wi][set][mi].push(v);
                }
            }
            eprintln!("seed {seed} of set {} done", ["A", "B"][set]);
        }
    }
    println!(
        "two interleaved sets of {n} runs, seeds {}..={}, --seconds {}",
        args.seed,
        args.seed + n as u64 - 1,
        args.seconds
    );
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "diff", "bound"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, b) in bounds.iter().enumerate() {
            let [qa, qb] = [0, 1].map(|set| quartiles(&values[wi][set][mi]));
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
            let diff = (qa[1] - qb[1]).abs() / qa[1];
            // Set-up time is judged on its medians only.
            let within = b.bound.is_none_or(|bound| {
                let steady = b.name == "setup_s" || spread(qa).max(spread(qb)) <= bound;
                diff <= bound && steady
            });
            ok &= within;
            println!(
                "{:<18} {:<20} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>6}{}",
                w.name,
                b.name,
                qa[1],
                qb[1],
                spread(qa) * 100.0,
                spread(qb) * 100.0,
                diff * 100.0,
                b.bound
                    .map_or("-".to_string(), |bound| format!("{:.0}%", bound * 100.0)),
                if within { "" } else { " EXCEEDS" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &args.workload {
        return match Workload::find(name) {
            Some(w) => run_workload(w, &args),
            None => {
                let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("unknown workload {name:?}; known: {known:?}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = match args.agree {
        Some(n) => agree(&args, n),
        None if args.check => check(&args),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
