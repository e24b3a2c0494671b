//! `wifiq` — the workspace's one executable.
//!
//! ```text
//! wifiq all                      every experiment below, cached and resumable
//! wifiq list                     the experiment table
//! wifiq fig05_airtime_udp        one experiment (fig04/fig07 take --bidir,
//!                                fig11 takes --with-slow)
//! wifiq run --scheme fifo --stations mcs15x5,1mbps --traffic udp:50 --ping 0
//! wifiq run --config scenarios/cafe.json
//! ```
//!
//! The whole dispatch is [`EXPERIMENTS`]: adding an experiment is adding a
//! row. `wifiq all` hands the same table to the orchestration harness
//! in-process ([`run_table`]), so a failing or panicking experiment costs
//! its own row of the summary and a nonzero exit, nothing else.
//!
//! Argument parsing is hand-rolled: the workspace's dependency policy
//! (DESIGN.md §5) keeps external crates to the approved list, and the
//! grammar here is small enough that a parser dependency would outweigh
//! the code it replaces.

use std::fmt::Write as _;
use std::time::Duration;

use wifiq_experiments::dispatch::{run_table, Experiment};
use wifiq_experiments::report::{parse_flag, pct, Table};
use wifiq_experiments::runner::{export_metrics, mbps, to_ms};
use wifiq_experiments::scenario::TESTBED3;
use wifiq_experiments::scenario_file::{InstalledTraffic, ScenarioFile, StationSpec, TrafficSpec};
use wifiq_experiments::{ext, figs, RunCfg};
use wifiq_mac::meter::airtime_shares;
use wifiq_stats::{jain_index, Summary, VoipMetrics};

/// Every experiment, in `wifiq all` order; README.md describes each (the
/// inventory test below keeps the two in step).
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        flag: Some("--bidir"),
        ..Experiment::new("fig04_latency_tcp", figs::fig04_latency_tcp::run)
    },
    Experiment::new(
        "table1_model_validation",
        figs::table1_model_validation::run,
    ),
    Experiment::new("fig05_airtime_udp", figs::fig05_airtime_udp::run),
    Experiment::new("fig06_jain_index", figs::fig06_jain_index::run),
    Experiment {
        flag: Some("--bidir"),
        ..Experiment::new("fig07_tcp_throughput", figs::fig07_tcp_throughput::run)
    },
    Experiment::new("fig08_sparse_station", figs::fig08_sparse_station::run),
    // The third-party testbed ran 5 x 300 s; default to fewer, longer
    // runs than the small-testbed experiments.
    Experiment {
        default_reps: Some(3),
        ..Experiment::new("fig09_30sta_airtime", figs::fig09_30sta_airtime::run)
    },
    Experiment {
        default_reps: Some(3),
        ..Experiment::new("fig10_30sta_latency", figs::fig10_30sta_latency::run)
    },
    Experiment::new("table2_voip_mos", figs::table2_voip_mos::run),
    Experiment {
        flag: Some("--with-slow"),
        ..Experiment::new("fig11_web_plt", figs::fig11_web_plt::run)
    },
    Experiment::new(
        "ablation_design_choices",
        figs::ablation_design_choices::run,
    ),
    Experiment::new("ext_rate_control", ext::ext_rate_control::run),
    Experiment::new("ext_meter_validation", ext::ext_meter_validation::run),
    Experiment::new("ext_client_fq", ext::ext_client_fq::run),
    Experiment::new("ext_airtime_weights", ext::ext_airtime_weights::run),
    Experiment::new("ext_80211ac", ext::ext_80211ac::run),
    Experiment::new("ext_aql", ext::ext_aql::run),
    Experiment::new("ext_lossy_channel", ext::ext_lossy_channel::run),
    Experiment::new("ext_chaos", ext::ext_chaos::run),
    Experiment::new("ext_scale", ext::ext_scale::run),
    Experiment::new("ext_policy", ext::ext_policy::run),
    Experiment::new("ext_search", wifiq_search::experiment::run),
    Experiment::new("ext_roam", ext::ext_roam::run),
];

const USAGE: &str = "wifiq — the paper's evaluation and a scenario runner for the simulated testbed

USAGE:
    wifiq all                   run every experiment (cached, resumable; artifacts in results/)
    wifiq list                  list the experiments
    wifiq <experiment> [FLAG]   run one (fig04_latency_tcp and fig07_tcp_throughput take --bidir,
                                fig11_web_plt takes --with-slow)
    wifiq run [OPTIONS]         simulate one scenario

RUN OPTIONS:
    --scheme <fifo|fqcodel|fqmac|airtime>   AP scheme (default: airtime)
    --stations <spec,spec,...>              station rates (default: mcs15,mcs15,mcs0)
                                            spec: <rate> | <rate>xK (K copies)
                                            rate: mcsN | 1mbps..54mbps | vhtN (2 streams, 80 MHz)
    --traffic <tcp|tcp-bidir|udp[:MBPS]|web> workload (default: tcp)
    --secs <N>                              simulated seconds (default: 20)
    --seed <N>                              RNG seed (default: 1)
    --ping <STA>                            add a 10 Hz ping to station STA
    --station-fq                            FQ-CoDel on client uplinks
    --rate-control                          Minstrel rate control at the AP
    --config <FILE.json>                    run a scenario file instead
                                            (see crates/experiments/src/scenario_file/mod.rs)
    --help                                  this text

EXAMPLES:
    wifiq run --scheme fifo --stations mcs15,mcs15,mcs0 --traffic udp:100 --ping 0
    wifiq run --scheme airtime --stations mcs15x28,1mbps --traffic tcp --secs 30

ENVIRONMENT (experiments): WIFIQ_REPS, WIFIQ_SECS, WIFIQ_QUICK, WIFIQ_JOBS, WIFIQ_CACHE,
    WIFIQ_RESULTS_DIR, WIFIQ_METRICS, WIFIQ_FAULT_CELL (see README.md)";

/// Reports a command-line error and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n(run `wifiq --help` for usage)");
    std::process::exit(2)
}

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// `wifiq list`: the table's names, one per line.
fn list() -> String {
    EXPERIMENTS
        .iter()
        .map(|e| format!("{}\n", e.name))
        .collect()
}

/// `wifiq <experiment>`: the report on stdout; a violated gate exits 1
/// with the report so far and what failed on stderr.
fn one(e: &Experiment, args: &[String], cfg: &RunCfg) {
    if let Err(msg) = parse_flag(e.flag, args) {
        usage_error(&msg);
    }
    match (e.run)(&e.cfg(cfg), args) {
        Ok(report) => print!("{report}"),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
}

/// `wifiq all`: every experiment as one cell of one harness sweep, fanned
/// across `cfg.jobs` workers, then each report and a summary table.
fn all(cfg: &RunCfg) {
    let tele = cfg.telemetry();
    // A cell here is a whole experiment, not one repetition: far longer
    // than the harness's default 20 x simulated-duration allowance.
    let harness = cfg
        .harness()
        .with_budget(Duration::from_secs(1800))
        .with_telemetry(tele.clone());
    let jobs = cfg.jobs.min(EXPERIMENTS.len());
    println!(
        "Running {} experiments across {} worker{}; artifacts in results/.",
        EXPERIMENTS.len(),
        jobs,
        if jobs == 1 { "" } else { "s" },
    );
    let outcome = run_table(EXPERIMENTS, cfg, &harness);

    for (report, result) in outcome.reports.iter().zip(&outcome.results) {
        let cached = if report.cached { " (cached)" } else { "" };
        println!("\n=== {}{} ===\n", report.cell, cached);
        match result {
            Some(output) => print!("{output}"),
            None => println!(
                "FAILED: {}",
                report.error.as_deref().unwrap_or("unknown error")
            ),
        }
    }

    let summary = outcome.summary();
    println!("\n=== summary ===\n");
    println!(
        "{:<28} {:>8} {:>10} {:>8}",
        "experiment", "status", "wall", "retries"
    );
    for report in &outcome.reports {
        let status = if !report.ok() {
            "FAILED"
        } else if report.cached {
            "cached"
        } else {
            "ok"
        };
        println!(
            "{:<28} {:>8} {:>9.1}s {:>8}",
            report.cell,
            status,
            report.wall_ms as f64 / 1000.0,
            report.retries,
        );
    }
    println!("\nharness summary: {}", summary.line());
    export_metrics(cfg, &tele, "harness_all", 0);
    if summary.failed > 0 {
        eprintln!(
            "\n{} of {} experiments failed.",
            summary.failed, summary.total
        );
        std::process::exit(1);
    }
    println!(
        "\nwifiq all complete: {}/{} experiments ok ({} cached); artifacts in results/.",
        summary.ok, summary.total, summary.cached
    );
}

/// The largest roster `--stations` assembles: five times the biggest one
/// the repo runs, and small enough that a mistyped copy count is refused
/// instead of allocated.
const MAX_FLAG_STATIONS: usize = 100_000;

/// The scenario `wifiq run`'s flags describe: every flag is one
/// [`ScenarioFile`] field, so flag mode is "assemble the document, then
/// run it like `--config`". What a value may be (scheme names, rate specs,
/// station indices) is [`ScenarioFile::build`]'s to say.
fn scenario_from_flags(argv: &[String]) -> Result<ScenarioFile, String> {
    let mut scenario = ScenarioFile {
        stations: TESTBED3.map(StationSpec::new).into(),
        ..ScenarioFile::default()
    };
    // `--traffic` names what every station runs, written here for station 0.
    let mut per_station = vec![TrafficSpec::TcpDown { station: 0 }];
    let mut ping = None;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--scheme" => scenario.scheme = value()?.into(),
            "--stations" => {
                scenario.stations.clear();
                for spec in value()?.split(',') {
                    let (rate, count) = match spec.split_once('x') {
                        Some((rate, k)) => (rate, k.parse::<usize>().unwrap_or(0)),
                        None => (spec, 1),
                    };
                    let room = MAX_FLAG_STATIONS - scenario.stations.len();
                    if !(1..=room).contains(&count) {
                        return Err(format!(
                            "bad station count in '{spec}': at least 1, at most {MAX_FLAG_STATIONS} stations in all"
                        ));
                    }
                    let copies = std::iter::repeat_n(StationSpec::new(rate), count);
                    scenario.stations.extend(copies);
                }
            }
            "--traffic" => {
                per_station = match value()? {
                    "tcp" => vec![TrafficSpec::TcpDown { station: 0 }],
                    "tcp-bidir" => vec![
                        TrafficSpec::TcpDown { station: 0 },
                        TrafficSpec::TcpUp { station: 0 },
                    ],
                    "web" => vec![TrafficSpec::Web {
                        station: 0,
                        page: "small".into(),
                    }],
                    other => {
                        let mbps = match other.strip_prefix("udp") {
                            Some("") => 100,
                            Some(rest) => rest
                                .strip_prefix(':')
                                .and_then(|m| m.parse().ok())
                                .ok_or_else(|| format!("bad UDP rate in '{other}'"))?,
                            None => return Err(format!("unknown traffic '{other}'")),
                        };
                        vec![TrafficSpec::UdpDown {
                            station: 0,
                            mbps,
                            poisson: false,
                        }]
                    }
                }
            }
            "--secs" => scenario.secs = value()?.parse().map_err(|_| "bad --secs")?,
            "--seed" => scenario.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--ping" => ping = Some(value()?.parse().map_err(|_| "bad --ping")?),
            "--station-fq" => scenario.station_fq = true,
            "--rate-control" => scenario.rate_control = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    for station in 0..scenario.stations.len() {
        for component in &per_station {
            let mut component = component.clone();
            *component.station_mut() = station;
            scenario.traffic.push(component);
        }
    }
    scenario
        .traffic
        .extend(ping.map(|station| TrafficSpec::Ping { station }));
    Ok(scenario)
}

/// Builds and runs `scenario` — warm-up is the first sixth — and returns
/// the per-station and per-component report.
fn scenario_report(scenario: &ScenarioFile) -> Result<String, String> {
    let mut built = scenario.build()?;
    let duration = built.duration;
    let window = built.measure(duration / 6);
    let warmup = window.from;

    let stations = &built.net.config().stations;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "wifiq: {} | {} stations | {} s (seed {})\n",
        built.net.scheme(),
        stations.len(),
        duration.as_millis() / 1000,
        scenario.seed
    );
    // Churn can grow the meter table past the configured roster; shares
    // are of all the air used, the table and the index cover the roster.
    let shares = airtime_shares(&window.meters);
    let mut t = Table::new(vec!["Station", "Rate", "Airtime share", "Mean aggr"]);
    for (sta, cfg) in stations.iter().enumerate() {
        t.row(vec![
            sta.to_string(),
            cfg.rate.to_string(),
            pct(shares[sta]),
            format!("{:.1}", window.meters[sta].mean_aggregation()),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nJain's airtime fairness index: {:.3}\n",
        jain_index(&shares[..stations.len()])
    );

    let app = &built.app;
    let measured = duration - warmup;
    for (i, traffic) in built.traffic.iter().enumerate() {
        let goodput = mbps(window.delivered[i], measured);
        let what = match traffic {
            InstalledTraffic::Tcp(_) => format!("tcp: {goodput:.1} Mbps"),
            InstalledTraffic::Udp(_) => format!("udp: {goodput:.1} Mbps delivered"),
            InstalledTraffic::Ping(h) => {
                let s = Summary::of(&to_ms(&app.ping(*h).rtts_after(warmup)));
                let (median, p95, n) = (s.median, s.p95, s.count);
                format!("ping: median {median:.1} ms, p95 {p95:.1} ms, n={n}")
            }
            InstalledTraffic::Voip(h) => {
                let delays = app.voip(*h).delays_after(warmup);
                let sent = (measured.as_millis() / 20) as usize;
                let m = VoipMetrics::from_delays(&delays, sent.max(delays.len()));
                let (mos, delay, loss) = (m.mos(), m.mean_delay_ms, m.loss * 100.0);
                format!("voip: MOS {mos:.2} (delay {delay:.1} ms, loss {loss:.1}%)")
            }
            InstalledTraffic::Web(h) => match app.web(*h).plt {
                Some(plt) => format!("web: PLT {:.3} s", plt.as_secs_f64()),
                None => "web: did not complete".to_string(),
            },
        };
        let station = scenario.traffic[i].station();
        let _ = writeln!(out, "traffic[{i}] {what} (station {station})");
    }
    Ok(out)
}

/// `wifiq run`: a scenario from `--config FILE` or from the flags.
fn run(args: &[String]) -> Result<String, String> {
    let scenario = match args {
        [flag, path] if flag == "--config" => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            ScenarioFile::from_json(&text)?
        }
        _ if args.iter().any(|a| a == "--config") => {
            return Err("--config takes one file and replaces all other options \
                        (the scenario file carries the full configuration)"
                .into())
        }
        _ => scenario_from_flags(args)?,
    };
    scenario_report(&scenario)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, args)) = argv.split_first() else {
        usage()
    };
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    // The one read of the environment; everything below takes the value.
    let cfg = RunCfg::from_env();
    match cmd.as_str() {
        "all" | "list" if !args.is_empty() => usage_error(&format!(
            "`wifiq {cmd}` takes no arguments (got {:?})",
            args[0]
        )),
        "all" => all(&cfg),
        "list" => print!("{}", list()),
        "run" => match run(args) {
            Ok(report) => print!("{report}"),
            Err(msg) => usage_error(&msg),
        },
        name => match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(e) => one(e, args, &cfg),
            None => usage_error(&format!(
                "unknown subcommand {name:?} (`wifiq list` names the experiments)"
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The table is the inventory: what `wifiq list` prints, what the
    /// README's experiment table documents and what the verify recipe
    /// drives are all the same set of names.
    #[test]
    fn the_table_is_the_inventory() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let listed = list();
        assert_eq!(
            listed.lines().collect::<Vec<_>>(),
            names,
            "`wifiq list` prints the table's names"
        );
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "experiment names are unique");

        let doc = |path: &str| {
            std::fs::read_to_string(format!("{}/{path}", env!("CARGO_MANIFEST_DIR"))).expect(path)
        };
        let (readme, skill) = (doc("README.md"), doc(".claude/skills/verify/SKILL.md"));
        for name in names {
            let row = format!("| `{name}`");
            assert!(
                readme.lines().any(|l| l.starts_with(&row)),
                "README.md's experiment table has no `{name}` row"
            );
            assert!(skill.contains(name), "SKILL.md does not mention {name}");
        }
    }

    fn flags(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// Flag mode only assembles a document: for each flag line the
    /// document is exactly the given scenario file, and running the flags
    /// prints what running that file prints.
    #[test]
    fn flag_mode_is_config_mode() {
        let cases = [
            (
                "--scheme fqmac --stations mcs15x2,1mbps --traffic tcp --secs 3 --seed 7",
                TCP,
            ),
            (
                "--scheme fifo --stations mcs15,mcs0 --traffic udp:50 --ping 0 --secs 2",
                UDP_PING,
            ),
            ("--traffic web --station-fq --secs 2", WEB_STATION_FQ),
            // `x` is the copy count, never a stream count.
            ("--stations vht9x2 --secs 1", VHT_PAIR),
        ];
        for (line, expected) in cases {
            let scenario = scenario_from_flags(&flags(line)).unwrap();
            assert_eq!(scenario.text(), expected, "{line}");
            let path = std::env::temp_dir().join(format!(
                "wifiq_flags_{}_{}.json",
                std::process::id(),
                scenario.hash()
            ));
            std::fs::write(&path, expected).unwrap();
            let via_config = run(&flags(&format!("--config {}", path.display())));
            let _ = std::fs::remove_file(&path);
            assert_eq!(run(&flags(line)), via_config, "{line}");
            assert!(via_config.unwrap().contains("traffic[0]"), "{line}");
        }
    }

    /// `flag` followed by a value drawn from `values`.
    fn with_value(
        flag: &'static str,
        values: impl Strategy<Value = String> + 'static,
    ) -> BoxedStrategy<Vec<String>> {
        values.prop_map(move |v| vec![flag.to_string(), v]).boxed()
    }

    fn pick(values: &[&'static str]) -> impl Strategy<Value = String> {
        proptest::sample::select(values.to_vec()).prop_map(String::from)
    }

    /// `wifiq run` argv from the flag grammar, with hostile values: zero,
    /// out-of-range and overflowing counts, empty specs, `u64::MAX`, a
    /// zero UDP rate, a ping past the roster, unknown flags, and (when the
    /// last token is cut) a flag missing its value.
    fn hostile_argv() -> impl Strategy<Value = Vec<String>> {
        const NUMBERS: &[&str] = &["0", "1", "2", "18446744073709551615", "-1", "abc", ""];
        let spec = (
            pick(&["mcs15", "mcs0", "1mbps", "54mbps", "vht9", "mcs99", "", "x"]),
            pick(&[
                "",
                "x0",
                "x1",
                "x3",
                "x100001",
                "x18446744073709551615",
                "xabc",
            ]),
        )
            .prop_map(|(rate, count)| format!("{rate}{count}"));
        let stations = proptest::collection::vec(spec, 1..4).prop_map(|specs| specs.join(","));
        let flag = prop_oneof![
            with_value(
                "--scheme",
                pick(&["fifo", "fqcodel", "fqmac", "airtime", "", "wfq"])
            ),
            with_value("--stations", stations),
            with_value(
                "--traffic",
                pick(&[
                    "tcp",
                    "tcp-bidir",
                    "web",
                    "udp",
                    "udp:0",
                    "udp:50",
                    "udp:",
                    "udpx",
                    "udp:18446744073709551615",
                    "",
                    "quic",
                ])
            ),
            with_value("--secs", pick(NUMBERS)),
            with_value("--seed", pick(NUMBERS)),
            with_value("--ping", pick(&["0", "2", "3", "12", "100001", "-1", ""])),
            Just(vec!["--station-fq".to_string()]),
            Just(vec!["--rate-control".to_string()]),
            pick(&["--bogus", "stray", "-h"]).prop_map(|token| vec![token]),
        ];
        (proptest::collection::vec(flag, 0..6), proptest::bool::ANY).prop_map(|(flags, cut)| {
            let mut argv = flags.concat();
            if cut {
                argv.pop();
            }
            argv
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// Whatever the flags, assembling and building the scenario is
        /// `Ok` or a named `Err`: the CLI's no-panic boundary.
        #[test]
        fn hostile_flags_build_or_name_their_error(argv in hostile_argv()) {
            let outcome = std::panic::catch_unwind(|| {
                scenario_from_flags(&argv)?.build().map(|_| ())
            });
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    prop_assert!(!e.is_empty(), "unnamed error for {argv:?}");
                }
                Err(_) => panic!("wifiq run {argv:?} panicked"),
            }
        }
    }

    const VHT_PAIR: &str = r#"{
  "version": 4,
  "scheme": "airtime",
  "secs": 1,
  "seed": 1,
  "stations": [
    {
      "rate": "vht9"
    },
    {
      "rate": "vht9"
    }
  ],
  "traffic": [
    {
      "kind": "tcp_down",
      "station": 0
    },
    {
      "kind": "tcp_down",
      "station": 1
    }
  ]
}
"#;
    const TCP: &str = r#"{
  "version": 4,
  "scheme": "fqmac",
  "secs": 3,
  "seed": 7,
  "stations": [
    {
      "rate": "mcs15"
    },
    {
      "rate": "mcs15"
    },
    {
      "rate": "1mbps"
    }
  ],
  "traffic": [
    {
      "kind": "tcp_down",
      "station": 0
    },
    {
      "kind": "tcp_down",
      "station": 1
    },
    {
      "kind": "tcp_down",
      "station": 2
    }
  ]
}
"#;
    const UDP_PING: &str = r#"{
  "version": 4,
  "scheme": "fifo",
  "secs": 2,
  "seed": 1,
  "stations": [
    {
      "rate": "mcs15"
    },
    {
      "rate": "mcs0"
    }
  ],
  "traffic": [
    {
      "kind": "udp_down",
      "station": 0,
      "mbps": 50,
      "poisson": false
    },
    {
      "kind": "udp_down",
      "station": 1,
      "mbps": 50,
      "poisson": false
    },
    {
      "kind": "ping",
      "station": 0
    }
  ]
}
"#;
    const WEB_STATION_FQ: &str = r#"{
  "version": 4,
  "scheme": "airtime",
  "secs": 2,
  "seed": 1,
  "station_fq": true,
  "stations": [
    {
      "rate": "mcs15"
    },
    {
      "rate": "mcs15"
    },
    {
      "rate": "mcs0"
    }
  ],
  "traffic": [
    {
      "kind": "web",
      "station": 0,
      "page": "small"
    },
    {
      "kind": "web",
      "station": 1,
      "page": "small"
    },
    {
      "kind": "web",
      "station": 2,
      "page": "small"
    }
  ]
}
"#;
}
