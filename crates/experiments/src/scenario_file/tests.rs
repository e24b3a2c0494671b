use super::build::parse_qos;
use super::*;
use serde_json::Json;
use wifiq_mac::SchemeKind;
use wifiq_phy::AccessCategory;
use wifiq_sim::Nanos;

const GOOD: &str = r#"{
    "scheme": "airtime",
    "secs": 2,
    "stations": [
        { "rate": "mcs15" },
        { "rate": "mcs0", "weight": 512 },
        { "rate": "1mbps", "error": 0.1 }
    ],
    "traffic": [
        { "kind": "tcp_down", "station": 0 },
        { "kind": "udp_down", "station": 1, "mbps": 5, "poisson": true },
        { "kind": "ping", "station": 2 },
        { "kind": "voip", "station": 1, "qos": "vo" },
        { "kind": "web", "station": 0, "page": "small" }
    ]
}"#;

#[test]
fn good_scenario_parses_builds_and_runs() {
    let sc = ScenarioFile::from_json(GOOD).unwrap();
    let mut built = sc.build().unwrap();
    assert_eq!(built.traffic.len(), 5);
    let duration = built.duration;
    built.net.run(duration, &mut built.app);
    // Every component produced something.
    for t in &built.traffic {
        match t {
            InstalledTraffic::Tcp(h) => assert!(built.app.tcp(*h).delivered_bytes() > 0),
            InstalledTraffic::Udp(h) => assert!(built.app.udp(*h).delivered > 0),
            InstalledTraffic::Ping(h) => assert!(!built.app.ping(*h).rtts.is_empty()),
            InstalledTraffic::Voip(h) => assert!(!built.app.voip(*h).delays.is_empty()),
            InstalledTraffic::Web(h) => assert!(built.app.web(*h).plt.is_some()),
        }
    }
}

#[test]
fn bad_station_reference_rejected() {
    let sc = ScenarioFile::from_json(
        r#"{ "stations": [{ "rate": "mcs15" }],
             "traffic": [{ "kind": "ping", "station": 3 }] }"#,
    )
    .unwrap();
    let err = match sc.build() {
        Err(e) => e,
        Ok(_) => panic!("bad reference accepted"),
    };
    assert!(err.contains("station 3"), "{err}");
}

#[test]
fn unknown_fields_rejected() {
    let err = ScenarioFile::from_json(
        r#"{ "stations": [{ "rate": "mcs15", "typo_field": 1 }], "traffic": [] }"#,
    )
    .unwrap_err();
    assert!(err.contains("typo_field"), "{err}");
}

#[test]
fn bad_rate_and_qos_rejected() {
    assert!(parse_rate("warp9").is_err());
    assert!(parse_rate("mcs16").is_err());
    assert!(parse_rate("vht10").is_err());
    assert!(parse_qos(Some("turbo")).is_err());
    assert_eq!(parse_qos(None).unwrap(), AccessCategory::Be);
}

#[test]
fn defaults_apply() {
    let sc =
        ScenarioFile::from_json(r#"{ "stations": [{ "rate": "mcs7" }], "traffic": [] }"#).unwrap();
    let built = sc.build().unwrap();
    assert_eq!(built.duration, Nanos::from_secs(20));
    assert_eq!(built.net.scheme(), SchemeKind::AirtimeFair);
}

#[test]
fn zero_aql_rejected() {
    let sc = ScenarioFile::from_json(
        r#"{ "aql_ms": 0, "stations": [{ "rate": "mcs7" }], "traffic": [] }"#,
    )
    .unwrap();
    let err = match sc.build() {
        Err(e) => e,
        Ok(_) => panic!("zero AQL accepted"),
    };
    assert!(err.contains("aql_ms"), "{err}");
}

const V2: &str = r#"{
    "version": 2,
    "scheme": "airtime",
    "secs": 2,
    "stations": [
        { "rate": "mcs15" },
        { "rate": "mcs15" },
        { "rate": "mcs0" }
    ],
    "traffic": [
        { "kind": "tcp_down", "station": 0 },
        { "kind": "tcp_down", "station": 2 },
        { "kind": "ping", "station": 0 }
    ],
    "faults": [
        { "kind": "burst_loss", "from_secs": 0.5, "until_secs": 1.5,
          "station": 2, "bad_frac": 0.3, "burst_len": 10, "loss_bad": 0.9 },
        { "kind": "rate_collapse", "from_secs": 1.0, "until_secs": 1.5,
          "station": 2, "rate": "mcs0" },
        { "kind": "ack_loss", "from_secs": 0.0, "until_secs": 2.0, "prob": 0.05 }
    ],
    "churn": { "mean_interval_ms": 200, "min_stations": 2, "max_stations": 3 }
}"#;

#[test]
fn v2_scenario_with_faults_and_churn_runs() {
    let sc = ScenarioFile::from_json(V2).unwrap();
    assert_eq!(sc.faults.len(), 3);
    let mut built = sc.build().unwrap();
    assert!(!built.net.config().faults.is_empty());
    assert!(built.churn.is_some());
    let duration = built.duration;
    built.run_to(duration);
    let churn = built.churn.as_ref().unwrap();
    assert!(churn.joins + churn.leaves > 0, "churn never fired");
}

const V3: &str = r#"{
    "version": 3,
    "scheme": "airtime",
    "secs": 2,
    "stations": [
        { "rate": "mcs15" },
        { "rate": "mcs15" },
        { "rate": "mcs7" }
    ],
    "traffic": [
        { "kind": "udp_down", "station": 0, "mbps": 20 },
        { "kind": "udp_down", "station": 1, "mbps": 20 },
        { "kind": "udp_down", "station": 2, "mbps": 20 }
    ],
    "policy": {
        "nodes": [
            { "name": "gold", "weight": 2, "stations": [0, 1] },
            { "name": "bronze", "weight": 1, "stations": [2] }
        ],
        "switches": [
            { "at_secs": 1,
              "nodes": [
                  { "name": "gold", "weight": 1, "stations": [0, 1] },
                  { "name": "bronze", "weight": 1, "stations": [2] }
              ] }
        ]
    }
}"#;

#[test]
fn v3_scenario_with_policy_switch_runs() {
    let sc = ScenarioFile::from_json(V3).unwrap();
    let p = sc.policy.as_ref().expect("policy block");
    assert_eq!(p.nodes.len(), 2);
    assert_eq!(p.switches.len(), 1);
    let mut built = sc.build().unwrap();
    assert!(!built.net.config().policy.is_none());
    let duration = built.duration;
    built.run_to(duration);
    assert_eq!(built.net.policy_switches_applied(), 1);
    // After the switch the tenants split 1:1 — gold's half is shared
    // by two stations (3/4 of neutral each), bronze's by one (3/2).
    for (sta, expect) in [(0, 192), (1, 192), (2, 384)] {
        let id = built.net.sta_id(sta).expect("slot occupied");
        assert_eq!(
            built.net.station_ac_weight(id, AccessCategory::Be),
            Some(expect),
            "station {sta} weight after equalising switch"
        );
    }
}

#[test]
fn provenance_parses_and_is_inert() {
    let sc = ScenarioFile::from_json(
        r#"{ "version": 3, "stations": [{ "rate": "mcs15" }],
             "traffic": [{ "kind": "ping", "station": 0 }],
             "provenance": { "searcher_seed": 99, "objective": "jain_dip",
                             "score": 1.25, "shrink_steps": 7,
                             "first_failing_bytes": 1400, "minimal_bytes": 300 } }"#,
    )
    .unwrap();
    let p = sc.provenance.as_ref().expect("provenance block");
    assert_eq!(p.searcher_seed, 99);
    assert_eq!(p.objective, "jain_dip");
    assert_eq!(p.shrink_steps, 7);
    // Build ignores provenance entirely.
    sc.build().unwrap();
}

#[test]
fn bad_provenance_rejected() {
    // Unknown objective name.
    let err = ScenarioFile::from_json(
        r#"{ "version": 3, "stations": [{ "rate": "mcs15" }], "traffic": [],
             "provenance": { "searcher_seed": 1, "objective": "gremlins",
                             "shrink_steps": 0 } }"#,
    )
    .unwrap_err();
    assert!(err.contains("gremlins"), "{err}");
    // Missing searcher_seed.
    let err = ScenarioFile::from_json(
        r#"{ "version": 3, "stations": [{ "rate": "mcs15" }], "traffic": [],
             "provenance": { "objective": "jain_dip", "shrink_steps": 0 } }"#,
    )
    .unwrap_err();
    assert!(err.contains("searcher_seed"), "{err}");
}

#[test]
fn bad_policy_rejected() {
    // A node with both children and stations.
    let sc = ScenarioFile::from_json(
        r#"{ "version": 3, "stations": [{ "rate": "mcs15" }], "traffic": [],
             "policy": { "nodes": [
               { "name": "x", "stations": [0],
                 "nodes": [{ "name": "y", "stations": [0] }] } ] } }"#,
    )
    .unwrap();
    assert!(build_err(&sc).contains("exactly one"));
    // Station out of range.
    let sc = ScenarioFile::from_json(
        r#"{ "version": 3, "stations": [{ "rate": "mcs15" }], "traffic": [],
             "policy": { "nodes": [{ "name": "x", "stations": [5] }] } }"#,
    )
    .unwrap();
    assert!(build_err(&sc).contains("out of range"));
    // Switches out of order.
    let sc = ScenarioFile::from_json(
        r#"{ "version": 3, "stations": [{ "rate": "mcs15" }], "traffic": [],
             "policy": { "nodes": [{ "name": "x", "stations": [0] }],
               "switches": [
                 { "at_secs": 5, "nodes": [{ "name": "x", "stations": [0] }] },
                 { "at_secs": 2, "nodes": [{ "name": "x", "stations": [0] }] } ] } }"#,
    )
    .unwrap();
    assert!(build_err(&sc).contains("ascending"));
    // Unknown class name.
    let sc = ScenarioFile::from_json(
        r#"{ "version": 3, "stations": [{ "rate": "mcs15" }], "traffic": [],
             "policy": { "nodes": [
               { "name": "x", "stations": [0], "classes": ["turbo"] } ] } }"#,
    )
    .unwrap();
    assert!(build_err(&sc).contains("turbo"));
    // Unknown field inside a node.
    let err = ScenarioFile::from_json(
        r#"{ "version": 3, "stations": [{ "rate": "mcs15" }], "traffic": [],
             "policy": { "nodes": [{ "name": "x", "stations": [0], "wight": 2 }] } }"#,
    )
    .unwrap_err();
    assert!(err.contains("wight"), "{err}");
}

fn build_err(sc: &ScenarioFile) -> String {
    match sc.build() {
        Err(e) => e,
        Ok(_) => panic!("invalid scenario accepted"),
    }
}

#[test]
fn bad_faults_rejected() {
    let base = |fault: &str| {
        format!(
            r#"{{ "version": 2, "stations": [{{ "rate": "mcs15" }}],
                 "traffic": [], "faults": [{fault}] }}"#
        )
    };
    // Unknown kind.
    let err = ScenarioFile::from_json(&base(
        r#"{ "kind": "gremlins", "from_secs": 0, "until_secs": 1 }"#,
    ))
    .unwrap_err();
    assert!(err.contains("gremlins"), "{err}");
    // Probability out of range (caught by schedule validation).
    let sc = ScenarioFile::from_json(&base(
        r#"{ "kind": "ack_loss", "from_secs": 0, "until_secs": 1, "prob": 1.5 }"#,
    ))
    .unwrap();
    assert!(build_err(&sc).contains("probability"));
    // Station out of range.
    let sc = ScenarioFile::from_json(&base(
        r#"{ "kind": "stall", "from_secs": 0, "until_secs": 1, "station": 9 }"#,
    ))
    .unwrap();
    assert!(build_err(&sc).contains("station 9"));
    // Window ends before it starts.
    let sc = ScenarioFile::from_json(&base(
        r#"{ "kind": "stall", "from_secs": 2, "until_secs": 1 }"#,
    ))
    .unwrap();
    assert!(build_err(&sc).contains("window"));
    // Extraneous parameter for the kind.
    let err = ScenarioFile::from_json(&base(
        r#"{ "kind": "stall", "from_secs": 0, "until_secs": 1, "prob": 0.5 }"#,
    ))
    .unwrap_err();
    assert!(err.contains("prob"), "{err}");
}

#[test]
fn bad_churn_rejected() {
    let sc = ScenarioFile::from_json(
        r#"{ "version": 2, "stations": [{ "rate": "mcs15" }], "traffic": [],
             "churn": { "min_stations": 2, "max_stations": 2 } }"#,
    )
    .unwrap();
    assert!(build_err(&sc).contains("min_stations"));
}

const V4: &str = r#"{
    "version": 4,
    "scheme": "airtime",
    "secs": 3,
    "stations": [
        { "rate": "mcs15" },
        { "rate": "mcs15" },
        { "rate": "mcs7" }
    ],
    "traffic": [
        { "kind": "udp_down", "station": 0, "mbps": 10 },
        { "kind": "udp_down", "station": 1, "mbps": 10 },
        { "kind": "ping", "station": 2 }
    ],
    "roaming": { "mean_dwell_ms": 100, "reassoc_min_ms": 10,
                 "reassoc_max_ms": 40, "rate_palette": ["mcs15", "mcs3"] }
}"#;

#[test]
fn v4_scenario_with_roaming_runs() {
    let sc = ScenarioFile::from_json(V4).unwrap();
    let r = sc.roaming.as_ref().expect("roaming block");
    assert_eq!(r.mean_dwell_ms, 100);
    assert_eq!(r.rate_palette.as_ref().unwrap().len(), 2);
    let mut built = sc.build().unwrap();
    assert!(built.roam.is_some());
    let duration = built.duration;
    built.run_to(duration);
    let roam = built.roam.as_ref().unwrap();
    assert!(roam.stats.handoffs > 5, "roam schedule never fired");
    assert_eq!(built.net.roam_drops(), roam.stats.roam_drops);
    // Everyone not mid-transit is back on the air.
    assert_eq!(built.net.active_stations() + roam.in_transit(), 3);
}

#[test]
fn v4_roaming_interleaves_with_churn() {
    let sc = ScenarioFile::from_json(
        r#"{ "version": 4, "secs": 3,
             "stations": [{ "rate": "mcs15" }, { "rate": "mcs15" }, { "rate": "mcs7" }],
             "traffic": [{ "kind": "udp_down", "station": 0, "mbps": 10 }],
             "churn": { "mean_interval_ms": 150, "min_stations": 1, "max_stations": 3 },
             "roaming": { "mean_dwell_ms": 120 } }"#,
    )
    .unwrap();
    let mut built = sc.build().unwrap();
    let duration = built.duration;
    built.run_to(duration);
    let churn = built.churn.as_ref().unwrap();
    let roam = built.roam.as_ref().unwrap();
    assert!(churn.joins + churn.leaves > 0, "churn never fired");
    assert!(
        roam.stats.handoffs + roam.stats.skipped > 0,
        "roam never fired"
    );
}

#[test]
fn bad_roaming_rejected() {
    let base = |roaming: &str| {
        format!(
            r#"{{ "version": 4, "stations": [{{ "rate": "mcs15" }}],
                 "traffic": [], "roaming": {roaming} }}"#
        )
    };
    let sc = ScenarioFile::from_json(&base(r#"{ "mean_dwell_ms": 0 }"#)).unwrap();
    assert!(build_err(&sc).contains("mean_dwell_ms"));
    let sc = ScenarioFile::from_json(&base(r#"{ "reassoc_min_ms": 50, "reassoc_max_ms": 10 }"#))
        .unwrap();
    assert!(build_err(&sc).contains("reassoc_min_ms"));
    let sc = ScenarioFile::from_json(&base(r#"{ "rate_palette": [] }"#)).unwrap();
    assert!(build_err(&sc).contains("rate_palette"));
    let sc = ScenarioFile::from_json(&base(r#"{ "rate_palette": ["warp9"] }"#)).unwrap();
    assert!(build_err(&sc).contains("warp9"));
    let err = ScenarioFile::from_json(&base(r#"{ "dwell": 5 }"#)).unwrap_err();
    assert!(err.contains("dwell"), "{err}");
}

/// `(path, text)` of every `.json` directly under `<repo root>/<dir>`.
fn json_files(dir: &str) -> Vec<(std::path::PathBuf, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(dir);
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("directory of JSON files") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("json") {
            let text = std::fs::read_to_string(&path).unwrap();
            out.push((path, text));
        }
    }
    out
}

/// The shipped documents directly under `scenarios/<sub>`.
fn shipped(sub: &str) -> Vec<(std::path::PathBuf, String)> {
    json_files(&format!("scenarios/{sub}"))
}

#[test]
fn shipped_scenario_files_validate() {
    let library = shipped("");
    assert!(
        library.len() >= 5,
        "expected the shipped scenario files, found {}",
        library.len()
    );
    let found = shipped("found");
    assert!(!found.is_empty(), "expected committed counterexamples");
    // Parses, builds, and re-encodes to an equal document.
    let load = |(path, text): &(std::path::PathBuf, String)| {
        let sc =
            ScenarioFile::from_json(text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if let Err(e) = sc.build() {
            panic!("{}: {e}", path.display());
        }
        assert_eq!(
            ScenarioFile::from_json(&sc.text()).as_ref(),
            Ok(&sc),
            "{}: lossy round trip",
            path.display()
        );
        sc
    };
    for f in &library {
        load(f);
    }
    for f in &found {
        assert!(
            load(f).provenance.is_some(),
            "{}: counterexamples must carry a provenance block",
            f.0.display()
        );
    }
}

/// The pin on "the encoder writes exactly the bytes it always wrote":
/// every committed counterexample is named by its content hash and is
/// a fixed point of decode → encode.
#[test]
fn found_files_are_canonical_and_content_addressed() {
    for (path, text) in shipped("found") {
        let sc = ScenarioFile::from_json(&text).unwrap();
        let stem = path.file_stem().unwrap().to_str().unwrap();
        let (_, suffix) = stem.rsplit_once('_').expect("<objective>_<hash12>.json");
        assert_eq!(suffix, &sc.hash()[..12], "{}", path.display());
        assert_eq!(sc.text(), text, "{}", path.display());
    }
}

fn tiny() -> ScenarioFile {
    ScenarioFile::from_json(
        r#"{ "version": 2, "secs": 3,
             "stations": [{ "rate": "mcs15" }, { "rate": "mcs7" }],
             "traffic": [{ "kind": "tcp_down", "station": 0 },
                         { "kind": "tcp_down", "station": 1 }],
             "faults": [{ "kind": "burst_loss", "from_secs": 0.5, "until_secs": 2.5,
                          "station": 1, "bad_frac": 0.3, "burst_len": 12,
                          "loss_bad": 0.9 }] }"#,
    )
    .unwrap()
}

#[test]
fn encoding_is_canonical() {
    // Fixed order, always-written fields at their defaults, optional
    // ones omitted, integral floats as `N.0`, version stamp 4.
    assert_eq!(
        tiny().encode().compact(),
        concat!(
            r#"{"version":4,"scheme":"airtime","secs":3,"seed":1,"#,
            r#""stations":[{"rate":"mcs15"},{"rate":"mcs7"}],"#,
            r#""traffic":[{"kind":"tcp_down","station":0},{"kind":"tcp_down","station":1}],"#,
            r#""faults":[{"kind":"burst_loss","from_secs":0.5,"until_secs":2.5,"#,
            r#""station":1,"bad_frac":0.3,"burst_len":12.0,"loss_bad":0.9}]}"#
        )
    );
    assert_eq!(tiny().size_bytes(), tiny().text().len() as u64);
    // The stamp is a constant: no block moves it.
    let roaming = ScenarioFile {
        roaming: Some(RoamingSpec::default()),
        ..tiny()
    };
    assert_eq!(
        roaming.encode().get("version"),
        tiny().encode().get("version")
    );
    assert_ne!(roaming.hash(), tiny().hash());
    assert_eq!(ScenarioFile::from_json(&roaming.text()), Ok(roaming));
}

/// Every stamp this build reads names the same grammar: an `ok_*`
/// fixture decodes to the same value, hence the same hash, whatever
/// stamp it carries or none.
#[test]
fn version_is_not_part_of_the_value() {
    let mut seen = 0;
    for (path, text) in json_files("tests/fixtures/scenario_schema") {
        let name = path.file_name().unwrap().to_str().unwrap();
        if !name.starts_with("ok_") {
            continue;
        }
        seen += 1;
        let Json::Obj(mut fields) = serde_json::from_str(&text).unwrap() else {
            panic!("{name}: not an object");
        };
        fields.retain(|(k, _)| k != "version");
        let unstamped = ScenarioFile::from_json(&Json::Obj(fields.clone()).compact()).unwrap();
        for stamp in 1..=SCHEMA_VERSION {
            let mut stamped = fields.clone();
            stamped.push(("version".into(), Json::U64(stamp)));
            let sc = ScenarioFile::from_json(&Json::Obj(stamped).compact())
                .unwrap_or_else(|e| panic!("{name} stamped {stamp}: {e}"));
            assert_eq!(sc, unstamped, "{name} stamped {stamp}");
            assert_eq!(sc.hash(), unstamped.hash(), "{name} stamped {stamp}");
        }
    }
    assert!(seen >= 6, "expected the ok_* fixtures, found {seen}");
}

#[test]
fn every_field_round_trips() {
    let sc = ScenarioFile::from_json(&fixture("ok_web_mcs_cliff_roundtrip.json")).unwrap();
    assert_eq!(sc.stations[0].mcs_cliff, Some(11));
    assert!(matches!(&sc.traffic[0], TrafficSpec::Web { page, .. } if page == "large"));
    let back = ScenarioFile::from_json(&sc.text()).unwrap();
    assert_eq!(back, sc);
    assert_eq!(back.hash(), sc.hash());
    assert_eq!(back.text(), sc.text());
}

#[test]
fn hash_ignores_provenance() {
    let plain = tiny();
    let stamped = ScenarioFile {
        provenance: Some(ProvenanceSpec {
            searcher_seed: 7,
            objective: "jain_dip".into(),
            score: 2.0,
            shrink_steps: 3,
            first_failing_bytes: Some(1000),
            minimal_bytes: Some(250),
        }),
        ..plain.clone()
    };
    assert!(stamped.text().contains("provenance"));
    assert_eq!(stamped.hash(), plain.hash());
    assert_eq!(stamped.size_bytes(), plain.size_bytes());
    // The stamped text still loads, provenance intact.
    assert_eq!(ScenarioFile::from_json(&stamped.text()), Ok(stamped));
}

fn fixture(name: &str) -> String {
    let dir = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/scenario_schema"
    );
    std::fs::read_to_string(format!("{dir}/{name}")).unwrap()
}

/// The fixture test only checks that these are rejected; the CLI's
/// promise is an error that names the field and where it sits.
#[test]
fn hostile_numbers_are_named_errors() {
    for (name, field) in [
        ("bad_fault_negative_window.json", "from_secs"),
        ("bad_secs_overflow.json", "secs"),
        ("bad_weight_overflow.json", "weight"),
        ("bad_mcs_cliff_overflow.json", "mcs_cliff"),
        ("bad_udp_zero_rate.json", "mbps"),
        ("bad_zero_secs.json", "secs"),
        ("bad_station_error_range.json", "error"),
        ("bad_traffic_station_range.json", "traffic[0]"),
        ("bad_version_from_the_future.json", "version 5"),
        ("bad_nesting_depth.json", "nesting deeper than 128"),
        ("bad_duplicate_field.json", "duplicate field `secs`"),
        (
            "bad_duplicate_nested_field.json",
            "stations[0]: duplicate field `rate`",
        ),
    ] {
        let e = match ScenarioFile::from_json(&fixture(name)).and_then(|sc| sc.build()) {
            Err(e) => e,
            Ok(_) => panic!("{name} accepted"),
        };
        assert!(
            e.contains(field),
            "{name}: error should name `{field}`: {e}"
        );
    }
}

#[test]
fn zero_weight_rejected() {
    let sc = ScenarioFile::from_json(
        r#"{ "stations": [{ "rate": "mcs7", "weight": 0 }], "traffic": [] }"#,
    )
    .unwrap();
    assert!(sc.build().is_err());
}
