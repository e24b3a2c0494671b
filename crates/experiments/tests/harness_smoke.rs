//! Smoke tests for every experiment harness at miniature scale: each
//! module must run end to end and produce structurally sane results.
//! (Full-scale shape checks live in the workspace `tests/paper_claims.rs`
//! and in EXPERIMENTS.md.)

use wifiq_experiments::runner::RunCfg;
use wifiq_experiments::tcp_fair::TcpPattern;
use wifiq_experiments::{ablations, latency, sparse, table1, tcp_fair, thirty, udp_sat, voip, web};
use wifiq_mac::SchemeKind;
use wifiq_phy::AccessCategory;
use wifiq_sim::Nanos;
use wifiq_traffic::WebPage;

fn tiny() -> RunCfg {
    RunCfg {
        reps: 1,
        duration: Nanos::from_secs(3),
        warmup: Nanos::from_secs(1),
        base_seed: 42,
        ..RunCfg::new()
    }
}

#[test]
fn udp_sat_shares_sum_to_one() {
    let r = udp_sat::run_scheme(SchemeKind::AirtimeFair, &tiny()).unwrap();
    let sum: f64 = r.stations.iter().map(|s| s.airtime_share).sum();
    assert!((sum - 1.0).abs() < 1e-6, "shares sum {sum}");
    assert!(r.total_goodput() > 10e6, "implausibly low goodput");
    assert_eq!(r.rep_shares.len(), 1);
}

#[test]
fn latency_produces_samples_and_cdfs() {
    let r = latency::run_scheme(SchemeKind::FqMac, &tiny(), false).unwrap();
    assert!(r.fast.summary.count > 10, "too few fast samples");
    assert!(r.slow.summary.count > 10);
    assert!(!r.fast.cdf.points.is_empty());
    // CDF covers the summary's median.
    let med = r.fast.cdf.quantile(0.5).expect("median in CDF");
    assert!((med - r.fast.summary.median).abs() < r.fast.summary.median * 0.5 + 1.0);
}

#[test]
fn tcp_fair_bidirectional_reports_uploads() {
    let r =
        tcp_fair::run_scheme(SchemeKind::AirtimeFair, TcpPattern::Bidirectional, &tiny()).unwrap();
    assert!(r.up_bps.iter().any(|&b| b > 0.0), "no upload measured");
    assert!(r.jain > 0.3 && r.jain <= 1.0 + 1e-9);
    assert!(r.total() > 10e6);
}

#[test]
fn table1_model_and_measurement_agree_roughly() {
    let t = table1::run(&tiny()).unwrap();
    // Model vs measured within a factor of two at miniature scale.
    for half in [&t.baseline, &t.fair] {
        let ratio = half.model_total / half.measured_total.max(1.0);
        assert!(
            (0.5..2.0).contains(&ratio),
            "{}: model {} vs measured {}",
            half.label,
            half.model_total,
            half.measured_total
        );
        assert_eq!(half.rows.len(), 3);
    }
    // The fair half must beat the baseline.
    assert!(t.fair.measured_total > t.baseline.measured_total * 1.5);
}

#[test]
fn sparse_cell_produces_distribution() {
    let c = sparse::run_cell(sparse::BulkKind::Udp, true, &tiny()).unwrap();
    assert!(c.summary.count > 5);
    assert!(c.enabled);
    assert_eq!(c.bulk, "UDP");
}

#[test]
fn thirty_station_harness_runs() {
    let r = thirty::run_scheme(SchemeKind::AirtimeFair, &tiny()).unwrap();
    assert!((0.0..=1.0).contains(&r.slow_share));
    assert!(r.jain > 0.5, "airtime scheme should be fair: {}", r.jain);
    assert!(r.total_goodput_bps > 1e6);
    assert!(r.sparse_latency.count > 0, "ping-only station starved");
}

#[test]
fn voip_cell_reports_mos_in_range() {
    let c = voip::run_cell(
        SchemeKind::FqMac,
        AccessCategory::Be,
        Nanos::from_millis(5),
        &tiny(),
    )
    .unwrap();
    assert!((1.0..=4.5).contains(&c.mos), "MOS {}", c.mos);
    assert!((0.0..=1.0).contains(&c.loss));
    assert!(c.throughput_bps > 1e6);
}

#[test]
fn web_cell_completes_small_page() {
    let c = web::run_cell(
        SchemeKind::AirtimeFair,
        &WebPage::small(),
        web::Fetcher::Fast,
        &tiny(),
    )
    .unwrap();
    assert_eq!(c.completed, 1, "page load did not finish");
    assert!(c.plt_secs > 0.0 && c.plt_secs < 10.0);
}

#[test]
fn ablation_cells_run() {
    let rx = ablations::rx_charging(true, &tiny()).unwrap();
    assert!(rx.jain > 0.3);
    let dp = ablations::drop_policy(wifiq_core::fq::DropPolicy::DropLongest, &tiny()).unwrap();
    assert!(dp.fast_goodput_bps > 1e6);
    let q = ablations::quantum(300, &tiny()).unwrap();
    assert!(q.sparse_median_ms > 0.0);
}

#[test]
fn run_cfg_env_is_respected() {
    // Doesn't touch the environment (tests run in parallel); checks the
    // defaults and the seeds contract instead.
    let cfg = RunCfg::new();
    assert_eq!(cfg.reps, 5);
    assert_eq!(cfg.window(), cfg.duration - cfg.warmup);
    assert_eq!(cfg.seeds().count(), 5);
}
