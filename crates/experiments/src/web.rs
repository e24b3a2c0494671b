//! The web page-load experiment (Figure 11): PLT for small and large
//! pages fetched through a busy network.
//!
//! The one `TrafficApp` experiment that is not a scenario document: its
//! page load starts at 3 s, once the bulk traffic has filled the queues,
//! and a document's traffic has no start time (DESIGN.md §9).

use serde::Serialize;
use wifiq_mac::{NetworkConfig, SchemeKind, WifiNetwork};
use wifiq_sim::Nanos;
use wifiq_traffic::{TrafficApp, WebPage};

use crate::runner::{mean, run_seeds, RunCfg};
use crate::scenario::{FAST1, FAST2, SLOW};

/// Which station does the fetching (the paper's two scenarios, §4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Fetcher {
    /// A fast station fetches while the slow station runs a bulk
    /// download (Figure 11).
    Fast,
    /// The slow station fetches while the fast stations run bulk
    /// downloads (the online-appendix variant).
    Slow,
}

impl Fetcher {
    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Fetcher::Fast => "fast station",
            Fetcher::Slow => "slow station",
        }
    }
}

/// Page size label.
fn page_label(page: &WebPage) -> &'static str {
    if page.sizes.len() <= 3 {
        "small"
    } else {
        "large"
    }
}

/// One Figure 11 cell.
#[derive(Debug, Clone, Serialize)]
pub struct WebCell {
    /// Scheme label.
    pub scheme: String,
    /// Page label ("small"/"large").
    pub page: String,
    /// Fetching-station label.
    pub fetcher: String,
    /// Mean page-load time, seconds.
    pub plt_secs: f64,
    /// Repetitions that completed within the cap.
    pub completed: usize,
    /// Total repetitions.
    pub reps: usize,
}

/// Wall-clock cap per page load; a page that hasn't finished counts at
/// the cap (the paper's worst case is ~35 s).
const PLT_CAP: Nanos = Nanos::from_secs(90);

/// Runs one cell: repeated page loads of `page` under `scheme`.
pub fn run_cell(
    scheme: SchemeKind,
    page: &WebPage,
    fetcher: Fetcher,
    cfg: &RunCfg,
) -> Result<WebCell, String> {
    let config = format!(
        "{}_{}",
        page_label(page),
        if fetcher == Fetcher::Fast {
            "fast"
        } else {
            "slow"
        }
    );
    // (PLT seconds, completed-within-cap) per repetition.
    let reps: Vec<(f64, bool)> = run_seeds("web", scheme.slug(), &config, cfg, |rep| {
        let mut net_cfg = NetworkConfig::paper_testbed(scheme);
        net_cfg.seed = rep.seed;
        let mut net: WifiNetwork<wifiq_traffic::AppMsg> = WifiNetwork::new(net_cfg);
        let mut app = TrafficApp::new();
        // Bulk load starts first; the page load begins once the bulk
        // traffic has filled the queues.
        let start = Nanos::from_secs(3);
        let web = match fetcher {
            Fetcher::Fast => {
                app.add_tcp_down(SLOW, Nanos::ZERO);
                app.add_web(FAST1, page.clone(), start)
            }
            Fetcher::Slow => {
                app.add_tcp_down(FAST1, Nanos::ZERO);
                app.add_tcp_down(FAST2, Nanos::ZERO);
                app.add_web(SLOW, page.clone(), start)
            }
        };
        app.install(&mut net);
        let tele = rep.hub();
        net.set_telemetry(tele.clone());
        app.set_telemetry(&tele);
        // Run in slices until the page completes or the cap is reached.
        let mut t = start;
        while app.web(web).plt.is_none() && t < start + PLT_CAP {
            t += Nanos::from_secs(1);
            net.run(t, &mut app);
        }
        Ok(match app.web(web).plt {
            Some(plt) => (plt.as_secs_f64(), true),
            None => (PLT_CAP.as_secs_f64(), false),
        })
    })?;
    Ok(WebCell {
        scheme: scheme.label().to_string(),
        page: page_label(page).to_string(),
        fetcher: fetcher.label().to_string(),
        plt_secs: mean(&reps.iter().map(|r| r.0).collect::<Vec<_>>()),
        completed: reps.iter().filter(|r| r.1).count(),
        reps: cfg.reps as usize,
    })
}

/// Runs Figure 11 (fast-station fetches) and the appendix variant
/// (slow-station fetches) across all schemes and both pages.
pub fn run_all(cfg: &RunCfg, include_slow_fetcher: bool) -> Result<Vec<WebCell>, String> {
    let mut cells = Vec::new();
    for fetcher in [Fetcher::Fast, Fetcher::Slow] {
        if fetcher == Fetcher::Slow && !include_slow_fetcher {
            continue;
        }
        for page in [WebPage::small(), WebPage::large()] {
            for scheme in SchemeKind::ALL {
                cells.push(run_cell(scheme, &page, fetcher, cfg)?);
            }
        }
    }
    Ok(cells)
}
