//! Application traffic for the WiFi testbed: ping, CBR UDP, bulk TCP,
//! VoIP, and emulated web page loads.
//!
//! [`TrafficApp`] multiplexes any number of traffic components over one
//! [`wifiq_mac::WifiNetwork`]: each component owns a namespace of 16 flow
//! ids and 16 timer tokens, and the app dispatches deliveries by flow id.
//!
//! ```
//! use wifiq_mac::{NetworkConfig, SchemeKind, WifiNetwork};
//! use wifiq_sim::Nanos;
//! use wifiq_traffic::TrafficApp;
//!
//! let cfg = NetworkConfig::paper_testbed(SchemeKind::AirtimeFair);
//! let mut net = WifiNetwork::new(cfg);
//! let mut app = TrafficApp::new();
//! let ping = app.add_ping(0, Nanos::ZERO);
//! let _bulk = app.add_tcp_down(1, Nanos::ZERO);
//! app.install(&mut net);
//! net.run(Nanos::from_secs(2), &mut app);
//! assert!(!app.ping(ping).rtts.is_empty());
//! ```

pub mod ctx;
pub mod flows;
pub mod msg;
pub mod tcpflow;
pub mod web;

use wifiq_mac::{App, Commands, Delivery, Packet, StationIdx, WifiNetwork};
use wifiq_phy::AccessCategory;
use wifiq_sim::{Nanos, SimRng};

use ctx::{FlowCtx, SUBS_PER_FLOW};
pub use flows::{Direction, PingFlow, UdpFlood, VoipFlow};
pub use msg::AppMsg;
pub use tcpflow::TcpBulk;
pub use web::{WebPage, WebSession, WEB_CONNS};

/// Handle to a traffic component added to a [`TrafficApp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowHandle(pub usize);

/// One traffic component.
///
/// Variants are boxed where large (a web session owns four TCP endpoint
/// pairs) so the vector of flows stays dense.
#[derive(Debug)]
pub enum Flow {
    /// ICMP ping.
    Ping(PingFlow),
    /// CBR UDP flood.
    Udp(UdpFlood),
    /// VoIP stream.
    Voip(VoipFlow),
    /// Bulk TCP transfer.
    Tcp(Box<TcpBulk>),
    /// Web page load session.
    Web(Box<WebSession>),
}

/// The application layer: a collection of traffic components driving one
/// simulated network.
#[derive(Debug)]
pub struct TrafficApp {
    flows: Vec<Flow>,
    next_pkt_id: u64,
    rng: SimRng,
}

impl Default for TrafficApp {
    fn default() -> Self {
        TrafficApp::new()
    }
}

impl TrafficApp {
    /// An empty application (workload randomness seeded at 0; use
    /// [`with_seed`](TrafficApp::with_seed) for repetition sweeps of
    /// stochastic workloads).
    pub fn new() -> TrafficApp {
        TrafficApp::with_seed(0)
    }

    /// An empty application with an explicit workload-randomness seed.
    pub fn with_seed(seed: u64) -> TrafficApp {
        TrafficApp {
            flows: Vec::new(),
            next_pkt_id: 0,
            rng: SimRng::new(seed ^ 0x7AFF_1C00),
        }
    }

    /// Adds a Poisson-arrival downstream UDP flood at mean `rate_bps`.
    pub fn add_udp_down_poisson(
        &mut self,
        station: StationIdx,
        rate_bps: u64,
        start: Nanos,
    ) -> FlowHandle {
        let mut flood = UdpFlood::down(station, rate_bps, start);
        flood.poisson = true;
        self.add(Flow::Udp(flood))
    }

    fn add(&mut self, flow: Flow) -> FlowHandle {
        self.flows.push(flow);
        FlowHandle(self.flows.len() - 1)
    }

    /// Adds a 10 Hz best-effort ping to `station`.
    pub fn add_ping(&mut self, station: StationIdx, start: Nanos) -> FlowHandle {
        self.add(Flow::Ping(PingFlow::new(station, start)))
    }

    /// Adds a downstream UDP flood at `rate_bps`.
    pub fn add_udp_down(&mut self, station: StationIdx, rate_bps: u64, start: Nanos) -> FlowHandle {
        self.add(Flow::Udp(UdpFlood::down(station, rate_bps, start)))
    }

    /// Adds an upstream UDP flood at `rate_bps`.
    pub fn add_udp_up(&mut self, station: StationIdx, rate_bps: u64, start: Nanos) -> FlowHandle {
        self.add(Flow::Udp(UdpFlood::up(station, rate_bps, start)))
    }

    /// Adds a bulk TCP download to `station`.
    pub fn add_tcp_down(&mut self, station: StationIdx, start: Nanos) -> FlowHandle {
        self.add(Flow::Tcp(Box::new(TcpBulk::down(station, start))))
    }

    /// Adds a bulk TCP upload from `station`.
    pub fn add_tcp_up(&mut self, station: StationIdx, start: Nanos) -> FlowHandle {
        self.add(Flow::Tcp(Box::new(TcpBulk::up(station, start))))
    }

    /// Adds a VoIP stream to `station` with the given QoS marking.
    pub fn add_voip(
        &mut self,
        station: StationIdx,
        ac: AccessCategory,
        start: Nanos,
    ) -> FlowHandle {
        self.add(Flow::Voip(VoipFlow::new(station, ac, start)))
    }

    /// Adds a web page-load session from `station`.
    pub fn add_web(&mut self, station: StationIdx, page: WebPage, start: Nanos) -> FlowHandle {
        self.add(Flow::Web(Box::new(WebSession::new(station, page, start))))
    }

    /// Attaches a telemetry handle to every TCP-bearing component (bulk
    /// flows and web sessions). Component `i` reports under flow labels
    /// starting at `i * SUBS_PER_FLOW`, matching its packet flow-id
    /// namespace. Call after adding flows and before `net.run`.
    pub fn set_telemetry(&mut self, tele: &wifiq_telemetry::Telemetry) {
        for (i, f) in self.flows.iter_mut().enumerate() {
            let base = i as u64 * SUBS_PER_FLOW;
            match f {
                Flow::Tcp(t) => t.set_telemetry(tele.clone(), base),
                Flow::Web(w) => w.set_telemetry(tele.clone(), base),
                Flow::Ping(_) | Flow::Udp(_) | Flow::Voip(_) => {}
            }
        }
    }

    /// Seeds each component's start timer. Call once before `net.run`.
    pub fn install(&self, net: &mut WifiNetwork<AppMsg>) {
        for (i, f) in self.flows.iter().enumerate() {
            let start = match f {
                Flow::Ping(p) => p.start,
                Flow::Udp(u) => u.start,
                Flow::Voip(v) => v.start,
                Flow::Tcp(t) => t.start,
                Flow::Web(w) => w.start,
            };
            net.seed_timer(i as u64 * SUBS_PER_FLOW, start);
        }
    }

    /// Access a ping component.
    ///
    /// # Panics
    ///
    /// Panics if the handle refers to a different component type.
    pub fn ping(&self, h: FlowHandle) -> &PingFlow {
        match &self.flows[h.0] {
            Flow::Ping(p) => p,
            other => panic!("handle {h:?} is not a ping flow: {other:?}"),
        }
    }

    /// Access a UDP component.
    pub fn udp(&self, h: FlowHandle) -> &UdpFlood {
        match &self.flows[h.0] {
            Flow::Udp(u) => u,
            other => panic!("handle {h:?} is not a UDP flow: {other:?}"),
        }
    }

    /// Access a VoIP component.
    pub fn voip(&self, h: FlowHandle) -> &VoipFlow {
        match &self.flows[h.0] {
            Flow::Voip(v) => v,
            other => panic!("handle {h:?} is not a VoIP flow: {other:?}"),
        }
    }

    /// Access a TCP component.
    pub fn tcp(&self, h: FlowHandle) -> &TcpBulk {
        match &self.flows[h.0] {
            Flow::Tcp(t) => t,
            other => panic!("handle {h:?} is not a TCP flow: {other:?}"),
        }
    }

    /// Cumulative bytes a bulk component — UDP flood or TCP transfer — has
    /// delivered end to end.
    ///
    /// # Panics
    ///
    /// Panics if the handle refers to any other component type.
    pub fn delivered_bytes(&self, h: FlowHandle) -> u64 {
        match &self.flows[h.0] {
            Flow::Udp(u) => u.delivered_bytes,
            Flow::Tcp(t) => t.delivered_bytes(),
            other => panic!("handle {h:?} is not a bulk flow: {other:?}"),
        }
    }

    /// Access a web session.
    pub fn web(&self, h: FlowHandle) -> &WebSession {
        match &self.flows[h.0] {
            Flow::Web(w) => w,
            other => panic!("handle {h:?} is not a web session: {other:?}"),
        }
    }
}

impl App<AppMsg> for TrafficApp {
    fn on_packet(
        &mut self,
        at: Delivery,
        pkt: Packet<AppMsg>,
        now: Nanos,
        cmds: &mut Commands<AppMsg>,
    ) {
        let comp = (pkt.flow / SUBS_PER_FLOW) as usize;
        if comp >= self.flows.len() {
            return;
        }
        let mut ctx = FlowCtx {
            base: comp,
            cmds,
            next_pkt_id: &mut self.next_pkt_id,
            rng: &mut self.rng,
        };
        match &mut self.flows[comp] {
            Flow::Ping(p) => p.on_packet(at, pkt, now, &mut ctx),
            Flow::Udp(u) => u.on_packet(pkt),
            Flow::Voip(v) => v.on_packet(pkt, now),
            Flow::Tcp(t) => t.on_packet(at, pkt, now, &mut ctx),
            Flow::Web(w) => w.on_packet(at, pkt, now, &mut ctx),
        }
    }

    fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<AppMsg>) {
        let comp = (token / SUBS_PER_FLOW) as usize;
        let sub = token % SUBS_PER_FLOW;
        if comp >= self.flows.len() {
            return;
        }
        let mut ctx = FlowCtx {
            base: comp,
            cmds,
            next_pkt_id: &mut self.next_pkt_id,
            rng: &mut self.rng,
        };
        match &mut self.flows[comp] {
            Flow::Ping(p) => p.on_timer(sub, now, &mut ctx),
            Flow::Udp(u) => u.on_timer(sub, now, &mut ctx),
            Flow::Voip(v) => v.on_timer(sub, now, &mut ctx),
            Flow::Tcp(t) => t.on_timer(sub, now, &mut ctx),
            Flow::Web(w) => w.on_timer(sub, now, &mut ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiq_mac::{NetworkConfig, SchemeKind};

    fn testbed(scheme: SchemeKind) -> WifiNetwork<AppMsg> {
        WifiNetwork::new(NetworkConfig::paper_testbed(scheme))
    }

    /// One uplink per station: at 20k stations this is the largest term
    /// of the per-station budget (DESIGN §13 "Where the memory goes").
    /// It queues 40-byte tickets, so the payload every workload runs no
    /// longer sizes it: 1,432 bytes with `Packet<AppMsg>` in its two
    /// stashes, 856 measured since.
    #[test]
    fn station_uplink_with_the_app_payload_stays_small() {
        let size = std::mem::size_of::<wifiq_mac::station::StationUplink>();
        assert!(size <= 856, "StationUplink grew to {size} bytes");
    }

    #[test]
    fn ping_alone_has_millisecond_scale_rtt() {
        let mut net = testbed(SchemeKind::AirtimeFair);
        let mut app = TrafficApp::new();
        let ping = app.add_ping(0, Nanos::ZERO);
        app.install(&mut net);
        net.run(Nanos::from_secs(2), &mut app);
        let p = app.ping(ping);
        assert!(p.rtts.len() >= 18, "got {} echoes", p.rtts.len());
        for &(_, rtt) in &p.rtts {
            // Idle network: wire 2×~0.2 ms + two WiFi exchanges ≈ 1 ms.
            assert!(rtt < Nanos::from_millis(3), "idle RTT {rtt}");
        }
    }

    #[test]
    fn tcp_download_saturates_fast_station() {
        let mut net = testbed(SchemeKind::FqMac);
        let mut app = TrafficApp::new();
        let bulk = app.add_tcp_down(0, Nanos::ZERO);
        app.install(&mut net);
        net.run(Nanos::from_secs(3), &mut app);
        let delivered = app.tcp(bulk).delivered_bytes();
        let mbps = delivered as f64 * 8.0 / 3.0 / 1e6;
        // A lone fast station should reach most of its ~100+ Mbps
        // effective rate.
        assert!(mbps > 60.0, "only {mbps:.1} Mbps");
    }

    #[test]
    fn tcp_upload_works() {
        let mut net = testbed(SchemeKind::FqMac);
        let mut app = TrafficApp::new();
        let bulk = app.add_tcp_up(0, Nanos::ZERO);
        app.install(&mut net);
        net.run(Nanos::from_secs(3), &mut app);
        let mbps = app.tcp(bulk).delivered_bytes() as f64 * 8.0 / 3.0 / 1e6;
        assert!(mbps > 40.0, "only {mbps:.1} Mbps");
    }

    #[test]
    fn bufferbloat_under_fifo_tcp() {
        // The Figure 1 scenario: ping + TCP download to every station.
        let run = |scheme| {
            let mut net = testbed(scheme);
            let mut app = TrafficApp::new();
            let ping = app.add_ping(0, Nanos::ZERO);
            for sta in 0..3 {
                app.add_tcp_down(sta, Nanos::ZERO);
            }
            app.install(&mut net);
            net.run(Nanos::from_secs(5), &mut app);
            let rtts = app.ping(ping).rtts_after(Nanos::from_secs(2));
            let mut ms: Vec<f64> = rtts.iter().map(|r| r.as_millis_f64()).collect();
            assert!(!ms.is_empty(), "ping starved under {scheme:?}");
            ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
            ms[ms.len() / 2]
        };
        let fifo = run(SchemeKind::Fifo);
        let fq = run(SchemeKind::FqMac);
        assert!(
            fifo > 100.0,
            "FIFO median {fifo:.1} ms — bufferbloat absent"
        );
        assert!(fq < 40.0, "FQ-MAC median {fq:.1} ms — AQM not working");
        assert!(
            fifo / fq > 5.0,
            "expected order-of-magnitude gap: {fifo:.1} vs {fq:.1}"
        );
    }

    #[test]
    fn voip_delays_recorded() {
        let mut net = testbed(SchemeKind::AirtimeFair);
        let mut app = TrafficApp::new();
        let v = app.add_voip(2, AccessCategory::Vo, Nanos::ZERO);
        app.install(&mut net);
        net.run(Nanos::from_secs(2), &mut app);
        let flow = app.voip(v);
        assert!(flow.sent >= 99, "sent {}", flow.sent);
        assert!(
            flow.delays.len() as u64 >= flow.sent - 2,
            "lost packets on an idle network"
        );
    }

    #[test]
    fn web_small_page_loads_quickly_when_idle() {
        let mut net = testbed(SchemeKind::AirtimeFair);
        let mut app = TrafficApp::new();
        let w = app.add_web(0, WebPage::small(), Nanos::ZERO);
        app.install(&mut net);
        net.run(Nanos::from_secs(5), &mut app);
        let plt = app.web(w).plt.expect("page never completed");
        assert!(plt < Nanos::from_millis(300), "idle PLT {plt}");
        assert_eq!(app.web(w).completed(), 3);
    }

    #[test]
    fn web_large_page_loads() {
        let mut net = testbed(SchemeKind::AirtimeFair);
        let mut app = TrafficApp::new();
        let w = app.add_web(0, WebPage::large(), Nanos::ZERO);
        app.install(&mut net);
        net.run(Nanos::from_secs(20), &mut app);
        let plt = app.web(w).plt.expect("large page never completed");
        assert_eq!(app.web(w).completed(), 110);
        // 3 MB at ~100 Mbps is a fraction of a second; allow seconds for
        // request round-trips.
        assert!(plt < Nanos::from_secs(10), "idle large PLT {plt}");
    }

    #[test]
    fn poisson_udp_delivers_mean_rate() {
        let mut net = testbed(SchemeKind::AirtimeFair);
        let mut app = TrafficApp::with_seed(5);
        let u = app.add_udp_down_poisson(0, 10_000_000, Nanos::ZERO);
        app.install(&mut net);
        net.run(Nanos::from_secs(4), &mut app);
        let mbps = app.udp(u).delivered_bytes as f64 * 8.0 / 4.0 / 1e6;
        // Poisson at 10 Mbps mean on an idle fast link: within 15%.
        assert!((8.5..11.5).contains(&mbps), "poisson mean rate {mbps:.2}");
        assert!(app.udp(u).delivered > 1000);
    }

    #[test]
    fn udp_flood_saturation_counts() {
        let mut net = testbed(SchemeKind::AirtimeFair);
        let mut app = TrafficApp::new();
        let u = app.add_udp_down(2, 20_000_000, Nanos::ZERO);
        app.install(&mut net);
        net.run(Nanos::from_secs(3), &mut app);
        let f = app.udp(u);
        // The slow station can only carry ~6 Mbps: most packets dropped.
        let mbps = f.delivered_bytes as f64 * 8.0 / 3.0 / 1e6;
        assert!(
            (3.0..8.0).contains(&mbps),
            "slow station UDP {mbps:.2} Mbps"
        );
        assert!(f.sent > f.delivered);
    }

    #[test]
    fn mixed_traffic_smoke() {
        let mut net = testbed(SchemeKind::AirtimeFair);
        let mut app = TrafficApp::new();
        let ping = app.add_ping(2, Nanos::ZERO);
        let tcp = app.add_tcp_down(0, Nanos::ZERO);
        let voip = app.add_voip(2, AccessCategory::Be, Nanos::ZERO);
        let web = app.add_web(1, WebPage::small(), Nanos::from_millis(500));
        app.install(&mut net);
        net.run(Nanos::from_secs(4), &mut app);
        assert!(!app.ping(ping).rtts.is_empty());
        assert!(app.tcp(tcp).delivered_bytes() > 0);
        assert!(!app.voip(voip).delays.is_empty());
        assert!(app.web(web).plt.is_some());
    }
}
