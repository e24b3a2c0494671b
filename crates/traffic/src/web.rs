//! Emulated web page loads (paper §4.2.2).
//!
//! Mimics the paper's cURL-based client: an initial DNS lookup, then the
//! page's resources fetched over four parallel persistent TCP
//! connections, each handling one request at a time. The page-load time
//! (PLT) is measured from the start of the DNS lookup until the last
//! response byte arrives.

use wifiq_mac::{Delivery, NodeAddr, Packet, StationIdx};
use wifiq_phy::AccessCategory;
use wifiq_sim::Nanos;
use wifiq_transport::{SendOutcome, TcpReceiver, TcpSender};

use crate::ctx::FlowCtx;
use crate::msg::AppMsg;

/// Parallel connections the client uses (the paper's client "fetch\[es\]
/// multiple requests in parallel over four different TCP connections").
pub const WEB_CONNS: usize = 4;

const TOK_START: u64 = 0;
const TOK_DNS_RETRY: u64 = 1;
const TOK_RTO_BASE: u64 = 4; // +conn
const TOK_DELACK_BASE: u64 = 8; // +conn
const TOK_REQ_RETRY_BASE: u64 = 12; // +conn

const DNS_FLOW: u64 = 15;
const REQUEST_WIRE_LEN: u64 = 300;
const DNS_QUERY_LEN: u64 = 80;
const DNS_RESPONSE_LEN: u64 = 300;
const RETRY_TIMEOUT: Nanos = Nanos::from_secs(1);

/// A web page: the sizes of its resources, fetched in order.
#[derive(Debug, Clone)]
pub struct WebPage {
    /// Response body sizes in bytes.
    pub sizes: Vec<u64>,
}

impl WebPage {
    /// The paper's small page: 56 KB over three requests.
    pub fn small() -> WebPage {
        WebPage {
            sizes: vec![8_192, 24_576, 24_576],
        }
    }

    /// The paper's large page: 3 MB over 110 requests (a long tail of
    /// small resources plus a few large ones, as real pages have).
    pub fn large() -> WebPage {
        let mut sizes = vec![10_000; 100];
        sizes.extend([200_000; 10]);
        debug_assert_eq!(sizes.len(), 110);
        debug_assert_eq!(sizes.iter().sum::<u64>(), 3_000_000);
        WebPage { sizes }
    }

    /// Total page weight in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.sizes.iter().sum()
    }
}

#[derive(Debug, Default)]
struct Conn {
    /// The server-side sender for the in-flight response.
    sender: Option<TcpSender>,
    /// Which request the server is currently answering on this conn.
    server_req: Option<usize>,
    /// The client-side receiver for the in-flight response.
    receiver: Option<TcpReceiver>,
    /// Which request the client currently awaits.
    client_req: Option<usize>,
    expected: u64,
    got_any: bool,
    rto_deadline: Option<Nanos>,
    delack_deadline: Option<Nanos>,
}

/// One emulated page load from a station.
#[derive(Debug)]
pub struct WebSession {
    /// The station running the browser.
    pub station: StationIdx,
    /// QoS marking for all session traffic.
    pub ac: AccessCategory,
    /// When the page load starts.
    pub start: Nanos,
    page: WebPage,
    conns: [Conn; WEB_CONNS],
    next_req: usize,
    completed: usize,
    dns_done: bool,
    started_at: Option<Nanos>,
    /// The measured page-load time, set when the last response completes.
    pub plt: Option<Nanos>,
    /// DNS queries sent (first + retries).
    pub dns_queries: u64,
    tele: wifiq_telemetry::Telemetry,
    /// Base flow label for this session's connections; connection `c`
    /// reports under `Label::Flow(flow_base + c)`.
    flow_base: u64,
}

impl WebSession {
    /// A session fetching `page` from `station`, starting at `start`.
    pub fn new(station: StationIdx, page: WebPage, start: Nanos) -> WebSession {
        assert!(
            !page.sizes.is_empty(),
            "page must have at least one request"
        );
        WebSession {
            station,
            ac: AccessCategory::Be,
            start,
            page,
            conns: Default::default(),
            next_req: 0,
            completed: 0,
            dns_done: false,
            started_at: None,
            plt: None,
            dns_queries: 0,
            tele: wifiq_telemetry::Telemetry::disabled(),
            flow_base: 0,
        }
    }

    /// Attaches a telemetry handle; each connection's sender reports under
    /// `Label::Flow(flow_base + conn)`. Applies to senders created after
    /// this call (responses not yet started).
    pub fn set_telemetry(&mut self, tele: wifiq_telemetry::Telemetry, flow_base: u64) {
        self.tele = tele;
        self.flow_base = flow_base;
    }

    /// Requests completed so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    fn send_dns_query(&mut self, now: Nanos, ctx: &mut FlowCtx<'_>) {
        self.dns_queries += 1;
        ctx.send(
            NodeAddr::Station(self.station),
            NodeAddr::Server,
            DNS_FLOW,
            DNS_QUERY_LEN,
            self.ac,
            now,
            AppMsg::DnsQuery,
        );
        ctx.timer(TOK_DNS_RETRY, now + RETRY_TIMEOUT);
    }

    /// Client side: issue the next request on connection `c`, if any.
    fn start_next_request(&mut self, c: usize, now: Nanos, ctx: &mut FlowCtx<'_>) {
        if self.next_req >= self.page.sizes.len() {
            self.conns[c].client_req = None;
            return;
        }
        let req = self.next_req;
        self.next_req += 1;
        let size = self.page.sizes[req];
        let conn = &mut self.conns[c];
        conn.client_req = Some(req);
        conn.receiver = Some(TcpReceiver::new());
        conn.expected = size;
        conn.got_any = false;
        self.send_request(c, now, ctx);
    }

    fn send_request(&mut self, c: usize, now: Nanos, ctx: &mut FlowCtx<'_>) {
        let conn = &self.conns[c];
        let req = conn.client_req.expect("request must be active");
        let size = conn.expected;
        ctx.send(
            NodeAddr::Station(self.station),
            NodeAddr::Server,
            c as u64,
            REQUEST_WIRE_LEN,
            self.ac,
            now,
            AppMsg::WebReq { conn: c, size },
        );
        // Morally an HTTP client's connect/response timeout.
        ctx.timer(TOK_REQ_RETRY_BASE + c as u64, now + RETRY_TIMEOUT);
        let _ = req;
    }

    /// Server side: emit a sender outcome for connection `c`.
    fn emit(&mut self, c: usize, out: SendOutcome, now: Nanos, ctx: &mut FlowCtx<'_>) {
        let req = self.conns[c].server_req.expect("server request active");
        for seg in out.segments {
            ctx.send(
                NodeAddr::Server,
                NodeAddr::Station(self.station),
                c as u64,
                seg.wire_len(),
                self.ac,
                now,
                AppMsg::WebTcp { req, seg },
            );
        }
        self.conns[c].rto_deadline = out.rearm_rto;
        if let Some(d) = out.rearm_rto {
            ctx.timer(TOK_RTO_BASE + c as u64, d);
        }
    }

    fn send_client_ack(
        &mut self,
        c: usize,
        req: usize,
        ack: wifiq_transport::TcpSegment,
        now: Nanos,
        ctx: &mut FlowCtx<'_>,
    ) {
        ctx.send(
            NodeAddr::Station(self.station),
            NodeAddr::Server,
            c as u64,
            ack.wire_len(),
            self.ac,
            now,
            AppMsg::WebTcp { req, seg: ack },
        );
    }

    pub(crate) fn on_timer(&mut self, sub: u64, now: Nanos, ctx: &mut FlowCtx<'_>) {
        match sub {
            TOK_START => {
                self.started_at = Some(now);
                self.send_dns_query(now, ctx);
            }
            TOK_DNS_RETRY if !self.dns_done => {
                self.send_dns_query(now, ctx);
            }
            s if (TOK_RTO_BASE..TOK_RTO_BASE + WEB_CONNS as u64).contains(&s) => {
                let c = (s - TOK_RTO_BASE) as usize;
                if self.conns[c].rto_deadline == Some(now) {
                    if let Some(sender) = self.conns[c].sender.as_mut() {
                        let out = sender.on_rto(now);
                        self.emit(c, out, now, ctx);
                    }
                }
            }
            s if (TOK_DELACK_BASE..TOK_DELACK_BASE + WEB_CONNS as u64).contains(&s) => {
                let c = (s - TOK_DELACK_BASE) as usize;
                if self.conns[c].delack_deadline == Some(now) {
                    self.conns[c].delack_deadline = None;
                    let req = self.conns[c].client_req;
                    if let (Some(req), Some(rx)) = (req, self.conns[c].receiver.as_mut()) {
                        if let Some(ack) = rx.on_delack_timer(now) {
                            self.send_client_ack(c, req, ack, now, ctx);
                        }
                    }
                }
            }
            s if (TOK_REQ_RETRY_BASE..TOK_REQ_RETRY_BASE + WEB_CONNS as u64).contains(&s) => {
                let c = (s - TOK_REQ_RETRY_BASE) as usize;
                if self.conns[c].client_req.is_some() && !self.conns[c].got_any {
                    self.send_request(c, now, ctx);
                }
            }
            _ => {}
        }
    }

    pub(crate) fn on_packet(
        &mut self,
        at: Delivery,
        pkt: Packet<AppMsg>,
        now: Nanos,
        ctx: &mut FlowCtx<'_>,
    ) {
        match (pkt.payload, at) {
            (AppMsg::DnsQuery, Delivery::AtServer) => {
                ctx.send(
                    NodeAddr::Server,
                    NodeAddr::Station(self.station),
                    DNS_FLOW,
                    DNS_RESPONSE_LEN,
                    self.ac,
                    now,
                    AppMsg::DnsResponse,
                );
            }
            (AppMsg::DnsResponse, Delivery::AtStation(_)) if !self.dns_done => {
                self.dns_done = true;
                for c in 0..WEB_CONNS {
                    self.start_next_request(c, now, ctx);
                }
            }
            (AppMsg::WebReq { conn, size }, Delivery::AtServer) => {
                // Duplicate GETs (client retries) restart the response —
                // matching an HTTP server re-answering a re-sent request.
                let mut sender = TcpSender::finite(size);
                sender.set_telemetry(self.tele.clone(), self.flow_base + conn as u64);
                let out = sender.start(now);
                // The client's retry carries the same request id it is
                // currently waiting for.
                let req = self.conns[conn].client_req.unwrap_or(usize::MAX);
                self.conns[conn].sender = Some(sender);
                self.conns[conn].server_req = Some(req);
                self.emit(conn, out, now, ctx);
            }
            (AppMsg::WebTcp { req, seg }, Delivery::AtStation(_)) => {
                let c = (pkt.flow % crate::ctx::SUBS_PER_FLOW) as usize;
                if c >= WEB_CONNS || self.conns[c].client_req != Some(req) {
                    return; // stale segment from a previous request
                }
                if seg.len == 0 {
                    return;
                }
                self.conns[c].got_any = true;
                let expected = self.conns[c].expected;
                let out = {
                    let rx = self.conns[c].receiver.as_mut().expect("receiver active");
                    rx.on_data(&seg, now)
                };
                if let Some(ack) = out.ack {
                    self.send_client_ack(c, req, ack, now, ctx);
                }
                if let Some(d) = out.arm_delack {
                    self.conns[c].delack_deadline = Some(d);
                    ctx.timer(TOK_DELACK_BASE + c as u64, d);
                }
                let done = self.conns[c]
                    .receiver
                    .as_ref()
                    .is_some_and(|rx| rx.delivered_bytes >= expected);
                if done {
                    self.completed += 1;
                    self.conns[c].client_req = None;
                    self.start_next_request(c, now, ctx);
                    if self.completed == self.page.sizes.len() && self.plt.is_none() {
                        let t0 = self.started_at.expect("session started");
                        self.plt = Some(now - t0);
                    }
                }
            }
            (AppMsg::WebTcp { req, seg }, Delivery::AtServer) => {
                let c = (pkt.flow % crate::ctx::SUBS_PER_FLOW) as usize;
                if c >= WEB_CONNS || self.conns[c].server_req != Some(req) {
                    return;
                }
                if !seg.is_pure_ack() {
                    return;
                }
                let out = {
                    let tx = self.conns[c].sender.as_mut().expect("sender active");
                    tx.on_ack(&seg, now)
                };
                self.emit(c, out, now, ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiq_mac::Commands;

    fn ctx<'a>(
        cmds: &'a mut Commands<AppMsg>,
        pkt_id: &'a mut u64,
        rng: &'a mut wifiq_sim::SimRng,
    ) -> FlowCtx<'a> {
        FlowCtx {
            base: 0,
            cmds,
            next_pkt_id: pkt_id,
            rng,
        }
    }

    fn rng() -> wifiq_sim::SimRng {
        wifiq_sim::SimRng::new(0)
    }

    fn drain(cmds: &mut Commands<AppMsg>) -> Vec<Packet<AppMsg>> {
        let out = cmds.sends().to_vec();
        *cmds = Commands::new();
        out
    }

    /// Passes one packet through both endpoints of the session (the
    /// station-side and server-side logic live in the same struct),
    /// returning what got sent in response.
    fn step(
        web: &mut WebSession,
        at: Delivery,
        pkt: Packet<AppMsg>,
        now: Nanos,
        pkt_id: &mut u64,
    ) -> Vec<Packet<AppMsg>> {
        let mut cmds = Commands::new();
        web.on_packet(at, pkt, now, &mut ctx(&mut cmds, pkt_id, &mut rng()));
        drain(&mut cmds)
    }

    /// Runs a full page load over a perfect zero-delay "network" that
    /// simply loops every sent packet to its destination endpoint.
    fn run_lossless(page: WebPage) -> (WebSession, u64) {
        let mut web = WebSession::new(0, page, Nanos::ZERO);
        let mut pkt_id = 0u64;
        let mut cmds = Commands::new();
        let mut now = Nanos::ZERO;
        web.on_timer(TOK_START, now, &mut ctx(&mut cmds, &mut pkt_id, &mut rng()));
        let mut in_flight = drain(&mut cmds);
        let mut exchanged = 0u64;
        while let Some(pkt) = in_flight.pop() {
            exchanged += 1;
            assert!(exchanged < 100_000, "page load diverged");
            now += Nanos::from_micros(50);
            let at = match pkt.dst {
                NodeAddr::Server => Delivery::AtServer,
                NodeAddr::Station(i) => Delivery::AtStation(i),
            };
            let replies = step(&mut web, at, pkt, now, &mut pkt_id);
            in_flight.extend(replies);
            if web.plt.is_some() {
                break;
            }
        }
        (web, exchanged)
    }

    #[test]
    fn small_page_completes_losslessly() {
        let (web, _) = run_lossless(WebPage::small());
        assert_eq!(web.completed(), 3);
        assert!(web.plt.is_some());
        assert_eq!(web.dns_queries, 1, "no spurious DNS retries");
    }

    #[test]
    fn large_page_completes_losslessly() {
        let (web, exchanged) = run_lossless(WebPage::large());
        assert_eq!(web.completed(), 110);
        assert!(web.plt.is_some());
        // 3 MB / 1448 B ≈ 2072 data segments plus ACKs and requests.
        assert!(exchanged > 2_000);
    }

    #[test]
    fn dns_retry_fires_until_answered() {
        let mut web = WebSession::new(0, WebPage::small(), Nanos::ZERO);
        let mut pkt_id = 0u64;
        let mut cmds = Commands::new();
        web.on_timer(
            TOK_START,
            Nanos::ZERO,
            &mut ctx(&mut cmds, &mut pkt_id, &mut rng()),
        );
        assert_eq!(cmds.sends().len(), 1, "one DNS query");
        let retry_at = cmds.timers()[0].1;
        let mut cmds = Commands::new();
        // The query was lost; the retry timer fires.
        web.on_timer(
            TOK_DNS_RETRY,
            retry_at,
            &mut ctx(&mut cmds, &mut pkt_id, &mut rng()),
        );
        assert_eq!(cmds.sends().len(), 1, "DNS re-query");
        assert_eq!(web.dns_queries, 2);
    }

    #[test]
    fn duplicate_dns_response_opens_connections_once() {
        let mut web = WebSession::new(0, WebPage::small(), Nanos::ZERO);
        let mut pkt_id = 0u64;
        let mut cmds = Commands::new();
        web.on_timer(
            TOK_START,
            Nanos::ZERO,
            &mut ctx(&mut cmds, &mut pkt_id, &mut rng()),
        );
        let dns_q = drain(&mut cmds).remove(0);
        let resp = step(
            &mut web,
            Delivery::AtServer,
            dns_q,
            Nanos::from_millis(1),
            &mut pkt_id,
        )
        .remove(0);
        let first = step(
            &mut web,
            Delivery::AtStation(0),
            resp.clone(),
            Nanos::from_millis(2),
            &mut pkt_id,
        );
        // Small page (3 requests) over 4 connections: 3 GETs go out.
        let gets = first
            .iter()
            .filter(|p| matches!(p.payload, AppMsg::WebReq { .. }))
            .count();
        assert_eq!(gets, 3);
        // A duplicate DNS response must not double-issue requests.
        let dup = step(
            &mut web,
            Delivery::AtStation(0),
            resp,
            Nanos::from_millis(3),
            &mut pkt_id,
        );
        assert!(
            dup.is_empty(),
            "duplicate DNS response re-triggered requests"
        );
    }

    #[test]
    fn stale_segments_from_previous_request_ignored() {
        let mut web = WebSession::new(0, WebPage::small(), Nanos::ZERO);
        // Fake an active request 1 on connection 0.
        web.dns_done = true;
        web.next_req = 2;
        web.conns[0].client_req = Some(1);
        web.conns[0].receiver = Some(TcpReceiver::new());
        web.conns[0].expected = 10_000;
        let mut pkt_id = 0u64;
        // A data segment tagged with request 0 (stale) arrives.
        let seg = wifiq_transport::TcpSegment {
            seq: 0,
            len: 1448,
            ack: 0,
            sent_at: Nanos::ZERO,
            echo: Nanos::ZERO,
            retransmit: false,
            sack: [(0, 0); 3],
        };
        let pkt = Packet {
            id: 1,
            src: NodeAddr::Server,
            dst: NodeAddr::Station(0),
            flow: 0,
            len: 1500,
            ac: AccessCategory::Be,
            created: Nanos::ZERO,
            enqueued: Nanos::ZERO,
            payload: AppMsg::WebTcp { req: 0, seg },
        };
        let replies = step(
            &mut web,
            Delivery::AtStation(0),
            pkt,
            Nanos::from_millis(1),
            &mut pkt_id,
        );
        assert!(replies.is_empty(), "stale segment must be dropped silently");
        assert_eq!(web.conns[0].receiver.as_ref().unwrap().delivered_bytes, 0);
    }
}
