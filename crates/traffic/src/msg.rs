//! Application payload carried in simulated packets.

use wifiq_mac::Packet;
use wifiq_sim::Nanos;
use wifiq_transport::TcpSegment;

/// The payload enum for all traffic types in the testbed.
#[derive(Debug, Clone)]
pub enum AppMsg {
    /// CBR UDP payload (iperf-style).
    Udp,
    /// ICMP echo request.
    PingReq {
        /// Sequence number of the echo.
        seq: u64,
    },
    /// ICMP echo reply.
    PingRep {
        /// Echoed sequence number.
        seq: u64,
        /// Creation time of the original request (for RTT computation).
        orig_created: Nanos,
    },
    /// One VoIP (RTP) frame.
    Voip {
        /// RTP sequence number.
        seq: u64,
    },
    /// A TCP segment (data or ACK) of a bulk flow or a web connection,
    /// tagged with the request it belongs to. The tag keeps a stale
    /// retransmission from a previous response on a reused web connection
    /// from being mistaken for current data. The segment is boxed so that
    /// the other payloads do not pay for its 96 bytes in every packet the
    /// store holds.
    Tcp {
        /// Request index within the page (`usize::MAX` answers a request
        /// the client no longer awaits); 0 for a bulk flow.
        req: usize,
        /// The segment.
        seg: Box<TcpSegment>,
    },
    /// An HTTP request asking the server to send `size` response bytes on
    /// connection `conn`.
    WebReq {
        /// Connection index within the web session (0–3).
        conn: usize,
        /// Response body size in bytes.
        size: u64,
    },
    /// A DNS query (start of a page load).
    DnsQuery,
    /// The DNS response.
    DnsResponse,
}

// Every packet the network's store holds is a `Packet<AppMsg>`, so a
// payload variant wider than 16 bytes makes every UDP, ping and VoIP
// packet pay for it (DESIGN.md §13, "One store, and tickets"). A TCP
// segment is 96 bytes; inline it would make these 104 and 184.
const _: () = assert!(std::mem::size_of::<AppMsg>() <= 24);
const _: () = assert!(std::mem::size_of::<Packet<AppMsg>>() <= 104);

#[cfg(test)]
mod tests {
    use super::*;

    /// 104 bytes is the packet every experiment runs (the `const`
    /// assertions above hold the bound); it is the number the packet store
    /// keeps in place, while events carry an 8-byte handle and queues a
    /// 40-byte ticket (DESIGN.md §13). Whoever changes it redoes that
    /// section's slot arithmetic — near 40 bytes a ticket stops paying.
    #[test]
    fn a_packet_with_its_payload_is_104_bytes() {
        assert_eq!(std::mem::size_of::<AppMsg>(), 24);
        assert_eq!(std::mem::size_of::<Packet<AppMsg>>(), 104);
    }
}
