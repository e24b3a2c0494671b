//! The simulator's packet type and addressing.

use wifiq_core::packet::{FqPacket, QueuedPacket};
use wifiq_phy::AccessCategory;
use wifiq_sim::Nanos;

/// Index of a wireless station (0-based; the AP and the wired server are
/// addressed separately).
pub type StationIdx = usize;

/// Where a packet is headed (or came from).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeAddr {
    /// The wired server behind the AP.
    Server,
    /// Wireless station `i`.
    Station(StationIdx),
}

/// A simulated IP packet.
///
/// `M` is the opaque application payload (TCP segment, ping body, …)
/// interpreted only by the experiment's application layer — the MAC treats
/// it as freight.
#[derive(Debug, Clone)]
pub struct Packet<M> {
    /// Monotonic packet id (diagnostics).
    pub id: u64,
    /// Origin endpoint.
    pub src: NodeAddr,
    /// Destination endpoint.
    pub dst: NodeAddr,
    /// Transport-flow identifier; the FQ structures hash on this.
    pub flow: u64,
    /// On-wire length in bytes (IP packet size).
    pub len: u64,
    /// QoS marking, mapping to an 802.11e access category.
    pub ac: AccessCategory,
    /// When the packet was created by the sending application.
    pub created: Nanos,
    /// When the packet entered its current queue (stamped by the queueing
    /// layer; read by CoDel at dequeue — Algorithm 1 line 9).
    pub enqueued: Nanos,
    /// Application payload.
    pub payload: M,
}

impl<M> Packet<M> {
    /// Station index this packet concerns on the wireless hop: the
    /// destination for downlink, the source for uplink.
    ///
    /// # Panics
    ///
    /// Panics if neither endpoint is a station (server→server packets
    /// never touch the wireless hop).
    pub fn wireless_peer(&self) -> StationIdx {
        match (self.src, self.dst) {
            (_, NodeAddr::Station(i)) => i,
            (NodeAddr::Station(i), _) => i,
            _ => panic!(
                "packet {:?} -> {:?} never crosses the WiFi hop",
                self.src, self.dst
            ),
        }
    }

    /// True if this packet travels AP → station.
    pub fn is_downlink(&self) -> bool {
        matches!(self.dst, NodeAddr::Station(_))
    }
}

impl<M> QueuedPacket for Packet<M> {
    fn enqueue_time(&self) -> Nanos {
        self.enqueued
    }

    fn wire_len(&self) -> u64 {
        self.len
    }
}

impl<M> FqPacket for Packet<M> {
    fn flow_hash(&self) -> u64 {
        // splitmix64 of the flow id: stable, well-spread.
        let mut z = self.flow.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(src: NodeAddr, dst: NodeAddr) -> Packet<()> {
        Packet {
            id: 0,
            src,
            dst,
            flow: 7,
            len: 1500,
            ac: AccessCategory::Be,
            created: Nanos::ZERO,
            enqueued: Nanos::ZERO,
            payload: (),
        }
    }

    /// 184 bytes is `Packet<AppMsg>`, the packet every experiment runs
    /// (`[u64; 13]` stands in for the 104-byte `AppMsg` this crate cannot
    /// name). It is the number the wire-hop parking arena exists to stop
    /// copying: events carry an 8-byte handle instead (DESIGN.md §13,
    /// "Event sizes"). Whoever shrinks `Packet` moves this pin and redoes
    /// that section's arithmetic — below ~32 bytes parking stops paying.
    #[test]
    fn packet_with_a_transport_payload_is_184_bytes() {
        assert_eq!(std::mem::size_of::<Packet<[u64; 13]>>(), 184);
    }

    #[test]
    fn wireless_peer_resolution() {
        assert_eq!(
            pkt(NodeAddr::Server, NodeAddr::Station(2)).wireless_peer(),
            2
        );
        assert_eq!(
            pkt(NodeAddr::Station(5), NodeAddr::Server).wireless_peer(),
            5
        );
        assert!(pkt(NodeAddr::Server, NodeAddr::Station(0)).is_downlink());
        assert!(!pkt(NodeAddr::Station(0), NodeAddr::Server).is_downlink());
    }

    #[test]
    #[should_panic(expected = "never crosses")]
    fn server_to_server_panics() {
        pkt(NodeAddr::Server, NodeAddr::Server).wireless_peer();
    }

    #[test]
    fn flow_hash_is_stable_and_spread() {
        let a = pkt(NodeAddr::Server, NodeAddr::Station(0));
        let mut b = pkt(NodeAddr::Server, NodeAddr::Station(0));
        assert_eq!(a.flow_hash(), b.flow_hash());
        b.flow = 8;
        assert_ne!(a.flow_hash(), b.flow_hash());
    }
}
