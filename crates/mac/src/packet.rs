//! The simulator's packet type and addressing.

use wifiq_core::packet::{FqPacket, PacketHandle, QueuedPacket};
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

    /// The ticket the queueing layers carry for this packet, stored under
    /// `handle`: its queueing fields as they stand now.
    pub(crate) fn ticket(&self, handle: PacketHandle) -> Ticket {
        Ticket {
            handle,
            len: self.len,
            flow_hash: self.flow_hash(),
            enqueued: self.enqueued,
            peer: u32::try_from(self.wireless_peer()).expect("station slots fit u32"),
            ac: self.ac,
        }
    }
}

/// What every layer between `send` and delivery carries instead of the
/// packet: the packet's handle in its network's store, plus the fields
/// queueing reads (DESIGN.md §13, "One store, and tickets").
///
/// A network writes each packet into its store once, when the application's
/// send is applied, and takes it out once — at delivery, where it drops, or
/// when a roaming hand-off carries it away. The station FIFOs, the MAC FQ
/// structures, the qdiscs and driver FIFOs, both stashes, the aggregates,
/// the hardware queues and the wire hop move this `Copy` value, never the
/// packet. A ticket dropped anywhere must reach the network's drop sink, so
/// that its slot is freed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    /// Where the packet lives in its network's store.
    pub(crate) handle: PacketHandle,
    /// On-wire length in bytes (`Packet::len`).
    pub(crate) len: u64,
    /// The packet's [`FqPacket::flow_hash`], computed once.
    pub(crate) flow_hash: u64,
    /// When the packet entered its current queue (read by CoDel).
    pub(crate) enqueued: Nanos,
    /// The packet's [`Packet::wireless_peer`].
    pub(crate) peer: u32,
    /// The packet's access category.
    pub(crate) ac: AccessCategory,
}

const _: () = assert!(std::mem::size_of::<Ticket>() <= 40);

impl Ticket {
    /// The station this packet concerns on the wireless hop.
    pub(crate) fn peer(&self) -> StationIdx {
        self.peer as StationIdx
    }
}

impl QueuedPacket for Ticket {
    fn enqueue_time(&self) -> Nanos {
        self.enqueued
    }

    fn wire_len(&self) -> u64 {
        self.len
    }
}

impl FqPacket for Ticket {
    fn flow_hash(&self) -> u64 {
        self.flow_hash
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
impl<M> Packet<M> {
    /// A ticket whose handle addresses no store: for the queueing layers'
    /// own unit tests, which carry tickets and never follow them.
    pub(crate) fn loose_ticket(&self) -> Ticket {
        self.ticket(wifiq_core::PacketArena::new().insert(()))
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
    /// name). It is the number the packet store exists to stop copying:
    /// events carry an 8-byte handle and queues a [`Ticket`] instead
    /// (DESIGN.md §13). Whoever shrinks `Packet` moves this pin and redoes
    /// that section's arithmetic — near 40 bytes a ticket stops paying.
    #[test]
    fn packet_with_a_transport_payload_is_184_bytes() {
        assert_eq!(std::mem::size_of::<Packet<[u64; 13]>>(), 184);
    }

    /// A ticket is at most 40 bytes (also a `const` assertion), and a stash
    /// slot holding one costs nothing more: the access category's spare
    /// values encode `None`.
    #[test]
    fn a_ticket_and_a_stash_slot_are_40_bytes() {
        assert_eq!(std::mem::size_of::<Ticket>(), 40);
        assert_eq!(std::mem::size_of::<Option<Ticket>>(), 40);
    }

    #[test]
    fn a_ticket_carries_the_fields_queueing_reads() {
        let mut p = pkt(NodeAddr::Station(3), NodeAddr::Server);
        p.ac = AccessCategory::Vi;
        p.enqueued = Nanos::from_micros(7);
        let t = p.loose_ticket();
        assert_eq!((t.len, t.peer(), t.ac), (1500, 3, AccessCategory::Vi));
        assert_eq!(
            (t.flow_hash(), t.enqueue_time()),
            (p.flow_hash(), p.enqueued)
        );
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
