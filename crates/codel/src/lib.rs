//! CoDel active queue management, adapted for WiFi.
//!
//! Implements the CoDel control law (RFC 8289) the way the Linux kernel
//! structures it, plus the paper's WiFi-specific refinement (§3.1.1):
//! parameters are chosen *per station*, switching to a gentler
//! (target 50 ms, interval 300 ms) setting when the station's rate estimate
//! falls below 12 Mbps, with 2 s hysteresis. The two settings, threshold
//! and hysteresis are one [`CodelSelector`] per network; a station keeps
//! only its [`StationCodel`] state.
//!
//! The state machine is queue-agnostic: anything implementing
//! [`state::CodelQueue`] (the MAC-layer flow queues in `wifiq-core`, the
//! qdisc flow queues in `wifiq-qdisc`) can be managed by a [`CodelState`].

pub mod params;
pub mod state;

pub use params::{CodelParams, CodelSelector, StationCodel};
pub use state::{CodelQueue, CodelState, CodelTele, QueuedPacket};
