//! The airtime-policy runtime: the weight table in force and the switches
//! still to come. Touches the policy state, the AP scheduler's weights and
//! the `policy/*` telemetry, nothing else.

use wifiq_phy::AccessCategory;
use wifiq_policy::{CompiledPolicy, NODE_NONE};
use wifiq_sim::Nanos;
use wifiq_telemetry::Label;

use super::WifiNetwork;
use crate::config::NetworkConfig;
use crate::packet::StationIdx;

/// Compiled airtime-policy state: the active weight table plus pending
/// runtime switches in ascending time order. Exists only when
/// `cfg.policy` is non-empty, so the no-policy path pays one `None`
/// branch per scheduling round and nothing else.
pub(super) struct PolicyRuntime {
    /// The weight table currently applied to the scheduler (`None` until
    /// a timeline with no initial set reaches its first switch).
    active: Option<CompiledPolicy>,
    /// Remaining switches, strictly ascending; applied lazily at the
    /// first scheduler round boundary at or after their due time.
    switches: std::iter::Peekable<std::vec::IntoIter<(Nanos, CompiledPolicy)>>,
    /// Switches applied so far (telemetry).
    applied: u64,
}

impl PolicyRuntime {
    pub(super) fn compile(cfg: &NetworkConfig) -> Option<PolicyRuntime> {
        if cfg.policy.is_none() {
            return None;
        }
        // The builder validates the timeline; a hand-rolled
        // NetworkConfig fails here with the same message.
        let compiled = cfg
            .policy
            .compile(cfg.stations.len())
            .unwrap_or_else(|msg| panic!("invalid policy: {msg}"));
        Some(PolicyRuntime {
            active: compiled.initial,
            switches: compiled.switches.into_iter().peekable(),
            applied: 0,
        })
    }

    /// Puts the next switch in force if its due time has arrived.
    fn advance(&mut self, now: Nanos) -> Option<()> {
        let (_, compiled) = self.switches.next_if(|(due, _)| *due <= now)?;
        self.active = Some(compiled);
        self.applied += 1;
        Some(())
    }
}

/// The policy in force, if any.
pub(super) fn active(policy: &Option<PolicyRuntime>) -> Option<&CompiledPolicy> {
    policy.as_ref()?.active.as_ref()
}

impl<M: std::fmt::Debug> WifiNetwork<M> {
    /// Reports the policy in force (if any) and resolves its per-node
    /// airtime counters. Runs when the sink is attached and after every
    /// switch — never per aggregate.
    pub(super) fn observe_active_policy(&mut self) {
        let Some(active) = active(&self.policy) else {
            return;
        };
        let nodes = active.node_count();
        let tele = &self.obs.tele;
        tele.gauge("policy", "active_nodes", Label::Global, nodes as f64);
        self.obs.mac_tele.nodes = (0..nodes as u32)
            .map(|n| tele.counter_id("policy", "node_airtime_ns", Label::Node(n)))
            .collect();
    }

    /// Pushes the per-(station, AC) weights of the policy in force into
    /// the airtime scheduler. Deficits are untouched — a reweight changes
    /// only future refills, so switches never drain queues or reset
    /// credit already earned by unrelated nodes.
    pub(super) fn push_policy_weights(&mut self) {
        let Some(active) = active(&self.policy) else {
            return;
        };
        // Policy trees address station *slots* (stable wire addressing);
        // resolve each occupied slot to its current handle.
        for slot in 0..self.stations.len() {
            if let Some(id) = self.ap.sta_id(slot) {
                self.ap
                    .set_station_weights(id, active.station_weights(slot));
            }
        }
    }

    /// Applies any policy switches that have come due. Called at the top
    /// of every scheduler round so a switch lands exactly at a round
    /// boundary: in-flight aggregates and queued packets are untouched.
    pub(super) fn poll_policy(&mut self, now: Nanos) {
        while self.policy.as_mut().and_then(|p| p.advance(now)).is_some() {
            self.push_policy_weights();
            self.obs.tele.count("policy", "switches", Label::Global, 1);
            self.observe_active_policy();
        }
    }

    /// Number of policy switches applied so far.
    pub fn policy_switches_applied(&self) -> u64 {
        self.policy.as_ref().map_or(0, |p| p.applied)
    }

    /// The leaf policy node owning `(sta, ac)` under the currently active
    /// policy, or `None` when no policy is in force or the tree does not
    /// cover the slot (a roamer landing there falls back to the neutral
    /// weight).
    pub fn policy_node_of(&self, sta: StationIdx, ac: AccessCategory) -> Option<u32> {
        let node = active(&self.policy)?.node_of(sta, ac.index());
        (node != NODE_NONE).then_some(node)
    }
}
