//! 802.11e EDCA access categories and their channel-access parameters.
//!
//! The paper's VoIP experiment (§4.2.1) relies on two consequences of the
//! EDCA table: VO traffic gets queueing priority and a much shorter
//! contention window, but *cannot be aggregated*. Both are modelled here.

use wifiq_sim::Nanos;

use crate::consts::SLOT_TIME;

/// The four 802.11e QoS precedence levels, in priority order.
///
/// Each station keeps one airtime deficit per access category
/// (paper §3.2: "four deficits per station, corresponding to the
/// VO, VI, BE and BK 802.11 precedence levels").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessCategory {
    /// Voice — highest priority, no aggregation.
    Vo,
    /// Video.
    Vi,
    /// Best effort — the default for unmarked traffic.
    Be,
    /// Background — lowest priority.
    Bk,
}

impl AccessCategory {
    /// All categories, highest priority first.
    pub const ALL: [AccessCategory; 4] = [
        AccessCategory::Vo,
        AccessCategory::Vi,
        AccessCategory::Be,
        AccessCategory::Bk,
    ];

    /// Number of access categories.
    pub const COUNT: usize = 4;

    /// Dense index (0..4) for per-AC arrays, highest priority first.
    pub const fn index(self) -> usize {
        match self {
            AccessCategory::Vo => 0,
            AccessCategory::Vi => 1,
            AccessCategory::Be => 2,
            AccessCategory::Bk => 3,
        }
    }

    /// Maps a TID (0–15) to its access category, per 802.11e.
    ///
    /// TIDs repeat the 8-value UP cycle: 0–7 map as in the standard
    /// (1,2 → BK; 0,3 → BE; 4,5 → VI; 6,7 → VO) and 8–15 wrap around.
    pub const fn from_tid(tid: u8) -> AccessCategory {
        match tid % 8 {
            1 | 2 => AccessCategory::Bk,
            0 | 3 => AccessCategory::Be,
            4 | 5 => AccessCategory::Vi,
            _ => AccessCategory::Vo,
        }
    }

    /// EDCA parameters for this category (802.11 defaults for OFDM PHYs).
    pub const fn edca(self) -> EdcaParams {
        match self {
            AccessCategory::Vo => EdcaParams {
                aifsn: 2,
                cw_min: 3,
                cw_max: 7,
                may_aggregate: false,
            },
            AccessCategory::Vi => EdcaParams {
                aifsn: 2,
                cw_min: 7,
                cw_max: 15,
                may_aggregate: true,
            },
            AccessCategory::Be => EdcaParams {
                aifsn: 3,
                cw_min: 15,
                cw_max: 1023,
                may_aggregate: true,
            },
            AccessCategory::Bk => EdcaParams {
                aifsn: 7,
                cw_min: 15,
                cw_max: 1023,
                may_aggregate: true,
            },
        }
    }

    /// Short label ("VO", "VI", "BE", "BK").
    pub const fn label(self) -> &'static str {
        match self {
            AccessCategory::Vo => "VO",
            AccessCategory::Vi => "VI",
            AccessCategory::Be => "BE",
            AccessCategory::Bk => "BK",
        }
    }
}

impl std::fmt::Display for AccessCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// EDCA channel-access parameters for one access category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdcaParams {
    /// Arbitration inter-frame space number (slots after SIFS).
    pub aifsn: u32,
    /// Minimum contention window (slots).
    pub cw_min: u32,
    /// Maximum contention window (slots).
    pub cw_max: u32,
    /// Whether frames in this category may be A-MPDU aggregated.
    ///
    /// VO frames get priority and a short CW but forgo aggregation — the
    /// throughput/latency trade the paper's Table 2 explores.
    pub may_aggregate: bool,
}

impl EdcaParams {
    /// The arbitration inter-frame space: `SIFS + AIFSN × slot`.
    pub fn aifs(&self) -> Nanos {
        crate::consts::SIFS + SLOT_TIME * self.aifsn as u64
    }

    /// Doubles the contention window after a failed attempt, capped at
    /// `cw_max`.
    pub fn next_cw(&self, cw: u32) -> u32 {
        ((cw * 2) + 1).min(self.cw_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tid_mapping_matches_standard() {
        assert_eq!(AccessCategory::from_tid(0), AccessCategory::Be);
        assert_eq!(AccessCategory::from_tid(1), AccessCategory::Bk);
        assert_eq!(AccessCategory::from_tid(2), AccessCategory::Bk);
        assert_eq!(AccessCategory::from_tid(3), AccessCategory::Be);
        assert_eq!(AccessCategory::from_tid(4), AccessCategory::Vi);
        assert_eq!(AccessCategory::from_tid(5), AccessCategory::Vi);
        assert_eq!(AccessCategory::from_tid(6), AccessCategory::Vo);
        assert_eq!(AccessCategory::from_tid(7), AccessCategory::Vo);
        // Wrap-around for the second set of 8 TIDs.
        assert_eq!(AccessCategory::from_tid(14), AccessCategory::Vo);
    }

    #[test]
    fn vo_cannot_aggregate() {
        assert!(!AccessCategory::Vo.edca().may_aggregate);
        assert!(AccessCategory::Be.edca().may_aggregate);
    }

    #[test]
    fn vo_has_shorter_cw_than_be() {
        let vo = AccessCategory::Vo.edca();
        let be = AccessCategory::Be.edca();
        assert!(vo.cw_min < be.cw_min);
        assert!(vo.aifs() < be.aifs());
    }

    #[test]
    fn aifs_values() {
        // BE: 16 + 3×9 = 43 µs; VO: 16 + 2×9 = 34 µs.
        assert_eq!(AccessCategory::Be.edca().aifs(), Nanos::from_micros(43));
        assert_eq!(AccessCategory::Vo.edca().aifs(), Nanos::from_micros(34));
    }

    #[test]
    fn cw_doubles_and_caps() {
        let be = AccessCategory::Be.edca();
        assert_eq!(be.next_cw(15), 31);
        assert_eq!(be.next_cw(31), 63);
        assert_eq!(be.next_cw(1023), 1023);
        let vo = AccessCategory::Vo.edca();
        assert_eq!(vo.next_cw(3), 7);
        assert_eq!(vo.next_cw(7), 7);
    }

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; AccessCategory::COUNT];
        for ac in AccessCategory::ALL {
            assert!(!seen[ac.index()]);
            seen[ac.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
