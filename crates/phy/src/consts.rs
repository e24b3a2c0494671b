//! 802.11 timing and framing constants.
//!
//! Values follow the paper's analytical model (Section 2.2.1) and its source
//! for the constants, Kim et al. \[16\]. Where the full standard differs in
//! detail (e.g. per-AC AIFS), the EDCA table in [`crate::edca`] carries the
//! per-access-category values and these constants carry the model's.

use wifiq_sim::Nanos;

/// Slot time for OFDM PHYs (9 µs).
pub const SLOT_TIME: Nanos = Nanos::from_micros(9);

/// Short Inter-Frame Space, `T_SIFS` = 16 µs.
pub const SIFS: Nanos = Nanos::from_micros(16);

/// Distributed Inter-Frame Space, `T_DIFS` = 34 µs (SIFS + 2 slots).
pub const DIFS: Nanos = Nanos::from_micros(34);

/// PHY preamble + header transmission time, `T_phy` = 32 µs (HT mixed mode).
pub const T_PHY: Nanos = Nanos::from_micros(32);

/// Long-preamble PLCP duration for legacy DSSS rates (192 µs).
///
/// Used by the 1 Mbps station in the 30-station experiment; legacy frames
/// pay this instead of [`T_PHY`].
pub const T_PLCP_LEGACY: Nanos = Nanos::from_micros(192);

/// Mean backoff used by the analytical model: `T_BO ≈ slot × CW_min / 2`.
///
/// With CW_min = 15 and 9 µs slots this is 67.5 µs; the paper rounds to
/// 68 µs, and we keep the exact value (the 0.5 µs difference is far below
/// the model's other approximations).
pub const T_BO_MEAN: Nanos = Nanos::from_nanos(9_000 * 15 / 2);

/// Size of a Block Acknowledgement frame in bytes, per the paper's model
/// (`T_ack = T_SIFS + 8 × 58 / r_i`).
pub const BLOCK_ACK_BYTES: u64 = 58;

/// Size of a legacy ACK frame in bytes (for non-aggregated transmissions).
pub const ACK_BYTES: u64 = 14;

/// A-MPDU subframe delimiter length, `L_delim` = 4 bytes.
pub const L_DELIM: u64 = 4;

/// MAC header length, `L_mac` = 34 bytes (QoS data frame).
pub const L_MAC: u64 = 34;

/// Frame Check Sequence length, `L_FCS` = 4 bytes.
pub const L_FCS: u64 = 4;

/// Maximum A-MPDU length in bytes (HT, 2^16 − 1).
pub const MAX_AMPDU_BYTES: u64 = 65_535;

/// BlockAck window: maximum number of MPDUs in one A-MPDU.
pub const BA_WINDOW: usize = 64;

/// Maximum airtime one aggregate may occupy (ath9k limits aggregates to
/// 4 ms so a slow station cannot monopolise the medium with one frame).
pub const MAX_AGGREGATE_AIRTIME: Nanos = Nanos::from_millis(4);

/// Per-MPDU overhead inside an A-MPDU, before padding:
/// delimiter + MAC header + FCS.
pub const MPDU_OVERHEAD: u64 = L_DELIM + L_MAC + L_FCS;

/// Pads a subframe length up to the next multiple of four bytes.
#[inline]
pub const fn pad4(len: u64) -> u64 {
    len.div_ceil(4) * 4
}

/// The on-air length in bytes of one A-MPDU subframe carrying an `l`-byte
/// packet: `l + L_delim + L_mac + L_FCS + L_pad` (paper eq. 1, inner term).
#[inline]
pub const fn subframe_len(l: u64) -> u64 {
    pad4(l + MPDU_OVERHEAD)
}

/// The on-air length of an `n`-subframe A-MPDU of `l`-byte packets
/// (paper eq. 1).
#[inline]
pub const fn ampdu_len(n: u64, l: u64) -> u64 {
    n * subframe_len(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difs_is_sifs_plus_two_slots() {
        assert_eq!(DIFS, SIFS + SLOT_TIME * 2);
    }

    #[test]
    fn mean_backoff_matches_model() {
        // The paper uses T_BO ≈ T_slot × (CW_min / 2) = 67.5 µs (rounded to
        // 68 in the text).
        assert_eq!(T_BO_MEAN, Nanos::from_nanos(67_500));
    }

    #[test]
    fn pad4_boundaries() {
        assert_eq!(pad4(0), 0);
        assert_eq!(pad4(1), 4);
        assert_eq!(pad4(4), 4);
        assert_eq!(pad4(5), 8);
        assert_eq!(pad4(1542), 1544);
    }

    #[test]
    fn subframe_len_for_1500_byte_packet() {
        // 1500 + 4 + 34 + 4 = 1542, padded to 1544. This value anchors the
        // Table 1 model reproduction.
        assert_eq!(subframe_len(1500), 1544);
    }

    #[test]
    fn ampdu_len_scales_linearly() {
        assert_eq!(ampdu_len(0, 1500), 0);
        assert_eq!(ampdu_len(1, 1500), 1544);
        assert_eq!(ampdu_len(10, 1500), 15_440);
    }
}
