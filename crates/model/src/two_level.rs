//! Two-level (A-MSDU inside A-MPDU) aggregation model — the extension the
//! paper's footnote 1 defers to Kim et al. \[16\].
//!
//! 802.11n permits packing several MSDUs into one MPDU (A-MSDU) before
//! aggregating MPDUs into an A-MPDU. A-MSDU amortises the MAC header and
//! FCS across packets, which matters most for small frames; its cost is
//! that one corrupted MPDU loses every MSDU inside it (not modelled here —
//! the paper's analysis assumes no transmission errors, and so does this).

use wifiq_phy::consts::{self, pad4};
use wifiq_phy::PhyRate;

use crate::{t_overhead, ModelStation};

/// A-MSDU subframe header: DA (6) + SA (6) + length (2) bytes.
pub const L_MSDU_HDR: u64 = 14;

/// Maximum A-MSDU length under HT (bytes).
pub const MAX_AMSDU_BYTES: u64 = 7_935;

/// On-air length of one MPDU carrying `n_msdu` MSDUs of `l` bytes each.
///
/// Each MSDU is prefixed with the 14-byte subframe header and padded to a
/// four-byte boundary; the MPDU adds the MAC header and FCS.
pub fn mpdu_len(n_msdu: u64, l: u64) -> u64 {
    consts::L_MAC + n_msdu * pad4(l + L_MSDU_HDR) + consts::L_FCS
}

/// On-air length of the full two-level aggregate:
/// `n_mpdu` MPDUs (each carrying `n_msdu` MSDUs of `l` bytes), with the
/// per-MPDU delimiter and padding of eq. 1.
pub fn aggregate_len(n_mpdu: f64, n_msdu: u64, l: u64) -> f64 {
    n_mpdu * pad4(mpdu_len(n_msdu, l) + consts::L_DELIM) as f64
}

/// Largest `n_msdu` that keeps the MPDU within the A-MSDU length cap.
pub fn max_msdus(l: u64) -> u64 {
    (MAX_AMSDU_BYTES / pad4(l + L_MSDU_HDR)).max(1)
}

/// Data transmission time (eq. 2 generalised): `T_phy + 8L/r` seconds.
pub fn t_data(n_mpdu: f64, n_msdu: u64, l: u64, rate: PhyRate) -> f64 {
    consts::T_PHY.as_secs_f64()
        + 8.0 * aggregate_len(n_mpdu, n_msdu, l) / rate.bits_per_second() as f64
}

/// Expected station rate with two-level aggregation and no contention
/// (eq. 3 generalised): goodput of `n_mpdu × n_msdu` payloads of `l`
/// bytes per exchange.
pub fn base_rate(n_mpdu: f64, n_msdu: u64, l: u64, rate: PhyRate) -> f64 {
    if n_mpdu <= 0.0 || n_msdu == 0 {
        return 0.0;
    }
    8.0 * n_mpdu * n_msdu as f64 * l as f64 / (t_data(n_mpdu, n_msdu, l, rate) + t_overhead(rate))
}

/// Convenience: the single-level prediction for comparison, using the
/// same station description.
pub fn single_level_rate(s: &ModelStation) -> f64 {
    crate::base_rate(s.aggregation, s.packet_len, s.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpdu_len_structure() {
        // One 1500-byte MSDU: 34 + pad4(1514) + 4 = 34 + 1516 + 4 = 1554.
        assert_eq!(mpdu_len(1, 1500), 1554);
        // Two MSDUs amortise nothing at the MAC layer but share one FCS.
        assert_eq!(mpdu_len(2, 1500), 34 + 2 * 1516 + 4);
    }

    #[test]
    fn max_msdus_respects_cap() {
        // 1516-byte subframes: 7935 / 1516 = 5.
        assert_eq!(max_msdus(1500), 5);
        // Tiny frames pack much deeper.
        assert!(max_msdus(100) > 60);
        // Oversized frames still allow one.
        assert_eq!(max_msdus(9000), 1);
    }

    #[test]
    fn two_level_beats_single_level_for_small_packets() {
        // 200-byte packets (VoIP-ish): A-MSDU amortises the 38-byte
        // MAC+FCS overhead and the 4-byte delimiter across packets.
        let rate = PhyRate::fast_station();
        let l = 200;
        // Same total packets per exchange: 32 MPDUs × 2 MSDUs vs 64 MPDUs.
        let single = crate::base_rate(64.0, l, rate);
        let two = base_rate(32.0, 2, l, rate);
        assert!(
            two > single,
            "two-level {two:.0} should beat single-level {single:.0} for small packets"
        );
    }

    #[test]
    fn two_level_overhead_is_real_for_large_packets() {
        // For full-size packets the extra 14-byte subframe header is pure
        // cost at equal packet count.
        let rate = PhyRate::fast_station();
        let single = crate::base_rate(16.0, 1500, rate);
        let two = base_rate(16.0, 1, 1500, rate);
        assert!(two < single);
        // But the gap is small (< 2%).
        assert!((single - two) / single < 0.02);
    }

    #[test]
    fn rate_monotone_in_both_levels() {
        let rate = PhyRate::fast_station();
        assert!(base_rate(4.0, 2, 800, rate) > base_rate(4.0, 1, 800, rate));
        assert!(base_rate(8.0, 2, 800, rate) > base_rate(4.0, 2, 800, rate));
    }

    #[test]
    fn degenerate_inputs() {
        let rate = PhyRate::fast_station();
        assert_eq!(base_rate(0.0, 2, 800, rate), 0.0);
        assert_eq!(base_rate(4.0, 0, 800, rate), 0.0);
    }
}
