//! PHY rate definitions: 802.11n HT MCS table and legacy (802.11b/g) rates.
//!
//! Rates are exact: HT rates are derived from bits-per-OFDM-symbol and the
//! symbol duration (4 µs long GI, 3.6 µs short GI) rather than stored as
//! rounded Mbps figures, so durations computed from them are
//! hardware-faithful. MCS15 HT20 short-GI comes out at 144 444 444 bps —
//! the "144.4 Mbps" the paper quotes for its fast stations.

use std::fmt;

use wifiq_sim::Nanos;

use crate::consts::{T_PHY, T_PLCP_LEGACY};

/// Channel width for HT rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelWidth {
    /// 20 MHz channel (52 data subcarriers).
    Ht20,
    /// 40 MHz channel (108 data subcarriers).
    Ht40,
}

/// Legacy (pre-802.11n) rates. These cannot carry A-MPDU aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LegacyRate {
    /// 1 Mbps DSSS — the rate the 30-station experiment's slow client uses.
    Dsss1,
    /// 2 Mbps DSSS.
    Dsss2,
    /// 5.5 Mbps HR-DSSS.
    Dsss5_5,
    /// 11 Mbps HR-DSSS.
    Dsss11,
    /// 6 Mbps OFDM.
    Ofdm6,
    /// 9 Mbps OFDM.
    Ofdm9,
    /// 12 Mbps OFDM.
    Ofdm12,
    /// 18 Mbps OFDM.
    Ofdm18,
    /// 24 Mbps OFDM.
    Ofdm24,
    /// 36 Mbps OFDM.
    Ofdm36,
    /// 48 Mbps OFDM.
    Ofdm48,
    /// 54 Mbps OFDM.
    Ofdm54,
}

impl LegacyRate {
    /// Data rate in bits per second.
    pub const fn bits_per_second(self) -> u64 {
        match self {
            LegacyRate::Dsss1 => 1_000_000,
            LegacyRate::Dsss2 => 2_000_000,
            LegacyRate::Dsss5_5 => 5_500_000,
            LegacyRate::Dsss11 => 11_000_000,
            LegacyRate::Ofdm6 => 6_000_000,
            LegacyRate::Ofdm9 => 9_000_000,
            LegacyRate::Ofdm12 => 12_000_000,
            LegacyRate::Ofdm18 => 18_000_000,
            LegacyRate::Ofdm24 => 24_000_000,
            LegacyRate::Ofdm36 => 36_000_000,
            LegacyRate::Ofdm48 => 48_000_000,
            LegacyRate::Ofdm54 => 54_000_000,
        }
    }

    const fn is_dsss(self) -> bool {
        matches!(
            self,
            LegacyRate::Dsss1 | LegacyRate::Dsss2 | LegacyRate::Dsss5_5 | LegacyRate::Dsss11
        )
    }
}

/// VHT (802.11ac) channel width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VhtWidth {
    /// 20 MHz (52 data subcarriers).
    Mhz20,
    /// 40 MHz (108 data subcarriers).
    Mhz40,
    /// 80 MHz (234 data subcarriers).
    Mhz80,
}

/// A PHY transmission rate: an HT (802.11n) MCS, a VHT (802.11ac) MCS,
/// or a legacy rate.
///
/// # Examples
///
/// ```
/// use wifiq_phy::rates::{ChannelWidth, PhyRate};
///
/// // The paper's fast stations: MCS15, HT20, short GI = 144.4 Mbps.
/// let fast = PhyRate::ht(15, ChannelWidth::Ht20, true);
/// assert_eq!(fast.bits_per_second(), 144_444_444);
///
/// // The paper's slow station: MCS0 = 7.2 Mbps.
/// let slow = PhyRate::ht(0, ChannelWidth::Ht20, true);
/// assert_eq!(slow.bits_per_second(), 7_222_222);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhyRate {
    /// High-throughput (802.11n) rate.
    Ht {
        /// MCS index, 0–15 (two spatial streams max in this model).
        mcs: u8,
        /// Channel width.
        width: ChannelWidth,
        /// Short guard interval (3.6 µs symbols instead of 4 µs).
        short_gi: bool,
    },
    /// Very-high-throughput (802.11ac) rate — the ath10k side of the
    /// paper's implementation (which got the FQ structure but not the
    /// airtime scheduler).
    Vht {
        /// MCS index, 0–9.
        mcs: u8,
        /// Spatial streams, 1–4.
        streams: u8,
        /// Channel width.
        width: VhtWidth,
        /// Short guard interval.
        short_gi: bool,
    },
    /// Legacy rate; frames at this rate cannot be aggregated.
    Legacy(LegacyRate),
}

/// Bits carried per OFDM symbol for HT20, MCS 0–7 (one spatial stream).
const HT20_BITS_PER_SYMBOL: [u64; 8] = [26, 52, 78, 104, 156, 208, 234, 260];
/// Bits carried per OFDM symbol for HT40, MCS 0–7 (one spatial stream).
const HT40_BITS_PER_SYMBOL: [u64; 8] = [54, 108, 162, 216, 324, 432, 486, 540];

/// VHT bits-per-subcarrier × coding rate per MCS, as (numerator,
/// denominator) of `bpscs × R`.
const VHT_MCS_BITS: [(u64, u64); 10] = [
    (1, 2),  // BPSK 1/2
    (1, 1),  // QPSK 1/2
    (3, 2),  // QPSK 3/4
    (2, 1),  // 16-QAM 1/2
    (3, 1),  // 16-QAM 3/4
    (4, 1),  // 64-QAM 2/3
    (9, 2),  // 64-QAM 3/4
    (5, 1),  // 64-QAM 5/6
    (6, 1),  // 256-QAM 3/4
    (20, 3), // 256-QAM 5/6
];

/// Long guard-interval OFDM symbol duration (4 µs).
const SYMBOL_LGI: Nanos = Nanos::from_nanos(4_000);
/// Short guard-interval OFDM symbol duration (3.6 µs).
const SYMBOL_SGI: Nanos = Nanos::from_nanos(3_600);

impl PhyRate {
    /// Convenience constructor for an HT rate.
    ///
    /// # Panics
    ///
    /// Panics if `mcs > 15`.
    pub const fn ht(mcs: u8, width: ChannelWidth, short_gi: bool) -> PhyRate {
        assert!(mcs <= 15, "MCS index out of range (0..=15)");
        PhyRate::Ht {
            mcs,
            width,
            short_gi,
        }
    }

    /// The paper's "fast station" rate: MCS15, HT20, short GI (144.4 Mbps).
    pub const fn fast_station() -> PhyRate {
        PhyRate::ht(15, ChannelWidth::Ht20, true)
    }

    /// The paper's "slow station" rate: MCS0, HT20, short GI (7.2 Mbps).
    pub const fn slow_station() -> PhyRate {
        PhyRate::ht(0, ChannelWidth::Ht20, true)
    }

    /// Convenience constructor for a VHT (802.11ac) rate.
    ///
    /// # Panics
    ///
    /// Panics if `mcs > 9`, `streams` is 0 or greater than 4, or the
    /// combination is undefined in the standard (the bits-per-symbol
    /// product is fractional, e.g. MCS9 at 20 MHz single-stream).
    pub fn vht(mcs: u8, streams: u8, width: VhtWidth, short_gi: bool) -> PhyRate {
        assert!(mcs <= 9, "VHT MCS index out of range (0..=9)");
        assert!(
            (1..=4).contains(&streams),
            "VHT streams out of range (1..=4)"
        );
        let rate = PhyRate::Vht {
            mcs,
            streams,
            width,
            short_gi,
        };
        assert!(
            Self::vht_bits_per_symbol(mcs, streams, width) > 0,
            "invalid VHT combination: MCS{mcs} x {streams}ss at {width:?}"
        );
        rate
    }

    /// Bits per OFDM symbol for a VHT rate; 0 if the combination is not
    /// defined by the standard (fractional product).
    fn vht_bits_per_symbol(mcs: u8, streams: u8, width: VhtWidth) -> u64 {
        let nsd = match width {
            VhtWidth::Mhz20 => 52,
            VhtWidth::Mhz40 => 108,
            VhtWidth::Mhz80 => 234,
        };
        let (num, den) = VHT_MCS_BITS[mcs as usize];
        let total = nsd * streams as u64 * num;
        if !total.is_multiple_of(den) {
            return 0;
        }
        total / den
    }

    /// Bits per OFDM symbol (HT rates only).
    fn ht_bits_per_symbol(mcs: u8, width: ChannelWidth) -> u64 {
        let streams = (mcs / 8 + 1) as u64;
        let idx = (mcs % 8) as usize;
        let per_stream = match width {
            ChannelWidth::Ht20 => HT20_BITS_PER_SYMBOL[idx],
            ChannelWidth::Ht40 => HT40_BITS_PER_SYMBOL[idx],
        };
        per_stream * streams
    }

    /// Data rate in bits per second (truncated to whole bps).
    pub fn bits_per_second(self) -> u64 {
        match self {
            PhyRate::Ht {
                mcs,
                width,
                short_gi,
            } => {
                let bits = Self::ht_bits_per_symbol(mcs, width);
                let symbol = if short_gi { SYMBOL_SGI } else { SYMBOL_LGI };
                bits * 1_000_000_000 / symbol.as_nanos()
            }
            PhyRate::Vht {
                mcs,
                streams,
                width,
                short_gi,
            } => {
                let bits = Self::vht_bits_per_symbol(mcs, streams, width);
                let symbol = if short_gi { SYMBOL_SGI } else { SYMBOL_LGI };
                bits * 1_000_000_000 / symbol.as_nanos()
            }
            PhyRate::Legacy(r) => r.bits_per_second(),
        }
    }

    /// Whether frames at this rate may be carried in an A-MPDU aggregate.
    ///
    /// HT and VHT rates aggregate; the 1 Mbps legacy client in the
    /// 30-station experiment transmits one MPDU per access.
    pub fn supports_aggregation(self) -> bool {
        matches!(self, PhyRate::Ht { .. } | PhyRate::Vht { .. })
    }

    /// Maximum A-MPDU length at this rate: 65 535 bytes for HT, 1 MiB−1
    /// for VHT (the 802.11ac extension that makes large aggregates
    /// possible at gigabit rates).
    pub fn max_ampdu_bytes(self) -> u64 {
        match self {
            PhyRate::Vht { .. } => 1_048_575,
            _ => crate::consts::MAX_AMPDU_BYTES,
        }
    }

    /// PHY preamble + header duration for a frame at this rate.
    pub fn preamble(self) -> Nanos {
        match self {
            // VHT preambles are a few µs longer than HT's in mixed mode;
            // the model's T_phy is close enough for both.
            PhyRate::Ht { .. } | PhyRate::Vht { .. } => T_PHY,
            PhyRate::Legacy(r) => {
                if r.is_dsss() {
                    T_PLCP_LEGACY
                } else {
                    // Legacy OFDM short training + signal field: 20 µs.
                    Nanos::from_micros(20)
                }
            }
        }
    }

    /// On-air duration of `bytes` of payload at this rate, *excluding* the
    /// preamble, quantized up to whole OFDM symbols where applicable.
    pub fn payload_duration(self, bytes: u64) -> Nanos {
        let bits = bytes * 8;
        match self {
            PhyRate::Ht {
                mcs,
                width,
                short_gi,
            } => {
                let bps_sym = Self::ht_bits_per_symbol(mcs, width);
                let symbol = if short_gi { SYMBOL_SGI } else { SYMBOL_LGI };
                let symbols = bits.div_ceil(bps_sym);
                symbol * symbols
            }
            PhyRate::Vht {
                mcs,
                streams,
                width,
                short_gi,
            } => {
                let bps_sym = Self::vht_bits_per_symbol(mcs, streams, width);
                let symbol = if short_gi { SYMBOL_SGI } else { SYMBOL_LGI };
                let symbols = bits.div_ceil(bps_sym);
                symbol * symbols
            }
            PhyRate::Legacy(r) => Nanos::for_bits(bits, r.bits_per_second()),
        }
    }

    /// Full on-air duration of `bytes` at this rate: preamble + payload.
    pub fn data_duration(self, bytes: u64) -> Nanos {
        self.preamble() + self.payload_duration(bytes)
    }
}

impl fmt::Display for PhyRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhyRate::Ht {
                mcs,
                width,
                short_gi,
            } => {
                let w = match width {
                    ChannelWidth::Ht20 => "HT20",
                    ChannelWidth::Ht40 => "HT40",
                };
                let gi = if *short_gi { "SGI" } else { "LGI" };
                write!(
                    f,
                    "MCS{mcs}/{w}/{gi} ({:.1} Mbps)",
                    self.bits_per_second() as f64 / 1e6
                )
            }
            PhyRate::Vht {
                mcs,
                streams,
                width,
                short_gi,
            } => {
                let w = match width {
                    VhtWidth::Mhz20 => "VHT20",
                    VhtWidth::Mhz40 => "VHT40",
                    VhtWidth::Mhz80 => "VHT80",
                };
                let gi = if *short_gi { "SGI" } else { "LGI" };
                write!(
                    f,
                    "MCS{mcs}/{streams}ss/{w}/{gi} ({:.1} Mbps)",
                    self.bits_per_second() as f64 / 1e6
                )
            }
            PhyRate::Legacy(r) => {
                write!(f, "legacy {:.1} Mbps", r.bits_per_second() as f64 / 1e6)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ht20_sgi_table_matches_standard() {
        // Mbps values from the 802.11n rate table, two streams at MCS8+.
        let expect = [
            (0u8, 7.2),
            (1, 14.4),
            (2, 21.7),
            (3, 28.9),
            (4, 43.3),
            (5, 57.8),
            (6, 65.0),
            (7, 72.2),
            (8, 14.4),
            (15, 144.4),
        ];
        for (mcs, mbps) in expect {
            let r = PhyRate::ht(mcs, ChannelWidth::Ht20, true);
            let got = r.bits_per_second() as f64 / 1e6;
            assert!(
                (got - mbps).abs() < 0.05,
                "MCS{mcs}: got {got}, want {mbps}"
            );
        }
    }

    #[test]
    fn ht20_lgi_table_matches_standard() {
        let expect = [(0u8, 6.5), (7, 65.0), (15, 130.0)];
        for (mcs, mbps) in expect {
            let r = PhyRate::ht(mcs, ChannelWidth::Ht20, false);
            let got = r.bits_per_second() as f64 / 1e6;
            assert!((got - mbps).abs() < 0.05, "MCS{mcs}: got {got}");
        }
    }

    #[test]
    fn ht40_rates() {
        let r = PhyRate::ht(7, ChannelWidth::Ht40, true);
        assert!((r.bits_per_second() as f64 / 1e6 - 150.0).abs() < 0.05);
        let r = PhyRate::ht(15, ChannelWidth::Ht40, false);
        assert!((r.bits_per_second() as f64 / 1e6 - 270.0).abs() < 0.05);
    }

    #[test]
    fn paper_station_rates() {
        assert_eq!(PhyRate::fast_station().bits_per_second(), 144_444_444);
        assert_eq!(PhyRate::slow_station().bits_per_second(), 7_222_222);
    }

    #[test]
    fn aggregation_support() {
        assert!(PhyRate::fast_station().supports_aggregation());
        assert!(!PhyRate::Legacy(LegacyRate::Dsss1).supports_aggregation());
    }

    #[test]
    fn payload_duration_is_symbol_quantized() {
        let r = PhyRate::ht(15, ChannelWidth::Ht20, true);
        // 520 bits/symbol: 65 bytes = 520 bits = exactly 1 symbol.
        assert_eq!(r.payload_duration(65), Nanos::from_nanos(3_600));
        // 66 bytes needs 2 symbols.
        assert_eq!(r.payload_duration(66), Nanos::from_nanos(7_200));
    }

    #[test]
    fn legacy_durations() {
        let r = PhyRate::Legacy(LegacyRate::Dsss1);
        // 1500 bytes at 1 Mbps = 12 ms + 192 µs preamble.
        assert_eq!(
            r.data_duration(1500),
            Nanos::from_millis(12) + Nanos::from_micros(192)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            format!("{}", PhyRate::fast_station()),
            "MCS15/HT20/SGI (144.4 Mbps)"
        );
        assert_eq!(
            format!("{}", PhyRate::Legacy(LegacyRate::Dsss1)),
            "legacy 1.0 Mbps"
        );
    }

    #[test]
    fn vht_rate_table_spot_checks() {
        // Published 802.11ac rates (Mbps).
        let cases = [
            (0u8, 1u8, VhtWidth::Mhz80, true, 32.5),
            (9, 1, VhtWidth::Mhz80, true, 433.3),
            (9, 2, VhtWidth::Mhz80, true, 866.7),
            (7, 1, VhtWidth::Mhz20, false, 65.0),
            (9, 1, VhtWidth::Mhz40, true, 200.0),
        ];
        for (mcs, ss, w, sgi, mbps) in cases {
            let r = PhyRate::vht(mcs, ss, w, sgi);
            let got = r.bits_per_second() as f64 / 1e6;
            assert!(
                (got - mbps).abs() < 0.1,
                "VHT MCS{mcs}/{ss}ss: got {got}, want {mbps}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid VHT combination")]
    fn vht_mcs9_20mhz_1ss_is_undefined() {
        PhyRate::vht(9, 1, VhtWidth::Mhz20, true);
    }

    #[test]
    fn vht_aggregation_and_caps() {
        let r = PhyRate::vht(9, 2, VhtWidth::Mhz80, true);
        assert!(r.supports_aggregation());
        assert_eq!(r.max_ampdu_bytes(), 1_048_575);
        assert_eq!(PhyRate::fast_station().max_ampdu_bytes(), 65_535);
    }

    #[test]
    fn vht_display() {
        assert_eq!(
            format!("{}", PhyRate::vht(9, 2, VhtWidth::Mhz80, true)),
            "MCS9/2ss/VHT80/SGI (866.7 Mbps)"
        );
    }

    #[test]
    fn legacy_ofdm_preamble() {
        assert_eq!(
            PhyRate::Legacy(LegacyRate::Ofdm54).preamble(),
            Nanos::from_micros(20)
        );
    }
}
