//! Named trace profiles standing in for the paper's datasets (Table 2.3).
//!
//! Each profile maps to a [`TraceConfig`] whose load level, payload presence
//! and flow dynamics are chosen to mimic the corresponding trace:
//!
//! | Profile    | Paper trace | Properties reproduced                           |
//! |------------|-------------|-------------------------------------------------|
//! | `CescaI`   | CESCA-I     | header-only, ~360 Mbps average, moderate churn  |
//! | `CescaII`  | CESCA-II    | full payloads, ~133 Mbps, lower packet rate     |
//! | `Abilene`  | ABILENE     | header-only backbone trace, high rate           |
//! | `Cenic`    | CENIC       | header-only, very bursty (peak ≈ 4x avg)        |
//! | `UpcI`     | UPC-I       | full payloads, campus access link               |
//!
//! Absolute data rates are scaled down (packets per 100 ms batch) so that the
//! default experiment runs complete quickly; the *relative* differences
//! between profiles are preserved.

use crate::generator::TraceConfig;

/// A named synthetic stand-in for one of the paper's packet traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceProfile {
    /// CESCA-I: Catalan research network, packet headers only.
    CescaI,
    /// CESCA-II: Catalan research network, full payloads.
    CescaII,
    /// ABILENE: Internet2 backbone, headers only, high packet rate.
    Abilene,
    /// CENIC: 10 Gb/s backbone link, headers only, very bursty.
    Cenic,
    /// UPC-I: campus access link, full payloads.
    UpcI,
}

impl TraceProfile {
    /// All profiles, in the order used by the evaluation chapters.
    pub const ALL: [TraceProfile; 5] = [
        TraceProfile::CescaI,
        TraceProfile::CescaII,
        TraceProfile::Abilene,
        TraceProfile::Cenic,
        TraceProfile::UpcI,
    ];

    /// Human-readable name matching the paper's dataset table.
    pub fn name(self) -> &'static str {
        match self {
            TraceProfile::CescaI => "CESCA-I",
            TraceProfile::CescaII => "CESCA-II",
            TraceProfile::Abilene => "ABILENE",
            TraceProfile::Cenic => "CENIC",
            TraceProfile::UpcI => "UPC-I",
        }
    }

    /// Returns `true` if the profile carries full packet payloads.
    pub fn has_payloads(self) -> bool {
        matches!(self, TraceProfile::CescaII | TraceProfile::UpcI)
    }

    /// Builds the trace configuration for this profile.
    ///
    /// `scale` multiplies the mean packets per batch; `1.0` is the default
    /// experiment scale (roughly 1000 packets per 100 ms bin for CESCA-I).
    pub fn config(self, seed: u64, scale: f64) -> TraceConfig {
        let base = TraceConfig::default().with_seed(seed);
        let scaled = |mean: f64| (mean * scale).max(10.0);
        match self {
            TraceProfile::CescaI => TraceConfig {
                mean_packets_per_batch: scaled(1000.0),
                burstiness_sigma: 0.25,
                burstiness_rho: 0.7,
                payloads: false,
                ..base
            },
            TraceProfile::CescaII => TraceConfig {
                mean_packets_per_batch: scaled(600.0),
                burstiness_sigma: 0.2,
                burstiness_rho: 0.7,
                payloads: true,
                ..base
            },
            TraceProfile::Abilene => TraceConfig {
                mean_packets_per_batch: scaled(1400.0),
                burstiness_sigma: 0.15,
                burstiness_rho: 0.6,
                new_flow_probability: 0.12,
                payloads: false,
                ..base
            },
            TraceProfile::Cenic => TraceConfig {
                mean_packets_per_batch: scaled(800.0),
                burstiness_sigma: 0.45,
                burstiness_rho: 0.85,
                new_flow_probability: 0.15,
                payloads: false,
                ..base
            },
            TraceProfile::UpcI => TraceConfig {
                mean_packets_per_batch: scaled(700.0),
                burstiness_sigma: 0.3,
                burstiness_rho: 0.75,
                payloads: true,
                ..base
            },
        }
    }

    /// Builds the configuration at default scale.
    pub fn default_config(self, seed: u64) -> TraceConfig {
        self.config(seed, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;

    #[test]
    fn payload_flags_match_paper_table() {
        assert!(!TraceProfile::CescaI.has_payloads());
        assert!(TraceProfile::CescaII.has_payloads());
        assert!(!TraceProfile::Abilene.has_payloads());
        assert!(!TraceProfile::Cenic.has_payloads());
        assert!(TraceProfile::UpcI.has_payloads());
    }

    #[test]
    fn profiles_generate_consistent_payload_presence() {
        for profile in TraceProfile::ALL {
            let mut g = TraceGenerator::new(profile.config(1, 0.2));
            let batch = g.next_batch();
            let has_payload = batch.packets.has_payloads();
            if profile.has_payloads() {
                assert!(has_payload, "{} should have payloads", profile.name());
            } else {
                assert!(!has_payload, "{} should be header-only", profile.name());
            }
        }
    }

    #[test]
    fn abilene_is_heavier_than_cesca_ii() {
        let a = TraceProfile::Abilene.default_config(1);
        let c = TraceProfile::CescaII.default_config(1);
        assert!(a.mean_packets_per_batch > c.mean_packets_per_batch);
    }

    #[test]
    fn scale_multiplies_load() {
        let small = TraceProfile::CescaI.config(1, 0.1);
        let big = TraceProfile::CescaI.config(1, 1.0);
        assert!(big.mean_packets_per_batch > small.mean_packets_per_batch * 5.0);
    }
}
