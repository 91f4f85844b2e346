//! Per-measurement-interval query outputs and the error metrics of
//! Section 2.2.1.
//!
//! At the end of every measurement interval each query emits a
//! [`QueryOutput`]. The accuracy of a load-shedding run is evaluated by
//! comparing, interval by interval, the output of the sampled execution
//! against the output of an unsampled reference execution of the same query
//! over the same traffic; [`QueryOutput::error_against`] implements the
//! per-query error definitions of the paper.

// Outputs cross the exec plane's merge boundary and get iterated by
// observers, digests and sinks, so every container here is ordered
// (determinism contract, rule `det-map`): BTree maps iterate key-sorted on
// every run, which keeps interval outputs replay-stable at any worker count.
use std::collections::{BTreeMap, BTreeSet};

/// The result a query reports for one measurement interval.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// `counter`: estimated packets and bytes observed in the interval.
    Counter {
        /// Estimated packet count.
        packets: f64,
        /// Estimated byte count.
        bytes: f64,
    },
    /// `application`: per-application estimated packets and bytes.
    Application {
        /// Estimated (packets, bytes) per application name.
        per_app: BTreeMap<&'static str, (f64, f64)>,
    },
    /// `flows`: estimated number of active 5-tuple flows.
    Flows {
        /// Estimated flow count.
        count: f64,
    },
    /// `high-watermark`: peak link utilisation over the interval's sub-bins.
    HighWatermark {
        /// Peak estimated load in megabits per second.
        mbps: f64,
    },
    /// `top-k`: destinations ranked by estimated byte count, best first.
    TopK {
        /// Ranked list of (destination address, estimated bytes).
        ranking: Vec<(u32, f64)>,
    },
    /// `autofocus`: traffic clusters (prefix, prefix length, estimated bytes)
    /// exceeding the report threshold.
    Autofocus {
        /// Reported clusters.
        clusters: Vec<(u32, u8, f64)>,
    },
    /// `super-sources`: estimated fan-out of the sources with largest fan-out.
    SuperSources {
        /// Estimated fan-out per source address.
        fanouts: BTreeMap<u32, f64>,
    },
    /// `p2p-detector`: set of flow keys identified as P2P.
    P2pFlows {
        /// 5-tuple keys (hashed) of the flows classified as P2P.
        flows: BTreeSet<u64>,
    },
    /// `pattern-search` / `trace`: fraction of the traffic actually processed.
    Coverage {
        /// Packets processed by the query.
        processed_packets: f64,
        /// Packets that traversed the monitored link.
        total_packets: f64,
    },
}

impl QueryOutput {
    /// Computes the relative error of `self` (the sampled execution's output)
    /// against `truth` (the unsampled reference output), following the
    /// definitions of Section 2.2.1. The result is clamped to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the two outputs come from different query types.
    pub fn error_against(&self, truth: &QueryOutput) -> f64 {
        let error = match (self, truth) {
            (
                QueryOutput::Counter { packets, bytes },
                QueryOutput::Counter { packets: tp, bytes: tb },
            ) => {
                // Mean of the relative errors in packets and bytes.
                f64::midpoint(relative_error(*packets, *tp), relative_error(*bytes, *tb))
            }
            (
                QueryOutput::Application { per_app },
                QueryOutput::Application { per_app: truth_apps },
            ) => {
                // Weighted average of the relative error across applications,
                // weighted by the true volume of each application.
                let mut weighted = 0.0;
                let mut weight = 0.0;
                for (app, (tp, tb)) in truth_apps {
                    let (ep, eb) = per_app.get(app).copied().unwrap_or((0.0, 0.0));
                    let err = f64::midpoint(relative_error(ep, *tp), relative_error(eb, *tb));
                    let w = tp + tb;
                    weighted += err * w;
                    weight += w;
                }
                if weight > 0.0 {
                    weighted / weight
                } else {
                    0.0
                }
            }
            (QueryOutput::Flows { count }, QueryOutput::Flows { count: truth_count }) => {
                relative_error(*count, *truth_count)
            }
            (
                QueryOutput::HighWatermark { mbps },
                QueryOutput::HighWatermark { mbps: truth_mbps },
            ) => relative_error(*mbps, *truth_mbps),
            (QueryOutput::TopK { ranking }, QueryOutput::TopK { ranking: truth_ranking }) => {
                misranked_pairs_error(ranking, truth_ranking)
            }
            (
                QueryOutput::Autofocus { clusters },
                QueryOutput::Autofocus { clusters: truth_clusters },
            ) => cluster_report_error(clusters, truth_clusters),
            (
                QueryOutput::SuperSources { fanouts },
                QueryOutput::SuperSources { fanouts: truth_fanouts },
            ) => {
                // Average relative error in the fan-out estimations of the
                // true super sources.
                if truth_fanouts.is_empty() {
                    0.0
                } else {
                    truth_fanouts
                        .iter()
                        .map(|(src, t)| {
                            relative_error(fanouts.get(src).copied().unwrap_or(0.0), *t)
                        })
                        .sum::<f64>()
                        / truth_fanouts.len() as f64
                }
            }
            (QueryOutput::P2pFlows { flows }, QueryOutput::P2pFlows { flows: truth_flows }) => {
                // One minus the fraction of true P2P flows correctly identified.
                if truth_flows.is_empty() {
                    0.0
                } else {
                    let found = truth_flows.intersection(flows).count();
                    1.0 - found as f64 / truth_flows.len() as f64
                }
            }
            (
                QueryOutput::Coverage { processed_packets, .. },
                QueryOutput::Coverage { processed_packets: truth_processed, .. },
            ) => {
                // One minus the fraction of packets processed relative to the
                // unsampled reference execution (which processes everything).
                if *truth_processed > 0.0 {
                    1.0 - (processed_packets / truth_processed).clamp(0.0, 1.0)
                } else {
                    0.0
                }
            }
            _ => panic!("cannot compare outputs of different query types"),
        };
        error.clamp(0.0, 1.0)
    }

    /// Accuracy is one minus the error.
    pub fn accuracy_against(&self, truth: &QueryOutput) -> f64 {
        1.0 - self.error_against(truth)
    }
}

/// `|1 - estimate / actual|`, with the conventions the paper uses for zero
/// actual values.
fn relative_error(estimate: f64, actual: f64) -> f64 {
    if actual.abs() < f64::EPSILON {
        if estimate.abs() < f64::EPSILON {
            0.0
        } else {
            1.0
        }
    } else {
        (1.0 - estimate / actual).abs()
    }
}

/// The top-k detection performance metric of the paper: the number of
/// misranked flow pairs where the first element is inside the reported top-k
/// list and the second is outside, normalised to `[0, 1]` by the number of
/// such pairs.
fn misranked_pairs_error(ranking: &[(u32, f64)], truth: &[(u32, f64)]) -> f64 {
    if truth.is_empty() {
        return 0.0;
    }
    let k = truth.len();
    let reported: Vec<u32> = ranking.iter().map(|(ip, _)| *ip).collect();
    // Count true top-k members that the query failed to place in its top-k:
    // each such member forms a misranked pair with every reported non-member.
    let mut misranked = 0usize;
    for (ip, _) in truth {
        let in_reported = reported.iter().take(k).any(|r| r == ip);
        if !in_reported {
            misranked += 1;
        }
    }
    misranked as f64 / k as f64
}

/// Autofocus delta-report error: one minus the fraction of true clusters that
/// the sampled execution also reports.
fn cluster_report_error(clusters: &[(u32, u8, f64)], truth: &[(u32, u8, f64)]) -> f64 {
    if truth.is_empty() {
        return 0.0;
    }
    let reported: BTreeSet<(u32, u8)> = clusters.iter().map(|(p, l, _)| (*p, *l)).collect();
    let matched = truth.iter().filter(|(p, l, _)| reported.contains(&(*p, *l))).count();
    1.0 - matched as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_error_is_mean_of_relative_errors() {
        let estimate = QueryOutput::Counter { packets: 90.0, bytes: 110.0 };
        let truth = QueryOutput::Counter { packets: 100.0, bytes: 100.0 };
        assert!((estimate.error_against(&truth) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn identical_outputs_have_zero_error() {
        let truth = QueryOutput::Flows { count: 500.0 };
        assert_eq!(truth.error_against(&truth), 0.0);
        assert_eq!(truth.accuracy_against(&truth), 1.0);
    }

    #[test]
    fn application_error_weights_by_volume() {
        let mut truth_apps = BTreeMap::new();
        truth_apps.insert("http", (1000.0, 1_000_000.0));
        truth_apps.insert("dns", (10.0, 1000.0));
        let mut est_apps = truth_apps.clone();
        // Large error on the tiny application should barely matter.
        est_apps.insert("dns", (0.0, 0.0));
        let truth = QueryOutput::Application { per_app: truth_apps };
        let est = QueryOutput::Application { per_app: est_apps };
        assert!(est.error_against(&truth) < 0.01);
    }

    #[test]
    fn topk_error_counts_missing_members() {
        let truth =
            QueryOutput::TopK { ranking: vec![(1, 100.0), (2, 90.0), (3, 80.0), (4, 70.0)] };
        let est = QueryOutput::TopK { ranking: vec![(1, 100.0), (2, 85.0), (9, 60.0), (8, 50.0)] };
        // Two of the four true members are missing.
        assert!((est.error_against(&truth) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn p2p_error_is_fraction_of_missed_flows() {
        let truth = QueryOutput::P2pFlows { flows: [1u64, 2, 3, 4].into_iter().collect() };
        let est = QueryOutput::P2pFlows { flows: [1u64, 2].into_iter().collect() };
        assert!((est.error_against(&truth) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn coverage_error_is_unprocessed_fraction() {
        let est = QueryOutput::Coverage { processed_packets: 30.0, total_packets: 30.0 };
        let truth = QueryOutput::Coverage { processed_packets: 100.0, total_packets: 100.0 };
        assert!((est.error_against(&truth) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn zero_truth_values_are_handled() {
        let est = QueryOutput::Counter { packets: 0.0, bytes: 0.0 };
        let truth = QueryOutput::Counter { packets: 0.0, bytes: 0.0 };
        assert_eq!(est.error_against(&truth), 0.0);
        let est2 = QueryOutput::Counter { packets: 10.0, bytes: 0.0 };
        assert!(est2.error_against(&truth) > 0.0);
    }

    #[test]
    #[should_panic(expected = "different query types")]
    fn mismatched_outputs_panic() {
        let a = QueryOutput::Flows { count: 1.0 };
        let b = QueryOutput::Counter { packets: 1.0, bytes: 1.0 };
        let _ = a.error_against(&b);
    }
}
