//! The metrics the benchmark declares — the same names, units, directions
//! and bounds `BENCHMARK.json` carries (a unit test holds the two together).

use crate::json::Value;
use crate::sut::QueryKind;

/// A time bin is 100 ms: a bin that takes longer to process than traffic
/// takes to fill it is a failed operation.
pub const BIN_LIMIT_US: f64 = 100_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the daemon sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by before it
    /// counts as a regression.
    pub bound: f64,
}

/// The timing bounds are as wide as the contract allows because the
/// reference host, a 2-vCPU VM on a shared machine, runs in two modes about
/// 1.45x apart and stays in one for seconds to minutes (see README.md,
/// "Noise").
pub const END_TO_END: [EndToEnd; 6] = [
    // Generate + encode .nstr + demand calibration + build and registration
    // of the first engine; median of 3 to 15 set-ups.
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    // Packets offered ÷ time of the undisturbed pass: the sum over bins of
    // each bin's best tick, plus the best final flush (digest included).
    EndToEnd { name: "throughput_pps", unit: "pkt/s", better: Better::Higher, bound: 0.25 },
    // Median and p95 over bins of the per-bin time, itself the best over
    // passes of that bin's tick. p95 is the highest level with ten bins
    // beyond it on the shortest workload (200 bins).
    EndToEnd { name: "bin_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "bin_p95_us", unit: "us", better: Better::Lower, bound: 0.25 },
    // Mean and minimum over queries of 1 − error against the unconstrained
    // reference execution. Exact for a seed; the bound covers how far the
    // value moves from one seed to the next.
    EndToEnd { name: "accuracy_mean", unit: "ratio", better: Better::Higher, bound: 0.15 },
    EndToEnd { name: "accuracy_min", unit: "ratio", better: Better::Higher, bound: 0.20 },
];

/// `(name, unit, better)` of the fixed per-layer metrics, outside in; the
/// per-kind query metrics follow, one per [`QueryKind`].
const PER_LAYER_FIXED: [(&str, &str, Better); 37] = [
    ("trace.decode_ns_per_pkt", "ns", Better::Lower),
    ("trace.decode_bytes_per_pkt", "B", Better::Lower),
    ("trace.split_ns_per_pkt", "ns", Better::Lower),
    ("trace.lane_skew", "ratio", Better::Lower),
    ("sketch.hash_block_gbps", "GB/s", Better::Higher),
    ("features.extract_cold_ns_per_pkt", "ns", Better::Lower),
    ("features.extract_warm_ns_per_pkt", "ns", Better::Lower),
    ("features.reextract_calls_per_bin", "count", Better::Lower),
    ("predict.cycle_ns_per_query", "ns", Better::Lower),
    ("predict.share", "ratio", Better::Lower),
    ("fairness.allocate_ns_per_bin", "ns", Better::Lower),
    ("fairness.allocate_calls_per_bin", "count", Better::Lower),
    ("monitor.shed_packet_ns_per_pkt", "ns", Better::Lower),
    ("monitor.shed_flow_ns_per_pkt", "ns", Better::Lower),
    ("monitor.mean_rate", "ratio", Better::Higher),
    ("monitor.delivered_pkts_per_bin", "count", Better::Higher),
    ("monitor.drop_fraction", "ratio", Better::Lower),
    ("queries.exec_ns_per_bin", "ns", Better::Lower),
    ("monitor.bin_ns", "ns", Better::Lower),
    ("monitor.unattributed_share", "ratio", Better::Lower),
    ("monitor.digest_ns_per_bin", "ns", Better::Lower),
    ("monitor.lane_sum_ns_per_bin", "ns", Better::Lower),
    ("monitor.coord_ns_per_bin", "ns", Better::Lower),
    ("monitor.fleet_overhead_ratio", "ratio", Better::Lower),
    ("monitor.scale_2t", "ratio", Better::Higher),
    ("monitor.scale_2w", "ratio", Better::Higher),
    ("monitor.alloc_per_bin", "count", Better::Lower),
    ("monitor.heap_peak_mb", "MB", Better::Lower),
    ("service.tick_ns_per_bin", "ns", Better::Lower),
    ("service.tick_overhead_ns_per_bin", "ns", Better::Lower),
    ("service.checkpoint_ms", "ms", Better::Lower),
    ("service.restore_ms", "ms", Better::Lower),
    ("service.snapshot_bytes", "B", Better::Lower),
    ("service.snapshot_parse_ms", "ms", Better::Lower),
    ("service.register_us_per_query", "us", Better::Lower),
    ("bench.trace_overhead", "ratio", Better::Lower),
    ("bench.host_cores", "count", Better::Higher),
];

/// Name of the per-kind query execution metric.
pub fn exec_metric(kind: QueryKind) -> String {
    format!("queries.exec_ns_per_pkt.{}", kind.name())
}

/// Every per-layer metric: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut all: Vec<(String, &'static str, Better)> = PER_LAYER_FIXED
        .iter()
        .map(|(name, unit, better)| (name.to_string(), *unit, *better))
        .collect();
    all.extend(QueryKind::ALL.iter().map(|kind| (exec_metric(*kind), "ns", Better::Lower)));
    all
}

/// The metrics of one run, in declaration order. A metric that does not
/// apply to the workload (a fleet metric on a solo run) is reported as 0.
pub struct Metrics {
    entries: Vec<(String, &'static str, f64)>,
}

impl Metrics {
    pub fn end_to_end() -> Self {
        // NaN until measured, so a metric the run forgot cannot pass for one.
        Self {
            entries: END_TO_END.iter().map(|m| (m.name.to_string(), m.unit, f64::NAN)).collect(),
        }
    }

    pub fn per_layer() -> Self {
        Self { entries: per_layer().into_iter().map(|(name, unit, _)| (name, unit, 0.0)).collect() }
    }

    /// Sets a declared metric; an undeclared name is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let entry = self
            .entries
            .iter_mut()
            .find(|(declared, _, _)| declared == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"));
        entry.2 = value;
    }

    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|(_, _, value)| value.is_finite())
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &'static str, f64)> + '_ {
        self.entries.iter().map(|(name, unit, value)| (name.as_str(), *unit, *value))
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` — the driver's `metrics`.
    pub fn to_json(&self) -> Value {
        Value::object(self.iter().map(|(name, unit, value)| {
            (name, Value::object([("value", Value::from(value)), ("unit", Value::from(unit))]))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn valid_name(name: &str) -> bool {
        let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(legal)
    }

    fn valid_unit(unit: &str) -> bool {
        let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(legal)
    }

    #[test]
    fn declared_names_and_units_fit_the_contract() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(name, _, _)| name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a metric name is used twice");
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(per_layer().iter().all(|(_, unit, _)| valid_unit(unit)));
        assert!(per_layer().len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn workload_descriptions_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| valid_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn unmeasured_end_to_end_metrics_are_not_finite() {
        let mut metrics = Metrics::end_to_end();
        assert!(!metrics.all_finite());
        for metric in &END_TO_END {
            metrics.set(metric.name, 1.0);
        }
        assert!(metrics.all_finite());
    }
}
