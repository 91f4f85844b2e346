//! Query registry: named construction of the standard query set.

use crate::payload_queries::{CustomBehavior, P2pDetectorQuery, PatternSearchQuery, TraceQuery};
use crate::query::Query;
use crate::simple_queries::{ApplicationQuery, CounterQuery, HighWatermarkQuery};
use crate::state_queries::{AutofocusQuery, FlowsQuery, SuperSourcesQuery, TopKQuery};
use netshed_sketch::{StateError, StateReader, StateWriter};

/// The queries of Table 2.2, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Port-based application classification.
    Application,
    /// High-volume traffic clusters per subnet.
    Autofocus,
    /// Traffic load in packets and bytes.
    Counter,
    /// Per-flow classification and number of active flows.
    Flows,
    /// High watermark of link utilisation.
    HighWatermark,
    /// Signature-based P2P detector.
    P2pDetector,
    /// Identification of byte sequences in payloads.
    PatternSearch,
    /// Sources with the largest fan-out.
    SuperSources,
    /// Ranking of top destination addresses.
    TopK,
    /// Full-payload packet collection.
    Trace,
}

impl QueryKind {
    /// All query kinds, in Table 2.2 order.
    pub const ALL: [QueryKind; 10] = [
        QueryKind::Application,
        QueryKind::Autofocus,
        QueryKind::Counter,
        QueryKind::Flows,
        QueryKind::HighWatermark,
        QueryKind::P2pDetector,
        QueryKind::PatternSearch,
        QueryKind::SuperSources,
        QueryKind::TopK,
        QueryKind::Trace,
    ];

    /// The seven queries used in the Chapter 3/4 evaluation (autofocus,
    /// super-sources and p2p-detector are evaluated in Chapters 5 and 6).
    pub const CHAPTER4_SET: [QueryKind; 7] = [
        QueryKind::Application,
        QueryKind::Counter,
        QueryKind::Flows,
        QueryKind::HighWatermark,
        QueryKind::PatternSearch,
        QueryKind::TopK,
        QueryKind::Trace,
    ];

    /// The nine queries of the Chapter 5 evaluation (Table 5.2).
    pub const CHAPTER5_SET: [QueryKind; 9] = [
        QueryKind::Application,
        QueryKind::Autofocus,
        QueryKind::Counter,
        QueryKind::Flows,
        QueryKind::HighWatermark,
        QueryKind::PatternSearch,
        QueryKind::SuperSources,
        QueryKind::TopK,
        QueryKind::Trace,
    ];

    /// The query's name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Application => "application",
            QueryKind::Autofocus => "autofocus",
            QueryKind::Counter => "counter",
            QueryKind::Flows => "flows",
            QueryKind::HighWatermark => "high-watermark",
            QueryKind::P2pDetector => "p2p-detector",
            QueryKind::PatternSearch => "pattern-search",
            QueryKind::SuperSources => "super-sources",
            QueryKind::TopK => "top-k",
            QueryKind::Trace => "trace",
        }
    }

    /// Resolves a paper name back to its kind (the inverse of
    /// [`QueryKind::name`]); `None` for unknown names. Snapshot restore uses
    /// this so `.nsck` files carry stable names instead of enum ordinals.
    pub fn from_name(name: &str) -> Option<QueryKind> {
        QueryKind::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

/// Specification of a query instance to run in the monitoring system.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Which query to instantiate.
    pub kind: QueryKind,
    /// Label identifying this instance in records and outputs. `None` uses
    /// the kind's paper name; setting distinct labels lets the same kind be
    /// registered several times (the Figure 6.9 query-arrival scenario).
    pub label: Option<String>,
    /// Minimum sampling rate constraint (`m_q` of Chapter 5); `None` uses the
    /// query's built-in default, which matches Table 5.2.
    pub min_sampling_rate: Option<f64>,
    /// Use the query's custom load shedding method (only meaningful for the
    /// p2p-detector) and with which behaviour.
    pub custom_behavior: Option<CustomBehavior>,
}

impl QuerySpec {
    /// A specification with default constraints.
    pub fn new(kind: QueryKind) -> Self {
        Self { kind, label: None, min_sampling_rate: None, custom_behavior: None }
    }

    /// Overrides the instance label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Overrides the minimum sampling rate constraint.
    pub fn with_min_rate(mut self, rate: f64) -> Self {
        self.min_sampling_rate = Some(rate);
        self
    }

    /// Requests custom load shedding with the given behaviour.
    pub fn with_custom(mut self, behavior: CustomBehavior) -> Self {
        self.custom_behavior = Some(behavior);
        self
    }

    /// The label this spec resolves to: the explicit label if set, the
    /// kind's paper name otherwise.
    pub fn resolved_label(&self) -> String {
        self.label.clone().unwrap_or_else(|| self.kind.name().to_string())
    }

    /// Writes the spec by stable names (never enum ordinals), so `.nsck`
    /// snapshots survive enum reordering.
    pub fn save_state(&self, writer: &mut StateWriter) {
        writer.str(self.kind.name());
        writer.opt_str(self.label.as_deref());
        writer.opt_f64(self.min_sampling_rate);
        writer.opt_str(self.custom_behavior.map(CustomBehavior::name));
    }

    /// Reads a spec written by [`QuerySpec::save_state`].
    pub fn load_state(reader: &mut StateReader<'_>) -> Result<Self, StateError> {
        let kind_name = reader.str()?;
        let kind = QueryKind::from_name(&kind_name)
            .ok_or_else(|| StateError::corrupt(format!("unknown query kind {kind_name:?}")))?;
        let label = reader.opt_str()?;
        let min_sampling_rate = reader.opt_f64()?;
        let custom_behavior = match reader.opt_str()? {
            None => None,
            Some(name) => Some(CustomBehavior::from_name(&name).ok_or_else(|| {
                StateError::corrupt(format!("unknown custom shedding behavior {name:?}"))
            })?),
        };
        Ok(Self { kind, label, min_sampling_rate, custom_behavior })
    }
}

/// Builds a query instance for the given kind.
pub fn build_query(kind: QueryKind) -> Box<dyn Query> {
    match kind {
        QueryKind::Application => Box::new(ApplicationQuery::new()),
        QueryKind::Autofocus => Box::new(AutofocusQuery::default()),
        QueryKind::Counter => Box::new(CounterQuery::new()),
        QueryKind::Flows => Box::new(FlowsQuery::new()),
        QueryKind::HighWatermark => Box::new(HighWatermarkQuery::new()),
        QueryKind::P2pDetector => Box::new(P2pDetectorQuery::new()),
        QueryKind::PatternSearch => Box::new(PatternSearchQuery::default()),
        QueryKind::SuperSources => Box::new(SuperSourcesQuery::default()),
        QueryKind::TopK => Box::new(TopKQuery::default()),
        QueryKind::Trace => Box::new(TraceQuery::new()),
    }
}

/// Builds a query instance from a full specification.
pub fn build_query_from_spec(spec: &QuerySpec) -> Box<dyn Query> {
    match (spec.kind, spec.custom_behavior) {
        (QueryKind::P2pDetector, Some(behavior)) => Box::new(P2pDetectorQuery::custom(behavior)),
        (kind, _) => build_query(kind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_build_and_names_match() {
        for kind in QueryKind::ALL {
            let query = build_query(kind);
            assert_eq!(query.name(), kind.name());
        }
    }

    #[test]
    fn chapter_sets_are_subsets_of_all() {
        for kind in QueryKind::CHAPTER4_SET {
            assert!(QueryKind::ALL.contains(&kind));
        }
        for kind in QueryKind::CHAPTER5_SET {
            assert!(QueryKind::ALL.contains(&kind));
        }
    }

    #[test]
    fn custom_spec_builds_custom_detector() {
        let spec = QuerySpec::new(QueryKind::P2pDetector).with_custom(CustomBehavior::Honest);
        let query = build_query_from_spec(&spec);
        assert_eq!(query.preferred_shedding(), crate::SheddingMethod::Custom);
    }

    #[test]
    fn default_min_rates_match_table_5_2_ordering() {
        // Expensive queries have higher minimum sampling rate constraints.
        let counter = build_query(QueryKind::Counter);
        let supersources = build_query(QueryKind::SuperSources);
        let autofocus = build_query(QueryKind::Autofocus);
        assert!(counter.min_sampling_rate() < autofocus.min_sampling_rate());
        assert!(autofocus.min_sampling_rate() < supersources.min_sampling_rate());
    }
}
