//! The fixed 42-entry feature vector.

use crate::aggregate::Aggregate;

/// Number of features extracted per batch: packets, bytes and four counters
/// per each of the ten aggregates (2 + 4 × 10 = 42, as in the paper).
pub const FEATURE_COUNT: usize = 2 + 4 * Aggregate::ALL.len();

/// The per-aggregate counter kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterKind {
    /// Distinct items in the batch.
    Unique,
    /// Items not previously seen in the current measurement interval.
    New,
    /// Items in the batch minus unique items.
    Repeated,
    /// Items in the batch minus new items.
    BatchRepeated,
}

impl CounterKind {
    /// The four counters in their vector order.
    pub const ALL: [CounterKind; 4] =
        [CounterKind::Unique, CounterKind::New, CounterKind::Repeated, CounterKind::BatchRepeated];

    /// Short name used in feature labels.
    pub fn name(self) -> &'static str {
        match self {
            CounterKind::Unique => "uniq",
            CounterKind::New => "new",
            CounterKind::Repeated => "rep",
            CounterKind::BatchRepeated => "batchrep",
        }
    }
}

/// Identifier of one feature in the vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureId {
    /// Number of packets in the batch.
    Packets,
    /// Number of IP bytes in the batch.
    Bytes,
    /// One of the four counters of one aggregate.
    Counter(Aggregate, CounterKind),
}

impl FeatureId {
    /// Returns the identifier of the feature at `index` in the vector.
    ///
    /// # Panics
    ///
    /// Panics if `index >= FEATURE_COUNT`.
    pub fn from_index(index: usize) -> FeatureId {
        match index {
            0 => FeatureId::Packets,
            1 => FeatureId::Bytes,
            _ => {
                assert!(index < FEATURE_COUNT, "feature index out of range");
                let rel = index - 2;
                let aggregate = Aggregate::ALL[rel / 4];
                let counter = CounterKind::ALL[rel % 4];
                FeatureId::Counter(aggregate, counter)
            }
        }
    }

    /// Position of this feature in the vector.
    pub fn index(self) -> usize {
        match self {
            FeatureId::Packets => 0,
            FeatureId::Bytes => 1,
            FeatureId::Counter(aggregate, counter) => {
                let counter_idx =
                    CounterKind::ALL.iter().position(|c| *c == counter).expect("counter in ALL"); // lint:allow(no-unwrap): CounterKind::ALL enumerates every variant, so the position always exists
                2 + aggregate.index() * 4 + counter_idx
            }
        }
    }

    /// Human-readable name, e.g. `new_5tuple` or `packets`.
    pub fn name(self) -> String {
        match self {
            FeatureId::Packets => "packets".to_string(),
            FeatureId::Bytes => "bytes".to_string(),
            FeatureId::Counter(aggregate, counter) => {
                format!("{}_{}", counter.name(), aggregate.name())
            }
        }
    }

    /// All feature identifiers in vector order.
    pub fn all() -> Vec<FeatureId> {
        (0..FEATURE_COUNT).map(FeatureId::from_index).collect()
    }
}

/// The values of all features for one batch.
///
/// The vector is a plain `[f64; 42]` and therefore `Copy`: storing an
/// observation in a prediction history is a fixed-size memcpy, not an
/// allocation, which is why the observe path can take features by reference
/// and dereference at the last moment instead of cloning per query per bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureVector {
    values: [f64; FEATURE_COUNT],
}

impl Default for FeatureVector {
    fn default() -> Self {
        Self { values: [0.0; FEATURE_COUNT] }
    }
}

impl FeatureVector {
    /// Creates an all-zero vector.
    pub fn zeros() -> Self {
        Self::default()
    }

    /// Creates a vector from raw values.
    pub fn from_values(values: [f64; FEATURE_COUNT]) -> Self {
        Self { values }
    }

    /// Value of the feature with the given identifier.
    pub fn get(&self, id: FeatureId) -> f64 {
        self.values[id.index()]
    }

    /// Sets the value of the feature with the given identifier.
    pub fn set(&mut self, id: FeatureId, value: f64) {
        self.values[id.index()] = value;
    }

    /// Value of the feature at a raw index.
    pub fn get_index(&self, index: usize) -> f64 {
        self.values[index]
    }

    /// All values as a slice, in vector order.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// All values with their count in the type, so a loop over every
    /// feature of every row has a compile-time trip count.
    pub fn as_array(&self) -> &[f64; FEATURE_COUNT] {
        &self.values
    }

    /// Number of packets convenience accessor.
    pub fn packets(&self) -> f64 {
        self.get(FeatureId::Packets)
    }

    /// Number of bytes convenience accessor.
    pub fn bytes(&self) -> f64 {
        self.get(FeatureId::Bytes)
    }

    /// Returns only the values at the selected indices (used to build the MLR
    /// design matrix after feature selection).
    pub fn select(&self, indices: &[usize]) -> Vec<f64> {
        indices.iter().map(|&i| self.values[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_42_features() {
        assert_eq!(FEATURE_COUNT, 42);
        assert_eq!(FeatureId::all().len(), 42);
    }

    #[test]
    fn index_roundtrip() {
        for i in 0..FEATURE_COUNT {
            assert_eq!(FeatureId::from_index(i).index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<String> =
            FeatureId::all().into_iter().map(FeatureId::name).collect();
        assert_eq!(names.len(), FEATURE_COUNT);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut v = FeatureVector::zeros();
        let id = FeatureId::Counter(Aggregate::FiveTuple, CounterKind::New);
        v.set(id, 123.0);
        assert_eq!(v.get(id), 123.0);
        assert_eq!(v.get_index(id.index()), 123.0);
    }

    #[test]
    fn select_extracts_requested_indices() {
        let mut v = FeatureVector::zeros();
        v.set(FeatureId::Packets, 10.0);
        v.set(FeatureId::Bytes, 20.0);
        assert_eq!(v.select(&[0, 1]), vec![10.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "feature index out of range")]
    fn from_index_rejects_out_of_range() {
        let _ = FeatureId::from_index(FEATURE_COUNT);
    }
}
