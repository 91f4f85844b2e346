//! The ten traffic aggregates of Table 3.1.
//!
//! The aggregate definitions (and the per-packet [`AggregateHashes`] and
//! slot rows derived from them, with the seed and bitmap dimensioning they
//! are derived under) live in `netshed-trace` so that the batch data plane
//! can cache one bitmap slot per aggregate per packet on the shared packet
//! store. This module re-exports them to keep `netshed_features::Aggregate`
//! working.

pub use netshed_trace::{
    Aggregate, AggregateHashes, AGGREGATE_COUNT, AGGREGATE_HASH_SEED, AGGREGATE_MAX_CARDINALITY,
};
