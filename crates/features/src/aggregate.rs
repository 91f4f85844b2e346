//! The ten traffic aggregates of Table 3.1.
//!
//! The aggregate definitions (and the per-packet [`AggregateHashes`] and
//! slot rows derived from them) live in `netshed-trace` so that the batch
//! data plane can cache one bitmap slot per aggregate per packet on the
//! shared packet store. This module re-exports them to keep `netshed_features::Aggregate`
//! working.

pub use netshed_trace::{aggregate_hash_seed, Aggregate, AggregateHashes, AGGREGATE_COUNT};
