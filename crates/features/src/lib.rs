//! Per-batch traffic feature extraction.
//!
//! Section 3.2.1 of the paper defines the predictor variables used to model
//! query cost: the number of packets and bytes in a batch plus, for each of
//! the ten traffic aggregates of Table 3.1 (combinations of the five TCP/IP
//! header fields), four counters —
//!
//! * **unique**: distinct items in the batch,
//! * **new**: items not yet seen in the current measurement interval,
//! * **repeated**: items in the batch minus unique items,
//! * **batch-repeated**: items in the batch minus new items,
//!
//! for a total of 42 features. Distinct counting uses the multi-resolution
//! bitmaps from [`netshed_sketch`] so the per-packet work is bounded, and the
//! per-interval "seen" bitmap is updated once per batch with a bitwise OR of
//! the per-batch bitmap, exactly as the paper describes.

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod extractor;
pub mod vector;

pub use aggregate::{
    Aggregate, AggregateHashes, AGGREGATE_COUNT, AGGREGATE_HASH_SEED, AGGREGATE_MAX_CARDINALITY,
};
pub use extractor::{ExtractScratch, ExtractorConfig, FeatureExtractor, NestedPass};
pub use vector::{CounterKind, FeatureId, FeatureVector, FEATURE_COUNT};
