//! Counting sketches and hash families used by the feature extractor and the
//! flow sampler.
//!
//! The paper's feature extraction (Section 3.2.1) counts *unique* and *new*
//! items per traffic aggregate using the multi-resolution bitmaps of Estan,
//! Varghese and Fisk, because they bound the number of memory accesses per
//! packet and keep the per-batch cost deterministic. Flow sampling (Section
//! 4.2) maps the 5-tuple through a randomly drawn H3 hash function to a value
//! in `[0, 1)` and keeps the flow if the value is below the sampling rate.
//!
//! This crate provides:
//!
//! * [`MultiResolutionBitmap`] — the multi-tier bitmap used for the
//!   unique/new feature counters, and its [`BitmapGeometry`], which maps a
//!   hash to the bit it owns,
//! * [`H3Hasher`] — per-measurement-interval randomized hash of flow keys to
//!   `[0, 1)` used by flowwise sampling,
//! * [`mix64`] / [`hash_bytes`] — the cheap deterministic mixers shared by
//!   the sketches.

#![forbid(unsafe_code)]

pub mod bitmap;
pub mod det_map;
pub mod hash;
pub mod state;

pub use bitmap::{BitmapGeometry, MultiResolutionBitmap};
pub use det_map::{DetHashMap, DetHashSet, Entry};
pub use hash::{
    hash_block, hash_bytes, mix64, DetBuildHasher, DetHasher, H3Hasher, IncrementalFnv,
};
pub use state::{StateError, StateReader, StateWriter};
