//! The black-box query abstraction.

use crate::cost::CycleMeter;
use crate::output::QueryOutput;
use netshed_sketch::{StateError, StateReader, StateWriter};
use netshed_trace::BatchView;

/// How excess load should be shed for a query (Section 4.2 and Chapter 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SheddingMethod {
    /// Uniform random packet sampling.
    PacketSampling,
    /// Flow sampling: entire 5-tuple flows are kept or dropped together.
    FlowSampling,
    /// The query implements its own custom load shedding method; the system
    /// hands it the full batch plus the target sampling rate and polices the
    /// cycles it uses (Chapter 6).
    Custom,
}

/// A monitoring query (CoMo plug-in module).
///
/// The monitoring system never inspects a query's internals: it delivers
/// (possibly sampled) batches, measures the cycles charged to the
/// [`CycleMeter`], and collects a [`QueryOutput`] at the end of every
/// measurement interval. Implementations must scale their estimates by the
/// inverse of the sampling rate they were given, exactly as the paper's
/// modified queries do.
pub trait Query: Send {
    /// The query's name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// The load shedding method this query selects at configuration time.
    fn preferred_shedding(&self) -> SheddingMethod;

    /// Minimum sampling rate the query can tolerate while keeping its error
    /// within the bound declared by its user (`m_q` of Chapter 5).
    fn min_sampling_rate(&self) -> f64 {
        0.0
    }

    /// Processes one (already sampled) batch.
    ///
    /// The batch arrives as a zero-copy [`BatchView`]: the shedders sample by
    /// narrowing the view rather than copying packets, and a full batch is
    /// just the all-packets view. Queries iterate it through
    /// [`BatchView::packets`].
    ///
    /// `sampling_rate` is the rate that was applied to produce `batch`
    /// (1.0 = no sampling); queries use it to scale their estimates. All work
    /// performed must be charged to `meter`.
    fn process_batch(&mut self, batch: &BatchView, sampling_rate: f64, meter: &mut CycleMeter);

    /// Closes the current measurement interval and returns its output,
    /// resetting the per-interval state.
    fn end_interval(&mut self) -> QueryOutput;

    /// Serializes the query's mid-interval state for a checkpoint.
    ///
    /// Only *essential* state belongs here: whatever cannot be rebuilt from
    /// the query's configuration. The default declines, so checkpointing a
    /// monitor that hosts a query without snapshot support fails loudly
    /// instead of silently dropping state.
    fn save_state(&self, _writer: &mut StateWriter) -> Result<(), StateError> {
        Err(StateError::unsupported(self.name()))
    }

    /// Restores state captured by [`Query::save_state`] into a freshly
    /// configured query of the same kind.
    ///
    /// Restoring must reproduce the saved query bit-exactly: re-running the
    /// remaining traffic must yield the same outputs as the uninterrupted
    /// run. Implementations therefore reinsert hashed-container entries in
    /// their serialized (= insertion) order.
    fn load_state(&mut self, _reader: &mut StateReader<'_>) -> Result<(), StateError> {
        Err(StateError::unsupported(self.name()))
    }
}

/// Blanket helpers shared by query implementations.
///
/// Scales a sampled estimate by the inverse of the sampling rate. The result
/// is guaranteed finite: non-positive, NaN or subnormal rates, non-finite
/// values, and overflowing divisions all collapse to `0.0` instead of
/// poisoning downstream aggregates with NaN / infinity.
pub(crate) fn scale(value: f64, sampling_rate: f64) -> f64 {
    if !value.is_finite() || !sampling_rate.is_finite() || sampling_rate <= f64::MIN_POSITIVE {
        return 0.0;
    }
    let scaled = value / sampling_rate;
    if scaled.is_finite() {
        scaled
    } else {
        0.0
    }
}

/// Checks a weight or byte count read back from a checkpointed table: every
/// one a query accumulates is a sum of [`scale`]d terms, finite and not
/// negative, so anything else marks a crafted or damaged snapshot (whose
/// checksum is not cryptographic). `table` names the query — and the table,
/// where a query keeps two — and `entry` the position in it.
pub(crate) fn restored_weight(table: &str, entry: usize, value: f64) -> Result<f64, StateError> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(StateError::corrupt(format!(
            "{table} checkpoint entry {entry} holds {value}, which no run accumulates \
             (weights and byte counts are finite and non-negative)"
        )))
    }
}

/// The error for a checkpointed table whose entry `entry` lists a key an
/// earlier entry already listed: honest tables hold each key once, and a
/// restore that let the later value win would come out shorter than its
/// declared length and never re-serialise to the bytes it came from.
pub(crate) fn repeated_key(table: &str, entry: usize) -> StateError {
    StateError::corrupt(format!(
        "{table} checkpoint entry {entry} repeats the key of an earlier entry"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_inverts_sampling_rate() {
        assert_eq!(scale(10.0, 0.5), 20.0);
        assert_eq!(scale(10.0, 1.0), 10.0);
        assert_eq!(scale(10.0, 0.0), 0.0);
    }

    #[test]
    fn scale_never_produces_nan_or_infinity() {
        for value in [10.0, 0.0, -3.0, f64::NAN, f64::INFINITY, f64::MAX] {
            for rate in [1.0, 0.5, 0.0, -0.2, f64::NAN, f64::MIN_POSITIVE / 2.0, 1e-320] {
                let scaled = scale(value, rate);
                assert!(scaled.is_finite(), "scale({value}, {rate}) = {scaled}");
            }
        }
        assert_eq!(scale(f64::NAN, 0.5), 0.0);
        assert_eq!(scale(10.0, f64::NAN), 0.0);
        assert_eq!(scale(f64::MAX, 1e-300), 0.0, "overflowing division collapses to zero");
    }
}
