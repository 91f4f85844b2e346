//! Streaming packet sources.
//!
//! The monitoring pipeline consumes batches from a [`PacketSource`]: an
//! abstraction over "something that produces the next time bin of traffic".
//! The synthetic [`TraceGenerator`](crate::TraceGenerator) is one (infinite)
//! source; a recorded batch vector replayed by [`BatchReplay`] is another;
//! [`Interleave`] merges several sources bin by bin, modelling several links
//! (or several anomaly generators) feeding one monitor. Finite prefixes of an
//! infinite source are taken with [`PacketSourceExt::take_batches`].
//!
//! Sources deliberately mirror `Iterator` (`next_batch` returning `Option`)
//! without being one: batch production is stateful and fallible-by-exhaustion
//! only, and keeping the trait object-safe and free of adapter machinery
//! keeps `Monitor::run` signatures simple.

use crate::batch::Batch;
use crate::generator::TraceGenerator;

/// A stream of traffic batches, one per time bin.
pub trait PacketSource {
    /// Produces the next batch, or `None` when the source is exhausted.
    fn next_batch(&mut self) -> Option<Batch>;

    /// Advances the cursor past `count` batches without delivering them and
    /// returns how many were actually skipped (fewer when the source ran
    /// out). This is how a restored daemon fast-forwards its source to the
    /// checkpointed position; after `skip_batches(n)` the source produces
    /// exactly the batches a fresh source produces after `n` `next_batch`
    /// calls.
    fn skip_batches(&mut self, count: u64) -> u64 {
        let mut skipped = 0;
        while skipped < count {
            if self.next_batch().is_none() {
                break;
            }
            skipped += 1;
        }
        skipped
    }
}

impl<S: PacketSource + ?Sized> PacketSource for &mut S {
    fn next_batch(&mut self) -> Option<Batch> {
        (**self).next_batch()
    }

    fn skip_batches(&mut self, count: u64) -> u64 {
        (**self).skip_batches(count)
    }
}

impl<S: PacketSource + ?Sized> PacketSource for Box<S> {
    fn next_batch(&mut self) -> Option<Batch> {
        (**self).next_batch()
    }

    fn skip_batches(&mut self, count: u64) -> u64 {
        (**self).skip_batches(count)
    }
}

/// The synthetic generator is an infinite source.
impl PacketSource for TraceGenerator {
    fn next_batch(&mut self) -> Option<Batch> {
        Some(TraceGenerator::next_batch(self))
    }
}

/// Replays a recorded batch vector, in order.
///
/// Batches are shared (`Batch` clones are cheap — the packet vector is
/// reference-counted), so replaying the same recording through several
/// monitors never copies packets.
#[derive(Debug, Clone)]
pub struct BatchReplay {
    batches: Vec<Batch>,
    position: usize,
}

impl BatchReplay {
    /// Creates a replay source over a recorded batch vector.
    pub fn new(batches: Vec<Batch>) -> Self {
        Self { batches, position: 0 }
    }

    /// Records `count` batches from another source and returns their replay.
    pub fn record<S: PacketSource>(source: &mut S, count: usize) -> Self {
        let mut batches = Vec::with_capacity(count);
        for _ in 0..count {
            match source.next_batch() {
                Some(batch) => batches.push(batch),
                None => break,
            }
        }
        Self::new(batches)
    }

    /// Rewinds the replay to the first batch.
    pub fn reset(&mut self) {
        self.position = 0;
    }

    /// The recorded batches.
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }

    /// Total number of recorded batches (independent of the replay position).
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }
}

impl PacketSource for BatchReplay {
    fn next_batch(&mut self) -> Option<Batch> {
        let batch = self.batches.get(self.position)?.clone();
        self.position += 1;
        Some(batch)
    }

    /// O(1): the replay cursor jumps without cloning the skipped batches.
    fn skip_batches(&mut self, count: u64) -> u64 {
        let remaining = (self.batches.len() - self.position) as u64;
        let skipped = count.min(remaining);
        self.position += skipped as usize;
        skipped
    }
}

/// An owning batch iterator is a one-shot replay source too: each batch is
/// moved out, not cloned.
impl PacketSource for std::vec::IntoIter<Batch> {
    fn next_batch(&mut self) -> Option<Batch> {
        self.next()
    }
}

/// Yields at most a fixed number of batches from an inner source.
///
/// Built with [`PacketSourceExt::take_batches`]; this is how a finite
/// experiment is carved out of the infinite [`TraceGenerator`].
#[derive(Debug)]
pub struct Take<S> {
    inner: S,
    remaining: usize,
}

impl<S> Take<S> {
    /// Consumes the adapter and returns the inner source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PacketSource> PacketSource for Take<S> {
    fn next_batch(&mut self) -> Option<Batch> {
        if self.remaining == 0 {
            return None;
        }
        let batch = self.inner.next_batch()?;
        self.remaining -= 1;
        Some(batch)
    }
}

/// Merges several sources into one aggregate stream, *by bin index*.
///
/// Each merged batch combines the packets of every sub-source batch carrying
/// the same `bin_index` (the smallest index any sub-source has pending),
/// re-sorted by timestamp; sub-source order is preserved for equal
/// timestamps, so the merge is deterministic. Batches from later bins are
/// held back until their bin comes up, which makes the merge correct even
/// for sources that do not start at the same bin or that skip bins — such
/// batches are no longer silently folded into the wrong time bin.
///
/// # Tail semantics
///
/// Sources may end at different lengths. The merged stream runs until the
/// **longest** source is exhausted; once a sub-source ends it simply stops
/// contributing (a link going quiet), and the tail bins carry exactly the
/// surviving sources' packets with their original bin indices and
/// timestamps. Symmetrically, a source that starts at a later bin
/// contributes nothing to the head bins. [`Interleave::live_sources`]
/// reports how many sub-sources can still produce batches.
pub struct Interleave {
    /// Each sub-source with its look-ahead batch (`None` = nothing buffered
    /// yet). Exhausted sources are removed.
    sources: Vec<(Box<dyn PacketSource>, Option<Batch>)>,
}

impl Interleave {
    /// Creates an interleaved source over the given sub-sources.
    pub fn new(sources: Vec<Box<dyn PacketSource>>) -> Self {
        Self { sources: sources.into_iter().map(|s| (s, None)).collect() }
    }

    /// Number of sub-sources still producing batches.
    pub fn live_sources(&self) -> usize {
        self.sources.len()
    }
}

impl PacketSource for Interleave {
    fn next_batch(&mut self) -> Option<Batch> {
        // Fill every empty look-ahead slot, dropping exhausted sources.
        let mut live = Vec::with_capacity(self.sources.len());
        for (mut source, pending) in self.sources.drain(..) {
            let pending = pending.or_else(|| source.next_batch());
            if pending.is_some() {
                live.push((source, pending));
            }
        }
        self.sources = live;

        // The next merged bin is the smallest pending bin index.
        let target = self
            .sources
            .iter()
            .filter_map(|(_, pending)| pending.as_ref().map(|b| b.bin_index))
            .min()?;
        let mut geometry: Option<(u64, u64)> = None;
        let mut packets: Vec<crate::packet::Packet> = Vec::new();
        for (_, pending) in &mut self.sources {
            if pending.as_ref().is_some_and(|b| b.bin_index == target) {
                // lint:allow(no-unwrap): the is_some_and guard on the previous line proves the slot is occupied
                let batch = pending.take().expect("checked above");
                geometry.get_or_insert((batch.start_ts, batch.duration_us));
                packets.extend(batch.packets.iter().map(|p| p.to_packet()));
            }
        }
        // lint:allow(no-unwrap): target is the minimum pending bin index, so at least one source matched and set the geometry
        let (start_ts, duration_us) = geometry.expect("at least one batch matched the min bin");
        // Stable sort: equal timestamps keep sub-source registration order,
        // so the merged stream is reproducible.
        packets.sort_by_key(|p| p.ts);
        Some(Batch::new(target, start_ts, duration_us, packets))
    }
}

/// Adapter constructors for every source.
pub trait PacketSourceExt: PacketSource + Sized {
    /// Limits the source to its first `count` batches.
    fn take_batches(self, count: usize) -> Take<Self> {
        Take { inner: self, remaining: count }
    }
}

impl<S: PacketSource + Sized> PacketSourceExt for S {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{TraceConfig, TraceGenerator};

    fn generator(seed: u64) -> TraceGenerator {
        TraceGenerator::new(
            TraceConfig::default().with_seed(seed).with_mean_packets_per_batch(50.0),
        )
    }

    #[test]
    fn generator_is_an_infinite_source() {
        let mut source = generator(1);
        for expected_bin in 0..5 {
            let batch = PacketSource::next_batch(&mut source).expect("infinite source");
            assert_eq!(batch.bin_index, expected_bin);
        }
    }

    #[test]
    fn take_bounds_an_infinite_source() {
        let mut source = generator(2).take_batches(7);
        let mut produced = 0;
        while source.next_batch().is_some() {
            produced += 1;
        }
        assert_eq!(produced, 7);
    }

    #[test]
    fn replay_reproduces_the_recording_and_resets() {
        let mut recording = BatchReplay::record(&mut generator(3), 6);
        assert_eq!(recording.len(), 6);
        let first_pass: Vec<usize> =
            std::iter::from_fn(|| recording.next_batch()).map(|b| b.len()).collect();
        assert_eq!(first_pass.len(), 6);
        recording.reset();
        let second_pass: Vec<usize> =
            std::iter::from_fn(|| recording.next_batch()).map(|b| b.len()).collect();
        assert_eq!(first_pass, second_pass);
    }

    #[test]
    fn replay_matches_the_generator_it_recorded() {
        let recording = BatchReplay::record(&mut generator(4), 5);
        let mut fresh = generator(4);
        for batch in recording.batches() {
            let original = TraceGenerator::next_batch(&mut fresh);
            assert_eq!(batch.bin_index, original.bin_index);
            assert_eq!(batch.packets.as_ref(), original.packets.as_ref());
        }
    }

    #[test]
    fn interleave_merges_aligned_sources() {
        let a = BatchReplay::record(&mut generator(5), 4);
        let b = BatchReplay::record(&mut generator(6), 4);
        let expected: Vec<usize> =
            a.batches().iter().zip(b.batches()).map(|(x, y)| x.len() + y.len()).collect();
        let mut merged = Interleave::new(vec![Box::new(a), Box::new(b)]);
        for (bin, want) in expected.iter().enumerate() {
            let batch = merged.next_batch().expect("merged batch");
            assert_eq!(batch.bin_index, bin as u64);
            assert_eq!(batch.len(), *want);
            // Merged packets must stay in timestamp order.
            assert!(batch.packets.timestamps().windows(2).all(|w| w[0] <= w[1]));
        }
        assert!(merged.next_batch().is_none());
    }

    #[test]
    fn interleave_outlives_its_shortest_source() {
        let short = BatchReplay::record(&mut generator(7), 2);
        let long = BatchReplay::record(&mut generator(8), 5);
        let mut merged = Interleave::new(vec![Box::new(short), Box::new(long)]);
        let mut produced = 0;
        while merged.next_batch().is_some() {
            produced += 1;
        }
        assert_eq!(produced, 5, "the interleave runs until the longest source ends");
    }

    #[test]
    fn interleave_tail_carries_exactly_the_surviving_sources() {
        // The documented tail semantics: once the short source ends, every
        // later bin equals the long source's own batch — same bin index,
        // same packets, no geometry drift.
        let short = BatchReplay::record(&mut generator(9), 2);
        let long = BatchReplay::record(&mut generator(10), 5);
        let long_batches: Vec<_> = long.batches().to_vec();
        let mut merged = Interleave::new(vec![Box::new(short), Box::new(long)]);
        for bin in 0..5u64 {
            let batch = merged.next_batch().expect("five bins");
            assert_eq!(batch.bin_index, bin);
            if bin >= 2 {
                assert_eq!(
                    batch.packets.as_ref(),
                    long_batches[bin as usize].packets.as_ref(),
                    "tail bin {bin} must be the long source's batch verbatim"
                );
            }
        }
        assert!(merged.next_batch().is_none());
        assert_eq!(merged.live_sources(), 0);
    }

    #[test]
    fn interleave_holds_back_batches_from_future_bins() {
        // A source that starts at a later bin must not have its batches
        // folded into earlier bins (the pre-fix behaviour): bins are merged
        // by index, so the late starter joins when its bin comes up.
        use crate::packet::{FiveTuple, Packet};
        let pkt =
            |ts: u64, src: u32| Packet::header_only(ts, FiveTuple::new(src, 2, 3, 4, 6), 100, 0);
        let early = vec![
            Batch::new(0, 0, 100, vec![pkt(10, 1)]),
            Batch::new(1, 100, 100, vec![pkt(110, 1)]),
            Batch::new(2, 200, 100, vec![pkt(210, 1)]),
        ];
        let late = vec![
            Batch::new(1, 100, 100, vec![pkt(120, 2)]),
            Batch::new(3, 300, 100, vec![pkt(310, 2)]),
        ];
        let mut merged = Interleave::new(vec![
            Box::new(BatchReplay::new(early)),
            Box::new(BatchReplay::new(late)),
        ]);

        let bin0 = merged.next_batch().expect("bin 0");
        assert_eq!(bin0.bin_index, 0);
        assert_eq!(bin0.len(), 1, "the late source contributes nothing to bin 0");

        let bin1 = merged.next_batch().expect("bin 1");
        assert_eq!(bin1.bin_index, 1);
        assert_eq!(bin1.len(), 2, "both sources land in bin 1");
        assert!(bin1.packets.timestamps().windows(2).all(|w| w[0] <= w[1]));

        let bin2 = merged.next_batch().expect("bin 2");
        assert_eq!((bin2.bin_index, bin2.len()), (2, 1));

        // The late source skipped bin 2; its bin 3 is emitted as bin 3, not
        // merged into an earlier one.
        let bin3 = merged.next_batch().expect("bin 3");
        assert_eq!((bin3.bin_index, bin3.len()), (3, 1));
        assert_eq!(bin3.packets.tuples()[0].src_ip, 2);
        assert_eq!(bin3.start_ts, 300);
        assert!(merged.next_batch().is_none());
    }

    #[test]
    fn skip_batches_fast_forwards_to_the_same_cursor() {
        // The replay's O(1) skip and the default skip (drain via next_batch)
        // must land every source on the identical position: the batches that
        // follow are the ones a fresh source yields after `n` next_batch
        // calls.
        let recording = BatchReplay::record(&mut generator(13), 8);
        let mut skipped_replay = recording.clone();
        assert_eq!(skipped_replay.skip_batches(5), 5);
        let mut drained_generator = generator(13);
        assert_eq!(PacketSource::skip_batches(&mut drained_generator, 5), 5);
        for bin in 5..8u64 {
            let from_replay = skipped_replay.next_batch().expect("replay batch");
            let from_generator =
                PacketSource::next_batch(&mut drained_generator).expect("generator batch");
            assert_eq!(from_replay.bin_index, bin);
            assert_eq!(from_generator.bin_index, bin);
            assert_eq!(from_replay.packets.as_ref(), from_generator.packets.as_ref());
        }
        assert!(skipped_replay.next_batch().is_none());
    }

    #[test]
    fn skip_batches_past_the_end_reports_the_shortfall() {
        let mut replay = BatchReplay::record(&mut generator(14), 3);
        assert_eq!(replay.skip_batches(10), 3);
        assert!(replay.next_batch().is_none());
        let mut bounded = generator(15).take_batches(4);
        assert_eq!(bounded.skip_batches(10), 4);
        assert!(bounded.next_batch().is_none());
    }
}
