//! Bitmap-based distinct counters.
//!
//! The feature extractor needs, for every batch and every traffic aggregate,
//! the number of *unique* items and the number of *new* items relative to the
//! current measurement interval (Section 3.2.1). The paper uses the
//! multi-resolution bitmaps of Estan, Varghese and Fisk because they bound
//! the per-packet work (a constant number of memory accesses) and keep the
//! estimation error around 1% for the cardinalities observed on the
//! monitored links.
//!
//! [`MultiResolutionBitmap`] is several linear-counting components (Whang et
//! al.'s estimator, accurate while a bitmap is not saturated), each
//! "sampling" a geometrically decreasing share of the hash space, so the
//! counter stays accurate across several orders of magnitude of cardinality
//! with a small, fixed memory footprint.

use crate::hash::mix64;
use crate::state::{StateError, StateReader, StateWriter};
use std::sync::{Arc, Mutex, PoisonError};

/// Largest number of slots a geometry may have: a slot index is a `u16`.
const MAX_SLOTS: usize = 1 << 16;

/// Saturation threshold above which a component is not used as the base.
const SATURATION: f64 = 0.93;

/// The shape of a [`MultiResolutionBitmap`], and the map from a hash to the
/// one bit it owns there.
///
/// A *slot* is the flat index `component · bits + bit` of that bit. It
/// depends on nothing but the hash and the geometry, so a consumer that feeds
/// the same items into many bitmaps of one geometry — the feature extractor's
/// full pass and every sampled re-extraction — locates each item once and
/// replays the slot ([`MultiResolutionBitmap::insert_slot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitmapGeometry {
    components: u32,
    /// Bits per component, a multiple of 64.
    bits: u32,
    /// `log2(bits)` when `bits` is a power of two: `%` and `/` by `bits`
    /// become a mask and a shift.
    shift: Option<u32>,
}

impl BitmapGeometry {
    /// A geometry of `num_components` components of `bits_per_component` bits
    /// each (rounded up to a multiple of 64).
    ///
    /// # Panics
    ///
    /// Panics if there are no components, or more slots than a `u16` slot
    /// index can address.
    pub fn new(num_components: usize, bits_per_component: usize) -> Self {
        assert!(num_components >= 1);
        let bits = bits_per_component.max(64).next_multiple_of(64);
        let slots = num_components.saturating_mul(bits);
        assert!(
            slots <= MAX_SLOTS,
            "bitmap geometry {num_components} x {bits} has {slots} slots, \
             a slot index addresses at most {MAX_SLOTS}"
        );
        let shift = bits.is_power_of_two().then(|| bits.trailing_zeros());
        Self { components: num_components as u32, bits: bits as u32, shift }
    }

    /// The geometry dimensioned for roughly `max_cardinality` items with
    /// about 1% error, matching the paper's configuration choice.
    pub fn for_cardinality(max_cardinality: usize) -> Self {
        // Each component comfortably covers ~5x its bit count; use enough
        // components to cover the maximum with the final tail component.
        let bits = 4096usize;
        let mut components = 1usize;
        let mut reach = bits * 2;
        while reach < max_cardinality && components < 16 {
            components += 1;
            reach *= 2;
        }
        Self::new(components, bits)
    }

    /// Number of components.
    pub fn components(&self) -> usize {
        self.components as usize
    }

    /// Bits per component.
    pub fn bits_per_component(&self) -> usize {
        self.bits as usize
    }

    /// Total number of slots (bits) over all components.
    pub fn slots(&self) -> usize {
        self.components as usize * self.bits as usize
    }

    /// The slot a hash owns.
    #[inline]
    pub fn slot(&self, hash: u64) -> u16 {
        // The low bits choose the component geometrically: component i is
        // selected when the i low bits are all ones and bit i is zero.
        let component = hash.trailing_ones().min(self.components - 1);
        // Use the high bits (independent of the selector bits) for the bit
        // position inside the component.
        let mixed = mix64(hash >> 16);
        let bit = match self.shift {
            Some(shift) => mixed & ((1u64 << shift) - 1),
            None => mixed % u64::from(self.bits),
        };
        // `new` bounds slots by `MAX_SLOTS`, so the index fits.
        (component * self.bits + bit as u32) as u16
    }

    /// Number of 64-bit words the slots fill.
    pub fn words(&self) -> usize {
        self.slots() / 64
    }

    /// Sets `slot`'s bit in `words` (laid out by this geometry: component `c`
    /// owns words `c · bits/64 .. (c + 1) · bits/64`) and counts it in its
    /// component's entry of `set` if newly set, which it returns. A
    /// [`MultiResolutionBitmap`] is such a pair; so is a per-batch side kept
    /// outside one and folded in by [`MultiResolutionBitmap::absorb_words`].
    /// Panics on a slot beyond `words` (one located under another geometry).
    #[inline]
    pub fn set_slot(&self, words: &mut [u64], set: &mut [u32], slot: u16) -> bool {
        let word = &mut words[usize::from(slot >> 6)];
        let mask = 1u64 << (slot & 63);
        let fresh = *word & mask == 0;
        *word |= mask;
        set[self.component_of(slot)] += u32::from(fresh);
        fresh
    }

    #[inline]
    fn component_of(&self, slot: u16) -> usize {
        match self.shift {
            Some(shift) => usize::from(slot) >> shift,
            None => usize::from(slot) / self.bits as usize,
        }
    }

    /// Number of 64-bit words one component fills.
    pub fn words_per_component(&self) -> usize {
        self.bits as usize / 64
    }
}

/// The linear-counting estimate for every possible set-bit count of one
/// component size, so that estimating costs a lookup instead of an `ln`.
#[derive(Debug)]
struct EstimatorTable {
    bits: usize,
    /// `estimates[set]` is the linear-counting estimate `m · ln(m / zero)`
    /// of a `bits`-bit bitmap with `set` bits set.
    estimates: Box<[f64]>,
    /// The smallest set-bit count whose fill ratio exceeds [`SATURATION`].
    saturated_from: u32,
}

impl EstimatorTable {
    fn build(bits: usize) -> Self {
        let m = bits as f64;
        let estimates = (0..=bits)
            .map(|set| {
                let zero = (bits - set).max(1) as f64;
                m * (m / zero).ln()
            })
            .collect();
        // The fill ratio grows with the count, so one threshold reproduces
        // the float comparison for every count.
        let saturated_from =
            (0..=bits).find(|&set| set as f64 / m > SATURATION).unwrap_or(bits + 1) as u32;
        Self { bits, estimates, saturated_from }
    }

    /// The table for `bits`-bit components, built on first use and shared by
    /// every bitmap of the process from then on: an extractor holds twenty
    /// bitmaps and a monitor one extractor per query, all of one size.
    fn shared(bits: usize) -> Arc<Self> {
        static TABLES: Mutex<Vec<Arc<EstimatorTable>>> = Mutex::new(Vec::new());
        // A poisoned lock still guards a valid list: the only update is the
        // push of a finished table.
        let mut tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(table) = tables.iter().find(|table| table.bits == bits) {
            return Arc::clone(table);
        }
        let table = Arc::new(Self::build(bits));
        tables.push(Arc::clone(&table));
        table
    }
}

/// A multi-resolution bitmap distinct counter.
///
/// The hash space is split geometrically across `components`: component `i`
/// receives a fraction `2^-(i+1)` of the items (the last component receives
/// the remaining tail). Estimation picks the lowest component that is not
/// saturated and scales the linear-counting estimates of that component and
/// all higher ones by the inverse of the sampled fraction.
///
/// All components live in one word array addressed by slot (see
/// [`BitmapGeometry`]), and the number of set bits per component is kept
/// current by every insert and merge, so [`MultiResolutionBitmap::estimate`]
/// reads one table entry per component. Every value is bit-identical to the
/// same operations on one linear-counting bitmap per component (the layout
/// this one replaced, kept as a test oracle in `tests/oracle/`).
#[derive(Debug, Clone)]
pub struct MultiResolutionBitmap {
    geometry: BitmapGeometry,
    /// Component `c` owns words `c · bits/64 ..  (c + 1) · bits/64`.
    words: Vec<u64>,
    /// Set bits per component.
    set: Vec<u32>,
    table: Arc<EstimatorTable>,
}

impl MultiResolutionBitmap {
    /// Creates an empty counter of the given geometry.
    pub fn with_geometry(geometry: BitmapGeometry) -> Self {
        Self {
            geometry,
            words: vec![0; geometry.slots() / 64],
            set: vec![0; geometry.components()],
            table: EstimatorTable::shared(geometry.bits_per_component()),
        }
    }

    /// The counter's geometry.
    pub fn geometry(&self) -> BitmapGeometry {
        self.geometry
    }

    /// Total memory footprint in bytes (for overhead accounting).
    pub fn memory_bytes(&self) -> usize {
        self.geometry.slots() / 8
    }

    /// Records an item by the slot [`BitmapGeometry::slot`] gave its hash
    /// under this counter's geometry; returns `true` if the bit was newly
    /// set.
    ///
    /// # Panics
    ///
    /// Panics on a slot beyond the geometry (one located under another).
    #[inline]
    pub fn insert_slot(&mut self, slot: u16) -> bool {
        self.geometry.set_slot(&mut self.words, &mut self.set, slot)
    }

    /// Estimates the number of distinct items inserted.
    pub fn estimate(&self) -> f64 {
        self.estimate_of(&self.set)
    }

    /// [`estimate`](Self::estimate) of a bitmap of this geometry holding
    /// `set[c]` set bits in component `c` (a per-batch side's counts).
    pub fn estimate_of(&self, set: &[u32]) -> f64 {
        debug_assert_eq!(set.len(), self.set.len());
        // Find the first component that is still reliable.
        let last = set.len() - 1;
        let mut base = 0usize;
        while base < last && set[base] >= self.table.saturated_from {
            base += 1;
        }
        let mut sum = 0.0;
        for &set in &set[base..] {
            sum += self.table.estimates[set as usize];
        }
        // Components `base..` observe a fraction 2^-base of the items.
        sum * (1u64 << base) as f64
    }

    /// Clears all components.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.set.fill(0);
    }

    /// Merges another multi-resolution bitmap with identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometries differ.
    pub fn merge(&mut self, other: &MultiResolutionBitmap) {
        assert_eq!(self.geometry, other.geometry, "cannot merge bitmaps of different geometries");
        let per_component = self.geometry.words_per_component();
        let mine = self.words.chunks_exact_mut(per_component);
        let theirs = other.words.chunks_exact(per_component);
        for ((mine, theirs), set) in mine.zip(theirs).zip(&mut self.set) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *set += (*b & !*a).count_ones();
                *a |= *b;
            }
        }
    }

    /// Merges a per-batch side (`words` and `set`, filled through
    /// [`BitmapGeometry::set_slot`]) into this bitmap and leaves it all zeros,
    /// in one pass over the components it set a bit in: the per-batch →
    /// per-interval fold of Section 3.2.1 together with the per-batch reset.
    ///
    /// Within a component every word is folded unconditionally. Skipping the
    /// zero words looks cheaper, but whether a word of a sampled batch is
    /// zero is a coin flip the branch predictor loses about as often as it
    /// wins, and the straight loop vectorises.
    ///
    /// # Panics
    ///
    /// Panics if the lengths are not this geometry's.
    pub fn absorb_words(&mut self, words: &mut [u64], set: &mut [u32]) {
        self.assert_side(words, set);
        let per_component = self.geometry.words_per_component();
        let mine = self.words.chunks_exact_mut(per_component);
        let theirs = words.chunks_exact_mut(per_component);
        let counters = self.set.iter_mut().zip(set);
        for ((mine, theirs), (set, batch_set)) in mine.zip(theirs).zip(counters) {
            if *batch_set == 0 {
                continue;
            }
            let mut fresh = 0;
            for (a, b) in mine.iter_mut().zip(theirs) {
                fresh += (*b & !*a).count_ones();
                *a |= *b;
                *b = 0;
            }
            *set += fresh;
            *batch_set = 0;
        }
    }

    /// [`absorb_words`](Self::absorb_words) that leaves the per-batch side as
    /// it was: for a side that keeps growing after the fold (a nested pass
    /// folds several samples out of one side, smallest first) and that its
    /// owner zeroes after the last one.
    ///
    /// # Panics
    ///
    /// Panics if the lengths are not this geometry's.
    pub fn merge_words(&mut self, words: &[u64], set: &[u32]) {
        self.assert_side(words, set);
        let per_component = self.geometry.words_per_component();
        let mine = self.words.chunks_exact_mut(per_component);
        let theirs = words.chunks_exact(per_component);
        let counters = self.set.iter_mut().zip(set);
        for ((mine, theirs), (set, &batch_set)) in mine.zip(theirs).zip(counters) {
            if batch_set == 0 {
                continue;
            }
            let mut fresh = 0;
            for (a, b) in mine.iter_mut().zip(theirs) {
                fresh += (*b & !*a).count_ones();
                *a |= *b;
            }
            *set += fresh;
        }
    }

    fn assert_side(&self, words: &[u64], set: &[u32]) {
        assert!(
            words.len() == self.words.len() && set.len() == self.set.len(),
            "cannot merge bitmaps of different geometries"
        );
    }

    /// Serializes the counter contents (component count + every bitmap).
    pub fn save_state(&self, writer: &mut StateWriter) {
        writer.usize(self.geometry.components());
        for component in self.words.chunks_exact(self.geometry.words_per_component()) {
            writer.usize(self.geometry.bits_per_component());
            for word in component {
                writer.u64(*word);
            }
        }
    }

    /// Restores contents saved by [`MultiResolutionBitmap::save_state`] into
    /// a counter of identical geometry.
    pub fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        let components = reader.usize()?;
        if components != self.geometry.components() {
            return Err(StateError::mismatch(
                "bitmap component count",
                components,
                self.geometry.components(),
            ));
        }
        let bits = self.geometry.bits_per_component();
        let per_component = self.geometry.words_per_component();
        for (component, set) in self.words.chunks_exact_mut(per_component).zip(&mut self.set) {
            let num_bits = reader.usize()?;
            if num_bits != bits {
                return Err(StateError::mismatch("bitmap size (bits)", num_bits, bits));
            }
            *set = 0;
            for word in component {
                *word = reader.u64()?;
                *set += word.count_ones();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Locates `hash` under the counter's own geometry and sets its bit.
    fn insert(mrb: &mut MultiResolutionBitmap, hash: u64) -> bool {
        mrb.insert_slot(mrb.geometry().slot(hash))
    }

    fn estimate_error(actual: usize, estimate: f64) -> f64 {
        (estimate - actual as f64).abs() / actual as f64
    }

    #[test]
    fn multiresolution_accurate_across_magnitudes() {
        for &n in &[100usize, 1_000, 10_000, 100_000] {
            let mut mrb =
                MultiResolutionBitmap::with_geometry(BitmapGeometry::for_cardinality(200_000));
            for i in 0..n {
                insert(&mut mrb, mix64(i as u64 ^ 0xdeadbeef));
            }
            let err = estimate_error(n, mrb.estimate());
            assert!(err < 0.1, "n={n} estimate={} err={err}", mrb.estimate());
        }
    }

    #[test]
    fn multiresolution_duplicates_do_not_inflate_estimate() {
        let mut mrb = MultiResolutionBitmap::with_geometry(BitmapGeometry::for_cardinality(10_000));
        for i in 0..1000u64 {
            for _ in 0..5 {
                insert(&mut mrb, mix64(i));
            }
        }
        assert!(estimate_error(1000, mrb.estimate()) < 0.1, "estimate {}", mrb.estimate());
    }

    #[test]
    fn multiresolution_clear_resets_estimate() {
        let mut mrb = MultiResolutionBitmap::with_geometry(BitmapGeometry::new(4, 1024));
        for i in 0..500u64 {
            insert(&mut mrb, mix64(i));
        }
        mrb.clear();
        assert!(mrb.estimate() < 1.0);
    }

    #[test]
    fn multiresolution_merge_matches_union() {
        let mut a = MultiResolutionBitmap::with_geometry(BitmapGeometry::new(6, 2048));
        let mut b = MultiResolutionBitmap::with_geometry(BitmapGeometry::new(6, 2048));
        for i in 0..3000u64 {
            insert(&mut a, mix64(i));
            insert(&mut b, mix64(i + 1500));
        }
        a.merge(&b);
        assert!(estimate_error(4500, a.estimate()) < 0.1, "estimate {}", a.estimate());
    }

    #[test]
    fn widest_for_cardinality_geometry_fits_the_slot_index() {
        let geometry = BitmapGeometry::for_cardinality(usize::MAX);
        assert_eq!((geometry.components(), geometry.bits_per_component()), (16, 4096));
        assert_eq!(geometry.slots(), MAX_SLOTS);
        // Fill the tail component: its last bit is the last slot a `u16` holds.
        let mut mrb = MultiResolutionBitmap::with_geometry(geometry);
        let mut top = 0;
        for i in 0..100_000u64 {
            let hash = mix64(i) | 0xffff;
            let slot = geometry.slot(hash);
            assert!(usize::from(slot) >= 15 * 4096, "sixteen low ones select the tail");
            mrb.insert_slot(slot);
            top = top.max(slot);
        }
        assert_eq!(top, u16::MAX);
    }

    #[test]
    #[should_panic(expected = "17 x 4096 has 69632 slots, a slot index addresses at most 65536")]
    fn geometry_beyond_the_slot_index_is_rejected() {
        let _ = MultiResolutionBitmap::with_geometry(BitmapGeometry::new(17, 4096));
    }

    #[test]
    fn odd_component_sizes_keep_the_modulo() {
        // 200 rounds up to 256 (masked), 130 to 192 (divided).
        assert_eq!(BitmapGeometry::new(3, 200).bits_per_component(), 256);
        let geometry = BitmapGeometry::new(3, 130);
        assert_eq!(geometry.bits_per_component(), 192);
        for i in 0..10_000u64 {
            let hash = mix64(i);
            let component = (hash.trailing_ones() as usize).min(2);
            let bit = (mix64(hash >> 16) % 192) as usize;
            assert_eq!(usize::from(geometry.slot(hash)), component * 192 + bit);
            assert_eq!(geometry.component_of(geometry.slot(hash)), component);
        }
    }

    #[test]
    fn insert_slot_reports_new_bits() {
        let mut mrb = MultiResolutionBitmap::with_geometry(BitmapGeometry::new(6, 4096));
        let h = mix64(42);
        assert!(insert(&mut mrb, h));
        assert!(!insert(&mut mrb, h));
    }
}
