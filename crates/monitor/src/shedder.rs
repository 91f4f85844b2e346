//! The load shedding mechanisms: packet sampling and flow sampling
//! (Section 4.2).
//!
//! Both samplers are zero-copy: they narrow a [`BatchView`] by building a
//! keep-index list over the batch's shared packet store instead of cloning
//! packets into a fresh batch, and they draw that list from a caller-owned
//! [`KeepListPool`], so the steady-state shed path recycles buffers instead
//! of allocating one per bin. Selection is bit-identical to the seed's
//! copy-out samplers (same RNG draw order for packet sampling, the same H3
//! verdict for every packet of a flow), which `tests/properties.rs` pins
//! against their restatement in `tests/oracle/`.
//!
//! The queries of one bin sample packets in coordination: one key per packet,
//! drawn once for all of them ([`draw_keys`]), and a query at rate `r` keeps
//! the packets whose key is below [`keep_threshold`]`(r)`
//! ([`BatchView::filter_keys_below_with`]). Each query's sample is still
//! Bernoulli(`r`) per packet, and the samples nest: a packet kept at `r` is
//! kept at every `r' ≥ r` (DESIGN.md, "Data plane").

use netshed_sketch::H3Hasher;
use netshed_trace::{BatchView, KeepListPool};
use rand::rngs::StdRng;
use rand::Rng;

/// Uniform random packet sampling: every packet of the view is kept
/// independently with probability `rate` — one query's cut of
/// [`draw_keys`], with the keys in the pool's buffer.
///
/// Returns the sampled view and the number of packets discarded.
pub fn packet_sample_with(
    batch: &BatchView,
    rate: f64,
    rng: &mut StdRng,
    pool: &mut KeepListPool,
) -> (BatchView, u64) {
    let rate = rate.clamp(0.0, 1.0);
    if rate >= 1.0 {
        return (batch.clone(), 0);
    }
    if rate <= 0.0 {
        return (batch.cleared_with(pool), batch.len() as u64);
    }
    let mut keys = std::mem::take(pool.keys());
    draw_keys(batch, rng, &mut keys);
    let sampled = batch.filter_keys_below_with(pool, &keys, keep_threshold(rate));
    *pool.keys() = keys;
    let dropped = batch.len() as u64 - sampled.len() as u64;
    (sampled, dropped)
}

/// The keep test `rng.gen::<f64>() < rate` in integers. The draw is `k · 2⁻⁵³`
/// for `k = next_u64() >> 11`, and that product and `rate · 2⁵³` are both exact
/// (a power of two only moves the exponent), so `k · 2⁻⁵³ < rate` ⇔
/// `k < ⌈rate · 2⁵³⌉`: the same verdict from the same draw. A NaN rate casts
/// to 0 and keeps nothing, as `x < NaN` does; the cast saturates, so a rate
/// below 0 keeps nothing and one above 1 everything. Monotone in `rate`
/// (a product by a power of two, `ceil` and the saturating cast all are), so
/// samples drawn from one key per packet nest.
pub fn keep_threshold(rate: f64) -> u64 {
    (rate * (1u64 << 53) as f64).ceil() as u64
}

/// Draws one 53-bit key `next_u64() >> 11` per packet of `batch`, in view
/// order, into `keys` by store index (a packet outside the view gets
/// `u64::MAX`, which no threshold keeps, so [`packet_sample_with`] can cut
/// any view). Every query's sample is still Bernoulli(rate) per packet, and
/// the samples nest: the sample at a threshold is the same cut from the
/// whole batch or from the sample at any higher threshold.
pub fn draw_keys(batch: &BatchView, rng: &mut StdRng, keys: &mut Vec<u64>) {
    keys.clear();
    if batch.is_full() {
        keys.extend((0..batch.len()).map(|_| rng.next_u64() >> 11));
        return;
    }
    keys.resize(batch.store().len(), u64::MAX);
    for (at, _) in batch.indexed_packets() {
        keys[at] = rng.next_u64() >> 11;
    }
}

/// Flowwise sampling: a flow is kept if the H3 hash of its 5-tuple, mapped to
/// `[0, 1)`, is below `rate` — so all packets of a flow share the same fate
/// and no flow table is needed (the "Flowwise sampling" technique the paper
/// adopts).
///
/// The verdict is a function of the 5-tuple, so H3 is evaluated once per flow
/// of the view (grouped by the batch's shared flow index) and the flow's
/// other packets share it; the evaluation itself stays per query because
/// every query draws its own hash function per measurement interval.
///
/// Returns the sampled view and the number of packets discarded.
pub fn flow_sample_with(
    batch: &BatchView,
    rate: f64,
    hasher: &H3Hasher,
    pool: &mut KeepListPool,
) -> (BatchView, u64) {
    let rate = rate.clamp(0.0, 1.0);
    if rate >= 1.0 {
        return (batch.clone(), 0);
    }
    if rate <= 0.0 {
        return (batch.cleared_with(pool), batch.len() as u64);
    }
    let sampled =
        batch.filter_flows_with(pool, |tuple| hasher.unit_interval(&tuple.as_key()) < rate);
    let dropped = batch.len() as u64 - sampled.len() as u64;
    (sampled, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netshed_trace::{Batch, FiveTuple, Packet};
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn packet_sample(batch: &BatchView, rate: f64, rng: &mut StdRng) -> (BatchView, u64) {
        packet_sample_with(batch, rate, rng, &mut KeepListPool::new())
    }

    fn flow_sample(batch: &BatchView, rate: f64, hasher: &H3Hasher) -> (BatchView, u64) {
        flow_sample_with(batch, rate, hasher, &mut KeepListPool::new())
    }

    fn test_batch(flows: u32, packets_per_flow: u32) -> Batch {
        let mut packets = Vec::new();
        for f in 0..flows {
            let tuple = FiveTuple::new(f, 100 + f, 1000, 80, 6);
            for p in 0..packets_per_flow {
                packets.push(Packet::header_only(u64::from(f * 10 + p), tuple, 100, 0));
            }
        }
        Batch::new(0, 0, 100_000, packets)
    }

    #[test]
    fn packet_sampling_keeps_roughly_the_requested_fraction() {
        let batch = test_batch(100, 20);
        let mut rng = StdRng::seed_from_u64(1);
        let (sampled, dropped) = packet_sample(&batch.view(), 0.3, &mut rng);
        let kept_fraction = sampled.len() as f64 / batch.len() as f64;
        assert!((kept_fraction - 0.3).abs() < 0.05, "kept {kept_fraction}");
        assert_eq!(sampled.len() as u64 + dropped, batch.len() as u64);
    }

    #[test]
    fn rate_one_keeps_everything_rate_zero_drops_everything() {
        let batch = test_batch(10, 5);
        let mut rng = StdRng::seed_from_u64(2);
        let (all, dropped_none) = packet_sample(&batch.view(), 1.0, &mut rng);
        assert_eq!(all.len(), batch.len());
        assert_eq!(dropped_none, 0);
        let (none, dropped_all) = packet_sample(&batch.view(), 0.0, &mut rng);
        assert!(none.is_empty());
        assert_eq!(dropped_all, batch.len() as u64);
    }

    #[test]
    fn sampling_is_zero_copy() {
        let batch = test_batch(50, 4);
        let view = batch.view();
        let mut rng = StdRng::seed_from_u64(5);
        let (pkt_sampled, _) = packet_sample(&view, 0.5, &mut rng);
        assert!(pkt_sampled.shares_store(&view), "packet sampling must not copy packets");
        let hasher = H3Hasher::new(13, 5);
        let (flow_sampled, _) = flow_sample(&view, 0.5, &hasher);
        assert!(flow_sampled.shares_store(&view), "flow sampling must not copy packets");
        // Composed sampling (per-query sampling of a post-drop view) shares too.
        let (nested, _) = flow_sample(&pkt_sampled, 0.5, &hasher);
        assert!(nested.shares_store(&view));
    }

    #[test]
    fn flow_sampling_keeps_or_drops_entire_flows() {
        let batch = test_batch(200, 10);
        let hasher = H3Hasher::new(13, 7);
        let (sampled, _) = flow_sample(&batch.view(), 0.5, &hasher);
        // Every flow present in the sampled batch must have all 10 packets.
        let mut per_flow: std::collections::HashMap<FiveTuple, usize> =
            std::collections::HashMap::new();
        for p in sampled.packets() {
            *per_flow.entry(*p.tuple()).or_insert(0) += 1;
        }
        assert!(per_flow.values().all(|&count| count == 10), "flows must be kept whole");
        let kept_flows = per_flow.len() as f64 / 200.0;
        assert!((kept_flows - 0.5).abs() < 0.12, "kept flow fraction {kept_flows}");
    }

    #[test]
    fn flow_sampling_is_deterministic_for_a_given_hash_function() {
        let batch = test_batch(50, 4);
        let hasher = H3Hasher::new(13, 9);
        let (a, _) = flow_sample(&batch.view(), 0.4, &hasher);
        let (b, _) = flow_sample(&batch.view(), 0.4, &hasher);
        let flows_a: HashSet<FiveTuple> = a.packets().map(|p| *p.tuple()).collect();
        let flows_b: HashSet<FiveTuple> = b.packets().map(|p| *p.tuple()).collect();
        assert_eq!(flows_a, flows_b);
    }

    #[test]
    fn pooled_sampling_matches_the_allocating_path_and_recycles() {
        let batch = test_batch(80, 5);
        let view = batch.view();
        let hasher = H3Hasher::new(13, 21);
        let mut pool = KeepListPool::new();
        for _ in 0..20 {
            let mut rng_a = StdRng::seed_from_u64(77);
            let mut rng_b = StdRng::seed_from_u64(77);
            let (plain_pkt, d1) = packet_sample(&view, 0.4, &mut rng_a);
            let (pooled_pkt, d2) = packet_sample_with(&view, 0.4, &mut rng_b, &mut pool);
            assert_eq!(d1, d2);
            assert!(plain_pkt.packets().map(|p| p.ts()).eq(pooled_pkt.packets().map(|p| p.ts())));
            let (plain_flow, d3) = flow_sample(&view, 0.4, &hasher);
            let (pooled_flow, d4) = flow_sample_with(&view, 0.4, &hasher, &mut pool);
            assert_eq!(d3, d4);
            assert!(plain_flow.packets().map(|p| p.ts()).eq(pooled_flow.packets().map(|p| p.ts())));
        }
        // Views are dropped each round, so the pool never needs many slots.
        assert!(pool.slots() <= 2, "pool grew to {} slots", pool.slots());
    }

    proptest::proptest! {
        /// The integer verdict is the float comparison, draw for draw: on
        /// rates at and one ulp either side of the draw itself (the only
        /// place the two could part), at the ends of the unit interval, on
        /// NaN and on rates `clamp` folds to 0 and 1.
        #[test]
        fn integer_verdict_is_the_float_comparison(seed in 0u64..u64::MAX, rate in 0.0f64..1.0) {
            let mut integer_rng = StdRng::seed_from_u64(seed);
            let mut float_rng = integer_rng.clone();
            for _ in 0..64 {
                let draw = integer_rng.next_u64() >> 11;
                let unit: f64 = float_rng.gen();
                let rates = [
                    rate,
                    unit,
                    unit.next_up(),
                    unit.next_down(),
                    f64::MIN_POSITIVE,
                    f64::from_bits(1),
                    f64::from_bits(0x000f_ffff_ffff_ffff),
                    (0.5f64).powi(53),
                    (0.5f64).powi(53).next_down(),
                    1.0 - (0.5f64).powi(53),
                    f64::NAN,
                    -0.0,
                    -1.0,
                    1.0,
                    2.5,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                ];
                for rate in rates.map(|rate| rate.clamp(0.0, 1.0)) {
                    proptest::prop_assert_eq!(
                        draw < keep_threshold(rate),
                        unit < rate,
                        "draw {} against rate {:e}",
                        draw,
                        rate
                    );
                }
            }
        }
    }

    /// A rate from `pick`: one of the special values (0, 1, the smallest
    /// subnormal and normal, the largest subnormal, 2⁻⁵³ and its neighbour,
    /// one ulp below 1, values outside [0, 1], the infinities and NaN), a
    /// random rate in [-0.5, 1.5), or one ulp above or below it.
    fn rate_of(pick: usize, random: f64) -> f64 {
        const SPECIAL: [f64; 15] = [
            0.0,
            -0.0,
            1.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            1.1102230246251565e-16,
            1.1102230246251563e-16,
            0.9999999999999999,
            -1.0,
            2.5,
            1.0000000000000002,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        match pick {
            pick if pick < SPECIAL.len() => SPECIAL[pick],
            15 => random,
            16 => random.next_up(),
            _ => random.next_down(),
        }
    }

    proptest::proptest! {
        /// The samples of one set of keys nest: `keep_threshold` is monotone
        /// in the rate, so for r ≤ r′ every key kept at r is kept at r′ —
        /// on one-ulp neighbours, subnormals, 0, 1, rates outside [0, 1]; a
        /// NaN rate keeps nothing, below every other rate's sample.
        #[test]
        fn samples_at_lower_rates_nest_in_samples_at_higher_ones(
            seed in 0u64..u64::MAX,
            random in -0.5f64..1.5,
            picks in proptest::collection::vec(0usize..18, 2..8),
        ) {
            let rates: Vec<f64> = picks.iter().map(|&pick| rate_of(pick, random)).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let keys: Vec<u64> = (0..256).map(|_| rng.next_u64() >> 11).collect();
            for &low in &rates {
                if low.is_nan() {
                    proptest::prop_assert_eq!(keep_threshold(low), 0);
                    continue;
                }
                for &high in rates.iter().filter(|high| low <= **high) {
                    let (at_low, at_high) = (keep_threshold(low), keep_threshold(high));
                    proptest::prop_assert!(at_low <= at_high, "{:e} → {}, {:e} → {}", low, at_low, high, at_high);
                    for &key in &keys {
                        proptest::prop_assert!(key >= at_low || key < at_high);
                    }
                }
            }
            // Through the sampler: a view at each rate holds the view at
            // every lower rate.
            let batch = test_batch(16, 16);
            let (view, mut pool) = (batch.view(), KeepListPool::new());
            let kept = |rate: f64, pool: &mut KeepListPool| -> Vec<usize> {
                let sample = view.filter_keys_below_with(pool, &keys, keep_threshold(rate));
                sample.indexed_packets().map(|(at, _)| at).collect()
            };
            for &low in rates.iter().filter(|rate| !rate.is_nan()) {
                let lower = kept(low, &mut pool);
                for &high in rates.iter().filter(|high| low <= **high) {
                    let higher = kept(high, &mut pool);
                    proptest::prop_assert!(lower.iter().all(|at| higher.contains(at)));
                }
            }
        }
    }

    #[test]
    fn different_hash_functions_select_different_flows() {
        let batch = test_batch(200, 2);
        let h1 = H3Hasher::new(13, 1);
        let h2 = H3Hasher::new(13, 2);
        let (a, _) = flow_sample(&batch.view(), 0.5, &h1);
        let (b, _) = flow_sample(&batch.view(), 0.5, &h2);
        let flows_a: HashSet<FiveTuple> = a.packets().map(|p| *p.tuple()).collect();
        let flows_b: HashSet<FiveTuple> = b.packets().map(|p| *p.tuple()).collect();
        assert_ne!(flows_a, flows_b, "fresh hash functions must change the selection");
    }
}
