//! Property-based tests of the core data structures and invariants.

mod oracle;

use netshed::fairness::{eq_srates, mmfs_cpu, mmfs_pkt, Allocation, QueryDemand};
use netshed::linalg::{Matrix, OlsWorkspace};
use netshed::monitor::{flow_sample_with, packet_sample_with};
use netshed::monitor::{Monitor, PredictorKind};
use netshed::sketch::{mix64, BitmapGeometry, H3Hasher, MultiResolutionBitmap};
use netshed::trace::{
    Batch, BatchBuilder, BatchView, FiveTuple, KeepListPool, Packet, TraceConfig, TraceGenerator,
};
// The seed's copy-out samplers, the reference the zero-copy view path must
// match bit for bit.
use oracle::{clone_flow_sample, clone_packet_sample};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn shed_test_batch(seed: u64) -> Batch {
    TraceGenerator::new(TraceConfig::default().with_seed(seed).with_mean_packets_per_batch(300.0))
        .next_batch()
}

fn flow_sample(view: &BatchView, rate: f64, hasher: &H3Hasher) -> (BatchView, u64) {
    flow_sample_with(view, rate, hasher, &mut KeepListPool::new())
}

proptest! {
    /// The multi-resolution bitmap estimate stays within a reasonable
    /// relative error across two orders of magnitude of cardinality.
    #[test]
    fn multiresolution_bitmap_estimates_within_bounds(n in 200usize..20_000, salt in 0u64..1000) {
        let geometry = BitmapGeometry::for_cardinality(50_000);
        let mut bitmap = MultiResolutionBitmap::with_geometry(geometry);
        for i in 0..n {
            bitmap.insert_slot(geometry.slot(mix64(i as u64 ^ (salt << 32))));
        }
        let estimate = bitmap.estimate();
        let error = (estimate - n as f64).abs() / n as f64;
        prop_assert!(error < 0.15, "n={n} estimate={estimate} error={error}");
    }

    /// Every fairness strategy respects the capacity constraint and the
    /// minimum sampling rate of every enabled query, and never emits a rate
    /// outside [0, 1].
    #[test]
    fn fair_allocations_respect_capacity_and_minimums(
        demands in proptest::collection::vec((1.0f64..1e6, 0.0f64..1.0), 1..12),
        capacity_factor in 0.05f64..1.5,
    ) {
        let demands: Vec<QueryDemand> =
            demands.into_iter().map(|(cycles, min)| QueryDemand::new(cycles, min)).collect();
        let total: f64 = demands.iter().map(|d| d.predicted_cycles).sum();
        let capacity = total * capacity_factor;
        for strategy in [mmfs_cpu, mmfs_pkt, eq_srates] {
            let allocations = strategy(&demands, capacity);
            prop_assert_eq!(allocations.len(), demands.len());
            let used: f64 = demands
                .iter()
                .zip(&allocations)
                .map(|(d, a)| d.predicted_cycles * a.rate())
                .sum();
            prop_assert!(used <= capacity * 1.0001 + 1e-6, "used {} > capacity {}", used, capacity);
            for (demand, allocation) in demands.iter().zip(&allocations) {
                match allocation {
                    Allocation::Disabled => {}
                    Allocation::Rate(rate) => {
                        prop_assert!((0.0..=1.0).contains(rate));
                        prop_assert!(*rate >= demand.min_rate - 1e-9);
                    }
                }
            }
        }
    }

    /// With ample capacity no strategy sheds anything.
    #[test]
    fn ample_capacity_never_sheds(
        demands in proptest::collection::vec((1.0f64..1e5, 0.0f64..1.0), 1..10),
    ) {
        let demands: Vec<QueryDemand> =
            demands.into_iter().map(|(cycles, min)| QueryDemand::new(cycles, min)).collect();
        let total: f64 = demands.iter().map(|d| d.predicted_cycles).sum();
        for strategy in [mmfs_cpu, mmfs_pkt, eq_srates] {
            let allocations = strategy(&demands, total * 2.0);
            for allocation in &allocations {
                prop_assert!((allocation.rate() - 1.0).abs() < 1e-9, "{:?}", allocation);
            }
        }
    }

    /// The batch builder conserves packets: every pushed packet ends up in
    /// exactly one emitted batch, and batches are emitted in bin order. The
    /// caller-provided output buffer is reused across all pushes.
    #[test]
    fn batch_builder_conserves_packets(timestamps in proptest::collection::vec(0u64..5_000, 1..300)) {
        let mut sorted = timestamps.clone();
        sorted.sort_unstable();
        let mut builder = BatchBuilder::new(100);
        let mut batches = Vec::new();
        for ts in &sorted {
            let packet = Packet::header_only(*ts, FiveTuple::new(1, 2, 3, 4, 6), 100, 0);
            let before = batches.len();
            let closed = builder.push_into(packet, &mut batches).expect("bins within gap cap");
            prop_assert_eq!(batches.len(), before + closed);
        }
        batches.push(builder.finish());
        let total: usize = batches.iter().map(netshed::Batch::len).sum();
        prop_assert_eq!(total, sorted.len());
        for window in batches.windows(2) {
            prop_assert_eq!(window[1].bin_index, window[0].bin_index + 1);
        }
        for batch in &batches {
            for packet in batch.packets.iter() {
                prop_assert!(packet.ts() >= batch.start_ts && packet.ts() < batch.end_ts());
            }
        }
    }

    /// Zero-copy packet sampling selects exactly the packets the historical
    /// clone-based path selected, for the same RNG seed, and leaves the
    /// generator where that path leaves it (one draw per packet of the view,
    /// whatever was kept) — on a full view and on a sampled parent view,
    /// across the shedding rates the monitor uses (0, a fractional rate, 1)
    /// and the edges of the integer verdict: the smallest rates, one draw's
    /// own value and its neighbours, NaN, and rates `clamp` folds to 0 and 1.
    #[test]
    fn view_packet_sampling_matches_the_clone_path(
        trace_seed in 0u64..200,
        rng_seed in 0u64..200,
        rate_index in 0usize..16,
    ) {
        // The unit value of the generator's first draw: a rate the first
        // packet's verdict sits exactly on.
        let first_draw: f64 = StdRng::seed_from_u64(rng_seed).gen();
        let rate = [
            0.0,
            0.37,
            1.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            (0.5f64).powi(53),
            1.0 - (0.5f64).powi(53),
            first_draw,
            first_draw.next_up(),
            first_draw.next_down(),
            f64::NAN,
            -1.0,
            2.5,
            f64::INFINITY,
            0.05,
            0.9,
        ][rate_index];
        let batch = shed_test_batch(trace_seed);
        let sampled_parent = batch.view().filter_indexed(|index, _| index % 3 != 0);

        for parent in [batch.view(), sampled_parent] {
            let mut view_rng = StdRng::seed_from_u64(rng_seed);
            let (view, view_dropped) =
                packet_sample_with(&parent, rate, &mut view_rng, &mut KeepListPool::new());
            let mut clone_rng = StdRng::seed_from_u64(rng_seed);
            let (cloned, clone_dropped) =
                clone_packet_sample(&parent.materialize(), rate, &mut clone_rng);

            prop_assert_eq!(view_dropped, clone_dropped);
            let from_view: Vec<Packet> = view.packets().map(|p| p.to_packet()).collect();
            let from_clone: Vec<Packet> = cloned.packets.iter().map(|p| p.to_packet()).collect();
            prop_assert_eq!(from_view, from_clone);
            // The kept store indices are the parent's, in its order.
            let mut of_parent = parent.indexed_packets().map(|(at, _)| at);
            prop_assert!(view.indexed_packets().all(|(at, _)| of_parent.any(|other| other == at)));
            // Both RNGs must stand at the same point of the stream.
            prop_assert_eq!(view_rng.state(), clone_rng.state());
            // And the view must actually be zero-copy.
            prop_assert!(std::sync::Arc::ptr_eq(view.store(), &batch.packets));
        }
    }

    /// Zero-copy flow sampling selects exactly the flows the clone-based
    /// path selected for the same H3 hash function, so query outputs are
    /// unchanged by the refactor.
    #[test]
    fn view_flow_sampling_matches_the_clone_path(
        trace_seed in 0u64..200,
        hash_seed in 0u64..200,
        rate_index in 0usize..4,
    ) {
        let rate = [0.0, 0.05, 0.37, 1.0][rate_index];
        let batch = shed_test_batch(trace_seed);
        let hasher = H3Hasher::new(13, hash_seed);

        let (view, view_dropped) = flow_sample(&batch.view(), rate, &hasher);
        let (cloned, clone_dropped) = clone_flow_sample(&batch, rate, &hasher);

        prop_assert_eq!(view_dropped, clone_dropped);
        let from_view: Vec<Packet> = view.packets().map(|p| p.to_packet()).collect();
        let from_clone: Vec<Packet> = cloned.packets.iter().map(|p| p.to_packet()).collect();
        prop_assert_eq!(from_view, from_clone);
        prop_assert!(std::sync::Arc::ptr_eq(view.store(), &batch.packets));
    }

    /// One H3 verdict per flow is the per-packet verdict: under heavy
    /// repetition (a few dozen 5-tuples, among them both directions of a
    /// conversation, carrying hundreds of packets) and on a view of a view,
    /// the kept packets are exactly those the clone path keeps, which
    /// re-serialises and re-hashes every packet's key — from one pool, at
    /// every rate and under a second hash function in turn, so a verdict
    /// left over from an earlier call would show.
    #[test]
    fn flow_sampling_under_heavy_repetition_matches_the_clone_path(
        picks in proptest::collection::vec((0u32..6, 0u32..6, 0u16..3, 0usize..2), 1..400),
        hash_seed in 0u64..500,
        stride in 1usize..4,
    ) {
        let packets: Vec<Packet> = picks
            .iter()
            .enumerate()
            .map(|(ts, (src, dst, port, proto))| {
                let tuple = FiveTuple::new(*src, *dst, *port, 2 - *port, [6, 17][*proto]);
                Packet::header_only(ts as u64, tuple, 100, 0)
            })
            .collect();
        let batch = Batch::new(0, 0, 100_000, packets);
        let views = [batch.view(), batch.view().filter_indexed(|index, _| index % stride == 0)];
        let mut pool = KeepListPool::new();
        for (round, rate) in [0.37, 0.0, 0.05, 1.0, 0.37].into_iter().enumerate() {
            let hasher = H3Hasher::new(13, hash_seed + round as u64 / 3);
            for view in &views {
                let (sampled, dropped) = flow_sample_with(view, rate, &hasher, &mut pool);
                let (cloned, clone_dropped) = clone_flow_sample(&view.materialize(), rate, &hasher);
                prop_assert_eq!(dropped, clone_dropped);
                let from_view: Vec<Packet> = sampled.packets().map(|p| p.to_packet()).collect();
                let from_clone: Vec<Packet> = cloned.packets.iter().map(|p| p.to_packet()).collect();
                prop_assert_eq!(from_view, from_clone, "rate {} in round {}", rate, round);
                prop_assert!(sampled.shares_store(view));
            }
        }
    }

    /// H3 flow sampling is a pure function of (hash function, flow key):
    /// the same flow receives the same keep/drop decision in every batch it
    /// appears in, no matter how the surrounding packets differ.
    #[test]
    fn flow_sampling_decides_per_flow_key_across_batches(
        flow_ids in proptest::collection::hash_set(0u32..5_000, 2..40),
        hash_seed in 0u64..500,
        rate in 0.05f64..0.95,
    ) {
        let flows: Vec<FiveTuple> =
            flow_ids.iter().map(|f| FiveTuple::new(*f, 9_000 + f, 1_000, 80, 6)).collect();
        // Batch A: two packets per flow, in flow order. Batch B: one packet
        // per flow in reverse order, interleaved with unrelated traffic.
        let mut a_packets = Vec::new();
        for (index, tuple) in flows.iter().enumerate() {
            a_packets.push(Packet::header_only(index as u64 * 2, *tuple, 100, 0));
            a_packets.push(Packet::header_only(index as u64 * 2 + 1, *tuple, 200, 0));
        }
        let mut b_packets = Vec::new();
        for (index, tuple) in flows.iter().rev().enumerate() {
            b_packets.push(Packet::header_only(index as u64 * 3, *tuple, 300, 0));
            let noise = FiveTuple::new(1_000_000 + index as u32, 7, 53, 53, 17);
            b_packets.push(Packet::header_only(index as u64 * 3 + 1, noise, 80, 0));
        }
        let batch_a = Batch::new(0, 0, 100_000, a_packets);
        let batch_b = Batch::new(5, 500_000, 100_000, b_packets);

        let hasher = H3Hasher::new(13, hash_seed);
        let (sampled_a, _) = flow_sample(&batch_a.view(), rate, &hasher);
        let (sampled_b, _) = flow_sample(&batch_b.view(), rate, &hasher);
        let kept_a: std::collections::HashSet<FiveTuple> =
            sampled_a.packets().map(|p| *p.tuple()).collect();
        let kept_b: std::collections::HashSet<FiveTuple> =
            sampled_b.packets().map(|p| *p.tuple()).collect();
        for tuple in &flows {
            prop_assert_eq!(
                kept_a.contains(tuple),
                kept_b.contains(tuple),
                "flow {:?} changed fate between batches",
                tuple
            );
        }
        // Whole flows are kept or dropped: batch A holds two packets per
        // kept flow, never one.
        prop_assert_eq!(sampled_a.len(), kept_a.len() * 2);
    }

    /// More budget can only widen the kept set: at a higher sampling rate
    /// the kept flows are a superset of the kept flows at any lower rate
    /// (the monotonicity that makes per-bin rate changes graceful).
    #[test]
    fn flow_sampling_rate_is_monotone(
        flow_ids in proptest::collection::hash_set(0u32..10_000, 5..60),
        hash_seed in 0u64..500,
        rate_a in 0.0f64..1.0,
        rate_b in 0.0f64..1.0,
    ) {
        let (low, high) = if rate_a <= rate_b { (rate_a, rate_b) } else { (rate_b, rate_a) };
        let packets: Vec<Packet> = flow_ids
            .iter()
            .enumerate()
            .map(|(index, f)| {
                Packet::header_only(index as u64, FiveTuple::new(*f, 2, 3, 443, 6), 100, 0)
            })
            .collect();
        let batch = Batch::new(0, 0, 100_000, packets);
        let hasher = H3Hasher::new(13, hash_seed);
        let (kept_low, _) = flow_sample(&batch.view(), low, &hasher);
        let (kept_high, _) = flow_sample(&batch.view(), high, &hasher);
        let low_set: std::collections::HashSet<FiveTuple> =
            kept_low.packets().map(|p| *p.tuple()).collect();
        let high_set: std::collections::HashSet<FiveTuple> =
            kept_high.packets().map(|p| *p.tuple()).collect();
        prop_assert!(
            low_set.is_subset(&high_set),
            "rate {} kept flows outside rate {}'s set",
            low,
            high
        );
    }

    /// Layout equivalence: the struct-of-arrays packet store is
    /// observationally identical to packet-at-a-time construction. For an
    /// arbitrary packet mix, every column round-trips back to the source
    /// packet, the eager
    /// stats match a scalar fold over the packets, the cached slot row of
    /// every packet's flow matches the oracle's padded-key hashes located by
    /// locate-then-modulo, and the fused extractor's output over the store
    /// matches the ten-pass oracle walking packet structs.
    #[test]
    fn soa_store_is_equivalent_to_packetwise_construction(
        rows in proptest::collection::vec(
            ((0u64..100_000, 1u32..0xffff, 1u32..0xffff),
             (0u16..1024, 0u16..1024, 0usize..3, 20u32..1500),
             (0u8..32, 0u8..2, 1u8..32)),
            1..120,
        ),
    ) {
        use netshed::features::{AGGREGATE_HASH_SEED, AGGREGATE_MAX_CARDINALITY};
        use netshed::trace::Bytes;

        let mut packets: Vec<Packet> = rows
            .iter()
            .map(|((ts, src_ip, dst_ip), (src_port, dst_port, proto, ip_len), rest)| {
                let (flags, has_payload, payload_len) = *rest;
                let tuple =
                    FiveTuple::new(*src_ip, *dst_ip, *src_port, *dst_port, [6, 17, 1][*proto]);
                if has_payload == 1 {
                    let bytes: Vec<u8> = (0..payload_len)
                        .map(|index| (*ts as u8).wrapping_add(index))
                        .collect();
                    Packet::with_payload(*ts, tuple, *ip_len, flags, Bytes::from(bytes))
                } else {
                    Packet::header_only(*ts, tuple, *ip_len, flags)
                }
            })
            .collect();
        packets.sort_by_key(|p| p.ts);
        let batch = Batch::new(0, 0, 100_000, packets.clone());

        // Column round-trip.
        prop_assert_eq!(batch.len(), packets.len());
        for (packet, stored) in packets.iter().zip(batch.packets.iter()) {
            prop_assert_eq!(packet, &stored.to_packet());
        }

        // Eager stats vs a scalar fold.
        let stats = batch.packets.stats();
        prop_assert_eq!(stats.packets, packets.len() as u64);
        prop_assert_eq!(stats.bytes, packets.iter().map(|p| u64::from(p.ip_len)).sum::<u64>());
        prop_assert_eq!(
            stats.payload_bytes,
            packets.iter().map(|p| p.payload_len() as u64).sum::<u64>()
        );
        prop_assert_eq!(stats.syn_packets, packets.iter().filter(|p| p.is_syn()).count() as u64);
        prop_assert_eq!(stats.tcp_packets, packets.iter().filter(|p| p.is_proto(6)).count() as u64);
        prop_assert_eq!(stats.udp_packets, packets.iter().filter(|p| p.is_proto(17)).count() as u64);

        // Cached slot rows vs the oracle (an independent code path: one
        // padded key and one `hash_bytes` call per aggregate instead of the
        // incremental per-field hasher, locate-then-modulo on one bitmap per
        // component instead of the flat geometry).
        let reference = oracle::ReferenceBitmap::for_cardinality(AGGREGATE_MAX_CARDINALITY);
        let flows = batch.packets.flow_index();
        for (packet, &flow) in packets.iter().zip(flows.flow_of()) {
            for (index, &slot) in flows.rows()[flow as usize].as_array().iter().enumerate() {
                let expected = oracle::aggregate_hash(index, &packet.tuple, AGGREGATE_HASH_SEED);
                prop_assert_eq!(usize::from(slot), reference.slot(expected));
            }
        }

        // Fused extraction over the store vs the ten-pass packet walk.
        let mut fused = netshed::features::FeatureExtractor::with_defaults();
        let mut tenpass = oracle::TenPassExtractor::with_defaults();
        let (fused_vector, fused_ops) = fused.extract(&batch);
        let (tenpass_vector, tenpass_ops) = tenpass.extract(&batch);
        prop_assert_eq!(fused_ops, tenpass_ops);
        for id in netshed::features::FeatureId::all() {
            prop_assert_eq!(
                fused_vector.get(id),
                tenpass_vector.get(id),
                "feature {} diverged",
                id.name()
            );
        }
    }

    /// The flow index groups packets exactly by 5-tuple equality, whatever
    /// the tuples do to its probe table: drawn from a handful of field
    /// values (so most packets repeat a tuple, many tuples differ in one
    /// field only, both directions of a conversation and equal ports occur),
    /// as one flow, or all distinct. Ids are dense in first-seen order,
    /// `first` holds each flow's minimal index, and a flow's row is what the
    /// oracle hashes and locates for any of its packets.
    #[test]
    fn flow_index_partitions_packets_by_tuple_equality(
        picks in proptest::collection::vec(
            ((0u32..4, 0u32..4), (0u16..3, 0u16..3, 0usize..2)), 0..300,
        ),
        shape in 0usize..4,
    ) {
        use netshed::features::{AGGREGATE_HASH_SEED, AGGREGATE_MAX_CARDINALITY};

        let tuples: Vec<FiveTuple> = picks
            .iter()
            .enumerate()
            .map(|(at, ((src, dst), (src_port, dst_port, proto)))| match shape {
                0 => FiveTuple::new(7, 7, 7, 7, 6),
                1 => FiveTuple::new(at as u32, 1, 2, 3, 6),
                _ => FiveTuple::new(*src, *dst, *src_port, *dst_port, [6, 17][*proto]),
            })
            .collect();
        let packets: Vec<Packet> = tuples
            .iter()
            .enumerate()
            .map(|(ts, tuple)| Packet::header_only(ts as u64, *tuple, 100, 0))
            .collect();
        let batch = Batch::new(0, 0, 100_000, packets);
        let index = batch.packets.flow_index();

        let mut first_seen: Vec<FiveTuple> = Vec::new();
        let reference = oracle::ReferenceBitmap::for_cardinality(AGGREGATE_MAX_CARDINALITY);
        prop_assert_eq!(index.flow_of().len(), tuples.len());
        for (at, (tuple, &flow)) in tuples.iter().zip(index.flow_of()).enumerate() {
            let expected = if let Some(flow) = first_seen.iter().position(|seen| seen == tuple) {
                flow
            } else {
                prop_assert_eq!(index.first()[first_seen.len()] as usize, at);
                first_seen.push(*tuple);
                first_seen.len() - 1
            };
            prop_assert_eq!(flow as usize, expected, "packet {} ({})", at, tuple);
            for (aggregate, &slot) in index.rows()[expected].as_array().iter().enumerate() {
                let hash = oracle::aggregate_hash(aggregate, tuple, AGGREGATE_HASH_SEED);
                prop_assert_eq!(usize::from(slot), reference.slot(hash));
            }
        }
        prop_assert_eq!(index.flows(), first_seen.len());
        prop_assert_eq!(index.first().len(), first_seen.len());
        prop_assert_eq!(index.rows().len(), first_seen.len());
    }

    /// `flows` and `super-sources` probe once per flow of the view, and
    /// `top-k`, `autofocus` and `application` look up once per flow and add
    /// once per packet; their per-packet restatements in `tests/oracle/`
    /// look up once per packet. Over bins of heavily repeating traffic — a
    /// packet length drawn per packet and a rate that is not a power of two,
    /// so an accumulator that received its additions in another order or
    /// grouping would differ in the last bit — delivered as full, strided,
    /// flow-sampled, fleet-lane and view-of-view views, with an interval
    /// roll and a checkpoint restore in the middle, both leave the same
    /// charged cycles and operations and the same checkpoint bytes after
    /// every bin, and the same interval outputs.
    #[test]
    fn flow_keyed_queries_match_their_per_packet_restatement(
        bins in proptest::collection::vec(
            (
                proptest::collection::vec(
                    ((0u32..4, 0usize..5), (0usize..3, 0usize..2, 40u32..1500)),
                    1..150,
                ),
                0usize..5,
                0.05f64..1.0,
                0u64..500,
            ),
            2..7,
        ),
        roll in 1usize..6,
        restore in 1usize..6,
    ) {
        use netshed::queries::{
            ApplicationQuery, AutofocusQuery, CycleMeter, FlowsQuery, Query, SuperSourcesQuery,
            TopKQuery,
        };
        use netshed::sketch::{StateReader, StateWriter};
        use oracle::PerPacketKernel;

        fn saved(save: impl FnOnce(&mut StateWriter)) -> Vec<u8> {
            let mut writer = StateWriter::new();
            save(&mut writer);
            writer.into_bytes()
        }

        // Destinations that share their /8, /16 or /24 with another, and
        // ports that classify as three applications or none.
        const DSTS: [u32; 5] = [0x0a00_0001, 0x0a00_0102, 0x0a01_0001, 0x0b00_0001, 0xc0a8_0101];
        const PORTS: [u16; 3] = [1024, 53, 6881];
        let fresh = || -> Vec<(Box<dyn Query>, Box<dyn PerPacketKernel>)> {
            vec![
                (Box::new(FlowsQuery::new()), Box::new(oracle::PerPacketFlows::default())),
                (Box::new(SuperSourcesQuery::new(3)), Box::new(oracle::PerPacketSuperSources::new(3))),
                (Box::new(TopKQuery::new(3)), Box::new(oracle::PerPacketTopK::new(3))),
                (Box::new(AutofocusQuery::new(0.02)), Box::new(oracle::PerPacketAutofocus::new(0.02))),
                (Box::new(ApplicationQuery::new()), Box::new(oracle::PerPacketApplication::default())),
            ]
        };
        let mut pairs = fresh();
        let (mut pool, mut lane_of_flow) = (KeepListPool::new(), Vec::new());
        for (bin, (picks, shape, rate, hash_seed)) in bins.iter().enumerate() {
            if bin == roll {
                for (query, oracle) in &mut pairs {
                    prop_assert_eq!(query.end_interval(), oracle.end_interval(), "roll at bin {}", bin);
                }
            }
            if bin == restore {
                // A restored instance carries on from the bytes, not from
                // anything the old one kept beside them.
                let mut restored = fresh();
                for ((query, _), (into, _)) in pairs.iter().zip(&mut restored) {
                    let bytes = saved(|w| query.save_state(w).expect("state"));
                    into.load_state(&mut StateReader::new(&bytes)).expect("restores");
                }
                for ((query, _), (into, _)) in pairs.iter_mut().zip(restored) {
                    *query = into;
                }
            }
            let packets: Vec<Packet> = picks
                .iter()
                .enumerate()
                .map(|(ts, ((src, dst), (port, proto, ip_len)))| {
                    let dst_port = [80, 443][*src as usize % 2];
                    let tuple = FiveTuple::new(*src, DSTS[*dst], PORTS[*port], dst_port, [6, 17][*proto]);
                    Packet::header_only(ts as u64, tuple, *ip_len, 0)
                })
                .collect();
            let batch = Batch::new(bin as u64, bin as u64 * 100_000, 100_000, packets);
            let hasher = H3Hasher::new(13, *hash_seed);
            let strided = batch.view().filter_indexed(|index, _| index % 3 != 0);
            let view = match shape {
                0 => batch.view(),
                1 => strided,
                2 => flow_sample(&batch.view(), *rate, &hasher).0,
                3 => {
                    // One lane of a three-lane fleet, as its execute stage
                    // hands it over.
                    batch.packets.flow_lanes(3, &mut lane_of_flow);
                    let mut lanes = Vec::new();
                    batch.view().split_lanes_with(&mut pool, &lane_of_flow, 3, |_, lane| lanes.push(lane));
                    lanes.swap_remove(*hash_seed as usize % 3)
                }
                _ => flow_sample(&strided, *rate, &hasher).0,
            };

            for (query, oracle) in &mut pairs {
                let (mut meter, mut oracle_meter) = (CycleMeter::new(), CycleMeter::new());
                query.process_batch(&view, *rate, &mut meter);
                oracle.process_batch(&view, *rate, &mut oracle_meter);
                let name = query.name();
                prop_assert_eq!(meter.cycles(), oracle_meter.cycles(), "{} cycles, bin {}", name, bin);
                prop_assert_eq!(meter.operations(), oracle_meter.operations(), "{} ops, bin {}", name, bin);
                prop_assert_eq!(
                    saved(|w| query.save_state(w).expect("state")),
                    saved(|w| oracle.save_state(w)),
                    "{} checkpoint after bin {}", name, bin
                );
            }
        }
        for (query, oracle) in &mut pairs {
            prop_assert_eq!(query.end_interval(), oracle.end_interval(), "{}", query.name());
        }
    }

    /// At rate 1.0 on a full view, `counter` and `high-watermark` add the
    /// batch's totals once and `top-k`, `autofocus` and `application` each
    /// flow's once, where every sum stays an integer no larger than 2⁵³;
    /// `trace` and `pattern-search` count a batch's packets in one addition
    /// at any rate on the same terms. Each kind's twin is fed the same
    /// packets as an all-kept view, which adds per packet. Over bins that mix
    /// rate 1.0 with non-dyadic sub-unit rates in one interval (so sums turn
    /// fractional and the guard must refuse), empty bins, an interval roll and
    /// a restore planting every sum at 2⁵³ − k (so the bound must refuse),
    /// the twins leave the same cycles, operations and checkpoint bytes after
    /// every bin and report the same outputs at every close — and the two
    /// packet counts are the per-packet count. A sub-unit bin carries a few
    /// packets only: it leaves its sums small and fractional, so a unit-rate
    /// bin after it carries them across several binades, where one rounding
    /// and one per addition part ways.
    #[test]
    fn unit_rate_sums_are_the_per_packet_sums(
        bins in proptest::collection::vec(
            (
                proptest::collection::vec(
                    ((0u32..4, 0usize..5), (0usize..3, 0usize..2, 40u32..1500)),
                    0..150,
                ),
                0usize..3,
                (0.05f64..1.0, 1usize..6),
            ),
            2..9,
        ),
        roll in 1usize..8,
        restore in 1usize..8,
        below_bound in (0u64..300, 0u64..300_000),
    ) {
        use netshed::queries::{
            ApplicationQuery, AutofocusQuery, CounterQuery, CycleMeter, HighWatermarkQuery,
            PatternSearchQuery, Query, QueryOutput, TopKQuery, TraceQuery,
        };
        use netshed::sketch::{StateReader, StateWriter};
        use netshed::trace::AppProtocol;

        fn saved(query: &dyn Query) -> Vec<u8> {
            let mut writer = StateWriter::new();
            query.save_state(&mut writer).expect("state");
            writer.into_bytes()
        }
        fn closed(queries: &mut [Box<dyn Query>]) -> Vec<QueryOutput> {
            queries.iter_mut().map(|query| query.end_interval()).collect()
        }

        const DSTS: [u32; 5] = [0x0a00_0001, 0x0a00_0102, 0x0a01_0001, 0x0b00_0001, 0xc0a8_0101];
        const PORTS: [u16; 3] = [1024, 53, 6881];
        const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;
        let fresh = || -> Vec<Box<dyn Query>> {
            vec![
                Box::new(CounterQuery::new()),
                Box::new(HighWatermarkQuery::new()),
                Box::new(ApplicationQuery::new()),
                Box::new(TopKQuery::new(3)),
                Box::new(AutofocusQuery::new(0.02)),
                Box::new(TraceQuery::new()),
                Box::new(PatternSearchQuery::default()),
            ]
        };
        // Every sum of every kind at 2⁵³ − k, packet counts and byte sums
        // each with their own k: the state a long-lived query could reach.
        let (packet_sum, byte_sum) =
            (EXACT_INTEGERS - below_bound.0 as f64, EXACT_INTEGERS - below_bound.1 as f64);
        let planted = |query: &dyn Query| -> Vec<u8> {
            let mut w = StateWriter::new();
            match query.name() {
                "counter" => [packet_sum, byte_sum].into_iter().for_each(|sum| w.f64(sum)),
                "high-watermark" => {
                    w.usize(1);
                    w.u64(0);
                    w.u64(100_000);
                    w.f64(byte_sum);
                }
                "application" => {
                    let labels = AppProtocol::ALL.iter().map(|app| app.name());
                    let labels: Vec<&str> = labels.chain(["unknown"]).collect();
                    w.usize(labels.len());
                    for label in labels {
                        w.str(label);
                        w.f64(packet_sum);
                        w.f64(byte_sum);
                    }
                }
                "top-k" => {
                    w.usize(DSTS.len());
                    for dst in DSTS {
                        w.u32(dst);
                        w.f64(byte_sum);
                    }
                }
                "autofocus" => {
                    w.usize(3);
                    for len in [8u8, 16, 24] {
                        w.u32(DSTS[0] & (!0u32 << (32 - len)));
                        w.u8(len);
                        w.f64(byte_sum);
                    }
                    w.f64(byte_sum);
                }
                "trace" => w.f64(packet_sum),
                _ => {
                    w.f64(packet_sum);
                    w.u64(0);
                }
            }
            w.into_bytes()
        };
        let packet_count = |outputs: &[QueryOutput]| -> Vec<f64> {
            outputs[5..]
                .iter()
                .map(|output| match output {
                    QueryOutput::Coverage { processed_packets, .. } => *processed_packets,
                    other => panic!("a coverage query reported {other:?}"),
                })
                .collect()
        };

        let restored = || -> Vec<Box<dyn Query>> {
            let mut queries = fresh();
            for query in &mut queries {
                let state = planted(query.as_ref());
                query.load_state(&mut StateReader::new(&state)).expect("restores");
            }
            queries
        };

        let (mut whole, mut twins) = (fresh(), fresh());
        // `trace`'s and `pattern-search`'s count, one addition per packet.
        let mut counted = 0.0;
        for (bin, (picks, rate_pick, (sub_unit_rate, few))) in bins.iter().enumerate() {
            if bin == roll {
                let outputs = closed(&mut whole);
                prop_assert_eq!(&outputs, &closed(&mut twins), "roll at bin {}", bin);
                prop_assert_eq!(packet_count(&outputs), vec![counted; 2]);
                counted = 0.0;
            }
            if bin == restore {
                (whole, twins, counted) = (restored(), restored(), packet_sum);
            }
            let (rate, picks) = match rate_pick {
                0 | 1 => (1.0, &picks[..]),
                _ => (*sub_unit_rate, &picks[..picks.len().min(*few)]),
            };
            let packets: Vec<Packet> = picks
                .iter()
                .enumerate()
                .map(|(ts, ((src, dst), (port, proto, ip_len)))| {
                    let dst_port = [80, 443][*src as usize % 2];
                    let proto = [6, 17][*proto];
                    let tuple = FiveTuple::new(*src, DSTS[*dst], PORTS[*port], dst_port, proto);
                    Packet::header_only(ts as u64, tuple, *ip_len, 0)
                })
                .collect();
            let batch = Batch::new(bin as u64, bin as u64 * 100_000, 100_000, packets);
            let all_kept = batch.view().filter_indexed(|_, _| true);
            for _ in 0..batch.len() {
                counted += 1.0;
            }
            for (query, twin) in whole.iter_mut().zip(&mut twins) {
                let (mut meter, mut twin_meter) = (CycleMeter::new(), CycleMeter::new());
                query.process_batch(&batch.view(), rate, &mut meter);
                twin.process_batch(&all_kept, rate, &mut twin_meter);
                prop_assert_eq!(
                    (meter.cycles(), meter.operations(), saved(query.as_ref())),
                    (twin_meter.cycles(), twin_meter.operations(), saved(twin.as_ref())),
                    "{} cycles, operations and checkpoint after bin {}", query.name(), bin
                );
            }
        }
        let outputs = closed(&mut whole);
        prop_assert_eq!(&outputs, &closed(&mut twins));
        prop_assert_eq!(packet_count(&outputs), vec![counted; 2]);
    }

    /// The store's memo of each flow's packets and IP bytes is their sums:
    /// on drawn traffic (most packets repeating a tuple), a single flow,
    /// all-distinct tuples and an empty store, `flow_totals` lists, by flow
    /// id, what summing the packets grouped by tuple equality gives — asked by
    /// two threads at once on a fresh store, each reading the one table.
    #[test]
    fn the_flow_totals_memo_is_the_flow_sums(
        picks in proptest::collection::vec((0u32..6, 0u32..6, 0u16..3, 40u32..1500), 1..300),
        shape in 0usize..4,
    ) {
        use netshed::trace::FlowTotals;

        let packets: Vec<Packet> = picks
            .iter()
            .enumerate()
            .take(if shape == 3 { 0 } else { picks.len() })
            .map(|(at, (src, dst, port, ip_len))| {
                let tuple = match shape {
                    1 => FiveTuple::new(7, 7, 7, 7, 6),
                    2 => FiveTuple::new(at as u32, 1, 2, 3, 6),
                    _ => FiveTuple::new(*src, *dst, *port, 80, 6),
                };
                Packet::header_only(at as u64, tuple, *ip_len, 0)
            })
            .collect();
        let mut first_seen: Vec<FiveTuple> = Vec::new();
        let mut expected: Vec<FlowTotals> = Vec::new();
        for packet in &packets {
            let flow = first_seen.iter().position(|seen| *seen == packet.tuple).unwrap_or_else(|| {
                first_seen.push(packet.tuple);
                expected.push(FlowTotals::default());
                first_seen.len() - 1
            });
            expected[flow].packets += 1;
            expected[flow].bytes += u64::from(packet.ip_len);
        }
        let flows = [0, 1, packets.len(), 0][shape];
        prop_assert!(shape == 0 || expected.len() == flows, "shape {}: {} flows", shape, flows);

        let batch = Batch::new(0, 0, 100_000, packets);
        let tables: Vec<&[FlowTotals]> = std::thread::scope(|scope| {
            let readers = [(); 2].map(|()| scope.spawn(|| batch.packets.flow_totals()));
            readers.map(|reader| reader.join().expect("no panic")).into()
        });
        prop_assert!(std::ptr::eq(tables[0], tables[1]), "one table, summed once");
        prop_assert_eq!(tables[0], &expected[..]);
        prop_assert!(std::ptr::eq(tables[0], batch.view().store().flow_totals()));
    }

    /// The store's memo of the `flows` key is the key: for every flow of a
    /// full and a sampled view of one store, `flow_key_hash` returns
    /// `hash_bytes(&tuple.as_key(), FLOW_KEY_SEED)` of each of the flow's
    /// packets — asked by the two views' walks in turn (one forwards, one
    /// backwards, the sampled one first, so it fills only its own flows),
    /// and on a fresh store by two threads at once in opposite orders.
    #[test]
    fn the_flow_key_memo_is_the_flow_key(
        picks in proptest::collection::vec((0u32..6, 0u32..6, 0u16..3, 0usize..2), 1..300),
        stride in 2usize..5,
    ) {
        use netshed::sketch::hash_bytes;
        use netshed::trace::{FlowSet, FLOW_KEY_SEED};

        let packets: Vec<Packet> = picks
            .iter()
            .enumerate()
            .map(|(ts, (src, dst, port, proto))| {
                let tuple = FiveTuple::new(*src, *dst, *port, 80, [6, 17][*proto]);
                Packet::header_only(ts as u64, tuple, 100, 0)
            })
            .collect();
        let batch = Batch::new(0, 0, 100_000, packets.clone());
        let sampled = batch.view().filter_indexed(|index, _| index % stride == 0);
        let flows_of = |view: &BatchView| -> Vec<usize> {
            view.first_of_flows(&mut FlowSet::default()).map(|(flow, _)| flow).collect()
        };
        let (in_sample, in_full) = (flows_of(&sampled), flows_of(&batch.view()));
        let store = &batch.packets;
        let mut asked = Vec::new();
        for turn in 0..in_sample.len().max(in_full.len()) {
            asked.extend(in_sample.get(turn).map(|&flow| store.flow_key_hash(flow)));
            asked.extend(in_full.iter().rev().nth(turn).map(|&flow| store.flow_key_hash(flow)));
        }
        prop_assert_eq!(asked.len(), in_sample.len() + in_full.len());
        let flow_of = store.flow_index().flow_of();
        for view in [&sampled, &batch.view()] {
            for (at, packet) in view.indexed_packets() {
                prop_assert_eq!(
                    store.flow_key_hash(flow_of[at] as usize),
                    hash_bytes(&packet.tuple().as_key(), FLOW_KEY_SEED)
                );
            }
        }

        let racing = Batch::new(0, 0, 100_000, packets);
        let flows = racing.packets.flow_index().flows();
        let keys: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let forwards = scope.spawn(|| (0..flows).map(|f| racing.packets.flow_key_hash(f)).collect());
            let backwards = scope.spawn(|| {
                let mut keys: Vec<u64> =
                    (0..flows).rev().map(|f| racing.packets.flow_key_hash(f)).collect();
                keys.reverse();
                keys
            });
            [forwards, backwards].map(|walk| walk.join().expect("no panic")).into()
        });
        let expected: Vec<u64> = (0..flows).map(|flow| store.flow_key_hash(flow)).collect();
        prop_assert_eq!(&keys[0], &expected);
        prop_assert_eq!(&keys[1], &expected);
    }

    /// The p2p detector's lockstep scan is two `find`s: over random bytes
    /// drawn from both patterns' alphabets, haystacks holding either pattern
    /// (at the very end too, so a chain's last alignment sits on its last
    /// byte), haystacks shorter than either pattern and `bm-mimicry`'s tiled
    /// near misses, `find_pair` returns what `find` returns for each
    /// pattern, in either pairing.
    #[test]
    fn a_find_pair_is_two_finds(
        noise in proptest::collection::vec(0usize..24, 0..160),
        shape in 0usize..6,
        cut in 0usize..200,
    ) {
        use netshed::queries::BoyerMoore;

        const BITTORRENT: &[u8] = b"BitTorrent protocol";
        const GNUTELLA: &[u8] = b"GNUTELLA CONNECT";
        let alphabet = b"BitTorent pcl GNUELACOZ.";
        let mut haystack: Vec<u8> = noise.iter().map(|&at| alphabet[at]).collect();
        let at = cut.min(haystack.len());
        match shape {
            0 => {}
            1 => haystack.splice(at..at, BITTORRENT.iter().copied()).for_each(drop),
            2 => haystack.extend_from_slice([BITTORRENT, GNUTELLA][cut % 2]),
            3 => haystack.truncate(cut % GNUTELLA.len()),
            4 => {
                // Each signature with its first byte replaced, tiled: every
                // alignment walks almost the whole pattern before it fails.
                let tile = [&b"Z"[..], &BITTORRENT[1..], b"Z", &GNUTELLA[1..]].concat();
                haystack = tile.iter().copied().cycle().skip(cut % tile.len()).take(noise.len() * 3).collect();
            }
            _ => {
                haystack.splice(at..at, GNUTELLA.iter().copied()).for_each(drop);
                haystack.extend_from_slice(&BITTORRENT[cut % BITTORRENT.len()..]);
            }
        }
        let (bittorrent, gnutella) = (BoyerMoore::new(BITTORRENT), BoyerMoore::new(GNUTELLA));
        prop_assert_eq!(
            bittorrent.find_pair(&gnutella, &haystack),
            [bittorrent.find(&haystack), gnutella.find(&haystack)]
        );
        prop_assert_eq!(
            gnutella.find_pair(&bittorrent, &haystack),
            [gnutella.find(&haystack), bittorrent.find(&haystack)]
        );
    }

    /// `high-watermark` keeps the open interval's bytes per bin so that a
    /// fleet's lanes can be folded, and takes the peak when the interval
    /// closes; the running peak it replaced lives in `tests/oracle/`. On one
    /// instance — bins delivered in order, once each, full or strided, at a
    /// rate that changes bin to bin, over several intervals (the table is
    /// emptied and reused) — both charge the same cycles and report the same
    /// peak, to the bit.
    #[test]
    fn high_watermark_table_reports_the_running_peak(
        bins in proptest::collection::vec(
            (proptest::collection::vec(40u32..1500, 0..120), 0usize..2, 0.03f64..1.0),
            1..30,
        ),
        bins_per_interval in 1usize..12,
    ) {
        use netshed::queries::{CycleMeter, HighWatermarkQuery, Query};

        let (mut query, mut oracle) =
            (HighWatermarkQuery::new(), oracle::RunningPeakWatermark::default());
        let (mut meter, mut oracle_meter) = (CycleMeter::new(), CycleMeter::new());
        let tuple = FiveTuple::new(1, 2, 3, 80, 6);
        for (bin, (sizes, shape, rate)) in bins.iter().enumerate() {
            if bin > 0 && bin % bins_per_interval == 0 {
                prop_assert_eq!(query.end_interval(), oracle.end_interval(), "before bin {}", bin);
            }
            let packets: Vec<Packet> = sizes
                .iter()
                .enumerate()
                .map(|(ts, size)| Packet::header_only(bin as u64 * 100_000 + ts as u64, tuple, *size, 0))
                .collect();
            let batch = Batch::new(bin as u64, bin as u64 * 100_000, 100_000, packets);
            let view = match shape {
                0 => batch.view(),
                _ => batch.view().filter_indexed(|index, _| index % 3 != 0),
            };
            query.process_batch(&view, *rate, &mut meter);
            oracle.process_batch(&view, *rate, &mut oracle_meter);
        }
        prop_assert_eq!(query.end_interval(), oracle.end_interval());
        prop_assert_eq!(meter.cycles(), oracle_meter.cycles());
    }

    /// OLS through the SVD pseudo-inverse recovers exact linear models.
    #[test]
    fn ols_recovers_linear_models(
        a in -50.0f64..50.0,
        b in -50.0f64..50.0,
        xs in proptest::collection::vec(-100.0f64..100.0, 10..60),
    ) {
        // Require enough spread in x for the system to be well conditioned.
        let spread = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assume!(spread > 1.0);
        let rows: Vec<Vec<f64>> = xs.iter().map(|x| vec![1.0, *x]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| a + b * x).collect();
        let mut fit = OlsWorkspace::default();
        fit.solve(&Matrix::from_rows(&rows), &ys, 1e-12);
        prop_assert!((fit.coefficients()[0] - a).abs() < 1e-6 * (1.0 + a.abs()));
        prop_assert!((fit.coefficients()[1] - b).abs() < 1e-6 * (1.0 + b.abs()));
    }
}

/// Re-homed from `netshed-trace` with `Batch::filtered`: the copy-out
/// oracle keeps the bin it copies from.
#[test]
fn filtered_preserves_bin_identity() {
    let pkt = |ts| Packet::header_only(ts, FiveTuple::new(1, 2, 3, 4, 6), 100, 0);
    let batch = Batch::new(7, 700_000, 100_000, vec![pkt(0), pkt(10), pkt(20)]);
    let half = oracle::filtered(&batch, |p| p.ts() >= 10);
    assert_eq!(half.bin_index, 7);
    assert_eq!(half.start_ts, 700_000);
    assert_eq!(half.len(), 2);
}

/// `top-k` and `super-sources` keep their N largest entries in one bounded
/// pass (`state_queries::top_n`): bit for bit what sorting every entry and
/// cutting to N keeps (`tests/oracle/`), ties in drain order included — over
/// values drawn from a small pool, so most entries tie, with `-0.0` beside
/// `0.0`, N = 0, 1 and at or past the entry count, and an empty table. The
/// two queries, restored onto the same entries, close on the same ranking.
#[test]
fn top_n_keeps_what_sort_then_truncate_keeps() {
    use netshed::queries::state_queries::top_n;
    use netshed::queries::{Query, QueryOutput, SuperSourcesQuery, TopKQuery};
    use netshed::sketch::{StateReader, StateWriter};
    use std::collections::BTreeMap;

    const POOL: [f64; 9] = [-0.0, 0.0, 1.0, 1.0, 2.5, -1.0, f64::INFINITY, f64::MIN_POSITIVE, 7.0];
    let bits = |ranking: &[(u32, f64)]| -> Vec<(u32, u64)> {
        ranking.iter().map(|(key, value)| (*key, value.to_bits())).collect()
    };
    let mut rng = StdRng::seed_from_u64(45);
    for len in 0..=24usize {
        for n in [0, 1, 2, 3, len.saturating_sub(1), len, len + 1, len + 7] {
            for _ in 0..8 {
                let entries: Vec<(u32, f64)> = (0..len)
                    .map(|at| (1000 - at as u32, POOL[rng.gen_range(0..POOL.len())]))
                    .collect();
                let expected = oracle::sort_then_truncate(entries.clone(), n);
                let kept = top_n(entries.iter().copied(), n);
                assert_eq!(bits(&kept), bits(&expected), "len {len}, n {n}: {entries:?}");

                // The queries hold finite weights of +0.0 or above and keep
                // at least one entry.
                let weights: Vec<(u32, f64)> =
                    entries.iter().map(|&(key, value)| (key, value.abs().min(7.0))).collect();
                let expected = oracle::sort_then_truncate(weights.clone(), n.max(1));
                let state = |pairs_seen: Option<usize>| {
                    let mut writer = StateWriter::new();
                    pairs_seen.into_iter().for_each(|count| writer.usize(count));
                    writer.usize(weights.len());
                    for (key, weight) in &weights {
                        writer.u32(*key);
                        writer.f64(*weight);
                    }
                    writer.into_bytes()
                };
                let mut top_k = TopKQuery::new(n);
                top_k.load_state(&mut StateReader::new(&state(None))).expect("restores");
                match top_k.end_interval() {
                    QueryOutput::TopK { ranking } => assert_eq!(bits(&ranking), bits(&expected)),
                    other => panic!("top-k closed on {other:?}"),
                }
                let mut super_sources = SuperSourcesQuery::new(n);
                super_sources.load_state(&mut StateReader::new(&state(Some(0)))).expect("restores");
                let expected: BTreeMap<u32, f64> = expected.into_iter().collect();
                match super_sources.end_interval() {
                    QueryOutput::SuperSources { fanouts } => assert_eq!(fanouts, expected),
                    other => panic!("super-sources closed on {other:?}"),
                }
            }
        }
    }
}

/// The worker-count half of the flow-sampling contract: the flows query's
/// per-bin delivered-packet counts (the direct trace of its keep/drop
/// decisions) are identical at 1, 2 and 4 workers, under load shedding.
#[test]
fn flow_sampling_decisions_survive_any_worker_count() {
    use netshed::prelude::*;

    let batches = TraceGenerator::new(
        TraceConfig::default().with_seed(31).with_mean_packets_per_batch(150.0),
    )
    .batches(20);
    let specs = vec![QuerySpec::new(QueryKind::Flows), QuerySpec::new(QueryKind::Counter)];
    let demand = netshed::monitor::reference::measure_total_demand(&specs, &batches[..10])
        .expect("valid query specs");

    let delivered = |workers: usize| -> Vec<(u64, u64, bool)> {
        let mut monitor = Monitor::builder()
            .capacity(demand / 2.0)
            .seed(13)
            .with_workers(workers)
            .queries(specs.clone())
            .build()
            .expect("valid configuration");
        let mut rows = Vec::new();
        struct Tape<'a>(&'a mut Vec<(u64, u64, bool)>);
        impl RunObserver for Tape<'_> {
            fn on_bin(&mut self, record: &BinRecord) {
                let flows = &record.queries[0];
                self.0.push((record.bin_index, flows.delivered_packets, flows.disabled));
            }
        }
        monitor
            .run(&mut BatchReplay::new(batches.clone()), &mut Tape(&mut rows))
            .expect("run succeeds");
        rows
    };

    let sequential = delivered(1);
    assert!(
        sequential.iter().any(|(_, delivered, _)| *delivered > 0),
        "the flows query must see packets"
    );
    for workers in [2usize, 4] {
        assert_eq!(
            sequential,
            delivered(workers),
            "flow-sampling decisions diverged at {workers} workers"
        );
    }
}

/// Benign golden scenarios with their recorded batches and corpus capacity,
/// generated once and shared by every property case below.
fn benign_corpus() -> &'static [(String, Vec<Batch>, f64)] {
    use netshed_bench::corpus::{corpus_capacity, ADVERSARIAL_SCENARIOS};
    use netshed_trace::scenario::builtins;
    static CORPUS: std::sync::OnceLock<Vec<(String, Vec<Batch>, f64)>> = std::sync::OnceLock::new();
    CORPUS.get_or_init(|| {
        builtins()
            .iter()
            .filter(|scenario| !ADVERSARIAL_SCENARIOS.contains(&scenario.name()))
            .map(|scenario| {
                let batches = scenario.generate().expect("builtin is valid");
                let capacity = corpus_capacity(&batches);
                (scenario.name().to_string(), batches, capacity)
            })
            .collect()
    })
}

proptest! {
    /// The hardened predictor is a strict opt-in: on benign (non-adversarial)
    /// golden scenarios, under any strategy and either pinned worker count,
    /// `robust_mlr_fcbf` is bit-identical to plain `mlr_fcbf` — its tripwire
    /// stays silent and zero behavioral drift leaks into unattacked runs.
    #[test]
    fn robust_predictor_matches_plain_mlr_on_benign_scenarios(
        scenario_pick in 0usize..1024,
        strategy_pick in 0usize..1024,
        workers_pick in 0usize..2,
    ) {
        use netshed_bench::corpus::{all_strategies, corpus_config, digest_run};
        let corpus = benign_corpus();
        let (name, batches, capacity) = &corpus[scenario_pick % corpus.len()];
        let strategies = all_strategies();
        let (strategy_name, strategy) = &strategies[strategy_pick % strategies.len()];
        let workers = [1usize, 4][workers_pick];
        let config = corpus_config(*strategy, *capacity, workers);
        let plain = digest_run::<Monitor>(batches, config.clone()).expect("plain run");
        let robust =
            digest_run::<Monitor>(batches, config.with_predictor(PredictorKind::RobustMlrFcbf))
        .expect("robust run");
        prop_assert_eq!(
            plain,
            robust,
            "robust_mlr_fcbf drifted from mlr_fcbf on benign {} / {} at {} workers",
            name,
            strategy_name,
            workers
        );
    }
}

proptest! {
    /// Flow-to-shard routing is a pure function of the host pair: both
    /// directions of a conversation, and every flow between the same two
    /// hosts, route to the same lane — for any lane count.
    #[test]
    fn shard_routing_is_symmetric_and_port_independent(
        src_ip in 0u32..u32::MAX,
        dst_ip in 0u32..u32::MAX,
        ports in proptest::collection::vec((0u16..u16::MAX, 0u16..u16::MAX, 0u8..18), 1..20),
        lanes in 1usize..17,
    ) {
        use netshed::trace::shard_key;
        let reference = shard_key(&FiveTuple::new(src_ip, dst_ip, 1, 2, 6));
        for (src_port, dst_port, proto) in ports {
            let forward = FiveTuple::new(src_ip, dst_ip, src_port, dst_port, proto);
            let reverse = FiveTuple::new(dst_ip, src_ip, dst_port, src_port, proto);
            prop_assert_eq!(shard_key(&forward), reference, "ports/proto must not affect routing");
            prop_assert_eq!(shard_key(&reverse), reference, "routing must be direction-symmetric");
            prop_assert_eq!(
                (shard_key(&forward) % lanes as u64) as usize,
                (reference % lanes as u64) as usize
            );
        }
    }

    /// `split_shards` is an exact partition: every packet lands on the lane
    /// its shard key names, nothing is lost or duplicated, per-lane order is
    /// the original capture order, and the bin geometry survives untouched.
    /// The engines' own routing — one lane verdict per *flow*, then views over
    /// the one store — selects exactly the packets the copying split does.
    #[test]
    fn split_shards_partitions_exactly_for_any_lane_count(
        hosts in proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX, 0u16..u16::MAX), 1..150),
        lanes in 1usize..9,
    ) {
        use netshed::trace::shard_key;
        let packets: Vec<Packet> = hosts
            .iter()
            .enumerate()
            .map(|(i, &(src, dst, port))| {
                Packet::header_only(i as u64 * 100, FiveTuple::new(src, dst, port, 80, 6), 200, 0)
            })
            .collect();
        let batch = Batch::new(3, 0, 100_000, packets);
        let sub_batches = batch.split_shards(lanes);
        prop_assert_eq!(sub_batches.len(), lanes);

        let mut total = 0usize;
        for (lane, sub) in sub_batches.iter().enumerate() {
            prop_assert_eq!(sub.bin_index, batch.bin_index);
            prop_assert_eq!(sub.start_ts, batch.start_ts);
            prop_assert_eq!(sub.duration_us, batch.duration_us);
            total += sub.len();
            let mut previous_ts = 0u64;
            for packet in sub.packets.iter() {
                prop_assert_eq!(
                    (shard_key(packet.tuple()) % lanes as u64) as usize,
                    lane,
                    "a packet sits on a lane its key does not name"
                );
                prop_assert!(packet.ts() >= previous_ts, "capture order must survive the split");
                previous_ts = packet.ts();
            }
        }
        prop_assert_eq!(total, batch.len(), "the split must be an exact partition");

        let (mut pool, mut lane_of_flow, mut views) = (KeepListPool::new(), Vec::new(), Vec::new());
        batch.packets.flow_lanes(lanes, &mut lane_of_flow);
        prop_assert_eq!(lane_of_flow.len(), batch.packets.flow_index().flows());
        batch.view().split_lanes_with(&mut pool, &lane_of_flow, lanes, |_, view| views.push(view));
        for (view, sub) in views.iter().zip(&sub_batches) {
            prop_assert!(view.shares_store(&batch.view()), "a lane view copies no packet");
            prop_assert_eq!(&view.materialize(), sub);
        }
    }
}
