//! The law of [`Query::absorb`], for every query kind.
//!
//! A flow-sharded fleet runs one instance of a query per lane and, at
//! interval close, folds the lanes' state into one instance that reports
//! once. The law: split a stream by `shard_key % n`, feed the parts to `n`
//! fresh instances at the same per-bin rates, fold them — the report is the
//! one a single instance fed the whole stream gives, and every absorbed lane
//! is left as its own `end_interval` would have left it.

use bytes::Bytes;
use netshed_queries::{
    build_query, build_query_from_spec, CustomBehavior, CycleMeter, Query, QueryKind, QueryOutput,
    QuerySpec,
};
use netshed_sketch::StateWriter;
use netshed_trace::{shard_key, Batch, FiveTuple, Packet};
use proptest::prelude::*;
use std::collections::BTreeMap;

const BIN_US: u64 = 100_000;
const DESTINATIONS: u32 = 15;

/// The ten kinds, and the detector once more in custom-shedding mode (the
/// only query whose per-flow scratch a rate steers).
fn every_kind() -> Vec<QuerySpec> {
    let custom = QuerySpec::new(QueryKind::P2pDetector).with_custom(CustomBehavior::Honest);
    QueryKind::ALL.into_iter().map(QuerySpec::new).chain([custom]).collect()
}

/// A stream of `bins` batches over `picks`: (source, destination, service,
/// content) per packet.
///
/// Reports that rank by bytes (`top-k`, `autofocus`) order ties by table
/// order — first arrival, which lanes see interleaved — so the stream is made
/// tie-free: `ip_len` is only ever summed, every one is a multiple of 2^30,
/// and destination `d`'s first packet carries 4^d on top. Rates are 1 or 1/2
/// (sums of scaled integers stay exact, so the law can be asserted to the
/// bit *under sampling*), which at most doubles that digit: the low 30 bits
/// of any byte total spell out, in base 4, which destinations it sums.
fn stream(picks: &[(u32, u32, u32, u32)], bins: usize) -> Vec<Batch> {
    const SERVICES: [(u16, u8); 6] = [(80, 6), (53, 17), (6881, 6), (443, 6), (25, 6), (6346, 6)];
    let mut met = [false; DESTINATIONS as usize];
    let mut batches: Vec<Vec<Packet>> = vec![Vec::new(); bins];
    for (at, &(source, destination, service, content)) in picks.iter().enumerate() {
        let bin = at * bins / picks.len();
        let (port, proto) = SERVICES[service as usize];
        // Nested prefixes shared unevenly: one /8, /16s of five, /24s of two.
        let dst_ip =
            0x0a00_0000 | (destination / 5) << 16 | (destination % 5 / 2) << 8 | destination;
        let tuple =
            FiveTuple::new(0xc0a8_0000 + source, dst_ip, 40_000 + source as u16, port, proto);
        let first = !std::mem::replace(&mut met[destination as usize], true);
        let ip_len = (1 + content % 3) << 30 | u32::from(first) << (2 * destination);
        let ts = bin as u64 * BIN_US + at as u64 % BIN_US;
        let payload: Option<&'static [u8]> = match content {
            0 | 1 => None,
            2 => Some(b"GET / HTTP/1.1\r\nHost: example.org"),
            3 => Some(b"\x13BitTorrent protocol........"),
            _ => Some(b"................................"),
        };
        batches[bin].push(match payload {
            None => Packet::header_only(ts, tuple, ip_len, 0),
            Some(payload) => {
                Packet::with_payload(ts, tuple, ip_len, 0x10, Bytes::from_static(payload))
            }
        });
    }
    (batches.into_iter().enumerate())
        .map(|(bin, packets)| Batch::new(bin as u64, bin as u64 * BIN_US, BIN_US, packets))
        .collect()
}

/// The rate of bin `bin`: 1 or 1/2, by a bit of `rates`.
fn rate_of(rates: u32, bin: usize) -> f64 {
    if (rates >> bin) & 1 == 1 {
        0.5
    } else {
        1.0
    }
}

fn saved(query: &dyn Query) -> Vec<u8> {
    let mut writer = StateWriter::new();
    query.save_state(&mut writer).expect("every built-in kind checkpoints");
    writer.into_bytes()
}

/// `folded` against `whole`, bit for bit — except for `super-sources`, whose
/// fan-outs are small integers and tie everywhere: it keeps the ten largest
/// and breaks a tie at the tenth place by table order (first arrival), which
/// no fold can reproduce. Its rule: every source above the smallest reported
/// fan-out is reported alike, and the fan-outs are the same multiset — only
/// *which* of the sources tied at the cut survive may differ.
fn assert_same_report(folded: &QueryOutput, whole: &QueryOutput, context: &str) {
    let (
        QueryOutput::SuperSources { fanouts: folded },
        QueryOutput::SuperSources { fanouts: whole },
    ) = (folded, whole)
    else {
        assert_eq!(folded, whole, "{context}");
        return;
    };
    let cut = whole.values().copied().fold(f64::INFINITY, f64::min);
    let above = |fanouts: &BTreeMap<u32, f64>| -> Vec<(u32, f64)> {
        fanouts.iter().map(|(source, fanout)| (*source, *fanout)).filter(|e| e.1 > cut).collect()
    };
    assert_eq!(above(folded), above(whole), "{context}: above the cut");
    let multiset = |fanouts: &BTreeMap<u32, f64>| -> Vec<u64> {
        let mut values: Vec<u64> = fanouts.values().map(|fanout| fanout.to_bits()).collect();
        values.sort_unstable();
        values
    };
    assert_eq!(multiset(folded), multiset(whole), "{context}: as a multiset of fan-outs");
}

proptest! {
    #[test]
    fn lanes_fold_to_what_one_instance_reports_of_the_whole_stream(
        picks in collection::vec((0u32..14, 0u32..DESTINATIONS, 0u32..6, 0u32..6), 40..400),
        lanes in 1usize..9,
        bins in 1usize..7,
        rates in 0u32..64,
    ) {
        let batches = stream(&picks, bins);
        let mut meter = CycleMeter::new();
        for spec in every_kind() {
            let mut whole = build_query_from_spec(&spec);
            let mut parts: Vec<Box<dyn Query>> =
                (0..lanes).map(|_| build_query_from_spec(&spec)).collect();
            for (bin, batch) in batches.iter().enumerate() {
                let rate = rate_of(rates, bin);
                whole.process_batch(&batch.view(), rate, &mut meter);
                // A lane with none of the bin's flows is still run, on an
                // empty view, as the engine runs it.
                for (lane, part) in parts.iter_mut().enumerate() {
                    let share = batch.view().filter_indexed(|_, packet| {
                        shard_key(packet.tuple()) % lanes as u64 == lane as u64
                    });
                    part.process_batch(&share, rate, &mut meter);
                }
            }

            let (first, others) = parts.split_first_mut().expect("at least one lane");
            for lane in others.iter_mut() {
                first.absorb(lane.as_mut());
            }
            let context = format!("{} over {lanes} lanes", whole.name());
            assert_same_report(&first.end_interval(), &whole.end_interval(), &context);

            let mut fresh = build_query_from_spec(&spec);
            let (untouched, nothing) = (saved(fresh.as_ref()), fresh.end_interval());
            for lane in others.iter_mut() {
                prop_assert_eq!(&saved(lane.as_ref()), &untouched, "{}: an absorbed lane", context);
                prop_assert_eq!(&lane.end_interval(), &nothing, "{}: an absorbed lane", context);
            }
        }
    }
}

#[test]
#[should_panic(expected = "different query type")]
fn absorbing_a_different_kind_panics() {
    build_query(QueryKind::Flows).absorb(build_query(QueryKind::HighWatermark).as_mut());
}
