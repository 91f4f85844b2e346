//! The `.nstr` read side, bit for bit.
//!
//! The reader decodes a frame in one pass over its records into
//! exactly-sized columns and keeps the frame's payloads behind one window
//! onto the frame body. The record-at-a-time decoder it replaced lives in
//! `tests/oracle/`; here both decode every committed corpus recording and
//! generated header-only, payload and mixed containers, and every column,
//! every payload byte, the `None` / empty-payload distinction and the
//! batch statistics must agree — the statistics also against a per-packet
//! sum written out below. Last, `scenarios inspect`'s frame walk must
//! describe a corpus recording the way its decode does.

mod oracle;

use netshed_bench::corpus::{inspect_trace, TRACE_EXTENSION};
use netshed_trace::{
    decode_batches_shared, encode_batches, Batch, BatchStats, Bytes, FiveTuple, Packet,
    PacketStore, TraceConfig, TraceGenerator, TCP_ACK, TCP_SYN,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Every committed recording, by file name, in name order.
fn corpus_recordings() -> Vec<(String, Bytes)> {
    let mut recordings: Vec<(String, Bytes)> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory")
        .map(|entry| entry.expect("corpus entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == TRACE_EXTENSION))
        .map(|path| {
            let name = path.file_name().expect("file name").to_string_lossy().into_owned();
            (name, Bytes::from(std::fs::read(&path).expect("read recording")))
        })
        .collect();
    recordings.sort_by(|a, b| a.0.cmp(&b.0));
    recordings
}

/// The batch statistics, summed packet by packet from the accessors.
fn per_packet_stats(store: &PacketStore) -> BatchStats {
    let mut stats = BatchStats::default();
    for packet in store {
        stats.packets += 1;
        stats.bytes += u64::from(packet.ip_len());
        stats.payload_bytes += packet.payload_len() as u64;
        if packet.proto() == 6 {
            stats.tcp_packets += 1;
            if packet.tcp_flags() & TCP_SYN != 0 && packet.tcp_flags() & TCP_ACK == 0 {
                stats.syn_packets += 1;
            }
        }
        if packet.proto() == 17 {
            stats.udp_packets += 1;
        }
    }
    stats
}

/// Decodes `container` with the reader and with the oracle and compares
/// the two column by column; returns the number of packets compared.
fn assert_decoders_agree(case: &str, container: &Bytes) -> usize {
    let decoded = decode_batches_shared(container).expect(case);
    let reference = oracle::decode_record_at_a_time(container).expect(case);
    assert_eq!(decoded.len(), reference.len(), "{case}: batch count");
    let mut packets = 0;
    for (frame, (got, want)) in decoded.iter().zip(&reference).enumerate() {
        let case = format!("{case} frame {frame}");
        let geometry = |b: &Batch| (b.bin_index, b.start_ts, b.duration_us);
        assert_eq!(geometry(got), geometry(want), "{case}: bin geometry");
        let (got, want) = (got.packets.as_ref(), want.packets.as_ref());
        let ts_and_flags = |store: &PacketStore| -> Vec<(u64, u8)> {
            store.iter().map(|p| (p.ts(), p.tcp_flags())).collect()
        };
        assert_eq!(ts_and_flags(got), ts_and_flags(want), "{case}: timestamps and tcp flags");
        assert_eq!(got.tuples(), want.tuples(), "{case}: tuples");
        assert_eq!(got.ip_lens(), want.ip_lens(), "{case}: ip lengths");
        assert_eq!(got.has_payloads(), want.has_payloads(), "{case}: payload column");
        for index in 0..want.len() {
            // `Option<&[u8]>`: `None` and `Some(&[])` are different values.
            assert_eq!(got.payload(index), want.payload(index), "{case} packet {index}: payload");
        }
        assert_eq!(got.stats(), want.stats(), "{case}: stats");
        assert_eq!(got.stats(), per_packet_stats(want), "{case}: stats against the packets");
        packets += want.len();
    }
    packets
}

#[test]
fn every_corpus_recording_decodes_as_the_record_at_a_time_decoder_does() {
    let recordings = corpus_recordings();
    assert_eq!(recordings.len(), 9, "the nine committed recordings");
    let mut packets = 0;
    let mut payloads = 0;
    for (name, container) in &recordings {
        packets += assert_decoders_agree(name, container);
        let decoded = decode_batches_shared(container).expect(name);
        payloads += decoded.iter().filter(|batch| batch.packets.has_payloads()).count();
    }
    assert!(packets > 30_000, "only {packets} packets compared");
    assert!(payloads > 0, "the corpus exercises the payload column");
}

/// What a frame's packets carry.
#[derive(Clone, Copy)]
enum Payloads {
    None,
    Empty,
    Bytes,
    /// No payload, an empty one or bytes, drawn per packet.
    Mixed,
    /// No payload on the first half, then mixed: the column starts late.
    SecondHalf,
}

/// A zero-packet frame, then frames that carry no payload, only empty
/// payloads, bytes on every packet, a mix, and a mix that starts late.
fn mixed_batches(seed: u64) -> Vec<Batch> {
    let mut rng = StdRng::seed_from_u64(seed);
    let frames = [
        (0u64, Payloads::Mixed),
        (120, Payloads::None),
        (1, Payloads::Empty),
        (75, Payloads::Bytes),
        (200, Payloads::Mixed),
        (64, Payloads::SecondHalf),
        (33, Payloads::Empty),
    ];
    let mut batches = Vec::new();
    for (bin, &(count, payloads)) in frames.iter().enumerate() {
        let start_ts = bin as u64 * 100_000;
        let packets = (0..count)
            .map(|at| {
                let tuple = FiveTuple::new(
                    rng.gen_range(0..64),
                    rng.gen_range(0..64),
                    rng.gen_range(0..1024),
                    rng.gen_range(0..1024),
                    [6u8, 17, 1][rng.gen_range(0..3usize)],
                );
                let (ts, ip_len, flags) = (start_ts + at, rng.gen_range(40..1500), rng.gen());
                let kind = match payloads {
                    Payloads::SecondHalf if at < count / 2 => 0,
                    Payloads::Mixed | Payloads::SecondHalf => rng.gen_range(0..3),
                    Payloads::None => 0,
                    Payloads::Empty => 1,
                    Payloads::Bytes => 2,
                };
                match kind {
                    0 => Packet::header_only(ts, tuple, ip_len, flags),
                    1 => Packet::with_payload(ts, tuple, ip_len, flags, Bytes::new()),
                    _ => {
                        let len = rng.gen_range(1..600);
                        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                        Packet::with_payload(ts, tuple, ip_len, flags, Bytes::from(bytes))
                    }
                }
            })
            .collect();
        batches.push(Batch::new(bin as u64, start_ts, 100_000, packets));
    }
    batches
}

#[test]
fn generated_containers_decode_as_the_record_at_a_time_decoder_does() {
    let generated = |payloads: bool| {
        TraceGenerator::new(
            TraceConfig::default()
                .with_seed(29)
                .with_mean_packets_per_batch(300.0)
                .with_payloads(payloads),
        )
        .batches(12)
    };
    let mixed = mixed_batches(31);
    // The mixed container holds every payload shape the format has.
    let stores = || mixed.iter().map(|batch| batch.packets.as_ref());
    assert!(stores().any(PacketStore::is_empty), "a zero-packet frame");
    assert!(stores().any(|store| !store.is_empty() && !store.has_payloads()), "a header-only one");
    let payloads = || stores().flat_map(|store| (0..store.len()).map(|at| store.payload(at)));
    assert!(payloads().any(|payload| payload.is_none()));
    assert!(payloads().any(|payload| payload.is_some_and(<[u8]>::is_empty)));
    assert!(payloads().any(|payload| payload.is_some_and(|bytes| !bytes.is_empty())));

    for (case, batches) in
        [("header-only", generated(false)), ("payload", generated(true)), ("mixed", mixed.clone())]
    {
        let container = Bytes::from(encode_batches(&batches, 100_000).expect(case));
        let packets = assert_decoders_agree(case, &container);
        assert_eq!(packets, batches.iter().map(Batch::len).sum::<usize>(), "{case}");
        // Both decoders also reproduce the stream that was encoded.
        assert_eq!(decode_batches_shared(&container).expect(case), batches, "{case}");
    }
}

#[test]
fn inspect_walks_a_corpus_recording_without_decoding_it() {
    let name = format!("payload-shift.{TRACE_EXTENSION}");
    let container = Bytes::from(std::fs::read(corpus_dir().join(&name)).expect("read recording"));
    let inspection = inspect_trace(container.clone()).expect("header");
    assert!(inspection.is_clean(), "{:?}", inspection.error);
    let frames = &inspection.frames;
    assert_eq!(frames.title, ".nstr version 2, time bin 100000 us");
    let decoded = decode_batches_shared(&container).expect("decode");
    assert_eq!(frames.rows.len(), decoded.len(), "a row per frame");
    assert!(decoded.iter().any(|batch| batch.stats().payload_bytes > 0), "payloads to count");
    for (at, batch) in decoded.iter().enumerate() {
        let key = at.to_string();
        let cell = |column: &str| frames.lookup(&key, column).expect(column);
        assert_eq!(cell("bin"), batch.bin_index as f64, "frame {at}");
        assert_eq!(cell("packets"), batch.len() as f64, "frame {at}");
        assert_eq!(cell("payload_bytes"), batch.stats().payload_bytes as f64, "frame {at}");
        assert_eq!(frames.rows[at].last().map(ToString::to_string).as_deref(), Some("ok"));
    }
    let body_bytes: f64 = (0..decoded.len())
        .map(|at| frames.lookup(&at.to_string(), "body_bytes").expect("body"))
        .sum();
    // Header, then per frame its kind, head and checksum around the body,
    // then the end frame.
    let framing = 24 + 41 * decoded.len() + 17;
    assert_eq!(body_bytes as usize + framing, container.len());

    // One flipped body byte: the walk goes on, that frame's verdict fails.
    let mut corrupt = container.as_slice().to_vec();
    corrupt[24 + 33] ^= 0x01;
    let inspection = inspect_trace(Bytes::from(corrupt)).expect("header");
    assert!(inspection.error.is_none(), "only the checksum is wrong");
    assert_eq!(inspection.bad_checksums, 1);
    assert!(!inspection.is_clean());
    assert_eq!(inspection.frames.rows.len(), decoded.len());
    assert_eq!(inspection.frames.rows[0].last().map(ToString::to_string).as_deref(), Some("BAD"));
}
