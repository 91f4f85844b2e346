//! Checksum-valid mutation of every `.nstr` length field.
//!
//! The frame checksum is no secret (FNV + `hash_block` over public bytes),
//! so an adversary who edits a length field simply re-seals the frame. This
//! test does the same to a real two-batch payload container: for each frame
//! it sets `packet_count`, `body_len` and every non-empty payload's
//! `payload_len` to 0, ±1 and `u32::MAX`, recomputes the checksum where the
//! reader will look for it, and drives every decode entry point over the
//! result. The checksum cannot catch these edits; only the structural checks
//! can, and each decode must end in a typed [`FormatError`] — `Truncated`, or
//! a `ChecksumMismatch` naming the mutated frame's body — without panicking
//! and without sizing a buffer from the forged field, which the peak-request
//! allocator below measures.

use netshed_sketch::{hash_block, mix64, IncrementalFnv};
use netshed_trace::{
    decode_batches_shared, encode_batches, Bytes, FormatError, PacketSource, SharedTraceReader,
    TraceConfig, TraceGenerator,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, remembering the largest single request since the
/// last reset. This file holds one test, so no other test's allocations mix
/// in.
struct PeakRequest;

static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers all allocation to `System` with the caller's own arguments;
// the peak is a relaxed atomic touched nowhere else and never changes what
// is returned.
unsafe impl GlobalAlloc for PeakRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        PEAK.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        PEAK.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PeakRequest = PeakRequest;

/// Container header: magic, version, flags, time bin, checksum.
const HEADER_BYTES: usize = 24;
/// A batch frame's kind byte plus its 32-byte head.
const FRAME_HEAD_BYTES: usize = 33;
/// One packet record without its payload bytes.
const RECORD_BYTES: usize = 30;
const NO_PAYLOAD: u32 = u32::MAX;
const CHECKSUM_SEED: u64 = 0x6e73_7472;

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("four bytes"))
}

/// One length field: which batch frame it belongs to, where that frame
/// starts, and where the field sits.
struct Field {
    name: &'static str,
    frame: usize,
    frame_at: usize,
    at: usize,
}

/// Every length field of a clean container, in file order. Payload lengths
/// of absent and empty payloads are left out: 0 ↔ `u32::MAX` on those is
/// another valid encoding (an empty payload vs. none), not a corrupt frame.
fn length_fields(bytes: &[u8]) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut frame_at = HEADER_BYTES;
    for frame in 0.. {
        if bytes[frame_at] != 1 {
            break; // the end frame
        }
        let body_at = frame_at + FRAME_HEAD_BYTES;
        let body_len = u32_at(bytes, frame_at + 29) as usize;
        fields.push(Field { name: "packet_count", frame, frame_at, at: frame_at + 25 });
        fields.push(Field { name: "body_len", frame, frame_at, at: frame_at + 29 });
        let mut record = body_at;
        for _ in 0..u32_at(bytes, frame_at + 25) {
            let len = u32_at(bytes, record + 26);
            if len != NO_PAYLOAD && len != 0 {
                fields.push(Field { name: "payload_len", frame, frame_at, at: record + 26 });
            }
            record += RECORD_BYTES + if len == NO_PAYLOAD { 0 } else { len as usize };
        }
        assert_eq!(record, body_at + body_len, "frame {frame} walked to its end");
        frame_at = body_at + body_len + 8;
    }
    fields
}

/// Re-seals the frame at `frame_at`: writes the checksum of its kind byte,
/// head and `body_len`-byte body (as the head now declares it) where the
/// reader will look for it, when that slot lies inside the container.
fn reseal(bytes: &mut [u8], frame_at: usize) {
    let body_at = frame_at + FRAME_HEAD_BYTES;
    let slot = body_at + u32_at(bytes, frame_at + 29) as usize;
    if slot + 8 > bytes.len() {
        return;
    }
    let mut fnv = IncrementalFnv::new(CHECKSUM_SEED);
    fnv.write(&bytes[frame_at..body_at]);
    let sum = mix64(fnv.finish() ^ hash_block(&bytes[body_at..slot], CHECKSUM_SEED));
    bytes[slot..slot + 8].copy_from_slice(&sum.to_le_bytes());
}

/// `Truncated`, or a checksum mismatch naming the body of frame `frame`.
fn assert_structural(error: &FormatError, frame: usize, case: &str) {
    match error {
        FormatError::Truncated => {}
        FormatError::ChecksumMismatch { location }
            if *location == format!("frame {frame} body") => {}
        other => {
            panic!("{case}: expected Truncated or a frame {frame} body mismatch, got {other:?}")
        }
    }
}

#[test]
fn checksum_valid_length_mutations_end_in_typed_errors() {
    let batches = TraceGenerator::new(
        TraceConfig::default().with_seed(17).with_mean_packets_per_batch(40.0).with_payloads(true),
    )
    .batches(2);
    let clean = encode_batches(&batches, 100_000).expect("encode");
    let fields = length_fields(&clean);
    assert!(fields.iter().any(|f| f.name == "payload_len" && f.frame == 1), "payloads in both");

    // The restated checksum must be the reader's: re-sealing untouched
    // frames changes nothing.
    let mut resealed = clean.clone();
    for field in fields.iter().filter(|f| f.name == "body_len") {
        reseal(&mut resealed, field.frame_at);
    }
    assert_eq!(resealed, clean);

    // Any legitimate decode buffer is a fraction of the container; a column
    // sized from a forged `u32::MAX` count would be 34 GB.
    let allocation_limit = 4 * clean.len();
    let mut mutations = 0;
    for field in &fields {
        let original = u32_at(&clean, field.at);
        let mut values = vec![0, original.wrapping_sub(1), original.wrapping_add(1), u32::MAX];
        values.retain(|&v| v != original);
        values.sort_unstable();
        values.dedup();
        for value in values {
            let case = format!("frame {} {} {original} -> {value}", field.frame, field.name);
            let mut mutated = clean.clone();
            mutated[field.at..field.at + 4].copy_from_slice(&value.to_le_bytes());
            reseal(&mut mutated, field.frame_at);
            let container = Bytes::from(mutated);
            let reader = || SharedTraceReader::new(container.clone()).expect("header untouched");
            PEAK.store(0, Ordering::Relaxed);

            let error = decode_batches_shared(&container).expect_err(&case);
            assert_structural(&error, field.frame, &case);

            let mut stepping = reader();
            let error = loop {
                match stepping.read_batch() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("{case}: read_batch reached the end frame"),
                    Err(error) => break error,
                }
            };
            assert_structural(&error, field.frame, &case);

            let mut streaming = reader();
            while streaming.next_batch().is_some() {}
            assert_structural(streaming.error().expect(&case), field.frame, &case);

            // The skip path reads frame heads only, so of these fields it
            // sees just `body_len`; a forged one must still end the skip in
            // an error rather than a clean run to the end frame.
            let mut skipping = reader();
            skipping.skip_batches(u64::MAX);
            if field.name == "body_len" {
                assert!(skipping.error().is_some(), "{case}: skip_batches ran to the end");
            } else {
                assert!(skipping.error().is_none(), "{case}: {:?}", skipping.error());
            }

            let peak = PEAK.load(Ordering::Relaxed);
            assert!(peak <= allocation_limit, "{case}: a {peak}-byte allocation");
            mutations += 1;
        }
    }
    assert!(mutations > 100, "only {mutations} mutations ran");
}
