//! A `.nsck` checkpoint whose section table was tampered with fails typed,
//! without a panic and without an allocation sized from a forged length.
//!
//! The fleet checkpoint of `tests/nsck_truncation.rs` is re-framed with its
//! section table changed and every checksum re-sealed, so the container's
//! checksums cannot catch the change and the structure checks must:
//!
//! * a section appearing twice is `DuplicateSection`;
//! * a section dropped or renamed is `MissingSection`;
//! * a frame of an unknown kind is a `Corrupt` state;
//! * header and end-frame section counts that disagree — with each other,
//!   or with the frames between them, up to `u64::MAX` — are
//!   `CountMismatch`;
//! * a container of the version before this one is `UnsupportedVersion`.
//!
//! The peak-request allocator (`tests/nsck/`) holds every failed restore to
//! the largest single request the clean restore makes.

mod nsck;

use netshed::sketch::{hash_block, mix64, IncrementalFnv, StateError};
use netshed_service::{ServiceError, Snapshot, SnapshotError, SNAPSHOT_FORMAT_VERSION};
use netshed_trace::scenario::builtin;
use nsck::{clean_restore_peak, failed_restore, fleet_checkpoint};

/// Seed of the container checksums ("nsck").
const CHECKSUM_SEED: u64 = 0x6e73_636b;

/// One frame to write: its kind byte, name and body.
#[derive(Clone, Copy)]
struct Frame<'a> {
    kind: u8,
    name: &'a str,
    body: &'a [u8],
}

/// A `.nsck` container of `version` holding `frames`, with `header` and
/// `end` as the two declared section counts and every checksum valid — the
/// framing the format defines (header, section and end-frame checksums),
/// written out here so that a table the encoder refuses can be written.
fn sealed(version: u16, frames: &[Frame<'_>], header: u64, end: u64) -> Vec<u8> {
    let fnv = |bytes: &[u8]| {
        let mut fnv = IncrementalFnv::new(CHECKSUM_SEED);
        fnv.write(bytes);
        fnv.finish()
    };
    let mut out = b"NSCK".to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&header.to_le_bytes());
    out.extend_from_slice(&fnv(&out[..16]).to_le_bytes());
    for frame in frames {
        let start = out.len();
        out.push(frame.kind);
        out.extend_from_slice(&(frame.name.len() as u64).to_le_bytes());
        out.extend_from_slice(&(frame.body.len() as u64).to_le_bytes());
        out.extend_from_slice(frame.name.as_bytes());
        let metadata = fnv(&out[start..]);
        out.extend_from_slice(frame.body);
        out.extend_from_slice(
            &mix64(metadata ^ hash_block(frame.body, CHECKSUM_SEED)).to_le_bytes(),
        );
    }
    let start = out.len();
    out.push(0);
    out.extend_from_slice(&end.to_le_bytes());
    out.extend_from_slice(&fnv(&out[start..]).to_le_bytes());
    out
}

#[test]
fn every_section_table_mutation_of_a_fleet_checkpoint_fails_typed() {
    let batches = builtin("steady-cesca").expect("builtin").generate().expect("valid");
    let (config, bytes) = fleet_checkpoint(&batches);
    let snapshot = Snapshot::from_bytes(&bytes).expect("a clean checkpoint decodes");
    let ceiling = clean_restore_peak(&config, &batches, &bytes);
    let names = snapshot.section_names();
    let frames: Vec<Frame<'_>> = names
        .iter()
        .map(|name| Frame { kind: 1, name, body: snapshot.section(name).expect("listed") })
        .collect();
    let count = frames.len() as u64;
    let version = SNAPSHOT_FORMAT_VERSION;
    assert_eq!(sealed(version, &frames, count, count), bytes, "the re-framing is the encoder's");

    let restore = |what: &str, damaged: Vec<u8>| {
        let (error, peak) = failed_restore(&config, &batches, &damaged);
        assert!(peak <= ceiling, "{what}: a {peak}-byte request (ceiling {ceiling})");
        error
    };
    let snapshot_error = |what: &str, error: ServiceError| match error {
        ServiceError::Snapshot(error) => error,
        other => panic!("{what}: {other}"),
    };

    for (at, name) in names.iter().enumerate() {
        let mut duplicated = frames.clone();
        duplicated.insert(at + 1, frames[at]);
        let what = format!("section {name:?} twice");
        let error = restore(&what, sealed(version, &duplicated, count + 1, count + 1));
        assert_eq!(
            snapshot_error(&what, error),
            SnapshotError::DuplicateSection { name: name.to_string() }
        );

        let renamed_to = format!("{name}-renamed");
        for (what, replacement) in [("dropped", None), ("renamed", Some(renamed_to.as_str()))] {
            let table: Vec<Frame<'_>> = frames
                .iter()
                .enumerate()
                .filter_map(|(index, frame)| match (index == at, replacement) {
                    (false, _) => Some(*frame),
                    (true, None) => None,
                    (true, Some(other)) => Some(Frame { kind: 1, name: other, body: frame.body }),
                })
                .collect();
            let what = format!("section {name:?} {what}");
            let declared = table.len() as u64;
            let error =
                snapshot_error(&what, restore(&what, sealed(version, &table, declared, declared)));
            assert_eq!(error, SnapshotError::MissingSection { name: name.to_string() }, "{what}");
        }

        for kind in [2u8, 0x7f, 0xff] {
            let mut table = frames.clone();
            table[at].kind = kind;
            let what = format!("section {name:?} framed as kind {kind}");
            let error =
                snapshot_error(&what, restore(&what, sealed(version, &table, count, count)));
            assert!(
                matches!(&error, SnapshotError::State(StateError::Corrupt(message))
                    if message.contains(&format!("unknown frame kind {kind}"))),
                "{what}: {error}"
            );
        }
    }

    for (header, end) in [
        (count + 1, count),
        (count, count + 1),
        (count - 1, count),
        (u64::MAX, count),
        (count, u64::MAX),
        (u64::MAX, u64::MAX),
    ] {
        let what = format!("header count {header}, end count {end}");
        let error = snapshot_error(&what, restore(&what, sealed(version, &frames, header, end)));
        assert_eq!(error, SnapshotError::CountMismatch { header, end }, "{what}");
    }

    let what = "the version before this one";
    let error = snapshot_error(what, restore(what, sealed(version - 1, &frames, count, count)));
    assert_eq!(error, SnapshotError::UnsupportedVersion { found: 7, expected: 8 });
}
