//! Truncated `.nsck` checkpoints fail typed, without a panic and without an
//! allocation sized from what is missing.
//!
//! A real fleet checkpoint (two lanes, a packet- and a flow-sampled query,
//! cut halfway through a corpus scenario at twice the fleet's capacity) is
//! restored from every truncation that ends on a boundary of its structure:
//!
//! * the container: every frame start, every name and body start and end,
//!   every checksum start, and every byte inside every length field (the
//!   header's and the end frame's section counts, each section's name and
//!   body lengths) — each decode ends in `SnapshotError::Truncated`;
//! * each section's body, re-sealed under a valid checksum so the container
//!   cannot catch it: the body is cut before every read its decoder makes
//!   and in the middle of it (found by walking the decoder's own
//!   `StateError::Truncated { needed, remaining }` reports, one read at a
//!   time) — each restore ends in `StateError::Truncated`.
//!
//! The peak-request allocator (`tests/nsck/`) holds every failed restore to
//! the largest single request the untruncated restore makes: a buffer sized
//! from a length whose data is not there would exceed it.

mod nsck;

use netshed_service::{ServiceError, Snapshot, SnapshotError};
use netshed_sketch::StateError;
use netshed_trace::scenario::builtin;
use nsck::{clean_restore_peak, failed_restore, fleet_checkpoint};

/// Header bytes before the first frame: magic, version, flags, section
/// count, checksum.
const HEADER_BYTES: usize = 24;

/// The container's structural offsets: every boundary a truncation can end
/// on, and every byte inside a length field.
fn container_cuts(bytes: &[u8], snapshot: &Snapshot) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..=HEADER_BYTES).collect();
    let mut at = HEADER_BYTES;
    for name in snapshot.section_names() {
        let body = snapshot.section(name).expect("listed section").len();
        // Kind byte, then the two length fields byte by byte.
        cuts.extend(at..=at + 17);
        let body_start = at + 17 + name.len();
        cuts.extend([body_start, body_start + body / 2, body_start + body]);
        cuts.extend(body_start + body..=body_start + body + 8);
        at = body_start + body + 8;
    }
    // The end frame: kind, section count, checksum; the whole file is no cut.
    cuts.extend(at..at + 17);
    assert_eq!(at + 17, bytes.len(), "the walk ends on the end frame");
    cuts
}

/// `snapshot` with section `name`'s body replaced by `body`, re-sealed.
fn resealed(snapshot: &Snapshot, name: &str, body: &[u8]) -> Vec<u8> {
    let mut copy = Snapshot::new();
    for section in snapshot.section_names() {
        let original = snapshot.section(section).expect("listed section");
        let bytes = if section == name { body } else { original };
        copy.push(section, bytes.to_vec()).expect("unique names");
    }
    copy.to_bytes()
}

/// The read of a truncated section body that failed, as (start, needed).
fn failed_read(error: ServiceError, name: &str, cut: usize) -> (usize, usize) {
    match error {
        ServiceError::Snapshot(SnapshotError::State(StateError::Truncated {
            needed,
            remaining,
        })) => (cut - remaining, needed),
        other => panic!("section {name:?} cut at {cut}: {other}"),
    }
}

#[test]
fn every_structural_truncation_of_a_fleet_checkpoint_fails_typed() {
    let batches = builtin("steady-cesca").expect("builtin").generate().expect("valid");
    let (config, bytes) = fleet_checkpoint(&batches);
    let snapshot = Snapshot::from_bytes(&bytes).expect("a clean checkpoint decodes");

    let ceiling = clean_restore_peak(&config, &batches, &bytes);

    for cut in container_cuts(&bytes, &snapshot) {
        let (error, peak) = failed_restore(&config, &batches, &bytes[..cut]);
        assert!(
            matches!(error, ServiceError::Snapshot(SnapshotError::Truncated { .. })),
            "container cut at {cut} of {}: {error}",
            bytes.len()
        );
        assert!(
            peak <= ceiling,
            "container cut at {cut}: a {peak}-byte request (ceiling {ceiling})"
        );
    }

    let mut reads = 0;
    for name in snapshot.section_names() {
        let body = snapshot.section(name).expect("listed section");
        // Walk the decoder's reads: a cut where a read starts fails that
        // read and says how many bytes it needed; a second cut lands inside
        // it (inside every length field, among others).
        let mut start = 0;
        while start < body.len() {
            let restore = |cut: usize| {
                let (error, peak) =
                    failed_restore(&config, &batches, &resealed(&snapshot, name, &body[..cut]));
                assert!(peak <= ceiling, "section {name:?} cut at {cut}: a {peak}-byte request");
                failed_read(error, name, cut)
            };
            let (at, needed) = restore(start);
            assert_eq!(at, start, "section {name:?}: the read at the cut fails");
            if needed > 1 {
                assert_eq!(restore(start + needed / 2), (start, needed), "section {name:?}");
            }
            start += needed;
            reads += 1;
        }
    }
    assert!(reads > 1000, "walked {reads} reads");
}
