//! The `.nsck` snapshot container: versioned, checksummed, named sections.
//!
//! A snapshot is the on-disk form of a [`Daemon`](crate::Daemon) checkpoint.
//! The container deliberately mirrors the `.nstr` v2 trace framing so both
//! netshed artifact formats share one verification story:
//!
//! ```text
//! header   magic "NSCK" · version u16 · flags u16 · section count u64
//!          · FNV-1a checksum over the 16 fixed bytes
//! section  kind 0x01 · name len u64 · body len u64 · name bytes
//!          · body bytes · checksum u64
//! ...
//! end      kind 0x00 · section count u64 · FNV-1a checksum
//! ```
//!
//! Every multi-byte value is little-endian. A section checksum runs the
//! fixed metadata (kind, lengths, name) through the byte-serial
//! [`IncrementalFnv`] and the body — which carries the megabytes of sketch
//! and history state — through the word-parallel 4-lane
//! [`hash_block`], folding the halves with [`mix64`]: verifying a large snapshot costs memory
//! bandwidth, not a multiply per byte (the same trade `.nstr` v2 makes).
//!
//! Section *names* are the schema: readers look bodies up by name
//! ([`Snapshot::section`]), so sections can be appended in later versions
//! without renumbering anything. Section bodies are opaque byte blobs here;
//! their internal encoding is the
//! [`StateWriter`](netshed_sketch::StateWriter) canonical form, owned by the
//! component that wrote them.
//!
//! Error ordering is part of the contract (and pinned by tests): the magic
//! is validated before anything else, so truncated *non*-`.nsck` input
//! reports [`SnapshotError::BadMagic`], not `Truncated`; version skew
//! reports both the found and the expected version, like `.nstr` does.

use netshed_sketch::{hash_block, mix64, IncrementalFnv, StateError};

/// File magic: "NSCK" (netshed checkpoint).
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"NSCK";

/// Current format version. Readers accept exactly this version; the
/// version-skew error names both sides so the mismatch is diagnosable from
/// the message alone.
///
/// Version 2: a feature extractor's state no longer carries its per-batch
/// bitmaps (empty between bins), only the per-interval ones.
///
/// Version 3: `high-watermark` checkpoints the open interval's bytes per bin
/// (the table lanes fold) in place of a running peak, and the two words no
/// query ever read back (`autofocus`'s last sampling rate, `trace`'s stored
/// bytes) are gone. A version-2 file is refused, not migrated.
///
/// Version 4 moves no layout: the `digest` section still holds one chain
/// state and one item count per stream, but the states are the word-wise
/// run digest's (digest epoch 3), where a version-3 file holds the
/// byte-serial FNV-1a chains'. The new absorber would silently continue an
/// old chain under another function, so a version-3 file is refused, not
/// migrated.
///
/// Version 5: one engine section. The `monitor` section starts with the lane
/// count and holds every lane instance of each query with the query, in lane
/// order, where a version-4 file held lane 0's there and the other lanes' in
/// a `lanes` section of their own. A version-4 file is refused, not
/// migrated.
///
/// Version 6: each piece of state is written once, by its owner. A query's
/// record carries a flags byte — it follows a head, it owns a predictor, it
/// holds a sampled extractor — in place of the shadow flag, which the policy
/// already says. A cohort follower's record names its head's position and
/// holds its own predictor only if it owns one, where a version-5 file held
/// copies of the head's lane instances and predictor and a restore re-formed
/// the cohorts by comparing those bytes; a sampled extractor nobody built —
/// a query the plan never sampled on its own — is one clear bit. A version-5
/// file is refused, not migrated.
///
/// Version 7: a cohort follower takes its head's measurement-noise draw, so
/// it never detaches from the head's predictor alone — a follower owns no
/// predictor and an owner always owns one. The flags byte keeps two bits,
/// follows a head (1) and holds a sampled extractor (4); bit 2, which said a
/// record held a predictor, is retired, and a record with any bit but those
/// two is corrupt. A version-6 file is refused, not migrated: its follower
/// records may hold predictors a version-7 restore has nowhere to put.
///
/// Version 8: the `digest` section holds four chain states and one item
/// count per stream, where a version-7 file holds one chain state: the run
/// digest absorbs its words over four rotating chains (digest epoch 5). A
/// version-7 file is refused, not migrated — its one chain cannot continue
/// under the four.
pub const SNAPSHOT_FORMAT_VERSION: u16 = 8;

/// Seed of the container checksums (header, per-section and end frame).
const CHECKSUM_SEED: u64 = 0x6e73_636b; // "nsck"

const FRAME_END: u8 = 0;
const FRAME_SECTION: u8 = 1;

/// Errors produced while encoding or decoding a `.nsck` container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input does not start with the `.nsck` magic.
    BadMagic {
        /// The bytes found where the magic should be (zero-padded when the
        /// input is shorter than the magic itself).
        found: [u8; 4],
    },
    /// The container was written by an incompatible format version.
    UnsupportedVersion {
        /// Version declared by the container.
        found: u16,
        /// The version this build reads and writes.
        expected: u16,
    },
    /// The input ended before the named structure could be read.
    Truncated {
        /// What was being read when the bytes ran out.
        location: String,
    },
    /// A checksum did not match its frame's content.
    ChecksumMismatch {
        /// Which frame failed ("header", "section counter", …).
        location: String,
    },
    /// The container declares one section count in the header and a
    /// different one in the end frame.
    CountMismatch {
        /// Count in the header.
        header: u64,
        /// Count in the end frame.
        end: u64,
    },
    /// Two sections share a name; lookups would be ambiguous.
    DuplicateSection {
        /// The repeated name.
        name: String,
    },
    /// A required section is absent.
    MissingSection {
        /// The name that was looked up.
        name: String,
    },
    /// A section body failed to decode.
    State(StateError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic { found } => {
                write!(f, "not a .nsck snapshot (magic {found:02x?})")
            }
            SnapshotError::UnsupportedVersion { found, expected } => write!(
                f,
                "snapshot format version {found} is not the supported {expected} \
                 (re-checkpoint with this build)"
            ),
            SnapshotError::Truncated { location } => {
                write!(f, "snapshot ends early while reading {location}")
            }
            SnapshotError::ChecksumMismatch { location } => {
                write!(f, "snapshot checksum mismatch in {location}")
            }
            SnapshotError::CountMismatch { header, end } => write!(
                f,
                "snapshot header declares {header} sections but the end frame counted {end}"
            ),
            SnapshotError::DuplicateSection { name } => {
                write!(f, "snapshot section {name:?} appears more than once")
            }
            SnapshotError::MissingSection { name } => {
                write!(f, "snapshot has no {name:?} section")
            }
            SnapshotError::State(error) => write!(f, "snapshot section state: {error}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<StateError> for SnapshotError {
    fn from(error: StateError) -> Self {
        SnapshotError::State(error)
    }
}

/// An in-memory `.nsck` container: an ordered list of named byte sections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    sections: Vec<(String, Vec<u8>)>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a named section; names must be unique within a container.
    pub fn push(&mut self, name: &str, body: Vec<u8>) -> Result<(), SnapshotError> {
        if self.sections.iter().any(|(existing, _)| existing == name) {
            return Err(SnapshotError::DuplicateSection { name: name.to_string() });
        }
        self.sections.push((name.to_string(), body));
        Ok(())
    }

    /// Looks a section body up by name.
    pub fn section(&self, name: &str) -> Result<&[u8], SnapshotError> {
        self.sections
            .iter()
            .find(|(existing, _)| existing == name)
            .map(|(_, body)| body.as_slice())
            .ok_or_else(|| SnapshotError::MissingSection { name: name.to_string() })
    }

    /// The section names, in container order.
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|(name, _)| name.as_str()).collect()
    }

    /// Encodes the container. Encoding is canonical: the same sections in
    /// the same order produce the same bytes, which is what makes
    /// save→load→save byte-identical.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        // Header: 16 fixed bytes + their FNV checksum.
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
        out.extend_from_slice(&(self.sections.len() as u64).to_le_bytes());
        let mut fnv = IncrementalFnv::new(CHECKSUM_SEED);
        fnv.write(&out[..16]);
        out.extend_from_slice(&fnv.finish().to_le_bytes());

        for (name, body) in &self.sections {
            let frame_start = out.len();
            out.push(FRAME_SECTION);
            out.extend_from_slice(&(name.len() as u64).to_le_bytes());
            out.extend_from_slice(&(body.len() as u64).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            let metadata_len = out.len() - frame_start;
            out.extend_from_slice(body);
            let checksum = section_checksum(&out[frame_start..frame_start + metadata_len], body);
            out.extend_from_slice(&checksum.to_le_bytes());
        }

        // End frame: kind + count + FNV checksum, like the `.nstr` end frame.
        let end_start = out.len();
        out.push(FRAME_END);
        out.extend_from_slice(&(self.sections.len() as u64).to_le_bytes());
        let mut fnv = IncrementalFnv::new(CHECKSUM_SEED);
        fnv.write(&out[end_start..end_start + 9]);
        out.extend_from_slice(&fnv.finish().to_le_bytes());
        out
    }

    /// Decodes a container, verifying every checksum.
    ///
    /// The magic is validated before anything else — truncated input that
    /// is not a `.nsck` file at all reports [`SnapshotError::BadMagic`],
    /// never a confusing `Truncated`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        validate_magic(bytes)?;
        let mut cursor = Cursor { buf: bytes, pos: 0 };
        let fixed = cursor.take(16, "header")?;
        let version = u16::from_le_bytes([fixed[4], fixed[5]]);
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                expected: SNAPSHOT_FORMAT_VERSION,
            });
        }
        let declared_sections = le_u64(&fixed[8..16]);
        let mut fnv = IncrementalFnv::new(CHECKSUM_SEED);
        fnv.write(fixed);
        if fnv.finish() != cursor.u64("header checksum")? {
            return Err(SnapshotError::ChecksumMismatch { location: "header".into() });
        }

        let mut snapshot = Snapshot::new();
        loop {
            let frame_start = cursor.pos;
            match cursor.u8("frame kind")? {
                FRAME_END => {
                    let declared_end = cursor.u64("end frame")?;
                    let mut fnv = IncrementalFnv::new(CHECKSUM_SEED);
                    fnv.write(&bytes[frame_start..frame_start + 9]);
                    if fnv.finish() != cursor.u64("end frame checksum")? {
                        return Err(SnapshotError::ChecksumMismatch {
                            location: "end frame".into(),
                        });
                    }
                    if declared_end != declared_sections
                        || snapshot.sections.len() as u64 != declared_sections
                    {
                        return Err(SnapshotError::CountMismatch {
                            header: declared_sections,
                            end: declared_end,
                        });
                    }
                    if cursor.remaining() != 0 {
                        return Err(SnapshotError::Truncated {
                            location: format!(
                                "nothing ({} trailing bytes after the end frame)",
                                cursor.remaining()
                            ),
                        });
                    }
                    return Ok(snapshot);
                }
                FRAME_SECTION => {
                    let index = snapshot.sections.len();
                    let name_len = cursor.usize(&format!("section {index} name length"))?;
                    let body_len = cursor.usize(&format!("section {index} body length"))?;
                    let name_bytes = cursor.take(name_len, &format!("section {index} name"))?;
                    let metadata_end = cursor.pos;
                    let name = std::str::from_utf8(name_bytes)
                        .map_err(|_| {
                            SnapshotError::State(StateError::corrupt(format!(
                                "section {index} name is not UTF-8"
                            )))
                        })?
                        .to_string();
                    let body = cursor.take(body_len, &format!("section {name:?} body"))?;
                    let declared = cursor.u64(&format!("section {name:?} checksum"))?;
                    if section_checksum(&bytes[frame_start..metadata_end], body) != declared {
                        return Err(SnapshotError::ChecksumMismatch {
                            location: format!("section {name:?}"),
                        });
                    }
                    snapshot.push(&name, body.to_vec())?;
                }
                other => {
                    return Err(SnapshotError::State(StateError::corrupt(format!(
                        "unknown frame kind {other}"
                    ))))
                }
            }
        }
    }
}

/// Section checksum: fixed metadata through the byte-serial FNV, the bulk
/// body through the word-parallel [`hash_block`], halves folded by
/// [`mix64`] — the `.nstr` v2 frame-checksum construction.
fn section_checksum(metadata: &[u8], body: &[u8]) -> u64 {
    let mut fnv = IncrementalFnv::new(CHECKSUM_SEED);
    fnv.write(metadata);
    mix64(fnv.finish() ^ hash_block(body, CHECKSUM_SEED))
}

/// Magic check over whatever prefix exists: a wrong prefix is `BadMagic`
/// even when the input is also too short, so garbage input is never
/// misreported as a truncated snapshot.
fn validate_magic(bytes: &[u8]) -> Result<(), SnapshotError> {
    let prefix_len = bytes.len().min(4);
    if bytes[..prefix_len] != SNAPSHOT_MAGIC[..prefix_len] {
        let mut found = [0u8; 4];
        found[..prefix_len].copy_from_slice(&bytes[..prefix_len]);
        return Err(SnapshotError::BadMagic { found });
    }
    if bytes.len() < 4 {
        return Err(SnapshotError::Truncated { location: "magic".into() });
    }
    Ok(())
}

fn le_u64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// Bounds-checked reader with located truncation errors.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, len: usize, location: &str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < len {
            return Err(SnapshotError::Truncated { location: location.to_string() });
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    fn u8(&mut self, location: &str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, location)?[0])
    }

    fn u64(&mut self, location: &str) -> Result<u64, SnapshotError> {
        Ok(le_u64(self.take(8, location)?))
    }

    fn usize(&mut self, location: &str) -> Result<usize, SnapshotError> {
        let v = self.u64(location)?;
        usize::try_from(v).map_err(|_| {
            SnapshotError::State(StateError::corrupt(format!("{location} {v} overflows usize")))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut snapshot = Snapshot::new();
        snapshot.push("config", vec![1, 2, 3, 4]).expect("unique");
        snapshot.push("monitor", (0..200u16).flat_map(u16::to_le_bytes).collect()).expect("unique");
        snapshot.push("empty", Vec::new()).expect("unique");
        snapshot
    }

    #[test]
    fn round_trips_preserving_order_and_bodies() {
        let snapshot = sample();
        let bytes = snapshot.to_bytes();
        let decoded = Snapshot::from_bytes(&bytes).expect("decode");
        assert_eq!(decoded, snapshot);
        assert_eq!(decoded.section_names(), vec!["config", "monitor", "empty"]);
        assert_eq!(decoded.section("config").expect("present"), &[1, 2, 3, 4]);
        assert!(matches!(
            decoded.section("nope").unwrap_err(),
            SnapshotError::MissingSection { name } if name == "nope"
        ));
    }

    #[test]
    fn encoding_is_canonical() {
        assert_eq!(sample().to_bytes(), sample().to_bytes());
        let reencoded = Snapshot::from_bytes(&sample().to_bytes()).expect("decode").to_bytes();
        assert_eq!(reencoded, sample().to_bytes(), "load → save must be byte-identical");
    }

    #[test]
    fn duplicate_sections_are_rejected_at_push_time() {
        let mut snapshot = sample();
        assert!(matches!(
            snapshot.push("config", vec![9]).unwrap_err(),
            SnapshotError::DuplicateSection { name } if name == "config"
        ));
    }

    #[test]
    fn wrong_magic_wins_over_truncation() {
        // A short non-.nsck prefix is BadMagic, not Truncated.
        let err = Snapshot::from_bytes(b"NS").unwrap_err();
        assert!(matches!(err, SnapshotError::Truncated { .. }), "matching prefix truncates: {err}");
        let err = Snapshot::from_bytes(b"XY").unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic { .. }), "wrong prefix is BadMagic: {err}");
        let err = Snapshot::from_bytes(b"NSTRxxxx").unwrap_err();
        assert_eq!(err, SnapshotError::BadMagic { found: *b"NSTR" });
        // A valid magic with nothing behind it truncates at the header.
        let err = Snapshot::from_bytes(b"NSCK").unwrap_err();
        assert!(matches!(err, SnapshotError::Truncated { location } if location == "header"));
    }

    #[test]
    fn version_skew_reports_found_and_expected() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 99; // version low byte
                       // Fix the header checksum so the version check is what fires.
        let mut fnv = IncrementalFnv::new(CHECKSUM_SEED);
        fnv.write(&bytes[..16]);
        bytes[16..24].copy_from_slice(&fnv.finish().to_le_bytes());
        let err = Snapshot::from_bytes(&bytes).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::UnsupportedVersion { found: 99, expected: SNAPSHOT_FORMAT_VERSION }
        );
        let message = err.to_string();
        let expected = SNAPSHOT_FORMAT_VERSION.to_string();
        assert!(message.contains("99") && message.contains(&expected), "{message}");

        // The version before this one — whose digest section holds one
        // chain per stream — is refused the same way, not misread.
        bytes[4] = 7;
        let mut fnv = IncrementalFnv::new(CHECKSUM_SEED);
        fnv.write(&bytes[..16]);
        bytes[16..24].copy_from_slice(&fnv.finish().to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion { found: 7, expected: 8 }
        );
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let pristine = sample().to_bytes();
        for index in 0..pristine.len() {
            for bit in 0..8 {
                let mut corrupted = pristine.clone();
                corrupted[index] ^= 1 << bit;
                assert!(
                    Snapshot::from_bytes(&corrupted).is_err(),
                    "flipping bit {bit} of byte {index} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_point_errors_and_magic_order_holds() {
        let pristine = sample().to_bytes();
        for len in 0..pristine.len() {
            let err = Snapshot::from_bytes(&pristine[..len]).unwrap_err();
            if len < 4 {
                // Still inside the magic: a matching prefix truncates.
                assert!(matches!(err, SnapshotError::Truncated { .. }), "len {len}: {err}");
            } else {
                assert!(
                    matches!(err, SnapshotError::Truncated { .. }),
                    "len {len} must truncate, got {err}"
                );
            }
        }
    }
}
