//! The `.nstr` binary trace format: record any batch stream to disk and
//! replay it bit-identically.
//!
//! The golden-replay conformance corpus (see `corpus/` at the repository
//! root) pins the output of every control/data/exec-plane refactor against
//! recorded scenarios, which requires a trace container whose decode is
//! *exactly* the batch stream that was encoded — packet timestamps, flow
//! tuples, flags and payload bytes included. The format is deliberately
//! simple and fully self-checking:
//!
//! ```text
//! header   magic "NSTR" · version u16 · flags u16 · time_bin_us u64
//!          · FNV-64 checksum over the preceding bytes
//! frame*   kind=1 · bin_index u64 · start_ts u64 · duration_us u64
//!          · packet_count u32 · body_len u32 · packets · frame checksum u64
//! end      kind=0 · total_batches u64 · checksum u64
//! ```
//!
//! The tiny header and end frames checksum with the byte-serial FNV; each
//! batch frame's checksum (format v2) runs the kind + head bytes through FNV
//! and the body through the word-parallel [`hash_block`], so verifying a
//! payload-heavy container costs memory bandwidth, not a multiply per byte.
//!
//! Every multi-byte value is little-endian. Each packet is encoded as
//! `ts u64 · src u32 · dst u32 · sport u16 · dport u16 · proto u8 ·
//! tcp_flags u8 · ip_len u32 · payload_len u32 (+ payload bytes)`, with
//! `u32::MAX` as the *no payload captured* sentinel (distinct from an empty
//! payload). [`TraceWriter`] streams frames to any [`Write`].
//!
//! [`FrameWalk`] steps through a caller-held in-memory container (a
//! [`Bytes`] buffer — e.g. a file read or mapped once) frame by frame
//! without decoding a body. [`SharedTraceReader`] decodes what it walks:
//! each frame body in one pass over its records, straight into the
//! exactly-sized columns of a [`PacketStore`] — there is no intermediate
//! `Vec<Packet>` — with the frame's payloads left in place behind one
//! window onto the frame body, so replay cost is independent of payload
//! volume. The reader validates magic, version and every checksum, latches
//! decode errors when driven as a streaming [`PacketSource`], and plugs into
//! the pipeline via `read_all` + [`BatchReplay`] or the `into_replay`
//! shortcut.

use crate::batch::{Batch, PacketStore, PayloadColumn, PayloadSpan};
use crate::packet::FiveTuple;
use crate::source::{BatchReplay, PacketSource};
use bytes::Bytes;
use netshed_sketch::{hash_block, mix64, IncrementalFnv};
use std::io::Write;
use std::ops::Range;

/// File magic: "NSTR" (netshed trace).
pub const TRACE_MAGIC: [u8; 4] = *b"NSTR";

/// Current format version. Readers accept exactly this version: v2 changed
/// the frame-body checksum from the byte-serial FNV to the word-parallel
/// [`hash_block`], so neither direction of version skew can be decoded.
pub const TRACE_FORMAT_VERSION: u16 = 2;

/// Seed of the container checksums (header and per-frame).
const CHECKSUM_SEED: u64 = 0x6e73_7472; // "nstr"

const FRAME_END: u8 = 0;
const FRAME_BATCH: u8 = 1;

/// Sentinel for "no payload captured" (`Packet.payload == None`).
const NO_PAYLOAD: u32 = u32::MAX;

/// Errors produced while encoding or decoding a binary trace.
#[derive(Debug)]
pub enum FormatError {
    /// The underlying reader or writer failed.
    Io(std::io::Error),
    /// The stream does not start with the `NSTR` magic.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The trace was written by a different format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Version this reader supports.
        expected: u16,
    },
    /// A checksum did not match: the file is corrupt or was truncated and
    /// re-extended.
    ChecksumMismatch {
        /// What failed the check ("header", or the 0-based frame index).
        location: String,
    },
    /// The stream ended before the end frame (a partial write).
    Truncated,
    /// The end frame's batch count disagrees with the frames actually read.
    CountMismatch {
        /// Batch count declared by the end frame.
        declared: u64,
        /// Frames actually decoded.
        decoded: u64,
    },
    /// A frame carries an unknown kind byte.
    UnknownFrame {
        /// The offending kind byte.
        kind: u8,
    },
    /// A payload longer than the format can represent (4 GiB) was submitted
    /// for encoding.
    PayloadTooLarge {
        /// Length of the offending payload.
        len: usize,
    },
    /// A batch whose encoded frame body exceeds the format's 4 GiB frame
    /// limit was submitted for encoding.
    FrameTooLarge {
        /// Encoded body length of the offending batch.
        len: usize,
    },
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Io(error) => write!(f, "trace i/o error: {error}"),
            FormatError::BadMagic { found } => {
                write!(f, "not a netshed trace (magic {found:02x?}, expected \"NSTR\")")
            }
            FormatError::UnsupportedVersion { found, expected } => write!(
                f,
                "trace format version {found} is not the supported {expected} \
                 (re-record the trace)"
            ),
            FormatError::ChecksumMismatch { location } => {
                write!(f, "trace checksum mismatch at {location}: file is corrupt")
            }
            FormatError::Truncated => write!(f, "trace ends before its end frame (partial write)"),
            FormatError::CountMismatch { declared, decoded } => {
                write!(f, "trace end frame declares {declared} batches but {decoded} were decoded")
            }
            FormatError::UnknownFrame { kind } => write!(f, "unknown trace frame kind {kind}"),
            FormatError::PayloadTooLarge { len } => {
                write!(f, "packet payload of {len} bytes exceeds the format limit")
            }
            FormatError::FrameTooLarge { len } => {
                write!(f, "batch frame of {len} bytes exceeds the format's 4 GiB limit")
            }
        }
    }
}

impl std::error::Error for FormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FormatError::Io(error) => Some(error),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FormatError {
    fn from(error: std::io::Error) -> Self {
        FormatError::Io(error)
    }
}

/// Byte sink that feeds the frame checksum while buffering the frame body.
struct FrameBuf {
    bytes: Vec<u8>,
}

impl FrameBuf {
    fn new() -> Self {
        Self { bytes: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn raw(&mut self, v: &[u8]) {
        self.bytes.extend_from_slice(v);
    }

    fn checksum(&self) -> u64 {
        let mut fnv = IncrementalFnv::new(CHECKSUM_SEED);
        fnv.write(&self.bytes);
        fnv.finish()
    }
}

/// Streams batches into the `.nstr` container.
///
/// The writer emits the header on construction and one frame per
/// [`TraceWriter::write_batch`]; [`TraceWriter::finish`] appends the end
/// frame (with the total batch count) and flushes. A trace without an end
/// frame is rejected by the reader as [`FormatError::Truncated`], so a
/// crashed recording can never masquerade as a short one.
pub struct TraceWriter<W: Write> {
    writer: W,
    batches: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the container header and returns the writer.
    pub fn new(mut writer: W, time_bin_us: u64) -> Result<Self, FormatError> {
        let mut header = FrameBuf::new();
        header.raw(&TRACE_MAGIC);
        header.u16(TRACE_FORMAT_VERSION);
        header.u16(0); // flags, reserved
        header.u64(time_bin_us);
        let checksum = header.checksum();
        header.u64(checksum);
        writer.write_all(&header.bytes)?;
        Ok(Self { writer, batches: 0 })
    }

    /// Appends one batch frame.
    pub fn write_batch(&mut self, batch: &Batch) -> Result<(), FormatError> {
        let mut body = FrameBuf::new();
        for packet in batch.packets.iter() {
            let tuple = packet.tuple();
            body.u64(packet.ts());
            body.u32(tuple.src_ip);
            body.u32(tuple.dst_ip);
            body.u16(tuple.src_port);
            body.u16(tuple.dst_port);
            body.u8(tuple.proto);
            body.u8(packet.tcp_flags());
            body.u32(packet.ip_len());
            match packet.payload() {
                None => body.u32(NO_PAYLOAD),
                Some(payload) => {
                    let len = u32::try_from(payload.len())
                        .ok()
                        .filter(|&l| l != NO_PAYLOAD)
                        .ok_or(FormatError::PayloadTooLarge { len: payload.len() })?;
                    body.u32(len);
                    body.raw(payload);
                }
            }
        }
        // The per-payload guard above bounds each packet, not the frame: a
        // body past u32 would otherwise wrap `body_len` and write a file
        // that can never decode.
        let body_len = u32::try_from(body.bytes.len())
            .map_err(|_| FormatError::FrameTooLarge { len: body.bytes.len() })?;
        let packet_count = u32::try_from(batch.len())
            .map_err(|_| FormatError::FrameTooLarge { len: body.bytes.len() })?;
        let mut frame = FrameBuf::new();
        frame.u8(FRAME_BATCH);
        frame.u64(batch.bin_index);
        frame.u64(batch.start_ts);
        frame.u64(batch.duration_us);
        frame.u32(packet_count);
        frame.u32(body_len);
        frame.raw(&body.bytes);
        // Kind byte + 32-byte head, then the body — the same split the
        // readers verify against.
        let checksum = frame_checksum(&frame.bytes[1..33], &frame.bytes[33..]);
        frame.u64(checksum);
        self.writer.write_all(&frame.bytes)?;
        self.batches += 1;
        Ok(())
    }

    /// Appends every batch of a slice, in order.
    pub fn write_all(&mut self, batches: &[Batch]) -> Result<(), FormatError> {
        for batch in batches {
            self.write_batch(batch)?;
        }
        Ok(())
    }

    /// Writes the end frame, flushes, and returns the destination.
    pub fn finish(mut self) -> Result<W, FormatError> {
        let mut frame = FrameBuf::new();
        frame.u8(FRAME_END);
        frame.u64(self.batches);
        let checksum = frame.checksum();
        frame.u64(checksum);
        self.writer.write_all(&frame.bytes)?;
        self.writer.flush()?;
        Ok(self.writer)
    }
}

/// Encodes a batch slice into an in-memory `.nstr` container.
pub fn encode_batches(batches: &[Batch], time_bin_us: u64) -> Result<Vec<u8>, FormatError> {
    let mut writer = TraceWriter::new(Vec::new(), time_bin_us)?;
    writer.write_all(batches)?;
    writer.finish()
}

/// Decodes every batch of a shared in-memory `.nstr` container; each decoded
/// store's payloads are one window into `buffer` (see [`SharedTraceReader`]).
pub fn decode_batches_shared(buffer: &Bytes) -> Result<Vec<Batch>, FormatError> {
    SharedTraceReader::new(buffer.clone())?.read_all()
}

/// Validates an end frame (`kind` byte already consumed, `rest` = count +
/// checksum) against the number of frames actually walked.
fn validate_end_frame(rest: &[u8; 16], walked: u64) -> Result<(), FormatError> {
    let declared_count = le_u64(rest, 0);
    let declared_sum = le_u64(rest, 8);
    let mut fnv = IncrementalFnv::new(CHECKSUM_SEED);
    fnv.write(&[FRAME_END]);
    fnv.write(&rest[..8]);
    if fnv.finish() != declared_sum {
        return Err(FormatError::ChecksumMismatch { location: "end frame".into() });
    }
    if declared_count != walked {
        return Err(FormatError::CountMismatch { declared: declared_count, decoded: walked });
    }
    Ok(())
}

/// Computes a batch frame's checksum (format v2).
///
/// The 33 fixed bytes (kind + 32-byte head) absorb through the byte-serial
/// FNV; the body — which carries the payload volume and dominates the
/// container — absorbs through the word-parallel [`hash_block`], so
/// verification cost is bounded by memory bandwidth rather than a
/// byte-at-a-time multiply chain. The two halves combine through [`mix64`].
fn frame_checksum(head: &[u8], body: &[u8]) -> u64 {
    let mut fnv = IncrementalFnv::new(CHECKSUM_SEED);
    fnv.write(&[FRAME_BATCH]);
    fnv.write(head);
    mix64(fnv.finish() ^ hash_block(body, CHECKSUM_SEED))
}

/// Encoded size of one packet record without its payload bytes.
const PACKET_RECORD_BYTES: usize = 30;

/// Walks the frames of an in-memory `.nstr` container without decoding a
/// body.
///
/// Opening validates magic, version and the header checksum; each step
/// reads one batch frame's head and locates its body and checksum, and the
/// end frame's checksum and batch count are validated when it is reached.
/// Running off the end of the buffer is [`FormatError::Truncated`]. The walk
/// builds no store and hashes no body unless asked ([`Frame::checksum_ok`]):
/// [`SharedTraceReader`] decodes the frames it walks, and a trace inspector
/// can describe a container without decoding it.
#[derive(Debug)]
pub struct FrameWalk {
    buffer: Bytes,
    /// Offset of the next unread byte of `buffer`.
    at: usize,
    time_bin_us: u64,
    /// Batch frames stepped over so far.
    frames: u64,
    /// Set once the end frame was seen (further steps return `None`).
    finished: bool,
}

impl FrameWalk {
    /// Validates the container header of a shared buffer.
    pub fn new(buffer: Bytes) -> Result<Self, FormatError> {
        let mut walk = Self { buffer, at: 0, time_bin_us: 0, frames: 0, finished: false };
        let fixed = walk.array::<16>()?;
        // The magic is checked before the 8-byte header checksum is read, so
        // a short non-`.nstr` input reports `BadMagic` rather than the
        // misleading `Truncated`.
        let magic = [fixed[0], fixed[1], fixed[2], fixed[3]];
        if magic != TRACE_MAGIC {
            return Err(FormatError::BadMagic { found: magic });
        }
        let declared = walk.array::<8>()?;
        let version = u16::from_le_bytes([fixed[4], fixed[5]]);
        if version != TRACE_FORMAT_VERSION {
            return Err(FormatError::UnsupportedVersion {
                found: version,
                expected: TRACE_FORMAT_VERSION,
            });
        }
        let mut fnv = IncrementalFnv::new(CHECKSUM_SEED);
        fnv.write(&fixed);
        if fnv.finish() != u64::from_le_bytes(declared) {
            return Err(FormatError::ChecksumMismatch { location: "header".into() });
        }
        walk.time_bin_us = le_u64(&fixed, 8);
        Ok(walk)
    }

    /// The time-bin duration recorded in the header.
    pub fn time_bin_us(&self) -> u64 {
        self.time_bin_us
    }

    /// Steps to the next batch frame, `Ok(None)` at the (validated) end
    /// frame. The frame's body is located, not read.
    pub fn next_frame(&mut self) -> Result<Option<Frame<'_>>, FormatError> {
        if !self.at_batch_frame()? {
            return Ok(None);
        }
        let head = self.array::<32>()?;
        let body = self.advance(u64::from(le_u32(&head, 28)))?;
        let declared = u64::from_le_bytes(self.array::<8>()?);
        let index = self.frames;
        self.frames += 1;
        Ok(Some(Frame { container: &self.buffer, index, head, body, declared }))
    }

    /// Skips the next frame: `Ok(true)` when a batch frame was stepped over,
    /// `Ok(false)` at the (validated) end frame. The 32-byte frame head is
    /// read to learn the body length, then `body_len + 8` bytes (body plus
    /// trailing checksum) are stepped over unread — no column decode, no
    /// body hash. A frame whose declared length overruns the container still
    /// reports [`FormatError::Truncated`].
    fn skip_frame(&mut self) -> Result<bool, FormatError> {
        if !self.at_batch_frame()? {
            return Ok(false);
        }
        let head = self.array::<32>()?;
        self.advance(u64::from(le_u32(&head, 28)) + 8)?;
        self.frames += 1;
        Ok(true)
    }

    /// Bounds-checks the next `len` bytes and steps the cursor past them.
    /// `len` may come from a not-yet-verified frame head, so nothing is
    /// sized from it before the bytes are known to exist.
    fn advance(&mut self, len: u64) -> Result<Range<usize>, FormatError> {
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| self.at.checked_add(len))
            .filter(|&end| end <= self.buffer.len())
            .ok_or(FormatError::Truncated)?;
        let start = std::mem::replace(&mut self.at, end);
        Ok(start..end)
    }

    /// Consumes the next `N` bytes by value (kind bytes, frame heads).
    fn array<const N: usize>(&mut self) -> Result<[u8; N], FormatError> {
        let range = self.advance(N as u64)?;
        let mut bytes = [0u8; N];
        bytes.copy_from_slice(&self.buffer.as_slice()[range]);
        Ok(bytes)
    }

    /// Consumes the next frame's kind byte: `Ok(true)` at a batch frame,
    /// `Ok(false)` at (or after) the validated end frame.
    fn at_batch_frame(&mut self) -> Result<bool, FormatError> {
        if self.finished {
            return Ok(false);
        }
        match self.array::<1>()?[0] {
            FRAME_END => {
                validate_end_frame(&self.array::<16>()?, self.frames)?;
                self.finished = true;
                Ok(false)
            }
            FRAME_BATCH => Ok(true),
            kind => Err(FormatError::UnknownFrame { kind }),
        }
    }
}

/// One batch frame as [`FrameWalk`] found it: the head's fields and where
/// the body lies. Nothing of the body has been read.
#[derive(Debug)]
pub struct Frame<'a> {
    container: &'a Bytes,
    index: u64,
    head: [u8; 32],
    body: Range<usize>,
    /// The checksum stored after the body.
    declared: u64,
}

impl Frame<'_> {
    /// 0-based position of the frame among the container's batch frames.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The batch's time-bin index.
    pub fn bin_index(&self) -> u64 {
        le_u64(&self.head, 0)
    }

    /// The batch's start timestamp, in microseconds.
    pub fn start_ts(&self) -> u64 {
        le_u64(&self.head, 8)
    }

    /// The batch's bin duration, in microseconds.
    pub fn duration_us(&self) -> u64 {
        le_u64(&self.head, 16)
    }

    /// The packet count the head declares (not yet checked against the
    /// body).
    pub fn packets(&self) -> u32 {
        le_u32(&self.head, 24)
    }

    /// The frame body: the packet records.
    pub fn body(&self) -> &[u8] {
        &self.container.as_slice()[self.body.clone()]
    }

    /// Whether the stored checksum matches the frame's kind, head and body.
    pub fn checksum_ok(&self) -> bool {
        frame_checksum(&self.head, self.body()) == self.declared
    }

    /// The captured payload bytes of the frame's records, read from their
    /// length fields alone; a record walk that does not end exactly at the
    /// end of the body is corruption of the frame's body.
    pub fn payload_bytes(&self) -> Result<u64, FormatError> {
        let body = self.body();
        let (mut at, mut total) = (0usize, 0u64);
        for _ in 0..self.packets() {
            let record = self.record(body, at)?;
            at += PACKET_RECORD_BYTES;
            let len = le_u32(record, 26);
            if len != NO_PAYLOAD {
                at = self.payload_end(at, len)?;
                total += u64::from(len);
            }
        }
        if at != body.len() {
            return Err(self.corrupt());
        }
        Ok(total)
    }

    /// The packet record at offset `at` of `body`, this frame's body.
    fn record<'b>(
        &self,
        body: &'b [u8],
        at: usize,
    ) -> Result<&'b [u8; PACKET_RECORD_BYTES], FormatError> {
        body.get(at..).and_then(<[u8]>::first_chunk).ok_or_else(|| self.corrupt())
    }

    /// The end of a `len`-byte payload starting at body offset `at`.
    fn payload_end(&self, at: usize, len: u32) -> Result<usize, FormatError> {
        (at.checked_add(len as usize).filter(|&end| end <= self.body.len()))
            .ok_or_else(|| self.corrupt())
    }

    /// The error for a body whose records do not fit it. The checksum is
    /// no secret, so a checksum-valid frame can still be corrupt.
    fn corrupt(&self) -> FormatError {
        FormatError::ChecksumMismatch { location: format!("frame {} body", self.index) }
    }
}

/// Decodes `.nstr` frames from a caller-held in-memory container without
/// copying packet bytes.
///
/// The whole container lives in one shared [`Bytes`] buffer (read or mapped
/// into memory once by the caller). Each frame decodes in one pass over its
/// records straight into exactly-sized [`PacketStore`] columns, and a
/// frame's payloads stay where they are: the store keeps one window onto
/// the frame body and an offset per packet, so replaying a payload-heavy
/// recording copies no payload byte and takes one reference to the
/// container per store.
///
/// The reader walks the container with a [`FrameWalk`] and verifies every
/// frame checksum before decoding the body. The container buffer stays
/// alive as long as any decoded store does — dropping the reader does not
/// invalidate batches it produced.
pub struct SharedTraceReader {
    walk: FrameWalk,
    /// First decode error, latched for the `PacketSource` adapter.
    error: Option<FormatError>,
}

impl SharedTraceReader {
    /// Validates the container header of a shared buffer.
    pub fn new(buffer: Bytes) -> Result<Self, FormatError> {
        Ok(Self { walk: FrameWalk::new(buffer)?, error: None })
    }

    /// The time-bin duration recorded in the header.
    pub fn time_bin_us(&self) -> u64 {
        self.walk.time_bin_us()
    }

    /// The first decode error hit by the [`PacketSource`] adapter, if any.
    ///
    /// `next_batch` has no error channel, so a corrupt tail latches here and
    /// the stream ends early; callers that must distinguish "clean end" from
    /// "corrupt end" check this after the run.
    pub fn error(&self) -> Option<&FormatError> {
        self.error.as_ref()
    }

    /// Decodes the next batch, `Ok(None)` at the (validated) end frame.
    pub fn read_batch(&mut self) -> Result<Option<Batch>, FormatError> {
        let Some(frame) = self.walk.next_frame()? else {
            return Ok(None);
        };
        if !frame.checksum_ok() {
            return Err(FormatError::ChecksumMismatch {
                location: format!("frame {}", frame.index()),
            });
        }
        let store = decode_store(&frame)?;
        Ok(Some(Batch::from_store(frame.bin_index(), frame.start_ts(), frame.duration_us(), store)))
    }

    /// Decodes the whole trace into a batch vector.
    pub fn read_all(mut self) -> Result<Vec<Batch>, FormatError> {
        let mut batches = Vec::new();
        while let Some(batch) = self.read_batch()? {
            batches.push(batch);
        }
        Ok(batches)
    }

    /// Decodes the whole trace into a rewindable [`BatchReplay`].
    pub fn into_replay(self) -> Result<BatchReplay, FormatError> {
        Ok(BatchReplay::new(self.read_all()?))
    }
}

/// The reader is a streaming [`PacketSource`]: decode errors end the stream
/// and latch in [`SharedTraceReader::error`].
impl PacketSource for SharedTraceReader {
    fn next_batch(&mut self) -> Option<Batch> {
        if self.error.is_some() {
            return None;
        }
        self.read_batch().unwrap_or_else(|error| {
            self.error = Some(error);
            None
        })
    }

    /// Frame-skip fast path: steps over `count` frames by their declared
    /// lengths instead of decoding and checksumming every body (the default
    /// implementation's cost on a daemon restore over a large `.nstr`).
    /// Cursor, frame counter and error latching behave exactly like `count`
    /// calls to `next_batch` that drop their result.
    fn skip_batches(&mut self, count: u64) -> u64 {
        let mut skipped = 0;
        while skipped < count && self.error.is_none() {
            match self.walk.skip_frame() {
                Ok(true) => skipped += 1,
                Ok(false) => break,
                Err(error) => self.error = Some(error),
            }
        }
        skipped
    }
}

/// Decodes a little-endian `u64` at `bytes[at..at + 8]`.
///
/// Every caller indexes a fixed-width region of a buffer it just filled, so
/// the width holds by construction; `copy_from_slice` keeps the decode
/// infallible without the `try_into().unwrap()` dance.
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(buf)
}

/// Decodes a little-endian `u32` at `bytes[at..at + 4]`.
fn le_u32(bytes: &[u8], at: usize) -> u32 {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(buf)
}

/// Decodes a little-endian `u16` at `bytes[at..at + 2]`.
fn le_u16(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([bytes[at], bytes[at + 1]])
}

/// Decodes a checksummed frame body in one pass over its records.
///
/// The head's packet count sizes every column exactly — after it has been
/// bounded by what the body can hold, because the checksum is no secret and
/// the count is attacker-chosen — and each record's fields are written
/// straight into their slots. The payload column is made at the first
/// record that carries a payload (header-only frames never make one): one
/// window onto the frame body and a span per packet. The stats are folded
/// over the finished columns.
fn decode_store(frame: &Frame<'_>) -> Result<PacketStore, FormatError> {
    let body = frame.body();
    let count = frame.packets() as usize;
    if count as u64 * PACKET_RECORD_BYTES as u64 > body.len() as u64 {
        return Err(frame.corrupt());
    }
    let mut ts = vec![0; count];
    let mut tuples = vec![FiveTuple::new(0, 0, 0, 0, 0); count];
    let mut ip_lens = vec![0; count];
    let mut tcp_flags = vec![0; count];
    let mut spans = Vec::new();
    let mut at = 0;
    let columns = ts.iter_mut().zip(&mut tuples).zip(&mut ip_lens).zip(&mut tcp_flags);
    for (packet, (((ts, tuple), ip_len), flags)) in columns.enumerate() {
        let record = frame.record(body, at)?;
        *ts = le_u64(record, 0);
        *tuple = FiveTuple::new(
            le_u32(record, 8),
            le_u32(record, 12),
            le_u16(record, 16),
            le_u16(record, 18),
            record[20],
        );
        *flags = record[21];
        *ip_len = le_u32(record, 22);
        at += PACKET_RECORD_BYTES;
        let len = le_u32(record, 26);
        if len != NO_PAYLOAD || !spans.is_empty() {
            if spans.is_empty() {
                // The first payload of the frame: the column starts here,
                // every earlier packet without one.
                spans.reserve_exact(count);
                spans.resize(packet, PayloadSpan::NONE);
            }
            spans.push(if len == NO_PAYLOAD {
                PayloadSpan::NONE
            } else {
                // The body is at most `u32::MAX` bytes long, so is `at`.
                let span = PayloadSpan::new(at as u32, len);
                at = frame.payload_end(at, len)?;
                span
            });
        }
    }
    if at != body.len() {
        return Err(frame.corrupt());
    }
    let payloads = (!spans.is_empty())
        .then(|| PayloadColumn::new(frame.container.slice(frame.body.clone()), spans));
    Ok(PacketStore::from_columns(ts, tuples, ip_lens, tcp_flags, payloads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{TraceConfig, TraceGenerator};
    use crate::source::PacketSourceExt;

    fn sample_batches(payloads: bool) -> Vec<Batch> {
        TraceGenerator::new(
            TraceConfig::default()
                .with_seed(17)
                .with_mean_packets_per_batch(40.0)
                .with_payloads(payloads),
        )
        .batches(5)
    }

    fn reader(bytes: &[u8]) -> Result<SharedTraceReader, FormatError> {
        SharedTraceReader::new(Bytes::copy_from_slice(bytes))
    }

    fn decode(bytes: &[u8]) -> Result<Vec<Batch>, FormatError> {
        decode_batches_shared(&Bytes::copy_from_slice(bytes))
    }

    /// Rewrites the end frame's batch count in place, fixing up its checksum
    /// so only the count (not the container integrity) is wrong.
    fn falsify_end_count(bytes: &mut [u8], declared: u64) {
        let end = bytes.len() - 17; // kind u8 + count u64 + checksum u64
        assert_eq!(bytes[end], 0, "end frame kind");
        bytes[end + 1..end + 9].copy_from_slice(&declared.to_le_bytes());
        let mut fnv = IncrementalFnv::new(CHECKSUM_SEED);
        fnv.write(&bytes[end..end + 9]);
        let sum = fnv.finish();
        bytes[end + 9..end + 17].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn skip_batches_fast_path_matches_the_default_cursor() {
        let batches = sample_batches(true);
        let bytes = encode_batches(&batches, 100_000).expect("encode");

        // Reference cursor: a wrapper that hides the reader's override, so
        // `skip_batches` resolves to the trait's decode-and-drop default.
        struct DefaultSkip<S>(S);
        impl<S: PacketSource> PacketSource for DefaultSkip<S> {
            fn next_batch(&mut self) -> Option<Batch> {
                self.0.next_batch()
            }
        }

        // 0 = no-op, mid-stream, exact end, past the end (shortfall).
        for skip in [0u64, 1, 3, 5, 7] {
            let mut reference = DefaultSkip(reader(&bytes).expect("header"));
            let reference_skipped = reference.skip_batches(skip);
            let reference_rest: Vec<Batch> =
                std::iter::from_fn(|| reference.next_batch()).collect();
            assert!(reference.0.error().is_none());

            let mut fast = reader(&bytes).expect("header");
            assert_eq!(fast.skip_batches(skip), reference_skipped, "skip={skip}");
            let fast_rest: Vec<Batch> = std::iter::from_fn(|| fast.next_batch()).collect();
            assert!(fast.error().is_none(), "skip={skip}");
            assert_eq!(fast_rest, reference_rest, "skip={skip}");
        }
    }

    #[test]
    fn skip_batches_reports_truncation_like_the_decode_path() {
        let batches = sample_batches(false);
        let bytes = encode_batches(&batches, 100_000).expect("encode");
        // Cut mid-body of some frame: the skip must run off the end and
        // latch `Truncated` instead of silently succeeding, after exactly
        // the frames the decoding cursor gets through.
        let cut = &bytes[..bytes.len() / 2];
        let mut skipping = reader(cut).expect("header");
        let skipped = skipping.skip_batches(u64::from(u32::MAX));
        assert!(skipped < batches.len() as u64);
        assert!(matches!(skipping.error(), Some(FormatError::Truncated)));

        let mut decoding = reader(cut).expect("header");
        let decoded = std::iter::from_fn(|| decoding.next_batch()).count() as u64;
        assert_eq!(decoded, skipped);
        assert!(matches!(decoding.error(), Some(FormatError::Truncated)));
    }

    #[test]
    fn roundtrip_is_bit_identical_with_and_without_payloads() {
        for payloads in [false, true] {
            let batches = sample_batches(payloads);
            let bytes = encode_batches(&batches, 100_000).expect("encode");
            assert_eq!(batches, decode(&bytes).expect("decode"), "payloads={payloads}");
        }
    }

    #[test]
    fn each_decoded_store_holds_one_reference_to_the_container() {
        let batches = sample_batches(true);
        let container = Bytes::from(encode_batches(&batches, 100_000).expect("encode"));
        let before = Bytes::strong_count(&container);
        let decoded = decode_batches_shared(&container).expect("decode");
        assert_eq!(batches, decoded);
        // Each live store with a payload column adds exactly one reference,
        // however many payloads it holds; a header-only one adds none.
        let with_payloads = decoded.iter().filter(|b| b.packets.has_payloads()).count();
        assert!(with_payloads > 1, "the sample trace must exercise payloads");
        assert_eq!(Bytes::strong_count(&container), before + with_payloads);

        // Every payload slice lies inside its own frame's body.
        let mut walk = FrameWalk::new(container.clone()).expect("header");
        let mut payloads = 0usize;
        for batch in &decoded {
            let frame = walk.next_frame().expect("walk").expect("a frame per batch");
            let body = frame.body().as_ptr_range();
            for packet in batch.packets.iter() {
                if let Some(payload) = packet.payload() {
                    let inside = payload.as_ptr_range();
                    assert!(body.start <= inside.start && inside.end <= body.end, "copied");
                    payloads += usize::from(!payload.is_empty());
                }
            }
        }
        assert!(payloads > 100, "only {payloads} payloads were checked");
        drop(walk);
        drop(decoded);
        assert_eq!(Bytes::strong_count(&container), before, "the stores let go");
    }

    #[test]
    fn empty_payload_and_no_payload_stay_distinct() {
        let tuple = FiveTuple::new(1, 2, 3, 4, 6);
        let batch = Batch::new(
            0,
            0,
            100_000,
            vec![
                crate::packet::Packet::header_only(1, tuple, 40, 0),
                crate::packet::Packet::with_payload(2, tuple, 40, 0, Bytes::new()),
            ],
        );
        let decoded = decode(&encode_batches(&[batch], 100_000).expect("encode")).expect("decode");
        assert_eq!(decoded[0].packets.get(0).payload(), None);
        assert_eq!(decoded[0].packets.get(1).payload(), Some(&[][..]));
    }

    #[test]
    fn empty_batches_survive_the_container() {
        let batches = vec![Batch::empty(3, 300_000, 100_000), Batch::empty(4, 400_000, 100_000)];
        let bytes = encode_batches(&batches, 100_000).expect("encode");
        assert_eq!(decode(&bytes).expect("decode"), batches);
    }

    #[test]
    fn reader_reports_the_header_time_bin() {
        let bytes = encode_batches(&[], 250_000).expect("encode");
        assert_eq!(reader(&bytes).expect("header").time_bin_us(), 250_000);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_batches(&sample_batches(false), 100_000).expect("encode");
        bytes[0] = b'X';
        assert!(matches!(reader(&bytes).err().expect("must fail"), FormatError::BadMagic { .. }));
    }

    #[test]
    fn short_garbage_reports_bad_magic_not_truncation() {
        // The magic check runs as soon as the 16 fixed header bytes are in,
        // *before* the 8-byte header checksum is read: feeding a short
        // non-`.nstr` input must say "wrong format", not "truncated trace".
        let garbage = b"not a trace at all"; // 18 bytes: fixed header fits, checksum doesn't
        assert!(matches!(reader(garbage).err().expect("must fail"), FormatError::BadMagic { .. }));
        // Shorter than the magic itself: truncation is the honest answer.
        assert!(matches!(reader(&garbage[..3]).err().expect("must fail"), FormatError::Truncated));
    }

    #[test]
    fn version_skew_is_rejected_in_both_directions() {
        // v2 changed the frame checksum algorithm, so an older container is
        // as undecodable as a newer one — the version check is exact.
        for skewed in [TRACE_FORMAT_VERSION + 1, TRACE_FORMAT_VERSION - 1] {
            let mut bytes = encode_batches(&[], 100_000).expect("encode");
            bytes[4..6].copy_from_slice(&skewed.to_le_bytes());
            let err = reader(&bytes).err().expect("must fail");
            assert!(matches!(
                err,
                FormatError::UnsupportedVersion { found, expected }
                    if found == skewed && expected == TRACE_FORMAT_VERSION
            ));
            // The message must diagnose the skew, not just detect it: both
            // the found and the supported version are spelled out.
            let message = err.to_string();
            assert!(message.contains(&skewed.to_string()), "message lacks found version");
            assert!(
                message.contains(&TRACE_FORMAT_VERSION.to_string()),
                "message lacks expected version"
            );
        }
    }

    #[test]
    fn header_corruption_fails_the_header_checksum() {
        let mut bytes = encode_batches(&[], 100_000).expect("encode");
        bytes[9] ^= 0xff; // inside time_bin_us
        assert!(matches!(
            reader(&bytes).err().expect("must fail"),
            FormatError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn flipping_any_frame_byte_is_detected() {
        let batches = sample_batches(false);
        let clean = encode_batches(&batches, 100_000).expect("encode");
        // Flip a byte inside the first frame body (past the 24-byte header).
        let mut corrupt = clean.clone();
        corrupt[24 + 40] ^= 0x01;
        let error = decode(&corrupt).expect_err("corruption must be detected");
        assert!(
            matches!(error, FormatError::ChecksumMismatch { .. }),
            "got {error:?} instead of a checksum mismatch"
        );
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        // Exhaustive corruption sweep: every byte of the container is
        // covered by the header, a frame, or the end-frame checksum, so any
        // single-bit flip must surface as *some* FormatError — never as a
        // silently different batch stream.
        let batches = sample_batches(true).into_iter().take(2).collect::<Vec<_>>();
        let clean = encode_batches(&batches, 100_000).expect("encode");
        for at in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[at] ^= 0x01;
            assert!(decode(&corrupt).is_err(), "flip at byte {at} went undetected");
        }
    }

    #[test]
    fn hostile_packet_count_is_corruption_not_an_allocation() {
        // 65 bytes: a header plus one batch frame claiming u32::MAX packets
        // in an empty body, under a *valid* checksum (FNV + `hash_block` is
        // no secret). Sizing the columns for the claim would ask for 34 GB
        // and abort the process; the count must be checked against the body
        // first, before anything is allocated.
        let mut bytes = encode_batches(&[], 100_000).expect("encode");
        bytes.truncate(24);
        let mut head = [0u8; 32];
        head[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes.push(FRAME_BATCH);
        bytes.extend_from_slice(&head);
        bytes.extend_from_slice(&frame_checksum(&head, &[]).to_le_bytes());
        assert_eq!(bytes.len(), 65);

        let expect_body_corruption = |error: &FormatError| match error {
            FormatError::ChecksumMismatch { location } => assert_eq!(location, "frame 0 body"),
            other => panic!("expected frame-body corruption, got {other:?}"),
        };
        expect_body_corruption(&decode(&bytes).expect_err("decode"));
        // The streaming adapter latches the same error instead of dying.
        let mut streamed = reader(&bytes).expect("header");
        assert!(streamed.next_batch().is_none());
        expect_body_corruption(streamed.error().expect("latched"));
    }

    #[test]
    fn every_strict_prefix_truncation_errors() {
        let batches = sample_batches(true).into_iter().take(2).collect::<Vec<_>>();
        let clean = encode_batches(&batches, 100_000).expect("encode");
        for len in 0..clean.len() {
            assert!(decode(&clean[..len]).is_err(), "prefix of {len} bytes decoded cleanly");
        }
    }

    #[test]
    fn truncated_traces_are_detected() {
        let bytes = encode_batches(&sample_batches(false), 100_000).expect("encode");
        // Drop the end frame (and a bit more).
        let cut = &bytes[..bytes.len() - 20];
        assert!(matches!(
            decode(cut).expect_err("must fail"),
            FormatError::Truncated | FormatError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn end_frame_count_mismatch_is_detected() {
        let batches = sample_batches(false);
        let mut bytes = encode_batches(&batches, 100_000).expect("encode");
        falsify_end_count(&mut bytes, batches.len() as u64 + 2);
        match decode(&bytes).expect_err("must fail") {
            FormatError::CountMismatch { declared, decoded } => {
                assert_eq!(declared, batches.len() as u64 + 2);
                assert_eq!(decoded, batches.len() as u64);
            }
            other => panic!("expected CountMismatch, got {other:?}"),
        }
    }

    #[test]
    fn end_frame_checksum_corruption_is_detected() {
        let mut bytes = encode_batches(&sample_batches(false), 100_000).expect("encode");
        let last = bytes.len() - 1; // inside the end frame's checksum
        bytes[last] ^= 0xff;
        match decode(&bytes).expect_err("must fail") {
            FormatError::ChecksumMismatch { location } => assert_eq!(location, "end frame"),
            other => panic!("expected an end-frame checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn reader_is_a_packet_source_and_latches_the_right_error() {
        let batches = sample_batches(true);
        let bytes = encode_batches(&batches, 100_000).expect("encode");
        let mut source = reader(&bytes).expect("header").take_batches(3);
        assert_eq!(std::iter::from_fn(|| source.next_batch()).count(), 3);

        // A truncated stream ends early and reports why. Cut past the end
        // frame (17 bytes) and into the last batch frame's checksum.
        let mut truncated = reader(&bytes[..bytes.len() - 25]).expect("header survives");
        let decoded = std::iter::from_fn(|| truncated.next_batch()).count();
        assert_eq!(decoded, batches.len() - 1);
        assert!(matches!(truncated.error(), Some(FormatError::Truncated)));

        // A bad end frame latches only after every frame decoded.
        let mut miscounted = bytes;
        falsify_end_count(&mut miscounted, 0);
        let mut miscounted = reader(&miscounted).expect("header");
        let decoded = std::iter::from_fn(|| miscounted.next_batch()).count();
        assert_eq!(decoded, batches.len(), "all frames decode before the bad end frame");
        assert!(
            matches!(miscounted.error(), Some(FormatError::CountMismatch { .. })),
            "the count mismatch must latch, got {:?}",
            miscounted.error()
        );
    }

    #[test]
    fn into_replay_rewinds_the_recording() {
        let batches = sample_batches(false);
        let bytes = encode_batches(&batches, 100_000).expect("encode");
        let mut replay = reader(&bytes).expect("header").into_replay().expect("decode");
        assert_eq!(replay.len(), batches.len());
        let first: Vec<u64> =
            std::iter::from_fn(|| replay.next_batch()).map(|b| b.bin_index).collect();
        replay.reset();
        let second: Vec<u64> =
            std::iter::from_fn(|| replay.next_batch()).map(|b| b.bin_index).collect();
        assert_eq!(first, second);
    }
}
