//! Snapshot image format: a section-structured, checksummed, versioned
//! byte buffer that every `EngineSnapshot` component serializes into.
//!
//! The format is deliberately boring — all scalars little-endian, all
//! lengths explicit, one checksum over the whole body — so that a reopened
//! file either parses into exactly the bytes that were saved or fails
//! with a typed [`StorageError`]. There is **no `unsafe` anywhere in
//! this crate**: section views are plain `&[u8]` slices and every typed
//! read goes through [`ByteReader`]'s bounds-checked accessors, so a
//! corrupt or truncated file can produce an error but never undefined
//! behavior.
//!
//! ## File layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"CLASNAP\0"
//! 8       4     format version (u32 LE)            — currently 2
//! 12      4     checksum of everything below       — u32 LE
//!               ([`image_checksum`], xxHash-style multiply-mix)
//! 16      4     section count N (u32 LE)
//! 20      20*N  section table: (id u32, offset u64, len u64) LE
//! ...           section payloads (offsets are absolute file offsets)
//! ```
//!
//! Versioning policy: the version is bumped whenever any section's
//! encoding changes shape; readers reject any version other than their
//! own ([`FORMAT_VERSION`]) rather than guessing. Unknown section ids
//! are ignored by readers (forward-compatible additions within a
//! version are allowed as *new* sections only).

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// First eight bytes of every snapshot image.
pub const MAGIC: [u8; 8] = *b"CLASNAP\0";

/// Current on-disk format version. Bump on any encoding change.
/// Version 2 restructured the index and alias sections into
/// arena + bounds form addressable in place, added the node-map
/// section, and replaced the CRC-32 body checksum with the faster
/// [`image_checksum`] mix — together enabling zero-copy open.
/// Version 3 stopped storing derived state: the CSR and per-edge
/// cardinality sections are gone, and graph records keep no fk roles
/// or middle flags. Version 4 dropped the node-map section: an open
/// derives the tuple→node index from the graph's node slots.
pub const FORMAT_VERSION: u32 = 4;

const HEADER_LEN: usize = 8 + 4 + 4 + 4;
const SECTION_ENTRY_LEN: usize = 4 + 8 + 8;

/// Typed failure modes for snapshot save/open. Every corrupt input maps
/// to one of these — decoding never panics and never produces UB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Underlying filesystem failure. The original [`std::io::ErrorKind`]
    /// is preserved so callers can distinguish a missing file from, say,
    /// a permission error without parsing the message.
    Io { kind: std::io::ErrorKind, message: String },
    /// The buffer ended before a read of `expected` more bytes.
    Truncated { expected: usize, available: usize },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not the one this build reads.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The body bytes do not hash to the stored checksum.
    ChecksumMismatch { stored: u32, computed: u32 },
    /// A section the decoder requires is absent from the image.
    MissingSection(u32),
    /// The same section id appears twice in the table.
    DuplicateSection(u32),
    /// Structurally invalid content (bad offsets, bad UTF-8, an index
    /// out of range, a count that contradicts the payload, ...).
    Malformed(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { message, .. } => write!(f, "snapshot i/o error: {message}"),
            StorageError::Truncated { expected, available } => write!(
                f,
                "snapshot truncated: needed {expected} more bytes, {available} available"
            ),
            StorageError::BadMagic => write!(f, "not a snapshot image (bad magic)"),
            StorageError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {supported})"
            ),
            StorageError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            StorageError::MissingSection(id) => {
                write!(f, "snapshot is missing required section {id}")
            }
            StorageError::DuplicateSection(id) => {
                write!(f, "snapshot section {id} appears more than once")
            }
            StorageError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io { kind: e.kind(), message: e.to_string() }
    }
}

/// Whole-image checksum: an xxHash-style four-lane multiply-rotate mix
/// over 64-bit words, folded to 32 bits for the header slot. The open
/// path hashes the entire image body before trusting a byte of it, so
/// checksum throughput is a direct term in cold start. A table-driven
/// CRC-32 tops out at the L1-resident lookup ceiling (~2 GB/s here —
/// still a quarter of a dept64 open), while the multiply form streams
/// near memory speed in safe, portable Rust; framing with an
/// xxHash-family mix instead of CRC is the same trade LZ4 and zstd
/// make. This guards against corruption and truncation, not
/// adversaries — nothing here is cryptographic.
pub fn image_checksum(bytes: &[u8]) -> u32 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    const P4: u64 = 0x85eb_ca77_c2b2_ae63;

    /// One lane step: absorb eight bytes, multiply, rotate. The three
    /// independent sibling lanes hide this chain's latency.
    #[inline]
    fn round(lane: u64, word: u64) -> u64 {
        lane.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
    }

    #[inline]
    fn word(c: &[u8]) -> u64 {
        u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])
    }

    let (mut l0, mut l1, mut l2, mut l3) = (P1, P2, P3, P4);
    let mut chunks = bytes.chunks_exact(32);
    for c in &mut chunks {
        l0 = round(l0, word(&c[0..8]));
        l1 = round(l1, word(&c[8..16]));
        l2 = round(l2, word(&c[16..24]));
        l3 = round(l3, word(&c[24..32]));
    }
    let mut acc = l0
        .rotate_left(1)
        .wrapping_add(l1.rotate_left(7))
        .wrapping_add(l2.rotate_left(12))
        .wrapping_add(l3.rotate_left(18));
    // Length participates so that images differing only by trailing
    // truncation at a 32-byte boundary still diverge.
    acc ^= bytes.len() as u64;
    for &b in chunks.remainder() {
        acc =
            acc.wrapping_add(u64::from(b).wrapping_mul(P3)).rotate_left(11).wrapping_mul(P1);
    }
    // Final avalanche, then fold the halves into the 32-bit header slot.
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(P2);
    acc ^= acc >> 29;
    acc = acc.wrapping_mul(P3);
    acc ^= acc >> 32;
    (acc as u32) ^ ((acc >> 32) as u32)
}

/// Little-endian append-only byte sink used by every section encoder.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Floats are stored as their IEEE-754 bit pattern, so NaNs and
    /// signed zeros round-trip exactly.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A `usize` count. All in-memory collections in this workspace are
    /// u32-indexed (tuple rows, node ids, term ids), so a count that
    /// does not fit u32 is a logic error, not a data condition.
    pub fn len(&mut self, v: usize) {
        let v = u32::try_from(v).expect("collection length exceeds u32"); // lint: allow(unwrap, all indices in this workspace are u32)
        self.u32(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.len(b.len());
        self.buf.extend_from_slice(b);
    }

    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian reader over a section payload. Every
/// accessor returns `Err(Truncated)` instead of slicing past the end,
/// which is what makes arbitrary corrupt input safe to feed through the
/// decoders.
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Byte offset of the read cursor from the start of the payload.
    /// Lets a decoder note where a sub-range began so it can keep a
    /// [`SharedBytes`] view over it instead of copying.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        if self.remaining() < n {
            return Err(StorageError::Truncated { expected: n, available: self.remaining() });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, StorageError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StorageError::Malformed(format!("bool byte {other}"))),
        }
    }

    pub fn u32(&mut self) -> Result<u32, StorageError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, StorageError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    pub fn i64(&mut self) -> Result<i64, StorageError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    pub fn f64(&mut self) -> Result<f64, StorageError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A count written by [`ByteWriter::len`]. Also guards against
    /// resource-exhaustion corruption: the count can never exceed the
    /// bytes still available (every element is at least one byte), so a
    /// flipped length field fails fast instead of provoking a huge
    /// `Vec::with_capacity`.
    // Not a container length — this *reads* a count field from the
    // stream, so `is_empty` has no meaning here.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, StorageError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(StorageError::Truncated { expected: n, available: self.remaining() });
        }
        Ok(n)
    }

    /// A count of multi-byte elements; `min_elem_len` tightens the
    /// exhaustion guard for decoders that reserve capacity up front.
    pub fn len_of(&mut self, min_elem_len: usize) -> Result<usize, StorageError> {
        let n = self.u32()? as usize;
        let need = n.saturating_mul(min_elem_len.max(1));
        if need > self.remaining() {
            return Err(StorageError::Truncated {
                expected: need,
                available: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Length-prefixed UTF-8 string, borrowed from the underlying
    /// buffer. Use this on validate-only passes or when the caller can
    /// hold the borrow — no copy is made.
    pub fn str_view(&mut self) -> Result<&'a str, StorageError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes)
            .map_err(|_| StorageError::Malformed("invalid UTF-8 in string".into()))
    }

    /// Length-prefixed UTF-8 string, copied into an owned `String`.
    pub fn str(&mut self) -> Result<String, StorageError> {
        Ok(self.str_view()?.to_owned())
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], StorageError> {
        let n = self.len()?;
        self.take(n)
    }

    /// Exactly `n` raw bytes, borrowed — the bulk form of the typed
    /// accessors. Decoders reading fixed-stride arrays grab the whole
    /// region once and iterate it with `chunks_exact`, which compiles
    /// to a straight-line loop instead of per-element cursor
    /// bookkeeping (the constant factor that dominates cold open).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        self.take(n)
    }

    /// Assert the payload was consumed exactly — trailing garbage in a
    /// section is corruption, not slack.
    pub fn finish(self) -> Result<(), StorageError> {
        if self.remaining() != 0 {
            return Err(StorageError::Malformed(format!(
                "{} trailing bytes after section payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Accumulates `(section id, payload)` pairs and serializes them into
/// one checksummed image.
#[derive(Default)]
pub struct ImageBuilder {
    sections: Vec<(u32, Vec<u8>)>,
}

impl ImageBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a section. Ids must be unique within one image; a
    /// duplicate is a programming error and panics at build time (it
    /// could never round-trip, since readers address sections by id).
    pub fn section(&mut self, id: u32, payload: Vec<u8>) -> &mut Self {
        assert!(
            self.sections.iter().all(|(existing, _)| *existing != id),
            "duplicate section id {id}"
        );
        self.sections.push((id, payload));
        self
    }

    /// Serialize the image into its final byte form.
    pub fn finish(&self) -> Vec<u8> {
        let table_len = self.sections.len() * SECTION_ENTRY_LEN;
        let payload_len: usize = self.sections.iter().map(|(_, p)| p.len()).sum();
        let mut out = Vec::with_capacity(HEADER_LEN + table_len + payload_len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // checksum patched below
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let mut offset = (HEADER_LEN + table_len) as u64;
        for (id, payload) in &self.sections {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            offset += payload.len() as u64;
        }
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        let sum = image_checksum(&out[HEADER_LEN - 4..]);
        out[12..16].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Serialize and write atomically-enough for a snapshot: the bytes
    /// land in a `.tmp` sibling first and are renamed into place, so a
    /// crash mid-write never leaves a half image under the final name.
    pub fn write_to(&self, path: &Path) -> Result<(), StorageError> {
        let bytes = self.finish();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}

/// Compare an image's stored checksum against the recomputed body hash.
/// Callers have already established `data.len() >= HEADER_LEN`.
fn check_crc(data: &[u8]) -> Result<(), StorageError> {
    let stored = u32::from_le_bytes([data[12], data[13], data[14], data[15]]);
    let computed = image_checksum(&data[HEADER_LEN - 4..]);
    if stored != computed {
        return Err(StorageError::ChecksumMismatch { stored, computed });
    }
    Ok(())
}

/// A parsed snapshot image: validated header + section table over the
/// raw bytes. Section payloads are borrowed slices of the one buffer —
/// no per-section copy.
#[derive(Debug)]
pub struct SnapshotImage {
    data: Vec<u8>,
    sections: Vec<(u32, Range<usize>)>,
}

impl SnapshotImage {
    /// Read and parse an image file.
    pub fn open(path: &Path) -> Result<Self, StorageError> {
        Self::parse(std::fs::read(path)?)
    }

    /// Validate magic, version, checksum, and section table. All
    /// offsets are bounds-checked here, so [`SnapshotImage::section`]
    /// can slice without further checks.
    pub fn parse(data: Vec<u8>) -> Result<Self, StorageError> {
        Self::parse_inner(data, true)
    }

    /// [`SnapshotImage::parse`] with the whole-body checksum pass
    /// **deferred**: magic, version, and the bounds-validated section
    /// table are checked here, but the checksum is not computed. The caller
    /// must run [`SharedImage::verify_checksum`] before reporting the
    /// open as successful — the zero-copy open path overlaps that pass
    /// with the section decodes (each of which already treats its bytes
    /// as hostile), then gives the checksum verdict precedence over any
    /// decode error, so the observable errors match the eager form.
    pub fn parse_deferred(data: Vec<u8>) -> Result<Self, StorageError> {
        Self::parse_inner(data, false)
    }

    fn parse_inner(data: Vec<u8>, eager_crc: bool) -> Result<Self, StorageError> {
        if data.len() < HEADER_LEN {
            return Err(StorageError::Truncated {
                expected: HEADER_LEN,
                available: data.len(),
            });
        }
        if data[..8] != MAGIC {
            return Err(StorageError::BadMagic);
        }
        let version = u32::from_le_bytes([data[8], data[9], data[10], data[11]]);
        if version != FORMAT_VERSION {
            return Err(StorageError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        if eager_crc {
            check_crc(&data)?;
        }
        Self::parse_table(&data)
            .map_err(|e| {
                // The deferred form must still report corruption the same
                // way the eager one does: a broken section table on a
                // checksum-failing image is a checksum mismatch first.
                if eager_crc {
                    e
                } else {
                    check_crc(&data).err().unwrap_or(e)
                }
            })
            .map(|sections| Self { data, sections })
    }

    fn parse_table(data: &[u8]) -> Result<Vec<(u32, Range<usize>)>, StorageError> {
        let count = u32::from_le_bytes([data[16], data[17], data[18], data[19]]) as usize;
        let table_end =
            HEADER_LEN
                .checked_add(count.checked_mul(SECTION_ENTRY_LEN).ok_or_else(|| {
                    StorageError::Malformed("section count overflows".into())
                })?)
                .ok_or_else(|| StorageError::Malformed("section table overflows".into()))?;
        if table_end > data.len() {
            return Err(StorageError::Truncated {
                expected: table_end,
                available: data.len(),
            });
        }
        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let base = HEADER_LEN + i * SECTION_ENTRY_LEN;
            let id = u32::from_le_bytes([
                data[base],
                data[base + 1],
                data[base + 2],
                data[base + 3],
            ]);
            let off = u64::from_le_bytes([
                data[base + 4],
                data[base + 5],
                data[base + 6],
                data[base + 7],
                data[base + 8],
                data[base + 9],
                data[base + 10],
                data[base + 11],
            ]);
            let len = u64::from_le_bytes([
                data[base + 12],
                data[base + 13],
                data[base + 14],
                data[base + 15],
                data[base + 16],
                data[base + 17],
                data[base + 18],
                data[base + 19],
            ]);
            let (off, len) = (
                usize::try_from(off)
                    .map_err(|_| StorageError::Malformed(format!("section {id} offset")))?,
                usize::try_from(len)
                    .map_err(|_| StorageError::Malformed(format!("section {id} length")))?,
            );
            let end = off.checked_add(len).ok_or_else(|| {
                StorageError::Malformed(format!("section {id} range overflows"))
            })?;
            if off < table_end || end > data.len() {
                return Err(StorageError::Malformed(format!(
                    "section {id} range {off}..{end} outside payload area {table_end}..{}",
                    data.len()
                )));
            }
            if sections.iter().any(|(existing, _)| *existing == id) {
                return Err(StorageError::DuplicateSection(id));
            }
            sections.push((id, off..end));
        }
        Ok(sections)
    }

    /// Borrow a required section's payload.
    pub fn section(&self, id: u32) -> Result<&[u8], StorageError> {
        self.sections
            .iter()
            .find(|(sid, _)| *sid == id)
            .map(|(_, range)| &self.data[range.clone()])
            .ok_or(StorageError::MissingSection(id))
    }

    /// All section ids present, in table order.
    pub fn section_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.sections.iter().map(|(id, _)| *id)
    }

    /// Convert into a reference-counted image whose sections can be
    /// held as cheap [`SharedBytes`] views for the life of an opened
    /// engine. The buffer is shared, never re-copied.
    pub fn into_shared(self) -> SharedImage {
        SharedImage { data: Arc::new(self.data), sections: self.sections }
    }
}

/// A parsed snapshot image behind an `Arc`: the zero-copy open path
/// holds the whole file buffer once and hands out [`SharedBytes`]
/// section views that keep it alive. Cloning a view is two pointer
/// copies, not a byte copy.
#[derive(Debug, Clone)]
pub struct SharedImage {
    data: Arc<Vec<u8>>,
    sections: Vec<(u32, Range<usize>)>,
}

impl SharedImage {
    /// Recompute the whole-body checksum and compare it against the stored
    /// header field. A no-op discovery for images from
    /// [`SnapshotImage::parse`]; the required completion step for
    /// [`SnapshotImage::parse_deferred`], where the open path runs it
    /// concurrently with the section decodes.
    pub fn verify_checksum(&self) -> Result<(), StorageError> {
        check_crc(&self.data)
    }

    /// A required section's payload as a shared view.
    pub fn section(&self, id: u32) -> Result<SharedBytes, StorageError> {
        self.sections
            .iter()
            .find(|(sid, _)| *sid == id)
            .map(|(_, range)| SharedBytes {
                data: Arc::clone(&self.data),
                range: range.clone(),
            })
            .ok_or(StorageError::MissingSection(id))
    }

    /// All section ids present, in table order.
    pub fn section_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.sections.iter().map(|(id, _)| *id)
    }
}

/// A reference-counted byte range: an `Arc`'d buffer plus the window
/// this view exposes. This is the safe-Rust zero-copy primitive — no
/// lifetimes escape, no `unsafe`, and every sub-slice operation is
/// bounds-checked with a typed error.
#[derive(Clone)]
pub struct SharedBytes {
    data: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl SharedBytes {
    /// Wrap an owned buffer (used by tests and by encoders that build
    /// a section in memory before validating it through a decoder).
    pub fn from_vec(data: Vec<u8>) -> Self {
        let range = 0..data.len();
        Self { data: Arc::new(data), range }
    }

    /// An empty view (the backing for freshly built, image-less state).
    pub fn empty() -> Self {
        Self::from_vec(Vec::new())
    }

    pub fn len(&self) -> usize {
        self.range.len()
    }

    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.range.clone()]
    }

    /// Narrow this view to `sub` (relative to this view's start).
    /// Out-of-range requests are data errors, not panics.
    pub fn slice(&self, sub: Range<usize>) -> Result<SharedBytes, StorageError> {
        if sub.start > sub.end || sub.end > self.len() {
            return Err(StorageError::Malformed(format!(
                "sub-range {}..{} outside view of {} bytes",
                sub.start,
                sub.end,
                self.len()
            )));
        }
        Ok(SharedBytes {
            data: Arc::clone(&self.data),
            range: self.range.start + sub.start..self.range.start + sub.end,
        })
    }

    /// A fixed-width record view: bytes `[i*width, (i+1)*width)`, or
    /// `None` when `i` is out of range. Never panics — callers decide
    /// whether `None` is a typed error or a lookup miss.
    pub fn record(&self, i: usize, width: usize) -> Option<&[u8]> {
        let start = i.checked_mul(width)?;
        let end = start.checked_add(width)?;
        self.as_slice().get(start..end)
    }
}

impl std::ops::Deref for SharedBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedBytes({} bytes)", self.len())
    }
}

/// The backing for a string arena: either an owned buffer (a built or
/// promoted structure) or a shared view over the snapshot image (a
/// freshly opened, unmutated structure). Accessors are identical in
/// both cases; only the first write to the owning structure swaps
/// `Shared` for `Owned`, and searches never observe the difference.
///
/// The `Shared` arm stores raw bytes, so slice boundaries are
/// re-checked for UTF-8 validity on access; decoders are expected to
/// have validated every slice once up front, making `get` misses after
/// validation a corruption signal, not a normal path.
#[derive(Clone)]
pub enum StrArena {
    Owned(String),
    Shared(SharedBytes),
}

impl StrArena {
    pub fn empty() -> Self {
        StrArena::Owned(String::new())
    }

    pub fn len(&self) -> usize {
        match self {
            StrArena::Owned(s) => s.len(),
            StrArena::Shared(b) => b.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn as_bytes(&self) -> &[u8] {
        match self {
            StrArena::Owned(s) => s.as_bytes(),
            StrArena::Shared(b) => b.as_slice(),
        }
    }

    /// The string at byte range `lo..hi`, or `None` when the range is
    /// out of bounds or does not hold valid UTF-8 at those boundaries.
    /// The `Shared` arm validates the slice on access (slices here are
    /// short — terms and aliases — so this is nanoseconds); the `Owned`
    /// arm only checks `char` boundaries.
    pub fn get(&self, lo: u32, hi: u32) -> Option<&str> {
        let (lo, hi) = (lo as usize, hi as usize);
        match self {
            StrArena::Owned(s) => s.get(lo..hi),
            StrArena::Shared(b) => std::str::from_utf8(b.as_slice().get(lo..hi)?).ok(),
        }
    }
}

impl fmt::Debug for StrArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrArena::Owned(s) => write!(f, "StrArena::Owned({} bytes)", s.len()),
            StrArena::Shared(b) => write!(f, "StrArena::Shared({} bytes)", b.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut b = ImageBuilder::new();
        b.section(1, vec![1, 2, 3]).section(7, vec![]).section(2, b"hello".to_vec());
        b.finish()
    }

    #[test]
    fn round_trips_sections() {
        let img = SnapshotImage::parse(sample()).unwrap();
        assert_eq!(img.section(1).unwrap(), &[1, 2, 3]);
        assert_eq!(img.section(7).unwrap(), &[] as &[u8]);
        assert_eq!(img.section(2).unwrap(), b"hello");
        assert_eq!(img.section_ids().collect::<Vec<_>>(), vec![1, 7, 2]);
        assert!(matches!(img.section(9), Err(StorageError::MissingSection(9))));
    }

    #[test]
    fn image_checksum_is_pinned() {
        // Pinned outputs: any change to the mix silently invalidates
        // every saved image, so an accidental tweak must fail loudly
        // here rather than in a cold-open integration test. The 100-byte
        // vector exercises the four-lane loop plus a remainder tail; the
        // short ones exercise the remainder-only path and the seed.
        let long: Vec<u8> = (0u8..100).collect();
        assert_eq!(image_checksum(&long), 0xccbb_5b9b);
        assert_eq!(image_checksum(b"123456789"), 0x426f_249f);
        assert_eq!(image_checksum(b""), 0xd515_7bc0);
        // Truncating at the 32-byte lane boundary must still change the
        // hash (the length fold), as must a single flipped bit.
        assert_ne!(image_checksum(&long[..64]), image_checksum(&long[..32]));
        let mut flipped = long.clone();
        flipped[50] ^= 0x01;
        assert_ne!(image_checksum(&flipped), image_checksum(&long));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample();
        bytes[0] ^= 0xff;
        assert!(matches!(SnapshotImage::parse(bytes), Err(StorageError::BadMagic)));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = sample();
        bytes[8] = 99;
        // The checksum covers the body only, so a header version flip
        // surfaces as UnsupportedVersion, not a checksum failure.
        assert!(matches!(
            SnapshotImage::parse(bytes),
            Err(StorageError::UnsupportedVersion { found: 99, supported: FORMAT_VERSION })
        ));
    }

    #[test]
    fn rejects_flipped_body_byte() {
        let mut bytes = sample();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            SnapshotImage::parse(bytes),
            Err(StorageError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn rejects_any_truncation() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let err = SnapshotImage::parse(bytes[..cut].to_vec()).unwrap_err();
            assert!(
                matches!(
                    err,
                    StorageError::Truncated { .. }
                        | StorageError::ChecksumMismatch { .. }
                        | StorageError::Malformed(_)
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn reader_round_trips_scalars() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.f64(f64::NAN);
        w.str("héllo");
        w.bytes(&[9, 9]);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), &[9, 9]);
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_overrun_and_trailing() {
        let mut r = ByteReader::new(&[1, 0]);
        assert!(matches!(r.u32(), Err(StorageError::Truncated { .. })));
        let buf = [1u8, 2, 3];
        let mut r = ByteReader::new(&buf);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn reader_rejects_hostile_length_prefix() {
        // A length prefix claiming 4 GiB must fail fast, not allocate.
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.len(), Err(StorageError::Truncated { .. })));
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.str(), Err(StorageError::Truncated { .. })));
    }

    #[test]
    fn rejects_bad_utf8() {
        let mut w = ByteWriter::new();
        w.bytes(&[0xff, 0xfe]);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.str(), Err(StorageError::Malformed(_))));
    }

    #[test]
    fn rejects_out_of_range_section_offset() {
        let mut bytes = sample();
        // Point section 0's offset past the end of the file, then
        // re-stamp the checksum so only the table corruption is visible.
        let huge = (bytes.len() as u64 + 100).to_le_bytes();
        bytes[24..32].copy_from_slice(&huge);
        let sum = image_checksum(&bytes[HEADER_LEN - 4..]).to_le_bytes();
        bytes[12..16].copy_from_slice(&sum);
        assert!(matches!(SnapshotImage::parse(bytes), Err(StorageError::Malformed(_))));
    }

    #[test]
    fn open_missing_file_reports_not_found_kind() {
        let path = std::env::temp_dir().join("cla_storage_no_such_file.snap");
        let _ = std::fs::remove_file(&path);
        match SnapshotImage::open(&path) {
            Err(StorageError::Io { kind, .. }) => {
                assert_eq!(kind, std::io::ErrorKind::NotFound)
            }
            other => panic!("expected Io {{ NotFound }}, got {other:?}"),
        }
    }

    #[test]
    fn str_view_borrows_and_matches_owned() {
        let mut w = ByteWriter::new();
        w.str("héllo");
        w.str("world");
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.str_view().unwrap(), "héllo");
        assert_eq!(r.str().unwrap(), "world");
        r.finish().unwrap();
    }

    #[test]
    fn shared_bytes_rejects_out_of_bounds() {
        let b = SharedBytes::from_vec(vec![1, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        let mid = b.slice(1..4).unwrap();
        assert_eq!(mid.as_slice(), &[2, 3, 4]);
        // Sub-slices are relative to the view, not the backing buffer.
        assert_eq!(mid.slice(1..2).unwrap().as_slice(), &[3]);
        assert!(matches!(b.slice(2..6), Err(StorageError::Malformed(_))));
        assert!(matches!(mid.slice(0..4), Err(StorageError::Malformed(_))));
        #[allow(clippy::reversed_empty_ranges)]
        {
            assert!(matches!(b.slice(3..2), Err(StorageError::Malformed(_))));
        }
        assert_eq!(b.record(1, 2), Some(&[3u8, 4][..]));
        assert_eq!(b.record(2, 2), None, "record straddling the end is a miss");
        assert_eq!(b.record(usize::MAX, 2), None, "index overflow is a miss, not a panic");
    }

    #[test]
    fn shared_image_sections_match_borrowed_sections() {
        let img = SnapshotImage::parse(sample()).unwrap();
        let shared = SnapshotImage::parse(sample()).unwrap().into_shared();
        for id in [1u32, 7, 2] {
            assert_eq!(shared.section(id).unwrap().as_slice(), img.section(id).unwrap());
        }
        assert!(matches!(shared.section(9), Err(StorageError::MissingSection(9))));
        assert_eq!(shared.section_ids().collect::<Vec<_>>(), vec![1, 7, 2]);
    }

    #[test]
    fn str_arena_owned_and_shared_agree() {
        let text = "abcdéf";
        let owned = StrArena::Owned(text.to_string());
        let shared = StrArena::Shared(SharedBytes::from_vec(text.as_bytes().to_vec()));
        for arena in [&owned, &shared] {
            assert_eq!(arena.len(), text.len());
            assert_eq!(arena.get(0, 3), Some("abc"));
            assert_eq!(arena.get(4, 6), Some("é"));
            assert_eq!(arena.get(4, 5), None, "split UTF-8 boundary is a miss");
            assert_eq!(arena.get(0, 99), None, "out of bounds is a miss, never a panic");
            assert_eq!(arena.get(5, 3), None, "inverted range is a miss");
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("cla_storage_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("img.snap");
        let mut b = ImageBuilder::new();
        b.section(3, vec![42; 1000]);
        b.write_to(&path).unwrap();
        let img = SnapshotImage::open(&path).unwrap();
        assert_eq!(img.section(3).unwrap(), &[42u8; 1000][..]);
        std::fs::remove_file(&path).unwrap();
    }
}
