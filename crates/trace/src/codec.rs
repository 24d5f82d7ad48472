//! On-disk trace corpus: a compact, checksummed binary encoding of a traced run.
//!
//! Every experiment so far regenerated its traces live, so replay throughput was gated
//! by application generation cost (tree builds, force sweeps) instead of memory
//! bandwidth.  A *corpus* inverts that: record a run once through a [`CorpusWriter`]
//! (itself a [`TraceSink`], so any traced path can feed it), then replay it any number
//! of times through a [`CorpusReader`] into any other sink — the simulator, the DSM
//! reduction, a [`crate::TraceBuilder`] — at decode bandwidth.
//!
//! # Wire format
//!
//! ```text
//! corpus   := magic "SMTC" | version u16 LE | header | block* | end-block
//! header   := num_procs varint | num_objects varint | object_size varint
//!           | base_offset varint
//! block    := access-block | lock-block | barrier-block
//! access   := 0x01 | proc varint | interval varint | count varint
//!           | payload_len varint | checksum u32 LE | payload
//! payload  := kind-runs | deltas          (exactly payload_len bytes, checksummed)
//! kind-runs:= varint*        alternating run lengths, reads first, summing to count
//! deltas   := varint*        zig-zag of obj[i] - obj[i-1], count entries, prev = 0
//! lock     := 0x02 | proc varint | count varint
//! barrier  := 0x03
//! end      := 0x00
//! ```
//!
//! All integers are LEB128 varints ([`wire`]).  Object indices within one block are
//! delta-encoded against the previous index in the *same* block (the irregular apps
//! revisit nearby objects, so deltas are small — typically one byte instead of the four
//! a packed [`Access`] occupies), and the read/write kind bits are run-length packed
//! separately (accesses cluster into long read runs punctuated by write bursts).  A
//! processor's interval stream larger than [`MAX_BLOCK_ACCESSES`] is split into
//! several blocks, each with its own delta base, so the reader's decode buffer is
//! bounded regardless of trace size.
//!
//! # Replay shape
//!
//! Blocks are written in the exact event order [`crate::ProgramTrace::replay_into`]
//! emits: per interval, one or more access blocks per processor in ascending processor
//! order, then lock blocks in ascending processor order, then the closing barrier (no
//! barrier after a trailing partial interval).  The reader *enforces* that canonical
//! shape, so feeding a sink from a corpus is event-for-event identical to feeding it
//! from the materialized trace — which is why every downstream counter stays
//! bit-identical (pinned by the proptest suites in `tests/`).
//!
//! # Error contract
//!
//! The reader never panics on untrusted input: every structural violation — bad magic,
//! unknown version or block kind, out-of-range processor or object, interval counter
//! mismatch, oversized counts or payloads, checksum mismatch, truncation — surfaces as
//! a typed [`CodecError`].  Payloads are validated (checksum, exact byte and access
//! counts) *before* any event reaches the sink.

use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

use crate::access::Access;
use crate::durable::AtomicFile;
use crate::layout::ObjectLayout;
use crate::sink::TraceSink;

/// Leading magic bytes of every corpus file.
pub const MAGIC: [u8; 4] = *b"SMTC";

/// Current wire-format version.
pub const VERSION: u16 = 1;

/// Maximum number of accesses one access block may carry.  The writer splits longer
/// per-processor interval streams into several blocks; the reader rejects larger
/// declared counts, which bounds its reused decode buffer on corrupt input.
pub const MAX_BLOCK_ACCESSES: usize = 1 << 16;

/// Block kind tags (first byte of every block).
const KIND_END: u8 = 0x00;
const KIND_ACCESS: u8 = 0x01;
const KIND_LOCK: u8 = 0x02;
const KIND_BARRIER: u8 = 0x03;

/// Upper bound on an access payload's declared byte length for `count` accesses: at
/// most 5 varint bytes per zig-zag u32 delta plus `count + 1` kind runs of at most 3
/// varint bytes each.
fn max_payload_len(count: u64) -> u64 {
    count * 8 + 3
}

/// Everything that can go wrong reading or writing a corpus.
///
/// Every reader-side variant corresponds to a structural validation; the reader
/// returns these instead of panicking, whatever the input bytes are.
#[derive(Debug)]
pub enum CodecError {
    /// An underlying I/O failure (not a truncation).
    Io(io::Error),
    /// The stream ended in the middle of the named structure.
    Truncated(&'static str),
    /// The file does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The file's version is not [`VERSION`].
    UnsupportedVersion(u16),
    /// A header field is invalid (e.g. zero processors or zero object size).
    BadHeader(&'static str),
    /// An unknown block kind tag.
    BadBlockKind(u8),
    /// A block names a processor outside the corpus's processor count.
    ProcOutOfRange {
        /// The processor index the block declared.
        proc: u64,
        /// The corpus's processor count.
        num_procs: usize,
    },
    /// An access block's interval index disagrees with the barrier count so far.
    IntervalMismatch {
        /// The interval the reader is currently in.
        expected: u64,
        /// The interval the block declared.
        found: u64,
    },
    /// A declared count exceeds its cap (accesses per block, locks per block).
    OversizedCount {
        /// The declared count.
        count: u64,
        /// The cap it exceeds.
        max: u64,
    },
    /// A declared payload length exceeds what `count` accesses could possibly encode.
    OversizedPayload {
        /// The declared payload length.
        declared: u64,
        /// The cap it exceeds.
        max: u64,
    },
    /// The payload bytes do not hash to the stored checksum.
    ChecksumMismatch {
        /// The checksum stored in the block header.
        stored: u32,
        /// The checksum computed over the payload read.
        computed: u32,
    },
    /// A varint ran longer than 64 bits.
    VarintOverflow(&'static str),
    /// A decoded object index falls outside the object array `0..limit`: the corpus
    /// header's `num_objects`, capped at `Access::MAX_OBJECT + 1`.
    ObjectOutOfRange {
        /// The decoded (signed) object index.
        object: i64,
        /// The exclusive bound it had to stay below.
        limit: u64,
    },
    /// The payload decoded inconsistently (run lengths vs count, trailing bytes,
    /// blocks out of canonical order, ...).
    Malformed(&'static str),
    /// Any reader-side error above, wrapped with where decoding stopped: the index
    /// of the block being decoded and the byte offset it starts at.  `xp trace info`
    /// on a corrupt corpus can thus name the failing block, not just the failure.
    At {
        /// Zero-based index of the block being decoded when the error hit.
        block: u64,
        /// Byte offset (from the start of the corpus) of that block's first byte.
        offset: u64,
        /// The underlying structural error.
        inner: Box<CodecError>,
    },
}

impl CodecError {
    /// Wrap `self` with block/offset context (no-op re-wrap is prevented: an
    /// already-located error keeps its innermost, most precise location).
    fn at_block(self, block: u64, offset: u64) -> CodecError {
        match self {
            located @ CodecError::At { .. } => located,
            inner => CodecError::At { block, offset, inner: Box::new(inner) },
        }
    }

    /// The underlying structural error, with any [`CodecError::At`] context peeled
    /// off — what callers should match on when they care about the failure kind.
    pub fn root(&self) -> &CodecError {
        match self {
            CodecError::At { inner, .. } => inner.root(),
            other => other,
        }
    }

    /// `(block index, byte offset)` context if this error carries any.
    pub fn location(&self) -> Option<(u64, u64)> {
        match self {
            CodecError::At { block, offset, .. } => Some((*block, *offset)),
            _ => None,
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "corpus I/O error: {e}"),
            CodecError::Truncated(what) => write!(f, "corpus truncated while reading {what}"),
            CodecError::BadMagic(m) => write!(f, "not a trace corpus (magic {m:02x?})"),
            CodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported corpus version {v} (expected {VERSION})")
            }
            CodecError::BadHeader(what) => write!(f, "invalid corpus header: {what}"),
            CodecError::BadBlockKind(k) => write!(f, "unknown block kind 0x{k:02x}"),
            CodecError::ProcOutOfRange { proc, num_procs } => {
                write!(f, "block names processor {proc} but the corpus has {num_procs}")
            }
            CodecError::IntervalMismatch { expected, found } => {
                write!(f, "block declares interval {found} but the reader is in {expected}")
            }
            CodecError::OversizedCount { count, max } => {
                write!(f, "block declares {count} events (cap {max})")
            }
            CodecError::OversizedPayload { declared, max } => {
                write!(f, "block declares a {declared}-byte payload (cap {max})")
            }
            CodecError::ChecksumMismatch { stored, computed } => {
                write!(f, "payload checksum {computed:#010x} != stored {stored:#010x}")
            }
            CodecError::VarintOverflow(what) => write!(f, "varint overflow in {what}"),
            CodecError::ObjectOutOfRange { object, limit } => {
                write!(f, "decoded object index {object} outside the object array 0..{limit}")
            }
            CodecError::Malformed(what) => write!(f, "malformed corpus: {what}"),
            CodecError::At { block, offset, inner } => {
                write!(f, "{inner} (in block {block} starting at byte offset {offset})")
            }
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            CodecError::At { inner, .. } => Some(inner),
            _ => None,
        }
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

pub mod wire {
    //! The corpus's integer primitives: LEB128 varints, zig-zag signed mapping, delta
    //! encoding of object-index sequences, and the payload checksum.
    //!
    //! Public so the codec proptests can pin each primitive's round-trip independently
    //! of the block framing.

    use super::CodecError;

    /// Map a signed value onto an unsigned one with small magnitudes staying small
    /// (`0, -1, 1, -2, ... → 0, 1, 2, 3, ...`).
    #[inline]
    pub fn zigzag_encode(v: i64) -> u64 {
        ((v << 1) ^ (v >> 63)) as u64
    }

    /// Inverse of [`zigzag_encode`].
    #[inline]
    pub fn zigzag_decode(v: u64) -> i64 {
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }

    /// Append `v` as an LEB128 varint (7 data bits per byte, high bit = continuation).
    #[inline]
    pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    /// Decode one LEB128 varint from the front of `input`, advancing it.
    ///
    /// Fails with [`CodecError::Truncated`] if `input` ends mid-varint and
    /// [`CodecError::VarintOverflow`] if the encoding exceeds 64 bits.
    #[inline]
    pub fn read_varint(input: &mut &[u8], what: &'static str) -> Result<u64, CodecError> {
        // One-byte fast path: delta payloads are dominated by single-byte varints
        // (that is the whole point of delta encoding), so the hot decode loop should
        // pay one load and one compare for them, not the general shift-accumulate loop.
        if let Some((&byte, rest)) = input.split_first() {
            if byte < 0x80 {
                *input = rest;
                return Ok(u64::from(byte));
            }
        }
        read_varint_multi(input, what)
    }

    /// The general (multi-byte or truncated) tail of [`read_varint`].
    fn read_varint_multi(input: &mut &[u8], what: &'static str) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let Some((&byte, rest)) = input.split_first() else {
                return Err(CodecError::Truncated(what));
            };
            *input = rest;
            if shift == 63 && byte > 1 {
                return Err(CodecError::VarintOverflow(what));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::VarintOverflow(what));
            }
        }
    }

    /// Append the zig-zag deltas of `objects` (previous value starts at 0): the payload
    /// encoding of one access block's object-index stream.
    pub fn encode_deltas(objects: impl IntoIterator<Item = u32>, out: &mut Vec<u8>) {
        let mut prev = 0i64;
        for object in objects {
            let object = i64::from(object);
            write_varint(out, zigzag_encode(object - prev));
            prev = object;
        }
    }

    /// Decode `count` zig-zag deltas from the front of `input` into `out` (cleared
    /// first), validating every reconstructed index against `max_object`.
    pub fn decode_deltas(
        input: &mut &[u8],
        count: usize,
        max_object: u32,
        out: &mut Vec<u32>,
    ) -> Result<(), CodecError> {
        out.clear();
        let mut prev = 0i64;
        for _ in 0..count {
            let delta = zigzag_decode(read_varint(input, "object delta")?);
            // `wrapping_add` + the unsigned compare rejects every out-of-range
            // reconstruction, including i64 overflow from adversarial 10-byte deltas
            // (a wrapped sum lands far outside `0..=max_object` because `prev` is
            // always small), without a debug-mode overflow panic on corrupt input.
            let object = prev.wrapping_add(delta);
            if object as u64 > u64::from(max_object) {
                return Err(CodecError::ObjectOutOfRange {
                    object,
                    limit: u64::from(max_object) + 1,
                });
            }
            out.push(object as u32);
            prev = object;
        }
        Ok(())
    }

    /// The access-block payload checksum: an FNV-style multiply–xor fold over 8-byte
    /// little-endian words (zero-padded tail, payload length mixed into the seed),
    /// folded to 32 bits.
    ///
    /// Word-at-a-time rather than the classic byte-at-a-time FNV-1a because the
    /// checksum pass runs at decode bandwidth on every replay, and split across four
    /// independent lanes because a single xor–multiply fold is a ~5-cycle serial
    /// dependency per word — it alone would cap verification near 1.6 GB/s.  Four
    /// interleaved chains keep the multiplier pipelined, so the pass stays a rounding
    /// error next to varint decoding, while any single-bit corruption still flips the
    /// digest: each step is a bijection of its lane, and the final cross-lane fold is
    /// a bijection of each lane with the others held fixed (pinned by the corruption
    /// battery in `tests/corpus_errors.rs`).
    pub fn payload_checksum(bytes: &[u8]) -> u32 {
        const SEED: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut lanes = [
            SEED ^ bytes.len() as u64,
            SEED.rotate_left(17),
            SEED.rotate_left(31),
            SEED.rotate_left(47),
        ];
        let mut chunks = bytes.chunks_exact(32);
        for chunk in &mut chunks {
            for (lane, word) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
                let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
                *lane = (*lane ^ word).wrapping_mul(PRIME);
            }
        }
        let mut hash = lanes[0];
        for &lane in &lanes[1..] {
            hash = (hash ^ lane).wrapping_mul(PRIME);
        }
        let mut words = chunks.remainder().chunks_exact(8);
        for word in &mut words {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            hash = (hash ^ word).wrapping_mul(PRIME);
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut padded = [0u8; 8];
            padded[..tail.len()].copy_from_slice(tail);
            hash = (hash ^ u64::from_le_bytes(padded)).wrapping_mul(PRIME);
        }
        (hash ^ (hash >> 32)) as u32
    }
}

/// Aggregate statistics of one corpus, produced by both ends: the writer's
/// [`CorpusWriter::finish`] reports what was recorded, the reader's
/// [`CorpusReader::replay_into`] reports what was decoded (the two agree for an intact
/// corpus).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CorpusSummary {
    /// Total accesses across all processors and intervals.
    pub accesses: u64,
    /// Global barriers (barrier blocks).
    pub barriers: u64,
    /// Lock acquisitions across all processors.
    pub lock_acquisitions: u64,
    /// Synchronization intervals, counting a trailing partial interval.
    pub intervals: u64,
    /// Access blocks (the payload-carrying kind).
    pub access_blocks: u64,
    /// Bytes of access payload (after delta/varint encoding, before headers).
    pub payload_bytes: u64,
    /// Total corpus bytes (header + all blocks + end marker).
    pub file_bytes: u64,
}

impl CorpusSummary {
    /// Mean encoded bytes per access over the whole file — the compression headline
    /// (the packed in-memory representation is 4 bytes per access, headers free).
    pub fn bytes_per_access(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.file_bytes as f64 / self.accesses as f64
        }
    }

    /// Compression ratio versus the packed 4-byte in-memory [`Access`] stream.
    pub fn compression_vs_packed(&self) -> f64 {
        if self.file_bytes == 0 {
            0.0
        } else {
            (self.accesses * 4) as f64 / self.file_bytes as f64
        }
    }
}

/// A [`TraceSink`] that encodes the stream into the corpus wire format.
///
/// Events are buffered per processor for the *current interval only* (buffers are
/// cleared, never dropped, at each barrier) and encoded through one reused scratch
/// buffer, so memory is bounded by the largest single interval regardless of trace
/// length — recording is genuinely streaming.
///
/// I/O errors cannot surface through the [`TraceSink`] methods, so the writer latches
/// the first failure, ignores subsequent events, and reports it from
/// [`CorpusWriter::finish`] — a corpus is only valid if `finish` returned `Ok`.
#[derive(Debug)]
pub struct CorpusWriter<W: Write> {
    inner: W,
    layout: ObjectLayout,
    /// Per-processor access buffer for the current interval (cleared, not dropped).
    buffers: Vec<Vec<Access>>,
    /// Per-processor lock acquisitions in the current interval.
    locks: Vec<u64>,
    /// Index of the interval currently being buffered.
    interval: u64,
    /// Reused encode scratch for one block (header + payload).
    scratch: Vec<u8>,
    summary: CorpusSummary,
    error: Option<CodecError>,
}

impl CorpusWriter<AtomicFile> {
    /// Create a corpus file at `path`, staged through an [`AtomicFile`]: all bytes
    /// go to `<path>.tmp`, and nothing appears at `path` until
    /// [`CorpusWriter::finish_durable`] commits the rename.  A recording killed
    /// mid-run therefore never clobbers a previous corpus, and its `.tmp` sibling
    /// is a clean prefix that `xp trace recover` can salvage.
    pub fn create(path: &Path, layout: ObjectLayout, num_procs: usize) -> Result<Self, CodecError> {
        CorpusWriter::new(AtomicFile::create(path)?, layout, num_procs)
    }

    /// [`CorpusWriter::finish`] plus the durability step: fsync the staged bytes and
    /// atomically rename them onto the final path.  The corpus exists at its final
    /// path if and only if this returned `Ok`.
    pub fn finish_durable(self) -> Result<CorpusSummary, CodecError> {
        let (file, summary) = self.finish_into_inner()?;
        file.commit()?;
        Ok(summary)
    }
}

impl<W: Write> CorpusWriter<W> {
    /// Wrap a byte sink and write the corpus header.
    ///
    /// # Panics
    /// Panics if `num_procs` is zero (mirroring every other sink constructor).
    pub fn new(mut inner: W, layout: ObjectLayout, num_procs: usize) -> Result<Self, CodecError> {
        assert!(num_procs > 0, "num_procs must be positive");
        let mut header = Vec::with_capacity(32);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        wire::write_varint(&mut header, num_procs as u64);
        wire::write_varint(&mut header, layout.num_objects as u64);
        wire::write_varint(&mut header, layout.object_size as u64);
        wire::write_varint(&mut header, layout.base_offset as u64);
        inner.write_all(&header)?;
        Ok(CorpusWriter {
            inner,
            layout,
            buffers: vec![Vec::new(); num_procs],
            locks: vec![0; num_procs],
            interval: 0,
            scratch: Vec::new(),
            summary: CorpusSummary { file_bytes: header.len() as u64, ..Default::default() },
            error: None,
        })
    }

    /// The layout the corpus header declares.
    pub fn layout(&self) -> &ObjectLayout {
        &self.layout
    }

    /// Whether any buffered event or lock is pending in the current interval.
    fn interval_pending(&self) -> bool {
        self.buffers.iter().any(|b| !b.is_empty()) || self.locks.iter().any(|&l| l != 0)
    }

    /// Encode and write one access block for `proc` covering `accesses`.
    fn write_access_block(&mut self, proc: usize, lo: usize, hi: usize) -> Result<(), CodecError> {
        failpoint::point!("codec/write-block", |msg: String| Err(CodecError::Io(
            io::Error::other(msg)
        )));
        self.scratch.clear();
        let accesses = &self.buffers[proc][lo..hi];
        // Kind runs: alternating run lengths, reads first (a leading zero-length read
        // run is legal when the stream opens with a write).
        let mut payload = Vec::new();
        std::mem::swap(&mut payload, &mut self.scratch);
        let mut i = 0;
        let mut expect_write = false;
        while i < accesses.len() {
            let run_start = i;
            while i < accesses.len() && accesses[i].is_write() == expect_write {
                i += 1;
            }
            wire::write_varint(&mut payload, (i - run_start) as u64);
            expect_write = !expect_write;
        }
        wire::encode_deltas(accesses.iter().map(Access::object_u32), &mut payload);

        let mut header = Vec::with_capacity(24);
        header.push(KIND_ACCESS);
        wire::write_varint(&mut header, proc as u64);
        wire::write_varint(&mut header, self.interval);
        wire::write_varint(&mut header, accesses.len() as u64);
        wire::write_varint(&mut header, payload.len() as u64);
        header.extend_from_slice(&wire::payload_checksum(&payload).to_le_bytes());
        self.inner.write_all(&header)?;
        self.inner.write_all(&payload)?;

        self.summary.access_blocks += 1;
        self.summary.accesses += accesses.len() as u64;
        self.summary.payload_bytes += payload.len() as u64;
        self.summary.file_bytes += (header.len() + payload.len()) as u64;
        std::mem::swap(&mut payload, &mut self.scratch);
        Ok(())
    }

    /// Flush the buffered interval as blocks: per-processor access blocks (ascending
    /// processor order, chunked at [`MAX_BLOCK_ACCESSES`]), then per-processor lock
    /// blocks, then — for a barrier-closed interval — the barrier block.
    fn flush_interval(&mut self, closing_barrier: bool) -> Result<(), CodecError> {
        if self.interval_pending() {
            self.summary.intervals += 1;
        }
        for proc in 0..self.buffers.len() {
            let total = self.buffers[proc].len();
            let mut lo = 0;
            while lo < total {
                let hi = (lo + MAX_BLOCK_ACCESSES).min(total);
                self.write_access_block(proc, lo, hi)?;
                lo = hi;
            }
        }
        for buffer in &mut self.buffers {
            buffer.clear();
        }
        for proc in 0..self.locks.len() {
            let count = std::mem::take(&mut self.locks[proc]);
            if count == 0 {
                continue;
            }
            self.scratch.clear();
            self.scratch.push(KIND_LOCK);
            let mut scratch = std::mem::take(&mut self.scratch);
            wire::write_varint(&mut scratch, proc as u64);
            wire::write_varint(&mut scratch, count);
            self.inner.write_all(&scratch)?;
            self.summary.file_bytes += scratch.len() as u64;
            self.summary.lock_acquisitions += count;
            self.scratch = scratch;
        }
        if closing_barrier {
            self.inner.write_all(&[KIND_BARRIER])?;
            self.summary.file_bytes += 1;
            self.summary.barriers += 1;
            self.interval += 1;
        }
        Ok(())
    }

    fn latch(&mut self, result: Result<(), CodecError>) {
        if let Err(e) = result {
            if self.error.is_none() {
                self.error = Some(e);
            }
            // Drop anything still buffered so a dead writer stops accumulating.
            for buffer in &mut self.buffers {
                buffer.clear();
            }
            self.locks.iter_mut().for_each(|l| *l = 0);
        }
    }

    /// Flush a trailing partial interval (no barrier), write the end marker, flush the
    /// underlying writer, and return the recording summary — or the first error the
    /// stream hit.
    pub fn finish(self) -> Result<CorpusSummary, CodecError> {
        self.finish_into_inner().map(|(_, summary)| summary)
    }

    /// [`CorpusWriter::finish`], additionally handing back the underlying byte sink
    /// (used by in-memory round-trip tests).
    pub fn finish_into_inner(mut self) -> Result<(W, CorpusSummary), CodecError> {
        failpoint::point!("codec/finish", |msg: String| Err(CodecError::Io(io::Error::other(msg))));
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if self.interval_pending() {
            let result = self.flush_interval(false);
            self.latch(result);
            if let Some(e) = self.error.take() {
                return Err(e);
            }
        }
        self.inner.write_all(&[KIND_END])?;
        self.summary.file_bytes += 1;
        self.inner.flush()?;
        Ok((self.inner, self.summary))
    }
}

impl<W: Write> TraceSink for CorpusWriter<W> {
    fn num_procs(&self) -> usize {
        self.buffers.len()
    }

    fn record(&mut self, proc: usize, access: Access) {
        if self.error.is_none() {
            self.buffers[proc].push(access);
        }
    }

    fn lock(&mut self, proc: usize, lock: u32) {
        let _ = lock;
        if self.error.is_none() {
            self.locks[proc] += 1;
        }
    }

    fn barrier(&mut self) {
        if self.error.is_none() {
            let result = self.flush_interval(true);
            self.latch(result);
        }
    }

    fn record_many(&mut self, proc: usize, accesses: &[Access]) {
        if self.error.is_none() {
            self.buffers[proc].extend_from_slice(accesses);
        }
    }
}

/// What the reader is allowed to see next inside one interval — access blocks must
/// precede lock blocks (the canonical [`crate::ProgramTrace::replay_into`] shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IntervalPhase {
    Accesses,
    Locks,
}

/// Decode progress shared by [`CorpusReader::replay_into`] and
/// [`CorpusReader::salvage_into`]: the running summary plus the canonical-shape
/// state the reader enforces across blocks.
#[derive(Debug)]
struct ReplayProgress {
    summary: CorpusSummary,
    interval_open: bool,
    phase: IntervalPhase,
    /// Highest processor seen in the access phase of the current interval
    /// (canonical shape: ascending, locks strictly so).
    last_access_proc: u64,
    last_lock_proc: Option<u64>,
    /// Blocks fully decoded and delivered to the sink so far.
    blocks: u64,
    /// `bytes_read` at the end of the last fully decoded block (initially the
    /// header length): the prefix boundary salvage can trust.
    valid_bytes: u64,
}

impl ReplayProgress {
    fn new(header_bytes: u64) -> Self {
        ReplayProgress {
            summary: CorpusSummary::default(),
            interval_open: false,
            phase: IntervalPhase::Accesses,
            last_access_proc: 0,
            last_lock_proc: None,
            blocks: 0,
            valid_bytes: header_bytes,
        }
    }

    /// Close out decoding: count a trailing partial interval (`SyncEvent::End`
    /// semantics, matching the writer) and stamp the decoded byte extent.
    fn finish(mut self) -> CorpusSummary {
        if self.interval_open {
            self.summary.intervals += 1;
        }
        self.summary.file_bytes = self.valid_bytes;
        self.summary
    }
}

/// What [`CorpusReader::step_block`] decoded.
enum BlockStep {
    /// One access/lock/barrier block was fully validated and delivered.
    Continue,
    /// The end marker: the corpus is complete.
    End,
}

/// What [`CorpusReader::salvage_into`] recovered from a damaged (or intact) corpus.
///
/// The summary covers exactly the longest valid block prefix; everything after
/// `valid_bytes` was not delivered to the sink.
#[derive(Debug)]
pub struct SalvageOutcome {
    /// Decode summary of the recovered prefix (its `file_bytes` equals
    /// [`SalvageOutcome::valid_bytes`]).
    pub summary: CorpusSummary,
    /// Byte length of the longest valid block prefix (header included).
    pub valid_bytes: u64,
    /// Total bytes consumed while scanning, including the partial block the scan
    /// died in (`valid_bytes..scanned_bytes` is damaged or incomplete data).
    pub scanned_bytes: u64,
    /// Why the scan stopped: `None` for a clean end marker, otherwise the decode
    /// error (with block/offset context) that a strict replay would have returned.
    pub stop: Option<CodecError>,
}

impl SalvageOutcome {
    /// Whether the corpus decoded to its end marker with nothing lost.
    pub fn is_intact(&self) -> bool {
        self.stop.is_none()
    }

    /// Human-readable reason the scan stopped (`"clean end marker"` when intact).
    pub fn stop_reason(&self) -> String {
        match &self.stop {
            None => "clean end marker".to_string(),
            Some(e) => e.to_string(),
        }
    }
}

/// Streams a corpus into any [`TraceSink`] through reused decode buffers.
///
/// The reader validates as it goes (see the module docs for the error contract) and
/// feeds the sink in ascending-processor `record_many` batches per interval — exactly
/// the event shape of [`crate::ProgramTrace::replay_into`] — so `SimSink`,
/// `PageHistorySink` and `TraceBuilder` consume a corpus precisely as they consume
/// live generation.
#[derive(Debug)]
pub struct CorpusReader<R: Read> {
    inner: R,
    layout: ObjectLayout,
    num_procs: usize,
    /// Bytes consumed so far (header included).
    bytes_read: u64,
    /// Reused payload buffer (bounded by `max_payload_len(MAX_BLOCK_ACCESSES)`).
    payload: Vec<u8>,
    /// Reused decoded-access buffer (bounded by [`MAX_BLOCK_ACCESSES`]).
    decoded: Vec<Access>,
    /// Reused kind-run scratch for [`decode_access_payload`]: run length in the low
    /// 31 bits, kind in the top bit (lengths are capped well below 2^31 by
    /// [`MAX_BLOCK_ACCESSES`]).
    runs: Vec<u32>,
}

impl CorpusReader<BufReader<File>> {
    /// Open a corpus file and parse its header.
    pub fn open(path: &Path) -> Result<Self, CodecError> {
        let file = File::open(path)?;
        // Decode-bandwidth replay cannot afford a syscall every 8 KB (the default
        // buffer size): one corpus megabyte is ~400k decoded accesses.
        CorpusReader::new(BufReader::with_capacity(1 << 20, file))
    }
}

impl<R: Read> CorpusReader<R> {
    /// Wrap a byte source and parse the corpus header.
    pub fn new(mut inner: R) -> Result<Self, CodecError> {
        let mut magic = [0u8; 4];
        read_exact(&mut inner, &mut magic, "magic")?;
        if magic != MAGIC {
            return Err(CodecError::BadMagic(magic));
        }
        let mut version = [0u8; 2];
        read_exact(&mut inner, &mut version, "version")?;
        let version = u16::from_le_bytes(version);
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let mut bytes_read = 6u64;
        let num_procs = read_varint_io(&mut inner, &mut bytes_read, "header num_procs")?;
        let num_objects = read_varint_io(&mut inner, &mut bytes_read, "header num_objects")?;
        let object_size = read_varint_io(&mut inner, &mut bytes_read, "header object_size")?;
        let base_offset = read_varint_io(&mut inner, &mut bytes_read, "header base_offset")?;
        if num_procs == 0 {
            return Err(CodecError::BadHeader("zero processors"));
        }
        if object_size == 0 {
            return Err(CodecError::BadHeader("zero object size"));
        }
        let to_usize = |v: u64, what: &'static str| -> Result<usize, CodecError> {
            usize::try_from(v).map_err(|_| CodecError::BadHeader(what))
        };
        let layout = ObjectLayout::with_offset(
            to_usize(num_objects, "num_objects exceeds usize")?,
            to_usize(object_size, "object_size exceeds usize")?,
            to_usize(base_offset, "base_offset exceeds usize")?,
        );
        Ok(CorpusReader {
            inner,
            layout,
            num_procs: to_usize(num_procs, "num_procs exceeds usize")?,
            bytes_read,
            payload: Vec::new(),
            decoded: Vec::new(),
            runs: Vec::new(),
        })
    }

    /// The object-array layout the corpus was recorded against.
    pub fn layout(&self) -> &ObjectLayout {
        &self.layout
    }

    /// The virtual-processor count the corpus was recorded over.
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// Stream every block into `sink` and return the decode summary.
    ///
    /// Strict: the first structural violation aborts the replay with a
    /// [`CodecError`] wrapped in block/offset context ([`CodecError::At`]).  Events
    /// decoded before the failure have already reached the sink.  Use
    /// [`CorpusReader::salvage_into`] to recover the valid prefix of a damaged
    /// corpus instead.
    ///
    /// # Panics
    /// Panics if the sink's processor count disagrees with the corpus header — a
    /// caller bug, exactly like tee-ing mismatched sinks.  All *data* problems
    /// return a [`CodecError`] instead.
    pub fn replay_into<S: TraceSink + ?Sized>(
        &mut self,
        sink: &mut S,
    ) -> Result<CorpusSummary, CodecError> {
        assert_eq!(sink.num_procs(), self.num_procs, "sink must match the corpus processor count");
        let mut progress = ReplayProgress::new(self.bytes_read);
        loop {
            let block_start = self.bytes_read;
            match self.step_block(&mut progress, sink) {
                Ok(BlockStep::Continue) => {}
                Ok(BlockStep::End) => break,
                Err(e) => return Err(e.at_block(progress.blocks, block_start)),
            }
        }
        Ok(progress.finish())
    }

    /// Stream the longest valid block prefix into `sink` and report exactly what
    /// was recovered and what was lost.
    ///
    /// Where [`CorpusReader::replay_into`] aborts on the first structural
    /// violation, salvage *stops* there: every block before the failure was fully
    /// validated (payloads are checksummed and decoded before any event reaches the
    /// sink), so the delivered prefix is precisely what a strict replay of a
    /// corpus truncated at [`SalvageOutcome::valid_bytes`] would deliver.  A
    /// trailing partial interval is finalized exactly as the writer would have
    /// (`SyncEvent::End` semantics), so recovered corpora replay bit-identically.
    ///
    /// # Panics
    /// Panics if the sink's processor count disagrees with the corpus header, as
    /// with [`CorpusReader::replay_into`].
    pub fn salvage_into<S: TraceSink + ?Sized>(&mut self, sink: &mut S) -> SalvageOutcome {
        assert_eq!(sink.num_procs(), self.num_procs, "sink must match the corpus processor count");
        let mut progress = ReplayProgress::new(self.bytes_read);
        let stop = loop {
            let block_start = self.bytes_read;
            match self.step_block(&mut progress, sink) {
                Ok(BlockStep::Continue) => {}
                Ok(BlockStep::End) => break None,
                Err(e) => break Some(e.at_block(progress.blocks, block_start)),
            }
        };
        let (valid_bytes, scanned_bytes) = (progress.valid_bytes, self.bytes_read);
        SalvageOutcome { summary: progress.finish(), valid_bytes, scanned_bytes, stop }
    }

    /// Decode and deliver one block (or the end marker), updating `progress` only
    /// after the block fully validates — an `Err` leaves summary, shape state and
    /// the sink exactly as the previous block left them, which is the invariant
    /// [`CorpusReader::salvage_into`] is built on.
    fn step_block<S: TraceSink + ?Sized>(
        &mut self,
        progress: &mut ReplayProgress,
        sink: &mut S,
    ) -> Result<BlockStep, CodecError> {
        let mut kind = [0u8; 1];
        read_exact(&mut self.inner, &mut kind, "block kind")?;
        self.bytes_read += 1;
        match kind[0] {
            KIND_END => {
                progress.valid_bytes = self.bytes_read;
                return Ok(BlockStep::End);
            }
            KIND_ACCESS => {
                let proc = self.read_varint("access block proc")?;
                let interval = self.read_varint("access block interval")?;
                let count = self.read_varint("access block count")?;
                let payload_len = self.read_varint("access block payload length")?;
                let mut checksum = [0u8; 4];
                read_exact(&mut self.inner, &mut checksum, "access block checksum")?;
                self.bytes_read += 4;
                let stored = u32::from_le_bytes(checksum);

                if proc >= self.num_procs as u64 {
                    return Err(CodecError::ProcOutOfRange { proc, num_procs: self.num_procs });
                }
                if interval != progress.summary.barriers {
                    return Err(CodecError::IntervalMismatch {
                        expected: progress.summary.barriers,
                        found: interval,
                    });
                }
                if count == 0 {
                    return Err(CodecError::Malformed("empty access block"));
                }
                if count > MAX_BLOCK_ACCESSES as u64 {
                    return Err(CodecError::OversizedCount {
                        count,
                        max: MAX_BLOCK_ACCESSES as u64,
                    });
                }
                if payload_len > max_payload_len(count) {
                    return Err(CodecError::OversizedPayload {
                        declared: payload_len,
                        max: max_payload_len(count),
                    });
                }
                if progress.phase == IntervalPhase::Locks {
                    return Err(CodecError::Malformed("access block after lock block"));
                }
                if progress.interval_open && proc < progress.last_access_proc {
                    return Err(CodecError::Malformed("access blocks out of processor order"));
                }
                self.payload.resize(payload_len as usize, 0);
                read_exact(&mut self.inner, &mut self.payload, "access block payload")?;
                self.bytes_read += payload_len;
                let computed = wire::payload_checksum(&self.payload);
                if computed != stored {
                    return Err(CodecError::ChecksumMismatch { stored, computed });
                }
                decode_access_payload(
                    &self.payload,
                    count as usize,
                    self.object_limit(),
                    &mut self.runs,
                    &mut self.decoded,
                )?;
                sink.record_many(proc as usize, &self.decoded);

                progress.interval_open = true;
                progress.last_access_proc = proc;
                progress.summary.accesses += count;
                progress.summary.access_blocks += 1;
                progress.summary.payload_bytes += payload_len;
            }
            KIND_LOCK => {
                let proc = self.read_varint("lock block proc")?;
                let count = self.read_varint("lock block count")?;
                if proc >= self.num_procs as u64 {
                    return Err(CodecError::ProcOutOfRange { proc, num_procs: self.num_procs });
                }
                if count == 0 {
                    return Err(CodecError::Malformed("empty lock block"));
                }
                if count > u64::from(u32::MAX) {
                    return Err(CodecError::OversizedCount { count, max: u64::from(u32::MAX) });
                }
                if progress.last_lock_proc.is_some_and(|last| proc <= last) {
                    return Err(CodecError::Malformed("lock blocks out of processor order"));
                }
                for _ in 0..count {
                    sink.lock(proc as usize, 0);
                }
                progress.interval_open = true;
                progress.phase = IntervalPhase::Locks;
                progress.last_lock_proc = Some(proc);
                progress.summary.lock_acquisitions += count;
            }
            KIND_BARRIER => {
                sink.barrier();
                progress.summary.barriers += 1;
                // Intervals count blocks-carrying intervals only, matching the
                // writer (an empty barrier-closed interval emits just the barrier).
                if progress.interval_open {
                    progress.summary.intervals += 1;
                }
                progress.interval_open = false;
                progress.phase = IntervalPhase::Accesses;
                progress.last_access_proc = 0;
                progress.last_lock_proc = None;
            }
            other => return Err(CodecError::BadBlockKind(other)),
        }
        progress.blocks += 1;
        progress.valid_bytes = self.bytes_read;
        Ok(BlockStep::Continue)
    }

    fn read_varint(&mut self, what: &'static str) -> Result<u64, CodecError> {
        read_varint_io(&mut self.inner, &mut self.bytes_read, what)
    }

    /// The exclusive bound on decoded object ids: the header's object count (a
    /// consumer sizes its state to the layout, so an id past the array is corrupt
    /// input, not an access), capped at what an [`Access`] can hold.
    fn object_limit(&self) -> u64 {
        self.layout.num_objects.min(Access::MAX_OBJECT + 1) as u64
    }
}

/// Decode one access payload (kind runs, then deltas) into `out`, enforcing that the
/// byte stream is exactly consumed and yields exactly `count` accesses, each below
/// `limit` (at most `Access::MAX_OBJECT + 1`).
///
/// `runs` is caller-owned scratch (cleared here) so the per-block hot path never
/// allocates.  This is the decode-bandwidth loop the whole corpus exists for: the
/// kind runs are parsed up front, then each run decodes as one varint→add→check→push
/// chain with the write flag loop-invariant — fusing the kind bit into the delta pass
/// beat a decode-all-then-patch-writes split by one full sweep over the output.
fn decode_access_payload(
    payload: &[u8],
    count: usize,
    limit: u64,
    runs: &mut Vec<u32>,
    out: &mut Vec<Access>,
) -> Result<(), CodecError> {
    out.clear();
    out.reserve(count);
    let mut input = payload;
    // Kind runs: alternating lengths, reads first; only the leading read run may be
    // empty (stream opens with a write).  Collected up front so deltas decode in one
    // sequential pass below.
    runs.clear();
    let mut consumed = 0usize;
    let mut is_write = false;
    while consumed < count {
        let run = wire::read_varint(&mut input, "kind run")?;
        // A zero run is legal only as the leading read run (stream opens with a write).
        if run == 0 && (is_write || !runs.is_empty()) {
            return Err(CodecError::Malformed("zero-length kind run"));
        }
        let run = usize::try_from(run).map_err(|_| CodecError::Malformed("kind run overflow"))?;
        if run > count - consumed {
            return Err(CodecError::Malformed("kind runs exceed access count"));
        }
        if run > 0 {
            // Run length in the low bits, kind in the top bit: half the scratch
            // traffic of a (u32, bool) pair over the millions of two-access runs a
            // pair-sweep stream produces.
            runs.push(run as u32 | (u32::from(is_write) << 31));
            consumed += run;
        }
        is_write = !is_write;
    }
    let mut prev = 0i64;
    for &packed in runs.iter() {
        let run = (packed & 0x7fff_ffff) as usize;
        decode_delta_run(&mut input, run, packed >> 31 != 0, limit, &mut prev, out)?;
    }
    if !input.is_empty() {
        return Err(CodecError::Malformed("trailing payload bytes"));
    }
    Ok(())
}

/// Decode one kind run's worth of zig-zag deltas, carrying the write flag as a
/// loop-invariant bit.
///
/// The varint fetch length-tests with *branches*, not masks, on purpose: each app's
/// delta widths are highly regular (FMM's sorted cell sweeps are one-byte, Moldyn's
/// pair lists and Unstructured's edge endpoints two-byte), so the length branches
/// predict near-perfectly and the input-pointer advance becomes control-dependent —
/// speculated past — instead of a serial load→mask→advance→load chain.  A mask-selected
/// (branch-free) variant of this loop measured ~30% slower on exactly those streams.
/// Only the rare ≥3-byte delta (and the buffer tail) takes the general path.
#[inline]
fn decode_delta_run(
    input: &mut &[u8],
    run: usize,
    is_write: bool,
    limit: u64,
    prev: &mut i64,
    out: &mut Vec<Access>,
) -> Result<(), CodecError> {
    let mut p = *prev;
    for _ in 0..run {
        let raw = match input {
            [b0, ..] if *b0 < 0x80 => {
                let raw = u64::from(*b0);
                *input = &input[1..];
                raw
            }
            [b0, b1, ..] if *b1 < 0x80 => {
                let raw = u64::from(*b0 & 0x7f) | u64::from(*b1) << 7;
                *input = &input[2..];
                raw
            }
            _ => wire::read_varint(input, "object delta")?,
        };
        let delta = wire::zigzag_decode(raw);
        // See `wire::decode_deltas`: wrapping add + unsigned compare rejects every
        // out-of-range reconstruction (i64 overflow included) without panicking.
        let object = p.wrapping_add(delta);
        if object as u64 >= limit {
            return Err(CodecError::ObjectOutOfRange { object, limit });
        }
        out.push(Access::from_parts(object as u32, is_write));
        p = object;
    }
    *prev = p;
    Ok(())
}

/// `read_exact` with truncation mapped to [`CodecError::Truncated`].
fn read_exact<R: Read>(r: &mut R, buf: &mut [u8], what: &'static str) -> Result<(), CodecError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            CodecError::Truncated(what)
        } else {
            CodecError::Io(e)
        }
    })
}

/// Decode one LEB128 varint from an [`io::Read`], tracking consumed bytes.
fn read_varint_io<R: Read>(
    r: &mut R,
    bytes_read: &mut u64,
    what: &'static str,
) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        read_exact(r, &mut byte, what)?;
        *bytes_read += 1;
        let byte = byte[0];
        if shift == 63 && byte > 1 {
            return Err(CodecError::VarintOverflow(what));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::VarintOverflow(what));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::NullSink;
    use crate::trace::{ProgramTrace, TraceBuilder};

    fn layout() -> ObjectLayout {
        ObjectLayout::new(64, 96)
    }

    /// Record `drive` through a CorpusWriter into memory, returning bytes + summary.
    fn record(drive: impl FnOnce(&mut dyn TraceSink)) -> (Vec<u8>, CorpusSummary) {
        let mut writer = CorpusWriter::new(Vec::new(), layout(), 3).unwrap();
        drive(&mut writer);
        writer.finish_into_inner().unwrap()
    }

    fn decode_to_trace(bytes: &[u8]) -> (ProgramTrace, CorpusSummary) {
        let mut reader = CorpusReader::new(bytes).unwrap();
        let mut builder = TraceBuilder::new(reader.layout().clone(), reader.num_procs());
        let summary = reader.replay_into(&mut builder).unwrap();
        (builder.finish(), summary)
    }

    fn drive_example(s: &mut dyn TraceSink) {
        s.write(0, 1);
        s.read(0, 2);
        s.read(2, 63);
        s.lock(1, 7);
        s.lock(1, 7);
        s.barrier();
        s.barrier(); // empty barrier-closed interval
        s.write(1, 5); // trailing End interval
    }

    #[test]
    fn round_trips_through_a_builder() {
        let mut direct = TraceBuilder::new(layout(), 3);
        drive_example(&mut direct);
        let expected = direct.finish();

        let (bytes, wrote) = record(drive_example);
        let (trace, read) = decode_to_trace(&bytes);
        assert_eq!(trace, expected);
        assert_eq!(wrote, read);
        assert_eq!(read.accesses, 4);
        assert_eq!(read.barriers, 2);
        assert_eq!(read.lock_acquisitions, 2);
        assert_eq!(read.intervals, 2, "empty barrier interval carries no blocks");
    }

    #[test]
    fn empty_corpus_round_trips() {
        let (bytes, wrote) = record(|_| {});
        assert_eq!(wrote.accesses, 0);
        let (trace, read) = decode_to_trace(&bytes);
        assert_eq!(trace.intervals.len(), 0);
        assert_eq!(wrote, read);
    }

    #[test]
    fn summary_reports_compression() {
        let (_, wrote) = record(|s| {
            for i in 0..1000usize {
                s.read(0, i % 64);
            }
            s.barrier();
        });
        assert!(wrote.bytes_per_access() < 4.0, "got {}", wrote.bytes_per_access());
        assert!(wrote.compression_vs_packed() > 1.0);
    }

    #[test]
    fn blocks_split_at_the_access_cap() {
        let n = MAX_BLOCK_ACCESSES + 10;
        let (bytes, wrote) = record(|s| {
            for _ in 0..n {
                s.read(1, 7);
            }
        });
        assert_eq!(wrote.access_blocks, 2);
        let (trace, read) = decode_to_trace(&bytes);
        assert_eq!(read.accesses, n as u64);
        assert_eq!(trace.intervals[0].accesses[1].len(), n);
    }

    #[test]
    fn reader_summary_matches_null_sink_replay() {
        let (bytes, wrote) = record(drive_example);
        let mut reader = CorpusReader::new(&bytes[..]).unwrap();
        let mut void = NullSink::new(reader.num_procs());
        let read = reader.replay_into(&mut void).unwrap();
        assert_eq!(wrote, read);
        assert_eq!(read.file_bytes, bytes.len() as u64);
    }

    #[test]
    fn header_round_trips_layout_and_procs() {
        let custom = ObjectLayout::with_offset(1234, 680, 96);
        let mut writer = CorpusWriter::new(Vec::new(), custom.clone(), 16).unwrap();
        writer.write(15, 1233);
        let (bytes, _) = writer.finish_into_inner().unwrap();
        let reader = CorpusReader::new(&bytes[..]).unwrap();
        assert_eq!(*reader.layout(), custom);
        assert_eq!(reader.num_procs(), 16);
    }

    #[test]
    #[should_panic(expected = "sink must match the corpus processor count")]
    fn mismatched_sink_panics() {
        let (bytes, _) = record(|_| {});
        let mut reader = CorpusReader::new(&bytes[..]).unwrap();
        let mut sink = NullSink::new(7);
        let _ = reader.replay_into(&mut sink);
    }

    #[test]
    #[should_panic(expected = "num_procs must be positive")]
    fn zero_procs_writer_panics() {
        let _ = CorpusWriter::new(Vec::new(), layout(), 0);
    }
}
