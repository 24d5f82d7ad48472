//! Corrupt-input battery for the corpus reader: truncations, byte flips and
//! handcrafted malformed blocks must all surface as typed [`CodecError`]s — the reader
//! never panics on untrusted bytes.

use proptest::prelude::*;
use smtrace::codec::{
    wire, CodecError, CorpusReader, CorpusSummary, CorpusWriter, MAGIC, MAX_BLOCK_ACCESSES, VERSION,
};
use smtrace::{NullSink, ObjectLayout, TraceSink};

fn layout() -> ObjectLayout {
    ObjectLayout::new(64, 96)
}

/// A small but representative corpus: two processors, accesses, locks, a barrier and a
/// trailing partial interval.
fn sample_corpus() -> Vec<u8> {
    let mut writer = CorpusWriter::new(Vec::new(), layout(), 2).unwrap();
    writer.write(0, 1);
    writer.read(0, 2);
    writer.read(1, 63);
    writer.lock(1, 7);
    writer.barrier();
    writer.write(1, 5);
    let (bytes, _) = writer.finish_into_inner().unwrap();
    bytes
}

/// Decode `bytes` into a NullSink sized from the parsed header.  Returns a typed error
/// for anything invalid; the point of the battery is that this never panics.
fn decode(bytes: &[u8]) -> Result<CorpusSummary, CodecError> {
    let mut reader = CorpusReader::new(bytes)?;
    let mut void = NullSink::new(reader.num_procs());
    reader.replay_into(&mut void)
}

/// The corpus header exactly as `CorpusWriter::new` emits it for [`layout`].
fn valid_header(num_procs: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    wire::write_varint(&mut bytes, num_procs);
    wire::write_varint(&mut bytes, layout().num_objects as u64);
    wire::write_varint(&mut bytes, layout().object_size as u64);
    wire::write_varint(&mut bytes, layout().base_offset as u64);
    bytes
}

#[test]
fn every_truncation_errors_and_never_panics() {
    let bytes = sample_corpus();
    assert!(decode(&bytes).is_ok());
    // Every strict prefix is missing at least the end marker, so every one must fail —
    // with a typed error, not a panic.
    for len in 0..bytes.len() {
        let result = decode(&bytes[..len]);
        assert!(result.is_err(), "prefix of {len} bytes decoded successfully");
        let err = result.unwrap_err();
        assert!(
            matches!(err.root(), CodecError::Truncated(_)),
            "prefix of {len} bytes gave {err:?}, expected Truncated"
        );
    }
}

#[test]
fn empty_input_is_a_truncation() {
    assert!(matches!(decode(&[]), Err(CodecError::Truncated(_))));
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = sample_corpus();
    bytes[0] = b'X';
    assert!(matches!(decode(&bytes), Err(CodecError::BadMagic(_))));
}

#[test]
fn unsupported_version_is_rejected() {
    let mut bytes = sample_corpus();
    bytes[4] = 0xff;
    assert!(matches!(decode(&bytes), Err(CodecError::UnsupportedVersion(_))));
}

#[test]
fn zero_proc_header_is_rejected() {
    let mut bytes = valid_header(0);
    bytes.push(0x00); // end marker
    assert!(matches!(decode(&bytes), Err(CodecError::BadHeader(_))));
}

#[test]
fn unknown_block_kind_is_rejected() {
    let mut bytes = valid_header(2);
    bytes.push(0x7f);
    let err = decode(&bytes).unwrap_err();
    assert!(matches!(err.root(), CodecError::BadBlockKind(0x7f)));
    // Satellite contract: block errors carry where decoding stopped — the bad tag
    // is block 0, sitting right after the 10-byte header.
    assert_eq!(err.location(), Some((0, 10)));
    let rendered = err.to_string();
    assert!(
        rendered.contains("block 0") && rendered.contains("byte offset 10"),
        "Display should name the failing block and offset: {rendered}"
    );
}

#[test]
fn checksum_mismatch_is_detected() {
    let bytes = sample_corpus();
    // The first access block's stored checksum lives right after the five one-byte
    // header fields (kind, proc, interval, count, payload_len) that follow the 10-byte
    // file header; flipping a payload byte after it must trip the check.
    let payload_start = 10 + 5 + 4;
    let mut corrupted = bytes.clone();
    corrupted[payload_start] ^= 0x01;
    let err = decode(&corrupted).unwrap_err();
    assert!(matches!(err.root(), CodecError::ChecksumMismatch { .. }), "got {err:?}");
    assert_eq!(err.location(), Some((0, 10)), "first block starts right after the header");
}

#[test]
fn oversized_access_count_is_rejected() {
    let mut bytes = valid_header(2);
    bytes.push(0x01); // access block
    wire::write_varint(&mut bytes, 0); // proc
    wire::write_varint(&mut bytes, 0); // interval
    wire::write_varint(&mut bytes, MAX_BLOCK_ACCESSES as u64 + 1); // count over the cap
    wire::write_varint(&mut bytes, 4); // payload_len
    bytes.extend_from_slice(&[0u8; 4]); // checksum
    assert!(matches!(decode(&bytes).unwrap_err().root(), CodecError::OversizedCount { .. }));
}

#[test]
fn oversized_payload_length_is_rejected() {
    let mut bytes = valid_header(2);
    bytes.push(0x01);
    wire::write_varint(&mut bytes, 0); // proc
    wire::write_varint(&mut bytes, 0); // interval
    wire::write_varint(&mut bytes, 2); // count
    wire::write_varint(&mut bytes, 1 << 30); // payload_len: impossible for 2 accesses
    bytes.extend_from_slice(&[0u8; 4]);
    assert!(matches!(decode(&bytes).unwrap_err().root(), CodecError::OversizedPayload { .. }));
}

#[test]
fn out_of_range_processor_is_rejected() {
    let mut bytes = valid_header(2);
    bytes.push(0x02); // lock block
    wire::write_varint(&mut bytes, 99); // proc out of range
    wire::write_varint(&mut bytes, 1); // count
    assert!(matches!(
        decode(&bytes).unwrap_err().root(),
        CodecError::ProcOutOfRange { proc: 99, num_procs: 2 }
    ));
}

#[test]
fn interval_mismatch_is_rejected() {
    let mut bytes = valid_header(2);
    bytes.push(0x01);
    wire::write_varint(&mut bytes, 0); // proc
    wire::write_varint(&mut bytes, 5); // interval: no barriers seen yet
    wire::write_varint(&mut bytes, 1); // count
    wire::write_varint(&mut bytes, 2); // payload_len
    bytes.extend_from_slice(&[0u8; 4]);
    assert!(matches!(
        decode(&bytes).unwrap_err().root(),
        CodecError::IntervalMismatch { expected: 0, found: 5 }
    ));
}

#[test]
fn empty_access_block_is_rejected() {
    let mut bytes = valid_header(2);
    bytes.push(0x01);
    wire::write_varint(&mut bytes, 0); // proc
    wire::write_varint(&mut bytes, 0); // interval
    wire::write_varint(&mut bytes, 0); // count: zero is never written
    wire::write_varint(&mut bytes, 0); // payload_len
    bytes.extend_from_slice(&[0u8; 4]);
    assert!(matches!(decode(&bytes).unwrap_err().root(), CodecError::Malformed(_)));
}

#[test]
fn varint_overflow_in_the_header_is_rejected() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&[0xff; 10]); // num_procs varint runs past 64 bits
    assert!(matches!(decode(&bytes), Err(CodecError::VarintOverflow(_))));
}

#[test]
fn out_of_order_access_blocks_are_rejected() {
    // Two access blocks in one interval with descending processors break the
    // canonical replay shape.
    let mut bytes = valid_header(2);
    for proc in [1u64, 0u64] {
        let mut payload = Vec::new();
        wire::write_varint(&mut payload, 1); // one read run
        wire::encode_deltas([3u32], &mut payload);
        bytes.push(0x01);
        wire::write_varint(&mut bytes, proc);
        wire::write_varint(&mut bytes, 0);
        wire::write_varint(&mut bytes, 1);
        wire::write_varint(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(&wire::payload_checksum(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
    }
    let err = decode(&bytes).unwrap_err();
    assert!(matches!(err.root(), CodecError::Malformed(_)));
    let (block, _) = err.location().expect("block errors carry context");
    assert_eq!(block, 1, "the second (out-of-order) block is the failing one");
}

/// A one-interval corpus over [`layout`] whose only access block reads `object`.
fn corpus_reading(object: u32) -> Vec<u8> {
    let mut bytes = valid_header(1);
    let mut payload = Vec::new();
    wire::write_varint(&mut payload, 1); // one read run
    wire::encode_deltas([object], &mut payload);
    bytes.push(0x01);
    wire::write_varint(&mut bytes, 0); // proc
    wire::write_varint(&mut bytes, 0); // interval
    wire::write_varint(&mut bytes, 1); // count
    wire::write_varint(&mut bytes, payload.len() as u64);
    bytes.extend_from_slice(&wire::payload_checksum(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes.push(0x03); // barrier
    bytes.push(0x00); // end marker
    bytes
}

#[test]
fn object_ids_past_the_header_object_count_are_rejected() {
    // Consumers size their state to the header's layout, so an id inside the 31-bit
    // range but past the array is corrupt input: a typed error, never a panic.
    let last = layout().num_objects as u32 - 1;
    assert!(decode(&corpus_reading(last)).is_ok(), "the last object is in range");
    let err = decode(&corpus_reading(last + 1)).unwrap_err();
    assert!(
        matches!(err.root(), CodecError::ObjectOutOfRange { object: 64, limit: 64 }),
        "got {err:?}"
    );
    assert_eq!(err.location(), Some((0, 10)), "the access block right after the header");
    assert!(err.to_string().contains("outside the object array 0..64"), "{err}");
}

#[test]
fn errors_render_without_panicking() {
    // Display/Error impls are part of the typed-error contract the CLI leans on.
    let bytes = sample_corpus();
    for len in 0..bytes.len() {
        if let Err(e) = decode(&bytes[..len]) {
            let rendered = e.to_string();
            assert!(!rendered.is_empty());
            let _ = std::error::Error::source(&e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_byte_flips_never_panic(
        flips in prop::collection::vec((any::<u16>(), any::<u8>()), 1..8),
    ) {
        // Arbitrary mutations may still decode (flipping a header varint can yield a
        // different-but-valid corpus); the invariant is that the reader always returns
        // instead of panicking, and that a success is internally consistent.
        let mut bytes = sample_corpus();
        let len = bytes.len();
        for &(pos, value) in &flips {
            bytes[pos as usize % len] = value;
        }
        if let Ok(summary) = decode(&bytes) {
            prop_assert!(summary.file_bytes <= bytes.len() as u64);
        }
    }

    #[test]
    fn random_garbage_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = decode(&bytes);
    }

    #[test]
    fn truncation_of_random_corpora_never_panics(
        raw in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u32>()), 0..120),
        cut_ratio in 0u8..=100,
    ) {
        // Record an arbitrary event script, then cut the corpus at an arbitrary point:
        // decode must fail with Truncated (or succeed only for the full length).
        let mut writer = CorpusWriter::new(Vec::new(), layout(), 3).unwrap();
        for &(selector, proc, object) in &raw {
            let proc = proc as usize % 3;
            let object = object as usize % layout().num_objects;
            match selector % 8 {
                0..=4 => writer.record(proc, smtrace::Access::read(object)),
                5 => writer.write(proc, object),
                6 => writer.lock(proc, 0),
                _ => writer.barrier(),
            }
        }
        let (bytes, _) = writer.finish_into_inner().unwrap();
        let cut = (bytes.len() * cut_ratio as usize) / 100;
        let result = decode(&bytes[..cut]);
        if cut == bytes.len() {
            prop_assert!(result.is_ok());
        } else {
            prop_assert!(matches!(result.unwrap_err().root(), CodecError::Truncated(_)));
        }
    }
}
