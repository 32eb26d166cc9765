//! Streaming, bounded-memory reader for framed traces.
//!
//! [`TraceReader`] treats its input as untrusted: every length field is
//! range-checked before a single byte is allocated for it, every payload
//! is checksummed before a single record is decoded from it, and memory
//! residency never exceeds one chunk (plus its 16-byte header) no matter
//! how long the trace is or what a corrupt header claims.
//!
//! Two recovery policies:
//!
//! * [`Policy::Strict`] — the first malformed byte yields a typed
//!   [`ReadError`] carrying its byte offset. Nothing after the error is
//!   trusted; subsequent calls return `Ok(None)`.
//! * [`Policy::Lenient`] — corrupt bytes are *quarantined*, not fatal:
//!   the reader scans forward to the next plausible chunk boundary
//!   (the `BGCK` magic), verifies the candidate's checksum, and resumes.
//!   Every skipped byte, abandoned chunk, and undelivered record is
//!   counted in the [`IngestReport`]; the reader never panics and only
//!   fails on genuine I/O errors.
//!
//! Op runs have a fast path: [`TraceReader::leading_ops`] and
//! [`TraceReader::take_ops`] count and consume leading op records a word
//! at a time. The fast path never crosses a chunk: it works only inside
//! the current CRC-validated chunk and returns 0 at its end, so every
//! chunk load, check and recovery decision stays on
//! [`TraceReader::next_instr`].

use std::io::Read;

use bingo_sim::{audit_assert, IngestReport, Instr};

use crate::crc32::crc32;
use crate::error::ReadError;
use crate::format::{
    decode_record, RecordDecode, TraceHeader, CHUNK_HEADER_BYTES, CHUNK_MAGIC, FILE_HEADER_BYTES,
    FILE_MAGIC, KIND_OP, MAX_CHUNK_RECORDS, MAX_RECORD_BYTES, VERSION,
};

/// What the reader does when it meets bytes it cannot trust.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Policy {
    /// First error aborts the read with a typed [`ReadError`].
    Strict,
    /// Skip to the next valid chunk boundary, counting everything
    /// quarantined; never fail except on I/O errors.
    Lenient,
}

impl Policy {
    /// Parses `"strict"` / `"lenient"` (the spelling used by CLI flags
    /// and environment knobs).
    pub fn parse(value: &str) -> Option<Policy> {
        match value.to_ascii_lowercase().as_str() {
            "strict" => Some(Policy::Strict),
            "lenient" => Some(Policy::Lenient),
            _ => None,
        }
    }
}

/// Streaming reader over a framed trace.
///
/// Generic over any [`Read`]; [`crate::replay::ReplaySource`] wraps it
/// around a buffered file for simulator replay.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    inner: R,
    policy: Policy,
    /// `None` only in lenient mode when the file header itself was
    /// corrupt; chunk capacity then falls back to [`MAX_CHUNK_RECORDS`]
    /// and the total record count is unknown.
    header: Option<TraceHeader>,
    /// Bytes consumed from `inner` so far (= stream offset of `buf[start]`).
    offset: u64,
    /// Read-ahead buffer; at most one chunk plus its header resident.
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    start: usize,
    /// True once `inner` returned end-of-stream.
    eof: bool,
    /// Records still to decode from the current validated chunk.
    chunk_records_left: u32,
    /// Payload bytes still unconsumed in the current validated chunk.
    chunk_payload_left: usize,
    report: IngestReport,
    /// High-water mark of `buf`'s capacity.
    peak_resident: usize,
    done: bool,
    /// Strict mode: an error was already surfaced; the stream is dead.
    failed: bool,
}

impl<R: Read> TraceReader<R> {
    /// Opens a reader and parses the file header.
    ///
    /// In strict mode a malformed header is an immediate error. In
    /// lenient mode only I/O errors surface here; header corruption is
    /// quarantined and the reader resynchronizes on chunk magics.
    pub fn new(inner: R, policy: Policy) -> Result<Self, ReadError> {
        let mut reader = TraceReader {
            inner,
            policy,
            header: None,
            offset: 0,
            buf: Vec::new(),
            start: 0,
            eof: false,
            chunk_records_left: 0,
            chunk_payload_left: 0,
            report: IngestReport::default(),
            peak_resident: 0,
            done: false,
            failed: false,
        };
        match reader.parse_file_header() {
            Ok(()) => Ok(reader),
            Err(err) => match (policy, &err) {
                (_, ReadError::Io { .. }) | (Policy::Strict, _) => Err(err),
                // Lenient: leave the unparsable prefix in `buf`; the
                // chunk loop will quarantine it and hunt for `BGCK`.
                (Policy::Lenient, _) => Ok(reader),
            },
        }
    }

    /// The parsed file header, if one was readable.
    pub fn header(&self) -> Option<TraceHeader> {
        self.header
    }

    /// Ingestion accounting so far.
    pub fn report(&self) -> IngestReport {
        self.report
    }

    /// High-water mark of the read-ahead buffer, in bytes. Stays within
    /// [`Self::resident_bound`] for the life of the reader — the
    /// format's bounded-memory guarantee, asserted under `audit`.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident
    }

    /// The documented residency bound: one chunk header plus the
    /// worst-case payload for the effective chunk capacity (or the file
    /// header, whichever is larger).
    pub fn resident_bound(&self) -> u64 {
        let cap = self
            .header
            .map_or(MAX_CHUNK_RECORDS, |h| h.chunk_records.max(1));
        FILE_HEADER_BYTES.max(CHUNK_HEADER_BYTES + cap as u64 * MAX_RECORD_BYTES as u64)
    }

    /// Decodes the next record.
    ///
    /// `Ok(None)` is clean end-of-trace. In strict mode, the first
    /// corruption returns `Err` once; later calls return `Ok(None)`.
    pub fn next_instr(&mut self) -> Result<Option<Instr>, ReadError> {
        loop {
            if self.done || self.failed {
                return Ok(None);
            }
            if self.chunk_records_left > 0 {
                match self.decode_one() {
                    Ok(instr) => return Ok(Some(instr)),
                    Err(err) => {
                        if self.policy == Policy::Strict {
                            self.failed = true;
                            return Err(err);
                        }
                        // CRC passed but the content is impossible: the
                        // chunk is a forgery. Abandon the rest of it.
                        self.abandon_chunk();
                    }
                }
            } else if self.chunk_payload_left > 0 {
                // All declared records delivered but payload bytes remain.
                if self.policy == Policy::Strict {
                    self.failed = true;
                    return Err(ReadError::TrailingPayload {
                        offset: self.offset,
                        bytes: self.chunk_payload_left as u64,
                    });
                }
                let stray = self.chunk_payload_left;
                self.chunk_payload_left = 0;
                self.quarantine(stray);
            } else {
                match self.load_chunk() {
                    Ok(true) => {}
                    Ok(false) => return Ok(None),
                    Err(err) => {
                        self.failed = true;
                        return Err(err);
                    }
                }
            }
        }
    }

    /// Number of consecutive op records at the head of the current chunk,
    /// without consuming them. Never loads a chunk: 0 at a chunk boundary
    /// and once the reader has ended or failed.
    pub fn leading_ops(&self) -> usize {
        self.chunk_op_run(usize::MAX)
    }

    /// Consumes up to `max` leading op records of the current chunk and
    /// returns how many were taken — exactly what that many
    /// [`Self::next_instr`] calls returning [`Instr::Op`] would do. Like
    /// [`Self::leading_ops`] it stops at the chunk's end, so loading,
    /// validating and error reporting stay on the `next_instr` path.
    pub fn take_ops(&mut self, max: usize) -> usize {
        let n = self.chunk_op_run(max);
        if n > 0 {
            self.consume(n);
            self.chunk_payload_left -= n;
            self.chunk_records_left -= n as u32;
            self.report.delivered_records += n as u64;
        }
        n
    }

    // ---- internals ------------------------------------------------------

    /// Leading [`KIND_OP`] bytes from the record boundary, at most `max`
    /// and never past the current chunk's remaining records or payload.
    /// Scans a little-endian `u64` at a time: the first nonzero word's
    /// trailing zero bits locate the first non-op byte.
    fn chunk_op_run(&self, max: usize) -> usize {
        if self.done || self.failed {
            return 0;
        }
        let limit = max
            .min(self.chunk_records_left as usize)
            .min(self.chunk_payload_left);
        let bytes = &self.buf[self.start..self.start + limit];
        let mut words = bytes.chunks_exact(8);
        let mut run = 0;
        for w in &mut words {
            let word = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            if word != 0 {
                return run + (word.trailing_zeros() / 8) as usize;
            }
            run += 8;
        }
        run + words
            .remainder()
            .iter()
            .take_while(|&&b| b == KIND_OP)
            .count()
    }

    fn avail(&self) -> usize {
        self.buf.len() - self.start
    }

    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.avail());
        self.start += n;
        self.offset += n as u64;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
    }

    fn quarantine(&mut self, n: usize) {
        self.report.quarantined_bytes += n as u64;
        self.consume(n);
    }

    /// Ensures at least `want` bytes are available (or end-of-stream).
    /// Grows `buf` by exactly what is needed so capacity — and therefore
    /// [`Self::peak_resident_bytes`] — tracks the true requirement.
    fn refill(&mut self, want: usize) -> Result<usize, ReadError> {
        while self.avail() < want && !self.eof {
            // Drop the consumed prefix before growing.
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let need = want - self.avail();
            let old_len = self.buf.len();
            self.buf.reserve_exact(need);
            self.buf.resize(old_len + need, 0);
            let mut filled = 0;
            while filled < need {
                match self.inner.read(&mut self.buf[old_len + filled..]) {
                    Ok(0) => {
                        self.eof = true;
                        break;
                    }
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        self.buf.truncate(old_len + filled);
                        return Err(ReadError::Io {
                            offset: self.offset + self.avail() as u64,
                            error: e,
                        });
                    }
                }
            }
            self.buf.truncate(old_len + filled);
        }
        self.peak_resident = self.peak_resident.max(self.buf.capacity());
        audit_assert!(
            self.peak_resident as u64 <= self.resident_bound(),
            "reader residency {} exceeds bound {}",
            self.peak_resident,
            self.resident_bound()
        );
        Ok(self.avail())
    }

    fn parse_file_header(&mut self) -> Result<(), ReadError> {
        let avail = self.refill(FILE_HEADER_BYTES as usize)?;
        if avail < FILE_HEADER_BYTES as usize {
            return Err(ReadError::Truncated {
                offset: self.offset + avail as u64,
                context: "file header",
            });
        }
        let h = &self.buf[self.start..self.start + FILE_HEADER_BYTES as usize];
        if h[0..8] != FILE_MAGIC {
            return Err(ReadError::BadMagic {
                offset: self.offset,
            });
        }
        let version = u32::from_le_bytes(h[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(ReadError::BadVersion {
                offset: self.offset + 8,
                version,
            });
        }
        let chunk_records = u32::from_le_bytes(h[12..16].try_into().expect("4 bytes"));
        if chunk_records == 0 || chunk_records > MAX_CHUNK_RECORDS {
            return Err(ReadError::BadChunkCapacity {
                offset: self.offset + 12,
                chunk_records,
            });
        }
        let total_records = u64::from_le_bytes(h[16..24].try_into().expect("8 bytes"));
        self.header = Some(TraceHeader {
            version,
            chunk_records,
            total_records,
        });
        self.consume(FILE_HEADER_BYTES as usize);
        Ok(())
    }

    /// Decodes one record from the current chunk. Caller guarantees
    /// `chunk_records_left > 0`.
    fn decode_one(&mut self) -> Result<Instr, ReadError> {
        let payload = &self.buf[self.start..self.start + self.chunk_payload_left];
        match decode_record(payload) {
            RecordDecode::Ok(instr, n) => {
                self.consume(n);
                self.chunk_payload_left -= n;
                self.chunk_records_left -= 1;
                self.report.delivered_records += 1;
                Ok(instr)
            }
            RecordDecode::BadKind(kind) => Err(ReadError::BadRecord {
                offset: self.offset,
                kind,
            }),
            RecordDecode::Truncated => Err(ReadError::RecordTruncated {
                offset: self.offset,
            }),
        }
    }

    /// Lenient mode: drop the rest of the current chunk after an
    /// impossible record.
    fn abandon_chunk(&mut self) {
        // Declared counts came from a CRC-valid header, so the
        // undelivered remainder is an exact quarantine count.
        self.report.quarantined_records += self.chunk_records_left as u64;
        self.report.skipped_chunks += 1;
        self.chunk_records_left = 0;
        let stray = self.chunk_payload_left;
        self.chunk_payload_left = 0;
        self.quarantine(stray);
    }

    /// Effective per-chunk record capacity.
    fn cap(&self) -> u32 {
        self.header.map_or(MAX_CHUNK_RECORDS, |h| h.chunk_records)
    }

    /// Reads and validates the next chunk header + payload. Returns
    /// `Ok(true)` with chunk state armed, or `Ok(false)` on clean end.
    fn load_chunk(&mut self) -> Result<bool, ReadError> {
        loop {
            if let Some(h) = self.header {
                if self.report.delivered_records >= h.total_records {
                    return self.finish_at_total();
                }
            }
            let avail = self.refill(CHUNK_HEADER_BYTES as usize)?;
            if avail == 0 {
                return self.finish_at_eof();
            }
            if avail < CHUNK_HEADER_BYTES as usize {
                match self.policy {
                    Policy::Strict => {
                        return Err(ReadError::Truncated {
                            offset: self.offset + avail as u64,
                            context: "chunk header",
                        })
                    }
                    Policy::Lenient => {
                        self.quarantine(avail);
                        return self.finish_at_eof();
                    }
                }
            }
            let h = &self.buf[self.start..self.start + CHUNK_HEADER_BYTES as usize];
            if h[0..4] != CHUNK_MAGIC {
                match self.policy {
                    Policy::Strict => {
                        return Err(ReadError::BadChunkMagic {
                            offset: self.offset,
                        })
                    }
                    Policy::Lenient => {
                        self.resync()?;
                        continue;
                    }
                }
            }
            let records = u32::from_le_bytes(h[4..8].try_into().expect("4 bytes"));
            let payload_len = u32::from_le_bytes(h[8..12].try_into().expect("4 bytes"));
            let declared_crc = u32::from_le_bytes(h[12..16].try_into().expect("4 bytes"));
            if records == 0 || records > self.cap() {
                match self.policy {
                    Policy::Strict => {
                        return Err(ReadError::OversizedChunk {
                            offset: self.offset,
                            records,
                            limit: self.cap(),
                        })
                    }
                    Policy::Lenient => {
                        self.report.skipped_chunks += 1;
                        self.resync()?;
                        continue;
                    }
                }
            }
            if let Some(hdr) = self.header {
                let remaining = hdr.total_records - self.report.delivered_records;
                if records as u64 > remaining {
                    match self.policy {
                        Policy::Strict => {
                            return Err(ReadError::OversizedChunk {
                                offset: self.offset,
                                records,
                                limit: remaining.min(hdr.chunk_records as u64) as u32,
                            })
                        }
                        Policy::Lenient => {
                            self.report.skipped_chunks += 1;
                            self.resync()?;
                            continue;
                        }
                    }
                }
            }
            if (payload_len as u64) < records as u64
                || payload_len as u64 > records as u64 * MAX_RECORD_BYTES as u64
            {
                match self.policy {
                    Policy::Strict => {
                        return Err(ReadError::BadPayloadLength {
                            offset: self.offset,
                            len: payload_len,
                            records,
                        })
                    }
                    Policy::Lenient => {
                        self.report.skipped_chunks += 1;
                        self.resync()?;
                        continue;
                    }
                }
            }
            let frame = CHUNK_HEADER_BYTES as usize + payload_len as usize;
            let avail = self.refill(frame)?;
            if avail < frame {
                match self.policy {
                    Policy::Strict => {
                        return Err(ReadError::Truncated {
                            offset: self.offset + avail as u64,
                            context: "chunk payload",
                        })
                    }
                    Policy::Lenient => {
                        self.report.skipped_chunks += 1;
                        self.quarantine(avail);
                        return self.finish_at_eof();
                    }
                }
            }
            let payload_at = self.start + CHUNK_HEADER_BYTES as usize;
            let actual_crc = crc32(&self.buf[payload_at..payload_at + payload_len as usize]);
            if actual_crc != declared_crc {
                match self.policy {
                    Policy::Strict => {
                        return Err(ReadError::ChecksumMismatch {
                            offset: self.offset + CHUNK_HEADER_BYTES,
                            expected: declared_crc,
                            actual: actual_crc,
                        })
                    }
                    Policy::Lenient => {
                        // The chunk header passed every structural check
                        // (magic, record count in range, payload bounds)
                        // and only the payload CRC failed, so the declared
                        // record count is the best mid-stream estimate of
                        // what is being dropped — a consumer that stops
                        // before end-of-stream still sees the loss.
                        // [`Self::finish_at_eof`] supersedes this tally
                        // with the exact header-derived count when the
                        // pass runs to completion.
                        self.report.quarantined_records += records as u64;
                        self.report.skipped_chunks += 1;
                        self.resync()?;
                        continue;
                    }
                }
            }
            self.consume(CHUNK_HEADER_BYTES as usize);
            self.chunk_records_left = records;
            self.chunk_payload_left = payload_len as usize;
            return Ok(true);
        }
    }

    /// All declared records delivered: strict verifies nothing trails.
    fn finish_at_total(&mut self) -> Result<bool, ReadError> {
        self.done = true;
        if self.policy == Policy::Strict {
            let trailing_at = self.offset;
            let mut trailing = 0u64;
            let step = self.resident_bound().min(4096) as usize;
            loop {
                let avail = self.refill(step)?;
                if avail == 0 {
                    break;
                }
                trailing += avail as u64;
                self.consume(avail);
            }
            if trailing > 0 {
                return Err(ReadError::TrailingData {
                    offset: trailing_at,
                    bytes: trailing,
                });
            }
        }
        Ok(false)
    }

    /// The stream ended before the declared record count was reached.
    fn finish_at_eof(&mut self) -> Result<bool, ReadError> {
        self.done = true;
        if let Some(h) = self.header {
            let missing = h
                .total_records
                .saturating_sub(self.report.delivered_records);
            match self.policy {
                Policy::Strict if missing > 0 => {
                    return Err(ReadError::MissingRecords {
                        offset: self.offset,
                        declared: h.total_records,
                        delivered: self.report.delivered_records,
                    })
                }
                // The file header is trusted (it parsed), so the exact
                // undelivered count is known — supersede any partial
                // per-chunk tallies with it.
                Policy::Lenient => self.report.quarantined_records = missing,
                _ => {}
            }
        }
        Ok(false)
    }

    /// Lenient mode: skip at least one byte, then scan forward until the
    /// buffer starts with a chunk magic (or the stream ends). Residency
    /// stays bounded: the scan window never exceeds one chunk header.
    fn resync(&mut self) -> Result<(), ReadError> {
        self.quarantine(1);
        loop {
            let avail = self.refill(CHUNK_HEADER_BYTES as usize)?;
            if avail < CHUNK_MAGIC.len() {
                // Too little left for any chunk; the outer loop's header
                // read will quarantine the remainder at end-of-stream.
                return Ok(());
            }
            let window = &self.buf[self.start..self.start + avail];
            if let Some(at) = window
                .windows(CHUNK_MAGIC.len())
                .position(|w| w == CHUNK_MAGIC)
            {
                self.quarantine(at);
                return Ok(());
            }
            // No magic: everything but a possible straddling suffix is junk.
            self.quarantine(avail - (CHUNK_MAGIC.len() - 1));
            if self.eof {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::{Cursor, Seek, SeekFrom, Write};

    use bingo_sim::{Addr, Pc};

    use super::*;
    use crate::writer::TraceWriter;

    /// A varied, well-formed trace image: `records` records in chunks of
    /// `chunk_records`.
    fn image(records: u64, chunk_records: u32) -> Vec<u8> {
        let mut file = Cursor::new(Vec::new());
        let mut w = TraceWriter::new(&mut file, chunk_records).expect("header");
        for n in 0..records {
            let instr = match n % 3 {
                0 => Instr::Op,
                1 => Instr::Load {
                    pc: Pc::new(0x400 + n),
                    addr: Addr::new(n * 64),
                    dep: None,
                },
                _ => Instr::Store {
                    pc: Pc::new(0x500 + n),
                    addr: Addr::new(n * 64 + 8),
                },
            };
            w.push(instr).expect("push");
        }
        w.finish().expect("finish");
        file.into_inner()
    }

    fn drain_strict(bytes: &[u8]) -> Result<IngestReport, ReadError> {
        let mut r = TraceReader::new(Cursor::new(bytes), Policy::Strict)?;
        while r.next_instr()?.is_some() {}
        Ok(r.report())
    }

    fn drain_lenient(bytes: &[u8]) -> IngestReport {
        let mut r = TraceReader::new(Cursor::new(bytes), Policy::Lenient).expect("lenient open");
        loop {
            match r.next_instr() {
                Ok(Some(_)) => {}
                Ok(None) => return r.report(),
                Err(e) => panic!("lenient mode must not fail on corruption: {e}"),
            }
        }
    }

    // ---- every error variant, constructed from a crafted file ----------

    #[test]
    fn bad_magic() {
        let mut bytes = image(8, 4);
        bytes[0] = b'X';
        match drain_strict(&bytes) {
            Err(ReadError::BadMagic { offset: 0 }) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        // Lenient survives even header corruption by hunting for chunks.
        let report = drain_lenient(&bytes);
        assert_eq!(report.delivered_records, 8);
        assert!(report.quarantined_bytes > 0, "header bytes were skipped");
    }

    #[test]
    fn bad_version() {
        let mut bytes = image(8, 4);
        bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
        match drain_strict(&bytes) {
            Err(ReadError::BadVersion {
                offset: 8,
                version: 7,
            }) => {}
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn bad_chunk_capacity() {
        let mut bytes = image(8, 4);
        bytes[12..16].copy_from_slice(&0u32.to_le_bytes());
        match drain_strict(&bytes) {
            Err(ReadError::BadChunkCapacity {
                offset: 12,
                chunk_records: 0,
            }) => {}
            other => panic!("expected BadChunkCapacity, got {other:?}"),
        }
    }

    #[test]
    fn truncated_file_header() {
        let bytes = &image(8, 4)[..10];
        match drain_strict(bytes) {
            Err(ReadError::Truncated {
                offset: 10,
                context: "file header",
            }) => {}
            other => panic!("expected Truncated header, got {other:?}"),
        }
    }

    #[test]
    fn truncated_chunk_header_and_payload() {
        let full = image(8, 4);
        // Cut inside the first chunk header.
        match drain_strict(&full[..FILE_HEADER_BYTES as usize + 7]) {
            Err(ReadError::Truncated {
                context: "chunk header",
                offset,
            }) => assert_eq!(offset, FILE_HEADER_BYTES + 7),
            other => panic!("expected Truncated chunk header, got {other:?}"),
        }
        // Cut inside the first chunk payload (mid-record EOF).
        let cut = FILE_HEADER_BYTES as usize + CHUNK_HEADER_BYTES as usize + 5;
        match drain_strict(&full[..cut]) {
            Err(ReadError::Truncated {
                context: "chunk payload",
                offset,
            }) => assert_eq!(offset, cut as u64),
            other => panic!("expected Truncated payload, got {other:?}"),
        }
    }

    #[test]
    fn bad_chunk_magic() {
        let mut bytes = image(8, 4);
        bytes[FILE_HEADER_BYTES as usize] = b'!';
        match drain_strict(&bytes) {
            Err(ReadError::BadChunkMagic { offset }) => assert_eq!(offset, FILE_HEADER_BYTES),
            other => panic!("expected BadChunkMagic, got {other:?}"),
        }
    }

    #[test]
    fn oversized_chunk() {
        let mut bytes = image(8, 4);
        let at = FILE_HEADER_BYTES as usize + 4;
        bytes[at..at + 4].copy_from_slice(&99u32.to_le_bytes());
        match drain_strict(&bytes) {
            Err(ReadError::OversizedChunk {
                records: 99,
                limit: 4,
                offset,
            }) => assert_eq!(offset, FILE_HEADER_BYTES),
            other => panic!("expected OversizedChunk, got {other:?}"),
        }
    }

    #[test]
    fn chunk_overrunning_declared_total_is_oversized() {
        // Patch total_records down to 2; the first 4-record chunk now
        // promises more than the file does.
        let mut bytes = image(8, 4);
        bytes[16..24].copy_from_slice(&2u64.to_le_bytes());
        match drain_strict(&bytes) {
            Err(ReadError::OversizedChunk {
                records: 4,
                limit: 2,
                ..
            }) => {}
            other => panic!("expected OversizedChunk vs total, got {other:?}"),
        }
    }

    #[test]
    fn bad_payload_length() {
        let mut bytes = image(8, 4);
        let at = FILE_HEADER_BYTES as usize + 8;
        bytes[at..at + 4].copy_from_slice(&1u32.to_le_bytes()); // 4 records in 1 byte
        match drain_strict(&bytes) {
            Err(ReadError::BadPayloadLength {
                len: 1, records: 4, ..
            }) => {}
            other => panic!("expected BadPayloadLength, got {other:?}"),
        }
    }

    #[test]
    fn checksum_mismatch() {
        let mut bytes = image(8, 4);
        let payload_at = FILE_HEADER_BYTES as usize + CHUNK_HEADER_BYTES as usize;
        bytes[payload_at] ^= 0x40;
        match drain_strict(&bytes) {
            Err(ReadError::ChecksumMismatch { offset, .. }) => {
                assert_eq!(offset, payload_at as u64);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        // Lenient: first chunk quarantined, later chunks still decode.
        let report = drain_lenient(&bytes);
        assert_eq!(report.delivered_records, 4, "second chunk survives");
        assert_eq!(report.quarantined_records, 4, "first chunk's records");
        assert!(report.skipped_chunks >= 1);
    }

    #[test]
    fn bad_record_and_trailing_payload_despite_valid_crc() {
        // Forge a CRC-valid chunk whose payload is garbage: kind 9.
        let mut file = Cursor::new(Vec::new());
        file.write_all(&FILE_MAGIC).unwrap();
        file.write_all(&VERSION.to_le_bytes()).unwrap();
        file.write_all(&4u32.to_le_bytes()).unwrap();
        file.write_all(&1u64.to_le_bytes()).unwrap();
        let payload = [9u8, 0u8];
        file.write_all(&CHUNK_MAGIC).unwrap();
        file.write_all(&1u32.to_le_bytes()).unwrap();
        file.write_all(&(payload.len() as u32).to_le_bytes())
            .unwrap();
        file.write_all(&crate::crc32::crc32(&payload).to_le_bytes())
            .unwrap();
        file.write_all(&payload).unwrap();
        let bytes = file.into_inner();
        let payload_at = FILE_HEADER_BYTES + CHUNK_HEADER_BYTES;
        match drain_strict(&bytes) {
            Err(ReadError::BadRecord { kind: 9, offset }) => assert_eq!(offset, payload_at),
            other => panic!("expected BadRecord, got {other:?}"),
        }
        // Same forgery but with a valid record followed by a stray byte.
        let mut bytes2 = bytes;
        let p = payload_at as usize;
        bytes2[p] = 0; // Instr::Op, leaving one stray payload byte
        let crc = crate::crc32::crc32(&bytes2[p..p + 2]);
        bytes2[p - 4..p].copy_from_slice(&crc.to_le_bytes());
        match drain_strict(&bytes2) {
            Err(ReadError::TrailingPayload { bytes: 1, .. }) => {}
            other => panic!("expected TrailingPayload, got {other:?}"),
        }
        // Lenient quarantines the forged chunk and finishes.
        let report = drain_lenient(&bytes2);
        assert_eq!(report.delivered_records, 1);
        assert_eq!(report.quarantined_bytes, 1);
        // The op fast path stops at the declared record count, not at the
        // last zero byte, and leaves the stray byte to `next_instr`.
        let mut r = TraceReader::new(Cursor::new(&bytes2), Policy::Strict).expect("open");
        assert_eq!(r.leading_ops(), 0, "no chunk loaded yet");
        assert_eq!(r.next_instr().expect("op"), Some(Instr::Op));
        assert_eq!(r.take_ops(9), 0, "chunk's one record already taken");
        assert!(matches!(
            r.next_instr(),
            Err(ReadError::TrailingPayload { bytes: 1, .. })
        ));
        assert_eq!(r.take_ops(9), 0, "failed reader takes nothing");
    }

    #[test]
    fn take_ops_stops_at_non_ops_and_chunk_ends() {
        // Records cycle op, load, store; with 4-record chunks the first
        // chunk is [op, load, store, op] and the second [load, store, op,
        // load].
        let bytes = image(8, 4);
        let mut r = TraceReader::new(Cursor::new(&bytes), Policy::Strict).expect("open");
        assert_eq!(r.take_ops(9), 0, "fast path never loads a chunk");
        assert_eq!(r.next_instr().expect("op"), Some(Instr::Op));
        assert_eq!(r.leading_ops(), 0, "a load heads the stream");
        r.next_instr().expect("load");
        r.next_instr().expect("store");
        assert_eq!(r.leading_ops(), 1);
        assert_eq!(r.take_ops(9), 1, "capped by the chunk's last record");
        assert_eq!(r.leading_ops(), 0, "chunk boundary");
        assert_eq!(r.report().delivered_records, 4);
    }

    #[test]
    fn record_truncated_inside_crc_valid_payload() {
        // CRC-valid chunk declaring 1 record whose payload cuts a load
        // short: kind byte only.
        let mut file = Cursor::new(Vec::new());
        file.write_all(&FILE_MAGIC).unwrap();
        file.write_all(&VERSION.to_le_bytes()).unwrap();
        file.write_all(&4u32.to_le_bytes()).unwrap();
        file.write_all(&1u64.to_le_bytes()).unwrap();
        let payload = [1u8]; // a Load needs 18 bytes
        file.write_all(&CHUNK_MAGIC).unwrap();
        file.write_all(&1u32.to_le_bytes()).unwrap();
        file.write_all(&(payload.len() as u32).to_le_bytes())
            .unwrap();
        file.write_all(&crate::crc32::crc32(&payload).to_le_bytes())
            .unwrap();
        file.write_all(&payload).unwrap();
        match drain_strict(&file.into_inner()) {
            Err(ReadError::RecordTruncated { offset }) => {
                assert_eq!(offset, FILE_HEADER_BYTES + CHUNK_HEADER_BYTES);
            }
            other => panic!("expected RecordTruncated, got {other:?}"),
        }
    }

    #[test]
    fn missing_records() {
        let full = image(8, 4);
        // Keep header + first chunk only; header still promises 8.
        let first_chunk_end = {
            let payload_len = u32::from_le_bytes(
                full[FILE_HEADER_BYTES as usize + 8..FILE_HEADER_BYTES as usize + 12]
                    .try_into()
                    .unwrap(),
            );
            FILE_HEADER_BYTES as usize + CHUNK_HEADER_BYTES as usize + payload_len as usize
        };
        match drain_strict(&full[..first_chunk_end]) {
            Err(ReadError::MissingRecords {
                declared: 8,
                delivered: 4,
                ..
            }) => {}
            other => panic!("expected MissingRecords, got {other:?}"),
        }
        // Lenient reports the exact shortfall.
        let report = drain_lenient(&full[..first_chunk_end]);
        assert_eq!(report.delivered_records, 4);
        assert_eq!(report.quarantined_records, 4);
    }

    #[test]
    fn trailing_data() {
        let mut bytes = image(8, 4);
        bytes.extend_from_slice(b"junk after the last chunk");
        match drain_strict(&bytes) {
            Err(ReadError::TrailingData { bytes: 25, offset }) => {
                assert_eq!(offset, (bytes.len() - 25) as u64);
            }
            other => panic!("expected TrailingData, got {other:?}"),
        }
        // Lenient stops at the declared total and ignores the junk.
        let report = drain_lenient(&bytes);
        assert_eq!(report.delivered_records, 8);
    }

    #[test]
    fn io_error_carries_offset() {
        #[derive(Debug)]
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        match TraceReader::new(Broken, Policy::Lenient) {
            Err(ReadError::Io { offset: 0, .. }) => {}
            other => panic!("expected Io even in lenient mode, got {other:?}"),
        }
    }

    // ---- recovery and accounting ----------------------------------------

    #[test]
    fn strict_error_is_sticky() {
        let mut bytes = image(8, 4);
        bytes[FILE_HEADER_BYTES as usize + CHUNK_HEADER_BYTES as usize] ^= 1;
        let mut r = TraceReader::new(Cursor::new(&bytes), Policy::Strict).expect("open");
        assert!(r.next_instr().is_err());
        for _ in 0..3 {
            assert_eq!(r.next_instr().expect("sticky done"), None);
        }
    }

    #[test]
    fn lenient_resyncs_across_a_garbage_gap() {
        let full = image(12, 4);
        // Stomp 11 bytes in the middle of the second chunk's payload.
        let second_at = {
            let p = u32::from_le_bytes(
                full[FILE_HEADER_BYTES as usize + 8..FILE_HEADER_BYTES as usize + 12]
                    .try_into()
                    .unwrap(),
            ) as usize;
            FILE_HEADER_BYTES as usize + CHUNK_HEADER_BYTES as usize + p
        };
        let mut bytes = full;
        for (i, b) in bytes[second_at + 20..second_at + 31].iter_mut().enumerate() {
            *b = 0xA5 ^ i as u8;
        }
        let report = drain_lenient(&bytes);
        // Chunks 1 and 3 survive; chunk 2 is quarantined.
        assert_eq!(report.delivered_records, 8);
        assert_eq!(report.quarantined_records, 4);
        assert!(report.skipped_chunks >= 1);
        assert!(report.quarantined_bytes > 0);
        assert!(!report.is_clean());
    }

    #[test]
    fn lenient_on_all_garbage_delivers_nothing_but_never_fails() {
        let garbage: Vec<u8> = (0..997u32).map(|i| (i * 131) as u8).collect();
        let report = drain_lenient(&garbage);
        assert_eq!(report.delivered_records, 0);
        assert_eq!(report.quarantined_bytes, 997);
    }

    #[test]
    fn memory_stays_bounded_by_one_chunk() {
        // 64-record chunks, 100 chunks: the file is ~100x larger than
        // the residency bound.
        let bytes = image(6400, 64);
        let mut r = TraceReader::new(Cursor::new(&bytes), Policy::Strict).expect("open");
        while r.next_instr().expect("clean trace").is_some() {}
        let bound = r.resident_bound();
        assert!(
            bytes.len() as u64 > 10 * bound,
            "trace must dwarf the bound"
        );
        assert!(
            (r.peak_resident_bytes() as u64) <= bound,
            "peak residency {} exceeds one-chunk bound {bound}",
            r.peak_resident_bytes()
        );
    }

    #[test]
    fn memory_stays_bounded_under_lenient_resync() {
        let mut bytes = image(6400, 64);
        // Corrupt every third chunk's payload byte 0 to force resyncs.
        let mut at = FILE_HEADER_BYTES as usize;
        let mut i = 0;
        while at + CHUNK_HEADER_BYTES as usize <= bytes.len() {
            let p = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap()) as usize;
            if i % 3 == 0 {
                bytes[at + CHUNK_HEADER_BYTES as usize] ^= 0xFF;
            }
            at += CHUNK_HEADER_BYTES as usize + p;
            i += 1;
        }
        let mut r = TraceReader::new(Cursor::new(&bytes), Policy::Lenient).expect("open");
        while r.next_instr().expect("lenient never errors").is_some() {}
        assert!(r.report().skipped_chunks >= 30, "corruption was exercised");
        assert!(
            (r.peak_resident_bytes() as u64) <= r.resident_bound(),
            "resync must not grow residency past the bound"
        );
    }

    #[test]
    fn writer_patches_total_after_seek() {
        // Regression guard for the header patch: a reader of the raw
        // bytes sees the true total, not the placeholder.
        let mut file = Cursor::new(Vec::new());
        let mut w = TraceWriter::new(&mut file, 4).expect("header");
        for _ in 0..5 {
            w.push(Instr::Op).expect("push");
        }
        w.finish().expect("finish");
        file.seek(SeekFrom::Start(0)).unwrap();
        let bytes = file.into_inner();
        assert_eq!(
            u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
            5,
            "total_records must be patched in place"
        );
    }
}
