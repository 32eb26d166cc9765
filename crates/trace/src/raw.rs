//! Best-effort reader for *raw* record streams: a bare concatenation of
//! v1-encoded records with no header, no chunking, and no checksums —
//! the shape of a ChampSim-style flat trace.
//!
//! With no framing there is nothing to resynchronize on, so recovery is
//! necessarily weaker than the framed reader's: decoding stops at the
//! first undecodable byte and reports its offset. Use
//! [`crate::writer::TraceWriter`] to convert a raw stream into the
//! framed format once, then get checksums and quarantine for free.

use std::io::Read;

use bingo_sim::{IngestReport, Instr};

use crate::error::ReadError;
use crate::format::{decode_record, RecordDecode, MAX_RECORD_BYTES};

/// Streaming decoder over a raw (headerless) record stream.
#[derive(Debug)]
pub struct RawReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    start: usize,
    offset: u64,
    eof: bool,
    done: bool,
    report: IngestReport,
}

impl<R: Read> RawReader<R> {
    /// Wraps a byte stream of bare records.
    pub fn new(inner: R) -> Self {
        RawReader {
            inner,
            buf: Vec::with_capacity(MAX_RECORD_BYTES as usize),
            start: 0,
            offset: 0,
            eof: false,
            done: false,
            report: IngestReport::default(),
        }
    }

    /// Ingestion accounting so far (raw streams never quarantine; only
    /// `delivered_records` moves).
    pub fn report(&self) -> IngestReport {
        self.report
    }

    fn avail(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Tops the lookahead up to one worst-case record.
    fn refill(&mut self) -> Result<(), ReadError> {
        while self.avail() < MAX_RECORD_BYTES as usize && !self.eof {
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let old_len = self.buf.len();
            self.buf.resize(MAX_RECORD_BYTES as usize, 0);
            match self.inner.read(&mut self.buf[old_len..]) {
                Ok(0) => {
                    self.buf.truncate(old_len);
                    self.eof = true;
                }
                Ok(n) => self.buf.truncate(old_len + n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                    self.buf.truncate(old_len);
                }
                Err(error) => {
                    self.buf.truncate(old_len);
                    return Err(ReadError::Io {
                        offset: self.offset + self.avail() as u64,
                        error,
                    });
                }
            }
        }
        Ok(())
    }

    /// Decodes the next record. `Ok(None)` is a clean end exactly at a
    /// record boundary; anything else is a typed error with the offset
    /// of the first byte that could not be decoded.
    pub fn next_instr(&mut self) -> Result<Option<Instr>, ReadError> {
        if self.done {
            return Ok(None);
        }
        self.refill()?;
        if self.avail() == 0 {
            self.done = true;
            return Ok(None);
        }
        match decode_record(&self.buf[self.start..]) {
            RecordDecode::Ok(instr, n) => {
                self.start += n;
                self.offset += n as u64;
                self.report.delivered_records += 1;
                Ok(Some(instr))
            }
            RecordDecode::BadKind(kind) => {
                self.done = true;
                Err(ReadError::BadRecord {
                    offset: self.offset,
                    kind,
                })
            }
            RecordDecode::Truncated => {
                self.done = true;
                Err(ReadError::RecordTruncated {
                    offset: self.offset,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use bingo_sim::{Addr, Pc};

    use super::*;
    use crate::format::encode_record;

    fn records() -> Vec<Instr> {
        vec![
            Instr::Op,
            Instr::Load {
                pc: Pc::new(0x400),
                addr: Addr::new(0x1000),
                dep: Some(1),
            },
            Instr::Store {
                pc: Pc::new(0x404),
                addr: Addr::new(0x2000),
            },
            Instr::Op,
        ]
    }

    fn encode_all(instrs: &[Instr]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for &i in instrs {
            encode_record(&mut bytes, i);
        }
        bytes
    }

    #[test]
    fn decodes_a_clean_raw_stream() {
        let bytes = encode_all(&records());
        let mut r = RawReader::new(Cursor::new(&bytes));
        for want in records() {
            assert_eq!(r.next_instr().expect("decode"), Some(want));
        }
        assert_eq!(r.next_instr().expect("clean end"), None);
        assert_eq!(r.report().delivered_records, 4);
    }

    #[test]
    fn stops_at_first_bad_byte_with_offset() {
        let mut bytes = encode_all(&records());
        let poison_at = bytes.len();
        bytes.push(0x7E); // not a record kind
        let mut r = RawReader::new(Cursor::new(&bytes));
        for _ in 0..4 {
            r.next_instr().expect("prefix decodes");
        }
        match r.next_instr() {
            Err(ReadError::BadRecord { offset, kind: 0x7E }) => {
                assert_eq!(offset, poison_at as u64);
            }
            other => panic!("expected BadRecord, got {other:?}"),
        }
        // The error is sticky.
        assert_eq!(r.next_instr().expect("done"), None);
    }

    #[test]
    fn mid_record_eof_is_typed() {
        let bytes = encode_all(&records());
        let cut = bytes.len() - 3; // final Op is 1 byte; cut into the store
        let mut r = RawReader::new(Cursor::new(&bytes[..cut]));
        r.next_instr().expect("op");
        r.next_instr().expect("load");
        match r.next_instr() {
            Err(ReadError::RecordTruncated { offset }) => {
                assert_eq!(offset, 19); // op (1) + load (18)
            }
            other => panic!("expected RecordTruncated, got {other:?}"),
        }
    }
}
