//! Chunked trace writer.
//!
//! Streams records out in CRC-protected chunks, holding at most one
//! chunk's payload in memory — the capture-side mirror of the reader's
//! bounded-residency guarantee. The file header's `total_records` field
//! is written as a placeholder and patched on [`TraceWriter::finish`],
//! so captures of unknown length need no second pass.

use std::io::{self, Seek, SeekFrom, Write};

use bingo_sim::Instr;

use crate::crc32::crc32;
use crate::format::{encode_record, CHUNK_MAGIC, FILE_MAGIC, KIND_OP, MAX_CHUNK_RECORDS, VERSION};

/// Byte offset of `total_records` in the file header.
const TOTAL_FIELD_OFFSET: u64 = 16;

/// Writes a framed trace to any `Write + Seek` sink.
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    inner: W,
    chunk_records: u32,
    payload: Vec<u8>,
    in_chunk: u32,
    total: u64,
    finished: bool,
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Creates a writer and emits the file header.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_records` is zero or exceeds
    /// [`MAX_CHUNK_RECORDS`] — a caller bug, not an input condition.
    pub fn new(mut inner: W, chunk_records: u32) -> io::Result<Self> {
        assert!(
            (1..=MAX_CHUNK_RECORDS).contains(&chunk_records),
            "chunk_records must be in 1..={MAX_CHUNK_RECORDS}, got {chunk_records}"
        );
        inner.write_all(&FILE_MAGIC)?;
        inner.write_all(&VERSION.to_le_bytes())?;
        inner.write_all(&chunk_records.to_le_bytes())?;
        inner.write_all(&0u64.to_le_bytes())?; // total_records placeholder
        Ok(TraceWriter {
            inner,
            chunk_records,
            payload: Vec::new(),
            in_chunk: 0,
            total: 0,
            finished: false,
        })
    }

    /// Appends one record, flushing a chunk when it fills.
    pub fn push(&mut self, instr: Instr) -> io::Result<()> {
        debug_assert!(!self.finished, "push after finish");
        encode_record(&mut self.payload, instr);
        self.in_chunk += 1;
        self.total += 1;
        if self.in_chunk == self.chunk_records {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Appends `n` [`Instr::Op`] records, flushing each chunk as it fills:
    /// the bytes written are exactly those of `n` [`Self::push`] calls.
    pub fn push_ops(&mut self, mut n: u64) -> io::Result<()> {
        debug_assert!(!self.finished, "push after finish");
        while n > 0 {
            let take = n.min((self.chunk_records - self.in_chunk) as u64) as u32;
            self.payload
                .resize(self.payload.len() + take as usize, KIND_OP);
            self.in_chunk += take;
            self.total += take as u64;
            n -= take as u64;
            if self.in_chunk == self.chunk_records {
                self.flush_chunk()?;
            }
        }
        Ok(())
    }

    /// Records written so far.
    pub fn total_records(&self) -> u64 {
        self.total
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.in_chunk == 0 {
            return Ok(());
        }
        self.inner.write_all(&CHUNK_MAGIC)?;
        self.inner.write_all(&self.in_chunk.to_le_bytes())?;
        self.inner
            .write_all(&(self.payload.len() as u32).to_le_bytes())?;
        self.inner.write_all(&crc32(&self.payload).to_le_bytes())?;
        self.inner.write_all(&self.payload)?;
        self.payload.clear();
        self.in_chunk = 0;
        Ok(())
    }

    /// Flushes the final partial chunk, patches the header's record
    /// count, and returns the total records written.
    pub fn finish(mut self) -> io::Result<u64> {
        self.flush_chunk()?;
        self.finished = true;
        let end = self.inner.stream_position()?;
        self.inner.seek(SeekFrom::Start(TOTAL_FIELD_OFFSET))?;
        self.inner.write_all(&self.total.to_le_bytes())?;
        self.inner.seek(SeekFrom::Start(end))?;
        self.inner.flush()?;
        Ok(self.total)
    }
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use bingo_sim::{Addr, Pc};

    use super::*;
    use crate::reader::TraceReader;

    fn sample(n: u64) -> Instr {
        match n % 3 {
            0 => Instr::Op,
            1 => Instr::Load {
                pc: Pc::new(0x400 + n),
                addr: Addr::new(n * 64),
                dep: if n.is_multiple_of(5) {
                    Some((n % 4) as u8)
                } else {
                    None
                },
            },
            _ => Instr::Store {
                pc: Pc::new(0x500 + n),
                addr: Addr::new(n * 64 + 8),
            },
        }
    }

    #[test]
    fn write_read_round_trip_with_partial_final_chunk() {
        let mut file = Cursor::new(Vec::new());
        let mut w = TraceWriter::new(&mut file, 7).expect("header");
        for n in 0..23 {
            w.push(sample(n)).expect("push");
        }
        assert_eq!(w.finish().expect("finish"), 23);

        let bytes = file.into_inner();
        let mut r = TraceReader::new(Cursor::new(&bytes)).expect("open");
        let header = r.header();
        assert_eq!(header.total_records, 23);
        assert_eq!(header.chunk_records, 7);
        for n in 0..23 {
            assert_eq!(r.next_instr().expect("read"), Some(sample(n)), "record {n}");
        }
        assert_eq!(r.next_instr().expect("clean end"), None);
        let report = r.report();
        assert_eq!(report.delivered_records, 23);
        assert!(report.is_clean());
    }

    /// Writes `prefix` records one by one, then `n` ops, then a load,
    /// with the ops either pushed singly or in one `push_ops` call.
    fn image_with_op_run(prefix: u64, n: u64, chunk: u32, bulk: bool) -> Vec<u8> {
        let mut file = Cursor::new(Vec::new());
        let mut w = TraceWriter::new(&mut file, chunk).expect("header");
        for k in 0..prefix {
            w.push(sample(k + 1)).expect("push");
        }
        if bulk {
            w.push_ops(n).expect("push_ops");
        } else {
            for _ in 0..n {
                w.push(Instr::Op).expect("push");
            }
        }
        w.push(sample(1)).expect("push");
        w.finish().expect("finish");
        file.into_inner()
    }

    #[test]
    fn push_ops_is_byte_identical_to_single_pushes_across_chunks() {
        let chunk = 7u32;
        for prefix in [0, 1, 6] {
            for n in [0, 1, 6, 7, 8, 13, 14, 3 * chunk as u64 + 1] {
                assert_eq!(
                    image_with_op_run(prefix, n, chunk, true),
                    image_with_op_run(prefix, n, chunk, false),
                    "prefix {prefix}, {n} ops"
                );
            }
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut file = Cursor::new(Vec::new());
        let w = TraceWriter::new(&mut file, 4).expect("header");
        assert_eq!(w.finish().expect("finish"), 0);
        let mut r = TraceReader::new(Cursor::new(file.into_inner())).expect("open");
        assert_eq!(r.next_instr().expect("end"), None);
        assert!(r.report().is_clean());
    }

    #[test]
    #[should_panic(expected = "chunk_records must be")]
    fn zero_chunk_capacity_is_a_caller_bug() {
        let _ = TraceWriter::new(Cursor::new(Vec::new()), 0);
    }
}
