//! The framed binary trace format (`.btrc`), version 1.
//!
//! An unframed record stream holds the whole instruction stream in one
//! blob: a multi-gigabyte capture would have to be resident in full to be
//! checked, and a single flipped byte poisons everything after it. The
//! framed format fixes both:
//!
//! ```text
//! file header (24 bytes):
//!   magic         [u8; 8] = "BGTRACE2"
//!   version       u32     = 1
//!   chunk_records u32         records per full chunk (1..=MAX_CHUNK_RECORDS)
//!   total_records u64         records in the whole trace
//! chunks, until total_records are delivered:
//!   magic       [u8; 4] = "BGCK"
//!   records     u32         records in this chunk (1..=chunk_records;
//!                           only the final chunk may be short)
//!   payload_len u32         payload bytes (records..=records*MAX_RECORD_BYTES)
//!   crc32       u32         CRC-32 (IEEE) of the payload bytes
//!   payload     [u8; payload_len]
//! ```
//!
//! Records inside a payload use the v1 encoding, little-endian:
//!
//! ```text
//! kind u8   (0 = op, 1 = load, 2 = store)
//! loads:  pc u64, addr u64, dep u8 (0xFF = none)
//! stores: pc u64, addr u64
//! ```
//!
//! Every multi-byte integer is little-endian. The chunk framing gives a
//! reader two properties the flat format cannot: memory is bounded by
//! one chunk regardless of trace length, and corruption is detected by
//! the per-chunk CRC before any record is trusted, so the read fails at
//! the damaged chunk's byte offset.

use bingo_sim::{Addr, Instr, Pc};

/// File magic. A file that does not start with it — a raw record stream,
/// or any other format — is a typed error, never a silent misparse.
pub const FILE_MAGIC: [u8; 8] = *b"BGTRACE2";

/// Format version this crate reads and writes.
pub const VERSION: u32 = 1;

/// Chunk magic: a chunk header that does not start with it is a typed
/// error at that header's offset.
pub const CHUNK_MAGIC: [u8; 4] = *b"BGCK";

/// File-header size in bytes.
pub const FILE_HEADER_BYTES: u64 = 24;

/// Chunk-header size in bytes.
pub const CHUNK_HEADER_BYTES: u64 = 16;

/// Upper bound on `chunk_records`: caps reader memory at
/// `MAX_CHUNK_RECORDS * MAX_RECORD_BYTES` (18 MB) no matter what a
/// corrupt header claims.
pub const MAX_CHUNK_RECORDS: u32 = 1 << 20;

/// Largest record encoding (a load: kind + pc + addr + dep).
pub const MAX_RECORD_BYTES: u32 = 18;

/// Default records per chunk (64 KB-ish chunks for op-heavy streams).
pub const DEFAULT_CHUNK_RECORDS: u32 = 16 * 1024;

/// Record kind tags.
pub const KIND_OP: u8 = 0;
/// Load record tag.
pub const KIND_LOAD: u8 = 1;
/// Store record tag.
pub const KIND_STORE: u8 = 2;

/// The parsed file header.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version (currently always [`VERSION`]).
    pub version: u32,
    /// Records per full chunk.
    pub chunk_records: u32,
    /// Records in the whole trace.
    pub total_records: u64,
}

/// Appends one record's encoding to `out`.
pub fn encode_record(out: &mut Vec<u8>, instr: Instr) {
    match instr {
        Instr::Op => out.push(KIND_OP),
        Instr::Load { pc, addr, dep } => {
            out.push(KIND_LOAD);
            out.extend_from_slice(&pc.raw().to_le_bytes());
            out.extend_from_slice(&addr.raw().to_le_bytes());
            out.push(dep.map_or(0xFF, |c| c.min(0xFE)));
        }
        Instr::Store { pc, addr } => {
            out.push(KIND_STORE);
            out.extend_from_slice(&pc.raw().to_le_bytes());
            out.extend_from_slice(&addr.raw().to_le_bytes());
        }
    }
}

/// Outcome of decoding one record from a payload slice.
#[derive(Debug, PartialEq, Eq)]
pub enum RecordDecode {
    /// A record and the number of payload bytes it consumed.
    Ok(Instr, usize),
    /// The payload ended mid-record.
    Truncated,
    /// The kind tag is not a known record.
    BadKind(u8),
}

/// Decodes the record starting at `payload[0]`.
pub fn decode_record(payload: &[u8]) -> RecordDecode {
    let Some(&kind) = payload.first() else {
        return RecordDecode::Truncated;
    };
    let take_u64 = |at: usize| -> Option<u64> {
        payload
            .get(at..at + 8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    };
    match kind {
        KIND_OP => RecordDecode::Ok(Instr::Op, 1),
        KIND_LOAD => {
            let (Some(pc), Some(addr), Some(&dep)) = (take_u64(1), take_u64(9), payload.get(17))
            else {
                return RecordDecode::Truncated;
            };
            RecordDecode::Ok(
                Instr::Load {
                    pc: Pc::new(pc),
                    addr: Addr::new(addr),
                    dep: if dep == 0xFF { None } else { Some(dep) },
                },
                18,
            )
        }
        KIND_STORE => {
            let (Some(pc), Some(addr)) = (take_u64(1), take_u64(9)) else {
                return RecordDecode::Truncated;
            };
            RecordDecode::Ok(
                Instr::Store {
                    pc: Pc::new(pc),
                    addr: Addr::new(addr),
                },
                17,
            )
        }
        k => RecordDecode::BadKind(k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Instr> {
        vec![
            Instr::Op,
            Instr::Load {
                pc: Pc::new(0x400),
                addr: Addr::new(0x1000),
                dep: None,
            },
            Instr::Load {
                pc: Pc::new(0x404),
                addr: Addr::new(u64::MAX),
                dep: Some(7),
            },
            Instr::Store {
                pc: Pc::new(0x408),
                addr: Addr::new(0x3000),
            },
        ]
    }

    #[test]
    fn record_round_trip() {
        for instr in samples() {
            let mut buf = Vec::new();
            encode_record(&mut buf, instr);
            assert!(buf.len() <= MAX_RECORD_BYTES as usize);
            assert_eq!(decode_record(&buf), RecordDecode::Ok(instr, buf.len()));
        }
    }

    #[test]
    fn truncation_and_bad_kind_are_typed() {
        let mut buf = Vec::new();
        encode_record(
            &mut buf,
            Instr::Load {
                pc: Pc::new(1),
                addr: Addr::new(2),
                dep: None,
            },
        );
        for cut in 1..buf.len() {
            assert_eq!(decode_record(&buf[..cut]), RecordDecode::Truncated);
        }
        assert_eq!(decode_record(&[9u8]), RecordDecode::BadKind(9));
        assert_eq!(decode_record(&[]), RecordDecode::Truncated);
    }
}
