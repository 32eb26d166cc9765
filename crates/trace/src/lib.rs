//! # bingo-trace — hardened streaming trace ingestion
//!
//! Everything the reproduction needs to record, replay, and distrust
//! instruction traces. Trace files are treated as untrusted input end to
//! end: the on-disk format is framed into CRC-32-protected chunks, the
//! reader holds at most one chunk in memory regardless of trace length,
//! and every way a file can lie — truncation, bit rot, reordered or
//! forged chunks, impossible records — maps to a typed error with a
//! byte offset, and the read stops there.
//!
//! * [`mod@format`] — the framed `.btrc` layout and record encoding.
//! * [`crc32`] — hand-rolled IEEE CRC-32 (the workspace is offline; no
//!   external crates).
//! * [`reader`] / [`writer`] — bounded-memory streaming codec.
//! * [`replay`] — [`ReplaySource`], the simulator-facing
//!   [`bingo_sim::InstrSource`] that loops a trace file, plus
//!   [`capture_source`] for recording live generators.
//! * [`corrupt`] — seeded corruption operators for the adversarial
//!   decoder fuzzer.
//!
//! ## Quickstart
//!
//! ```
//! use std::io::Cursor;
//! use bingo_sim::Instr;
//! use bingo_trace::{TraceReader, TraceWriter};
//!
//! let mut file = Cursor::new(Vec::new());
//! let mut writer = TraceWriter::new(&mut file, 256).unwrap();
//! for _ in 0..1000 {
//!     writer.push(Instr::Op).unwrap();
//! }
//! writer.finish().unwrap();
//!
//! let mut reader = TraceReader::new(Cursor::new(file.into_inner())).unwrap();
//! let mut n = 0;
//! while let Some(instr) = reader.next_instr().unwrap() {
//!     assert_eq!(instr, Instr::Op);
//!     n += 1;
//! }
//! assert_eq!(n, 1000);
//! assert_eq!(reader.report().delivered_records, 1000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod corrupt;
pub mod crc32;
pub mod error;
pub mod format;
pub mod reader;
pub mod replay;
pub mod writer;

pub use corrupt::{apply, plan_for_seed, CorruptionOp};
pub use error::ReadError;
pub use format::{TraceHeader, DEFAULT_CHUNK_RECORDS, MAX_CHUNK_RECORDS};
pub use reader::TraceReader;
pub use replay::{capture_source, ReplaySource};
pub use writer::TraceWriter;
