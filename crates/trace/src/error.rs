//! Typed errors for the framed trace format.
//!
//! Every variant carries the byte offset in the input stream where the
//! problem was detected, so a failed read pinpoints the corrupt
//! region of a multi-gigabyte capture without re-reading it.

use std::fmt;
use std::io;

/// A decoding failure, with the byte offset where it was detected.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying reader failed.
    Io {
        /// Stream offset at which the read was attempted.
        offset: u64,
        /// The OS-level cause.
        error: io::Error,
    },
    /// The file does not start with [`crate::format::FILE_MAGIC`].
    BadMagic {
        /// Always 0: the magic is the first thing read.
        offset: u64,
    },
    /// The header declares a version this crate does not speak.
    BadVersion {
        /// Offset of the version field.
        offset: u64,
        /// The declared version.
        version: u32,
    },
    /// The header's records-per-chunk is zero or exceeds
    /// [`crate::format::MAX_CHUNK_RECORDS`].
    BadChunkCapacity {
        /// Offset of the chunk-capacity field.
        offset: u64,
        /// The declared capacity.
        chunk_records: u32,
    },
    /// The stream ended before a complete header, chunk header, or
    /// payload could be read.
    Truncated {
        /// Offset at which more bytes were expected.
        offset: u64,
        /// What was being read when the stream ended.
        context: &'static str,
    },
    /// A chunk does not start with [`crate::format::CHUNK_MAGIC`].
    BadChunkMagic {
        /// Offset of the malformed chunk header.
        offset: u64,
    },
    /// A chunk declares more records than the header's per-chunk
    /// capacity, or zero records.
    OversizedChunk {
        /// Offset of the chunk header.
        offset: u64,
        /// The declared record count.
        records: u32,
        /// The per-chunk capacity from the file header.
        limit: u32,
    },
    /// A chunk's payload length is impossible for its record count
    /// (below one byte per record or above the worst-case encoding).
    BadPayloadLength {
        /// Offset of the chunk header.
        offset: u64,
        /// The declared payload length.
        len: u32,
        /// The declared record count.
        records: u32,
    },
    /// The payload's CRC-32 does not match the chunk header.
    ChecksumMismatch {
        /// Offset of the payload.
        offset: u64,
        /// Checksum declared in the chunk header.
        expected: u32,
        /// Checksum computed over the payload actually read.
        actual: u32,
    },
    /// A record has an unknown kind tag.
    BadRecord {
        /// Offset of the offending kind byte.
        offset: u64,
        /// The unknown tag.
        kind: u8,
    },
    /// The payload ended mid-record.
    RecordTruncated {
        /// Offset of the truncated record.
        offset: u64,
    },
    /// The payload has bytes left over after its declared record count.
    TrailingPayload {
        /// Offset of the first leftover byte.
        offset: u64,
        /// Leftover byte count.
        bytes: u64,
    },
    /// The stream ended cleanly but delivered fewer records than the
    /// file header promised.
    MissingRecords {
        /// Offset of end-of-stream.
        offset: u64,
        /// Records promised by the file header.
        declared: u64,
        /// Records actually decoded.
        delivered: u64,
    },
    /// Bytes remain after the declared record count was delivered.
    TrailingData {
        /// Offset of the first trailing byte.
        offset: u64,
        /// Trailing bytes observed before reporting (may be a lower
        /// bound for non-seekable streams).
        bytes: u64,
    },
}

impl ReadError {
    /// Byte offset in the input stream where the error was detected.
    pub fn offset(&self) -> u64 {
        match *self {
            ReadError::Io { offset, .. }
            | ReadError::BadMagic { offset }
            | ReadError::BadVersion { offset, .. }
            | ReadError::BadChunkCapacity { offset, .. }
            | ReadError::Truncated { offset, .. }
            | ReadError::BadChunkMagic { offset }
            | ReadError::OversizedChunk { offset, .. }
            | ReadError::BadPayloadLength { offset, .. }
            | ReadError::ChecksumMismatch { offset, .. }
            | ReadError::BadRecord { offset, .. }
            | ReadError::RecordTruncated { offset }
            | ReadError::TrailingPayload { offset, .. }
            | ReadError::MissingRecords { offset, .. }
            | ReadError::TrailingData { offset, .. } => offset,
        }
    }
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io { offset, error } => {
                write!(f, "I/O error at byte {offset}: {error}")
            }
            ReadError::BadMagic { offset } => {
                write!(f, "bad file magic at byte {offset} (not a BGTRACE2 trace)")
            }
            ReadError::BadVersion { offset, version } => {
                write!(f, "unsupported trace version {version} at byte {offset}")
            }
            ReadError::BadChunkCapacity {
                offset,
                chunk_records,
            } => write!(
                f,
                "impossible chunk capacity {chunk_records} at byte {offset}"
            ),
            ReadError::Truncated { offset, context } => {
                write!(f, "truncated {context} at byte {offset}")
            }
            ReadError::BadChunkMagic { offset } => {
                write!(f, "bad chunk magic at byte {offset}")
            }
            ReadError::OversizedChunk {
                offset,
                records,
                limit,
            } => write!(
                f,
                "chunk at byte {offset} declares {records} record(s), limit {limit}"
            ),
            ReadError::BadPayloadLength {
                offset,
                len,
                records,
            } => write!(
                f,
                "chunk at byte {offset} declares impossible payload length {len} for {records} record(s)"
            ),
            ReadError::ChecksumMismatch {
                offset,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch at byte {offset}: header says {expected:#010x}, payload hashes to {actual:#010x}"
            ),
            ReadError::BadRecord { offset, kind } => {
                write!(f, "unknown record kind {kind} at byte {offset}")
            }
            ReadError::RecordTruncated { offset } => {
                write!(f, "record truncated at byte {offset}")
            }
            ReadError::TrailingPayload { offset, bytes } => {
                write!(f, "{bytes} stray payload byte(s) at byte {offset}")
            }
            ReadError::MissingRecords {
                offset,
                declared,
                delivered,
            } => write!(
                f,
                "stream ended at byte {offset} after {delivered} of {declared} declared record(s)"
            ),
            ReadError::TrailingData { offset, bytes } => {
                write!(f, "{bytes} trailing byte(s) at byte {offset}")
            }
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_offset() {
        let errors = [
            ReadError::Io {
                offset: 17,
                error: io::Error::other("boom"),
            },
            ReadError::BadMagic { offset: 0 },
            ReadError::BadVersion {
                offset: 8,
                version: 9,
            },
            ReadError::BadChunkCapacity {
                offset: 12,
                chunk_records: 0,
            },
            ReadError::Truncated {
                offset: 24,
                context: "chunk header",
            },
            ReadError::BadChunkMagic { offset: 24 },
            ReadError::OversizedChunk {
                offset: 24,
                records: 99,
                limit: 4,
            },
            ReadError::BadPayloadLength {
                offset: 24,
                len: 1,
                records: 44,
            },
            ReadError::ChecksumMismatch {
                offset: 40,
                expected: 1,
                actual: 2,
            },
            ReadError::BadRecord {
                offset: 41,
                kind: 250,
            },
            ReadError::RecordTruncated { offset: 43 },
            ReadError::TrailingPayload {
                offset: 50,
                bytes: 3,
            },
            ReadError::MissingRecords {
                offset: 60,
                declared: 10,
                delivered: 4,
            },
            ReadError::TrailingData {
                offset: 70,
                bytes: 12,
            },
        ];
        for err in errors {
            let shown = err.to_string();
            assert!(
                shown.contains(&format!("byte {}", err.offset())),
                "{shown:?} lost its byte offset"
            );
        }
    }
}
