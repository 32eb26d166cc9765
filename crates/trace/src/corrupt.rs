//! Deterministic corruption operators for adversarial decoder testing.
//!
//! A corruption plan ([`plan_for_seed`]) is a seeded, reproducible list
//! of byte-level mutations — truncations, bit flips, chunk swaps, garbage
//! prefixes, mid-record amputations, shortened record counts — applied to
//! a well-formed trace image. The fuzz driver asserts that every corrupted
//! image either decodes or yields a typed error carrying its byte offset;
//! a plan that breaks that contract is shrunk to a minimal reproducer with
//! `bingo_oracle`'s delta-debugging loop, which is why the plan is a plain
//! `Vec` of small self-describing ops.

use bingo_rng::{Rng, SeedableRng, SmallRng};

use crate::format::{CHUNK_HEADER_BYTES, CHUNK_MAGIC, FILE_HEADER_BYTES};

/// One byte-level mutation of a trace image.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CorruptionOp {
    /// Cut the image to `keep` bytes (mid-record and mid-header EOFs).
    Truncate {
        /// Bytes to keep from the front.
        keep: u64,
    },
    /// Flip bit `bit` of the byte at `offset` (offsets wrap modulo the
    /// image length, so shrunk plans stay applicable).
    BitFlip {
        /// Target byte offset.
        offset: u64,
        /// Bit index 0..8.
        bit: u8,
    },
    /// Swap chunk `a` with chunk `b` (indices into the chunk sequence;
    /// out-of-range indices are ignored). Reordering preserves every
    /// CRC, probing the reader's positional bookkeeping instead.
    SwapChunks {
        /// First chunk index.
        a: u32,
        /// Second chunk index.
        b: u32,
    },
    /// Overwrite the first `len` bytes with a pseudo-random pattern
    /// derived from `seed` (garbage file/chunk headers).
    GarbageHeader {
        /// Bytes to scramble from offset 0.
        len: u32,
        /// Pattern seed.
        seed: u64,
    },
    /// Lower every chunk's declared record count by `fewer` (never below
    /// 1). The count sits outside the CRC-covered payload, so each chunk
    /// stays CRC-valid while its payload now outlasts its records — a
    /// forgery that probes the reader's per-chunk record bound (a chunk
    /// whose payload exceeds the lower count's worst-case size fails the
    /// payload-length check instead). [`plan_for_seed`] never draws it.
    ShortenChunks {
        /// Records to drop from each chunk's declared count.
        fewer: u32,
    },
}

/// Applies `ops` in order to a copy of `image`.
pub fn apply(image: &[u8], ops: &[CorruptionOp]) -> Vec<u8> {
    let mut bytes = image.to_vec();
    for &op in ops {
        match op {
            CorruptionOp::Truncate { keep } => {
                bytes.truncate(keep.min(bytes.len() as u64) as usize);
            }
            CorruptionOp::BitFlip { offset, bit } => {
                if !bytes.is_empty() {
                    let at = (offset % bytes.len() as u64) as usize;
                    bytes[at] ^= 1 << (bit % 8);
                }
            }
            CorruptionOp::SwapChunks { a, b } => {
                let chunks = chunk_spans(&bytes);
                let (a, b) = (a as usize, b as usize);
                if a < chunks.len() && b < chunks.len() && a != b {
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    let (ls, le) = chunks[lo];
                    let (hs, he) = chunks[hi];
                    let mut rebuilt = Vec::with_capacity(bytes.len());
                    rebuilt.extend_from_slice(&bytes[..ls]);
                    rebuilt.extend_from_slice(&bytes[hs..he]);
                    rebuilt.extend_from_slice(&bytes[le..hs]);
                    rebuilt.extend_from_slice(&bytes[ls..le]);
                    rebuilt.extend_from_slice(&bytes[he..]);
                    bytes = rebuilt;
                }
            }
            CorruptionOp::GarbageHeader { len, seed } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                let end = (len as usize).min(bytes.len());
                for byte in &mut bytes[..end] {
                    *byte = rng.gen_range(0..=255u8);
                }
            }
            CorruptionOp::ShortenChunks { fewer } => {
                for (start, _) in chunk_spans(&bytes) {
                    let field = start + 4..start + 8;
                    let records =
                        u32::from_le_bytes(bytes[field.clone()].try_into().expect("4 bytes"));
                    let shortened = records.saturating_sub(fewer).max(1);
                    bytes[field].copy_from_slice(&shortened.to_le_bytes());
                }
            }
        }
    }
    bytes
}

/// Byte spans `(start, end)` of each chunk in a well-formed image,
/// walked structurally (header sizes, not magic scanning). Stops at the
/// first span that doesn't parse, so partially corrupt images yield the
/// intact prefix.
fn chunk_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut at = FILE_HEADER_BYTES as usize;
    while at + CHUNK_HEADER_BYTES as usize <= bytes.len() {
        if bytes[at..at + 4] != CHUNK_MAGIC {
            break;
        }
        let payload_len =
            u32::from_le_bytes(bytes[at + 8..at + 12].try_into().expect("4 bytes")) as usize;
        let end = at + CHUNK_HEADER_BYTES as usize + payload_len;
        if end > bytes.len() {
            break;
        }
        spans.push((at, end));
        at = end;
    }
    spans
}

/// Draws a random corruption plan of 1–4 ops for `seed` against an
/// image of `image_len` bytes. Deterministic: the same seed and length
/// always produce the same plan.
pub fn plan_for_seed(seed: u64, image_len: u64) -> Vec<CorruptionOp> {
    // Domain-separation tag keeps this stream disjoint from other seeded
    // streams in the workspace that share small integer seeds.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xB1B0_7ACE_5EED_C0DE);
    let ops = rng.gen_range(1..=4usize);
    (0..ops).map(|_| draw_op(&mut rng, image_len)).collect()
}

fn draw_op(rng: &mut SmallRng, image_len: u64) -> CorruptionOp {
    let len = image_len.max(1);
    match rng.gen_range(0..5u32) {
        0 => CorruptionOp::Truncate {
            keep: rng.gen_range(0..len),
        },
        1 => CorruptionOp::BitFlip {
            offset: rng.gen_range(0..len),
            bit: rng.gen_range(0..8u8),
        },
        2 => CorruptionOp::SwapChunks {
            a: rng.gen_range(0..32u32),
            b: rng.gen_range(0..32u32),
        },
        3 => CorruptionOp::GarbageHeader {
            len: rng.gen_range(1..=FILE_HEADER_BYTES as u32 + CHUNK_HEADER_BYTES as u32),
            seed: rng.next_u64(),
        },
        // Mid-record EOF: truncate just past a plausible record start.
        _ => CorruptionOp::Truncate {
            keep: rng
                .gen_range(0..len)
                .saturating_add(rng.gen_range(1..18u64))
                .min(len.saturating_sub(1)),
        },
    }
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use bingo_sim::Instr;

    use super::*;
    use crate::writer::TraceWriter;

    fn image() -> Vec<u8> {
        let mut file = Cursor::new(Vec::new());
        let mut w = TraceWriter::new(&mut file, 4).expect("header");
        for n in 0..16u64 {
            // Distinct addresses so distinct chunks have distinct bytes.
            w.push(Instr::Store {
                pc: bingo_sim::Pc::new(0x400 + n),
                addr: bingo_sim::Addr::new(n * 64),
            })
            .expect("push");
        }
        w.finish().expect("finish");
        file.into_inner()
    }

    #[test]
    fn plans_are_deterministic() {
        let img = image();
        for seed in 0..50 {
            let a = plan_for_seed(seed, img.len() as u64);
            let b = plan_for_seed(seed, img.len() as u64);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(apply(&img, &a), apply(&img, &b), "seed {seed}");
        }
    }

    #[test]
    fn swap_preserves_length_and_content_multiset() {
        let img = image();
        let swapped = apply(&img, &[CorruptionOp::SwapChunks { a: 0, b: 3 }]);
        assert_eq!(swapped.len(), img.len());
        assert_ne!(swapped, img);
        let mut a = img.clone();
        let mut b = swapped.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "swap must only reorder bytes");
    }

    #[test]
    fn truncate_and_flip_do_what_they_say() {
        let img = image();
        assert_eq!(
            apply(&img, &[CorruptionOp::Truncate { keep: 10 }]).len(),
            10
        );
        let flipped = apply(&img, &[CorruptionOp::BitFlip { offset: 3, bit: 2 }]);
        assert_eq!(flipped[3], img[3] ^ 4);
        assert_eq!(&flipped[..3], &img[..3]);
        assert_eq!(&flipped[4..], &img[4..]);
    }

    #[test]
    fn shortened_chunks_stay_crc_valid_but_carry_stray_payload() {
        // Op-heavy chunks, so three records' worst-case size still covers
        // the four-record payload and the length check passes.
        let mut file = Cursor::new(Vec::new());
        let mut w = TraceWriter::new(&mut file, 4).expect("header");
        for _ in 0..16 {
            w.push(Instr::Op).expect("push");
        }
        w.finish().expect("finish");
        let img = file.into_inner();

        let forged = apply(&img, &[CorruptionOp::ShortenChunks { fewer: 1 }]);
        assert_eq!(forged.len(), img.len());
        let spans = chunk_spans(&forged);
        assert_eq!(spans.len(), 4, "framing still walks");
        for (start, _) in spans {
            let records = u32::from_le_bytes(forged[start + 4..start + 8].try_into().unwrap());
            assert_eq!(records, 3, "chunk at {start}");
        }
        let mut r =
            crate::reader::TraceReader::new(Cursor::new(&forged)).expect("header untouched");
        let err = loop {
            match r.next_instr() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("forgery decoded cleanly"),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(
                err,
                crate::error::ReadError::TrailingPayload { bytes: 1, .. }
            ),
            "CRC passed, so the stray payload is what trips: {err}"
        );
    }

    #[test]
    fn out_of_range_swap_is_a_no_op() {
        let img = image();
        assert_eq!(
            apply(&img, &[CorruptionOp::SwapChunks { a: 0, b: 99 }]),
            img
        );
    }
}
