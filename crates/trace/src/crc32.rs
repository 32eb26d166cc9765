//! Hand-rolled CRC-32 (IEEE 802.3 polynomial, the `cksum`/zlib variant),
//! matching the repo's no-external-dependencies rule the same way the
//! bench crate hand-rolls its JSON.
//!
//! Two paths compute the same function, and CPU feature detection alone
//! picks one:
//!
//! * Slicing-by-8: eight 256-entry tables built at compile time fold one
//!   8-byte word per step, and a bytewise loop over table 0 finishes the
//!   tail. It serves inputs under 128 bytes, the tail under 16 bytes of
//!   every longer input, and every CPU without carry-less multiply.
//! * On x86-64 with `PCLMULQDQ`, longer inputs fold four 128-bit
//!   accumulators forward 64 bytes at a time with carry-less multiplies,
//!   merge them, fold any remaining 16-byte blocks, and reduce the 128
//!   bits to the 32-bit CRC with a Barrett reduction. The fold constants
//!   are powers of `x` modulo the polynomial, computed at compile time.
//!
//! The slicing path is the fast path's reference: under `--features
//! audit` every fast CRC is checked against it.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Inputs this long or longer take the carry-less multiply fold where the
/// CPU has it: two 64-byte blocks, the first loading the accumulators.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN_BYTES: usize = 128;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN_BYTES && std::arch::is_x86_feature_detected!("pclmulqdq") {
        let (blocks, tail) = bytes.as_chunks::<16>();
        // SAFETY: `fold` needs only `pclmulqdq` beyond the x86-64
        // baseline, and the CPU was just reported to have it.
        let state = unsafe { clmul::fold(!0, blocks) };
        let crc = !slicing(state, tail);
        bingo_sim::audit_assert!(
            crc == !slicing(!0, bytes),
            "carry-less CRC {crc:#010x} of {} bytes disagrees with slicing-by-8",
            bytes.len()
        );
        return crc;
    }
    !slicing(!0, bytes)
}

/// Advances the raw CRC `state` (before the final xor) over `bytes`,
/// slicing-by-8.
fn slicing(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// The carry-less multiply fold over 16-byte blocks.
///
/// The CRC is reflected, so a 128-bit block holds its polynomial with the
/// first byte's low bit as the highest power. Folding an accumulator `a`
/// forward by `d` bits onto block `b` replaces it with
/// `a.lo * x^(d+32) + a.hi * x^(d-32) + b` (mod `P`, kept unreduced in 128
/// bits), where each power is reduced mod `P` to a 32-bit constant. The
/// constants carry one extra left shift because the product of two
/// reflected 64-bit values lands one bit low in the 128-bit result.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    use super::POLY;

    /// The polynomial in normal form, all 33 bits.
    const P_NORMAL: u64 = (1 << 32) | POLY.reverse_bits() as u64;

    /// `x^n mod P`, normal form.
    const fn x_pow_mod_p(n: u32) -> u64 {
        let mut r = 1u64;
        let mut i = 0;
        while i < n {
            r <<= 1;
            if r & (1 << 32) != 0 {
                r ^= P_NORMAL;
            }
            i += 1;
        }
        r
    }

    /// The constant that folds a half-block forward by `x^n`, reflected
    /// and shifted for the carry-less product.
    const fn fold_key(n: u32) -> i64 {
        (((x_pow_mod_p(n) as u32).reverse_bits() as u64) << 1) as i64
    }

    /// `floor(x^64 / P)`, reflected over its 33 bits: Barrett's `mu`.
    const fn barrett_mu() -> i64 {
        let mut rem: u128 = 1 << 64;
        let mut quotient = 0u64;
        let mut shift = 32;
        loop {
            if rem & (1 << (shift + 32)) != 0 {
                rem ^= (P_NORMAL as u128) << shift;
                quotient |= 1 << shift;
            }
            if shift == 0 {
                break;
            }
            shift -= 1;
        }
        (quotient.reverse_bits() >> 31) as i64
    }

    /// Four accumulators apart: 512 bits.
    const K1: i64 = fold_key(4 * 128 + 32);
    const K2: i64 = fold_key(4 * 128 - 32);
    /// One accumulator apart: 128 bits.
    const K3: i64 = fold_key(128 + 32);
    const K4: i64 = fold_key(128 - 32);
    /// The 96-to-64-bit step.
    const K5: i64 = fold_key(64);
    /// `P` reflected over its 33 bits.
    const P_REFLECTED: i64 = ((POLY as u64) << 1 | 1) as i64;
    const MU: i64 = barrett_mu();

    /// Advances the raw CRC `state` over `blocks`, at least four of them.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn fold(state: u32, blocks: &[[u8; 16]]) -> u32 {
        let (first, rest) = blocks.split_at(4);
        let mut acc = [first[0], first[1], first[2], first[3]].map(|b| load(&b));
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(state as i32));

        let by_four = _mm_set_epi64x(K2, K1);
        let (quads, singles) = rest.as_chunks::<4>();
        for quad in quads {
            for (a, block) in acc.iter_mut().zip(quad) {
                *a = fold_onto(*a, load(block), by_four);
            }
        }

        let by_one = _mm_set_epi64x(K4, K3);
        let mut x = fold_onto(acc[0], acc[1], by_one);
        x = fold_onto(x, acc[2], by_one);
        x = fold_onto(x, acc[3], by_one);
        for block in singles {
            x = fold_onto(x, load(block), by_one);
        }

        // 128 to 96 bits, then 96 to 64.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, by_one),
            _mm_srli_si128::<8>(x),
        );
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );

        // Barrett: the quotient estimate `t1 = (x mod x^32) * mu`, then
        // `x - (t1 mod x^32) * P` leaves the remainder in bits 32..64.
        let p_mu = _mm_set_epi64x(MU, P_REFLECTED);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), p_mu);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32
    }

    /// Folds accumulator `a` forward onto `b`, `keys` holding the low and
    /// high half's constants.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_onto(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(a, keys);
        _mm_xor_si128(_mm_xor_si128(lo, hi), b)
    }

    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and the unaligned load
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time CRC-32: the definition, sharing no table with the
    /// function under test.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// A deterministic byte pattern with every byte value.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i * 167 + 13 + (i >> 8)) as u8)
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The classic check value for the IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Every length across the slicing threshold and many fold blocks,
    /// from every word offset, plus one input past 64 KiB with a tail.
    #[test]
    fn word_steps_match_the_bytewise_reference_at_every_length_and_alignment() {
        let bytes = pattern(1024 + 8);
        for start in 0..8 {
            for len in 0..=1024 {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    reference(slice),
                    "len {len} at offset {start}"
                );
            }
        }
        let long = pattern(64 * 1024 + 1);
        assert_eq!(crc32(&long), reference(&long), "64 KiB + 1");
    }

    /// The slicing path alone, so that a CPU with carry-less multiply
    /// still checks it at lengths the fast path would take.
    #[test]
    fn slicing_matches_the_bitwise_reference() {
        let bytes = pattern(600);
        for start in 0..8 {
            for len in (0..=64).chain([127, 128, 129, 511, 512, 592]) {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    !slicing(!0, slice),
                    reference(slice),
                    "len {len} at offset {start}"
                );
            }
        }
    }

    #[test]
    fn sensitive_to_every_bit() {
        for len in [11, 200] {
            let mut bytes = pattern(len);
            let base = crc32(&bytes);
            for i in 0..bytes.len() * 8 {
                bytes[i / 8] ^= 1 << (i % 8);
                assert_ne!(
                    crc32(&bytes),
                    base,
                    "len {len}: bit {i} flip went undetected"
                );
                bytes[i / 8] ^= 1 << (i % 8);
            }
        }
    }
}
